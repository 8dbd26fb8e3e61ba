//! Static program analysis for PEPPA-X.
//!
//! Two analyses from the paper live here:
//!
//! * **Def-use dataflow** ([`defuse`]): which static instructions feed
//!   which. Block parameters (the φ-replacement) are treated as
//!   transparent wires, so a dataflow chain survives crossing a block
//!   boundary, just as it would through an LLVM φ.
//! * **FI-space pruning** ([`pruning`], §4.2.2): instructions along one
//!   static data dependency share similar SDC probabilities, *except*
//!   compares, logic operators, bit-manipulation casts, and pointer
//!   operations, which "consistently differentiate" and start their own
//!   subgroup. Fault injection then only needs one representative per
//!   subgroup.
//!
//! Code coverage, which the small-FI-input fuzzing step (§4.2.1) and the
//! coverage-vs-SDC correlation study (Table 2) need, is read straight off
//! a run's profile (`peppa_vm::Profile::coverage`).
//!
//! On top of these sits a reusable dataflow framework:
//!
//! * [`cfg`](mod@cfg): per-function CFG view — successors/predecessors, reverse
//!   postorder, dominator tree, loop headers.
//! * [`dataflow`]: generic worklist solver over block facts
//!   ([`BlockAnalysis`]) and a per-value abstract-interpretation engine
//!   ([`AbstractDomain`], [`analyze_values`]) with widening at loop
//!   headers.
//! * [`knownbits`] / [`range`]: the two bundled value domains — which
//!   bits are provably 0/1, and signed / float intervals.
//! * [`liveness`]: backward liveness (the snapshot convergence masks)
//!   plus observable-liveness (values that never reach an observable).
//! * [`predict`]: the static SDC-masking predictor built from all of the
//!   above (scored against FI ground truth by `repro static-rank`).
//! * [`lint`]: verifier-gated static lints with machine-readable
//!   findings (`peppa lint`).
//!
//! The interprocedural, memory-aware layer composes those pieces:
//!
//! * [`callgraph`]: call sites, bottom-up SCC order.
//! * [`memdep`]: store→load reaching edges from `AbsRange` address
//!   intervals with may-alias fallback.
//! * [`summary`]: per-bit interprocedural transfer summaries and
//!   interprocedural value facts.
//! * [`reach`]: per-bit fault-propagation reachability — for every
//!   injection site, the bits whose flip may reach an observable; a
//!   fault outside them is provably masked. The basis of
//!   `--static-prune` FI campaigns.

pub mod callgraph;
pub mod cfg;
pub mod dataflow;
pub mod defuse;
pub mod deviation;
pub mod knownbits;
pub mod lint;
pub mod liveness;
pub mod memdep;
pub mod predict;
pub mod pruning;
pub mod range;
pub mod reach;
pub mod rewrite;
pub mod summary;

pub use callgraph::{CallGraph, CallSite};
pub use cfg::Cfg;
pub use dataflow::{
    analyze_module, analyze_values, analyze_values_seeded, solve_blocks, AbstractDomain,
    BlockAnalysis, Direction, ModuleValueFacts, ValueFacts,
};
pub use defuse::DefUse;
pub use deviation::{DeviationAnalysis, GoldenObserver, GoldenStats};
pub use knownbits::KnownBits;
pub use lint::{lint_module, Lint, LintReport, Severity};
pub use liveness::{converge_masks, live_at_boundaries, live_in, observable_live, ValueSet};
pub use memdep::{MemAccess, MemDepGraph};
pub use predict::{predict_sdc, SdcPrediction};
pub use pruning::{prune_fi_space, prune_fi_space_refined, PruningResult};
pub use range::{AbsRange, FRange, IRange};
pub use reach::{effective_flip_mask, FaultReach};
pub use rewrite::{optimize, OptLevel, OptResult, Pass, PassStats, PipelineStats};
pub use summary::{analyze_module_interproc, summarize_bits, BitSummary, InterprocFacts};
