//! Experiment harness: regenerates every table and figure of the
//! PEPPA-X paper's evaluation.
//!
//! | Paper artifact | Module | `repro` subcommand |
//! |----------------|--------|--------------------|
//! | Figure 1 (overall SDC probability ranges)       | [`study`]       | `fig1` |
//! | Table 2 (coverage ↔ SDC correlation)            | [`study`]       | `table2` |
//! | Figure 2 (per-instruction SDC ranges, CoMD)     | [`ranks`]       | `fig2` |
//! | Table 3 (per-instruction ranking stability)     | [`ranks`]       | `table3` |
//! | Table 4 (FI-space pruning ratios)               | [`pruning_exp`] | `table4` |
//! | Table 5 (distribution-analysis time, ±heuristics)| [`pruning_exp`]| `table5` |
//! | Figure 5 (PEPPA-X vs baseline over generations) | [`search_exp`]  | `fig5` |
//! | Figure 6 (input-space SDC heat maps)            | [`heatmap`]     | `fig6` |
//! | Figure 7 (baseline with 5× search time)         | [`search_exp`]  | `fig7` |
//! | Figure 8 (total time vs generations)            | [`search_exp`]  | `fig8` |
//! | Table 6 (per-input evaluation time)             | [`search_exp`]  | `table6` |
//! | Figure 9 (stress-testing selective duplication) | [`protect_exp`] | `fig9` |
//!
//! Extensions (not in the paper): `repro static-rank` compares the
//! purely static SDC-masking predictor against FI ground truth
//! ([`static_rank`]), `repro hybrid` validates the interprocedural
//! fault-reachability analysis behind `--static-prune` campaigns —
//! exact outcome-count equality plus FI re-injection of provably-masked
//! cells ([`hybrid`]) — `repro precision` measures how much the
//! per-bit interprocedural analysis tightens the masked-cell tables
//! over the frozen table of the retired context-insensitive pipeline,
//! with a per-cell containment gate and a median-skip-ratio floor
//! ([`precision`]) —
//! `repro provenance` cross-checks the shadow-
//! taint tracer against the static reach analysis (containment + static-
//! precision headroom, [`provenance`]), and `repro snapshot` measures
//! the checkpoint/fork campaign engine — wall-
//! clock speedup plus bit-identity with the classic runner
//! ([`snapshot_exp`]).
//!
//! Beyond the paper's artifacts, `repro baseline` measures VM and
//! campaign throughput per benchmark ([`baseline`]) and writes the
//! checked-in `BENCH_baseline.json` regression reference.
//!
//! Every experiment takes a [`Scale`]: `Quick` finishes in minutes on a
//! laptop; `Paper` uses the paper's trial counts (1,000-trial campaigns,
//! 100 trials/instruction, 1,000 GA generations) and runs for hours.

pub mod baseline;
pub mod faultmodel;
pub mod heatmap;
pub mod hybrid;
pub mod optstudy;
pub mod precision;
pub mod protect_exp;
pub mod provenance;
pub mod pruning_exp;
pub mod ranks;
pub mod render;
pub mod scale;
pub mod search_exp;
pub mod snapshot_exp;
pub mod static_rank;
pub mod study;

pub use scale::{Ctx, Scale};
