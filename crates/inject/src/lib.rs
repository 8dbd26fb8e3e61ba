//! Statistical fault injection for PIR programs — the LLFI analogue.
//!
//! The paper's measurement methodology (§3.1.3–3.1.4):
//!
//! * single bit flips in a random dynamic instruction's **return value**
//!   (computing-component faults only; memory assumed ECC-protected);
//! * outcome classification into **SDC** (clean exit, wrong output),
//!   **crash** (trap), **hang** (budget exhaustion), or **benign**
//!   (identical output);
//! * SDC probability = SDCs / activated faults (return-value flips always
//!   activate, so the denominator is the trial count);
//! * 1,000 trials per program-level measurement, ~100 per instruction for
//!   per-instruction probabilities, 30 per representative in the pruned
//!   distribution analysis.
//!
//! Every campaign is one [`CampaignPlan`]: golden run → fault sampler →
//! optional static-prune filter → trial executor (from entry, or resumed
//! from golden-prefix snapshots) → optional shadow-taint hook →
//! aggregator. The optional stages change only how trials execute, never
//! which faults they sample, so they compose freely (except that a
//! skipped trial has nothing to trace) and outcome counts stay
//! bit-identical to the plain campaign's. Trials fan out over scoped
//! threads while each trial's RNG stream depends only on `(seed, trial)`,
//! so results are bit-for-bit reproducible at any parallelism level.

pub mod campaign;
pub mod forkpoint;
pub mod outcome;
pub mod per_instr;
pub mod plan;
pub mod propagation;
pub mod provenance;

pub use campaign::{
    run_campaign, run_campaign_pruned_gated_observed, run_campaign_snapshotted_observed,
    CampaignConfig, CampaignResult, GatedPrunedCampaignResult, PruneDecision, PruneGate,
    PrunedCampaignResult, SnapshotConfig, SnapshotStats, SnapshottedCampaignResult, StaticPrune,
};
pub use forkpoint::{fork_point_for, plan_fork_points};
pub use outcome::{classify, FaultOutcome};
pub use per_instr::{per_instruction_sdc, PerInstrConfig, PerInstrResult};
pub use plan::{CampaignPlan, PlanResult, DEFAULT_SNAPSHOTS};
pub use propagation::{generate_corpus, trace_propagation, CorpusEntry, PropagationTrace};
pub use provenance::TracedTrial;
