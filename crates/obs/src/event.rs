//! Typed pipeline events and the observer sink trait.

use serde::{Deserialize, Serialize};

/// Trial outcome, mirrored from the injector's four §2.2 failure
//  categories. Kept as a local enum so the VM/injector layers can depend
/// on this crate without a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Outcome {
    Sdc,
    Crash,
    Hang,
    Benign,
}

impl Outcome {
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Sdc => "sdc",
            Outcome::Crash => "crash",
            Outcome::Hang => "hang",
            Outcome::Benign => "benign",
        }
    }
}

/// One observation from the FI pipeline. Every long-running phase emits
/// a `*Started` / `*Finished` pair; per-unit events stream in between.
///
/// Field units: `latency_ns`/`wall_ns` are wall-clock nanoseconds;
/// `site` is the dynamic value-producing instruction index the fault
/// targeted; `coverage` is the fraction of static instructions executed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A statistical FI campaign began.
    CampaignStarted {
        benchmark: String,
        trials: u32,
        seed: u64,
        threads: usize,
        /// Execution engine trials ran on (`"interp"` or `"compiled"`).
        engine: String,
    },
    /// The campaign's golden (fault-free) run completed cleanly.
    GoldenRun {
        benchmark: String,
        /// Dynamic (non-terminator) instructions executed.
        dynamic: u64,
        /// Value-producing dynamic instructions — the fault-site
        /// population faults are sampled from.
        value_dynamic: u64,
        /// Static instruction coverage of the run, in `[0, 1]`.
        coverage: f64,
    },
    /// One FI trial completed.
    TrialFinished {
        /// Trial index in `[0, trials)`.
        trial: u32,
        outcome: Outcome,
        /// Sampled fault site (dynamic value index). A per-instruction
        /// fault that never fires reports the golden run's
        /// `value_dynamic`, past every site.
        site: u64,
        /// Flipped bit position.
        bit: u32,
        /// Wall-clock duration of the faulty run.
        latency_ns: u64,
    },
    /// A `--static-prune` campaign skipped one trial without executing
    /// it: the sampled fault cell is provably masked, so the trial is
    /// counted as Benign. A paired `TrialFinished` still follows.
    StaticSkip {
        /// Trial index in `[0, trials)`.
        trial: u32,
        /// Static instruction the sampled dynamic site maps to.
        sid: u32,
        /// Sampled fault site (dynamic value index).
        site: u64,
        /// Sampled bit position.
        bit: u32,
    },
    /// A campaign finished; counts partition `trials`.
    CampaignFinished {
        trials: u32,
        sdc: u32,
        crash: u32,
        hang: u32,
        benign: u32,
        wall_ns: u64,
    },
    /// A GA search began.
    SearchStarted {
        benchmark: String,
        generations: u64,
        population: usize,
        seed: u64,
    },
    /// One GA generation finished.
    GenerationFinished {
        generation: u64,
        /// Best Eq.-2 fitness in the population.
        best: f64,
        /// Mean fitness over finite-fitness members.
        mean: f64,
        /// Population diversity: mean per-argument standard deviation,
        /// normalized by each argument's search range.
        diversity: f64,
        /// Fitness-oracle memo hits accumulated so far.
        cache_hits: u64,
        /// Total fitness evaluations so far.
        evaluations: u64,
    },
    /// A GA search finished.
    SearchFinished {
        generations: u64,
        evaluations: u64,
        wall_ns: u64,
    },
    /// A static-analysis pass (verifier, lint, masking predictor) began.
    AnalysisStarted { benchmark: String, pass: String },
    /// A static-analysis pass finished. `findings` counts whatever the
    /// pass produces (lints, scored instructions); zero is a clean run.
    AnalysisFinished {
        pass: String,
        findings: u64,
        wall_ns: u64,
    },
    /// Fault-provenance record of one traced FI trial: where the taint
    /// seeded at the flipped bit went. Emitted by a traced campaign
    /// plan (`CampaignPlan::trace`) right after the trial's
    /// `TrialFinished`.
    TrialProvenance {
        /// Trial index in `[0, trials)`.
        trial: u32,
        outcome: Outcome,
        /// Sampled fault site (dynamic value index).
        site: u64,
        /// Flipped bit position.
        bit: u32,
        /// Static instruction the fault corrupted.
        sid: u32,
        /// Whether the injection activated (taint was seeded).
        seeded: bool,
        /// Whether taint reached an observable sink.
        propagated: bool,
        /// Sink category of the first taint arrival (`"output"`,
        /// `"branch_cond"`, ...), when it propagated.
        sink: Option<String>,
        /// Value definitions that carried taint (propagation hop count).
        hops: u64,
        /// Dynamic index of the corrupted instruction (1-based).
        seed_dynamic: u64,
        /// Dynamic index where the last tainted location died, if the
        /// taint went extinct before the run ended.
        extinction_dynamic: Option<u64>,
        /// Sparse per-static-instruction taint touch counts, sorted by
        /// sid — the rows a propagation heatmap aggregates.
        sid_hits: Vec<(u32, u64)>,
    },
    /// A snapshotted campaign captured one golden-prefix snapshot at a
    /// stratified fork point.
    SnapshotCaptured {
        /// Fork-point index within the campaign's plan.
        index: u32,
        /// Value-dynamic coordinate of the capture point (the snapshot
        /// serves every fault site at or after it).
        value_dynamic: u64,
        /// Dynamic instructions of the prefix the snapshot skips.
        dynamic: u64,
        /// Approximate heap bytes held by the snapshot.
        bytes: u64,
    },
    /// End-of-campaign accounting for a run with snapshots (K > 0), emitted
    /// just before its `CampaignFinished`.
    SnapshotStats {
        /// Snapshots captured along the golden run.
        snapshots: u32,
        /// Total heap bytes across all captured snapshots.
        bytes: u64,
        /// Trials started from a snapshot instead of program entry.
        restores: u64,
        /// Trials that ran from program entry (no usable fork point).
        full_runs: u64,
        /// Trials ended early when their machine state converged with a
        /// golden checkpoint.
        converged_exits: u64,
        /// Golden-prefix dynamic instructions trials did not re-execute.
        prefix_instrs_saved: u64,
    },
    /// A named phase began (nested spans: begin/end pairs are properly
    /// bracketed per thread). `ts_ns` is a process-monotonic timestamp
    /// from [`crate::span::monotonic_ns`].
    SpanBegin { name: String, ts_ns: u64 },
    /// A named phase ended.
    SpanEnd { name: String, ts_ns: u64 },
    /// Free-form annotation (phase markers, warnings).
    Message { text: String },
}

impl Event {
    /// Short tag for humans and journal filtering.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::CampaignStarted { .. } => "campaign_started",
            Event::GoldenRun { .. } => "golden_run",
            Event::TrialFinished { .. } => "trial_finished",
            Event::StaticSkip { .. } => "static_skip",
            Event::CampaignFinished { .. } => "campaign_finished",
            Event::SearchStarted { .. } => "search_started",
            Event::GenerationFinished { .. } => "generation_finished",
            Event::SearchFinished { .. } => "search_finished",
            Event::AnalysisStarted { .. } => "analysis_started",
            Event::AnalysisFinished { .. } => "analysis_finished",
            Event::TrialProvenance { .. } => "trial_provenance",
            Event::SnapshotCaptured { .. } => "snapshot_captured",
            Event::SnapshotStats { .. } => "snapshot_stats",
            Event::SpanBegin { .. } => "span_begin",
            Event::SpanEnd { .. } => "span_end",
            Event::Message { .. } => "message",
        }
    }
}

/// An event sink. Implementations must be cheap and non-blocking where
/// possible: the campaign hot loop calls this from its collector thread.
///
/// `Send + Sync` because one observer is shared across campaign worker
/// scopes and sequential pipeline phases.
pub trait Observer: Send + Sync {
    fn on_event(&self, event: &Event);

    /// Flushes buffered state (files, progress lines). Called at phase
    /// boundaries and before process exit.
    fn flush(&self) {}
}

impl<T: Observer + ?Sized> Observer for std::sync::Arc<T> {
    fn on_event(&self, event: &Event) {
        (**self).on_event(event);
    }

    fn flush(&self) {
        (**self).flush();
    }
}

impl<T: Observer + ?Sized> Observer for &T {
    fn on_event(&self, event: &Event) {
        (**self).on_event(event);
    }

    fn flush(&self) {
        (**self).flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_to_tagged_json() {
        let e = Event::TrialFinished {
            trial: 7,
            outcome: Outcome::Sdc,
            site: 123,
            bit: 40,
            latency_ns: 5000,
        };
        let s = serde_json::to_string(&e).unwrap();
        assert!(s.contains("\"TrialFinished\""), "{s}");
        assert!(s.contains("\"outcome\":\"Sdc\""), "{s}");
        let back: Event = serde_json::from_str(&s).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn kind_tags_are_stable() {
        let e = Event::Message { text: "x".into() };
        assert_eq!(e.kind(), "message");
    }
}
