//! Program-level statistical FI campaigns: what a campaign measures.
//!
//! This module holds a campaign's configuration, results, static prune
//! table and gate, and errors; [`crate::plan`] holds how a campaign
//! executes. [`run_campaign`] runs the plain [`CampaignPlan`]. The
//! snapshotted and gated-pruned runners are thin wrappers over a plan,
//! kept with their signatures and result types for existing callers.

use crate::outcome::FaultOutcome;
use crate::plan::{CampaignPlan, DEFAULT_SNAPSHOTS};
use peppa_ir::Module;
use peppa_obs::{NullObserver, Observer, Outcome as ObsOutcome};
use peppa_stats::{BinomialCi, Pcg64};
use peppa_vm::{EngineKind, ExecLimits, Injection, InjectionTarget, Profile, RunOutput, Vm};
use serde::{Deserialize, Serialize};

/// Configuration of one campaign.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Number of FI trials (the paper uses 1,000 for program-level
    /// measurements).
    pub trials: u32,
    /// Seed for fault-site sampling. Trial `t` uses a stream derived from
    /// `(seed, t)`, so results do not depend on scheduling.
    pub seed: u64,
    /// Hang budget for faulty runs, as a multiple of the golden run's
    /// dynamic instruction count.
    pub hang_factor: u64,
    /// Additional adjacent bits to flip per fault (0 = the paper's
    /// single-bit model; 1 = adjacent double-bit, etc.).
    pub burst: u8,
    /// Number of worker threads; 0 means use all available cores.
    pub threads: usize,
    /// Execution backend trials run on. The engines are observably
    /// bit-identical (see `crates/vm/tests/engine_differential.rs`),
    /// so this is a pure wall-clock knob: outcome counts do not depend
    /// on it.
    pub engine: EngineKind,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            trials: 1000,
            seed: 0x5eed,
            hang_factor: 8,
            threads: 0,
            burst: 0,
            engine: EngineKind::Interp,
        }
    }
}

/// Aggregated campaign outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignResult {
    pub trials: u32,
    pub sdc: u32,
    pub crash: u32,
    pub hang: u32,
    pub benign: u32,
    /// 95% Wilson interval on the SDC probability.
    pub sdc_ci: BinomialCi,
    /// Total program executions consumed (executed trials + the golden
    /// run) — the cost unit used when comparing search budgets with the
    /// baseline.
    pub executions: u64,
    /// Dynamic instructions of the golden run.
    pub golden_dynamic: u64,
}

impl CampaignResult {
    /// SDC probability: `P(SDC | fault activated)`. Return-value flips
    /// always activate, so the denominator is the trial count.
    pub fn sdc_prob(&self) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        self.sdc as f64 / self.trials as f64
    }

    pub fn crash_prob(&self) -> f64 {
        if self.trials == 0 {
            return 0.0;
        }
        self.crash as f64 / self.trials as f64
    }
}

/// Per-cell static skip table for `--static-prune` campaigns.
///
/// `cells[sid]` has bit `b` set iff a fault sampled at bit position `b`
/// of static instruction `sid` is provably masked under the burst model
/// the table was built for. The injector deliberately does not depend on
/// the analysis that builds the table; callers build it from a
/// `FaultReach` (and, for one input, its deviation cells) in the bench
/// and CLI layers. Missing sids are never skipped.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StaticPrune {
    pub cells: Vec<u64>,
    /// Burst width the table was computed for; the campaign refuses a
    /// mismatched `CampaignConfig::burst`.
    pub burst: u8,
}

impl StaticPrune {
    /// Whether the sampled `(sid, bit)` cell is provably masked.
    #[inline]
    pub fn is_masked(&self, sid: u32, bit: u32) -> bool {
        bit < 64 && (self.cells.get(sid as usize).copied().unwrap_or(0) >> bit) & 1 != 0
    }

    /// Number of masked cells in the table.
    pub fn masked_cells(&self) -> u64 {
        self.cells.iter().map(|c| c.count_ones() as u64).sum()
    }

    /// Predicted fraction of uniformly sampled `(dynamic site, bit)`
    /// faults this table skips, given the golden run's per-sid
    /// execution counts: `Σ exec_counts[sid] · popcount(cells[sid]) /
    /// (value_dynamic · 64)`. Exact for sound tables (masked cells only
    /// cover value-producing instructions, whose execution count equals
    /// their dynamic value instance count).
    pub fn predicted_skip_ratio(&self, exec_counts: &[u64], value_dynamic: u64) -> f64 {
        if value_dynamic == 0 {
            return 0.0;
        }
        let masked: f64 = exec_counts
            .iter()
            .zip(&self.cells)
            .map(|(&n, &c)| n as f64 * c.count_ones() as f64)
            .sum();
        masked / (value_dynamic as f64 * 64.0)
    }
}

/// Threshold policy of the prune filter: pruning engages whenever the
/// predicted skip ratio *exceeds* the threshold.
///
/// The default threshold is 0: any table predicting a nonzero skip
/// ratio engages, and only a table predicting no skips at all (e.g.
/// one with no masked cell the golden run executes) stays on the
/// unpruned path.
#[derive(Debug, Clone, Copy)]
pub struct PruneGate {
    /// Predicted skip ratio must be strictly greater than this for
    /// pruning to engage.
    pub min_skip_ratio: f64,
}

impl Default for PruneGate {
    fn default() -> Self {
        PruneGate {
            min_skip_ratio: 0.0,
        }
    }
}

impl PruneGate {
    /// Decides whether `table` engages for a campaign whose golden run
    /// has this profile.
    pub(crate) fn decide(&self, table: &StaticPrune, golden: &Profile) -> PruneDecision {
        let predicted_skip_ratio =
            table.predicted_skip_ratio(&golden.exec_counts, golden.value_dynamic);
        PruneDecision {
            applied: predicted_skip_ratio > self.min_skip_ratio,
            masked_cells: table.masked_cells(),
            predicted_skip_ratio,
            threshold: self.min_skip_ratio,
        }
    }
}

/// What the prune gate decided, and why.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PruneDecision {
    /// Whether pruning actually engaged.
    pub applied: bool,
    /// Masked `(sid, bit)` cells in the supplied table.
    pub masked_cells: u64,
    /// Predicted fraction of trials the table would skip.
    pub predicted_skip_ratio: f64,
    /// The gate's `min_skip_ratio`.
    pub threshold: f64,
}

/// The journal line announcing the decision.
impl std::fmt::Display for PruneDecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (state, rule) = match self.applied {
            true => ("engaged", ">"),
            false => ("disengaged", "<="),
        };
        write!(
            f,
            "prune gate: {state} (masked cells {}, predicted skip {:.2}% {rule} threshold {:.2}%)",
            self.masked_cells,
            self.predicted_skip_ratio * 100.0,
            self.threshold * 100.0
        )
    }
}

/// A [`CampaignResult`] plus the pruning bookkeeping.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PrunedCampaignResult {
    pub campaign: CampaignResult,
    /// Trials skipped without execution (already counted Benign in
    /// `campaign`).
    pub skipped: u64,
}

/// A [`PrunedCampaignResult`] plus the gate's decision record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GatedPrunedCampaignResult {
    pub result: PrunedCampaignResult,
    pub decision: PruneDecision,
}

/// Configuration of the snapshot stage of
/// [`run_campaign_snapshotted_observed`].
#[derive(Debug, Clone, Copy)]
pub struct SnapshotConfig {
    /// Maximum golden-prefix snapshots to capture (the `--snapshots K`
    /// knob). `0` degenerates to the plain campaign: every trial
    /// executes from program entry.
    pub snapshots: u32,
}

impl Default for SnapshotConfig {
    fn default() -> Self {
        SnapshotConfig {
            snapshots: DEFAULT_SNAPSHOTS,
        }
    }
}

/// The trial executor's accounting.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SnapshotStats {
    /// Snapshots actually captured (≤ the configured `K`: fork points
    /// dedup when sampled sites repeat).
    pub snapshots: u32,
    /// Total heap bytes across all captured snapshots.
    pub bytes: u64,
    /// Trials resumed from a snapshot.
    pub restores: u64,
    /// Trials executed from program entry (`snapshots == 0`).
    pub full_runs: u64,
    /// Trials cut short by golden-state convergence.
    pub converged_exits: u64,
    /// Golden-prefix dynamic instructions the resumed trials did not
    /// re-execute — the quantity the speedup comes from.
    pub prefix_instrs_saved: u64,
}

/// A [`CampaignResult`] plus the snapshot engine's accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnapshottedCampaignResult {
    pub campaign: CampaignResult,
    pub stats: SnapshotStats,
}

/// Errors that stop a campaign before any trial runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignError {
    /// The golden run did not exit cleanly; the input is invalid for
    /// resilience measurement (§3.1.2 discards inputs that error out).
    GoldenRunFailed(String),
    /// The program executed no value-producing instructions.
    NoFaultSites,
    /// The [`StaticPrune`] table was built for a different burst width
    /// than the campaign is configured to inject.
    PruneBurstMismatch { table: u8, campaign: u8 },
    /// The plan combines a prune table with tracing: a skipped trial has
    /// no execution to trace.
    PruneWithTrace,
    /// A per-instruction plan asks for more trials than a campaign can
    /// index (`u32::MAX`).
    TooManyTrials {
        instructions: u64,
        per_instruction: u32,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::GoldenRunFailed(s) => write!(f, "golden run failed: {s}"),
            CampaignError::NoFaultSites => write!(f, "no value-producing dynamic instructions"),
            CampaignError::PruneBurstMismatch { table, campaign } => write!(
                f,
                "static-prune table built for burst {table}, campaign uses burst {campaign}"
            ),
            CampaignError::PruneWithTrace => write!(
                f,
                "static pruning (--static-prune) and propagation tracing \
                 (--trace-propagation) do not compose: a skipped trial has \
                 no execution to trace"
            ),
            CampaignError::TooManyTrials {
                instructions,
                per_instruction,
            } => write!(
                f,
                "{instructions} instructions × {per_instruction} trials each exceeds \
                 {} trials per campaign",
                u32::MAX
            ),
        }
    }
}

impl std::error::Error for CampaignError {}

/// Runs the golden execution for `inputs` on the interpreter, checking
/// it is clean.
pub fn golden_run(
    module: &Module,
    inputs: &[f64],
    limits: ExecLimits,
) -> Result<RunOutput, CampaignError> {
    check_golden(Vm::new(module, limits).run_numeric(inputs, None))
}

/// Rejects a golden run that did not exit cleanly.
pub(crate) fn check_golden(golden: RunOutput) -> Result<RunOutput, CampaignError> {
    if golden.status.is_ok() {
        Ok(golden)
    } else {
        Err(CampaignError::GoldenRunFailed(format!(
            "{:?}",
            golden.status
        )))
    }
}

/// Samples one fault site uniformly over the golden run's value-producing
/// dynamic instructions.
pub fn sample_fault(rng: &mut Pcg64, value_dynamic: u64) -> Injection {
    sample_fault_burst(rng, value_dynamic, 0)
}

/// Samples a fault site under the multi-bit (burst) model.
pub fn sample_fault_burst(rng: &mut Pcg64, value_dynamic: u64, burst: u8) -> Injection {
    let dyn_index = rng.gen_range_u64(value_dynamic);
    let bit = rng.gen_range_u64(64) as u32;
    Injection {
        target: InjectionTarget::DynamicIndex(dyn_index),
        bit,
        burst,
    }
}

impl From<FaultOutcome> for ObsOutcome {
    fn from(o: FaultOutcome) -> ObsOutcome {
        match o {
            FaultOutcome::Sdc => ObsOutcome::Sdc,
            FaultOutcome::Crash => ObsOutcome::Crash,
            FaultOutcome::Hang => ObsOutcome::Hang,
            FaultOutcome::Benign => ObsOutcome::Benign,
        }
    }
}

/// Runs a statistical FI campaign for one input: the plain
/// [`CampaignPlan`], unobserved.
pub fn run_campaign(
    module: &Module,
    inputs: &[f64],
    limits: ExecLimits,
    cfg: CampaignConfig,
) -> Result<CampaignResult, CampaignError> {
    CampaignPlan::new(module, inputs, limits, cfg)
        .run(&NullObserver)
        .map(|r| r.campaign)
}

/// The plan with `snap.snapshots` golden-prefix snapshots, observed.
/// Outcome counts are bit-identical to [`run_campaign`]'s.
pub fn run_campaign_snapshotted_observed(
    module: &Module,
    inputs: &[f64],
    limits: ExecLimits,
    cfg: CampaignConfig,
    snap: SnapshotConfig,
    observer: &dyn Observer,
) -> Result<SnapshottedCampaignResult, CampaignError> {
    let r = CampaignPlan::new(module, inputs, limits, cfg)
        .snapshots(snap.snapshots)
        .run(observer)?;
    Ok(SnapshottedCampaignResult {
        campaign: r.campaign,
        stats: r.stats,
    })
}

/// The plan with `prune` behind `gate`, observed. Outcome counts are
/// identical whichever way the gate decides — a disengaged gate only
/// stops trials from being *skipped*, and skipped trials are Benign by
/// proof.
#[allow(clippy::too_many_arguments)]
pub fn run_campaign_pruned_gated_observed(
    module: &Module,
    inputs: &[f64],
    limits: ExecLimits,
    cfg: CampaignConfig,
    prune: &StaticPrune,
    gate: PruneGate,
    observer: &dyn Observer,
) -> Result<GatedPrunedCampaignResult, CampaignError> {
    let r = CampaignPlan::new(module, inputs, limits, cfg)
        .prune(prune, gate)
        .run(observer)?;
    Ok(GatedPrunedCampaignResult {
        result: PrunedCampaignResult {
            campaign: r.campaign,
            skipped: r.skipped,
        },
        decision: r.decision.expect("a prune table always yields a decision"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::CampaignPlan;
    use peppa_obs::Event;

    /// A kernel where faults visibly matter: accumulates a function of
    /// the input and outputs the sum plus a guard value.
    const SRC: &str = r#"
        global float buf[64];
        fn main(n: int, s: float) {
            for (i = 0; i < n; i = i + 1) {
                buf[i] = s * i2f(i) + 1.0;
            }
            let acc = 0.0;
            for (i = 0; i < n; i = i + 1) {
                acc = acc + buf[i] * buf[i];
            }
            output acc;
        }
    "#;

    fn module() -> Module {
        peppa_lang::compile(SRC, "camp").unwrap()
    }

    #[test]
    fn campaign_counts_sum_to_trials() {
        let m = module();
        let cfg = CampaignConfig {
            trials: 200,
            seed: 1,
            ..Default::default()
        };
        let r = run_campaign(&m, &[16.0, 0.5], ExecLimits::default(), cfg).unwrap();
        assert_eq!(r.sdc + r.crash + r.hang + r.benign, r.trials);
        assert!(r.sdc > 0, "expected some SDCs, got {r:?}");
        assert_eq!(r.executions, 201);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let m = module();
        let base = CampaignConfig {
            trials: 120,
            seed: 77,
            hang_factor: 8,
            threads: 1,
            burst: 0,
            engine: EngineKind::Interp,
        };
        let a = run_campaign(&m, &[12.0, 0.25], ExecLimits::default(), base).unwrap();
        let b = run_campaign(
            &m,
            &[12.0, 0.25],
            ExecLimits::default(),
            CampaignConfig { threads: 4, ..base },
        )
        .unwrap();
        assert_eq!(
            (a.sdc, a.crash, a.hang, a.benign),
            (b.sdc, b.crash, b.hang, b.benign)
        );
    }

    #[test]
    fn different_seeds_vary() {
        let m = module();
        let mk = |seed| CampaignConfig {
            trials: 150,
            seed,
            ..Default::default()
        };
        let a = run_campaign(&m, &[16.0, 0.5], ExecLimits::default(), mk(1)).unwrap();
        let b = run_campaign(&m, &[16.0, 0.5], ExecLimits::default(), mk(2)).unwrap();
        // Same distribution, different sample: exact tie across all four
        // counters is very unlikely.
        assert!(
            (a.sdc, a.crash, a.hang, a.benign) != (b.sdc, b.crash, b.hang, b.benign),
            "two seeds produced identical outcome vectors"
        );
    }

    #[test]
    fn golden_failure_rejected() {
        // x = 0 divides by zero in the golden run, so the input is
        // rejected before any trial.
        let m = peppa_lang::compile("fn main(x: int) { output 100 / x; }", "div").unwrap();
        let e = run_campaign(&m, &[0.0], ExecLimits::default(), Default::default());
        assert!(matches!(e, Err(CampaignError::GoldenRunFailed(_))));
        // A clean divisor works.
        let ok = run_campaign(
            &m,
            &[5.0],
            ExecLimits::default(),
            CampaignConfig {
                trials: 50,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(ok.trials, 50);
    }

    /// Collects every event for post-hoc assertions.
    struct Collecting(std::sync::Mutex<Vec<Event>>);

    impl Observer for Collecting {
        fn on_event(&self, event: &Event) {
            self.0.lock().unwrap().push(event.clone());
        }
    }

    #[test]
    fn observed_campaign_emits_one_event_per_trial() {
        let m = module();
        let cfg = CampaignConfig {
            trials: 90,
            seed: 3,
            threads: 4,
            ..Default::default()
        };
        let obs = Collecting(std::sync::Mutex::new(Vec::new()));
        let r = CampaignPlan::new(&m, &[16.0, 0.5], ExecLimits::default(), cfg)
            .run(&obs)
            .map(|r| r.campaign)
            .unwrap();
        let events = obs.0.into_inner().unwrap();

        let trials: Vec<&Event> = events
            .iter()
            .filter(|e| e.kind() == "trial_finished")
            .collect();
        assert_eq!(trials.len(), cfg.trials as usize);
        // Every logical trial index appears exactly once, whatever the
        // completion order was.
        let mut seen: Vec<u32> = trials
            .iter()
            .map(|e| match e {
                Event::TrialFinished { trial, .. } => *trial,
                _ => unreachable!(),
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..cfg.trials).collect::<Vec<_>>());

        // The terminal event's counts match the returned result.
        match events.last().unwrap() {
            Event::CampaignFinished {
                trials,
                sdc,
                crash,
                hang,
                benign,
                ..
            } => {
                assert_eq!(
                    (*trials, *sdc, *crash, *hang, *benign),
                    (r.trials, r.sdc, r.crash, r.hang, r.benign)
                );
            }
            other => panic!("last event was {other:?}"),
        }
        // The golden phase is bracketed by its span, and the trials
        // phase opens right after the golden-run event.
        let prefix: Vec<&str> = events[..5].iter().map(|e| e.kind()).collect();
        assert_eq!(
            prefix,
            [
                "campaign_started",
                "span_begin",
                "span_end",
                "golden_run",
                "span_begin"
            ]
        );
    }

    #[test]
    fn observed_result_identical_across_thread_counts() {
        let m = module();
        let base = CampaignConfig {
            trials: 96,
            seed: 41,
            hang_factor: 8,
            threads: 1,
            burst: 0,
            engine: EngineKind::Interp,
        };
        let obs = Collecting(std::sync::Mutex::new(Vec::new()));
        let a = CampaignPlan::new(&m, &[14.0, 0.75], ExecLimits::default(), base)
            .run(&obs)
            .map(|r| r.campaign)
            .unwrap();
        let b = CampaignPlan::new(
            &m,
            &[14.0, 0.75],
            ExecLimits::default(),
            CampaignConfig { threads: 4, ..base },
        )
        .run(&obs)
        .map(|r| r.campaign)
        .unwrap();
        assert_eq!(
            (a.sdc, a.crash, a.hang, a.benign),
            (b.sdc, b.crash, b.hang, b.benign)
        );
        // And observation does not perturb the unobserved runner either.
        let c = run_campaign(&m, &[14.0, 0.75], ExecLimits::default(), base).unwrap();
        assert_eq!(
            (a.sdc, a.crash, a.hang, a.benign),
            (c.sdc, c.crash, c.hang, c.benign)
        );
    }

    #[test]
    fn metrics_outcome_counters_match_result() {
        let m = module();
        let cfg = CampaignConfig {
            trials: 80,
            seed: 9,
            ..Default::default()
        };
        let reg = peppa_obs::MetricsRegistry::new();
        let r = CampaignPlan::new(&m, &[16.0, 0.5], ExecLimits::default(), cfg)
            .run(&reg)
            .map(|r| r.campaign)
            .unwrap();
        assert_eq!(reg.counter_value("campaign.outcome.sdc"), r.sdc as u64);
        assert_eq!(reg.counter_value("campaign.outcome.crash"), r.crash as u64);
        assert_eq!(reg.counter_value("campaign.outcome.hang"), r.hang as u64);
        assert_eq!(
            reg.counter_value("campaign.outcome.benign"),
            r.benign as u64
        );
        assert_eq!(
            reg.counter_value("campaign.trials.finished"),
            r.trials as u64
        );
    }

    #[test]
    fn journal_has_one_line_per_trial() {
        let m = module();
        let cfg = CampaignConfig {
            trials: 40,
            seed: 12,
            threads: 2,
            ..Default::default()
        };
        let path = std::env::temp_dir().join(format!(
            "peppa-campaign-journal-{}.jsonl",
            std::process::id()
        ));
        {
            let j = peppa_obs::JsonlJournal::create(&path).unwrap();
            CampaignPlan::new(&m, &[16.0, 0.5], ExecLimits::default(), cfg)
                .run(&j)
                .map(|r| r.campaign)
                .unwrap();
        }
        let events = peppa_obs::JsonlJournal::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let trial_lines = events
            .iter()
            .filter(|e| e.kind() == "trial_finished")
            .count();
        assert_eq!(trial_lines, cfg.trials as usize);
    }

    #[test]
    fn pruned_campaign_with_empty_table_matches_full_exactly() {
        let m = module();
        let cfg = CampaignConfig {
            trials: 120,
            seed: 21,
            threads: 2,
            ..Default::default()
        };
        let full = run_campaign(&m, &[16.0, 0.5], ExecLimits::default(), cfg).unwrap();
        let none = StaticPrune {
            cells: vec![0; m.num_instrs],
            burst: 0,
        };
        let pruned = CampaignPlan::new(&m, &[16.0, 0.5], ExecLimits::default(), cfg)
            .prune(&none, PruneGate::default())
            .run(&NullObserver)
            .unwrap();
        assert_eq!(pruned.skipped, 0);
        assert_eq!(
            (full.sdc, full.crash, full.hang, full.benign),
            (
                pruned.campaign.sdc,
                pruned.campaign.crash,
                pruned.campaign.hang,
                pruned.campaign.benign
            )
        );
        assert_eq!(pruned.campaign.executions, full.executions);
    }

    #[test]
    fn fully_masked_table_skips_every_trial() {
        let m = module();
        let cfg = CampaignConfig {
            trials: 60,
            seed: 4,
            threads: 3,
            ..Default::default()
        };
        let all = StaticPrune {
            cells: vec![u64::MAX; m.num_instrs],
            burst: 0,
        };
        let obs = Collecting(std::sync::Mutex::new(Vec::new()));
        let r = CampaignPlan::new(&m, &[16.0, 0.5], ExecLimits::default(), cfg)
            .prune(&all, PruneGate::default())
            .run(&obs)
            .unwrap();
        assert_eq!(r.skipped, 60);
        assert_eq!(r.skip_ratio(), 1.0);
        assert_eq!(r.campaign.benign, 60);
        // No faulty executions: only the golden run was paid for.
        assert_eq!(r.campaign.executions, 1);

        let events = obs.0.into_inner().unwrap();
        let skips = events.iter().filter(|e| e.kind() == "static_skip").count();
        let trials = events
            .iter()
            .filter(|e| e.kind() == "trial_finished")
            .count();
        assert_eq!(skips, 60, "one StaticSkip per skipped trial");
        assert_eq!(trials, 60, "TrialFinished still fires for every trial");
    }

    #[test]
    fn prune_burst_mismatch_is_rejected() {
        let m = module();
        let table = StaticPrune {
            cells: vec![0; m.num_instrs],
            burst: 1,
        };
        let e = CampaignPlan::new(
            &m,
            &[16.0, 0.5],
            ExecLimits::default(),
            CampaignConfig::default(),
        )
        .prune(&table, PruneGate::default())
        .run(&NullObserver);
        assert!(matches!(
            e,
            Err(CampaignError::PruneBurstMismatch {
                table: 1,
                campaign: 0
            })
        ));
    }

    #[test]
    fn pruned_campaign_deterministic_across_thread_counts() {
        let m = module();
        // Mask a slice of cells so some trials skip and some run.
        let mut cells = vec![0u64; m.num_instrs];
        for (i, c) in cells.iter_mut().enumerate() {
            if i % 3 == 0 {
                *c = 0x00FF_FF00_0000_FF00;
            }
        }
        let table = StaticPrune { cells, burst: 0 };
        let base = CampaignConfig {
            trials: 90,
            seed: 17,
            hang_factor: 8,
            threads: 1,
            burst: 0,
            engine: EngineKind::Interp,
        };
        let a = CampaignPlan::new(&m, &[12.0, 0.25], ExecLimits::default(), base)
            .prune(&table, PruneGate::default())
            .run(&NullObserver)
            .unwrap();
        let b = CampaignPlan::new(
            &m,
            &[12.0, 0.25],
            ExecLimits::default(),
            CampaignConfig { threads: 4, ..base },
        )
        .prune(&table, PruneGate::default())
        .run(&NullObserver)
        .unwrap();
        assert_eq!(a.skipped, b.skipped);
        assert_eq!(
            (
                a.campaign.sdc,
                a.campaign.crash,
                a.campaign.hang,
                a.campaign.benign
            ),
            (
                b.campaign.sdc,
                b.campaign.crash,
                b.campaign.hang,
                b.campaign.benign
            )
        );
    }

    #[test]
    fn snapshotted_campaign_bit_identical_to_full() {
        let m = module();
        let cfg = CampaignConfig {
            trials: 150,
            seed: 33,
            hang_factor: 8,
            threads: 1,
            burst: 0,
            engine: EngineKind::Interp,
        };
        let full = run_campaign(&m, &[16.0, 0.5], ExecLimits::default(), cfg).unwrap();
        for k in [0, 1, 8, 64] {
            for threads in [1, 4] {
                let r = CampaignPlan::new(
                    &m,
                    &[16.0, 0.5],
                    ExecLimits::default(),
                    CampaignConfig { threads, ..cfg },
                )
                .snapshots(k)
                .run(&NullObserver)
                .unwrap();
                assert_eq!(
                    (full.sdc, full.crash, full.hang, full.benign),
                    (
                        r.campaign.sdc,
                        r.campaign.crash,
                        r.campaign.hang,
                        r.campaign.benign
                    ),
                    "k={k} threads={threads}"
                );
                assert_eq!(r.campaign.executions, full.executions);
                assert_eq!(r.campaign.golden_dynamic, full.golden_dynamic);
                assert_eq!(
                    r.stats.restores + r.stats.full_runs,
                    cfg.trials as u64,
                    "every trial either restores or runs from entry"
                );
                if k == 0 {
                    assert_eq!(r.stats.snapshots, 0);
                    assert_eq!(r.stats.full_runs, cfg.trials as u64);
                } else {
                    assert!(r.stats.snapshots >= 1 && r.stats.snapshots <= k);
                    assert!(r.stats.bytes > 0);
                    assert!(r.stats.restores > 0, "k={k}: some trial must restore");
                    if k > 1 {
                        // With one fork point at the earliest sampled
                        // site the prefix can legitimately be empty
                        // (site 0 ⇒ snapshot at dynamic 0); with more
                        // points the later ones must save something.
                        assert!(r.stats.prefix_instrs_saved > 0, "k={k}");
                    }
                }
            }
        }
    }

    #[test]
    fn snapshotted_campaign_emits_capture_and_stats_events() {
        let m = module();
        let cfg = CampaignConfig {
            trials: 60,
            seed: 8,
            threads: 2,
            ..Default::default()
        };
        let obs = Collecting(std::sync::Mutex::new(Vec::new()));
        let r = run_campaign_snapshotted_observed(
            &m,
            &[16.0, 0.5],
            ExecLimits::default(),
            cfg,
            SnapshotConfig::default(),
            &obs,
        )
        .unwrap();
        let events = obs.0.into_inner().unwrap();
        let captures = events
            .iter()
            .filter(|e| e.kind() == "snapshot_captured")
            .count();
        assert_eq!(captures as u32, r.stats.snapshots);
        // SnapshotStats is the penultimate event, right before
        // CampaignFinished, and its counts match the result.
        match &events[events.len() - 2] {
            Event::SnapshotStats {
                snapshots,
                restores,
                full_runs,
                prefix_instrs_saved,
                ..
            } => {
                assert_eq!(*snapshots, r.stats.snapshots);
                assert_eq!(*restores, r.stats.restores);
                assert_eq!(*full_runs, r.stats.full_runs);
                assert_eq!(*prefix_instrs_saved, r.stats.prefix_instrs_saved);
            }
            other => panic!("expected SnapshotStats before CampaignFinished, got {other:?}"),
        }
        assert_eq!(events.last().unwrap().kind(), "campaign_finished");
        let trial_events = events
            .iter()
            .filter(|e| e.kind() == "trial_finished")
            .count();
        assert_eq!(trial_events, cfg.trials as usize);
    }

    #[test]
    fn predicted_skip_ratio_matches_table_extremes() {
        let m = module();
        let golden = golden_run(&m, &[16.0, 0.5], ExecLimits::default()).unwrap();
        let empty = StaticPrune {
            cells: vec![0; m.num_instrs],
            burst: 0,
        };
        assert_eq!(
            empty.predicted_skip_ratio(&golden.profile.exec_counts, golden.profile.value_dynamic),
            0.0
        );
        let all = StaticPrune {
            cells: vec![u64::MAX; m.num_instrs],
            burst: 0,
        };
        // Every value-producing cell masked predicts ≥ 100% skip (the
        // estimate also counts non-value instructions, so it can only
        // overshoot, never undershoot).
        assert!(
            all.predicted_skip_ratio(&golden.profile.exec_counts, golden.profile.value_dynamic)
                >= 1.0
        );
    }

    #[test]
    fn prune_gate_disengages_on_empty_table_and_engages_on_full() {
        let m = module();
        let cfg = CampaignConfig {
            trials: 80,
            seed: 19,
            threads: 2,
            ..Default::default()
        };
        let empty = StaticPrune {
            cells: vec![0; m.num_instrs],
            burst: 0,
        };
        let g = run_campaign_pruned_gated_observed(
            &m,
            &[16.0, 0.5],
            ExecLimits::default(),
            cfg,
            &empty,
            PruneGate::default(),
            &NullObserver,
        )
        .unwrap();
        assert!(!g.decision.applied);
        assert_eq!(g.decision.masked_cells, 0);
        assert_eq!(g.decision.predicted_skip_ratio, 0.0);
        assert_eq!(g.result.skipped, 0);
        // Disengaged gate still measures the same campaign.
        let full = run_campaign(&m, &[16.0, 0.5], ExecLimits::default(), cfg).unwrap();
        assert_eq!(
            (full.sdc, full.crash, full.hang, full.benign),
            (
                g.result.campaign.sdc,
                g.result.campaign.crash,
                g.result.campaign.hang,
                g.result.campaign.benign
            )
        );

        let all = StaticPrune {
            cells: vec![u64::MAX; m.num_instrs],
            burst: 0,
        };
        let g = run_campaign_pruned_gated_observed(
            &m,
            &[16.0, 0.5],
            ExecLimits::default(),
            cfg,
            &all,
            PruneGate::default(),
            &NullObserver,
        )
        .unwrap();
        assert!(g.decision.applied);
        assert!(g.decision.predicted_skip_ratio >= 1.0);
        assert_eq!(g.result.skipped, cfg.trials as u64);

        // An unreachable threshold disengages even a full table.
        let g = run_campaign_pruned_gated_observed(
            &m,
            &[16.0, 0.5],
            ExecLimits::default(),
            cfg,
            &all,
            PruneGate {
                min_skip_ratio: 1e9,
            },
            &NullObserver,
        )
        .unwrap();
        assert!(!g.decision.applied);
        assert_eq!(g.result.skipped, 0);
    }

    #[test]
    fn prune_gate_message_follows_golden_run_and_states_its_rule() {
        let m = module();
        let cfg = CampaignConfig {
            trials: 20,
            seed: 19,
            threads: 1,
            ..Default::default()
        };
        let empty = StaticPrune {
            cells: vec![0; m.num_instrs],
            burst: 0,
        };
        let obs = Collecting(std::sync::Mutex::new(Vec::new()));
        CampaignPlan::new(&m, &[16.0, 0.5], ExecLimits::default(), cfg)
            .prune(&empty, PruneGate::default())
            .run(&obs)
            .unwrap();
        let events = obs.0.into_inner().unwrap();
        let at = events
            .iter()
            .position(|e| e.kind() == "message")
            .expect("the gate journals its decision");
        assert_eq!(events[at - 1].kind(), "golden_run");
        // The gate engages only on `predicted > threshold`, so an empty
        // table sits exactly at the threshold and says so.
        match &events[at] {
            Event::Message { text } => assert_eq!(
                text,
                "prune gate: disengaged (masked cells 0, predicted skip 0.00% <= threshold 0.00%)"
            ),
            other => panic!("expected the gate message, got {other:?}"),
        }
    }

    #[test]
    fn prune_with_trace_is_a_typed_error() {
        let m = module();
        let table = StaticPrune {
            cells: vec![u64::MAX; m.num_instrs],
            burst: 0,
        };
        let obs = Collecting(std::sync::Mutex::new(Vec::new()));
        let e = CampaignPlan::new(&m, &[16.0, 0.5], ExecLimits::default(), Default::default())
            .prune(&table, PruneGate::default())
            .trace(true)
            .run(&obs);
        assert!(matches!(e, Err(CampaignError::PruneWithTrace)), "{e:?}");
        assert!(
            obs.0.into_inner().unwrap().is_empty(),
            "refused before the campaign starts"
        );
    }

    #[test]
    fn snapshots_compose_with_pruning() {
        let m = module();
        let mut cells = vec![0u64; m.num_instrs];
        for (i, c) in cells.iter_mut().enumerate() {
            if i % 3 == 0 {
                *c = 0x00FF_FF00_0000_FF00;
            }
        }
        let table = StaticPrune { cells, burst: 0 };
        let cfg = CampaignConfig {
            trials: 90,
            seed: 17,
            threads: 1,
            ..Default::default()
        };
        let plan = |threads, k| {
            CampaignPlan::new(
                &m,
                &[12.0, 0.25],
                ExecLimits::default(),
                CampaignConfig { threads, ..cfg },
            )
            .prune(&table, PruneGate::default())
            .snapshots(k)
            .run(&NullObserver)
            .unwrap()
        };
        let pruned = plan(1, 0);
        assert!(pruned.skipped > 0, "the table must skip some trials");
        for (k, threads) in [(8, 1), (8, 4), (64, 4)] {
            let r = plan(threads, k);
            // Same skipped trials, and the kept ones resume to the same
            // outcomes they reach from entry.
            assert_eq!(r.skipped, pruned.skipped, "k={k}");
            let counts = |c: &CampaignResult| (c.sdc, c.crash, c.hang, c.benign);
            assert_eq!(counts(&r.campaign), counts(&pruned.campaign), "k={k}");
            assert_eq!(r.campaign.executions, pruned.campaign.executions);
            assert_eq!(
                r.stats.restores + r.stats.full_runs + r.skipped,
                cfg.trials as u64
            );
            assert!(r.stats.restores > 0, "k={k}");
        }
    }

    #[test]
    fn prune_gate_rejects_burst_mismatch() {
        let m = module();
        let table = StaticPrune {
            cells: vec![0; m.num_instrs],
            burst: 2,
        };
        let e = run_campaign_pruned_gated_observed(
            &m,
            &[16.0, 0.5],
            ExecLimits::default(),
            CampaignConfig::default(),
            &table,
            PruneGate::default(),
            &NullObserver,
        );
        assert!(matches!(
            e,
            Err(CampaignError::PruneBurstMismatch {
                table: 2,
                campaign: 0
            })
        ));
    }

    #[test]
    fn campaign_outcomes_identical_across_engines() {
        let m = module();
        let base = CampaignConfig {
            trials: 150,
            seed: 2021,
            hang_factor: 8,
            threads: 2,
            burst: 0,
            engine: EngineKind::Interp,
        };
        let interp = run_campaign(&m, &[16.0, 0.5], ExecLimits::default(), base).unwrap();
        let compiled = run_campaign(
            &m,
            &[16.0, 0.5],
            ExecLimits::default(),
            CampaignConfig {
                engine: EngineKind::Compiled,
                ..base
            },
        )
        .unwrap();
        assert_eq!(
            (interp.sdc, interp.crash, interp.hang, interp.benign),
            (compiled.sdc, compiled.crash, compiled.hang, compiled.benign),
            "engines sampled identical faults but classified them differently"
        );
        assert_eq!(interp.golden_dynamic, compiled.golden_dynamic);

        // `--engine compiled` composes with `--snapshots K`: fork points
        // land on the same value-dynamic boundaries in both backends.
        for k in [0, 8] {
            let r = CampaignPlan::new(
                &m,
                &[16.0, 0.5],
                ExecLimits::default(),
                CampaignConfig {
                    engine: EngineKind::Compiled,
                    ..base
                },
            )
            .snapshots(k)
            .run(&NullObserver)
            .unwrap();
            assert_eq!(
                (interp.sdc, interp.crash, interp.hang, interp.benign),
                (
                    r.campaign.sdc,
                    r.campaign.crash,
                    r.campaign.hang,
                    r.campaign.benign
                ),
                "compiled engine with --snapshots {k} diverged from interpreter"
            );
            if k > 0 {
                assert!(r.stats.restores > 0, "k={k}: some trial must restore");
            }
        }
    }

    #[test]
    fn campaign_started_event_carries_engine_tag() {
        let m = module();
        for engine in [EngineKind::Interp, EngineKind::Compiled] {
            let cfg = CampaignConfig {
                trials: 20,
                seed: 6,
                threads: 1,
                engine,
                ..Default::default()
            };
            let obs = Collecting(std::sync::Mutex::new(Vec::new()));
            CampaignPlan::new(&m, &[16.0, 0.5], ExecLimits::default(), cfg)
                .run(&obs)
                .map(|r| r.campaign)
                .unwrap();
            let events = obs.0.into_inner().unwrap();
            match &events[0] {
                Event::CampaignStarted { engine: e, .. } => assert_eq!(e, engine.as_str()),
                other => panic!("first event was {other:?}"),
            }
        }
    }

    #[test]
    fn sdc_probability_and_ci_consistent() {
        let m = module();
        let cfg = CampaignConfig {
            trials: 300,
            seed: 5,
            ..Default::default()
        };
        let r = run_campaign(&m, &[20.0, 1.5], ExecLimits::default(), cfg).unwrap();
        let p = r.sdc_prob();
        assert!(r.sdc_ci.lo <= p && p <= r.sdc_ci.hi);
    }
}
