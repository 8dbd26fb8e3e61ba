//! Performance baseline: VM and campaign throughput per benchmark.
//!
//! Wall/rate figures come from [`MetricsRegistry`] snapshots of
//! instrumented campaigns — the same counters any `--metrics-out` run
//! produces — so the checked-in `BENCH_baseline.json` stays comparable
//! with ad-hoc measurements. Trial-latency percentiles are computed from
//! the *exact* per-trial samples streamed through [`Event::TrialFinished`]
//! (the registry's log₂-bucket histogram only yields power-of-two
//! quantiles, useless for regression diffing). Baselines let a future
//! change be checked for interpreter, compiled-engine, or campaign-runner
//! regressions with one `repro baseline` run.

use crate::scale::Ctx;
use peppa_apps::all_benchmarks;
use peppa_inject::{CampaignConfig, CampaignPlan, PruneGate, StaticPrune};
use peppa_obs::{Event, MetricsRegistry, MultiObserver, NullObserver, Observer};
use peppa_vm::EngineKind;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

/// One benchmark's throughput measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BaselineRow {
    pub benchmark: String,
    /// Dynamic instructions of the golden run at the reference input.
    pub golden_dynamic: u64,
    /// Campaign size the rates were measured at.
    pub trials: u32,
    /// Campaign throughput: trials per second of campaign wall time
    /// (includes the golden run; scales with `threads`; measured on the
    /// report's `engine`).
    pub trials_per_sec: f64,
    /// Single-core interpreter throughput: dynamic instructions per
    /// second, computed as `trials × golden_dynamic` over the *sum* of
    /// per-trial latencies (summing latencies across workers counts CPU
    /// time, not wall time, so this is thread-count independent).
    pub vm_instrs_per_sec_interp: f64,
    /// Same measurement on the compiled (register-allocated threaded
    /// bytecode) engine — identical seed and trial plan, so the two
    /// columns time bit-identical work.
    pub vm_instrs_per_sec_compiled: f64,
    /// `vm_instrs_per_sec_compiled / vm_instrs_per_sec_interp` — the
    /// dispatch-engine speedup on this benchmark's instruction mix.
    pub engine_speedup: f64,
    /// Trial-latency distribution from exact sorted samples
    /// (nearest-rank): median, tail, and extreme tail. A mean alone
    /// hides hang-budget outliers; the p99/p50 ratio is the regression
    /// signal for them.
    pub trial_latency_p50_ns: u64,
    pub trial_latency_p95_ns: u64,
    pub trial_latency_p99_ns: u64,
    /// Wall-clock seconds of the full campaign (directly timed).
    pub campaign_wall_s: f64,
    /// Wall-clock seconds of the same campaign under `--static-prune`
    /// (identical seed/trials; provably-masked cells skipped, behind
    /// the savings gate).
    pub pruned_campaign_wall_s: f64,
    /// Fraction of trials the pruned campaign skipped.
    pub pruned_skip_ratio: f64,
    /// Whether the prune gate engaged (predicted skip ratio strictly
    /// positive) — `false` means the pruned column measured the plain
    /// runner plus the gate's prediction cost.
    pub prune_applied: bool,
    /// The gate's predicted skip ratio for this benchmark's table.
    pub prune_predicted_skip_ratio: f64,
    /// Masked cells in the reach ∪ deviation table the pruned column
    /// ran with, over the `value sids × 64 bits` fault space.
    pub prune_masked_cells: u64,
    pub prune_total_cells: u64,
    /// Wall-clock seconds of the same campaign from K snapshots
    /// (identical seed/trials; golden prefix amortized across trials).
    pub snapshot_campaign_wall_s: f64,
    /// `campaign_wall_s / snapshot_campaign_wall_s` — the measured
    /// trials-per-second improvement the fork engine buys.
    pub snapshot_speedup: f64,
    /// Dynamic-instruction reduction the `-O2` rewrite pipeline buys at
    /// the reference input (`1 - optimized/golden_dynamic`) — the
    /// regression signal for the optimizer itself.
    pub o2_instr_reduction: f64,
}

/// Version of the `BENCH_baseline.json` layout. Bumped when fields
/// change shape (v2: latency percentiles replaced the bare mean; v3:
/// snapshotted-campaign wall time/speedup and the prune-gate decision;
/// v4: per-engine `vm_instrs_per_sec` columns with the engine speedup,
/// and percentiles from exact samples instead of log₂ histogram
/// buckets; v5: the pruned column runs the reach ∪ deviation union
/// table for the reference input, records its masked-cell counts, and
/// the gate engages on any strictly-positive predicted skip ratio;
/// v6: the `o2_instr_reduction` column tracks the `-O2` rewrite
/// pipeline's dynamic-instruction savings at the reference input), so
/// downstream diffing tools can refuse mixed-schema comparisons.
pub const BASELINE_SCHEMA_VERSION: u32 = 6;

/// The checked-in `BENCH_baseline.json` payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BaselineReport {
    pub schema_version: u32,
    pub scale: String,
    pub seed: u64,
    pub threads: usize,
    /// Engine the wall-clock columns (`trials_per_sec`,
    /// `campaign_wall_s`, prune/snapshot walls) were measured on: always
    /// `compiled`. The per-engine `vm_instrs_per_sec` columns cover both.
    pub engine: String,
    pub rows: Vec<BaselineRow>,
}

/// Collects exact per-trial latencies from the campaign event stream.
struct LatencySamples(Mutex<Vec<u64>>);

impl LatencySamples {
    fn new() -> Arc<LatencySamples> {
        Arc::new(LatencySamples(Mutex::new(Vec::new())))
    }

    /// Sorted samples, consumed once at end of campaign.
    fn sorted(&self) -> Vec<u64> {
        let mut v = self.0.lock().unwrap().clone();
        v.sort_unstable();
        v
    }

    fn sum_ns(&self) -> u64 {
        self.0.lock().unwrap().iter().sum()
    }
}

impl Observer for LatencySamples {
    fn on_event(&self, event: &Event) {
        if let Event::TrialFinished { latency_ns, .. } = event {
            self.0.lock().unwrap().push(*latency_ns);
        }
    }
}

/// Nearest-rank percentile over sorted samples: the smallest sample with
/// at least `q·n` samples at or below it. Always an observed value —
/// never an interpolated or bucket-boundary artifact.
fn percentile_ns(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// CPU seconds → single-core instrs/sec for a campaign of
/// `trials × golden_dynamic` dynamic instructions.
fn instrs_per_sec(trials: u64, golden_dynamic: u64, cpu_ns: u64) -> f64 {
    if cpu_ns == 0 {
        return 0.0;
    }
    trials as f64 * golden_dynamic as f64 / (cpu_ns as f64 / 1e9)
}

/// Measures every benchmark at the reference input.
///
/// `observer` additionally receives the full campaign event stream
/// (journal, progress) alongside the per-benchmark metrics registry the
/// rates are read from. The wall-clock columns run on the compiled
/// engine; the per-engine `vm_instrs_per_sec` columns measure both
/// engines on an identical trial plan (and assert their outcomes agree).
pub fn run_baseline(ctx: &Ctx, observer: Arc<dyn Observer>) -> BaselineReport {
    let mut rows = Vec::new();
    for bench in all_benchmarks() {
        let registry = Arc::new(MetricsRegistry::new());
        let samples = LatencySamples::new();
        let mut fan = MultiObserver::new();
        fan.push(Arc::clone(&registry) as Arc<dyn Observer>);
        fan.push(Arc::clone(&samples) as Arc<dyn Observer>);
        fan.push(Arc::clone(&observer));

        let cfg = CampaignConfig {
            trials: ctx.campaign_trials(),
            seed: ctx.seed,
            hang_factor: 8,
            threads: ctx.threads,
            burst: 0,
            engine: EngineKind::Compiled,
        };
        let t0 = std::time::Instant::now();
        let plan = CampaignPlan::new(&bench.module, &bench.reference_input, ctx.limits, cfg);
        let r = plan
            .run(&fan)
            .unwrap_or_else(|e| panic!("{}: baseline campaign failed: {e}", bench.name))
            .campaign;
        let campaign_wall_s = t0.elapsed().as_secs_f64();

        // The same trial plan on the interpreter, for the interpreter's
        // per-engine column. This doubles as a cross-engine
        // differential: the trial RNG streams depend only on (seed,
        // trial), so the outcome counts must be bit-identical.
        let interp_samples = LatencySamples::new();
        let r_interp = CampaignPlan::new(
            &bench.module,
            &bench.reference_input,
            ctx.limits,
            CampaignConfig {
                engine: EngineKind::Interp,
                ..cfg
            },
        )
        .run(&*interp_samples)
        .unwrap_or_else(|e| panic!("{}: interp baseline campaign failed: {e}", bench.name))
        .campaign;
        assert_eq!(
            (r.sdc, r.crash, r.hang, r.benign),
            (r_interp.sdc, r_interp.crash, r_interp.hang, r_interp.benign),
            "{}: engines disagreed on campaign outcomes",
            bench.name
        );
        let (interp_cpu_ns, compiled_cpu_ns) = (interp_samples.sum_ns(), samples.sum_ns());

        // Same campaign with the static prune table: what `--static-prune`
        // buys on this machine. Timed directly, outside the metrics
        // registry, so the full campaign's counters stay untouched. The
        // gated runner is what the CLI now uses, so the baseline also
        // records whether the savings gate engaged for this table.
        let fr = peppa_analysis::FaultReach::analyze(&bench.module);
        let cells = peppa_analysis::deviation::combined_skip_cells(
            &bench.module,
            &fr,
            &bench.reference_input,
            ctx.limits,
            cfg.burst,
        );
        let (prune_masked_cells, prune_total_cells) = fr.masked_cells(&cells);
        let prune = StaticPrune {
            cells,
            burst: cfg.burst,
        };
        let t1 = std::time::Instant::now();
        let pruned = plan
            .prune(&prune, PruneGate::default())
            .run(&NullObserver)
            .unwrap_or_else(|e| panic!("{}: pruned baseline campaign failed: {e}", bench.name));
        let pruned_campaign_wall_s = t1.elapsed().as_secs_f64();
        let gate = pruned
            .decision
            .as_ref()
            .expect("a prune table yields a decision");

        // Same campaign again under the snapshot/fork engine — identical
        // seed and trial count, so `snapshot_speedup` is the apples-to-
        // apples trials-per-second improvement the engine buys.
        let t2 = std::time::Instant::now();
        let snapped = plan
            .snapshots(ctx.campaign_snapshots())
            .run(&NullObserver)
            .unwrap_or_else(|e| {
                panic!("{}: snapshotted baseline campaign failed: {e}", bench.name)
            });
        let snapshot_campaign_wall_s = t2.elapsed().as_secs_f64();
        debug_assert_eq!(
            (r.sdc, r.crash, r.hang, r.benign),
            (
                snapped.campaign.sdc,
                snapped.campaign.crash,
                snapped.campaign.hang,
                snapped.campaign.benign
            ),
            "{}: snapshotted baseline diverged from the full campaign",
            bench.name
        );

        // The optimizer's dynamic savings at the same reference input —
        // one golden run on the -O2 module, no campaign.
        let opt = peppa_analysis::optimize(&bench.module, peppa_analysis::OptLevel::O2);
        let opt_dynamic =
            peppa_inject::campaign::golden_run(&opt.module, &bench.reference_input, ctx.limits)
                .unwrap_or_else(|e| panic!("{}: optimized golden run failed: {e}", bench.name))
                .profile
                .dynamic;

        let trials = registry.counter_value("campaign.trials.finished");
        let golden_dynamic = registry.counter_value("golden.dynamic_instrs");
        let wall_s = registry.counter_value("campaign.wall_ns") as f64 / 1e9;
        let sorted = samples.sorted();
        debug_assert_eq!(sorted.len() as u64, trials);

        debug_assert_eq!(trials, r.trials as u64);
        let vm_instrs_per_sec_interp = instrs_per_sec(trials, golden_dynamic, interp_cpu_ns);
        let vm_instrs_per_sec_compiled = instrs_per_sec(trials, golden_dynamic, compiled_cpu_ns);
        rows.push(BaselineRow {
            benchmark: bench.name.to_string(),
            golden_dynamic,
            trials: r.trials,
            trials_per_sec: if wall_s > 0.0 {
                trials as f64 / wall_s
            } else {
                0.0
            },
            vm_instrs_per_sec_interp,
            vm_instrs_per_sec_compiled,
            engine_speedup: if vm_instrs_per_sec_interp > 0.0 {
                vm_instrs_per_sec_compiled / vm_instrs_per_sec_interp
            } else {
                0.0
            },
            trial_latency_p50_ns: percentile_ns(&sorted, 0.50),
            trial_latency_p95_ns: percentile_ns(&sorted, 0.95),
            trial_latency_p99_ns: percentile_ns(&sorted, 0.99),
            campaign_wall_s,
            pruned_campaign_wall_s,
            pruned_skip_ratio: pruned.skip_ratio(),
            prune_applied: gate.applied,
            prune_predicted_skip_ratio: gate.predicted_skip_ratio,
            prune_masked_cells,
            prune_total_cells,
            snapshot_campaign_wall_s,
            snapshot_speedup: if snapshot_campaign_wall_s > 0.0 {
                campaign_wall_s / snapshot_campaign_wall_s
            } else {
                0.0
            },
            o2_instr_reduction: 1.0 - opt_dynamic as f64 / golden_dynamic.max(1) as f64,
        });
    }
    BaselineReport {
        schema_version: BASELINE_SCHEMA_VERSION,
        scale: format!("{:?}", ctx.scale),
        seed: ctx.seed,
        threads: ctx.threads,
        engine: EngineKind::Compiled.as_str().to_string(),
        rows,
    }
}

/// Text rendering for the `repro baseline` subcommand.
pub fn render_baseline(r: &BaselineReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Throughput baseline ({} scale, {} trials-scale campaigns, {} engine)\n\n",
        r.scale,
        r.rows.first().map(|x| x.trials).unwrap_or(0),
        r.engine
    ));
    out.push_str(&format!(
        "{:<12} {:>14} {:>12} {:>13} {:>13} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7} {:>6} {:>7} {:>8} {:>7}\n",
        "benchmark",
        "golden dyn",
        "trials/s",
        "interp i/s",
        "compiled i/s",
        "eng x",
        "p50 ms",
        "p95 ms",
        "p99 ms",
        "full s",
        "pruned s",
        "skip %",
        "gate",
        "snap s",
        "speedup",
        "O2 red"
    ));
    for row in &r.rows {
        out.push_str(&format!(
            "{:<12} {:>14} {:>12.1} {:>13.3e} {:>13.3e} {:>6.1}x {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>6.2}% {:>6} {:>7.2} {:>7.2}x {:>6.1}%\n",
            row.benchmark,
            row.golden_dynamic,
            row.trials_per_sec,
            row.vm_instrs_per_sec_interp,
            row.vm_instrs_per_sec_compiled,
            row.engine_speedup,
            row.trial_latency_p50_ns as f64 / 1e6,
            row.trial_latency_p95_ns as f64 / 1e6,
            row.trial_latency_p99_ns as f64 / 1e6,
            row.campaign_wall_s,
            row.pruned_campaign_wall_s,
            row.pruned_skip_ratio * 100.0,
            if row.prune_applied { "on" } else { "off" },
            row.snapshot_campaign_wall_s,
            row.snapshot_speedup,
            row.o2_instr_reduction * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    #[test]
    fn nearest_rank_percentiles_are_observed_samples() {
        let sorted: Vec<u64> = vec![3, 10, 100, 1000, 77777];
        assert_eq!(percentile_ns(&sorted, 0.50), 100);
        assert_eq!(percentile_ns(&sorted, 0.95), 77777);
        assert_eq!(percentile_ns(&sorted, 0.99), 77777);
        assert_eq!(percentile_ns(&[], 0.5), 0);
        // q→0 still returns the smallest sample, not index underflow.
        assert_eq!(percentile_ns(&sorted, 0.0), 3);
    }

    #[test]
    fn baseline_rates_are_positive_and_percentiles_exact() {
        let mut ctx = Ctx::new(Scale::Quick, 1);
        // Tiny campaign: this test checks plumbing, not statistics.
        ctx.threads = 2;
        let (report, samples) = run_baseline_one_for_test(&ctx);
        assert!(report.trials_per_sec > 0.0);
        assert!(report.vm_instrs_per_sec_interp > 0.0);
        assert!(report.golden_dynamic > 0);
        assert!(report.trial_latency_p50_ns > 0);
        assert!(report.trial_latency_p50_ns <= report.trial_latency_p95_ns);
        assert!(report.trial_latency_p95_ns <= report.trial_latency_p99_ns);
        // The v4 fix: every percentile is an actually-observed latency,
        // not a log₂ bucket boundary (those were exact powers of two).
        for p in [
            report.trial_latency_p50_ns,
            report.trial_latency_p95_ns,
            report.trial_latency_p99_ns,
        ] {
            assert!(samples.contains(&p), "{p} not an observed sample");
        }
    }

    fn run_baseline_one_for_test(ctx: &Ctx) -> (BaselineRow, Vec<u64>) {
        let bench = peppa_apps::pathfinder::benchmark();
        let registry = Arc::new(MetricsRegistry::new());
        let samples = LatencySamples::new();
        let mut fan = MultiObserver::new();
        fan.push(Arc::clone(&registry) as Arc<dyn Observer>);
        fan.push(Arc::clone(&samples) as Arc<dyn Observer>);
        fan.push(Arc::new(NullObserver));
        let cfg = CampaignConfig {
            trials: 30,
            seed: ctx.seed,
            threads: ctx.threads,
            engine: EngineKind::Interp,
            ..Default::default()
        };
        CampaignPlan::new(&bench.module, &bench.reference_input, ctx.limits, cfg)
            .run(&fan)
            .unwrap();
        let golden_dynamic = registry.counter_value("golden.dynamic_instrs");
        let sorted = samples.sorted();
        let row = BaselineRow {
            benchmark: bench.name.to_string(),
            golden_dynamic,
            trials: 30,
            trials_per_sec: registry.counter_value("campaign.trials.finished") as f64
                / (registry.counter_value("campaign.wall_ns") as f64 / 1e9),
            vm_instrs_per_sec_interp: instrs_per_sec(30, golden_dynamic, samples.sum_ns()),
            vm_instrs_per_sec_compiled: 0.0,
            engine_speedup: 0.0,
            trial_latency_p50_ns: percentile_ns(&sorted, 0.50),
            trial_latency_p95_ns: percentile_ns(&sorted, 0.95),
            trial_latency_p99_ns: percentile_ns(&sorted, 0.99),
            campaign_wall_s: 0.0,
            pruned_campaign_wall_s: 0.0,
            pruned_skip_ratio: 0.0,
            prune_applied: false,
            prune_predicted_skip_ratio: 0.0,
            prune_masked_cells: 0,
            prune_total_cells: 0,
            snapshot_campaign_wall_s: 0.0,
            snapshot_speedup: 0.0,
            o2_instr_reduction: 0.0,
        };
        (row, sorted)
    }
}
