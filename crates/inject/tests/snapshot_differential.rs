//! Differential test for the snapshot/fork campaign engine: on every
//! benchmark, for every snapshot count and thread count, on both
//! engines, a campaign plan with snapshots must produce outcome counts
//! **bit-identical** to the oracle, the interpreter running every trial
//! from program entry ([`run_campaign`] with [`EngineKind::Interp`])
//! under the same seed — snapshots are a pure wall-clock optimization,
//! never a measurement change. The taint-traced composition
//! (`--trace-propagation`) is held to the same bar, down to the
//! per-trial provenance records, and so is the pruned composition
//! (`--static-prune`) with the reach ∪ deviation table. The
//! per-instruction sampler behind `per_instruction_sdc` (the search's
//! distribution FI) must measure the same per-instruction SDC counts
//! from snapshots as the interpreter does from entry.
//!
//! CI runs this file by name and fails if it is filtered out — see
//! `.github/workflows/ci.yml`.

use peppa_analysis::{deviation::combined_skip_cells, FaultReach};
use peppa_apps::all_benchmarks;
use peppa_inject::{
    per_instruction_sdc, run_campaign, CampaignConfig, CampaignPlan, CampaignResult,
    PerInstrConfig, PruneGate, StaticPrune,
};
use peppa_obs::NullObserver;
use peppa_vm::{EngineKind, ExecLimits};

const TRIALS: u32 = 16;
const SEED: u64 = 0xd1ff;
const ENGINES: [EngineKind; 2] = [EngineKind::Interp, EngineKind::Compiled];

fn cfg(engine: EngineKind, threads: usize) -> CampaignConfig {
    CampaignConfig {
        trials: TRIALS,
        seed: SEED,
        hang_factor: 8,
        threads,
        burst: 0,
        engine,
    }
}

fn counts(r: &CampaignResult) -> (u32, u32, u32, u32) {
    (r.sdc, r.crash, r.hang, r.benign)
}

/// Every `(engine, k, threads)` plan for the snapshot counts `ks`, on one
/// and on four workers.
fn plans<const N: usize>(ks: [u32; N]) -> impl Iterator<Item = (EngineKind, u32, usize)> {
    ENGINES.into_iter().flat_map(move |engine| {
        ks.into_iter()
            .flat_map(move |k| [1usize, 4].map(|threads| (engine, k, threads)))
    })
}

#[test]
fn snapshotted_outcomes_bit_identical_on_all_benchmarks() {
    let limits = ExecLimits::default();
    for bench in all_benchmarks() {
        // One cached oracle per benchmark; every plan must match it
        // exactly.
        let full = run_campaign(
            &bench.module,
            &bench.reference_input,
            limits,
            cfg(EngineKind::Interp, 2),
        )
        .unwrap_or_else(|e| panic!("{}: full campaign failed: {e}", bench.name));
        for (engine, k, threads) in plans([0, 1, 8, 64]) {
            let snap = CampaignPlan::new(
                &bench.module,
                &bench.reference_input,
                limits,
                cfg(engine, threads),
            )
            .snapshots(k)
            .run(&NullObserver)
            .unwrap_or_else(|e| panic!("{}: {engine} campaign (k={k}) failed: {e}", bench.name));
            assert_eq!(
                counts(&full),
                counts(&snap.campaign),
                "{}: {engine} k={k} threads={threads} diverged from the oracle",
                bench.name
            );
            assert_eq!(
                snap.stats.restores + snap.stats.full_runs,
                TRIALS as u64,
                "{}: {engine} k={k} trials unaccounted",
                bench.name
            );
            if k == 0 {
                assert_eq!(snap.stats.snapshots, 0, "{}", bench.name);
            } else {
                assert!(
                    snap.stats.snapshots >= 1 && snap.stats.snapshots <= k,
                    "{}: k={k} captured {}",
                    bench.name,
                    snap.stats.snapshots
                );
                assert!(snap.stats.restores > 0, "{}: {engine} k={k}", bench.name);
            }
        }
    }
}

#[test]
fn snapshotted_traced_composition_bit_identical_on_all_benchmarks() {
    let limits = ExecLimits::default();
    for bench in all_benchmarks() {
        let plan =
            |cfg| CampaignPlan::new(&bench.module, &bench.reference_input, limits, cfg).trace(true);
        let traced = plan(cfg(EngineKind::Interp, 2))
            .run(&NullObserver)
            .unwrap_or_else(|e| panic!("{}: traced campaign failed: {e}", bench.name));
        for engine in ENGINES {
            let snap = plan(cfg(engine, 4))
                .snapshots(8)
                .run(&NullObserver)
                .unwrap_or_else(|e| {
                    panic!(
                        "{}: {engine} snapshotted traced campaign failed: {e}",
                        bench.name
                    )
                });
            assert_eq!(
                counts(&traced.campaign),
                counts(&snap.campaign),
                "{}: {engine} snapshotted traced counts diverged",
                bench.name
            );
            assert_eq!(
                snap.stats.converged_exits, 0,
                "{}: tracing must observe the whole suffix",
                bench.name
            );
            for (x, y) in traced.traced.iter().zip(&snap.traced) {
                let at = format!("{} {engine} trial {}", bench.name, x.trial);
                assert_eq!(x.outcome, y.outcome, "{at}");
                assert_eq!((x.site, x.bit, x.sid), (y.site, y.bit, y.sid), "{at}");
                assert_eq!(x.report.seeded, y.report.seeded, "{at}");
                assert_eq!(x.report.seed_mask, y.report.seed_mask, "{at}");
                assert_eq!(x.report.seed_dynamic, y.report.seed_dynamic, "{at}");
                assert_eq!(x.report.tainted_defs, y.report.tainted_defs, "{at}");
                assert_eq!(x.report.sid_hits, y.report.sid_hits, "{at}");
                assert_eq!(x.report.first_sink, y.report.first_sink, "{at}");
                assert_eq!(
                    x.report.extinction_dynamic, y.report.extinction_dynamic,
                    "{at}"
                );
                assert_eq!(x.report.live_at_end, y.report.live_at_end, "{at}");
            }
        }
    }
}

#[test]
fn snapshotted_pruned_composition_matches_full_on_all_benchmarks() {
    let limits = ExecLimits::default();
    let mut skipped = 0;
    for bench in all_benchmarks() {
        let full = run_campaign(
            &bench.module,
            &bench.reference_input,
            limits,
            cfg(EngineKind::Interp, 2),
        )
        .unwrap_or_else(|e| panic!("{}: full campaign failed: {e}", bench.name));
        // The table `repro hybrid` builds: reach ∪ deviation cells for
        // the campaign's own input.
        let fr = FaultReach::analyze(&bench.module);
        let table = StaticPrune {
            cells: combined_skip_cells(&bench.module, &fr, &bench.reference_input, limits, 0),
            burst: 0,
        };
        assert!(table.masked_cells() > 0, "{}: empty table", bench.name);
        for (engine, k, threads) in plans([0, 8]) {
            let r = CampaignPlan::new(
                &bench.module,
                &bench.reference_input,
                limits,
                cfg(engine, threads),
            )
            .prune(&table, PruneGate::default())
            .snapshots(k)
            .run(&NullObserver)
            .unwrap_or_else(|e| {
                panic!(
                    "{}: {engine} pruned campaign (k={k}) failed: {e}",
                    bench.name
                )
            });
            assert_eq!(
                counts(&full),
                counts(&r.campaign),
                "{}: {engine} k={k} threads={threads} pruned counts diverged",
                bench.name
            );
            assert_eq!(
                r.stats.restores + r.stats.full_runs + r.skipped,
                TRIALS as u64,
                "{}: {engine} k={k} trials unaccounted",
                bench.name
            );
            skipped += r.skipped;
        }
    }
    assert!(skipped > 0, "no benchmark skipped a trial");
}

/// Recursive calls: a call's instance is counted when it is dispatched,
/// but its result is written (and faulted) when its frame pops, so
/// several returns of one call instruction see the same instance and
/// some instances are never faulted at all.
const RECURSIVE: &str = r#"
    fn fib(n: int) -> int {
        if (n < 2) { return n; }
        return fib(n - 1) + fib(n - 2);
    }
    fn pow2(n: int) -> int {
        if (n <= 0) { return 1; }
        return pow2(n - 1) * 2;
    }
    fn main(n: int) { output fib(n) + pow2(n); }
"#;

/// The per-instruction plan on `module` at `input`, `per_instr` trials
/// per instruction, measures the same per-instruction SDC counts from
/// any number of snapshots, on any number of workers and on either
/// engine as the interpreter does from entry, and `per_instruction_sdc`
/// is that plan.
fn per_instruction_bit_identical(
    name: &str,
    module: &peppa_ir::Module,
    input: &[f64],
    per_instr: u32,
) {
    let limits = ExecLimits::default();
    let plan = |engine, k: u32, threads: usize| {
        let cfg = CampaignConfig {
            trials: per_instr,
            ..cfg(engine, threads)
        };
        CampaignPlan::new(module, input, limits, cfg)
            .per_instruction(None)
            .snapshots(k)
            .run(&NullObserver)
            .unwrap_or_else(|e| panic!("{name}: {engine} per-instruction plan (k={k}) failed: {e}"))
    };
    let entry = plan(EngineKind::Interp, 0, 1);
    assert!(!entry.per_instr.is_empty(), "{name}: nothing measured");
    let trials = entry.per_instr.len() as u64 * per_instr as u64;
    assert_eq!(entry.campaign.trials as u64, trials, "{name}");
    for (engine, k, threads) in plans([0, 1, 16, 64]) {
        let r = plan(engine, k, threads);
        assert_eq!(
            r.per_instr, entry.per_instr,
            "{name}: {engine} k={k} threads={threads} per-instruction SDC counts diverged"
        );
        assert_eq!(
            counts(&r.campaign),
            counts(&entry.campaign),
            "{name}: {engine} k={k} threads={threads}"
        );
        assert_eq!(
            r.stats.restores + r.stats.full_runs,
            trials,
            "{name}: {engine} k={k} trials unaccounted"
        );
        if k > 0 {
            assert!(r.stats.restores > 0, "{name}: {engine} k={k}");
        }
    }

    // `per_instruction_sdc` is this plan at its default snapshot count.
    let pi = PerInstrConfig {
        trials_per_instr: per_instr,
        seed: SEED,
        hang_factor: 8,
        threads: 2,
    };
    let measured = per_instruction_sdc(module, input, limits, pi, None)
        .unwrap_or_else(|e| panic!("{name}: per_instruction_sdc failed: {e}"));
    let mut sdc_prob = vec![None; module.num_instrs];
    for &(sid, sdc) in &entry.per_instr {
        sdc_prob[sid.0 as usize] = Some(sdc as f64 / per_instr as f64);
    }
    assert_eq!(measured.sdc_prob, sdc_prob, "{name}: sdc_prob");
    assert_eq!(measured.total_trials, trials, "{name}");
}

#[test]
fn per_instruction_sampler_bit_identical_from_snapshots_on_all_benchmarks() {
    for bench in all_benchmarks() {
        // Each argument at the middle of its small-input window: the
        // kind of short run the distribution FI measures.
        let input: Vec<f64> = bench
            .args
            .iter()
            .map(|a| a.clamp((a.small.0 + a.small.1) / 2.0))
            .collect();
        per_instruction_bit_identical(bench.name, &bench.module, &input, 2);
    }
    let recursive = peppa_lang::compile(RECURSIVE, "recursive").unwrap();
    per_instruction_bit_identical("recursive", &recursive, &[12.0], 24);
}
