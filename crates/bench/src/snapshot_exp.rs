//! Snapshot/fork campaign experiment — `repro snapshot`.
//!
//! The fork engine (a [`peppa_inject::CampaignPlan`] with snapshots) captures
//! K stratified snapshots of the golden prefix and starts every trial
//! from the latest snapshot preceding its injection site, so thousands
//! of trials stop re-executing the same prefix. This experiment measures
//! what that buys per benchmark, at the *larger* campaign scale the
//! engine makes affordable ([`Ctx::snapshot_campaign_trials`]):
//!
//! 1. **Bit-identity** — the snapshotted campaign's outcome counts must
//!    equal the classic runner's under the same seed and trial count.
//!    Any divergence is a determinism bug; the `repro` driver exits 1.
//! 2. **Speedup** — wall-clock ratio of the classic campaign to the
//!    snapshotted one, plus the trials/sec both achieve.
//! 3. **Amortization telemetry** — restores vs full runs, converged
//!    early exits, golden-prefix instructions skipped, and resident
//!    snapshot bytes.

use crate::scale::Ctx;
use peppa_apps::all_benchmarks;
use peppa_inject::{CampaignConfig, CampaignPlan};
use peppa_obs::Observer;
use serde::{Deserialize, Serialize};

/// One benchmark's snapshot-campaign measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnapshotExpRow {
    pub benchmark: String,
    /// Dynamic instructions of the golden run.
    pub golden_dynamic: u64,
    /// Campaign size both runners executed.
    pub trials: u32,
    /// Fork points requested (K).
    pub snapshots_requested: u32,
    /// Fork points actually captured (≤ requested; bounded by the
    /// number of distinct sampled sites).
    pub snapshots_captured: u32,
    /// Resident bytes of all captured snapshots.
    pub snapshot_bytes: u64,
    /// Wall-clock seconds of the classic campaign.
    pub full_wall_s: f64,
    /// Wall-clock seconds of the snapshotted campaign.
    pub snapshot_wall_s: f64,
    /// `full_wall_s / snapshot_wall_s` — the measured trials/sec
    /// improvement.
    pub speedup: f64,
    pub full_trials_per_sec: f64,
    pub snapshot_trials_per_sec: f64,
    /// Trials resumed from a snapshot.
    pub restores: u64,
    /// Trials that fell back to a full run (site before the first fork
    /// point).
    pub full_runs: u64,
    /// Resumed trials that exited early at a convergence checkpoint.
    pub converged_exits: u64,
    /// Golden-prefix instructions the restores skipped re-executing.
    pub prefix_instrs_saved: u64,
    /// The determinism contract: snapshotted outcome counts equal the
    /// classic runner's.
    pub outcomes_identical: bool,
}

/// `repro snapshot` report (checked in as `results/snapshot.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SnapshotExpReport {
    pub rows: Vec<SnapshotExpRow>,
    pub seed: u64,
    pub trials: u32,
    pub snapshots: u32,
    pub smoke: bool,
}

impl SnapshotExpReport {
    /// The CI gate: the fork engine changed no measurement, on any
    /// benchmark.
    pub fn sound(&self) -> bool {
        self.rows.iter().all(|r| r.outcomes_identical)
    }
}

/// Measures one benchmark: classic vs snapshotted campaign at identical
/// seed/trials, both under the same observer.
pub fn snapshot_benchmark(
    bench: &peppa_apps::Benchmark,
    ctx: &Ctx,
    trials: u32,
    snapshots: u32,
    observer: &dyn Observer,
) -> SnapshotExpRow {
    let cfg = CampaignConfig {
        trials,
        seed: ctx.seed,
        hang_factor: 8,
        threads: ctx.threads,
        burst: 0,
        ..Default::default()
    };

    let t0 = std::time::Instant::now();
    let plan = CampaignPlan::new(&bench.module, &bench.reference_input, ctx.limits, cfg);
    let full = plan
        .run(observer)
        .unwrap_or_else(|e| panic!("{}: full campaign failed: {e}", bench.name))
        .campaign;
    let full_wall_s = t0.elapsed().as_secs_f64();

    let t1 = std::time::Instant::now();
    let snap = plan
        .snapshots(snapshots)
        .run(observer)
        .unwrap_or_else(|e| panic!("{}: snapshotted campaign failed: {e}", bench.name));
    let snapshot_wall_s = t1.elapsed().as_secs_f64();

    let outcomes_identical = (full.sdc, full.crash, full.hang, full.benign)
        == (
            snap.campaign.sdc,
            snap.campaign.crash,
            snap.campaign.hang,
            snap.campaign.benign,
        );

    SnapshotExpRow {
        benchmark: bench.name.to_string(),
        golden_dynamic: full.golden_dynamic,
        trials,
        snapshots_requested: snapshots,
        snapshots_captured: snap.stats.snapshots,
        snapshot_bytes: snap.stats.bytes,
        full_wall_s,
        snapshot_wall_s,
        speedup: if snapshot_wall_s > 0.0 {
            full_wall_s / snapshot_wall_s
        } else {
            0.0
        },
        full_trials_per_sec: if full_wall_s > 0.0 {
            trials as f64 / full_wall_s
        } else {
            0.0
        },
        snapshot_trials_per_sec: if snapshot_wall_s > 0.0 {
            trials as f64 / snapshot_wall_s
        } else {
            0.0
        },
        restores: snap.stats.restores,
        full_runs: snap.stats.full_runs,
        converged_exits: snap.stats.converged_exits,
        prefix_instrs_saved: snap.stats.prefix_instrs_saved,
        outcomes_identical,
    }
}

/// Runs the snapshot experiment over every bundled benchmark. `smoke`
/// shrinks the campaign to CI size.
pub fn run_snapshot_exp(ctx: &Ctx, smoke: bool, observer: &dyn Observer) -> SnapshotExpReport {
    let trials = if smoke {
        200
    } else {
        ctx.snapshot_campaign_trials()
    };
    let snapshots = ctx.campaign_snapshots();
    let rows = all_benchmarks()
        .iter()
        .map(|b| snapshot_benchmark(b, ctx, trials, snapshots, observer))
        .collect();
    SnapshotExpReport {
        rows,
        seed: ctx.seed,
        trials,
        snapshots,
        smoke,
    }
}

/// Paper-shaped text rendering.
pub fn render_snapshot_exp(r: &SnapshotExpReport) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    writeln!(
        s,
        "Snapshot/fork campaign speedup ({} trials/benchmark, {} fork points{})",
        r.trials,
        r.snapshots,
        if r.smoke { ", smoke" } else { "" }
    )
    .unwrap();
    writeln!(
        s,
        "{:<16} {:>12} {:>8} {:>8} {:>8} {:>9} {:>9} {:>9} {:>12} {:>9}",
        "benchmark",
        "golden dyn",
        "full s",
        "snap s",
        "speedup",
        "restores",
        "full-run",
        "converged",
        "prefix saved",
        "identical"
    )
    .unwrap();
    for row in &r.rows {
        writeln!(
            s,
            "{:<16} {:>12} {:>8.2} {:>8.2} {:>7.2}x {:>9} {:>9} {:>9} {:>11.1}M {:>9}",
            row.benchmark,
            row.golden_dynamic,
            row.full_wall_s,
            row.snapshot_wall_s,
            row.speedup,
            row.restores,
            row.full_runs,
            row.converged_exits,
            row.prefix_instrs_saved as f64 / 1e6,
            if row.outcomes_identical { "yes" } else { "NO" }
        )
        .unwrap();
    }
    writeln!(
        s,
        "determinism: {}",
        if r.sound() {
            "OK — snapshotted outcome counts are bit-identical to the classic runner"
        } else {
            "VIOLATED"
        }
    )
    .unwrap();
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;
    use peppa_obs::NullObserver;

    #[test]
    fn snapshot_benchmark_is_identical_and_accounts_every_trial() {
        let mut ctx = Ctx::new(Scale::Quick, 2021);
        ctx.threads = 2;
        let bench = peppa_apps::pathfinder::benchmark();
        let row = snapshot_benchmark(&bench, &ctx, 60, 8, &NullObserver);
        assert!(row.outcomes_identical, "outcome counts diverged");
        assert_eq!(row.restores + row.full_runs, 60);
        assert!(row.snapshots_captured >= 1 && row.snapshots_captured <= 8);
        assert!(row.snapshot_bytes > 0);
        assert!(row.full_wall_s > 0.0 && row.snapshot_wall_s > 0.0);
    }
}
