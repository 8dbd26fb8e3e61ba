//! Hybrid static/dynamic campaign validation — `repro hybrid`.
//!
//! The interprocedural fault-reachability analysis
//! ([`peppa_analysis::FaultReach`]) and the input-specific
//! deviation-amplitude analysis
//! ([`peppa_analysis::DeviationAnalysis`]) together classify each
//! `(sid, sampled bit)` fault cell as provably masked or possibly
//! propagating: the campaign table is the *union* of the two masked-cell
//! sets, computed for the exact input the campaign runs on. A
//! `--static-prune` campaign skips the provably-masked cells without
//! executing them. This experiment checks that claim dynamically, per
//! benchmark:
//!
//! 1. **Exactness** — because the pruned campaign samples each trial's
//!    fault from the same RNG stream *before* deciding to skip, a sound
//!    table must leave every outcome count (SDC/crash/hang/benign)
//!    exactly equal to the full campaign's. We run both and compare.
//! 2. **Soundness spot-check** — a deterministic sample of masked cells
//!    is re-validated by *actually injecting* each one
//!    (`InjectionTarget::StaticInstance` at a random executed instance)
//!    and asserting the run classifies as Benign against the golden run
//!    (reachability-masked cells are bit-identical; deviation-masked
//!    cells stay inside the outcome classifier's tolerance). Any SDC
//!    (or crash/hang) among these falsifies the analysis.
//! 3. **Speedup** — wall-clock of the pruned campaign vs the full one.
//!    The skip ratio bounds the achievable speedup; both are reported.
//!
//! `hpccg` is the known degenerate case for the *reachability* half:
//! every value feeds a float accumulation chain, an address, or a
//! branch condition, so the static analysis honestly proves zero masked
//! cells (the paper's "most SDC-prone benchmark" narrative). Only the
//! input-specific deviation channel contributes masked cells there, so
//! its skip ratio stays near zero and the test below exempts it from
//! the nonzero-static-region assertions.

use crate::scale::{Ctx, Scale};
use peppa_analysis::deviation::combined_skip_cells;
use peppa_analysis::FaultReach;
use peppa_apps::{all_benchmarks, random_inputs, Benchmark};
use peppa_inject::{
    classify, run_campaign, CampaignConfig, CampaignPlan, FaultOutcome, PruneGate, StaticPrune,
};
use peppa_obs::NullObserver;
use peppa_stats::Pcg64;
use peppa_vm::{ExecLimits, Injection, InjectionTarget, Vm};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One validated masked cell: the analysis says flipping `bit` of the
/// value produced by `sid` can never change observable behavior.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ValidatedCell {
    pub sid: u32,
    pub bit: u32,
    /// The executed instance the fault was injected at.
    pub instance: u64,
    /// FI outcome name; `benign` confirms the static claim.
    pub outcome: String,
}

/// One benchmark's hybrid-validation row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HybridRow {
    pub benchmark: String,
    /// Provably-masked cells of the `value sids × 64 bits` fault space.
    pub masked_cells: u64,
    pub total_cells: u64,
    /// Trials the pruned campaign skipped / ran in total.
    pub skipped: u64,
    pub trials: u32,
    pub skip_ratio: f64,
    /// Full-campaign outcome counts.
    pub full_sdc: u32,
    pub full_crash: u32,
    pub full_hang: u32,
    pub full_benign: u32,
    /// Whether the pruned campaign's counts equal the full campaign's
    /// exactly (the soundness + shared-RNG-stream guarantee).
    pub counts_match: bool,
    /// Pruned-campaign SDC probability inside the full campaign's 95%
    /// CI (implied by `counts_match`; reported for the acceptance
    /// criterion).
    pub within_ci: bool,
    pub full_wall_ms: f64,
    pub pruned_wall_ms: f64,
    /// Full / pruned campaign wall time.
    pub speedup: f64,
    /// FI spot-check of masked cells: all outcomes must be `benign`.
    pub validated: Vec<ValidatedCell>,
    pub validation_sdc: usize,
    pub validation_nonbenign: usize,
}

/// `repro hybrid` report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HybridReport {
    pub rows: Vec<HybridRow>,
    pub seed: u64,
    pub trials: u32,
    pub smoke: bool,
}

impl HybridReport {
    /// The CI gate: static pruning never reclassified an FI-observed
    /// SDC site as masked, and pruned counts match full counts exactly.
    pub fn sound(&self) -> bool {
        self.rows
            .iter()
            .all(|r| r.validation_sdc == 0 && r.counts_match && r.within_ci)
    }
}

/// Validates one benchmark's static prune table against FI.
pub fn hybrid_benchmark(bench: &Benchmark, ctx: &Ctx, trials: u32, validate: usize) -> HybridRow {
    let fr = FaultReach::analyze(&bench.module);
    let burst = 0u8;

    let cap = match ctx.scale {
        Scale::Quick => 300_000,
        Scale::Paper => 2_000_000,
    };
    let input = random_inputs(bench, 1, ctx.seed ^ 0x4b1d, ctx.limits, cap)
        .pop()
        .expect("one valid input");

    // The deviation half of the table is input-specific: it must be
    // computed from the very input the campaigns below inject into.
    let cells = combined_skip_cells(&bench.module, &fr, &input, ctx.limits, burst);
    let (masked_cells, total_cells) = fr.masked_cells(&cells);
    let prune = StaticPrune {
        cells: cells.clone(),
        burst,
    };

    let cfg = CampaignConfig {
        trials,
        seed: ctx.seed,
        threads: ctx.threads,
        ..Default::default()
    };
    let t0 = Instant::now();
    let full = run_campaign(&bench.module, &input, ctx.limits, cfg).expect("full campaign");
    let full_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let pruned = CampaignPlan::new(&bench.module, &input, ctx.limits, cfg)
        .prune(&prune, PruneGate::default())
        .run(&NullObserver)
        .expect("pruned campaign");
    let pruned_wall_ms = t1.elapsed().as_secs_f64() * 1e3;

    let counts_match = (full.sdc, full.crash, full.hang, full.benign)
        == (
            pruned.campaign.sdc,
            pruned.campaign.crash,
            pruned.campaign.hang,
            pruned.campaign.benign,
        );
    let within_ci =
        (pruned.campaign.sdc_prob() - full.sdc_prob()).abs() <= full.sdc_ci.half_width + 1e-12;

    let validated = validate_masked_cells(bench, &cells, &input, ctx, burst, validate);
    let validation_sdc = validated.iter().filter(|c| c.outcome == "sdc").count();
    let validation_nonbenign = validated.iter().filter(|c| c.outcome != "benign").count();

    HybridRow {
        benchmark: bench.name.to_string(),
        masked_cells,
        total_cells,
        skipped: pruned.skipped,
        trials,
        skip_ratio: pruned.skip_ratio(),
        full_sdc: full.sdc,
        full_crash: full.crash,
        full_hang: full.hang,
        full_benign: full.benign,
        counts_match,
        within_ci,
        full_wall_ms,
        pruned_wall_ms,
        speedup: if pruned_wall_ms > 0.0 {
            full_wall_ms / pruned_wall_ms
        } else {
            1.0
        },
        validated,
        validation_sdc,
        validation_nonbenign,
    }
}

/// Injects a deterministic sample of provably-masked cells and
/// classifies each run against the golden run. Sampled instances are
/// drawn uniformly from the cell's executed instances, so the check
/// exercises different loop iterations, not just the first.
fn validate_masked_cells(
    bench: &Benchmark,
    cells: &[u64],
    input: &[f64],
    ctx: &Ctx,
    burst: u8,
    validate: usize,
) -> Vec<ValidatedCell> {
    let vm = Vm::new(&bench.module, ctx.limits);
    let golden = vm.run_numeric(input, None);
    assert!(golden.status.is_ok(), "golden run must pass");
    let faulty_limits = ExecLimits {
        max_dynamic: golden.profile.dynamic * 8 + 10_000,
        ..ctx.limits
    };

    // All masked cells whose sid actually executed under this input —
    // drawn from the full union table, so the deviation-masked cells
    // face the same injector as the reachability-masked ones.
    let mut pool: Vec<(u32, u32)> = Vec::new();
    for (sid, &mask) in cells.iter().enumerate() {
        if golden.profile.exec_counts[sid] == 0 {
            continue;
        }
        for bit in 0..64 {
            if mask >> bit & 1 != 0 {
                pool.push((sid as u32, bit));
            }
        }
    }

    let mut rng = Pcg64::new(ctx.seed ^ 0xce11);
    let mut out = Vec::new();
    let n = pool.len().min(validate);
    // Evenly-strided sample keeps coverage spread over sids even when
    // the pool is much larger than the sample.
    for k in 0..n {
        let (sid, bit) = pool[k * pool.len() / n.max(1)];
        let execs = golden.profile.exec_counts[sid as usize];
        let instance = rng.gen_range_u64(execs);
        let inj = Injection {
            target: InjectionTarget::StaticInstance {
                sid: peppa_ir::InstrId(sid),
                instance,
            },
            bit,
            burst,
        };
        let faulty = Vm::new(&bench.module, faulty_limits).run_numeric(input, Some(inj));
        let outcome = match classify(&golden, &faulty) {
            FaultOutcome::Sdc => "sdc",
            FaultOutcome::Crash => "crash",
            FaultOutcome::Hang => "hang",
            FaultOutcome::Benign => "benign",
        };
        out.push(ValidatedCell {
            sid,
            bit,
            instance,
            outcome: outcome.to_string(),
        });
    }
    out
}

/// Runs the hybrid validation over every bundled benchmark. `smoke`
/// shrinks trial and validation-sample counts to CI size.
pub fn run_hybrid(ctx: &Ctx, smoke: bool) -> HybridReport {
    let trials = if smoke { 120 } else { ctx.campaign_trials() };
    let validate = if smoke { 8 } else { 24 };
    let rows = all_benchmarks()
        .iter()
        .map(|b| hybrid_benchmark(b, ctx, trials, validate))
        .collect();
    HybridReport {
        rows,
        seed: ctx.seed,
        trials,
        smoke,
    }
}

/// Paper-shaped text rendering.
pub fn render_hybrid(r: &HybridReport) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    writeln!(
        s,
        "Hybrid static/dynamic campaign validation ({} trials{})",
        r.trials,
        if r.smoke { ", smoke" } else { "" }
    )
    .unwrap();
    writeln!(
        s,
        "{:<16} {:>14} {:>8} {:>13} {:>9} {:>9} {:>8} {:>12}",
        "benchmark",
        "masked cells",
        "skip %",
        "counts",
        "full ms",
        "pruned",
        "speedup",
        "validated"
    )
    .unwrap();
    for row in &r.rows {
        writeln!(
            s,
            "{:<16} {:>7}/{:<6} {:>7.2}% {:>13} {:>9.0} {:>9.0} {:>7.2}x {:>7} ({} sdc)",
            row.benchmark,
            row.masked_cells,
            row.total_cells,
            row.skip_ratio * 100.0,
            if row.counts_match {
                "exact"
            } else {
                "MISMATCH"
            },
            row.full_wall_ms,
            row.pruned_wall_ms,
            row.speedup,
            row.validated.len(),
            row.validation_sdc,
        )
        .unwrap();
    }
    writeln!(
        s,
        "soundness: {}",
        if r.sound() {
            "OK — no masked cell produced an SDC; pruned counts exact"
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

    #[test]
    fn hybrid_smoke_is_sound_on_all_benchmarks() {
        let mut ctx = Ctx::new(Scale::Quick, 2021);
        ctx.threads = 2;
        let r = run_hybrid(&ctx, true);
        assert_eq!(r.rows.len(), 7);
        for row in &r.rows {
            assert!(
                row.counts_match,
                "{}: pruned counts diverged",
                row.benchmark
            );
            assert!(row.within_ci, "{}: outside CI", row.benchmark);
            assert_eq!(
                row.validation_nonbenign, 0,
                "{}: masked cell not benign: {:?}",
                row.benchmark, row.validated
            );
            // hpccg is the documented all-cells-live case; every other
            // benchmark must prove a nonzero masked region.
            if !row.benchmark.eq_ignore_ascii_case("hpccg") {
                assert!(row.masked_cells > 0, "{}: no masked cells", row.benchmark);
                assert!(
                    !row.validated.is_empty(),
                    "{}: nothing validated",
                    row.benchmark
                );
            }
        }
        assert!(r.sound());
    }
}
