//! `repro optstudy`: does compiler optimization change a program's SDC
//! vulnerability profile?
//!
//! Every bundled benchmark is run through the `-O2` rewrite pipeline
//! and compared against its `-O0` form along four axes:
//!
//! 1. **Cost** — static and dynamic instruction reduction at the
//!    reference input, plus the wall-time change of an identical FI
//!    campaign (fewer dynamic instructions ⇒ cheaper campaigns).
//! 2. **Outcome distribution** — SDC/crash/hang/benign counts of the
//!    two campaigns, same trial count and seed.
//! 3. **Rank stability** — Spearman correlation between per-instruction
//!    SDC probabilities at O0 and O2, paired through the optimizer's
//!    provenance map (`provenance[new_sid]` = original sid), answering
//!    whether optimization *reshuffles* which instructions are
//!    vulnerable or merely removes some.
//! 4. **Search transfer** — the GA worst-case input found against the
//!    O0 module is re-evaluated on the O2 module (and vice versa): does
//!    a vulnerability bound established at one opt level transfer to
//!    the other?
//!
//! The report's soundness gate is the PR's acceptance criterion: a
//! geometric-mean dynamic-instruction reduction of at least 10% at O2.

use crate::scale::{Ctx, Scale};
use peppa_analysis::{optimize, OptLevel};
use peppa_apps::{all_benchmarks, random_inputs, Benchmark};
use peppa_core::{PeppaConfig, PeppaX};
use peppa_inject::campaign::golden_run;
use peppa_inject::{
    per_instruction_sdc, run_campaign, CampaignConfig, CampaignResult, PerInstrConfig,
};
use peppa_ir::{InstrId, Module};
use peppa_stats::corr::spearman;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// GA worst-case-input transfer between opt levels, one direction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransferRow {
    /// Opt level the GA searched against.
    pub searched_at: String,
    /// The SDC-bound input the search produced.
    pub input: Vec<f64>,
    /// Measured SDC probability on the module it was searched against.
    pub sdc_at_home: f64,
    /// Measured SDC probability of the *same input* on the other level.
    pub sdc_transferred: f64,
}

/// One benchmark's O0-vs-O2 comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OptStudyRow {
    pub benchmark: String,
    pub static_before: usize,
    pub static_after: usize,
    /// Dynamic instructions of the golden run at the reference input.
    pub dynamic_before: u64,
    pub dynamic_after: u64,
    /// `1 - after/before` at the reference input.
    pub dynamic_reduction: f64,
    /// Identical-seed FI campaigns at each level.
    pub campaign_o0: CampaignResult,
    pub campaign_o2: CampaignResult,
    pub campaign_o0_wall_ms: f64,
    pub campaign_o2_wall_ms: f64,
    /// O2 campaign wall time over O0 (< 1 ⇒ optimization made the
    /// campaign cheaper).
    pub campaign_wall_ratio: f64,
    /// Per-instruction SDC probabilities paired through provenance.
    pub rank_shift_spearman: Option<f64>,
    /// Surviving instructions measurable at both levels.
    pub paired_instrs: usize,
    /// Both transfer directions (searched at O0, searched at O2).
    pub transfer: Vec<TransferRow>,
}

/// `repro optstudy` report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OptStudyReport {
    pub rows: Vec<OptStudyRow>,
    /// Geometric-mean dynamic-instruction reduction at O2 across
    /// benchmarks (`1 - geomean(after/before)`).
    pub geomean_dynamic_reduction: f64,
    pub seed: u64,
    pub trials: u32,
    pub smoke: bool,
}

impl OptStudyReport {
    /// The CI gate: O2 must deliver at least a 10% geometric-mean
    /// dynamic-instruction reduction (the PR's acceptance criterion).
    pub fn sound(&self) -> bool {
        self.geomean_dynamic_reduction >= 0.10
    }
}

/// A benchmark re-pointed at its optimized module; search-space
/// metadata (arg bounds, reference input) is level-invariant.
fn with_module(bench: &Benchmark, module: Module) -> Benchmark {
    Benchmark {
        name: bench.name,
        suite: bench.suite,
        description: bench.description,
        source: bench.source,
        module,
        args: bench.args.clone(),
        reference_input: bench.reference_input.clone(),
    }
}

fn campaign(module: &Module, input: &[f64], ctx: &Ctx, trials: u32) -> (CampaignResult, f64) {
    let cfg = CampaignConfig {
        trials,
        seed: ctx.seed ^ 0x0b7d,
        hang_factor: 8,
        burst: 0,
        threads: ctx.threads,
        ..Default::default()
    };
    let t = Instant::now();
    let r = run_campaign(module, input, ctx.limits, cfg).expect("reference input must run");
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// Spearman rank correlation between per-instruction SDC probabilities
/// at the two levels, paired via the provenance map. Sampled on a
/// light-workload input (per-instruction FI costs instrs × trials whole
/// runs), over at most `sample` surviving instructions.
fn rank_shift(
    bench: &Benchmark,
    opt: &Module,
    provenance: &[u32],
    ctx: &Ctx,
    trials: u32,
    sample: usize,
) -> (Option<f64>, usize) {
    let cap = match ctx.scale {
        Scale::Quick => 150_000,
        Scale::Paper => 2_000_000,
    };
    let input = random_inputs(bench, 1, ctx.seed ^ 0x4a4a, ctx.limits, cap)
        .pop()
        .expect("one valid input");

    // Sample surviving instructions with a stride so the subset spans
    // the whole module rather than its first basic blocks.
    let survivors: Vec<u32> = (0..opt.num_instrs as u32).collect();
    let stride = (survivors.len() / sample).max(1);
    let new_sids: Vec<InstrId> = survivors
        .iter()
        .step_by(stride)
        .take(sample)
        .map(|&s| InstrId(s))
        .collect();
    let old_sids: Vec<InstrId> = new_sids
        .iter()
        .map(|s| InstrId(provenance[s.0 as usize]))
        .collect();

    let cfg = PerInstrConfig {
        trials_per_instr: trials,
        seed: ctx.seed ^ 0x9a7e,
        hang_factor: 8,
        threads: ctx.threads,
    };
    let o0 = per_instruction_sdc(&bench.module, &input, ctx.limits, cfg, Some(&old_sids))
        .expect("validated input must run");
    let o2 = per_instruction_sdc(opt, &input, ctx.limits, cfg, Some(&new_sids))
        .expect("validated input must run");

    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (new, old) in new_sids.iter().zip(&old_sids) {
        if let (Some(a), Some(b)) = (o0.sdc_prob[old.0 as usize], o2.sdc_prob[new.0 as usize]) {
            xs.push(a);
            ys.push(b);
        }
    }
    if xs.len() < 3 {
        return (None, xs.len());
    }
    (Some(spearman(&xs, &ys)), xs.len())
}

/// Runs the GA against `home`, then measures its SDC-bound input on
/// both `home` and `away` with identical campaigns.
fn transfer(
    home: &Benchmark,
    away: &Module,
    label: &str,
    ctx: &Ctx,
    trials: u32,
    generations: u64,
) -> TransferRow {
    let cfg = PeppaConfig {
        seed: ctx.seed,
        population: ctx.population(),
        distribution_trials: ctx.distribution_trials(),
        final_fi_trials: trials,
        limits: ctx.limits,
        threads: ctx.threads,
        ..Default::default()
    };
    let px = PeppaX::prepare(home, cfg).unwrap_or_else(|e| panic!("{}: {e}", home.name));
    let report = px.search(&[generations]);
    let bound = report.sdc_bound();
    let (at_home, _) = campaign(&home.module, &bound.input, ctx, trials);
    let (transferred, _) = campaign(away, &bound.input, ctx, trials);
    TransferRow {
        searched_at: label.to_string(),
        input: bound.input.clone(),
        sdc_at_home: at_home.sdc_prob(),
        sdc_transferred: transferred.sdc_prob(),
    }
}

/// Runs the full O0-vs-O2 comparison for one benchmark.
pub fn optstudy_benchmark(bench: &Benchmark, ctx: &Ctx, smoke: bool) -> OptStudyRow {
    let trials = if smoke { 120 } else { ctx.campaign_trials() };
    let per_instr_trials = if smoke { 6 } else { ctx.per_instr_trials() };
    let sample = if smoke { 24 } else { 96 };
    let generations = if smoke {
        3
    } else {
        *ctx.generation_checkpoints().last().unwrap()
    };

    let opt = optimize(&bench.module, OptLevel::O2);
    let o2_bench = with_module(bench, opt.module.clone());

    let dyn_before = golden_run(&bench.module, &bench.reference_input, ctx.limits)
        .expect("reference input must run")
        .profile
        .dynamic;
    let dyn_after = golden_run(&opt.module, &bench.reference_input, ctx.limits)
        .expect("reference input must run")
        .profile
        .dynamic;

    let (campaign_o0, wall_o0) = campaign(&bench.module, &bench.reference_input, ctx, trials);
    let (campaign_o2, wall_o2) = campaign(&opt.module, &bench.reference_input, ctx, trials);

    let (rank_shift_spearman, paired_instrs) = rank_shift(
        bench,
        &opt.module,
        &opt.provenance,
        ctx,
        per_instr_trials,
        sample,
    );

    let transfer = vec![
        transfer(bench, &opt.module, "O0", ctx, trials, generations),
        transfer(&o2_bench, &bench.module, "O2", ctx, trials, generations),
    ];

    OptStudyRow {
        benchmark: bench.name.to_string(),
        static_before: bench.module.num_instrs,
        static_after: opt.module.num_instrs,
        dynamic_before: dyn_before,
        dynamic_after: dyn_after,
        dynamic_reduction: 1.0 - dyn_after as f64 / dyn_before as f64,
        campaign_o0,
        campaign_o2,
        campaign_o0_wall_ms: wall_o0,
        campaign_o2_wall_ms: wall_o2,
        campaign_wall_ratio: wall_o2 / wall_o0.max(1e-9),
        rank_shift_spearman,
        paired_instrs,
        transfer,
    }
}

/// Runs the study over every bundled benchmark. `smoke` shrinks trial,
/// sample, and generation counts to CI size.
pub fn run_optstudy(ctx: &Ctx, smoke: bool) -> OptStudyReport {
    let rows: Vec<OptStudyRow> = all_benchmarks()
        .iter()
        .map(|b| optstudy_benchmark(b, ctx, smoke))
        .collect();
    let geomean_dynamic_reduction = 1.0
        - (rows
            .iter()
            .map(|r| (r.dynamic_after as f64 / r.dynamic_before as f64).ln())
            .sum::<f64>()
            / rows.len() as f64)
            .exp();
    OptStudyReport {
        rows,
        geomean_dynamic_reduction,
        seed: ctx.seed,
        trials: if smoke { 120 } else { ctx.campaign_trials() },
        smoke,
    }
}

/// Paper-shaped text rendering.
pub fn render_optstudy(r: &OptStudyReport) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    writeln!(
        s,
        "Optimization vs SDC vulnerability ({} trials{})",
        r.trials,
        if r.smoke { ", smoke" } else { "" }
    )
    .unwrap();
    writeln!(
        s,
        "{:<16} {:>7} {:>12} {:>7} {:>8} {:>8} {:>8} {:>8} {:>11} {:>11}",
        "benchmark",
        "dyn red",
        "wall O2/O0",
        "rho",
        "sdc O0",
        "sdc O2",
        "crash Δ",
        "hang Δ",
        "xfer O0→O2",
        "xfer O2→O0",
    )
    .unwrap();
    for row in &r.rows {
        let rho = row
            .rank_shift_spearman
            .map(|v| format!("{v:.2}"))
            .unwrap_or_else(|| "-".into());
        let xfer = |at: &str| {
            row.transfer
                .iter()
                .find(|t| t.searched_at == at)
                .map(|t| format!("{:.3}→{:.3}", t.sdc_at_home, t.sdc_transferred))
                .unwrap_or_else(|| "-".into())
        };
        writeln!(
            s,
            "{:<16} {:>6.1}% {:>12.2} {:>7} {:>8.3} {:>8.3} {:>8} {:>8} {:>11} {:>11}",
            row.benchmark,
            row.dynamic_reduction * 100.0,
            row.campaign_wall_ratio,
            rho,
            row.campaign_o0.sdc_prob(),
            row.campaign_o2.sdc_prob(),
            row.campaign_o2.crash as i64 - row.campaign_o0.crash as i64,
            row.campaign_o2.hang as i64 - row.campaign_o0.hang as i64,
            xfer("O0"),
            xfer("O2"),
        )
        .unwrap();
    }
    writeln!(
        s,
        "geomean dynamic-instruction reduction at O2: {:.1}% (gate: >= 10%)",
        r.geomean_dynamic_reduction * 100.0
    )
    .unwrap();
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Ctx;

    #[test]
    fn optstudy_smoke_passes_reduction_gate() {
        // One benchmark end-to-end keeps the test fast; the full-suite
        // geomean gate runs as `repro optstudy --smoke` in CI.
        let ctx = Ctx::new(crate::scale::Scale::Quick, 0xbe7c);
        let bench = &all_benchmarks()[0];
        let row = optstudy_benchmark(bench, &ctx, true);
        assert!(row.dynamic_before > 0);
        assert!(
            row.dynamic_after < row.dynamic_before,
            "{}: O2 did not reduce dynamic instructions ({} -> {})",
            row.benchmark,
            row.dynamic_before,
            row.dynamic_after
        );
        assert_eq!(row.campaign_o0.trials, 120);
        assert_eq!(row.transfer.len(), 2);
        for t in &row.transfer {
            assert!((0.0..=1.0).contains(&t.sdc_at_home));
            assert!((0.0..=1.0).contains(&t.sdc_transferred));
        }
    }
}
