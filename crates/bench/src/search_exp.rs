//! Search-comparison experiments: Figures 5, 7, 8 and Table 6 (§5).
//!
//! PEPPA-X and the baseline get the same search budget, measured in
//! dynamic instructions executed (the deterministic analogue of the
//! paper's equal wall-clock budgets). At each generation checkpoint the
//! best input of each method is FI-evaluated for its SDC probability.

use crate::scale::Ctx;
use peppa_apps::{all_benchmarks, Benchmark};
use peppa_core::{baseline_search, BaselineConfig, FitnessOracle, PeppaConfig, PeppaX};
use peppa_inject::{run_campaign, CampaignConfig};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One generation checkpoint of the Figure 5 comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GenPoint {
    pub generation: u64,
    pub peppa_sdc: f64,
    pub peppa_fitness: f64,
    pub peppa_input: Vec<f64>,
    /// Search budget (dynamic instructions) PEPPA-X consumed to reach
    /// this generation.
    pub budget_dynamic: u64,
    /// Best SDC probability the baseline found within the same budget.
    pub baseline_sdc: f64,
}

/// One benchmark's Figure 5 + 7 + 8 data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchRow {
    pub benchmark: String,
    pub points: Vec<GenPoint>,
    /// Figure 7: baseline's best with 5× the saturation-checkpoint
    /// budget, vs PEPPA-X at the saturation checkpoint.
    pub peppa_at_saturation: f64,
    pub baseline_5x: f64,
    /// Figure 8: fixed analysis cost and wall-clock timing.
    pub analysis_cost_dynamic: u64,
    pub analysis_secs: f64,
    pub search_secs: f64,
    /// The SDC-bound input found (used downstream by Figure 9).
    pub sdc_bound_input: Vec<f64>,
    pub sdc_bound_prob: f64,
}

/// Figure 5/7/8 report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchReportAll {
    pub rows: Vec<SearchRow>,
}

/// Runs the search comparison for one benchmark.
pub fn search_benchmark(bench: &Benchmark, ctx: &Ctx) -> SearchRow {
    let cfg = PeppaConfig {
        seed: ctx.seed,
        population: ctx.population(),
        distribution_trials: ctx.distribution_trials(),
        final_fi_trials: ctx.campaign_trials(),
        limits: ctx.limits,
        threads: ctx.threads,
        ..Default::default()
    };

    let t0 = Instant::now();
    let px = PeppaX::prepare(bench, cfg).unwrap_or_else(|e| panic!("{}: {e}", bench.name));
    let analysis_secs = t0.elapsed().as_secs_f64();

    let checkpoints = ctx.generation_checkpoints();
    let t1 = Instant::now();
    let report = px.search(&checkpoints);
    let search_secs = t1.elapsed().as_secs_f64();

    // Baseline with the largest checkpoint's budget ×5 (Figure 7's
    // extended run subsumes all smaller budgets for best_at_budget).
    let max_budget = report
        .checkpoints
        .last()
        .map(|c| c.search_cost_dynamic)
        .unwrap_or(0);
    let sat = ctx.saturation_checkpoint();
    let sat_budget = report
        .checkpoints
        .iter()
        .find(|c| c.generation == sat)
        .map(|c| c.search_cost_dynamic)
        .unwrap_or(max_budget);
    let baseline_budget = max_budget.max(sat_budget.saturating_mul(5));
    let baseline = baseline_search(
        bench,
        baseline_budget,
        BaselineConfig {
            seed: ctx.seed ^ 0xba5e,
            // The baseline's 1,000-trial campaigns are part of the
            // *method* (each candidate needs a statistically significant
            // SDC measurement, §5.1), not of our experiment scale — the
            // quick-scale knob only shrinks our own checkpoint
            // measurements.
            fi_trials: 1000,
            limits: ctx.limits,
            threads: ctx.threads,
            max_inputs: 10_000,
        },
    );

    let points: Vec<GenPoint> = report
        .checkpoints
        .iter()
        .map(|c| GenPoint {
            generation: c.generation,
            peppa_sdc: c.sdc.sdc_prob(),
            peppa_fitness: c.fitness,
            peppa_input: c.input.clone(),
            budget_dynamic: c.search_cost_dynamic,
            baseline_sdc: baseline
                .best_at_budget(c.search_cost_dynamic)
                .unwrap_or(0.0),
        })
        .collect();

    // PEPPA-X reports the best FI-validated input found within the
    // budget, so "at saturation" is the best over checkpoints up to it.
    let peppa_at_saturation = report
        .checkpoints
        .iter()
        .filter(|c| c.generation <= sat)
        .map(|c| c.sdc.sdc_prob())
        .fold(0.0f64, f64::max);
    let baseline_5x = baseline
        .best_at_budget(sat_budget.saturating_mul(5))
        .unwrap_or(0.0);

    let bound = report.sdc_bound();
    SearchRow {
        benchmark: bench.name.to_string(),
        points,
        peppa_at_saturation,
        baseline_5x,
        analysis_cost_dynamic: report.analysis_cost_dynamic,
        analysis_secs,
        search_secs,
        sdc_bound_input: bound.input.clone(),
        sdc_bound_prob: bound.sdc.sdc_prob(),
    }
}

/// Runs the comparison for every benchmark (Figures 5, 7, 8).
pub fn run_search(ctx: &Ctx) -> SearchReportAll {
    SearchReportAll {
        rows: all_benchmarks()
            .iter()
            .map(|b| search_benchmark(b, ctx))
            .collect(),
    }
}

/// Table 6: wall-clock time to evaluate ONE input in PEPPA-X (a single
/// profiled run, Eq. 2) vs the baseline (a full FI campaign), both on
/// the compiled engine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerInputTimeRow {
    pub benchmark: String,
    pub peppa_secs: f64,
    pub baseline_secs: f64,
    pub speedup: f64,
}

/// Table 6 report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerInputTimeReport {
    pub rows: Vec<PerInputTimeRow>,
}

impl PerInputTimeReport {
    pub fn mean_speedup(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(|r| r.speedup).sum::<f64>() / self.rows.len() as f64
    }
}

/// Runs Table 6 on the reference inputs.
pub fn run_per_input_time(ctx: &Ctx) -> PerInputTimeReport {
    let mut rows = Vec::new();
    for b in all_benchmarks() {
        // PEPPA-X per-input evaluation: one profiled run (the SDC-score
        // weighting is a linear pass over the profile, measured too).
        let small =
            peppa_core::fuzz_small_input(&b, ctx.limits, peppa_core::SmallInputConfig::default())
                .unwrap();
        let scores = peppa_core::derive_sdc_scores(
            &b,
            &small.input,
            ctx.limits,
            ctx.distribution_trials(),
            ctx.seed,
            true,
            ctx.threads,
        )
        .unwrap();

        // Timed as the GA runs it: the oracle's one-time lowering and
        // its memory buffer, sized by its first run (here the small
        // input), are set-up, not per-input cost.
        let mut oracle = FitnessOracle::new(&b, &scores, ctx.limits);
        oracle.eval(&small.input).expect("small input runs");
        let t0 = Instant::now();
        oracle
            .eval(&b.reference_input)
            .expect("reference input runs");
        let peppa_secs = t0.elapsed().as_secs_f64();
        assert_eq!(oracle.cache_hits, 0, "the reference input must run");

        // Baseline per-input evaluation: a full FI campaign from entry
        // (serial, as the paper measures both methods without
        // parallelization).
        let t1 = Instant::now();
        let _ = run_campaign(
            &b.module,
            &b.reference_input,
            ctx.limits,
            CampaignConfig {
                trials: ctx.campaign_trials(),
                seed: ctx.seed,
                hang_factor: 8,
                threads: 1,
                burst: 0,
                ..Default::default()
            },
        )
        .unwrap();
        let baseline_secs = t1.elapsed().as_secs_f64();

        rows.push(PerInputTimeRow {
            benchmark: b.name.to_string(),
            peppa_secs,
            baseline_secs,
            speedup: if peppa_secs > 0.0 {
                baseline_secs / peppa_secs
            } else {
                f64::INFINITY
            },
        });
    }
    PerInputTimeReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    #[test]
    fn search_comparison_runs_on_one_benchmark() {
        let mut ctx = Ctx::new(Scale::Quick, 2);
        ctx.threads = 0;
        let b = peppa_apps::pathfinder::benchmark();
        let row = search_benchmark(&b, &ctx);
        assert_eq!(row.points.len(), ctx.generation_checkpoints().len());
        for p in &row.points {
            assert!((0.0..=1.0).contains(&p.peppa_sdc));
            assert!((0.0..=1.0).contains(&p.baseline_sdc));
        }
        // Budgets grow with generations.
        for w in row.points.windows(2) {
            assert!(w[1].budget_dynamic > w[0].budget_dynamic);
        }
        assert!(
            row.sdc_bound_prob > 0.0,
            "search found no SDC-prone input at all"
        );
    }
}
