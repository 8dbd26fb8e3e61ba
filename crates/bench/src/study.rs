//! The initial fault-injection study (§3): Figure 1 and Table 2.
//!
//! For each benchmark, run statistical FI campaigns on N random inputs
//! plus the default reference input, recording each input's overall SDC
//! probability and code coverage. Figure 1 reports the min/max range with
//! the reference input's mark; Table 2 reports Spearman's correlation
//! between coverage and SDC probability.

use crate::scale::Ctx;
use peppa_apps::{all_benchmarks, random_inputs, Benchmark};
use peppa_inject::{run_campaign, CampaignConfig};
use peppa_stats::spearman;
use peppa_vm::Vm;
use serde::{Deserialize, Serialize};

/// One input's measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InputMeasurement {
    pub input: Vec<f64>,
    pub sdc_prob: f64,
    pub crash_prob: f64,
    pub coverage: f64,
    pub dynamic: u64,
}

/// One benchmark's row of the study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StudyRow {
    pub benchmark: String,
    pub random: Vec<InputMeasurement>,
    pub reference: InputMeasurement,
    /// Table 2's entry: Spearman(coverage, SDC probability).
    pub coverage_correlation: f64,
}

impl StudyRow {
    pub fn sdc_min(&self) -> f64 {
        self.random
            .iter()
            .map(|m| m.sdc_prob)
            .fold(f64::INFINITY, f64::min)
    }

    pub fn sdc_max(&self) -> f64 {
        self.random.iter().map(|m| m.sdc_prob).fold(0.0, f64::max)
    }

    /// Fraction of random inputs whose SDC probability exceeds the
    /// reference input's ("the red marks are all in the lower half").
    pub fn reference_percentile(&self) -> f64 {
        if self.random.is_empty() {
            return 0.0;
        }
        self.random
            .iter()
            .filter(|m| m.sdc_prob < self.reference.sdc_prob)
            .count() as f64
            / self.random.len() as f64
    }
}

/// Full study output (Figure 1 + Table 2).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StudyReport {
    pub rows: Vec<StudyRow>,
}

impl StudyReport {
    /// Table 2's average correlation (the paper reports 0.01).
    pub fn mean_correlation(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows
            .iter()
            .map(|r| r.coverage_correlation)
            .sum::<f64>()
            / self.rows.len() as f64
    }
}

fn measure_input(bench: &Benchmark, input: &[f64], ctx: &Ctx, seed: u64) -> InputMeasurement {
    let cfg = CampaignConfig {
        trials: ctx.campaign_trials(),
        seed,
        hang_factor: 8,
        threads: ctx.threads,
        burst: 0,
        ..Default::default()
    };
    let r = run_campaign(&bench.module, input, ctx.limits, cfg)
        .unwrap_or_else(|e| panic!("{}: campaign failed on validated input: {e}", bench.name));
    let vm = Vm::new(&bench.module, ctx.limits);
    let golden = vm.run_numeric(input, None);
    InputMeasurement {
        input: input.to_vec(),
        sdc_prob: r.sdc_prob(),
        crash_prob: r.crash_prob(),
        coverage: golden.profile.coverage(),
        dynamic: golden.profile.dynamic,
    }
}

/// Runs the study for one benchmark.
pub fn study_benchmark(bench: &Benchmark, ctx: &Ctx) -> StudyRow {
    let inputs = random_inputs(
        bench,
        ctx.study_inputs(),
        ctx.seed,
        ctx.limits,
        peppa_apps::gen::DEFAULT_DYNAMIC_CAP,
    );
    let random: Vec<InputMeasurement> = inputs
        .iter()
        .enumerate()
        .map(|(i, input)| measure_input(bench, input, ctx, ctx.seed ^ (i as u64 + 1) << 8))
        .collect();
    let reference = measure_input(bench, &bench.reference_input, ctx, ctx.seed ^ 0x4ef5);

    let cov: Vec<f64> = random.iter().map(|m| m.coverage).collect();
    let sdc: Vec<f64> = random.iter().map(|m| m.sdc_prob).collect();
    StudyRow {
        benchmark: bench.name.to_string(),
        coverage_correlation: spearman(&cov, &sdc),
        random,
        reference,
    }
}

/// Runs the whole study (all seven benchmarks).
pub fn run_study(ctx: &Ctx) -> StudyReport {
    StudyReport {
        rows: all_benchmarks()
            .iter()
            .map(|b| study_benchmark(b, ctx))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    #[test]
    fn single_benchmark_study_shapes() {
        let ctx = Ctx::new(Scale::Quick, 3);
        let b = peppa_apps::pathfinder::benchmark();
        let row = study_benchmark(&b, &ctx);
        assert_eq!(row.random.len(), ctx.study_inputs());
        assert!(row.sdc_max() >= row.sdc_min());
        assert!((0.0..=1.0).contains(&row.reference.sdc_prob));
        assert!((-1.0..=1.0).contains(&row.coverage_correlation));
    }
}
