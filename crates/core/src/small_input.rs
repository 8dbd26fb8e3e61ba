//! Fuzzing for the small FI input (§4.2.1).
//!
//! The SDC-sensitivity distribution only needs an input that *covers* the
//! representative program regions, not a heavy workload. Starting from a
//! small numeric window per argument, the fuzzer samples random inputs
//! and widens the window until the sampled input's static-instruction
//! coverage reaches a target fraction of the reference input's coverage.

use peppa_apps::Benchmark;
use peppa_stats::Pcg64;
use peppa_vm::{CompiledModule, Engine, ExecLimits, ResumeScratch, RunStatus};
use serde::{Deserialize, Serialize};

/// Configuration of the small-input fuzzing step.
#[derive(Debug, Clone, Copy)]
pub struct SmallInputConfig {
    /// Required coverage as a fraction of the reference input's coverage
    /// (the paper fuzzes "until reaching a specified code coverage").
    pub coverage_fraction: f64,
    /// Samples per widening stage.
    pub samples_per_stage: usize,
    /// Widening stages from the small window to the full range.
    pub stages: usize,
    pub seed: u64,
}

impl Default for SmallInputConfig {
    fn default() -> Self {
        SmallInputConfig {
            coverage_fraction: 0.95,
            samples_per_stage: 24,
            stages: 8,
            seed: 0xf0,
        }
    }
}

/// The small FI input found by fuzzing.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SmallInput {
    pub input: Vec<f64>,
    pub coverage: f64,
    pub reference_coverage: f64,
    /// Dynamic instructions of the small input's run.
    pub dynamic: u64,
    /// Dynamic instructions of the reference input's run, for the
    /// speed-up comparison.
    pub reference_dynamic: u64,
    /// Candidate executions spent fuzzing.
    pub attempts: u64,
    /// Total dynamic instructions spent fuzzing (the step's cost).
    pub cost_dynamic: u64,
}

/// Errors from the fuzzing step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SmallInputError {
    ReferenceRunFailed,
    CoverageTargetUnreachable { best: u64 },
}

impl std::fmt::Display for SmallInputError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SmallInputError::ReferenceRunFailed => write!(f, "reference input failed to run"),
            SmallInputError::CoverageTargetUnreachable { best } => {
                write!(
                    f,
                    "coverage target unreachable (best coverage seen: {best} instrs)"
                )
            }
        }
    }
}

impl std::error::Error for SmallInputError {}

/// Runs the fuzzing procedure of §4.2.1. Every run is on the compiled
/// engine and reuses one memory image; the engines are bit-identical, so
/// the profiles are the interpreter's.
pub fn fuzz_small_input(
    bench: &Benchmark,
    limits: ExecLimits,
    cfg: SmallInputConfig,
) -> Result<SmallInput, SmallInputError> {
    let code = CompiledModule::lower(&bench.module);
    let engine = Engine::compiled(&bench.module, &code, limits);
    let mut scratch = ResumeScratch::new();
    let mut run = |input: &[f64]| engine.run_numeric_amortized(&mut scratch, input, None);
    let ref_run = run(&bench.reference_input);
    if ref_run.status != RunStatus::Ok {
        return Err(SmallInputError::ReferenceRunFailed);
    }
    let ref_cov = ref_run.profile.coverage();
    let target = ref_cov * cfg.coverage_fraction;

    let mut rng = Pcg64::new(cfg.seed);
    let mut attempts = 0u64;
    let mut cost = ref_run.profile.dynamic;
    let mut best: Option<(Vec<f64>, f64, u64)> = None;

    for stage in 0..cfg.stages {
        // Interpolate each argument's window from its small range toward
        // the full range.
        let t = stage as f64 / (cfg.stages - 1).max(1) as f64;
        let windows: Vec<(f64, f64)> = bench
            .args
            .iter()
            .map(|a| {
                let lo = a.small.0 + (a.lo - a.small.0) * t;
                let hi = a.small.1 + (a.hi - a.small.1) * t;
                (lo, hi)
            })
            .collect();

        for _ in 0..cfg.samples_per_stage {
            let candidate: Vec<f64> = bench
                .args
                .iter()
                .zip(&windows)
                .map(|(a, &(lo, hi))| a.clamp(rng.gen_range_f64(lo, hi)))
                .collect();
            attempts += 1;
            let out = run(&candidate);
            cost += out.profile.dynamic;
            if out.status != RunStatus::Ok {
                continue;
            }
            let cov = out.profile.coverage();
            let dynamic = out.profile.dynamic;
            // Prefer: coverage first, then smaller workload.
            let better = match &best {
                None => true,
                Some((_, bcov, bdyn)) => {
                    cov > *bcov + 1e-12 || (cov >= *bcov - 1e-12 && dynamic < *bdyn)
                }
            };
            if better {
                best = Some((candidate, cov, dynamic));
            }
        }

        if let Some((input, cov, dynamic)) = &best {
            if *cov >= target {
                return Ok(SmallInput {
                    input: input.clone(),
                    coverage: *cov,
                    reference_coverage: ref_cov,
                    dynamic: *dynamic,
                    reference_dynamic: ref_run.profile.dynamic,
                    attempts,
                    cost_dynamic: cost,
                });
            }
        }
    }

    match best {
        // Accept the best coverage found even if slightly under target:
        // the distribution only needs the dominant regions.
        Some((input, cov, dynamic)) if cov >= target * 0.8 => Ok(SmallInput {
            input,
            coverage: cov,
            reference_coverage: ref_cov,
            dynamic,
            reference_dynamic: ref_run.profile.dynamic,
            attempts,
            cost_dynamic: cost,
        }),
        Some((_, _, d)) => Err(SmallInputError::CoverageTargetUnreachable { best: d }),
        None => Err(SmallInputError::CoverageTargetUnreachable { best: 0 }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peppa_apps::all_benchmarks;

    #[test]
    fn finds_small_input_for_every_benchmark() {
        for b in all_benchmarks() {
            let s = fuzz_small_input(&b, ExecLimits::default(), SmallInputConfig::default())
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            assert!(
                s.coverage >= 0.8 * 0.95 * s.reference_coverage,
                "{}: coverage {} vs ref {}",
                b.name,
                s.coverage,
                s.reference_coverage
            );
            // The point of the step: the small input must be cheaper than
            // the reference input.
            assert!(
                s.dynamic <= s.reference_dynamic,
                "{}: small input not smaller ({} vs {})",
                b.name,
                s.dynamic,
                s.reference_dynamic
            );
        }
    }

    #[test]
    fn deterministic() {
        let b = peppa_apps::pathfinder::benchmark();
        let a = fuzz_small_input(&b, ExecLimits::default(), SmallInputConfig::default()).unwrap();
        let c = fuzz_small_input(&b, ExecLimits::default(), SmallInputConfig::default()).unwrap();
        assert_eq!(a.input, c.input);
    }

    #[test]
    fn small_input_is_much_cheaper_for_big_kernels() {
        // CoMD's reference input runs hundreds of thousands of dynamic
        // instructions; the small input should be at least 5x cheaper.
        let b = peppa_apps::comd::benchmark();
        let s = fuzz_small_input(&b, ExecLimits::default(), SmallInputConfig::default()).unwrap();
        assert!(
            s.dynamic * 5 <= s.reference_dynamic,
            "small {} vs reference {}",
            s.dynamic,
            s.reference_dynamic
        );
    }
}
