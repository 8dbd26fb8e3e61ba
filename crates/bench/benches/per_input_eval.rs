//! Table 6's microbenchmark: the cost of evaluating ONE candidate input
//! in PEPPA-X (a single profiled run + Eq.-2 weighting) vs the baseline
//! (a statistical FI campaign), both on the interpreter: the reference
//! Eq. 2 (`fitness_of_input`) runs there, and `FitnessOracle` memoizes
//! repeats, so it cannot be timed in a loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use peppa_core::{derive_sdc_scores, fitness_of_input, fuzz_small_input, SmallInputConfig};
use peppa_inject::{run_campaign, CampaignConfig};
use peppa_vm::{EngineKind, ExecLimits};

fn per_input_eval(c: &mut Criterion) {
    let limits = ExecLimits::default();
    // Two representative kernels keep the bench short.
    for name in ["Pathfinder", "FFT"] {
        let bench = peppa_apps::benchmark_by_name(name).unwrap();
        let small = fuzz_small_input(&bench, limits, SmallInputConfig::default()).unwrap();
        let scores = derive_sdc_scores(&bench, &small.input, limits, 10, 1, true, 0).unwrap();

        let mut group = c.benchmark_group(format!("per_input_eval/{name}"));
        group.sample_size(10);
        group.bench_function(BenchmarkId::new("peppa_fitness", name), |b| {
            b.iter(|| {
                fitness_of_input(
                    &bench,
                    &scores,
                    std::hint::black_box(&bench.reference_input),
                    limits,
                )
                .unwrap()
                .0
            })
        });
        // 100-trial campaign: 1/10th of the paper's 1,000 so the bench
        // terminates quickly; the per-trial cost is what matters.
        group.bench_function(BenchmarkId::new("baseline_fi_campaign_100", name), |b| {
            b.iter(|| {
                run_campaign(
                    &bench.module,
                    std::hint::black_box(&bench.reference_input),
                    limits,
                    CampaignConfig {
                        trials: 100,
                        seed: 2,
                        hang_factor: 8,
                        threads: 1,
                        burst: 0,
                        engine: EngineKind::Interp,
                    },
                )
                .unwrap()
                .sdc
            })
        });
        group.finish();
    }
}

criterion_group!(benches, per_input_eval);
criterion_main!(benches);
