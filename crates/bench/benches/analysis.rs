//! Static-analysis and search-machinery microbenchmarks: def-use
//! construction, FI-space pruning (Table 4's analysis), the per-bit
//! interprocedural summary and fault-reachability passes behind
//! `--static-prune`, the input-specific deviation analysis, the
//! knapsack solver (§6), and a GA generation step.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use peppa_analysis::deviation::DeviationAnalysis;
use peppa_analysis::{defuse::def_use, prune_fi_space, summarize_bits, CallGraph, FaultReach};
use peppa_ga::{ArgBounds, GaConfig, GeneticEngine};
use peppa_protect::{knapsack, Item};

fn analysis_benches(c: &mut Criterion) {
    // Def-use and pruning over the largest kernels.
    let mut group = c.benchmark_group("static_analysis");
    for bench in peppa_apps::all_benchmarks() {
        group.bench_with_input(
            BenchmarkId::new("def_use", bench.name),
            &bench.module,
            |b, m| b.iter(|| def_use(std::hint::black_box(m)).edges.len()),
        );
        group.bench_with_input(
            BenchmarkId::new("prune_fi_space", bench.name),
            &bench.module,
            |b, m| b.iter(|| prune_fi_space(std::hint::black_box(m)).groups.len()),
        );
        // The per-bit interprocedural summary pass alone (bottom-up SCC
        // fixpoint)...
        group.bench_with_input(
            BenchmarkId::new("summarize_bits", bench.name),
            &bench.module,
            |b, m| {
                b.iter(|| {
                    let cg = CallGraph::new(std::hint::black_box(m));
                    summarize_bits(m, &cg).len()
                })
            },
        );
        // ...and the full fault-reachability analysis built on it, the
        // whole static cost of a `--static-prune` campaign table.
        group.bench_with_input(
            BenchmarkId::new("fault_reach", bench.name),
            &bench.module,
            |b, m| b.iter(|| FaultReach::analyze(std::hint::black_box(m)).widths.len()),
        );
        // The input-specific deviation half of the union table (includes
        // one golden run under the reference input).
        group.bench_with_input(
            BenchmarkId::new("deviation", bench.name),
            &bench,
            |b, bm| {
                b.iter(|| {
                    DeviationAnalysis::from_run(
                        std::hint::black_box(&bm.module),
                        &bm.reference_input,
                        peppa_vm::ExecLimits::default(),
                    )
                    .map(|(d, _)| d.tol.len())
                })
            },
        );
    }
    group.finish();

    // Knapsack at protection-planning sizes.
    let items: Vec<Item> = (0..500)
        .map(|i| Item {
            benefit: ((i * 37) % 101) as f64 / 100.0,
            cost: 100 + ((i * 7919) % 10_000) as u64,
        })
        .collect();
    let budget: u64 = items.iter().map(|i| i.cost).sum::<u64>() / 2;
    c.bench_function("knapsack_500_items", |b| {
        b.iter(|| knapsack(std::hint::black_box(&items), budget, 100_000).len())
    });

    // One GA generation on a 5-dimensional genome with a cheap fitness.
    c.bench_function("ga_generation_pop20", |b| {
        let cfg = GaConfig {
            population: 20,
            mutation_rate: 0.4,
            crossover_rate: 0.05,
            seed: 1,
            bounds: (0..5).map(|_| ArgBounds::float(0.0, 100.0)).collect(),
        };
        let mut fit = |g: &[f64]| Some(-g.iter().map(|x| (x - 42.0).abs()).sum::<f64>());
        let mut ga = GeneticEngine::new(cfg, &mut fit);
        b.iter(|| ga.step(&mut fit))
    });
}

criterion_group!(benches, analysis_benches);
criterion_main!(benches);
