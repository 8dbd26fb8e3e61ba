//! Quick per-engine golden-run throughput probe over the benchmark
//! suite: prints ns/instr and the compiled/interp ratio per benchmark,
//! each engine's figure the median of `ROUNDS` rounds. Each round runs
//! every benchmark on both engines in turn, so a slow stretch of the
//! host falls on all benchmarks and both engines rather than on one
//! benchmark's rounds (`cargo run --release -p peppa-vm --example
//! golden_speed`).

use peppa_vm::{CompiledModule, Engine, ExecLimits, ResumeScratch};
use std::time::Instant;

/// Timed rounds per engine and benchmark.
const ROUNDS: usize = 5;

fn main() {
    let limits = ExecLimits::default();
    let benches = peppa_apps::all_benchmarks();
    let codes: Vec<CompiledModule> = benches
        .iter()
        .map(|b| CompiledModule::lower(&b.module))
        .collect();
    let runs: Vec<_> = benches
        .iter()
        .zip(&codes)
        .map(|(bench, code)| {
            let engines = [
                Engine::new(&bench.module, limits, None),
                Engine::new(&bench.module, limits, Some(code)),
            ];
            let golden = engines[0].run_numeric(&bench.reference_input, None);
            let reps = (30_000_000 / golden.profile.dynamic.max(1)).clamp(3, 200) as u32;
            (bench, engines, golden, reps)
        })
        .collect();
    // Campaign-mode timing: trials reuse a per-worker scratch (a no-op
    // on the interpreter, which has no amortized path).
    let mut scratch = [ResumeScratch::new(), ResumeScratch::new()];
    // ns[bench][engine]: one figure per round.
    let mut ns = vec![[Vec::with_capacity(ROUNDS), Vec::with_capacity(ROUNDS)]; runs.len()];
    for _ in 0..ROUNDS {
        for ((bench, engines, golden, reps), per_engine) in runs.iter().zip(&mut ns) {
            for (i, eng) in engines.iter().enumerate() {
                let t0 = Instant::now();
                for _ in 0..*reps {
                    let out =
                        eng.run_numeric_amortized(&mut scratch[i], &bench.reference_input, None);
                    assert_eq!(out.output, golden.output);
                }
                let dynamic = golden.profile.dynamic as f64;
                per_engine[i].push(t0.elapsed().as_secs_f64() * 1e9 / (*reps as f64 * dynamic));
            }
        }
    }
    for ((bench, _, golden, _), per_engine) in runs.iter().zip(ns) {
        let [interp, compiled] = per_engine.map(|mut r| {
            r.sort_by(f64::total_cmp);
            r[ROUNDS / 2]
        });
        println!(
            "{:16} dyn {:>9}  interp {:7.2} ns/i  compiled {:7.2} ns/i  ratio {:5.2}x",
            bench.name,
            golden.profile.dynamic,
            interp,
            compiled,
            interp / compiled
        );
    }
}
