//! Quick per-engine golden-run throughput probe over the benchmark
//! suite: prints ns/instr and the compiled/interp ratio per benchmark,
//! each engine's figure the median of `ROUNDS` rounds that alternate
//! between the engines. Used to sanity-check engine performance without
//! a full campaign (`cargo run --release -p peppa-vm --example golden_speed`).

use peppa_vm::{CompiledModule, Engine, ExecLimits, ResumeScratch};
use std::time::Instant;

/// Timed rounds per engine; the two engines take turns, so a slow
/// stretch of the host falls on both.
const ROUNDS: usize = 5;

fn main() {
    let limits = ExecLimits::default();
    for bench in peppa_apps::all_benchmarks() {
        let code = CompiledModule::lower(&bench.module);
        let engines = [
            Engine::new(&bench.module, limits, None),
            Engine::new(&bench.module, limits, Some(&code)),
        ];
        let golden = engines[0].run_numeric(&bench.reference_input, None);
        let dynamic = golden.profile.dynamic;
        let reps = (30_000_000 / dynamic.max(1)).clamp(3, 200) as u32;
        // Campaign-mode timing: trials reuse a per-worker scratch
        // (a no-op on the interpreter, which has no amortized path).
        let mut scratch = [ResumeScratch::new(), ResumeScratch::new()];
        let mut ns = [Vec::with_capacity(ROUNDS), Vec::with_capacity(ROUNDS)];
        for _ in 0..ROUNDS {
            for (i, eng) in engines.iter().enumerate() {
                let t0 = Instant::now();
                for _ in 0..reps {
                    let out =
                        eng.run_numeric_amortized(&mut scratch[i], &bench.reference_input, None);
                    assert_eq!(out.output, golden.output);
                }
                ns[i].push(t0.elapsed().as_secs_f64() * 1e9 / (reps as f64 * dynamic as f64));
            }
        }
        let [interp, compiled] = ns.map(|mut r| {
            r.sort_by(f64::total_cmp);
            r[ROUNDS / 2]
        });
        println!(
            "{:16} dyn {:>9}  interp {:7.2} ns/i  compiled {:7.2} ns/i  ratio {:5.2}x",
            bench.name,
            dynamic,
            interp,
            compiled,
            interp / compiled
        );
    }
}
