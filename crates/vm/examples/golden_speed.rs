//! Quick per-engine golden-run throughput probe over the benchmark
//! suite: prints ns/instr and the compiled/interp ratio per benchmark.
//! Used to sanity-check engine performance without a full campaign
//! (`cargo run --release -p peppa-vm --example golden_speed`).

use peppa_vm::{CompiledModule, Engine, ExecLimits, ResumeScratch};
use std::time::Instant;

fn main() {
    let limits = ExecLimits::default();
    for bench in peppa_apps::all_benchmarks() {
        let code = CompiledModule::lower(&bench.module);
        let interp = Engine::new(&bench.module, limits, None);
        let compiled = Engine::new(&bench.module, limits, Some(&code));
        let golden = interp.run_numeric(&bench.reference_input, None);
        let dynamic = golden.profile.dynamic;
        let reps = (30_000_000 / dynamic.max(1)).clamp(3, 200) as u32;
        let mut times = [0f64; 2];
        for (i, eng) in [&interp, &compiled].iter().enumerate() {
            // Campaign-mode timing: trials reuse a per-worker scratch
            // (a no-op on the interpreter, which has no amortized path).
            let mut scratch = ResumeScratch::new();
            let t0 = Instant::now();
            for _ in 0..reps {
                let out = eng.run_numeric_amortized(&mut scratch, &bench.reference_input, None);
                assert_eq!(out.output, golden.output);
            }
            times[i] = t0.elapsed().as_secs_f64() / reps as f64;
        }
        println!(
            "{:16} dyn {:>9}  interp {:7.2} ns/i  compiled {:7.2} ns/i  ratio {:5.2}x",
            bench.name,
            dynamic,
            times[0] * 1e9 / dynamic as f64,
            times[1] * 1e9 / dynamic as f64,
            times[0] / times[1]
        );
    }
}
