//! The optimizer's bit-identity gate (CI must-not-skip).
//!
//! Every benchmark module, optimized at O1 and O2, must produce the
//! exact same observables as the unoptimized module — output stream,
//! return value, and status, bit for bit — on both execution engines,
//! at the reference input and at a deterministic spread of other
//! in-range inputs. This is the acceptance criterion of the rewrite
//! engine: the fault *space* may change across opt levels, golden-run
//! behaviour may not.
//!
//! Two more gates ride along. Programs whose value facts need more
//! iterations than the solvers' caps must still agree across levels,
//! and every benchmark's optimized module must hash to its frozen
//! value, so a change meant only to make the optimizer faster shows
//! that it emits the same modules.

use peppa_analysis::rewrite::{optimize, OptLevel};
use peppa_apps::{all_benchmarks, Benchmark};
use peppa_ir::Module;
use peppa_vm::{CompiledModule, Engine, ExecLimits, RunOutput};

fn limits() -> ExecLimits {
    ExecLimits {
        max_dynamic: 50_000_000,
        ..ExecLimits::default()
    }
}

/// Runs on both engines and asserts they agree with each other (the
/// pre-existing engine differential), returning the interp result.
fn run_both(m: &Module, inputs: &[f64], what: &str) -> RunOutput {
    let interp = Engine::interp(m, limits()).run_numeric(inputs, None);
    let lowered = CompiledModule::lower(m);
    let compiled = Engine::new(m, limits(), Some(&lowered)).run_numeric(inputs, None);
    assert_eq!(
        interp.status, compiled.status,
        "{what}: engine status split"
    );
    assert_eq!(
        interp.output, compiled.output,
        "{what}: engine output split"
    );
    assert_eq!(interp.ret, compiled.ret, "{what}: engine ret split");
    interp
}

/// A deterministic spread of in-range inputs around the reference.
fn probe_inputs(b: &Benchmark) -> Vec<Vec<f64>> {
    let mut probes = vec![b.reference_input.clone()];
    // Each arg pinned to its range corners and small-window corners.
    for scale in [0.0f64, 1.0] {
        let v: Vec<f64> = b
            .args
            .iter()
            .map(|a| a.clamp(a.lo + scale * (a.hi - a.lo)))
            .collect();
        probes.push(v);
    }
    let small: Vec<f64> = b.args.iter().map(|a| a.clamp(a.small.0)).collect();
    probes.push(small);
    // A mid-range point, nudged per-arg so args differ.
    let mid: Vec<f64> = b
        .args
        .iter()
        .enumerate()
        .map(|(i, a)| a.clamp(a.lo + (a.hi - a.lo) * (0.3 + 0.1 * (i % 5) as f64)))
        .collect();
    probes.push(mid);
    probes
}

#[test]
fn benchmarks_bit_identical_across_opt_levels_and_engines() {
    for b in all_benchmarks() {
        for level in [OptLevel::O1, OptLevel::O2] {
            // optimize() verifies the output module and panics on any
            // broken invariant.
            let opt = optimize(&b.module, level);
            assert!(
                opt.module.num_instrs <= b.module.num_instrs,
                "{}@{level}: optimizer grew the module",
                b.name
            );
            assert_eq!(
                opt.provenance.len(),
                opt.module.num_instrs,
                "{}@{level}: provenance arity",
                b.name
            );
            for (i, inputs) in probe_inputs(&b).iter().enumerate() {
                let what = format!("{} probe {i} at {level}", b.name);
                let base = run_both(&b.module, inputs, &format!("{what} (O0)"));
                let tuned = run_both(&opt.module, inputs, &what);
                assert_eq!(base.status, tuned.status, "{what}: status changed");
                assert_eq!(base.output, tuned.output, "{what}: output changed");
                assert_eq!(base.ret, tuned.ret, "{what}: ret changed");
                // LICM may execute a handful of hoisted instructions
                // for loops that run zero iterations; allow that slack
                // but catch any real regression.
                assert!(
                    tuned.profile.dynamic <= base.profile.dynamic + 64,
                    "{what}: dynamic instrs grew ({} -> {})",
                    base.profile.dynamic,
                    tuned.profile.dynamic
                );
            }
        }
    }
}

/// Programs whose value facts need more solver iterations than a cap
/// allows, with inputs that reach the facts a cut-off solve gets wrong.
/// Both solvers start optimistic, so a capped solve must fall back to ⊤
/// instead of returning its non-fixpoint.
const CAPPED_SOLVES: [(&str, &str, f64); 2] = [
    (
        // Four shift registers, each fed by the previous one's top bit:
        // KnownBits loses one bit per pass and per register, more than
        // the intraprocedural pass cap.
        "chained-shift-registers",
        "fn main(n: int) { let x = 0; let y = 0; let z = 0; let w = 0; \
         for (i = 0; i < n; i = i + 1) { w = (w << 1) | ((z >> 63) & 1); \
         z = (z << 1) | ((y >> 63) & 1); y = (y << 1) | ((x >> 63) & 1); \
         x = (x << 1) | 1; } output (w >> 63) & 1; }",
        300.0,
    ),
    (
        // The same descent through recursive parameters: more top-down
        // rounds than the interprocedural cap.
        "recursive-shift-registers",
        "fn f(x: int, y: int, n: int) -> int { if (n <= 0) { return (y >> 63) & 1; } \
         return f((x << 1) | 1, (y << 1) | ((x >> 1) & 1), n - 1); } \
         fn main(n: int) { output f(0, 0, n); }",
        70.0,
    ),
];

#[test]
fn capped_solves_agree_across_opt_levels_and_engines() {
    for (name, src, input) in CAPPED_SOLVES {
        let module = peppa_lang::compile(src, name).unwrap();
        let base = run_both(&module, &[input], &format!("{name} at O0"));
        assert_eq!(base.output, vec![1], "{name}: reference output");
        for level in [OptLevel::O1, OptLevel::O2] {
            let what = format!("{name} at {level}");
            let tuned = run_both(&optimize(&module, level).module, &[input], &what);
            assert_eq!(base.status, tuned.status, "{what}: status changed");
            assert_eq!(base.output, tuned.output, "{what}: output changed");
            assert_eq!(base.ret, tuned.ret, "{what}: ret changed");
        }
    }
}

/// FNV-1a (64-bit) of a printed module.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The printed PIR of every benchmark after `optimize`, frozen as hashes:
/// a change to the optimizer that should not change what it emits (a
/// faster solver or pass) must leave all 14 untouched. A change that
/// means to alter the output updates the table and says why.
const FROZEN_MODULE_HASHES: [(&str, OptLevel, u64); 14] = [
    ("Pathfinder", OptLevel::O1, 0x6541_d23f_fb8e_3001),
    ("Pathfinder", OptLevel::O2, 0xb9e9_9af4_5633_a72c),
    ("Needle", OptLevel::O1, 0x5f1d_f8b5_dc77_7f98),
    ("Needle", OptLevel::O2, 0x2799_6cbd_19d3_e610),
    ("Particlefilter", OptLevel::O1, 0xdb46_b72d_ee5a_a9ce),
    ("Particlefilter", OptLevel::O2, 0x5aee_1370_1b06_b1e1),
    ("CoMD", OptLevel::O1, 0x0f54_0b00_f0ac_9044),
    ("CoMD", OptLevel::O2, 0x64f5_aa3f_306f_6016),
    ("Hpccg", OptLevel::O1, 0x86e0_8721_d149_ac71),
    ("Hpccg", OptLevel::O2, 0xef7e_a1a5_0a97_d8a2),
    ("Xsbench", OptLevel::O1, 0xd061_6e35_969f_5277),
    ("Xsbench", OptLevel::O2, 0x6155_36d6_4e61_0f1b),
    ("FFT", OptLevel::O1, 0xf9d8_3971_b77c_a846),
    ("FFT", OptLevel::O2, 0xb431_38f9_3a77_51a0),
];

#[test]
fn optimized_benchmarks_match_frozen_module_hashes() {
    let benches = all_benchmarks();
    assert_eq!(FROZEN_MODULE_HASHES.len(), 2 * benches.len());
    let mut stale = Vec::new();
    for (name, level, frozen) in FROZEN_MODULE_HASHES {
        let b = benches
            .iter()
            .find(|b| b.name == name)
            .unwrap_or_else(|| panic!("no benchmark named {name}"));
        let got = fnv1a(&optimize(&b.module, level).module.to_string());
        if got != frozen {
            stale.push(format!(
                "{name}@{level}: {got:#018x} (frozen {frozen:#018x})"
            ));
        }
    }
    assert!(
        stale.is_empty(),
        "optimized modules changed: {}",
        stale.join("; ")
    );
}

/// Not a gate (optstudy is) — a quick console report of the per-bench
/// dynamic-instruction reduction: `cargo test -p peppa-analysis --test
/// opt_differential report_dynamic_reduction -- --ignored --nocapture`.
#[test]
#[ignore]
fn report_dynamic_reduction() {
    let mut geo = 0.0;
    let mut n = 0;
    for b in all_benchmarks() {
        let opt = optimize(&b.module, OptLevel::O2);
        let base = Engine::interp(&b.module, limits()).run_numeric(&b.reference_input, None);
        let tuned = Engine::interp(&opt.module, limits()).run_numeric(&b.reference_input, None);
        let red = 1.0 - tuned.profile.dynamic as f64 / base.profile.dynamic as f64;
        if std::env::var("PEPPA_OPT_STATS").is_ok() {
            print!("{}", peppa_analysis::rewrite::render_stats(&opt.stats));
        }
        geo += (1.0 - red).ln();
        n += 1;
        println!(
            "{:<16} static {:>5} -> {:>5}  dynamic {:>12} -> {:>12}  ({:.1}% fewer)",
            b.name,
            b.module.num_instrs,
            opt.module.num_instrs,
            base.profile.dynamic,
            tuned.profile.dynamic,
            red * 100.0
        );
    }
    println!(
        "geomean reduction: {:.1}%",
        (1.0 - (geo / n as f64).exp()) * 100.0
    );
}

#[test]
fn optimized_benchmarks_round_trip_through_printer() {
    for b in all_benchmarks() {
        let opt = optimize(&b.module, OptLevel::O2).module;
        let text = opt.to_string();
        let reparsed = peppa_ir::parse_module(&text)
            .unwrap_or_else(|e| panic!("{}@O2 failed to re-parse: {e}", b.name));
        assert_eq!(reparsed, opt, "{}: O2 module round-trip mismatch", b.name);
    }
}
