//! Soundness of the abstract domains against the concrete interpreter.
//!
//! For every bundled MiniC benchmark, run the VM on random inputs with a
//! hook observing each value definition, and assert the concrete bits are
//! contained in the static known-bits and interval abstractions computed
//! for that instruction's result. Any failure here means a transfer
//! function in `knownbits.rs` or `range.rs` claims more than the VM
//! delivers — exactly the bug class that would silently skew the
//! masking predictor.

use peppa_analysis::{analyze_values, AbsRange, Cfg, KnownBits, ValueFacts};
use peppa_apps::{all_benchmarks, Benchmark};
use peppa_ir::{Instr, Ty};
use peppa_vm::{encode_inputs, CompiledModule, Engine, ExecHook, ExecLimits, Vm};
use proptest::prelude::*;
use proptest::TestRng;
use std::sync::OnceLock;

struct BenchFacts {
    bench: Benchmark,
    kb: Vec<ValueFacts<KnownBits>>,
    rg: Vec<ValueFacts<AbsRange>>,
    /// `by_sid[sid]`: (function index, result value index, result type)
    /// for value-producing instructions.
    by_sid: Vec<Option<(usize, u32, Ty)>>,
}

fn facts() -> &'static Vec<BenchFacts> {
    static FACTS: OnceLock<Vec<BenchFacts>> = OnceLock::new();
    FACTS.get_or_init(|| {
        all_benchmarks()
            .into_iter()
            .map(|bench| {
                let m = &bench.module;
                let mut kb = Vec::new();
                let mut rg = Vec::new();
                let mut by_sid = vec![None; m.num_instrs];
                for (fi, f) in m.functions.iter().enumerate() {
                    let cfg = Cfg::new(f);
                    kb.push(analyze_values::<KnownBits>(f, &cfg));
                    rg.push(analyze_values::<AbsRange>(f, &cfg));
                    for ins in f.instrs() {
                        if let Some(r) = ins.result {
                            by_sid[ins.sid.0 as usize] = Some((fi, r.0, f.ty_of(r)));
                        }
                    }
                }
                BenchFacts {
                    bench,
                    kb,
                    rg,
                    by_sid,
                }
            })
            .collect()
    })
}

struct SoundnessHook<'a> {
    f: &'a BenchFacts,
    checked: u64,
    failures: Vec<String>,
}

impl ExecHook for SoundnessHook<'_> {
    const ENABLED: bool = true;

    fn def_value(&mut self, ins: &Instr, bits: u64) {
        let Some((fi, v, ty)) = self.f.by_sid[ins.sid.0 as usize] else {
            return;
        };
        self.checked += 1;
        if self.failures.len() >= 3 {
            return;
        }
        let kb = &self.f.kb[fi].values[v as usize];
        if !kb.contains(bits) {
            self.failures.push(format!(
                "{}: sid {} ({}): bits {bits:#x} violate known-bits zeros={:#x} ones={:#x}",
                self.f.bench.name,
                ins.sid.0,
                ins.op.mnemonic(),
                kb.zeros,
                kb.ones,
            ));
        }
        let rg = &self.f.rg[fi].values[v as usize];
        if !rg.contains_bits(ty, bits) {
            self.failures.push(format!(
                "{}: sid {} ({}): bits {bits:#x} (ty {ty}) outside range {rg:?}",
                self.f.bench.name,
                ins.sid.0,
                ins.op.mnemonic(),
            ));
        }
    }
}

/// Limits small enough to keep hundreds of runs fast; a `Hang` status
/// just truncates the run — every def executed before the cutoff was
/// still checked.
fn limits() -> ExecLimits {
    ExecLimits {
        max_dynamic: 2_000_000,
        ..ExecLimits::default()
    }
}

/// Runs `bench` on `inputs` with the soundness hook; returns
/// (defs checked, failure messages).
fn check_run(bf: &BenchFacts, inputs: &[f64]) -> (u64, Vec<String>) {
    let bits = encode_inputs(bf.bench.module.entry_func(), inputs);
    let vm = Vm::new(&bf.bench.module, limits());
    let mut hook = SoundnessHook {
        f: bf,
        checked: 0,
        failures: Vec::new(),
    };
    vm.run_with_hook(&bits, None, &mut hook);
    (hook.checked, hook.failures)
}

/// Random input within the benchmark's *small* workload window (§4.2.1's
/// light-workload corner), so each run stays well under the dynamic
/// budget while still exercising every kernel.
fn sample_inputs(bench: &Benchmark, rng: &mut TestRng) -> Vec<f64> {
    bench
        .args
        .iter()
        .map(|a| {
            let (lo, hi) = a.small;
            a.clamp(lo + rng.unit_f64() * (hi - lo))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn concrete_defs_are_contained_in_abstractions(seed in any::<u64>()) {
        let mut rng = TestRng::new(&format!("soundness-{seed}"));
        for bf in facts() {
            let inputs = sample_inputs(&bf.bench, &mut rng);
            let (checked, failures) = check_run(bf, &inputs);
            prop_assert!(checked > 0, "{}: no defs executed", bf.bench.name);
            prop_assert!(
                failures.is_empty(),
                "{}: inputs {:?}: {}",
                bf.bench.name,
                inputs,
                failures.join("; ")
            );
        }
    }
}

/// Records every dynamic last-writer relation: on a load, the store
/// that most recently wrote the loaded word (if any) forms a
/// `store sid → load sid` pair the static memory-dependence graph must
/// cover.
#[derive(Default)]
struct MemPairHook {
    last_writer: std::collections::HashMap<u64, u32>,
    pairs: std::collections::HashSet<(u32, u32)>,
}

impl ExecHook for MemPairHook {
    const ENABLED: bool = true;

    fn mem_store(&mut self, ins: &Instr, addr: u64, _bits: u64) {
        self.last_writer.insert(addr, ins.sid.0);
    }

    fn mem_load(&mut self, ins: &Instr, addr: u64, _bits: u64) {
        if let Some(&store) = self.last_writer.get(&addr) {
            self.pairs.insert((store, ins.sid.0));
        }
    }
}

fn memdep_graphs() -> &'static Vec<peppa_analysis::MemDepGraph> {
    static GRAPHS: OnceLock<Vec<peppa_analysis::MemDepGraph>> = OnceLock::new();
    GRAPHS.get_or_init(|| {
        all_benchmarks()
            .iter()
            .map(|b| peppa_analysis::MemDepGraph::new(&b.module))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every store→load pair the VM actually executes must be an edge of
    /// the static [`MemDepGraph`] — the may-alias over-approximation the
    /// fault-propagation analysis and the memory lints rely on.
    #[test]
    fn dynamic_store_load_pairs_are_covered(seed in any::<u64>()) {
        let mut rng = TestRng::new(&format!("memdep-{seed}"));
        for (bf, g) in facts().iter().zip(memdep_graphs()) {
            let inputs = sample_inputs(&bf.bench, &mut rng);
            let bits = encode_inputs(bf.bench.module.entry_func(), &inputs);
            let vm = Vm::new(&bf.bench.module, limits());
            let mut hook = MemPairHook::default();
            vm.run_with_hook(&bits, None, &mut hook);
            prop_assert!(
                !hook.pairs.is_empty(),
                "{}: no store→load pairs observed",
                bf.bench.name
            );
            for &(s, l) in &hook.pairs {
                prop_assert!(
                    g.covers(peppa_ir::InstrId(s), peppa_ir::InstrId(l)),
                    "{}: dynamic store sid {s} → load sid {l} missing from MemDepGraph",
                    bf.bench.name
                );
            }
        }
    }
}

#[test]
fn reference_inputs_are_sound() {
    for bf in facts() {
        let inputs = bf.bench.reference_input.clone();
        let (checked, failures) = check_run(bf, &inputs);
        assert!(checked > 0, "{}: no defs executed", bf.bench.name);
        assert!(
            failures.is_empty(),
            "{}: reference input: {}",
            bf.bench.name,
            failures.join("; ")
        );
    }
}

// ---------------------------------------------------------------------------
// Randomized multi-function module soundness
//
// The bundled benchmarks exercise a fixed set of interprocedural shapes.
// This section *generates* MiniC modules — bounded loops, masked global-
// array indices, a call DAG with recursion, const-arg call sites, int and
// float chains — and checks, per module:
//
//  (a) every concrete def on the golden run is contained in the
//      *interprocedural* known-bits and interval abstractions
//      ([`analyze_module_interproc`]), on the interpreter, and the
//      compiled engine's run agrees with it bit for bit;
//  (b) injecting faults into cells the union table (per-bit reachability
//      ∪ input-specific deviation) claims masked leaves the run Benign —
//      status Ok and bit-identical outputs, the same classification the
//      campaign layer uses — on both engines.
//
// `PEPPA_SOUNDNESS_MODULES` scales the module count (CI sets 200+); the
// default keeps the local run fast. Generation is a pure function of the
// module index, so any failure names a reproducible seed.
// ---------------------------------------------------------------------------

use peppa_analysis::deviation::combined_skip_cells;
use peppa_analysis::OptLevel;
use peppa_analysis::{analyze_module_interproc, CallGraph, FaultReach, InterprocFacts};
use peppa_ir::Module;
use peppa_vm::Injection;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Gen {
    s: u64,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            s: seed.wrapping_mul(0x9E37_79B9).wrapping_add(1),
        }
    }
    fn below(&mut self, n: u64) -> u64 {
        splitmix(&mut self.s) % n
    }

    /// Random int expression over `vars`, trap-free by construction:
    /// `%` only by positive literals, shifts only by small literals,
    /// no division (SDiv's `MIN / -1` corner stays out of reach).
    fn int_expr(&mut self, depth: u32, vars: &[&str]) -> String {
        if depth == 0 || self.below(4) == 0 {
            return if self.below(2) == 0 {
                vars[self.below(vars.len() as u64) as usize].to_string()
            } else {
                format!("{}", self.below(1000))
            };
        }
        let a = self.int_expr(depth - 1, vars);
        let b = self.int_expr(depth - 1, vars);
        match self.below(9) {
            0 => format!("({a} + {b})"),
            1 => format!("({a} - {b})"),
            2 => format!("({a} * {b})"),
            3 => format!("({a} & {b})"),
            4 => format!("({a} | {b})"),
            5 => format!("({a} ^ {b})"),
            6 => format!("({a} % {})", [17u64, 97, 257, 4099][self.below(4) as usize]),
            7 => format!("({a} >> {})", 1 + self.below(7)),
            _ => format!("min({a}, {b})"),
        }
    }

    /// Random float expression; division only by nonzero literals.
    fn float_expr(&mut self, depth: u32, vars: &[&str]) -> String {
        if depth == 0 || self.below(4) == 0 {
            return if self.below(2) == 0 {
                vars[self.below(vars.len() as u64) as usize].to_string()
            } else {
                format!("{:.3}", self.below(4000) as f64 * 0.001)
            };
        }
        let a = self.float_expr(depth - 1, vars);
        let b = self.float_expr(depth - 1, vars);
        match self.below(6) {
            0 => format!("({a} + {b})"),
            1 => format!("({a} - {b})"),
            2 => format!("({a} * {b})"),
            3 => format!("({a} / {})", ["2.0", "4.0", "1.5"][self.below(3) as usize]),
            4 => format!("fmax({a}, {b})"),
            _ => format!("fmin({a}, {b})"),
        }
    }
}

/// Generates one random multi-function MiniC module and the input it
/// will be run on. Deterministic in `seed`.
fn gen_module_source(seed: u64) -> (String, Vec<f64>) {
    let mut g = Gen::new(seed);
    let l1 = 3 + g.below(8);
    let l2 = 2 + g.below(6);
    let rec_depth = 2 + g.below(5);
    let c1 = g.below(64);
    let c2 = g.below(64);
    // Half the modules call `mix` with a literal second argument inside
    // the hot loop, as `mix(c1, c2)` below always does.
    let loop_arg = if g.below(2) == 0 {
        format!("{}", g.below(64))
    } else {
        "b".to_string()
    };
    let mix_t = g.int_expr(2, &["a", "b"]);
    let mix_early = g.int_expr(1, &["a", "b", "t"]);
    let mix_ret = g.int_expr(2, &["a", "b", "t"]);
    let rec_step = g.int_expr(1, &["acc", "k"]);
    let blend = g.float_expr(2, &["u", "v"]);
    let flit = format!("{:.3}", g.below(2000) as f64 * 0.001);
    let flit2 = format!("{:.3}", 1.0 + g.below(1000) as f64 * 0.001);
    let src = format!(
        "global int gi[16];\n\
         global float gf[16];\n\
         \n\
         fn mix(a: int, b: int) -> int {{\n\
             let t = {mix_t};\n\
             if (t < 0) {{ return {mix_early}; }}\n\
             return {mix_ret};\n\
         }}\n\
         \n\
         fn rec(k: int, acc: int) -> int {{\n\
             if (k <= 0) {{ return acc; }}\n\
             return rec(k - 1, {rec_step});\n\
         }}\n\
         \n\
         fn blend(u: float, v: float) -> float {{\n\
             return {blend};\n\
         }}\n\
         \n\
         fn main(a: int, b: int, x: float) {{\n\
             let s = a * 2654435761 + b;\n\
             for (i = 0; i < {l1}; i = i + 1) {{\n\
                 s = mix(s, {loop_arg});\n\
                 gi[i & 15] = s;\n\
                 gf[i & 15] = blend(x, i2f(i & 7)) + {flit};\n\
             }}\n\
             let t = 0;\n\
             let acc = 0.0;\n\
             for (i = 0; i < {l2}; i = i + 1) {{\n\
                 t = t + (gi[(i * 3) & 15] % 509);\n\
                 acc = acc + gf[i & 15] * {flit2};\n\
             }}\n\
             output t;\n\
             output acc;\n\
             output rec({rec_depth}, s & 255);\n\
             output mix({c1}, {c2});\n\
         }}\n"
    );
    let inputs = vec![
        g.below(40) as f64,
        g.below(50) as f64,
        0.25 + g.below(8) as f64 * 0.5,
    ];
    (src, inputs)
}

/// Per-def containment check against the *interprocedural* facts.
struct InterprocHook<'a> {
    kb: &'a InterprocFacts<KnownBits>,
    rg: &'a InterprocFacts<AbsRange>,
    by_sid: &'a [Option<(usize, u32, Ty)>],
    checked: u64,
    failures: Vec<String>,
}

impl ExecHook for InterprocHook<'_> {
    const ENABLED: bool = true;

    fn def_value(&mut self, ins: &Instr, bits: u64) {
        let Some((fi, v, ty)) = self.by_sid[ins.sid.0 as usize] else {
            return;
        };
        self.checked += 1;
        if self.failures.len() >= 3 {
            return;
        }
        let kb = &self.kb.facts.per_func[fi].values[v as usize];
        if !kb.contains(bits) {
            self.failures.push(format!(
                "sid {} ({}): bits {bits:#x} violate interproc known-bits zeros={:#x} ones={:#x}",
                ins.sid.0,
                ins.op.mnemonic(),
                kb.zeros,
                kb.ones,
            ));
        }
        let rg = &self.rg.facts.per_func[fi].values[v as usize];
        if !rg.contains_bits(ty, bits) {
            self.failures.push(format!(
                "sid {} ({}): bits {bits:#x} (ty {ty}) outside interproc range {rg:?}",
                ins.sid.0,
                ins.op.mnemonic(),
            ));
        }
    }
}

fn by_sid_map(module: &Module) -> Vec<Option<(usize, u32, Ty)>> {
    let mut by_sid = vec![None; module.num_instrs];
    for (fi, f) in module.functions.iter().enumerate() {
        for ins in f.instrs() {
            if let Some(r) = ins.result {
                by_sid[ins.sid.0 as usize] = Some((fi, r.0, f.ty_of(r)));
            }
        }
    }
    by_sid
}

fn generated_module_count() -> u64 {
    std::env::var("PEPPA_SOUNDNESS_MODULES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(24)
}

/// Checks one generated module on both engines; panics with the seed and
/// source on any violation.
fn check_generated(seed: u64) {
    let (src, inputs) = gen_module_source(seed);
    let module = peppa_lang::compile(&src, "generated")
        .unwrap_or_else(|e| panic!("seed {seed}: compile failed: {e:?}\n{src}"));
    let code = CompiledModule::lower(&module);
    let cg = CallGraph::new(&module);
    let kb = analyze_module_interproc::<KnownBits>(&module, &cg);
    let rg = analyze_module_interproc::<AbsRange>(&module, &cg);
    let by_sid = by_sid_map(&module);

    // (a) interprocedural abstraction containment on the interpreter;
    // the compiled engine, which runs no hook, must match its run.
    let bits = encode_inputs(module.entry_func(), &inputs);
    let mut hook = InterprocHook {
        kb: &kb,
        rg: &rg,
        by_sid: &by_sid,
        checked: 0,
        failures: Vec::new(),
    };
    let hooked = Vm::new(&module, limits()).run_with_hook(&bits, None, &mut hook);
    assert!(
        hook.failures.is_empty(),
        "seed {seed}: {}\n{src}",
        hook.failures.join("; ")
    );
    assert!(hook.checked > 0, "seed {seed}: no defs executed\n{src}");
    let compiled = Engine::new(&module, limits(), Some(&code)).run(&bits, None);
    assert_eq!(compiled.status, hooked.status, "seed {seed}\n{src}");
    assert_eq!(compiled.output, hooked.output, "seed {seed}\n{src}");
    assert_eq!(compiled.ret, hooked.ret, "seed {seed}\n{src}");
    assert_eq!(compiled.profile, hooked.profile, "seed {seed}\n{src}");

    // (b) the union masked-cell table is benign under actual injection.
    let fr = FaultReach::analyze(&module);
    let cells = combined_skip_cells(&module, &fr, &inputs, limits(), 0);
    let interp = Engine::interp(&module, limits());
    let golden = interp.run_numeric(&inputs, None);
    assert!(
        golden.status.is_ok(),
        "seed {seed}: golden run failed\n{src}"
    );

    let mut pool: Vec<(u32, u32)> = Vec::new();
    for (sid, &mask) in cells.iter().enumerate() {
        if golden.profile.exec_counts[sid] == 0 {
            continue;
        }
        for bit in 0..64 {
            if mask >> bit & 1 != 0 {
                pool.push((sid as u32, bit));
            }
        }
    }
    let mut g = Gen::new(seed ^ 0xce11);
    let n = pool.len().min(6);
    let compiled_eng = Engine::new(&module, limits(), Some(&code));
    for k in 0..n {
        let (sid, bit) = pool[k * pool.len() / n];
        let instance = g.below(golden.profile.exec_counts[sid as usize]);
        let inj = Injection {
            target: peppa_vm::InjectionTarget::StaticInstance {
                sid: peppa_ir::InstrId(sid),
                instance,
            },
            bit,
            burst: 0,
        };
        for eng in [&interp, &compiled_eng] {
            let faulty = eng.run_numeric(&inputs, Some(inj));
            let benign =
                faulty.status.is_ok() && faulty.output == golden.output && faulty.ret == golden.ret;
            assert!(
                benign,
                "seed {seed} ({}): masked cell sid {sid} bit {bit} instance {instance} \
                 was not benign (status {:?})\n{src}",
                eng.kind().as_str(),
                faulty.status,
            );
        }
    }
}

#[test]
fn generated_modules_are_sound_interproc_and_under_injection() {
    for i in 0..generated_module_count() {
        check_generated(0x5eed_0000 + i);
    }
}

/// 4-way differential for the rewrite engine on one generated module:
/// {O0, O2} × {interp, compiled} must agree on status, output stream and
/// return value, bit for bit. The engine pair catches lowering bugs, the
/// opt-level pair catches unsound rewrites, and the cross terms catch
/// rewrites that only break one backend's lowering.
fn check_generated_across_opt_levels(seed: u64) {
    let (src, inputs) = gen_module_source(seed);
    let module = peppa_lang::compile(&src, "generated-opt")
        .unwrap_or_else(|e| panic!("seed {seed}: compile failed: {e:?}\n{src}"));
    let opt = peppa_analysis::optimize(&module, peppa_analysis::OptLevel::O2).module;
    let mut runs = Vec::new();
    for (label, m) in [("O0", &module), ("O2", &opt)] {
        let code = CompiledModule::lower(m);
        for (kind, eng) in [
            ("interp", Engine::interp(m, limits())),
            ("compiled", Engine::new(m, limits(), Some(&code))),
        ] {
            runs.push((label, kind, eng.run_numeric(&inputs, None)));
        }
    }
    let (l0, k0, base) = &runs[0];
    for (l, k, r) in &runs[1..] {
        assert_eq!(
            base.status, r.status,
            "seed {seed}: status split {l0}/{k0} vs {l}/{k}\n{src}"
        );
        assert_eq!(
            base.output, r.output,
            "seed {seed}: output split {l0}/{k0} vs {l}/{k}\n{src}"
        );
        assert_eq!(
            base.ret, r.ret,
            "seed {seed}: ret split {l0}/{k0} vs {l}/{k}\n{src}"
        );
    }
}

#[test]
fn generated_modules_agree_across_opt_levels_and_engines() {
    for i in 0..generated_module_count() {
        check_generated_across_opt_levels(0x0c0d_e000 + i);
    }
}

// ---------------------------------------------------------------------------
// The interprocedural schedule against its confirm-until-stable reference.
//
// `analyze_module_interproc` solves a non-recursive function once in
// phase 1, runs one top-down round when no SCC is recursive, and reuses
// a function's last solve when its seed has not changed. The reference
// below is the schedule it replaced: every phase re-runs until a whole
// sweep confirms nothing changed, and phase 3 solves every function
// again. It keeps the same ⊤ fallback when the round cap trips, so the
// two differ only in how often they solve, and must return the same
// facts. The generated modules recurse (`rec`); the benchmarks do not.
// ---------------------------------------------------------------------------

use peppa_analysis::dataflow::{analyze_values_ctx, AbstractDomain, ModuleValueFacts};
use peppa_ir::{Function, Op, Term};

/// Join of the facts at every `ret <operand>` in `f`.
fn reference_ret_join<D: AbstractDomain>(f: &Function, vf: &ValueFacts<D>) -> Option<D> {
    let mut out: Option<D> = None;
    for b in &f.blocks {
        if let Term::Ret { value: Some(o) } = &b.term {
            let fact = vf.of_operand(o);
            out = Some(match out {
                Some(cur) => cur.join(&fact),
                None => fact,
            });
        }
    }
    out
}

/// The confirm-until-stable schedule.
fn reference_interproc<D: AbstractDomain>(module: &Module, cg: &CallGraph) -> InterprocFacts<D> {
    let n = module.functions.len();
    let cfgs: Vec<Cfg> = module.functions.iter().map(Cfg::new).collect();
    let tops = |f: &Function| -> Vec<D> { f.params.iter().map(|&t| D::top(t)).collect() };

    let mut ret: Vec<Option<D>> = vec![None; n];
    for comp in &cg.sccs {
        for _ in 0..=comp.len() {
            let mut changed = false;
            for &fid in comp {
                let fi = fid.0 as usize;
                let f = &module.functions[fi];
                let vf = analyze_values_ctx(f, &cfgs[fi], &tops(f), &|g, ty| {
                    ret[g.0 as usize].clone().unwrap_or_else(|| D::top(ty))
                });
                let rf = reference_ret_join(f, &vf);
                let next = match (&ret[fi], rf) {
                    (Some(cur), Some(new)) => Some(cur.join(&new)),
                    (None, new) => new,
                    (cur, None) => cur.clone(),
                };
                if next != ret[fi] {
                    ret[fi] = next;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    let mut params: Vec<Option<Vec<D>>> = vec![None; n];
    params[module.entry.0 as usize] = Some(tops(module.entry_func()));
    let mut stable = false;
    for round in 0..64 {
        let mut changed = false;
        for comp in cg.sccs.iter().rev() {
            for &fid in comp {
                let fi = fid.0 as usize;
                let Some(seed) = params[fi].clone() else {
                    continue;
                };
                let f = &module.functions[fi];
                let vf = analyze_values_ctx(f, &cfgs[fi], &seed, &|g, ty| {
                    ret[g.0 as usize].clone().unwrap_or_else(|| D::top(ty))
                });
                for ins in f.instrs() {
                    if let Op::Call { func, args } = &ins.op {
                        let gi = func.0 as usize;
                        let incoming: Vec<D> = args.iter().map(|a| vf.of_operand(a)).collect();
                        match &mut params[gi] {
                            None => {
                                params[gi] = Some(incoming);
                                changed = true;
                            }
                            Some(cur) => {
                                for (c, inc) in cur.iter_mut().zip(&incoming) {
                                    let joined = c.join(inc);
                                    let next = if round >= 3 { c.widen(&joined) } else { joined };
                                    if next != *c {
                                        *c = next;
                                        changed = true;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        if !changed {
            stable = true;
            break;
        }
    }

    let final_params: Vec<Vec<D>> = module
        .functions
        .iter()
        .enumerate()
        .map(|(fi, f)| match &params[fi] {
            Some(seed) if stable => seed.clone(),
            _ => tops(f),
        })
        .collect();
    let per_func: Vec<ValueFacts<D>> = module
        .functions
        .iter()
        .enumerate()
        .map(|(fi, f)| {
            analyze_values_ctx(f, &cfgs[fi], &final_params[fi], &|g, ty| {
                ret[g.0 as usize].clone().unwrap_or_else(|| D::top(ty))
            })
        })
        .collect();
    let final_ret = module
        .functions
        .iter()
        .enumerate()
        .map(|(fi, f)| reference_ret_join(f, &per_func[fi]).or_else(|| ret[fi].clone()))
        .collect();
    InterprocFacts {
        facts: ModuleValueFacts { per_func },
        ret: final_ret,
        params: final_params,
    }
}

fn assert_schedule_matches_reference<D: AbstractDomain + std::fmt::Debug>(
    module: &Module,
    what: &str,
) {
    let cg = CallGraph::new(module);
    let got = analyze_module_interproc::<D>(module, &cg);
    let want = reference_interproc::<D>(module, &cg);
    let values = |ip: &InterprocFacts<D>| -> Vec<Vec<D>> {
        ip.facts
            .per_func
            .iter()
            .map(|vf| vf.values.clone())
            .collect()
    };
    assert_eq!(values(&got), values(&want), "{what}: per-value facts");
    assert_eq!(got.ret, want.ret, "{what}: return facts");
    assert_eq!(got.params, want.params, "{what}: parameter seeds");
}

#[test]
fn interproc_schedule_matches_reference_on_benchmarks() {
    for b in all_benchmarks() {
        for level in [OptLevel::O0, OptLevel::O2] {
            let m = peppa_analysis::optimize(&b.module, level).module;
            let what = format!("{}@{level}", b.name);
            assert_schedule_matches_reference::<KnownBits>(&m, &what);
            assert_schedule_matches_reference::<AbsRange>(&m, &what);
        }
    }
}

#[test]
fn interproc_schedule_matches_reference_on_generated_modules() {
    for i in 0..generated_module_count() {
        let seed = 0x5eed_0000 + i;
        let (src, _) = gen_module_source(seed);
        let m = peppa_lang::compile(&src, "generated").unwrap();
        assert!(
            CallGraph::new(&m).is_recursive(m.func_by_name("rec").unwrap()),
            "seed {seed}: the generator's `rec` must recurse"
        );
        let what = format!("seed {seed}");
        assert_schedule_matches_reference::<KnownBits>(&m, &what);
        assert_schedule_matches_reference::<AbsRange>(&m, &what);
    }
}
