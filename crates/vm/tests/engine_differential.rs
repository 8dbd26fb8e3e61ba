//! Engine differential harness: the compiled threaded-bytecode
//! backend must be observably bit-identical to the interpreter on all
//! seven benchmarks — golden runs, injected runs, snapshot capture
//! (snapshots and future read sets at -O0 and -O2, and at every
//! value-dynamic boundary of dense windows), and snapshot-resumed runs
//! with and without convergence checkpoints (K = 0 and K = 8
//! campaigns).
//!
//! The interpreter is the semantic reference; any mismatch is a
//! compiled-engine bug by definition (IRFuzzer's lesson: backend
//! lowering is where silent divergence hides).

use peppa_analysis::{optimize, OptLevel};
use peppa_ir::{Instr, InstrId, ModuleBuilder, Op, Operand, Ty};
use peppa_vm::{
    encode_inputs, CompiledModule, CompiledVm, ExecHook, ExecLimits, Injection, InjectionTarget,
    RunOutput, RunStatus, TrialResume, Vm, VmSnapshot,
};

fn assert_runs_eq(name: &str, what: &str, a: &RunOutput, b: &RunOutput) {
    assert_eq!(a.status, b.status, "{name}/{what}: status diverged");
    assert_eq!(a.output, b.output, "{name}/{what}: output diverged");
    assert_eq!(a.ret, b.ret, "{name}/{what}: return value diverged");
    assert_eq!(
        a.fault_activated, b.fault_activated,
        "{name}/{what}: fault activation diverged"
    );
    assert_eq!(
        a.profile.dynamic, b.profile.dynamic,
        "{name}/{what}: dynamic count diverged"
    );
    assert_eq!(
        a.profile.value_dynamic, b.profile.value_dynamic,
        "{name}/{what}: value-dynamic count diverged"
    );
    assert_eq!(
        a.profile.exec_counts, b.profile.exec_counts,
        "{name}/{what}: per-sid exec counts diverged"
    );
}

/// `k` injection sites spread across the golden fault-site population,
/// plus both ends.
fn sites(value_dynamic: u64, k: u64) -> Vec<u64> {
    let mut s: Vec<u64> = (0..k).map(|j| j * value_dynamic / k).collect();
    s.push(value_dynamic - 1);
    s.dedup();
    s
}

/// Stratified fork points, the same shape the campaign planner uses.
fn fork_points(value_dynamic: u64, k: u64) -> Vec<u64> {
    let mut p: Vec<u64> = (1..=k).map(|j| j * value_dynamic / (k + 1)).collect();
    p.dedup();
    p.retain(|&x| x > 0);
    p
}

#[test]
fn golden_runs_bit_identical() {
    for bench in peppa_apps::all_benchmarks() {
        let m = &bench.module;
        let bits = encode_inputs(m.entry_func(), &bench.reference_input);
        let limits = ExecLimits::default();
        let code = CompiledModule::lower(m);
        let golden_i = Vm::new(m, limits).run(&bits, None);
        let golden_c = CompiledVm::new(m, &code, limits).run(&bits, None);
        assert_eq!(
            golden_i.status,
            RunStatus::Ok,
            "{}: golden must pass",
            bench.name
        );
        assert_runs_eq(bench.name, "golden", &golden_i, &golden_c);
    }
}

#[test]
fn injected_runs_bit_identical() {
    for bench in peppa_apps::all_benchmarks() {
        let m = &bench.module;
        let bits = encode_inputs(m.entry_func(), &bench.reference_input);
        let limits = ExecLimits::default();
        let code = CompiledModule::lower(m);
        let vm = Vm::new(m, limits);
        let cvm = CompiledVm::new(m, &code, limits);
        let golden = vm.run(&bits, None);
        let vd = golden.profile.value_dynamic;

        for (i, site) in sites(vd, 5).into_iter().enumerate() {
            let inj = Injection {
                target: InjectionTarget::DynamicIndex(site),
                bit: (i as u32 * 13) % 64,
                burst: (i % 2) as u8,
            };
            let fi = vm.run(&bits, Some(inj));
            let fc = cvm.run(&bits, Some(inj));
            assert!(
                fi.fault_activated,
                "{}: site {site} unreachable",
                bench.name
            );
            assert_runs_eq(bench.name, &format!("inj@{site}"), &fi, &fc);
        }

        // Static-instance targeting exercises the per-def sid check.
        let (sid, &count) = golden
            .profile
            .exec_counts
            .iter()
            .enumerate()
            .max_by_key(|(_, &c)| c)
            .expect("non-empty profile");
        let inj = Injection {
            target: InjectionTarget::StaticInstance {
                sid: InstrId(sid as u32),
                instance: count / 2,
            },
            bit: 17,
            burst: 0,
        };
        let fi = vm.run(&bits, Some(inj));
        let fc = cvm.run(&bits, Some(inj));
        assert_runs_eq(bench.name, "static-inj", &fi, &fc);
    }
}

#[test]
fn snapshot_resume_bit_identical() {
    for bench in peppa_apps::all_benchmarks() {
        let m = &bench.module;
        let bits = encode_inputs(m.entry_func(), &bench.reference_input);
        let limits = ExecLimits::default();
        let code = CompiledModule::lower(m);
        let vm = Vm::new(m, limits);
        let cvm = CompiledVm::new(m, &code, limits);
        let golden = vm.run(&bits, None);
        let vd = golden.profile.value_dynamic;

        // Snapshots are engine-independent: captured once on the
        // interpreter, resumed on both engines.
        let points = fork_points(vd, 8);
        let (_, snaps) = vm.run_with_snapshots(&bits, &points);
        assert!(!snaps.is_empty(), "{}: no snapshots captured", bench.name);

        for (i, site) in sites(vd, 4).into_iter().enumerate() {
            let inj = Injection {
                target: InjectionTarget::DynamicIndex(site),
                bit: (7 + i as u32 * 11) % 64,
                burst: 0,
            };
            // K = 0: full runs.
            let full_i = vm.run(&bits, Some(inj));
            let full_c = cvm.run(&bits, Some(inj));
            assert_runs_eq(bench.name, &format!("full@{site}"), &full_i, &full_c);

            // K = 8: resume from the last fork
            // point at or before the site.
            let fork = snaps
                .iter()
                .rev()
                .find(|s: &&VmSnapshot| s.value_dynamic() <= site);
            if let Some(snap) = fork {
                let res_i = vm.resume_from(snap, Some(inj));
                let res_c = cvm.resume_from(snap, Some(inj));
                assert_runs_eq(bench.name, &format!("resume@{site}"), &res_i, &res_c);
                assert_runs_eq(
                    bench.name,
                    &format!("resume-vs-full@{site}"),
                    &full_i,
                    &res_c,
                );
            }
        }
    }
}

/// Snapshot capture runs on the compiled engine and must freeze exactly
/// what the interpreter freezes at every fork point — frames,
/// registers, memory and its high-water mark, output, counters and
/// per-sid `exec_counts` — and derive the same future read sets.
#[test]
fn compiled_capture_matches_interpreter() {
    for bench in peppa_apps::all_benchmarks() {
        for level in [OptLevel::O0, OptLevel::O2] {
            let m = &optimize(&bench.module, level).module;
            let name = format!("{}@{level:?}", bench.name);
            let bits = encode_inputs(m.entry_func(), &bench.reference_input);
            let limits = ExecLimits::default();
            let code = CompiledModule::lower(m);
            let vm = Vm::new(m, limits);
            let cvm = CompiledVm::new(m, &code, limits);
            let vd = vm.run(&bits, None).profile.value_dynamic;
            for k in [1, 16, 64] {
                let points = fork_points(vd, k);
                let (out_i, snaps_i, sets_i) = vm.run_with_snapshots_read_sets(&bits, &points);
                let (out_c, snaps_c, sets_c) = cvm.run_with_snapshots_read_sets(&bits, &points);
                let what = format!("capture K={k}");
                assert_runs_eq(&name, &what, &out_i, &out_c);
                assert_eq!(snaps_i.len(), points.len(), "{name}: {what}");
                assert_snapshots_eq(&name, &what, &snaps_i, &snaps_c);
                assert!(sets_i == sets_c, "{name}: {what}: read sets diverged");
                let (out_c, snaps_c) = cvm.run_with_snapshots(&bits, &points);
                assert_runs_eq(&name, &what, &out_i, &out_c);
                assert_snapshots_eq(&name, &what, &snaps_i, &snaps_c);
            }
        }
    }
}

/// Consecutive value-dynamic boundaries per dense capture window.
const WINDOW: u64 = 256;

/// Capture at *every* value-dynamic boundary of three windows of
/// `WINDOW` consecutive boundaries, at the start, middle and end of the
/// run: the compiled engine must freeze exactly what the interpreter
/// freezes at each. A boundary after every def splits each fused pair
/// or triple a window reaches after its first half, so the capture run
/// stops at the head and resumes at the stub, on the real lowering of
/// the seven benchmarks at -O0 and -O2 (`snapshot_proptest` does this
/// at every boundary of random programs). Each argument takes the
/// largest value of its small-workload window: every run then holds
/// three disjoint windows (2–81k instructions), and a window's 256
/// snapshots take under 12 MB per engine.
#[test]
fn dense_boundary_capture_matches_interpreter() {
    for bench in peppa_apps::all_benchmarks() {
        let inputs: Vec<f64> = bench.args.iter().map(|a| a.small.1).collect();
        for level in [OptLevel::O0, OptLevel::O2] {
            let m = &optimize(&bench.module, level).module;
            let name = format!("{}@{level:?}", bench.name);
            let bits = encode_inputs(m.entry_func(), &inputs);
            let limits = ExecLimits::default();
            let code = CompiledModule::lower(m);
            let vm = Vm::new(m, limits);
            let cvm = CompiledVm::new(m, &code, limits);
            let vd = vm.run(&bits, None).profile.value_dynamic;
            assert!(
                vd > 3 * WINDOW,
                "{name}: {vd} boundaries cannot hold three windows"
            );
            for start in [1, (vd - WINDOW) / 2, vd - WINDOW] {
                let points: Vec<u64> = (start..start + WINDOW).collect();
                let what = format!("window at {start}");
                let (out_i, snaps_i) = vm.run_with_snapshots(&bits, &points);
                let (out_c, snaps_c) = cvm.run_with_snapshots(&bits, &points);
                assert_eq!(snaps_i.len() as u64, WINDOW, "{name}: {what}");
                assert_runs_eq(&name, &what, &out_i, &out_c);
                assert_snapshots_eq(&name, &what, &snaps_i, &snaps_c);
            }
        }
    }
}

/// A return scrubs the frame's stack words, and the capture trace must
/// record it: a later load through a dangling pointer then reads a
/// scrubbed word, which is no checkpoint's future read before it.
#[test]
fn compiled_capture_traces_frame_scrubs() {
    let mut mb = ModuleBuilder::new("dangling");
    let callee = mb.declare("callee", &[Ty::I64], Some(Ty::Ptr));
    let main = mb.declare("main", &[Ty::I64], None);
    let mut f = mb.define(callee);
    let buf = f.alloca(Operand::i64(2));
    f.store(buf, f.param(0));
    let _ = f.add(f.param(0), Operand::i64(1));
    f.ret(Some(buf));
    f.finish();
    let mut f = mb.define(main);
    let p = f
        .call(callee, &[f.param(0)])
        .expect("callee returns a pointer");
    let v = f.load(p, Ty::I64);
    f.output(v);
    f.ret(None);
    f.finish();
    mb.set_entry(main);
    let m = mb.finish();
    peppa_ir::verify(&m).unwrap();
    let bits = encode_inputs(m.entry_func(), &[5.0]);
    let code = CompiledModule::lower(&m);
    let limits = ExecLimits::default();
    let vm = Vm::new(&m, limits);
    let points: Vec<u64> = (0..vm.run(&bits, None).profile.value_dynamic).collect();
    let (out_i, snaps_i, sets_i) = vm.run_with_snapshots_read_sets(&bits, &points);
    let (out_c, snaps_c, sets_c) =
        CompiledVm::new(&m, &code, limits).run_with_snapshots_read_sets(&bits, &points);
    assert_eq!(out_i.output, vec![0], "the scrubbed word reads zero");
    assert_runs_eq("dangling", "capture", &out_i, &out_c);
    assert_snapshots_eq("dangling", "capture", &snaps_i, &snaps_c);
    assert!(sets_i == sets_c, "dangling: read sets diverged");
}

fn assert_snapshots_eq(name: &str, what: &str, a: &[VmSnapshot], b: &[VmSnapshot]) {
    assert_eq!(a.len(), b.len(), "{name}/{what}: snapshot count diverged");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x == y,
            "{name}/{what}: snapshot {i} at value-dynamic {} diverged \
             (dynamic {} vs {}, depth {} vs {}, {} vs {} bytes)",
            x.value_dynamic(),
            x.dynamic(),
            y.dynamic(),
            x.depth(),
            y.depth(),
            x.bytes(),
            y.bytes()
        );
    }
}

#[test]
fn converged_trials_match_across_engines() {
    for bench in peppa_apps::all_benchmarks() {
        let m = &bench.module;
        let bits = encode_inputs(m.entry_func(), &bench.reference_input);
        let limits = ExecLimits::default();
        let code = CompiledModule::lower(m);
        let vm = Vm::new(m, limits);
        let cvm = CompiledVm::new(m, &code, limits);
        let golden = vm.run(&bits, None);
        let vd = golden.profile.value_dynamic;

        let points = fork_points(vd, 8);
        let (_, snaps) = vm.run_with_snapshots(&bits, &points);
        let mut scratch = peppa_vm::ResumeScratch::new();

        for (fi, snap) in snaps.iter().enumerate() {
            let site = snap.value_dynamic() + (vd - snap.value_dynamic()) / 7;
            let inj = Injection {
                target: InjectionTarget::DynamicIndex(site),
                bit: 62,
                burst: 0,
            };
            let later = &snaps[fi + 1..];
            let ti = vm.resume_trial(snap, Some(inj), later, None, None);
            let tc = cvm.resume_trial_amortized(&mut scratch, snap, Some(inj), later, None, None);
            match (&ti, &tc) {
                (TrialResume::Completed(a), TrialResume::Completed(b)) => {
                    assert_runs_eq(bench.name, &format!("trial@{site}"), a, b);
                }
                (
                    TrialResume::Converged {
                        at_value_dynamic: a1,
                        checkpoint_dynamic: a2,
                        dynamic_at_exit: a3,
                        output_matches: a4,
                    },
                    TrialResume::Converged {
                        at_value_dynamic: b1,
                        checkpoint_dynamic: b2,
                        dynamic_at_exit: b3,
                        output_matches: b4,
                    },
                ) => {
                    assert_eq!((a1, a2, a3, a4), (b1, b2, b3, b4), "{}: convergence data diverged", bench.name);
                }
                _ => panic!(
                    "{}: trial disposition diverged at site {site}: interp converged={} compiled converged={}",
                    bench.name,
                    matches!(ti, TrialResume::Converged { .. }),
                    matches!(tc, TrialResume::Converged { .. })
                ),
            }
        }
    }
}

#[test]
fn hang_classification_identical() {
    let bench = peppa_apps::benchmark_by_name("pathfinder").unwrap();
    let m = &bench.module;
    let bits = encode_inputs(m.entry_func(), &bench.reference_input);
    let limits = ExecLimits {
        max_dynamic: 10_000,
        ..Default::default()
    };
    let code = CompiledModule::lower(m);
    let hi = Vm::new(m, limits).run(&bits, None);
    let hc = CompiledVm::new(m, &code, limits).run(&bits, None);
    assert_eq!(hi.status, RunStatus::Hang);
    assert_runs_eq("pathfinder", "hang", &hi, &hc);
}

/// Finds, in a golden run, the first `gep` whose result a `store` writes
/// through (its value-dynamic site and address) and the run's write
/// high-water mark.
#[derive(Default)]
struct StoreThroughGep {
    defs: u64,
    last_gep: Option<(u64, u64)>,
    found: Option<(u64, u64)>,
    hwm: u64,
}

impl ExecHook for StoreThroughGep {
    const ENABLED: bool = true;

    fn def_value(&mut self, ins: &Instr, bits: u64) {
        if matches!(ins.op, Op::Gep { .. }) {
            self.last_gep = Some((self.defs, bits));
        }
        self.defs += 1;
    }

    fn mem_store(&mut self, _: &Instr, addr: u64, _: u64) {
        if self.found.is_none() && self.last_gep.is_some_and(|(_, a)| a == addr) {
            self.found = self.last_gep;
        }
        self.hwm = self.hwm.max(addr + 1);
    }

    fn mem_clear(&mut self, base: u64, words: u64) {
        self.hwm = self.hwm.max(base + words);
    }
}

/// A flipped store address that lands above everything the golden run
/// ever wrote, but below the memory limit, is an ordinary store to
/// untouched memory: both engines classify it the same, from entry and
/// resumed from a snapshot at the fault site.
#[test]
fn pointer_flipped_above_the_high_water_mark_classifies_identically() {
    for bench in peppa_apps::all_benchmarks() {
        let m = &bench.module;
        let bits = encode_inputs(m.entry_func(), &bench.reference_input);
        let limits = ExecLimits::default();
        let code = CompiledModule::lower(m);
        let vm = Vm::new(m, limits);
        let cvm = CompiledVm::new(m, &code, limits);
        let mut hook = StoreThroughGep::default();
        vm.run_with_hook(&bits, None, &mut hook);
        let (site, addr) = hook.found.expect("a store through a gep");
        let bit = limits.memory_words.trailing_zeros() - 1;
        let flipped = addr ^ (1 << bit);
        let hwm = hook.hwm.max(m.globals_words());
        assert!(
            flipped >= hwm && flipped < limits.memory_words as u64,
            "{}: word {flipped} is not between the high-water mark {hwm} and the limit",
            bench.name
        );
        let inj = Injection::single(InjectionTarget::DynamicIndex(site), bit);
        let (_, snaps) = vm.run_with_snapshots(&bits, &[site]);
        let full = vm.run(&bits, Some(inj));
        assert!(full.fault_activated, "{}", bench.name);
        assert_runs_eq(
            bench.name,
            "flip/compiled",
            &full,
            &cvm.run(&bits, Some(inj)),
        );
        assert_runs_eq(
            bench.name,
            "flip/interp-resumed",
            &full,
            &vm.resume_from(&snaps[0], Some(inj)),
        );
        assert_runs_eq(
            bench.name,
            "flip/compiled-resumed",
            &full,
            &cvm.resume_from(&snaps[0], Some(inj)),
        );
    }
}
