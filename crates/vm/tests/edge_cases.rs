//! Direct edge-case tests of interpreter semantics that the MiniC
//! differential tests cannot reach (built with the raw IR builder).

use peppa_ir::{BinOp, CastKind, IPred, Module, ModuleBuilder, Operand, Ty, UnOp};
use peppa_vm::{
    encode_inputs, CompiledModule, CompiledVm, ExecLimits, RunOutput, RunStatus, Trap, Vm,
};

/// Builds `fn main() { output <expr built by f> }` and runs it.
fn eval(build: impl FnOnce(&mut peppa_ir::FunctionBuilder<'_>) -> Operand) -> u64 {
    let mut mb = ModuleBuilder::new("edge");
    let main = mb.declare("main", &[], None);
    let mut f = mb.define(main);
    let v = build(&mut f);
    f.output(v);
    f.ret(None);
    f.finish();
    mb.set_entry(main);
    let m = mb.finish();
    peppa_ir::verify(&m).unwrap();
    let vm = Vm::new(&m, ExecLimits::default());
    let out = vm.run_numeric(&[], None);
    assert_eq!(out.status, RunStatus::Ok);
    out.output[0]
}

#[test]
fn int_min_division_wraps() {
    // i64::MIN / -1 overflows; the VM wraps instead of trapping (LLVM
    // would be UB; determinism matters more than faithfulness here).
    let r = eval(|f| f.bin(BinOp::SDiv, Operand::i64(i64::MIN), Operand::i64(-1)));
    assert_eq!(r as i64, i64::MIN);
}

#[test]
fn srem_sign_follows_dividend() {
    let r = eval(|f| f.bin(BinOp::SRem, Operand::i64(-7), Operand::i64(3)));
    assert_eq!(r as i64, -1);
}

#[test]
fn shift_amounts_masked_to_width() {
    // Shift by 64+3 behaves as shift by 3 (masked), not UB.
    let r = eval(|f| f.bin(BinOp::Shl, Operand::i64(1), Operand::i64(67)));
    assert_eq!(r, 8);
    let r = eval(|f| f.bin(BinOp::AShr, Operand::i64(-16), Operand::i64(66)));
    assert_eq!(r as i64, -4);
}

#[test]
fn lshr_is_logical() {
    let r = eval(|f| f.bin(BinOp::LShr, Operand::i64(-1), Operand::i64(1)));
    assert_eq!(r, u64::MAX >> 1);
}

#[test]
fn i32_arithmetic_wraps_at_32_bits() {
    let r = eval(|f| {
        let v = f.bin(BinOp::Add, Operand::i32(i32::MAX), Operand::i32(1));
        f.cast(CastKind::SExt, v, Ty::I64)
    });
    assert_eq!(r as i64, i32::MIN as i64);
}

#[test]
fn zext_uses_unsigned_narrow_value() {
    let r = eval(|f| {
        let v = f.bin(BinOp::Add, Operand::i32(-1), Operand::i32(0));
        f.cast(CastKind::ZExt, v, Ty::I64)
    });
    assert_eq!(r, 0xffff_ffff);
}

#[test]
fn sext_of_true_is_all_ones() {
    let r = eval(|f| {
        let c = f.icmp(IPred::Eq, Operand::i64(1), Operand::i64(1));
        f.cast(CastKind::SExt, c, Ty::I64)
    });
    assert_eq!(r, u64::MAX);
}

#[test]
fn fptosi_saturates_and_zeroes_nan() {
    let r = eval(|f| f.cast(CastKind::FpToSi, Operand::f64(1e300), Ty::I64));
    assert_eq!(r as i64, i64::MAX);
    let r = eval(|f| f.cast(CastKind::FpToSi, Operand::f64(f64::NAN), Ty::I64));
    assert_eq!(r as i64, 0);
    let r = eval(|f| f.cast(CastKind::FpToSi, Operand::f64(-1e300), Ty::I64));
    assert_eq!(r as i64, i64::MIN);
}

#[test]
fn fcmp_ordered_predicates_false_on_nan() {
    for pred in [
        peppa_ir::FPred::Oeq,
        peppa_ir::FPred::One,
        peppa_ir::FPred::Olt,
        peppa_ir::FPred::Ole,
        peppa_ir::FPred::Ogt,
        peppa_ir::FPred::Oge,
    ] {
        let r = eval(move |f| {
            let c = f.fcmp(pred, Operand::f64(f64::NAN), Operand::f64(1.0));
            f.cast(CastKind::ZExt, c, Ty::I64)
        });
        assert_eq!(r, 0, "{pred:?} true on NaN");
    }
}

#[test]
fn ult_compares_unsigned() {
    let r = eval(|f| {
        let c = f.icmp(IPred::Ult, Operand::i64(-1), Operand::i64(1));
        f.cast(CastKind::ZExt, c, Ty::I64)
    });
    assert_eq!(r, 0, "-1 as unsigned is u64::MAX, not < 1");
}

#[test]
fn float_div_by_zero_is_inf_not_trap() {
    let r = eval(|f| f.bin(BinOp::FDiv, Operand::f64(1.0), Operand::f64(0.0)));
    assert_eq!(f64::from_bits(r), f64::INFINITY);
}

#[test]
fn not_on_i1_is_logical_negation() {
    let r = eval(|f| {
        let c = f.icmp(IPred::Eq, Operand::i64(1), Operand::i64(2)); // false
        let n = f.un(UnOp::Not, c);
        f.cast(CastKind::ZExt, n, Ty::I64)
    });
    assert_eq!(r, 1);
}

#[test]
fn bitcast_roundtrips_f64() {
    let r = eval(|f| {
        let bits = f.cast(CastKind::Bitcast, Operand::f64(-3.75), Ty::I64);
        f.cast(CastKind::Bitcast, bits, Ty::F64)
    });
    assert_eq!(f64::from_bits(r), -3.75);
}

/// Builds `fn main()` as two defs and an `output`, then `build`'s
/// instructions, and returns the status of a run with 64 memory words.
/// `build` runs twice: in the same block, and in a block that a `br`
/// reaches, which the turbo tier runs as one segment through the jump.
/// Each run is made four ways and must agree to the whole `Profile`
/// (see `run_everywhere`), so a trap lands inside a turbo segment, past
/// finished defs, both from entry and resumed.
fn trap_of(build: impl Fn(&mut peppa_ir::FunctionBuilder<'_>)) -> RunStatus {
    let [same_block, after_br] = [false, true].map(|jump| {
        let mut mb = ModuleBuilder::new(if jump { "trap-after-br" } else { "trap" });
        let main = mb.declare("main", &[], None);
        let mut f = mb.define(main);
        let x = f.add(Operand::i64(6), Operand::i64(7));
        let y = f.mul(x, Operand::i64(3));
        f.output(y);
        if jump {
            let (next, _) = f.new_block(&[]);
            f.br(next, &[]);
            f.switch_to(next);
        }
        build(&mut f);
        f.ret(None);
        f.finish();
        mb.set_entry(main);
        let m = mb.finish();
        peppa_ir::verify(&m).unwrap();
        let out = run_everywhere(&m, limits(64), &[]);
        assert_eq!(
            out.output,
            vec![39],
            "{}: the output before the trap is kept",
            m.name
        );
        out.status
    });
    assert_eq!(same_block, after_br, "a jump before the trap changes it");
    same_block
}

#[test]
fn null_load_and_store_trap() {
    let s = trap_of(|f| {
        let p = f.cast(CastKind::IntToPtr, Operand::i64(0), Ty::Ptr);
        let _ = f.load(p, Ty::I64);
    });
    assert_eq!(s, RunStatus::Trap(Trap::OutOfBounds { addr: 0 }));
}

#[test]
fn negative_alloca_traps() {
    let s = trap_of(|f| {
        let _ = f.alloca(Operand::i64(-5));
    });
    assert_eq!(s, RunStatus::Trap(Trap::StackOverflow));
}

#[test]
fn alloca_larger_than_memory_traps() {
    // The stack starts after the reserved null word, so 64 words pass
    // the 64-word limit by one.
    for words in [64, 1_000_000] {
        let s = trap_of(|f| {
            let _ = f.alloca(Operand::i64(words));
        });
        assert_eq!(s, RunStatus::Trap(Trap::StackOverflow), "{words} words");
    }
}

#[test]
fn integer_division_by_zero_traps() {
    for op in [BinOp::SDiv, BinOp::SRem] {
        let s = trap_of(|f| {
            let _ = f.bin(op, Operand::i64(5), Operand::i64(0));
        });
        assert_eq!(s, RunStatus::Trap(Trap::DivByZero), "{op:?}");
    }
}

/// A `gep` feeding the next `load` or `store` runs as one fused op in
/// the turbo tier; the trap comes from its second half, after the
/// `gep` defined its pointer.
#[test]
fn fused_gep_access_traps_in_its_second_half() {
    let past_end = |f: &mut peppa_ir::FunctionBuilder<'_>| {
        let p = f.cast(CastKind::IntToPtr, Operand::i64(1), Ty::Ptr);
        f.gep(p, Operand::i64(100))
    };
    let s = trap_of(|f| {
        let q = past_end(f);
        let _ = f.load(q, Ty::I64);
    });
    assert_eq!(s, RunStatus::Trap(Trap::OutOfBounds { addr: 101 }));
    let s = trap_of(|f| {
        let q = past_end(f);
        f.store(q, Operand::i64(1));
    });
    assert_eq!(s, RunStatus::Trap(Trap::OutOfBounds { addr: 101 }));
}

#[test]
fn memory_capture_present_even_on_trap() {
    let mut mb = ModuleBuilder::new("cap");
    let g = mb.global("g", 2);
    let main = mb.declare("main", &[], None);
    let mut f = mb.define(main);
    f.store(g, Operand::i64(42));
    let bad = f.cast(CastKind::IntToPtr, Operand::i64(0), Ty::Ptr);
    f.store(bad, Operand::i64(1)); // traps after the first store landed
    f.ret(None);
    f.finish();
    mb.set_entry(main);
    let m: Module = mb.finish();
    let vm = Vm::new(
        &m,
        ExecLimits {
            memory_words: 16,
            ..Default::default()
        },
    );
    let bits: Vec<u64> = vec![];
    let out = vm.run_capture(&bits, None);
    assert!(matches!(out.status, RunStatus::Trap(_)));
    let mem = out.memory.expect("capture requested");
    assert_eq!(mem[1], 42, "pre-trap store must be visible in the capture");
}

// ---- Memory-limit semantics, pinned on both engines ----
//
// `ExecLimits::memory_words` is the limit every access is checked
// against, whatever memory the run has touched so far: address 0 and
// addresses at or past the limit trap, an alloca ending past it
// overflows the stack, and a word below it that was never written reads
// zero. Each case runs four ways — interpreter and compiled engine, from
// entry and resumed from a snapshot taken after the first
// value-producing instruction — and all four must agree.

/// `main(addr, val)`: stores `val` at word `addr`, loads it back and
/// outputs it.
fn poke_module() -> Module {
    let mut mb = ModuleBuilder::new("poke");
    let main = mb.declare("main", &[Ty::I64, Ty::I64], None);
    let mut f = mb.define(main);
    let p = f.cast(CastKind::IntToPtr, f.param(0), Ty::Ptr);
    f.store(p, f.param(1));
    let v = f.load(p, Ty::I64);
    f.output(v);
    f.ret(None);
    f.finish();
    mb.set_entry(main);
    let m = mb.finish();
    peppa_ir::verify(&m).unwrap();
    m
}

/// `main(addr)`: outputs the word at `addr` without writing anything.
fn peek_module() -> Module {
    let mut mb = ModuleBuilder::new("peek");
    let main = mb.declare("main", &[Ty::I64], None);
    let mut f = mb.define(main);
    let p = f.cast(CastKind::IntToPtr, f.param(0), Ty::Ptr);
    let v = f.load(p, Ty::I64);
    f.output(v);
    f.ret(None);
    f.finish();
    mb.set_entry(main);
    let m = mb.finish();
    peppa_ir::verify(&m).unwrap();
    m
}

/// `main(n)`: allocates `n` stack words, stores 5 into the last one and
/// outputs it back. The stack starts right after the reserved null word,
/// so the allocation ends at word `1 + n`.
fn alloca_module() -> Module {
    let mut mb = ModuleBuilder::new("stack");
    let main = mb.declare("main", &[Ty::I64], None);
    let mut f = mb.define(main);
    let n = f.add(f.param(0), Operand::i64(0));
    let buf = f.alloca(n);
    let last = f.sub(n, Operand::i64(1));
    let q = f.gep(buf, last);
    f.store(q, Operand::i64(5));
    let v = f.load(q, Ty::I64);
    f.output(v);
    f.ret(None);
    f.finish();
    mb.set_entry(main);
    let m = mb.finish();
    peppa_ir::verify(&m).unwrap();
    m
}

fn limits(memory_words: usize) -> ExecLimits {
    ExecLimits {
        memory_words,
        ..Default::default()
    }
}

/// Runs `m` four ways (see above), asserts that they agree, and returns
/// the interpreter's run from entry.
fn run_everywhere(m: &Module, limits: ExecLimits, inputs: &[f64]) -> RunOutput {
    let bits = encode_inputs(m.entry_func(), inputs);
    let code = CompiledModule::lower(m);
    let vm = Vm::new(m, limits);
    let cvm = CompiledVm::new(m, &code, limits);
    let full = vm.run(&bits, None);
    let (_, snaps) = vm.run_with_snapshots(&bits, &[1]);
    assert_eq!(snaps.len(), 1, "{}: the snapshot point is reached", m.name);
    let runs = [
        ("compiled", cvm.run(&bits, None)),
        ("interp resumed", vm.resume_from(&snaps[0], None)),
        ("compiled resumed", cvm.resume_from(&snaps[0], None)),
    ];
    for (what, out) in &runs {
        assert_eq!(out.status, full.status, "{} {inputs:?}: {what}", m.name);
        assert_eq!(out.output, full.output, "{} {inputs:?}: {what}", m.name);
        assert_eq!(out.profile, full.profile, "{} {inputs:?}: {what}", m.name);
    }
    full
}

#[test]
fn accesses_are_checked_against_the_memory_limit() {
    let m = poke_module();
    let lim = limits(64);
    let out = run_everywhere(&m, lim, &[63.0, 7.0]);
    assert_eq!(out.status, RunStatus::Ok);
    assert_eq!(out.output, vec![7]);
    for addr in [64u64, 65, 1 << 20, u64::MAX] {
        let out = run_everywhere(&m, lim, &[addr as i64 as f64, 7.0]);
        assert_eq!(out.status, RunStatus::Trap(Trap::OutOfBounds { addr }));
    }
    let out = run_everywhere(&m, lim, &[0.0, 7.0]);
    assert_eq!(out.status, RunStatus::Trap(Trap::OutOfBounds { addr: 0 }));
    // The default limit: the last word is writable, the next one traps.
    let words = ExecLimits::default().memory_words as u64;
    let out = run_everywhere(&m, ExecLimits::default(), &[(words - 1) as f64, 9.0]);
    assert_eq!(out.output, vec![9]);
    let out = run_everywhere(&m, ExecLimits::default(), &[words as f64, 9.0]);
    assert_eq!(
        out.status,
        RunStatus::Trap(Trap::OutOfBounds { addr: words })
    );
}

#[test]
fn unwritten_words_below_the_limit_read_zero() {
    let m = peek_module();
    let out = run_everywhere(&m, limits(64), &[63.0]);
    assert_eq!((out.status, out.output), (RunStatus::Ok, vec![0]));
    let out = run_everywhere(&m, limits(64), &[64.0]);
    assert_eq!(out.status, RunStatus::Trap(Trap::OutOfBounds { addr: 64 }));
    let words = ExecLimits::default().memory_words as u64;
    for addr in [1u64 << 20, words - 1] {
        let out = run_everywhere(&m, ExecLimits::default(), &[addr as f64]);
        assert_eq!((out.status, out.output), (RunStatus::Ok, vec![0]), "{addr}");
    }
    let out = run_everywhere(&m, ExecLimits::default(), &[words as f64]);
    assert_eq!(
        out.status,
        RunStatus::Trap(Trap::OutOfBounds { addr: words })
    );
}

#[test]
fn an_alloca_may_end_exactly_at_the_memory_limit() {
    let m = alloca_module();
    let out = run_everywhere(&m, limits(64), &[63.0]);
    assert_eq!((out.status, out.output), (RunStatus::Ok, vec![5]));
    let out = run_everywhere(&m, limits(64), &[64.0]);
    assert_eq!(out.status, RunStatus::Trap(Trap::StackOverflow));
    let words = ExecLimits::default().memory_words as f64;
    let out = run_everywhere(&m, ExecLimits::default(), &[words - 1.0]);
    assert_eq!((out.status, out.output), (RunStatus::Ok, vec![5]));
    let out = run_everywhere(&m, ExecLimits::default(), &[words]);
    assert_eq!(out.status, RunStatus::Trap(Trap::StackOverflow));
}

#[test]
fn captured_images_span_the_memory_limit() {
    let m = poke_module();
    for lim in [limits(64), ExecLimits::default()] {
        let vm = Vm::new(&m, lim);
        let bits = encode_inputs(m.entry_func(), &[40.0, 3.0]);
        let (_, snaps) = vm.run_with_snapshots(&bits, &[1]);
        for out in [
            vm.run_capture(&bits, None),
            vm.resume_capture(&snaps[0], None),
        ] {
            let mem = out.memory.expect("capture requested");
            assert_eq!(mem.len(), lim.memory_words);
            assert_eq!(mem[40], 3);
            assert_eq!(mem.iter().filter(|&&w| w != 0).count(), 1);
        }
    }
}

/// `main(a, b, n)`: stores 7 at word `a`, allocates `n` stack words,
/// stores 8 at word `b`, then outputs the words at `a` and `b`.
fn scatter_module() -> Module {
    let mut mb = ModuleBuilder::new("scatter");
    let main = mb.declare("main", &[Ty::I64, Ty::I64, Ty::I64], None);
    let mut f = mb.define(main);
    let a = f.add(f.param(0), Operand::i64(0));
    let pa = f.cast(CastKind::IntToPtr, a, Ty::Ptr);
    f.store(pa, Operand::i64(7));
    let _ = f.alloca(f.param(2));
    let pb = f.cast(CastKind::IntToPtr, f.param(1), Ty::Ptr);
    f.store(pb, Operand::i64(8));
    for p in [pa, pb] {
        let v = f.load(p, Ty::I64);
        f.output(v);
    }
    f.ret(None);
    f.finish();
    mb.set_entry(main);
    let m = mb.finish();
    peppa_ir::verify(&m).unwrap();
    m
}

/// Stores far above everything written, the stack growing towards and
/// over them, all keep plain memory semantics: a word holds what was
/// last stored there, and an alloca zero-fills its words.
#[test]
fn stores_far_past_the_written_words_keep_their_values() {
    let m = scatter_module();
    let lim = ExecLimits::default();
    for (a, b, n, expect) in [
        (5000u64, 5100u64, 2600u64, [7u64, 8]),
        (5000, 5100, 6000, [0, 8]),
        (1 << 20, (1 << 20) + 1, 2600, [7, 8]),
        (1 << 20, 9000, 1 << 20, [0, 8]),
        (1 << 20, 9000, 1 << 21, [7, 8]),
    ] {
        let inputs = [a as f64, b as f64, n as f64];
        let out = run_everywhere(&m, lim, &inputs);
        if n >= lim.memory_words as u64 {
            assert_eq!(out.status, RunStatus::Trap(Trap::StackOverflow));
            continue;
        }
        assert_eq!((out.status, &out.output[..]), (RunStatus::Ok, &expect[..]));
        // Returning from `main` scrubs its stack words, `[1, 1 + n)`.
        let kept = |w: u64, v: u64| if w < 1 + n { 0 } else { v };
        let bits = encode_inputs(m.entry_func(), &inputs);
        let mem = Vm::new(&m, lim).run_capture(&bits, None).memory.unwrap();
        assert_eq!(mem.len(), lim.memory_words);
        assert_eq!(
            (mem[a as usize], mem[b as usize]),
            (kept(a, expect[0]), kept(b, 8))
        );
    }
}

// ---- Loops with no instructions, and block-argument cycles ----

fn max_dynamic(max_dynamic: u64) -> ExecLimits {
    ExecLimits {
        max_dynamic,
        ..Default::default()
    }
}

/// `main(n)` in the two shapes -O2 gives a MiniC loop with an empty
/// body. LICM hoists the compare of `while (n > 0) { }`, leaving a
/// conditional jump and a jump back; constant folding turns
/// `while (1 == 1) { }` into a jump to itself, here after an `add` so
/// that `run_everywhere` can resume past a def.
fn empty_loop_module(hoisted_compare: bool) -> Module {
    let mut mb = ModuleBuilder::new(if hoisted_compare {
        "licm-loop"
    } else {
        "self-jump"
    });
    let main = mb.declare("main", &[Ty::I64], None);
    let mut f = mb.define(main);
    let n = f.param(0);
    let (head, _) = f.new_block(&[]);
    if hoisted_compare {
        let (body, _) = f.new_block(&[]);
        let (exit, _) = f.new_block(&[]);
        let c = f.icmp(IPred::Sgt, n, Operand::i64(0));
        f.br(head, &[]);
        f.switch_to(head);
        f.cond_br(c, body, &[], exit, &[]);
        f.switch_to(body);
        f.br(head, &[]);
        f.switch_to(exit);
        f.output(n);
        f.ret(None);
    } else {
        let _ = f.add(n, Operand::i64(1));
        f.br(head, &[]);
        f.switch_to(head);
        f.br(head, &[]);
    }
    f.finish();
    mb.set_entry(main);
    let m = mb.finish();
    peppa_ir::verify(&m).unwrap();
    m
}

/// A loop with no instructions moves no counter of the instruction
/// budget, so the run ends in `Hang` once it takes more than
/// `max_dynamic` jumps in a row without beginning an instruction, on
/// both engines, from entry and resumed, with the same `Profile`.
#[test]
fn a_loop_with_no_instructions_hangs() {
    let lim = max_dynamic(5);
    for hoisted_compare in [true, false] {
        let m = empty_loop_module(hoisted_compare);
        let out = run_everywhere(&m, lim, &[3.0]);
        assert_eq!(out.status, RunStatus::Hang, "{}", m.name);
        assert_eq!(
            out.profile.dynamic, 1,
            "{}: the def before the loop",
            m.name
        );
        assert!(out.output.is_empty());
    }
    // The hoisted compare fails for n = 0, and the loop exits at once.
    let out = run_everywhere(&empty_loop_module(true), lim, &[0.0]);
    assert_eq!((out.status, out.output), (RunStatus::Ok, vec![0]));
}

/// `main(n)`: outputs `n + 1` after a loop with no instructions whose
/// back edge rotates three `i1` block parameters, `(1, 1, 0)` on entry,
/// and which leaves once the first is 0: the `add` is followed by four
/// jumps in a row, the jump in, two back edges and the exit.
fn rotating_flags_module() -> Module {
    let mut mb = ModuleBuilder::new("rotating-flags");
    let main = mb.declare("main", &[Ty::I64], None);
    let mut f = mb.define(main);
    let (head, p) = f.new_block(&[Ty::I1; 3]);
    let (exit, _) = f.new_block(&[]);
    let x = f.add(f.param(0), Operand::i64(1));
    let flags = [true, true, false].map(Operand::bool);
    f.br(head, &flags);
    f.switch_to(head);
    f.cond_br(p[0], head, &[p[1], p[2], p[0]], exit, &[]);
    f.switch_to(exit);
    f.output(x);
    f.ret(None);
    f.finish();
    mb.set_entry(main);
    let m = mb.finish();
    peppa_ir::verify(&m).unwrap();
    m
}

/// Ends the current block with `jumps` jumps in a row through new
/// blocks with no instructions, and goes on in the last of them.
fn jump_through_empty_blocks(f: &mut peppa_ir::FunctionBuilder<'_>, jumps: usize) {
    for _ in 0..jumps {
        let (next, _) = f.new_block(&[]);
        f.br(next, &[]);
        f.switch_to(next);
    }
}

/// `main(n)`: outputs `n + 1` after `jumps` jumps in a row through
/// blocks with no instructions, which the turbo tier runs as one
/// segment.
fn jump_chain_module(jumps: usize) -> Module {
    let mut mb = ModuleBuilder::new("jump-chain");
    let main = mb.declare("main", &[Ty::I64], None);
    let mut f = mb.define(main);
    let x = f.add(f.param(0), Operand::i64(1));
    jump_through_empty_blocks(&mut f, jumps);
    f.output(x);
    f.ret(None);
    f.finish();
    mb.set_entry(main);
    let m = mb.finish();
    peppa_ir::verify(&m).unwrap();
    m
}

/// `main(n)`: calls `inc(n)`, which computes `n + 1` and takes two jumps
/// before it returns it, then takes two jumps itself and outputs the
/// result. The return ends the callee's streak, so neither streak is
/// longer than two jumps.
fn jumps_around_a_return_module() -> Module {
    let mut mb = ModuleBuilder::new("jumps-around-a-return");
    let inc = mb.declare("inc", &[Ty::I64], Some(Ty::I64));
    let main = mb.declare("main", &[Ty::I64], None);
    let mut f = mb.define(inc);
    let x = f.add(f.param(0), Operand::i64(1));
    jump_through_empty_blocks(&mut f, 2);
    f.ret(Some(x));
    f.finish();
    let mut f = mb.define(main);
    let r = f.call(inc, &[f.param(0)]).expect("inc returns a value");
    jump_through_empty_blocks(&mut f, 2);
    f.output(r);
    f.ret(None);
    f.finish();
    mb.set_entry(main);
    let m = mb.finish();
    peppa_ir::verify(&m).unwrap();
    m
}

/// Both engines count a streak of jumps to the same length, whichever
/// tier takes them, and end it at a return: each run below ends under a
/// budget of `ends_at` and hangs under any smaller one. In the rotating
/// loop the compiled engine's turbo tier takes the first two of the four
/// jumps and hands the count to its exact tier; the chain's three jumps
/// lie inside one turbo segment, which the turbo tier runs only under a
/// budget it cannot cross; around the return, the two streaks of two
/// would be one of four without the return, and the three instructions
/// need a budget of three anyway.
#[test]
fn both_engines_count_a_streak_of_jumps_alike() {
    for (m, ends_at) in [
        (rotating_flags_module(), 4),
        (jump_chain_module(3), 3),
        (jumps_around_a_return_module(), 3),
    ] {
        for budget in 2..=6 {
            let out = run_everywhere(&m, max_dynamic(budget), &[6.0]);
            if budget >= ends_at {
                assert_eq!((out.status, out.output), (RunStatus::Ok, vec![7]));
            } else {
                assert_eq!(out.status, RunStatus::Hang, "{} under {budget}", m.name);
            }
        }
    }
}

/// `main(n)`: a loop whose back edge, a `br`, swaps two block
/// parameters and rotates three, then outputs all five. Both cycles of
/// moves go through the compiled engine's scratch register.
fn swap_loop_module() -> Module {
    let mut mb = ModuleBuilder::new("swap-loop");
    let main = mb.declare("main", &[Ty::I64], None);
    let mut f = mb.define(main);
    let n = f.param(0);
    let (head, p) = f.new_block(&[Ty::I64; 6]);
    let (body, _) = f.new_block(&[]);
    let (done, _) = f.new_block(&[]);
    let init: Vec<Operand> = (0..6).map(Operand::i64).collect();
    f.br(head, &init);
    f.switch_to(head);
    let (i, a, b, x, y, z) = (p[0], p[1], p[2], p[3], p[4], p[5]);
    let c = f.icmp(IPred::Slt, i, n);
    f.cond_br(c, body, &[], done, &[]);
    f.switch_to(body);
    let i2 = f.add(i, Operand::i64(1));
    f.br(head, &[i2, b, a, y, z, x]);
    f.switch_to(done);
    for v in [a, b, x, y, z] {
        f.output(v);
    }
    f.ret(None);
    f.finish();
    mb.set_entry(main);
    let m = mb.finish();
    peppa_ir::verify(&m).unwrap();
    m
}

/// Block arguments are a parallel copy: after `n` trips `(a, b)` has
/// swapped `n` times and `(x, y, z)` rotated `n` times. The compiled
/// engine's capture equals the interpreter's at every boundary.
#[test]
fn a_back_edge_that_swaps_and_rotates_parameters_copies_them_in_parallel() {
    let m = swap_loop_module();
    let lim = ExecLimits::default();
    for n in 0..7u64 {
        let out = run_everywhere(&m, lim, &[n as f64]);
        let ab = if n % 2 == 0 { [1, 2] } else { [2, 1] };
        let xyz = [3, 4, 5, 3, 4];
        let r = (n % 3) as usize;
        let expect = [ab[0], ab[1], xyz[r], xyz[r + 1], xyz[r + 2]];
        assert_eq!(
            (out.status, &out.output[..]),
            (RunStatus::Ok, &expect[..]),
            "n = {n}"
        );
    }
    let bits = encode_inputs(m.entry_func(), &[6.0]);
    let code = CompiledModule::lower(&m);
    let vm = Vm::new(&m, lim);
    let points: Vec<u64> = (0..vm.run(&bits, None).profile.value_dynamic).collect();
    let (out_i, snaps_i) = vm.run_with_snapshots(&bits, &points);
    let (out_c, snaps_c) = CompiledVm::new(&m, &code, lim).run_with_snapshots(&bits, &points);
    assert_eq!(snaps_i.len(), points.len());
    assert_eq!((out_i.output, out_i.profile), (out_c.output, out_c.profile));
    for (k, (si, sc)) in snaps_i.iter().zip(&snaps_c).enumerate() {
        assert!(si == sc, "snapshot at value-dynamic {k} diverged");
    }
    assert_eq!(snaps_c.len(), snaps_i.len());
}
