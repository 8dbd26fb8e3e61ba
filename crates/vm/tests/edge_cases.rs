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
/// instructions in the same block, and returns the status of a run with
/// 64 memory words. The run is made four ways and must agree to the
/// whole `Profile` (see `run_everywhere`), so a trap lands inside a
/// turbo segment, past finished defs, both from entry and resumed.
fn trap_of(build: impl FnOnce(&mut peppa_ir::FunctionBuilder<'_>)) -> RunStatus {
    let mut mb = ModuleBuilder::new("trap");
    let main = mb.declare("main", &[], None);
    let mut f = mb.define(main);
    let x = f.add(Operand::i64(6), Operand::i64(7));
    let y = f.mul(x, Operand::i64(3));
    f.output(y);
    build(&mut f);
    f.ret(None);
    f.finish();
    mb.set_entry(main);
    let m = mb.finish();
    peppa_ir::verify(&m).unwrap();
    let out = run_everywhere(&m, limits(64), &[]);
    assert_eq!(out.output, vec![39], "the output before the trap is kept");
    out.status
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
