//! Lowering PIR to register-allocated, superinstruction threaded
//! bytecode — the compiled execution backend's front half.
//!
//! [`CompiledModule::lower`] translates every function into a flat
//! bytecode (`Bc`) array the dispatch loop in [`crate::compiled`] threads
//! through. The translation eliminates the interpreter's per-operand
//! work up front:
//!
//! * **Register allocation.** Each frame owns a flat `u64` register
//!   file of `num_values + consts.len()` words: SSA values keep their
//!   `ValueId` index (so fault injection and snapshot frames see
//!   the exact interpreter register file in the first
//!   `num_values` slots), and every distinct constant is
//!   canonicalized once at lowering time and parked in a read-only
//!   tail. An operand is then always a plain `u32` register index —
//!   no `Operand` match, no per-use `canon`.
//! * **Superinstructions.** Five fused shapes cover the hottest
//!   dispatch sequences: compare-and-branch (`CmpBrI` /
//!   `CmpBrF`: a block-terminal `icmp`/`fcmp` feeding the
//!   `cond_br`), address-calc-load (`GepLoad`),
//!   address-calc-store (`GepStore`), f64 multiply-add
//!   (`FMulAdd`), and the counted-loop latch
//!   (`IAddCmpBrI`: i64 add + compare + branch). Each fused
//!   opcode still performs full per-covered-instruction bookkeeping
//!   (dynamic counts, hang budget, injection check) in interpreter
//!   order, and emits its second component *unfused* at `pc + 1` — a
//!   stub the machine jumps into when a snapshot boundary falls
//!   between the two halves, and that `CompiledFunc::pc_of` targets
//!   when a resume lands mid-pair. Fusion is therefore invisible to
//!   every observable.
//! * **Branch edges.** Block-argument transfers become pre-resolved
//!   move lists (`(dst, src)` register pairs) with a lowering-time
//!   proof of whether an in-place sequential copy is safe; otherwise
//!   the machine buffers sources first, exactly like the
//!   interpreter's two-phase `arg_buf` copy.
//!
//! [`lower`] ends with a validation sweep asserting every register
//! index, edge target, and pool range is in bounds. The dispatch loop
//! relies on that invariant for its unchecked register accesses.
//!
//! [`lower`]: CompiledModule::lower

use crate::exec::canon;
use peppa_ir::{
    BinOp, CastKind, FPred, FuncId, Function, IPred, Module, Op, Operand, Term, Ty, UnOp,
};
use std::collections::HashMap;

/// Register index sentinel: "no register" (void call results, `ret`
/// without a value).
pub(crate) const NO_REG: u32 = u32::MAX;

/// One threaded-bytecode operation. Operand fields are indices into
/// the frame's register file (values first, then the constant pool
/// tail); `dst` fields always index the value range so interpreter
/// semantics (and snapshot frames) are preserved bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Bc {
    Bin {
        op: BinOp,
        ty: Ty,
        dst: u32,
        a: u32,
        b: u32,
    },
    Un {
        op: UnOp,
        ty: Ty,
        dst: u32,
        a: u32,
    },
    Icmp {
        pred: IPred,
        dst: u32,
        a: u32,
        b: u32,
    },
    Fcmp {
        pred: FPred,
        dst: u32,
        a: u32,
        b: u32,
    },
    Select {
        dst: u32,
        cond: u32,
        t: u32,
        f: u32,
    },
    Cast {
        kind: CastKind,
        from: Ty,
        to: Ty,
        dst: u32,
        a: u32,
    },
    Load {
        ty: Ty,
        dst: u32,
        addr: u32,
    },
    Store {
        addr: u32,
        val: u32,
    },
    Gep {
        dst: u32,
        base: u32,
        index: u32,
    },
    Alloca {
        dst: u32,
        words: u32,
    },
    Output {
        val: u32,
    },
    Call {
        callee: FuncId,
        /// Start of the argument register list in
        /// [`CompiledFunc::call_args`].
        args: u32,
        /// Result register, or [`NO_REG`] for void callees.
        dst: u32,
    },
    /// Unconditional jump through [`CompiledFunc::edges`].
    Br {
        edge: u32,
    },
    /// Conditional jump: the then-edge is `edge`, the else-edge is
    /// `edge + 1` (edge pairs are allocated adjacently).
    CondBr {
        cond: u32,
        edge: u32,
    },
    Ret {
        /// Returned register, or [`NO_REG`].
        val: u32,
    },
    /// Fused `icmp` + `cond_br`: the compare still writes `dst` (so
    /// injection can corrupt the decision) and the branch reads the
    /// possibly-flipped register. The unfused [`Bc::CondBr`] stub
    /// sits at `pc + 1`.
    CmpBrI {
        pred: IPred,
        dst: u32,
        a: u32,
        b: u32,
        edge: u32,
    },
    /// Fused `fcmp` + `cond_br`; see [`Bc::CmpBrI`].
    CmpBrF {
        pred: FPred,
        dst: u32,
        a: u32,
        b: u32,
        edge: u32,
    },
    /// Fused `gep` + `load` through the gep's result. Both results
    /// are written (`gep_dst`, then `dst`); the unfused [`Bc::Load`]
    /// stub sits at `pc + 1`.
    GepLoad {
        ty: Ty,
        gep_dst: u32,
        base: u32,
        index: u32,
        dst: u32,
    },
    /// Fused `gep` + `store` through the gep's result; the unfused
    /// [`Bc::Store`] stub sits at `pc + 1`.
    GepStore {
        gep_dst: u32,
        base: u32,
        index: u32,
        val: u32,
    },
    /// Type-specialized [`Bc::Bin`] fast paths. Each is exactly
    /// `exec_bin` for its `(op, ty)` pair — wrapping `i64` arithmetic
    /// or IEEE `f64` through the bit pattern — emitted only for types
    /// whose `canon` is the identity (I64 / F64), so the dispatch loop
    /// skips both the nested op/ty match and the canonicalization.
    IAdd {
        dst: u32,
        a: u32,
        b: u32,
    },
    ISub {
        dst: u32,
        a: u32,
        b: u32,
    },
    IMul {
        dst: u32,
        a: u32,
        b: u32,
    },
    FAdd {
        dst: u32,
        a: u32,
        b: u32,
    },
    FSub {
        dst: u32,
        a: u32,
        b: u32,
    },
    FMul {
        dst: u32,
        a: u32,
        b: u32,
    },
    FDiv {
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Fused loop latch: `dst = a + b` (wrapping i64), then
    /// `cdst = icmp pred(ca, cb)` (typically reading the fresh `dst`),
    /// then branch on `cdst` — the canonical counted-loop back edge in
    /// one dispatch. The unfused [`Bc::CmpBrI`] stub sits at `pc + 1`
    /// (with its own [`Bc::CondBr`] stub at `pc + 2`).
    IAddCmpBrI {
        dst: u32,
        a: u32,
        b: u32,
        pred: IPred,
        cdst: u32,
        ca: u32,
        cb: u32,
        edge: u32,
    },
    /// Fused f64 multiply-add: `t = a * b` then `dst = x + y`, where
    /// `x` or `y` is `t` (the add reads the freshly written multiply
    /// result, in interpreter order — so injection into `t` still
    /// flows into the sum). Both results are written; the unfused
    /// [`Bc::FAdd`] stub sits at `pc + 1`.
    FMulAdd {
        t: u32,
        a: u32,
        b: u32,
        dst: u32,
        x: u32,
        y: u32,
    },
}

/// Straight-line segment summary for one pc: how many interpreter
/// instructions (and how many of them value-producing) execute from
/// this pc up to — and, for fused compare-and-branch, including — the
/// segment's terminating bytecode. A segment ends at the first
/// [`Bc::Br`] / [`Bc::CondBr`] / [`Bc::Call`] / [`Bc::Ret`]
/// (exclusive) or [`Bc::CmpBrI`] / [`Bc::CmpBrF`] (inclusive: the
/// compare is an instruction). The turbo dispatch loop reads this
/// once per segment to prove that no hang, injection, or snapshot
/// boundary can fire inside it, and then runs the whole segment with
/// batched bookkeeping.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SegInfo {
    pub(crate) n_ops: u32,
    pub(crate) n_defs: u32,
}

/// One branch edge: the target pc plus the pre-resolved
/// block-argument moves.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Edge {
    pub(crate) target_pc: u32,
    /// Range `[moves_start, moves_start + moves_len)` into
    /// [`CompiledFunc::moves`].
    pub(crate) moves_start: u32,
    pub(crate) moves_len: u32,
    /// Sequential in-place copying is safe: no move's destination is
    /// read as a source by a later move. When false the machine
    /// buffers all sources before writing (the interpreter's
    /// two-phase copy).
    pub(crate) in_place: bool,
}

/// One function's threaded bytecode plus the side tables the machine
/// and the snapshot bridge need.
#[derive(Debug)]
pub(crate) struct CompiledFunc {
    pub(crate) code: Vec<Bc>,
    /// Static instruction id per pc ([`u32::MAX`] for terminators).
    pub(crate) sids: Vec<u32>,
    /// `(block, instr)` interpreter coordinates per pc — `instr ==
    /// block.instrs.len()` marks the terminator position. Used for
    /// the faulted `&Instr` lookup and snapshot frame mapping.
    pub(crate) meta: Vec<(u32, u32)>,
    /// `pc_of[block][instr]` for `instr` in `0..=instrs.len()`: the
    /// pc at which execution (re)starts from interpreter position
    /// `(block, instr)`. Mid-fusion positions map onto the stubs, so
    /// any snapshot the interpreter can capture is resumable here.
    pub(crate) pc_of: Vec<Vec<u32>>,
    /// Interpreter register-file size (`value_types.len()`).
    pub(crate) num_values: usize,
    /// Canonicalized, deduplicated constants, copied to
    /// `regs[num_values..]` at frame push.
    pub(crate) consts: Vec<u64>,
    pub(crate) edges: Vec<Edge>,
    /// `(dst, src)` register moves for branch edges.
    pub(crate) moves: Vec<(u32, u32)>,
    /// Argument register lists for calls.
    pub(crate) call_args: Vec<u32>,
    /// Per-pc straight-line segment summaries (see [`SegInfo`]).
    pub(crate) seg: Vec<SegInfo>,
    /// Pre-built frame register image: `num_values` zeros followed by
    /// the constant pool. Frame push is one `extend_from_slice`.
    pub(crate) frame_image: Vec<u64>,
}

impl CompiledFunc {
    /// Total frame register-file size.
    pub(crate) fn num_regs(&self) -> usize {
        self.num_values + self.consts.len()
    }
}

/// A whole module lowered to threaded bytecode. Plain owned data:
/// build once per campaign, share across worker threads.
#[derive(Debug)]
pub struct CompiledModule {
    pub(crate) funcs: Vec<CompiledFunc>,
    /// First flat-pc of each function in the module-wide pc space
    /// (prefix sums of `funcs[i].code.len()`), used to index the
    /// per-run segment-hit table.
    pub(crate) pc_base: Vec<u32>,
    /// Total bytecode length across all functions.
    pub(crate) total_pcs: usize,
    /// Initialized-globals image: the memory a run from entry starts
    /// with, `globals_words` long, every global's `init` at its layout
    /// base. A run's image grows past it only as the run writes.
    pub(crate) globals_image: Vec<u64>,
}

impl CompiledModule {
    /// Lowers every function of `module`. Panics on an internally
    /// inconsistent module (the verifier catches those first).
    pub fn lower(module: &Module) -> CompiledModule {
        let funcs: Vec<CompiledFunc> = module.functions.iter().map(lower_func).collect();
        let mut pc_base = Vec::with_capacity(funcs.len());
        let mut total = 0usize;
        for f in &funcs {
            pc_base.push(total as u32);
            total += f.code.len();
        }
        let cm = CompiledModule {
            funcs,
            pc_base,
            total_pcs: total,
            globals_image: crate::image::globals_image(module),
        };
        validate(module, &cm);
        cm
    }

    /// Static superinstruction count across the module (fused pairs
    /// emitted), exposed for tests and diagnostics.
    pub fn fused_pairs(&self) -> usize {
        self.funcs
            .iter()
            .flat_map(|f| f.code.iter())
            .filter(|bc| {
                matches!(
                    bc,
                    Bc::CmpBrI { .. }
                        | Bc::CmpBrF { .. }
                        | Bc::GepLoad { .. }
                        | Bc::GepStore { .. }
                        | Bc::FMulAdd { .. }
                        | Bc::IAddCmpBrI { .. }
                )
            })
            .count()
    }
}

struct Lowerer<'f> {
    func: &'f Function,
    num_values: usize,
    consts: Vec<u64>,
    const_ix: HashMap<u64, u32>,
    code: Vec<Bc>,
    sids: Vec<u32>,
    meta: Vec<(u32, u32)>,
    pc_of: Vec<Vec<u32>>,
    edges: Vec<Edge>,
    moves: Vec<(u32, u32)>,
    call_args: Vec<u32>,
}

impl<'f> Lowerer<'f> {
    /// Register index for an operand; constants intern into the pool
    /// pre-canonicalized, so `regs[reg(op)]` equals the interpreter's
    /// `eval(regs, op)` everywhere.
    fn reg(&mut self, op: &Operand) -> u32 {
        match op {
            Operand::Value(v) => v.0,
            Operand::Const(c) => {
                let bits = canon(c.ty, c.bits);
                let nv = self.num_values as u32;
                match self.const_ix.get(&bits) {
                    Some(&i) => nv + i,
                    None => {
                        let i = self.consts.len() as u32;
                        self.consts.push(bits);
                        self.const_ix.insert(bits, i);
                        nv + i
                    }
                }
            }
        }
    }

    fn result_reg(&self, ins: &peppa_ir::Instr) -> u32 {
        ins.result.map_or(NO_REG, |r| r.0)
    }

    fn emit(&mut self, bc: Bc, sid: u32, block: u32, instr: u32) -> u32 {
        let pc = self.code.len() as u32;
        self.code.push(bc);
        self.sids.push(sid);
        self.meta.push((block, instr));
        pc
    }

    /// Builds one branch edge. `target_pc` temporarily holds the
    /// target *block id*; [`lower_func`] patches it to the block's
    /// entry pc once all pcs are assigned.
    fn edge(&mut self, target: u32, args: &[Operand]) -> u32 {
        let params = &self.func.blocks[target as usize].params;
        let moves_start = self.moves.len() as u32;
        for (p, a) in params.iter().zip(args) {
            let src = self.reg(a);
            if p.0 != src {
                self.moves.push((p.0, src));
            }
        }
        let ms = moves_start as usize;
        let emitted = &self.moves[ms..];
        // In-place is safe iff no destination is read by a later move.
        let in_place = emitted
            .iter()
            .enumerate()
            .all(|(k, m)| !emitted[k + 1..].iter().any(|m2| m2.1 == m.0));
        let e = self.edges.len() as u32;
        self.edges.push(Edge {
            target_pc: target,
            moves_start,
            moves_len: (self.moves.len() - ms) as u32,
            in_place,
        });
        e
    }
}

/// True when `op` is a `Load` whose address is exactly `gep_result`.
fn loads_through(op: &Op, gep_result: peppa_ir::ValueId) -> bool {
    matches!(op, Op::Load { addr: Operand::Value(v), .. } if *v == gep_result)
}

fn stores_through(op: &Op, gep_result: peppa_ir::ValueId) -> bool {
    matches!(op, Op::Store { addr: Operand::Value(v), .. } if *v == gep_result)
}

/// True when `op` is an f64 `FAdd` reading `mul_result` as an operand.
fn adds_through(op: &Op, mul_result: peppa_ir::ValueId) -> bool {
    matches!(op, Op::Bin { op: BinOp::FAdd, a, b }
        if matches!(a, Operand::Value(v) if *v == mul_result)
            || matches!(b, Operand::Value(v) if *v == mul_result))
}

fn lower_func(func: &Function) -> CompiledFunc {
    let mut lo = Lowerer {
        func,
        num_values: func.value_types.len(),
        consts: Vec::new(),
        const_ix: HashMap::new(),
        code: Vec::new(),
        sids: Vec::new(),
        meta: Vec::new(),
        pc_of: Vec::with_capacity(func.blocks.len()),
        edges: Vec::new(),
        moves: Vec::new(),
        call_args: Vec::new(),
    };

    for (bi, block) in func.blocks.iter().enumerate() {
        let bi = bi as u32;
        let n = block.instrs.len();
        let mut pcs: Vec<u32> = Vec::with_capacity(n + 1);
        let mut i = 0usize;
        let mut term_done = false;
        while i < n {
            let ins = &block.instrs[i];
            let ii = i as u32;
            match &ins.op {
                // Address-calc fusions: gep feeding the very next
                // load/store's address.
                Op::Gep { base, index } if i + 1 < n => {
                    let gep_dst = lo.result_reg(ins);
                    let next = &block.instrs[i + 1];
                    let r = ins.result.expect("gep always has a result");
                    if loads_through(&next.op, r) {
                        let (b, x) = (lo.reg(base), lo.reg(index));
                        let (ty, dst) = match &next.op {
                            Op::Load { ty, .. } => (*ty, lo.result_reg(next)),
                            _ => unreachable!(),
                        };
                        pcs.push(lo.emit(
                            Bc::GepLoad {
                                ty,
                                gep_dst,
                                base: b,
                                index: x,
                                dst,
                            },
                            ins.sid.0,
                            bi,
                            ii,
                        ));
                        // Unfused second half at pc + 1: the resume /
                        // boundary-bailout entry point.
                        pcs.push(lo.emit(
                            Bc::Load {
                                ty,
                                dst,
                                addr: gep_dst,
                            },
                            next.sid.0,
                            bi,
                            ii + 1,
                        ));
                        i += 2;
                        continue;
                    }
                    if stores_through(&next.op, r) {
                        let (b, x) = (lo.reg(base), lo.reg(index));
                        let val = match &next.op {
                            Op::Store { value, .. } => lo.reg(value),
                            _ => unreachable!(),
                        };
                        pcs.push(lo.emit(
                            Bc::GepStore {
                                gep_dst,
                                base: b,
                                index: x,
                                val,
                            },
                            ins.sid.0,
                            bi,
                            ii,
                        ));
                        pcs.push(lo.emit(Bc::Store { addr: gep_dst, val }, next.sid.0, bi, ii + 1));
                        i += 2;
                        continue;
                    }
                    let (b, x) = (lo.reg(base), lo.reg(index));
                    pcs.push(lo.emit(
                        Bc::Gep {
                            dst: gep_dst,
                            base: b,
                            index: x,
                        },
                        ins.sid.0,
                        bi,
                        ii,
                    ));
                    i += 1;
                }
                // Compare-and-branch fusion: a block-terminal compare
                // feeding the conditional branch.
                Op::Icmp { .. } | Op::Fcmp { .. }
                    if i + 1 == n
                        && matches!(
                            (&block.term, ins.result),
                            (
                                Term::CondBr {
                                    cond: Operand::Value(c),
                                    ..
                                },
                                Some(r)
                            ) if *c == r
                        ) =>
                {
                    let dst = lo.result_reg(ins);
                    let (then_target, then_args, else_target, else_args) = match &block.term {
                        Term::CondBr {
                            then_target,
                            then_args,
                            else_target,
                            else_args,
                            ..
                        } => (then_target.0, then_args, else_target.0, else_args),
                        _ => unreachable!(),
                    };
                    let e = lo.edge(then_target, then_args);
                    let e2 = lo.edge(else_target, else_args);
                    debug_assert_eq!(e2, e + 1, "cond-br edges are allocated adjacently");
                    let fused = match &ins.op {
                        Op::Icmp { pred, a, b } => {
                            let (ra, rb) = (lo.reg(a), lo.reg(b));
                            Bc::CmpBrI {
                                pred: *pred,
                                dst,
                                a: ra,
                                b: rb,
                                edge: e,
                            }
                        }
                        Op::Fcmp { pred, a, b } => {
                            let (ra, rb) = (lo.reg(a), lo.reg(b));
                            Bc::CmpBrF {
                                pred: *pred,
                                dst,
                                a: ra,
                                b: rb,
                                edge: e,
                            }
                        }
                        _ => unreachable!(),
                    };
                    pcs.push(lo.emit(fused, ins.sid.0, bi, ii));
                    // Unfused cond-br stub doubles as the block's
                    // terminator position.
                    pcs.push(lo.emit(Bc::CondBr { cond: dst, edge: e }, u32::MAX, bi, ii + 1));
                    term_done = true;
                    i += 1;
                }
                // Loop-latch fusion: an i64 add immediately followed by
                // the block-terminal compare feeding the conditional
                // branch (the canonical counted-loop back edge).
                Op::Bin {
                    op: BinOp::Add,
                    a,
                    b,
                } if i + 2 == n
                    && lo.func.operand_ty(a) == Ty::I64
                    && matches!(&block.instrs[i + 1].op, Op::Icmp { .. })
                    && matches!(
                        (&block.term, block.instrs[i + 1].result),
                        (
                            Term::CondBr {
                                cond: Operand::Value(c),
                                ..
                            },
                            Some(r)
                        ) if *c == r
                    ) =>
                {
                    let dst = lo.result_reg(ins);
                    let (ra, rb) = (lo.reg(a), lo.reg(b));
                    let next = &block.instrs[i + 1];
                    let cdst = lo.result_reg(next);
                    let (pred, ca, cb) = match &next.op {
                        Op::Icmp { pred, a, b } => (*pred, lo.reg(a), lo.reg(b)),
                        _ => unreachable!(),
                    };
                    let (then_target, then_args, else_target, else_args) = match &block.term {
                        Term::CondBr {
                            then_target,
                            then_args,
                            else_target,
                            else_args,
                            ..
                        } => (then_target.0, then_args, else_target.0, else_args),
                        _ => unreachable!(),
                    };
                    let e = lo.edge(then_target, then_args);
                    let e2 = lo.edge(else_target, else_args);
                    debug_assert_eq!(e2, e + 1, "cond-br edges are allocated adjacently");
                    pcs.push(lo.emit(
                        Bc::IAddCmpBrI {
                            dst,
                            a: ra,
                            b: rb,
                            pred,
                            cdst,
                            ca,
                            cb,
                            edge: e,
                        },
                        ins.sid.0,
                        bi,
                        ii,
                    ));
                    // Unfused compare-and-branch at pc + 1 (resume /
                    // boundary entry), with its own cond-br stub at
                    // pc + 2 doubling as the terminator position.
                    pcs.push(lo.emit(
                        Bc::CmpBrI {
                            pred,
                            dst: cdst,
                            a: ca,
                            b: cb,
                            edge: e,
                        },
                        next.sid.0,
                        bi,
                        ii + 1,
                    ));
                    pcs.push(lo.emit(
                        Bc::CondBr {
                            cond: cdst,
                            edge: e,
                        },
                        u32::MAX,
                        bi,
                        ii + 2,
                    ));
                    term_done = true;
                    i += 2;
                }
                // Multiply-add fusion: an f64 multiply feeding the very
                // next instruction, an f64 add.
                Op::Bin {
                    op: BinOp::FMul,
                    a,
                    b,
                } if i + 1 < n
                    && lo.func.operand_ty(a) == Ty::F64
                    && ins
                        .result
                        .is_some_and(|r| adds_through(&block.instrs[i + 1].op, r)) =>
                {
                    let t = lo.result_reg(ins);
                    let next = &block.instrs[i + 1];
                    let dst = lo.result_reg(next);
                    let (ra, rb) = (lo.reg(a), lo.reg(b));
                    let (x, y) = match &next.op {
                        Op::Bin { a: x, b: y, .. } => (lo.reg(x), lo.reg(y)),
                        _ => unreachable!(),
                    };
                    pcs.push(lo.emit(
                        Bc::FMulAdd {
                            t,
                            a: ra,
                            b: rb,
                            dst,
                            x,
                            y,
                        },
                        ins.sid.0,
                        bi,
                        ii,
                    ));
                    // Unfused add at pc + 1: the resume / boundary-
                    // bailout entry point.
                    pcs.push(lo.emit(Bc::FAdd { dst, a: x, b: y }, next.sid.0, bi, ii + 1));
                    i += 2;
                    continue;
                }
                _ => {
                    let bc = plain_bc(&mut lo, ins);
                    pcs.push(lo.emit(bc, ins.sid.0, bi, ii));
                    i += 1;
                }
            }
        }
        if !term_done {
            let tpc = match block.term.clone() {
                Term::Br { target, args } => {
                    let e = lo.edge(target.0, &args);
                    lo.emit(Bc::Br { edge: e }, u32::MAX, bi, n as u32)
                }
                Term::CondBr {
                    cond,
                    then_target,
                    then_args,
                    else_target,
                    else_args,
                } => {
                    let c = lo.reg(&cond);
                    let e = lo.edge(then_target.0, &then_args);
                    let e2 = lo.edge(else_target.0, &else_args);
                    debug_assert_eq!(e2, e + 1);
                    lo.emit(Bc::CondBr { cond: c, edge: e }, u32::MAX, bi, n as u32)
                }
                Term::Ret { value } => {
                    let val = value.as_ref().map_or(NO_REG, |v| lo.reg(v));
                    lo.emit(Bc::Ret { val }, u32::MAX, bi, n as u32)
                }
            };
            pcs.push(tpc);
        }
        debug_assert_eq!(pcs.len(), n + 1);
        lo.pc_of.push(pcs);
    }

    // Patch edge targets from block ids to entry pcs.
    for e in &mut lo.edges {
        e.target_pc = lo.pc_of[e.target_pc as usize][0];
    }

    let seg = seg_table(&lo.code);
    let mut frame_image = vec![0u64; lo.num_values];
    frame_image.extend_from_slice(&lo.consts);
    CompiledFunc {
        code: lo.code,
        sids: lo.sids,
        meta: lo.meta,
        pc_of: lo.pc_of,
        num_values: lo.num_values,
        consts: lo.consts,
        edges: lo.edges,
        moves: lo.moves,
        call_args: lo.call_args,
        seg,
        frame_image,
    }
}

/// Backward sweep computing [`SegInfo`] for every pc. Fused pairs
/// count both covered instructions and skip their unfused stub; the
/// stub pc gets its own (independent) segment summary, since resumes
/// and boundary bailouts can land there.
fn seg_table(code: &[Bc]) -> Vec<SegInfo> {
    let mut seg = vec![
        SegInfo {
            n_ops: 0,
            n_defs: 0
        };
        code.len()
    ];
    let add = |s: SegInfo, ops: u32, defs: u32| SegInfo {
        n_ops: s.n_ops + ops,
        n_defs: s.n_defs + defs,
    };
    for pc in (0..code.len()).rev() {
        seg[pc] = match code[pc] {
            Bc::Br { .. } | Bc::CondBr { .. } | Bc::Ret { .. } | Bc::Call { .. } => SegInfo {
                n_ops: 0,
                n_defs: 0,
            },
            Bc::CmpBrI { .. } | Bc::CmpBrF { .. } => SegInfo {
                n_ops: 1,
                n_defs: 1,
            },
            Bc::IAddCmpBrI { .. } => SegInfo {
                n_ops: 2,
                n_defs: 2,
            },
            Bc::GepLoad { .. } | Bc::FMulAdd { .. } => add(seg[pc + 2], 2, 2),
            Bc::GepStore { .. } => add(seg[pc + 2], 2, 1),
            Bc::Store { .. } | Bc::Output { .. } => add(seg[pc + 1], 1, 0),
            _ => add(seg[pc + 1], 1, 1),
        };
    }
    seg
}

fn plain_bc(lo: &mut Lowerer<'_>, ins: &peppa_ir::Instr) -> Bc {
    let dst = lo.result_reg(ins);
    match &ins.op {
        Op::Bin { op, a, b } => {
            let ty = lo.func.operand_ty(a);
            let (ra, rb) = (lo.reg(a), lo.reg(b));
            match (op, ty) {
                (BinOp::Add, Ty::I64) => Bc::IAdd { dst, a: ra, b: rb },
                (BinOp::Sub, Ty::I64) => Bc::ISub { dst, a: ra, b: rb },
                (BinOp::Mul, Ty::I64) => Bc::IMul { dst, a: ra, b: rb },
                (BinOp::FAdd, Ty::F64) => Bc::FAdd { dst, a: ra, b: rb },
                (BinOp::FSub, Ty::F64) => Bc::FSub { dst, a: ra, b: rb },
                (BinOp::FMul, Ty::F64) => Bc::FMul { dst, a: ra, b: rb },
                (BinOp::FDiv, Ty::F64) => Bc::FDiv { dst, a: ra, b: rb },
                _ => Bc::Bin {
                    op: *op,
                    ty,
                    dst,
                    a: ra,
                    b: rb,
                },
            }
        }
        Op::Un { op, a } => {
            let ty = lo.func.operand_ty(a);
            let ra = lo.reg(a);
            Bc::Un {
                op: *op,
                ty,
                dst,
                a: ra,
            }
        }
        Op::Icmp { pred, a, b } => {
            let (ra, rb) = (lo.reg(a), lo.reg(b));
            Bc::Icmp {
                pred: *pred,
                dst,
                a: ra,
                b: rb,
            }
        }
        Op::Fcmp { pred, a, b } => {
            let (ra, rb) = (lo.reg(a), lo.reg(b));
            Bc::Fcmp {
                pred: *pred,
                dst,
                a: ra,
                b: rb,
            }
        }
        Op::Select { cond, t, f } => {
            let (rc, rt, rf) = (lo.reg(cond), lo.reg(t), lo.reg(f));
            Bc::Select {
                dst,
                cond: rc,
                t: rt,
                f: rf,
            }
        }
        Op::Cast { kind, a, to } => {
            let from = lo.func.operand_ty(a);
            let ra = lo.reg(a);
            Bc::Cast {
                kind: *kind,
                from,
                to: *to,
                dst,
                a: ra,
            }
        }
        Op::Load { addr, ty } => {
            let ra = lo.reg(addr);
            Bc::Load {
                ty: *ty,
                dst,
                addr: ra,
            }
        }
        Op::Store { addr, value } => {
            let (ra, rv) = (lo.reg(addr), lo.reg(value));
            Bc::Store { addr: ra, val: rv }
        }
        Op::Gep { base, index } => {
            let (rb, ri) = (lo.reg(base), lo.reg(index));
            Bc::Gep {
                dst,
                base: rb,
                index: ri,
            }
        }
        Op::Alloca { words } => {
            let rw = lo.reg(words);
            Bc::Alloca { dst, words: rw }
        }
        Op::Call { func, args } => {
            let start = lo.call_args.len() as u32;
            let regs: Vec<u32> = args.iter().map(|a| lo.reg(a)).collect();
            lo.call_args.extend(regs);
            Bc::Call {
                callee: *func,
                args: start,
                dst,
            }
        }
        Op::Output { value } => {
            let rv = lo.reg(value);
            Bc::Output { val: rv }
        }
    }
}

/// Post-lowering validation: every register index, edge target, and
/// pool range is in bounds. The dispatch loop's unchecked register
/// accesses are sound exactly because this sweep ran.
fn validate(module: &Module, cm: &CompiledModule) {
    assert_eq!(module.functions.len(), cm.funcs.len());
    for (func, cf) in module.functions.iter().zip(&cm.funcs) {
        let total = cf.num_regs() as u32;
        let nv = cf.num_values as u32;
        let npc = cf.code.len() as u32;
        assert_eq!(cf.sids.len(), cf.code.len());
        assert_eq!(cf.meta.len(), cf.code.len());
        assert_eq!(cf.pc_of.len(), func.blocks.len());
        for (b, pcs) in func.blocks.iter().zip(&cf.pc_of) {
            assert_eq!(pcs.len(), b.instrs.len() + 1);
            assert!(pcs.iter().all(|&p| p < npc));
        }
        let src = |r: u32| assert!(r < total, "source register out of bounds");
        let dst = |r: u32| assert!(r < nv, "destination register out of bounds");
        let opt_dst = |r: u32| assert!(r == NO_REG || r < nv);
        let edge = |e: u32| {
            let ed = &cf.edges[e as usize];
            assert!(ed.target_pc < npc);
            let lo = ed.moves_start as usize;
            let hi = lo + ed.moves_len as usize;
            assert!(hi <= cf.moves.len());
            for &(d, s) in &cf.moves[lo..hi] {
                assert!(d < nv && s < total);
            }
        };
        for (pc, bc) in cf.code.iter().enumerate() {
            match *bc {
                Bc::Bin { dst: d, a, b, .. }
                | Bc::Icmp { dst: d, a, b, .. }
                | Bc::Fcmp { dst: d, a, b, .. }
                | Bc::IAdd { dst: d, a, b }
                | Bc::ISub { dst: d, a, b }
                | Bc::IMul { dst: d, a, b }
                | Bc::FAdd { dst: d, a, b }
                | Bc::FSub { dst: d, a, b }
                | Bc::FMul { dst: d, a, b }
                | Bc::FDiv { dst: d, a, b } => {
                    dst(d);
                    src(a);
                    src(b);
                }
                Bc::FMulAdd {
                    t,
                    a,
                    b,
                    dst: d,
                    x,
                    y,
                } => {
                    dst(t);
                    dst(d);
                    src(a);
                    src(b);
                    src(x);
                    src(y);
                    assert!(x == t || y == t, "mul-add fusion must read its multiply");
                    assert!(
                        matches!(cf.code[pc + 1], Bc::FAdd { dst, a, b } if dst == d && a == x && b == y),
                        "mul-add stub mismatch at pc {pc}"
                    );
                }
                Bc::Un { dst: d, a, .. } | Bc::Cast { dst: d, a, .. } => {
                    dst(d);
                    src(a);
                }
                Bc::Select {
                    dst: d, cond, t, f, ..
                } => {
                    dst(d);
                    src(cond);
                    src(t);
                    src(f);
                }
                Bc::Load { dst: d, addr, .. } => {
                    dst(d);
                    src(addr);
                }
                Bc::Store { addr, val } => {
                    src(addr);
                    src(val);
                }
                Bc::Gep {
                    dst: d,
                    base,
                    index,
                } => {
                    dst(d);
                    src(base);
                    src(index);
                }
                Bc::Alloca { dst: d, words } => {
                    dst(d);
                    src(words);
                }
                Bc::Output { val } => src(val),
                Bc::Call {
                    callee,
                    args,
                    dst: d,
                } => {
                    opt_dst(d);
                    let f = module.func(callee);
                    let lo = args as usize;
                    let hi = lo + f.params.len();
                    assert!(hi <= cf.call_args.len());
                    for &r in &cf.call_args[lo..hi] {
                        src(r);
                    }
                }
                Bc::Br { edge: e } => edge(e),
                Bc::CondBr { cond, edge: e } => {
                    src(cond);
                    edge(e);
                    edge(e + 1);
                }
                Bc::Ret { val } => {
                    if val != NO_REG {
                        src(val);
                    }
                }
                Bc::CmpBrI {
                    dst: d,
                    a,
                    b,
                    edge: e,
                    ..
                }
                | Bc::CmpBrF {
                    dst: d,
                    a,
                    b,
                    edge: e,
                    ..
                } => {
                    dst(d);
                    src(a);
                    src(b);
                    edge(e);
                    edge(e + 1);
                    // The stub at pc + 1 must be the unfused cond-br.
                    assert!(
                        matches!(cf.code[pc + 1], Bc::CondBr { cond, edge } if cond == d && edge == e),
                        "cmp-br stub mismatch at pc {pc}"
                    );
                }
                Bc::IAddCmpBrI {
                    dst: d,
                    a,
                    b,
                    pred,
                    cdst,
                    ca,
                    cb,
                    edge: e,
                } => {
                    dst(d);
                    dst(cdst);
                    src(a);
                    src(b);
                    src(ca);
                    src(cb);
                    edge(e);
                    edge(e + 1);
                    // Stubs: the unfused cmp-br at pc + 1, its own
                    // cond-br stub at pc + 2.
                    assert!(
                        matches!(cf.code[pc + 1], Bc::CmpBrI { pred: p, dst, a, b, edge }
                            if p == pred && dst == cdst && a == ca && b == cb && edge == e),
                        "latch cmp-br stub mismatch at pc {pc}"
                    );
                    assert!(
                        matches!(cf.code[pc + 2], Bc::CondBr { cond, edge } if cond == cdst && edge == e),
                        "latch cond-br stub mismatch at pc {pc}"
                    );
                }
                Bc::GepLoad {
                    gep_dst,
                    base,
                    index,
                    dst: d,
                    ..
                } => {
                    dst(gep_dst);
                    dst(d);
                    src(base);
                    src(index);
                    assert!(
                        matches!(cf.code[pc + 1], Bc::Load { dst, addr, .. } if dst == d && addr == gep_dst),
                        "gep-load stub mismatch at pc {pc}"
                    );
                }
                Bc::GepStore {
                    gep_dst,
                    base,
                    index,
                    val,
                } => {
                    dst(gep_dst);
                    src(base);
                    src(index);
                    src(val);
                    assert!(
                        matches!(cf.code[pc + 1], Bc::Store { addr, val: v } if addr == gep_dst && v == val),
                        "gep-store stub mismatch at pc {pc}"
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peppa_ir::ModuleBuilder;

    fn loop_module() -> Module {
        // sum = 0; for i in 0..n { sum += buf[i] } ; output sum
        let mut mb = ModuleBuilder::new("lower-test");
        let buf = mb.global_init("buf", 8, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        let f = mb.declare("main", &[Ty::I64], Some(Ty::I64));
        mb.set_entry(f);
        let mut fb = mb.define(f);
        let n = fb.param(0);
        let (body, bp) = fb.new_block(&[Ty::I64, Ty::I64]);
        let (done, dp) = fb.new_block(&[Ty::I64]);
        fb.br(body, &[Operand::i64(0), Operand::i64(0)]);
        fb.switch_to(body);
        let (i, acc) = (bp[0], bp[1]);
        let p = fb.gep(buf, i);
        let v = fb.load(p, Ty::I64);
        let acc2 = fb.add(acc, v);
        let i2 = fb.add(i, Operand::i64(1));
        let c = fb.icmp(IPred::Slt, i2, n);
        fb.cond_br(c, body, &[i2, acc2], done, &[acc2]);
        fb.switch_to(done);
        fb.output(dp[0]);
        fb.ret(Some(dp[0]));
        fb.finish();
        mb.finish()
    }

    #[test]
    fn lowering_emits_fused_pairs_with_stubs() {
        let m = loop_module();
        let cm = CompiledModule::lower(&m);
        assert!(cm.fused_pairs() >= 2, "expected gep-load and cmp-br fusion");
        let cf = &cm.funcs[m.entry.0 as usize];
        // Every (block, instr) coordinate has a resume pc.
        for (bi, b) in m.entry_func().blocks.iter().enumerate() {
            assert_eq!(cf.pc_of[bi].len(), b.instrs.len() + 1);
        }
    }

    #[test]
    fn const_pool_is_deduped() {
        let m = loop_module();
        let cm = CompiledModule::lower(&m);
        let cf = &cm.funcs[m.entry.0 as usize];
        let mut seen = std::collections::HashSet::new();
        for &c in &cf.consts {
            assert!(seen.insert(c), "duplicate constant {c:#x} in pool");
        }
    }

    #[test]
    fn meta_covers_every_pc() {
        let m = loop_module();
        let cm = CompiledModule::lower(&m);
        for (f, cf) in m.functions.iter().zip(&cm.funcs) {
            for (pc, &(b, i)) in cf.meta.iter().enumerate() {
                assert!((b as usize) < f.blocks.len(), "pc {pc} block out of range");
                assert!(i as usize <= f.blocks[b as usize].instrs.len());
            }
        }
    }
}
