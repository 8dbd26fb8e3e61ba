//! Shadow-taint fault-provenance engine.
//!
//! [`TaintHook`] rides the [`ExecHook`] seam and mirrors the interpreter's
//! state with a *shadow* state: one 64-bit taint mask per live register,
//! per memory word, and per in-flight return value. The mask is seeded at
//! the injection point with the exact canonical flip mask and propagated
//! forward per opcode. Bit `i` of a mask means "bit `i` of this canonical
//! value may differ from the fault-free run".
//!
//! # The matter-mask contract
//!
//! The forward transfer of every opcode here is the *adjoint* of the
//! backward per-bit transfer in `peppa-analysis`'s `reach.rs`: taint bit
//! `j` appears in a result exactly when the static rule says operand bit
//! `i` (for some tainted `i`) matters to result bit `j`, over the same
//! canonical representation (i1 in bit 0, i32 with bits 31..63 folded
//! into one sign group). This gives the containment property the
//! `repro provenance` experiment checks: if a traced run's taint reaches
//! a sink, the executed def-use chain is one of the paths the backward
//! analysis joined over, so the seed bit is in the static matter mask and
//! the cell is not provably masked. A dynamically-propagating cell that
//! the static analysis calls provably masked is a soundness bug in one
//! of the two engines.
//!
//! Masks are a *superset* of the bits that actually differ between the
//! clean and faulty concrete executions (checked differentially by
//! proptest): rules for bitwise/shift/arithmetic ops are per-bit precise,
//! everything else (FP, division data paths, comparisons) degrades to
//! all-or-nothing.
//!
//! # Sinks
//!
//! Propagation is declared when taint reaches an *observable sink* — the
//! same sink set `reach.rs` seeds its backward analysis with: `output`
//! operands, the entry function's return value, branch conditions, memory
//! addresses, divisors, and allocation sizes. After the first sink hit,
//! control flow (and therefore concrete addresses) may diverge from the
//! clean run, so shadow state past that point is best-effort; the
//! first-sink record itself is taken before any divergence and is sound.

use crate::hooks::ExecHook;
use peppa_ir::{BinOp, CastKind, FuncId, Function, Instr, Module, Op, Operand, Ty, UnOp, ValueId};
use std::collections::HashMap;

const FULL: u64 = u64::MAX;

/// Bit `i` set iff `m` has any bit at position ≥ `i`.
#[inline]
fn smear_down(m: u64) -> u64 {
    let mut m = m;
    m |= m >> 1;
    m |= m >> 2;
    m |= m >> 4;
    m |= m >> 8;
    m |= m >> 16;
    m |= m >> 32;
    m
}

/// Bit `i` set iff `m` has any bit at position ≤ `i`.
#[inline]
fn smear_up(m: u64) -> u64 {
    let mut m = m;
    m |= m << 1;
    m |= m << 2;
    m |= m << 4;
    m |= m << 8;
    m |= m << 16;
    m |= m << 32;
    m
}

#[inline]
fn width_mask(w: u32) -> u64 {
    if w >= 64 {
        FULL
    } else {
        (1u64 << w) - 1
    }
}

#[inline]
fn full_if(t: u64) -> u64 {
    if t != 0 {
        FULL
    } else {
        0
    }
}

/// Folds a taint mask into the canonical-form bits of type `ty` — the
/// same folding `reach.rs::canon_matter` applies to matter masks (the
/// shared matter-mask contract): i1 carries bit 0 only, canonical i32
/// mirrors bit 31 across the whole high group.
#[inline]
pub fn canon_taint(ty: Ty, t: u64) -> u64 {
    const HIGH: u64 = 0xFFFF_FFFF_8000_0000;
    match ty {
        Ty::I1 => t & 1,
        Ty::I32 => {
            if t & HIGH != 0 {
                (t & 0x7FFF_FFFF) | HIGH
            } else {
                t
            }
        }
        _ => t,
    }
}

fn const_bits(o: &Operand) -> Option<u64> {
    match o {
        Operand::Const(c) => Some(c.bits),
        Operand::Value(_) => None,
    }
}

/// Forward taint transfer for a binary op: taint of the result given the
/// operand taints. Adjoint of `reach.rs::bin_contribution`.
fn bin_taint(op: BinOp, w: u32, a: &Operand, b: &Operand, ta: u64, tb: u64) -> u64 {
    match op {
        // Carries move influence strictly upward.
        BinOp::Add | BinOp::Sub => smear_up(ta | tb),
        BinOp::Mul => {
            // A deviation that is a multiple of 2^i times a constant
            // multiple of 2^k deviates the product only at bits ≥ i+k.
            let via = |t: u64, other: &Operand| match const_bits(other) {
                Some(0) => 0,
                Some(c) => smear_up(t) << (c.trailing_zeros().min(63)),
                None => smear_up(t),
            };
            via(ta, b) | via(tb, a)
        }
        BinOp::SDiv => full_if(ta | tb),
        BinOp::SRem => {
            let dividend = if ta != 0 {
                // Truncated remainder by ±2^k depends only on the
                // dividend's low k bits and its sign bit.
                match const_bits(b).map(|c| (c as i64).unsigned_abs()) {
                    Some(m) if m.is_power_of_two() => {
                        let k = m.trailing_zeros();
                        if k == 0 {
                            0 // x % ±1 == 0 regardless of x
                        } else {
                            full_if(ta & (width_mask(k) | (1u64 << (w - 1))))
                        }
                    }
                    _ => FULL,
                }
            } else {
                0
            };
            dividend | full_if(tb)
        }
        BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv => full_if(ta | tb),
        BinOp::And => {
            let via = |t: u64, other: &Operand| match const_bits(other) {
                Some(c) => t & c,
                None => t,
            };
            via(ta, b) | via(tb, a)
        }
        BinOp::Or => {
            let via = |t: u64, other: &Operand| match const_bits(other) {
                Some(c) => t & !c,
                None => t,
            };
            via(ta, b) | via(tb, a)
        }
        BinOp::Xor => ta | tb,
        BinOp::Shl | BinOp::LShr | BinOp::AShr => {
            let amt_mask = (w - 1).max(1) as u64;
            if tb & amt_mask != 0 {
                // The shift amount itself may deviate: any result bit can.
                return FULL;
            }
            match const_bits(b).map(|c| (c & amt_mask) as u32) {
                Some(s) => match op {
                    BinOp::Shl => ta << s,
                    BinOp::LShr => (ta & width_mask(w)) >> s,
                    // Arithmetic shift of the canonical mask replicates a
                    // deviating sign into the vacated top bits.
                    BinOp::AShr => ((ta as i64) >> s) as u64,
                    _ => unreachable!(),
                },
                None => match op {
                    // Equal-but-unknown amount: bits move only up (shl)
                    // or only down (shr).
                    BinOp::Shl => smear_up(ta),
                    BinOp::LShr => smear_down(ta & width_mask(w)),
                    BinOp::AShr => smear_down(ta & width_mask(w)),
                    _ => unreachable!(),
                },
            }
        }
    }
}

/// Where taint first reached an observable — the sink categories
/// `reach.rs` seeds its backward analysis with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkKind {
    /// Operand of an `output` instruction.
    Output,
    /// The entry function's return value.
    Ret,
    /// A conditional branch condition.
    BranchCond,
    /// A load/store address.
    MemAddr,
    /// An integer divisor (trap surface).
    Divisor,
    /// An `alloca` word count.
    AllocaSize,
}

impl SinkKind {
    pub fn as_str(self) -> &'static str {
        match self {
            SinkKind::Output => "output",
            SinkKind::Ret => "ret",
            SinkKind::BranchCond => "branch_cond",
            SinkKind::MemAddr => "mem_addr",
            SinkKind::Divisor => "divisor",
            SinkKind::AllocaSize => "alloca_size",
        }
    }
}

/// First taint arrival at a sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkHit {
    pub kind: SinkKind,
    /// Static id of the sink instruction; `None` for terminator sinks
    /// (branch conditions, the entry return).
    pub sid: Option<u32>,
    /// Dynamic (non-terminator) instruction index at the hit, 1-based.
    pub dynamic: u64,
}

/// Provenance summary of one traced faulty run.
#[derive(Debug, Clone, Default)]
pub struct TaintReport {
    /// Whether the injection activated (taint was seeded).
    pub seeded: bool,
    /// Dynamic index of the corrupted instruction (1-based), 0 if never
    /// seeded.
    pub seed_dynamic: u64,
    /// Static id of the corrupted instruction.
    pub seed_sid: u32,
    /// Canonical XOR mask the flip applied.
    pub seed_mask: u64,
    /// Value definitions that carried taint (propagation hop count).
    pub tainted_defs: u64,
    /// Per-static-instruction taint touch counts, sparse and sorted by
    /// sid: an instruction is "touched" on a dynamic execution that read
    /// or produced tainted data.
    pub sid_hits: Vec<(u32, u64)>,
    /// First taint arrival at an observable sink, if any.
    pub first_sink: Option<SinkHit>,
    /// Dynamic index of the first `output` executed with a tainted
    /// operand — the first taint-carrying observable write.
    pub first_tainted_output: Option<u64>,
    /// Dynamic index at which the last tainted location died (register
    /// overwritten, memory overwritten/cleared, or frame popped), if the
    /// taint went extinct before the run ended.
    pub extinction_dynamic: Option<u64>,
    /// Tainted locations (registers + memory words) still live at run
    /// end.
    pub live_at_end: u64,
}

impl TaintReport {
    /// Taint reached an observable sink: the fault *dynamically
    /// propagated* (the witness for the static containment check).
    pub fn propagated(&self) -> bool {
        self.first_sink.is_some()
    }

    /// Taint died before reaching any sink.
    pub fn extinguished(&self) -> bool {
        self.first_sink.is_none() && self.extinction_dynamic.is_some()
    }

    /// Distinct static instructions that touched taint.
    pub fn sids_touched(&self) -> usize {
        self.sid_hits.len()
    }
}

struct Frame {
    fid: FuncId,
    regs: Vec<u64>,
}

struct Seed {
    dynamic: u64,
    sid: u32,
    mask: u64,
}

/// The shadow engine. One instance traces exactly one run (construct
/// fresh per [`crate::Vm::run_with_hook`] call, then [`finish`]).
///
/// [`finish`]: TaintHook::finish
pub struct TaintHook<'m> {
    module: &'m Module,
    frames: Vec<Frame>,
    mem: HashMap<u64, u64>,
    scratch: Vec<u64>,
    /// Count of non-terminator dynamic instructions seen, 1-based inside
    /// callbacks (mirrors `Profile::dynamic`).
    dyn_index: u64,
    seed: Option<Seed>,
    /// Seed mask waiting for the corrupted instruction's `def_value`.
    pending_seed: u64,
    seed_applied: bool,
    /// Shadow of the word a `load` just read, consumed by its def.
    pending_load: u64,
    /// Shadow of the value a callee just returned, consumed by the call's
    /// def (or discarded at the next instruction for void calls).
    pending_ret: u64,
    /// Locations (registers + memory words) currently holding nonzero
    /// taint.
    live: u64,
    hits: Vec<u64>,
    counted_dyn: u64,
    tainted_defs: u64,
    first_tainted_output: Option<u64>,
    extinct_at: Option<u64>,
    first_sink: Option<SinkHit>,
    /// When enabled, the canonical taint mask of every value definition
    /// in dynamic def order (pre-seed defs record 0) — the alignment the
    /// differential superset property test checks against concrete runs.
    def_trace: Option<Vec<u64>>,
}

impl<'m> TaintHook<'m> {
    pub fn new(module: &'m Module) -> TaintHook<'m> {
        let entry = module.func(module.entry);
        TaintHook {
            module,
            frames: vec![Frame {
                fid: module.entry,
                regs: vec![0; entry.value_types.len()],
            }],
            mem: HashMap::new(),
            scratch: Vec::new(),
            dyn_index: 0,
            seed: None,
            pending_seed: 0,
            seed_applied: false,
            pending_load: 0,
            pending_ret: 0,
            live: 0,
            hits: vec![0; module.num_instrs],
            counted_dyn: 0,
            tainted_defs: 0,
            first_tainted_output: None,
            extinct_at: None,
            first_sink: None,
            def_trace: None,
        }
    }

    /// A shadow engine aligned with a run resumed from `snap` (see
    /// [`crate::Vm::resume_from_with_hook`]): the dynamic-instruction
    /// mirror continues from the snapshot's counter and the shadow frame
    /// stack matches the snapshot's live frames, all with zero taint.
    /// Because every location's taint is zero until the fault seeds it —
    /// and a resumed trial's injection always lies at or after the
    /// snapshot — the resulting [`TaintReport`] is identical to what a
    /// full-prefix traced run would produce.
    pub fn resumed(module: &'m Module, snap: &crate::VmSnapshot) -> TaintHook<'m> {
        let mut hook = TaintHook::new(module);
        hook.dyn_index = snap.dynamic();
        hook.frames = snap
            .frame_fids()
            .iter()
            .map(|&fid| Frame {
                fid,
                regs: vec![0; module.func(fid).value_types.len()],
            })
            .collect();
        hook
    }

    /// Records the taint mask of every value definition, retrievable via
    /// [`def_trace`](TaintHook::def_trace). Entry `k` aligns with the
    /// `k`-th value-producing dynamic instruction (the same indexing
    /// `InjectionTarget::DynamicIndex` uses).
    pub fn enable_def_trace(&mut self) {
        self.def_trace = Some(Vec::new());
    }

    /// Per-def taint masks recorded since [`enable_def_trace`]
    /// (empty if never enabled).
    ///
    /// [`enable_def_trace`]: TaintHook::enable_def_trace
    pub fn def_trace(&self) -> &[u64] {
        self.def_trace.as_deref().unwrap_or(&[])
    }

    pub fn finish(self) -> TaintReport {
        let sid_hits: Vec<(u32, u64)> = self
            .hits
            .iter()
            .enumerate()
            .filter(|(_, &h)| h > 0)
            .map(|(s, &h)| (s as u32, h))
            .collect();
        TaintReport {
            seeded: self.seed.is_some(),
            seed_dynamic: self.seed.as_ref().map_or(0, |s| s.dynamic),
            seed_sid: self.seed.as_ref().map_or(0, |s| s.sid),
            seed_mask: self.seed.as_ref().map_or(0, |s| s.mask),
            tainted_defs: self.tainted_defs,
            sid_hits,
            first_sink: self.first_sink,
            first_tainted_output: self.first_tainted_output,
            extinction_dynamic: self.extinct_at,
            live_at_end: self.live,
        }
    }

    fn cur_func(&self) -> &'m Function {
        self.module.func(self.frames.last().expect("no frame").fid)
    }

    /// Taint of an operand in the current frame.
    fn t_op(&self, o: &Operand) -> u64 {
        match o {
            Operand::Const(_) => 0,
            Operand::Value(v) => self.frames.last().map_or(0, |f| f.regs[v.0 as usize]),
        }
    }

    fn set_reg(&mut self, v: ValueId, t: u64) {
        let f = self.frames.last_mut().expect("no frame");
        let slot = &mut f.regs[v.0 as usize];
        self.live = self.live + (t != 0) as u64 - (*slot != 0) as u64;
        *slot = t;
    }

    fn set_mem(&mut self, addr: u64, t: u64) {
        if t != 0 {
            if self.mem.insert(addr, t).is_none_or(|old| old == 0) {
                self.live += 1;
            }
        } else if self.mem.remove(&addr).is_some_and(|old| old != 0) {
            self.live -= 1;
        }
    }

    fn sink(&mut self, kind: SinkKind, sid: Option<u32>) {
        if self.first_sink.is_none() {
            self.first_sink = Some(SinkHit {
                kind,
                sid,
                dynamic: self.dyn_index,
            });
        }
    }

    fn maybe_extinct(&mut self) {
        if self.seed_applied
            && self.live == 0
            && self.pending_ret == 0
            && self.pending_seed == 0
            && self.extinct_at.is_none()
        {
            self.extinct_at = Some(self.dyn_index);
        }
    }

    fn touch(&mut self, sid: u32) {
        if self.counted_dyn != self.dyn_index {
            self.hits[sid as usize] += 1;
            self.counted_dyn = self.dyn_index;
        }
    }

    fn any_operand_tainted(&self, op: &Op) -> bool {
        let t = |o: &Operand| self.t_op(o) != 0;
        match op {
            Op::Bin { a, b, .. } | Op::Icmp { a, b, .. } | Op::Fcmp { a, b, .. } => t(a) || t(b),
            Op::Un { a, .. } | Op::Cast { a, .. } => t(a),
            Op::Select { cond, t: tv, f } => t(cond) || t(tv) || t(f),
            Op::Load { addr, .. } => t(addr),
            Op::Store { addr, value } => t(addr) || t(value),
            Op::Gep { base, index } => t(base) || t(index),
            Op::Alloca { words } => t(words),
            Op::Call { args, .. } => args.iter().any(t),
            Op::Output { value } => t(value),
        }
    }

    /// Forward transfer: result taint of a value-producing op.
    fn result_taint(&mut self, func: &Function, op: &Op) -> u64 {
        match op {
            Op::Bin { op, a, b } => {
                let w = func.operand_ty(a).bits();
                bin_taint(*op, w, a, b, self.t_op(a), self.t_op(b))
            }
            Op::Un { op, a } => {
                let ta = self.t_op(a);
                match op {
                    UnOp::Not => ta,
                    UnOp::FNeg => ta, // per-bit bijection on payload+sign
                    UnOp::FAbs => ta & !(1u64 << 63),
                    _ => full_if(ta),
                }
            }
            Op::Icmp { a, b, .. } | Op::Fcmp { a, b, .. } => {
                full_if(self.t_op(a) | self.t_op(b)) & 1
            }
            Op::Select { cond, t, f } => {
                if self.t_op(cond) & 1 != 0 {
                    FULL
                } else {
                    self.t_op(t) | self.t_op(f)
                }
            }
            Op::Cast { kind, a, to } => {
                let from = func.operand_ty(a);
                let ta = self.t_op(a);
                match kind {
                    CastKind::Trunc => ta & width_mask(to.bits()),
                    CastKind::ZExt => ta & width_mask(from.bits()),
                    CastKind::SExt => {
                        if from == Ty::I1 {
                            full_if(ta & 1)
                        } else {
                            ta // canonical i32 taint is already sign-folded
                        }
                    }
                    CastKind::FpToSi | CastKind::SiToFp => full_if(ta),
                    CastKind::Bitcast | CastKind::PtrToInt | CastKind::IntToPtr => {
                        ta & width_mask(to.bits())
                    }
                }
            }
            Op::Gep { base, index } => smear_up(self.t_op(base) | self.t_op(index)),
            // A tainted word count is a sink (recorded in `begin_instr`);
            // the base address of *this* alloca is VM stack state, not a
            // function of the operand bits.
            Op::Alloca { .. } => 0,
            Op::Load { addr, ty } => {
                let raw = std::mem::take(&mut self.pending_load);
                canon_taint(*ty, raw & width_mask(ty.bits())) | full_if(self.t_op(addr))
            }
            Op::Call { .. } => std::mem::take(&mut self.pending_ret),
            Op::Store { .. } | Op::Output { .. } => 0,
        }
    }
}

impl ExecHook for TaintHook<'_> {
    const ENABLED: bool = true;

    fn begin_instr(&mut self, ins: &Instr) {
        self.dyn_index += 1;
        if self.seed.is_none() {
            return;
        }
        // A tainted return value discarded by a void call dies here.
        if self.pending_ret != 0 && !matches!(ins.op, Op::Call { .. }) {
            self.pending_ret = 0;
            self.maybe_extinct();
        }
        if self.any_operand_tainted(&ins.op) {
            self.touch(ins.sid.0);
        }
        // Sink detection on operand taints, before the op executes (and
        // so before any trap or divergence it may cause).
        match &ins.op {
            Op::Output { value } if self.t_op(value) != 0 => {
                if self.first_tainted_output.is_none() {
                    self.first_tainted_output = Some(self.dyn_index);
                }
                self.sink(SinkKind::Output, Some(ins.sid.0));
            }
            Op::Store { addr, .. } | Op::Load { addr, .. } if self.t_op(addr) != 0 => {
                self.sink(SinkKind::MemAddr, Some(ins.sid.0));
            }
            Op::Bin {
                op: BinOp::SDiv | BinOp::SRem,
                b,
                ..
            } if self.t_op(b) != 0 => {
                self.sink(SinkKind::Divisor, Some(ins.sid.0));
            }
            Op::Alloca { words } if self.t_op(words) != 0 => {
                self.sink(SinkKind::AllocaSize, Some(ins.sid.0));
            }
            _ => {}
        }
    }

    fn def_value(&mut self, ins: &Instr, _bits: u64) {
        if self.seed.is_none() {
            if ins.result.is_some() {
                if let Some(tr) = &mut self.def_trace {
                    tr.push(0);
                }
            }
            return;
        }
        let Some(r) = ins.result else { return };
        let func = self.cur_func();
        let mut t = self.result_taint(func, &ins.op);
        if self.pending_seed != 0 {
            t |= std::mem::take(&mut self.pending_seed);
            self.seed_applied = true;
        }
        t = canon_taint(func.ty_of(r), t);
        if let Some(tr) = &mut self.def_trace {
            tr.push(t);
        }
        if t != 0 {
            self.tainted_defs += 1;
            self.touch(ins.sid.0);
        }
        self.set_reg(r, t);
        self.maybe_extinct();
    }

    fn mem_store(&mut self, ins: &Instr, addr: u64, _bits: u64) {
        if self.seed.is_none() {
            return;
        }
        let t = match &ins.op {
            Op::Store { value, .. } => self.t_op(value),
            _ => 0,
        };
        self.set_mem(addr, t);
        self.maybe_extinct();
    }

    fn mem_load(&mut self, _ins: &Instr, addr: u64, _bits: u64) {
        if self.seed.is_none() {
            return;
        }
        self.pending_load = self.mem.get(&addr).copied().unwrap_or(0);
    }

    fn mem_clear(&mut self, base: u64, words: u64) {
        if self.seed.is_none() || self.mem.is_empty() {
            return;
        }
        for addr in base..base.saturating_add(words) {
            self.set_mem(addr, 0);
        }
        self.maybe_extinct();
    }

    fn fault_injected(&mut self, ins: &Instr, flip_mask: u64) {
        self.seed = Some(Seed {
            dynamic: self.dyn_index,
            sid: ins.sid.0,
            mask: flip_mask,
        });
        self.pending_seed = flip_mask;
    }

    fn branch_transfer(&mut self, cond: Option<&Operand>, params: &[ValueId], args: &[Operand]) {
        if self.seed.is_none() {
            return;
        }
        if let Some(c) = cond {
            if self.t_op(c) & 1 != 0 {
                self.sink(SinkKind::BranchCond, None);
            }
        }
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        buf.extend(args.iter().map(|a| self.t_op(a)));
        for (&p, &t) in params.iter().zip(&buf) {
            self.set_reg(p, t);
        }
        self.scratch = buf;
        self.maybe_extinct();
    }

    fn call_enter(&mut self, ins: &Instr, callee: FuncId) {
        // The shadow frame stack mirrors the call stack even before the
        // seed: a fault may activate inside any callee.
        let mut regs = vec![0u64; self.module.func(callee).value_types.len()];
        if self.seed.is_some() {
            if let Op::Call { args, .. } = &ins.op {
                for (slot, a) in regs.iter_mut().zip(args) {
                    *slot = self.t_op(a);
                }
            }
        }
        self.live += regs.iter().filter(|&&t| t != 0).count() as u64;
        self.frames.push(Frame { fid: callee, regs });
    }

    fn func_ret(&mut self, value: Option<&Operand>) {
        let t = value.map_or(0, |v| self.t_op(v));
        let popped = self.frames.pop().expect("taint frame underflow");
        self.live -= popped.regs.iter().filter(|&&x| x != 0).count() as u64;
        if self.frames.is_empty() && t != 0 {
            // The entry function's return value is an observable.
            self.sink(SinkKind::Ret, None);
        }
        self.pending_ret = t;
        self.maybe_extinct();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecLimits, Injection, InjectionTarget, Vm};
    use crate::inputs::encode_inputs;
    use peppa_ir::{IPred, ModuleBuilder};

    fn traced(m: &Module, inputs: &[f64], inj: Injection) -> (crate::exec::RunOutput, TaintReport) {
        let vm = Vm::new(m, ExecLimits::default());
        let bits = encode_inputs(m.entry_func(), inputs);
        let mut hook = TaintHook::new(m);
        let out = vm.run_with_hook(&bits, Some(inj), &mut hook);
        (out, hook.finish())
    }

    fn dyn_inj(k: u64, bit: u32) -> Injection {
        Injection::single(InjectionTarget::DynamicIndex(k), bit)
    }

    /// sum = 0; for i in 0..n { sum += i*i }; output sum; ret sum
    fn loop_module() -> Module {
        let mut mb = ModuleBuilder::new("loop");
        let main = mb.declare("main", &[Ty::I64], Some(Ty::I64));
        let mut f = mb.define(main);
        let n = f.param(0);
        let (head, hv) = f.new_block(&[Ty::I64, Ty::I64]);
        let (body, _) = f.new_block(&[]);
        let (exit, _) = f.new_block(&[]);
        f.br(head, &[Operand::i64(0), Operand::i64(0)]);
        f.switch_to(head);
        let c = f.icmp(IPred::Slt, hv[0], n);
        f.cond_br(c, body, &[], exit, &[]);
        f.switch_to(body);
        let sq = f.mul(hv[0], hv[0]);
        let sum2 = f.add(hv[1], sq);
        let i2 = f.add(hv[0], Operand::i64(1));
        f.br(head, &[i2, sum2]);
        f.switch_to(exit);
        f.output(hv[1]);
        f.ret(Some(hv[1]));
        f.finish();
        mb.set_entry(main);
        let m = mb.finish();
        peppa_ir::verify(&m).unwrap();
        m
    }

    #[test]
    fn taint_reaches_output_sink() {
        let m = loop_module();
        // Dynamic value index 1 is the first mul (index 0 is the icmp).
        let (out, rep) = traced(&m, &[5.0], dyn_inj(1, 3));
        assert!(out.fault_activated);
        assert!(rep.seeded);
        assert_eq!(rep.seed_mask, 1 << 3);
        assert!(rep.propagated(), "{rep:?}");
        let sink = rep.first_sink.unwrap();
        assert_eq!(sink.kind, SinkKind::Output);
        assert!(rep.first_tainted_output.is_some());
        assert!(rep.tainted_defs >= 2, "mul -> sum2 -> ... at minimum");
        assert!(rep.sids_touched() >= 2);
        assert!(rep.extinction_dynamic.is_none());
    }

    #[test]
    fn dead_taint_extinguishes_without_sink() {
        // a = x + 1 (injected, never used); b = x * x; output b; ret b
        let mut mb = ModuleBuilder::new("dead");
        let main = mb.declare("main", &[Ty::I64], Some(Ty::I64));
        let mut f = mb.define(main);
        let x = f.param(0);
        let _a = f.add(x, Operand::i64(1));
        let b = f.mul(x, x);
        f.output(b);
        f.ret(Some(b));
        f.finish();
        mb.set_entry(main);
        let m = mb.finish();
        peppa_ir::verify(&m).unwrap();

        let (out, rep) = traced(&m, &[7.0], dyn_inj(0, 5));
        assert!(out.fault_activated);
        assert!(rep.seeded);
        assert!(!rep.propagated(), "{rep:?}");
        // The tainted register dies when the entry frame pops at ret.
        assert!(rep.extinguished());
        assert_eq!(rep.live_at_end, 0);
    }

    #[test]
    fn and_mask_kills_high_bit_taint() {
        // v = x + 0 (inject bit 40); w = v & 0xFF; output w
        let mut mb = ModuleBuilder::new("and");
        let main = mb.declare("main", &[Ty::I64], Some(Ty::I64));
        let mut f = mb.define(main);
        let x = f.param(0);
        let v = f.add(x, Operand::i64(0));
        let w = f.bin(BinOp::And, v, Operand::i64(0xFF));
        f.output(w);
        f.ret(Some(w));
        f.finish();
        mb.set_entry(main);
        let m = mb.finish();
        peppa_ir::verify(&m).unwrap();

        let (out, rep) = traced(&m, &[3.0], dyn_inj(0, 40));
        assert!(out.fault_activated);
        // Taint at bit 40 cannot pass `& 0xFF`.
        assert!(!rep.propagated(), "{rep:?}");
        // But a low-bit flip does propagate.
        let (_, rep) = traced(&m, &[3.0], dyn_inj(0, 2));
        assert!(rep.propagated());
    }

    #[test]
    fn i32_seed_mask_is_canonical() {
        let mut mb = ModuleBuilder::new("i32");
        let main = mb.declare("main", &[], Some(Ty::I64));
        let mut f = mb.define(main);
        let v = f.bin(BinOp::Add, Operand::i32(1), Operand::i32(0));
        let w = f.cast(CastKind::SExt, v, Ty::I64);
        f.output(w);
        f.ret(Some(w));
        f.finish();
        mb.set_entry(main);
        let m = mb.finish();
        let (out, rep) = traced(&m, &[], dyn_inj(0, 31));
        assert!(out.fault_activated);
        // Flipping the i32 sign bit deviates the whole canonical high
        // group — the seed mask must record that, not just bit 31.
        assert_eq!(rep.seed_mask, 0xFFFF_FFFF_8000_0000);
        assert!(rep.propagated());
    }

    #[test]
    fn divisor_sink_detected() {
        // d = x + 0 (injected); q = 100 / d; output q
        let mut mb = ModuleBuilder::new("div");
        let main = mb.declare("main", &[Ty::I64], Some(Ty::I64));
        let mut f = mb.define(main);
        let x = f.param(0);
        let d = f.add(x, Operand::i64(0));
        let q = f.bin(BinOp::SDiv, Operand::i64(100), d);
        f.output(q);
        f.ret(Some(q));
        f.finish();
        mb.set_entry(main);
        let m = mb.finish();
        // x=4, flip bit 0 -> d=5: no trap, but the divisor was tainted.
        let (out, rep) = traced(&m, &[4.0], dyn_inj(0, 0));
        assert!(out.status.is_ok());
        let sink = rep.first_sink.expect("divisor sink");
        assert_eq!(sink.kind, SinkKind::Divisor);
    }

    #[test]
    fn branch_cond_sink_detected() {
        let m = loop_module();
        // Dynamic value index 0 is the first icmp: its taint reaches the
        // cond_br before anything else.
        let (out, rep) = traced(&m, &[5.0], dyn_inj(0, 0));
        assert!(out.fault_activated);
        let sink = rep.first_sink.expect("branch sink");
        assert_eq!(sink.kind, SinkKind::BranchCond);
        assert_eq!(sink.sid, None);
    }

    #[test]
    fn taint_flows_through_memory() {
        // g[2] = x + 0 (injected); l = g[2]; output l
        let mut mb = ModuleBuilder::new("mem");
        let g = mb.global("g", 4);
        let main = mb.declare("main", &[Ty::I64], Some(Ty::I64));
        let mut f = mb.define(main);
        let x = f.param(0);
        let v = f.add(x, Operand::i64(0));
        let p = f.gep(g, Operand::i64(2));
        f.store(p, v);
        let l = f.load(p, Ty::I64);
        f.output(l);
        f.ret(Some(l));
        f.finish();
        mb.set_entry(main);
        let m = mb.finish();
        peppa_ir::verify(&m).unwrap();

        let (out, rep) = traced(&m, &[9.0], dyn_inj(0, 7));
        assert!(out.fault_activated);
        let sink = rep.first_sink.expect("output sink via memory");
        assert_eq!(sink.kind, SinkKind::Output);
    }

    #[test]
    fn overwritten_memory_taint_extinguishes() {
        // g[2] = tainted v; g[2] = 0; l = g[2] (clean); output l
        let mut mb = ModuleBuilder::new("overwrite");
        let g = mb.global("g", 4);
        let main = mb.declare("main", &[Ty::I64], Some(Ty::I64));
        let mut f = mb.define(main);
        let x = f.param(0);
        let v = f.add(x, Operand::i64(0));
        let p = f.gep(g, Operand::i64(2));
        f.store(p, v);
        f.store(p, Operand::i64(0));
        let l = f.load(p, Ty::I64);
        f.output(l);
        f.ret(Some(l));
        f.finish();
        mb.set_entry(main);
        let m = mb.finish();
        peppa_ir::verify(&m).unwrap();

        let (out, rep) = traced(&m, &[9.0], dyn_inj(0, 7));
        assert!(out.fault_activated);
        assert!(!rep.propagated(), "{rep:?}");
        assert!(rep.extinguished());
    }

    #[test]
    fn taint_crosses_call_return() {
        // callee(y) = y * y (injected inside); main outputs callee(3).
        let mut mb = ModuleBuilder::new("call");
        let callee = mb.declare("sq", &[Ty::I64], Some(Ty::I64));
        let main = mb.declare("main", &[], Some(Ty::I64));
        {
            let mut f = mb.define(callee);
            let y = f.param(0);
            let r = f.mul(y, y);
            f.ret(Some(r));
            f.finish();
        }
        {
            let mut f = mb.define(main);
            let r = f.call(callee, &[Operand::i64(3)]).unwrap();
            f.output(r);
            f.ret(Some(r));
            f.finish();
        }
        mb.set_entry(main);
        let m = mb.finish();
        peppa_ir::verify(&m).unwrap();

        let (out, rep) = traced(&m, &[], dyn_inj(0, 1));
        assert!(out.fault_activated);
        let sink = rep.first_sink.expect("sink through call return");
        assert_eq!(sink.kind, SinkKind::Output);
        assert!(rep.tainted_defs >= 2, "callee mul + caller call def");
    }

    #[test]
    fn unactivated_fault_reports_unseeded() {
        let m = loop_module();
        let (out, rep) = traced(&m, &[5.0], dyn_inj(1_000_000, 0));
        assert!(!out.fault_activated);
        assert!(!rep.seeded);
        assert!(!rep.propagated());
        assert_eq!(rep.tainted_defs, 0);
    }

    #[test]
    fn forward_rules_are_supersets_of_concrete_diffs() {
        // Spot-check the adjoint rules against concrete arithmetic.
        // add: flip bit 2 of a=12 -> diff bits must be within smear_up.
        let a = 12u64;
        let fa = a ^ 4;
        let diff = (a.wrapping_add(100)) ^ (fa.wrapping_add(100));
        let ta = bin_taint(BinOp::Add, 64, &Operand::i64(0), &Operand::i64(100), 4, 0);
        assert_eq!(diff & !ta, 0, "add rule must cover carries");
        // and with constant masks taint.
        let tand = bin_taint(
            BinOp::And,
            64,
            &Operand::i64(0),
            &Operand::i64(0xF0),
            0xFF00,
            0,
        );
        assert_eq!(tand, 0);
        // shl by constant moves taint up.
        let tshl = bin_taint(BinOp::Shl, 64, &Operand::i64(0), &Operand::i64(4), 1, 0);
        assert_eq!(tshl, 1 << 4);
        // ashr replicates a deviating sign bit downward: taint at bit 63
        // shifted right by 8 taints the top 9 bits.
        let tashr = bin_taint(
            BinOp::AShr,
            64,
            &Operand::i64(0),
            &Operand::i64(8),
            1 << 63,
            0,
        );
        assert_eq!(tashr, 0xFF80_0000_0000_0000);
    }

    #[test]
    fn canon_taint_matches_matter_contract() {
        assert_eq!(canon_taint(Ty::I1, 0b110), 0);
        assert_eq!(canon_taint(Ty::I1, 0b11), 1);
        assert_eq!(canon_taint(Ty::I32, 1 << 31), 0xFFFF_FFFF_8000_0000);
        assert_eq!(canon_taint(Ty::I32, 1 << 40), 0xFFFF_FFFF_8000_0000);
        assert_eq!(canon_taint(Ty::I32, 0x7F), 0x7F);
        assert_eq!(canon_taint(Ty::I64, FULL), FULL);
    }
}
