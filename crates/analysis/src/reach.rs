//! Fault-propagation reachability: which *bits* of which values can
//! influence an observable outcome.
//!
//! This is the layer that turns the static analyses into campaign-time
//! savings. For every value-producing instruction we compute a **matter
//! mask**: the set of canonical bit positions whose corruption could
//! possibly change the program's observable behaviour — its output
//! stream, the entry function's return value, any trap (memory bounds,
//! division by zero, stack overflow), or any control-flow decision
//! (which also covers hangs, since an unchanged path has an unchanged
//! dynamic instruction count). A single-bit-flip fault whose effective
//! flip mask is disjoint from the matter mask is **provably masked**:
//! the faulty run is bit-identical to the golden run on everything the
//! outcome classifier looks at, so the trial must come back Benign and
//! need not be executed at all.
//!
//! The analysis composes four edge kinds:
//!
//! * **def-use** — per-bit backward transfer functions over the operand
//!   edges (the interesting precision lives here: `x % 2^k` kills the
//!   dividend's middle bits, shifts translate masks, `& const` kills the
//!   const's zero bits, shift *amounts* only matter in their low
//!   log2(width) bits, …);
//! * **memory** — store→load edges from [`crate::memdep::MemDepGraph`];
//!   a store value's matter is the union of its reachable loads' matter
//!   (a store no load can see is dead, and its value matter is empty);
//! * **call** — bottom-up per-function
//!   [`BitSummary`](crate::summary::BitSummary)s describing which
//!   argument bits can reach a sink, each return-value bit, or stored
//!   memory, iterated to a fixpoint over the call-graph SCCs for
//!   recursion and composed at call sites per result bit; an argument
//!   that only feeds callee stores no live load reads stays masked;
//! * **control** — branch conditions, addresses, divisors, allocation
//!   sizes, and outputs are unconditional full-width sinks.
//!
//! ## Soundness argument (sketch; DESIGN.md has the full version)
//!
//! Every transfer contribution `c = T(op, operand, R)` obeys the
//! contract: *if each operand deviates from its golden value only in
//! bits outside its contribution, the result deviates only in bits
//! outside `R`* — for arbitrary, multi-bit deviations, not just the
//! injected single flip. (E.g. for `add`, deviations confined to bits
//! above `smear_down(R)`'s top keep the sum congruent modulo a power of
//! two covering `R`.) Constant-operand facts are the only value facts
//! used to *refine* a transfer (`% const-power-of-two`, `& const`,
//! shift-by-const): constants cannot be corrupted by a register fault,
//! so these facts hold in faulty runs too, whereas facts about
//! *computed* operands might not and are never used. By induction over
//! the dynamic execution (the fault cone), every value stays within its
//! matter-mask complement, every branch/address/divisor stays exactly
//! golden (their matter is full), so path, traps, memory cells, outputs
//! and the final return are unchanged: the trial is Benign.

use crate::callgraph::CallGraph;
use crate::memdep::MemDepGraph;
use crate::range::AbsRange;
use crate::summary::{analyze_module_interproc, compose_ret, summarize_bits};
use peppa_ir::{
    BinOp, CastKind, FuncId, Function, InstrId, Module, Op, Operand, Term, Ty, UnOp, ValueId,
};
use std::collections::HashMap;

/// All 64 canonical bit positions.
pub const FULL: u64 = u64::MAX;

/// Module-wide fault-propagation result, indexed by static instruction
/// id.
#[derive(Debug, Clone)]
pub struct FaultReach {
    /// `matter_bits[sid]`: canonical bits of the defined value that may
    /// influence an observable. Zero on a value-producing sid ⇔ every
    /// fault injected there is provably masked.
    pub matter_bits: Vec<u64>,
    /// `widths[sid]`: bit width of the defined value (0 for void).
    pub widths: Vec<u8>,
}

impl FaultReach {
    /// Runs the whole stack: call graph, interprocedural range facts,
    /// memory dependence, per-bit summaries, and the global
    /// inter-function fixpoint.
    pub fn analyze(module: &Module) -> FaultReach {
        let cg = CallGraph::new(module);
        // Interprocedural intervals tighten store/load address ranges,
        // so memdep draws fewer may-alias store→load edges. Sound for
        // pruning: addresses are FULL sinks, so a fault reaching an
        // address is never skipped, and inside a skipped fault's cone
        // every address stays exactly golden — within its static range.
        let ranges = analyze_module_interproc::<AbsRange>(module, &cg);
        let memdep = MemDepGraph::with_facts(module, &ranges.facts);
        let sums = summarize_bits(module, &cg);
        let n = module.functions.len();

        // Cross-function state, all growing monotonically.
        let mut ret_mask = vec![0u64; n];
        ret_mask[module.entry.0 as usize] = FULL;
        let mut store_matter: HashMap<u32, u64> = HashMap::new();

        // Where each load's result lives, keyed by load sid.
        let mut load_result: HashMap<u32, (usize, ValueId)> = HashMap::new();
        // Call sites with results: (caller index, callee, result value).
        let mut call_results: Vec<(usize, FuncId, ValueId)> = Vec::new();
        for (fi, f) in module.functions.iter().enumerate() {
            for ins in f.instrs() {
                match (&ins.op, ins.result) {
                    (Op::Load { .. }, Some(rv)) => {
                        load_result.insert(ins.sid.0, (fi, rv));
                    }
                    (Op::Call { func, .. }, Some(rv)) => call_results.push((fi, *func, rv)),
                    _ => {}
                }
            }
        }

        // Live-memory channel, refined per round: bits of each param
        // whose deviation can reach a store some live load actually
        // reads (per `store_matter`) — strictly tighter than the static
        // `mem_bits` channel, which counts *any* store. An argument that
        // only feeds dead callee stores stays masked.
        let mut live_mem: Vec<Vec<u64>> = module
            .functions
            .iter()
            .map(|f| vec![0u64; f.params.len()])
            .collect();

        let mut matter: Vec<Vec<u64>> = vec![Vec::new(); n];
        // Each round adds at least one bit to ret_mask/store_matter or
        // stops; 64 bits per store + per function bounds the rounds.
        let max_rounds = 64 * (memdep.stores.len() + n) + 2;
        for _ in 0..max_rounds {
            // Inner fixpoint for the live-memory channel (monotone in
            // `store_matter` and itself; bottom-up so callee masks are
            // fresh when callers compose them).
            loop {
                let mut lm_changed = false;
                for comp in &cg.sccs {
                    for &fid in comp {
                        let fi = fid.0 as usize;
                        let f = &module.functions[fi];
                        let lm = solve_function(
                            f,
                            0,
                            false,
                            |sid| store_matter.get(&sid.0).copied().unwrap_or(0),
                            |g, i, r| {
                                let s = &sums[g.0 as usize];
                                (live_mem[g.0 as usize][i] & s.mem_bits[i]) | compose_ret(s, i, r)
                            },
                        );
                        for i in 0..f.params.len() {
                            let cur = live_mem[fi][i];
                            if cur | lm[i] != cur {
                                live_mem[fi][i] = cur | lm[i];
                                lm_changed = true;
                            }
                        }
                    }
                }
                if !lm_changed {
                    break;
                }
            }
            for (fi, f) in module.functions.iter().enumerate() {
                matter[fi] = solve_function(
                    f,
                    ret_mask[fi],
                    true,
                    |sid| store_matter.get(&sid.0).copied().unwrap_or(0),
                    |g, i, r| {
                        let s = &sums[g.0 as usize];
                        s.sink_bits[i]
                            | (live_mem[g.0 as usize][i] & s.mem_bits[i])
                            | compose_ret(s, i, r)
                    },
                );
            }
            let mut changed = false;
            // Call results feed callee return masks.
            for &(fi, callee, rv) in &call_results {
                let f = &module.functions[fi];
                let rm = canon_matter(f.ty_of(rv), matter[fi][rv.0 as usize]);
                let cur = ret_mask[callee.0 as usize];
                if cur | rm != cur {
                    ret_mask[callee.0 as usize] = cur | rm;
                    changed = true;
                }
            }
            // Load results feed the stores that may reach them.
            for (li, l) in memdep.loads.iter().enumerate() {
                let &(fi, rv) = match load_result.get(&l.sid.0) {
                    Some(x) => x,
                    None => continue,
                };
                let wm = load_word_matter(l.ty, matter[fi][rv.0 as usize]);
                if wm == 0 {
                    continue;
                }
                for &si in &memdep.load_stores[li] {
                    let sid = memdep.stores[si as usize].sid.0;
                    let cur = store_matter.get(&sid).copied().unwrap_or(0);
                    if cur | wm != cur {
                        store_matter.insert(sid, cur | wm);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        let mut matter_bits = vec![0u64; module.num_instrs];
        let mut widths = vec![0u8; module.num_instrs];
        for (fi, f) in module.functions.iter().enumerate() {
            for ins in f.instrs() {
                if let Some(rv) = ins.result {
                    let sid = ins.sid.0 as usize;
                    matter_bits[sid] = matter[fi][rv.0 as usize];
                    widths[sid] = f.ty_of(rv).bits() as u8;
                }
            }
        }
        FaultReach {
            matter_bits,
            widths,
        }
    }

    /// Whether a fault at `sid` flipping `bit` (plus `burst` adjacent
    /// bits) is provably masked: its effective canonical flip mask is
    /// disjoint from the value's matter mask. False for void/unknown
    /// sids (never skip what we can't prove).
    pub fn is_masked_fault(&self, sid: InstrId, bit: u32, burst: u8) -> bool {
        let s = sid.0 as usize;
        if s >= self.widths.len() || self.widths[s] == 0 {
            return false;
        }
        effective_flip_mask(self.widths[s], bit, burst) & self.matter_bits[s] == 0
    }

    /// `(masked, total)` cells of the `value sids × 64 sampled bit
    /// positions` fault space under a per-sid cell table such as
    /// [`FaultReach::skip_cells`] or its union with deviation cells.
    /// Void sids count toward neither.
    pub fn masked_cells(&self, cells: &[u64]) -> (u64, u64) {
        let masked = self
            .widths
            .iter()
            .zip(cells)
            .filter(|(&w, _)| w != 0)
            .map(|(_, &c)| c.count_ones() as u64)
            .sum();
        let total = 64 * self.widths.iter().filter(|&&w| w != 0).count() as u64;
        (masked, total)
    }

    /// Per-sid masked-cell bitmasks in the campaign injector's table
    /// format: entry `sid` has bit `b` set iff a fault sampled at bit
    /// position `b` on that sid is provably masked for `burst`. Feed
    /// this straight into `StaticPrune { cells, burst }`.
    pub fn skip_cells(&self, burst: u8) -> Vec<u64> {
        (0..self.widths.len())
            .map(|s| {
                let mut cells = 0u64;
                for bit in 0..64 {
                    if self.is_masked_fault(InstrId(s as u32), bit, burst) {
                        cells |= 1 << bit;
                    }
                }
                cells
            })
            .collect()
    }
}

/// The canonical change mask a campaign fault produces: `flip_bits`
/// reduces the sampled bit position modulo the value width and `canon`
/// folds an i32 sign-bit flip into the whole mirrored high group.
pub fn effective_flip_mask(width: u8, bit: u32, burst: u8) -> u64 {
    let w = width.max(1) as u32;
    let mut mask = 0u64;
    for k in 0..=burst as u32 {
        mask |= 1u64 << ((bit + k) % w);
    }
    if width == 32 && mask & (1 << 31) != 0 {
        mask = (mask & 0x7FFF_FFFF) | 0xFFFF_FFFF_8000_0000;
    }
    mask
}

/// Folds a matter mask into the canonical-form bits of type `ty`: i1
/// values only carry bit 0, canonical i32 values mirror bit 31 across
/// the whole high group (a deviation in any of bits 31..63 is exactly a
/// deviation in all of them).
pub fn canon_matter(ty: Ty, m: u64) -> u64 {
    const HIGH: u64 = 0xFFFF_FFFF_8000_0000;
    match ty {
        Ty::I1 => m & 1,
        Ty::I32 => {
            if m & HIGH != 0 {
                (m & 0x7FFF_FFFF) | HIGH
            } else {
                m
            }
        }
        _ => m,
    }
}

/// Matter of the raw stored word, given the matter of a load result that
/// reads it at type `ty` (inverts the load's `canon` projection).
fn load_word_matter(ty: Ty, r: u64) -> u64 {
    const HIGH: u64 = 0xFFFF_FFFF_8000_0000;
    match ty {
        Ty::I1 => r & 1,
        Ty::I32 => (r & 0x7FFF_FFFF) | if r & HIGH != 0 { 1 << 31 } else { 0 },
        _ => r,
    }
}

/// Bit `i` set iff `m` has any bit at position ≥ `i` (carries move
/// influence strictly upward).
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

fn width_mask(w: u32) -> u64 {
    if w >= 64 {
        FULL
    } else {
        (1u64 << w) - 1
    }
}

fn full_if(r: u64) -> u64 {
    if r != 0 {
        FULL
    } else {
        0
    }
}

/// Canonical bits of a *constant* operand, if it is one. Only constants
/// may refine a transfer: they cannot be corrupted by a register fault,
/// so their value holds in faulty runs too (see module docs).
fn const_bits(o: &Operand) -> Option<u64> {
    match o {
        Operand::Const(c) => Some(c.bits),
        Operand::Value(_) => None,
    }
}

/// Per-bit backward transfer: matter contribution of operand `idx`
/// given result matter `r`. `w` is the operand/result width in bits.
fn bin_contribution(op: BinOp, idx: usize, r: u64, w: u32, other: &Operand) -> u64 {
    match op {
        BinOp::Add | BinOp::Sub => smear_down(r),
        BinOp::Mul => match const_bits(other) {
            Some(0) => 0,
            Some(c) => smear_down(r) >> c.trailing_zeros().min(63),
            None => smear_down(r),
        },
        // Division data paths; the divisor *trap* sink is seeded
        // separately by the solver.
        BinOp::SDiv => full_if(r),
        BinOp::SRem => {
            if idx == 1 || r == 0 {
                full_if(r)
            } else {
                // Truncated remainder by ±2^k is a function of the
                // dividend's low k bits and its sign bit only.
                match const_bits(other).map(|c| (c as i64).unsigned_abs()) {
                    Some(m) if m.is_power_of_two() => {
                        let k = m.trailing_zeros();
                        if k == 0 {
                            0 // x % ±1 == 0 regardless of x
                        } else {
                            width_mask(k) | (1u64 << (w - 1))
                        }
                    }
                    _ => FULL,
                }
            }
        }
        BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv => full_if(r),
        BinOp::And => match const_bits(other) {
            Some(c) => r & c,
            None => r,
        },
        BinOp::Or => match const_bits(other) {
            Some(c) => r & !c,
            None => r,
        },
        BinOp::Xor => r,
        BinOp::Shl | BinOp::LShr | BinOp::AShr => {
            let amt_mask = (w - 1).max(1) as u64;
            if idx == 1 {
                // The VM masks the amount to `w-1`: only those low bits
                // can matter.
                if r != 0 {
                    amt_mask
                } else {
                    0
                }
            } else {
                match const_bits(other).map(|c| (c & amt_mask) as u32) {
                    Some(s) => match op {
                        BinOp::Shl => r >> s,
                        BinOp::LShr => (r << s) & width_mask(w),
                        BinOp::AShr => {
                            let m = (r << s) & width_mask(w);
                            // The top s result bits replicate the sign.
                            let sign_feeders = width_mask(w) & !width_mask(w - 1 - s);
                            if r & sign_feeders != 0 {
                                m | (1u64 << (w - 1))
                            } else {
                                m
                            }
                        }
                        _ => unreachable!(),
                    },
                    None => match op {
                        BinOp::Shl => smear_down(r),
                        BinOp::LShr => smear_up(r) & width_mask(w),
                        BinOp::AShr => {
                            let m = smear_up(r) & width_mask(w);
                            if r & width_mask(w) != 0 {
                                m | (1u64 << (w - 1))
                            } else {
                                m
                            }
                        }
                        _ => unreachable!(),
                    },
                }
            }
        }
    }
}

/// Matter contribution of `ops[idx]` for a value-producing op with
/// result matter `r`.
fn operand_contribution(f: &Function, ins_op: &Op, idx: usize, r: u64, ops: &[Operand]) -> u64 {
    match ins_op {
        Op::Bin { op, .. } => {
            let other = &ops[1 - idx];
            let w = f.operand_ty(&ops[idx]).bits();
            bin_contribution(*op, idx, r, w, other)
        }
        Op::Un { op, .. } => match op {
            UnOp::Not => r,
            UnOp::FNeg => r, // per-bit bijection on the payload+sign
            UnOp::FAbs => r & !(1u64 << 63),
            _ => full_if(r),
        },
        Op::Icmp { .. } | Op::Fcmp { .. } => full_if(r & 1),
        Op::Select { .. } => {
            if idx == 0 {
                if r != 0 {
                    1
                } else {
                    0
                }
            } else {
                r
            }
        }
        Op::Cast { kind, to, .. } => {
            let from = f.operand_ty(&ops[0]);
            match kind {
                CastKind::Trunc => r & width_mask(to.bits()),
                CastKind::ZExt => r & width_mask(from.bits()),
                CastKind::SExt => {
                    let wf = from.bits();
                    if wf >= to.bits() {
                        r
                    } else {
                        let low = width_mask(wf);
                        (r & low) | if r & !low != 0 { 1u64 << (wf - 1) } else { 0 }
                    }
                }
                CastKind::FpToSi | CastKind::SiToFp => full_if(r),
                CastKind::Bitcast | CastKind::PtrToInt | CastKind::IntToPtr => r,
            }
        }
        Op::Gep { .. } => smear_down(r),
        // Sinks / summary-driven ops are handled by the solver itself.
        _ => 0,
    }
}

/// One backward per-bit fixpoint over a single function body.
///
/// * `ret_mask` — matter of the function's return value in this context;
/// * `sink_seeds` — whether trap/control/output sinks seed `FULL` (true
///   for the SINK channel and the global pass, false for the RET/MEM
///   summary channels, whose flows the SINK channel covers separately);
/// * `store_value_mask` — matter of each store's *value* operand;
/// * `call_arg_mask(callee, arg, result_matter)` — matter of a call
///   argument, composed from callee summaries.
///
/// Returns per-value matter masks; parameters are values `0..nparams`.
pub(crate) fn solve_function(
    f: &Function,
    ret_mask: u64,
    sink_seeds: bool,
    store_value_mask: impl Fn(InstrId) -> u64,
    call_arg_mask: impl Fn(FuncId, usize, u64) -> u64,
) -> Vec<u64> {
    let nv = f.value_types.len();
    let mut matter = vec![0u64; nv];

    fn bump(f: &Function, matter: &mut [u64], o: &Operand, m: u64) -> bool {
        if m == 0 {
            return false;
        }
        if let Some(v) = o.value() {
            let c = canon_matter(f.ty_of(v), m);
            let cur = matter[v.0 as usize];
            if cur | c != cur {
                matter[v.0 as usize] = cur | c;
                return true;
            }
        }
        false
    }

    // Monotone bit growth: 64 bits per value bounds the passes.
    let max_passes = 64 * nv + 2;
    for _ in 0..max_passes {
        let mut changed = false;
        for b in &f.blocks {
            for ins in b.instrs.iter().rev() {
                let r = ins.result.map(|v| matter[v.0 as usize]).unwrap_or(0);
                // Unconditional sinks and cross-boundary flows.
                match &ins.op {
                    Op::Store { addr, value } => {
                        if sink_seeds {
                            changed |= bump(f, &mut matter, addr, FULL);
                        }
                        let vm = store_value_mask(ins.sid);
                        changed |= bump(f, &mut matter, value, vm);
                    }
                    Op::Load { addr, .. } if sink_seeds => {
                        changed |= bump(f, &mut matter, addr, FULL);
                    }
                    Op::Output { value } if sink_seeds => {
                        changed |= bump(f, &mut matter, value, FULL);
                    }
                    Op::Alloca { words } if sink_seeds => {
                        changed |= bump(f, &mut matter, words, FULL);
                    }
                    // Division by zero traps: the divisor is an
                    // observable sink regardless of the result.
                    Op::Bin {
                        op: BinOp::SDiv | BinOp::SRem,
                        b: divisor,
                        ..
                    } if sink_seeds => {
                        changed |= bump(f, &mut matter, divisor, FULL);
                    }
                    Op::Call { func, args } => {
                        for (i, a) in args.iter().enumerate() {
                            let m = call_arg_mask(*func, i, r);
                            changed |= bump(f, &mut matter, a, m);
                        }
                    }
                    _ => {}
                }
                // Per-bit data flow into the result.
                match &ins.op {
                    Op::Bin { .. }
                    | Op::Un { .. }
                    | Op::Icmp { .. }
                    | Op::Fcmp { .. }
                    | Op::Select { .. }
                    | Op::Cast { .. }
                    | Op::Gep { .. } => {
                        let ops = ins.op.operands();
                        for idx in 0..ops.len() {
                            let c = operand_contribution(f, &ins.op, idx, r, &ops);
                            changed |= bump(f, &mut matter, &ops[idx], c);
                        }
                    }
                    _ => {}
                }
            }
            match &b.term {
                Term::Br { target, args } => {
                    for (p, a) in f.block(*target).params.iter().zip(args) {
                        let pm = matter[p.0 as usize];
                        changed |= bump(f, &mut matter, a, pm);
                    }
                }
                Term::CondBr {
                    cond,
                    then_target,
                    then_args,
                    else_target,
                    else_args,
                } => {
                    if sink_seeds {
                        changed |= bump(f, &mut matter, cond, FULL);
                    }
                    for (t, args) in [(then_target, then_args), (else_target, else_args)] {
                        for (p, a) in f.block(*t).params.iter().zip(args) {
                            let pm = matter[p.0 as usize];
                            changed |= bump(f, &mut matter, a, pm);
                        }
                    }
                }
                Term::Ret { value } => {
                    if let Some(v) = value {
                        changed |= bump(f, &mut matter, v, ret_mask);
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    matter
}

#[cfg(test)]
mod tests {
    use super::*;
    use peppa_ir::Ty;

    fn compile(src: &str) -> Module {
        peppa_lang::compile(src, "reach").unwrap()
    }

    /// Sid of the first instruction in `func` matching the predicate.
    fn find_sid(m: &Module, func: &str, pred: impl Fn(&Op) -> bool) -> InstrId {
        let f = m.func(m.func_by_name(func).unwrap());
        f.instrs()
            .find(|i| pred(&i.op))
            .map(|i| i.sid)
            .expect("instruction not found")
    }

    fn is_bin(op: &Op, b: BinOp) -> bool {
        matches!(op, Op::Bin { op, .. } if *op == b)
    }

    #[test]
    fn smears_move_influence_the_right_way() {
        assert_eq!(smear_down(0b1000), 0b1111);
        assert_eq!(smear_up(0b1000), !0b111);
        assert_eq!(smear_down(0), 0);
        assert_eq!(effective_flip_mask(64, 70, 0), 1 << 6);
        assert_eq!(effective_flip_mask(1, 63, 0), 1);
        assert_eq!(
            effective_flip_mask(32, 31, 0),
            0xFFFF_FFFF_8000_0000,
            "i32 sign flip drags the canonical high group"
        );
        assert_eq!(canon_matter(Ty::I32, 1 << 40), 0xFFFF_FFFF_8000_0000);
    }

    #[test]
    fn srem_by_power_of_two_masks_middle_bits_interprocedurally() {
        // The LCG shared by most bundled benchmarks: the add's bits
        // 31..62 provably cannot reach the output (only the low 31 bits
        // and the sign survive `% 2^31`), even across the call boundary.
        let m = compile(
            r#"fn lcg(x: int) -> int { return (x * 1103515245 + 12345) % 2147483648; }
               fn main(x: int) { output lcg(x); }"#,
        );
        let fr = FaultReach::analyze(&m);
        let add = find_sid(&m, "lcg", |op| is_bin(op, BinOp::Add));
        let expected = width_mask(31) | (1u64 << 63);
        assert_eq!(fr.matter_bits[add.0 as usize], expected);
        assert!(fr.is_masked_fault(add, 40, 0));
        assert!(fr.is_masked_fault(add, 31, 0));
        assert!(!fr.is_masked_fault(add, 5, 0));
        assert!(!fr.is_masked_fault(add, 63, 0));
        // A burst straddling the boundary must not be skipped.
        assert!(!fr.is_masked_fault(add, 29, 2));
        assert!(fr.is_masked_fault(add, 31, 2));
        // The remainder itself feeds output: not provably masked.
        let srem = find_sid(&m, "lcg", |op| is_bin(op, BinOp::SRem));
        assert_ne!(fr.matter_bits[srem.0 as usize], 0);
        let (masked, total) = fr.masked_cells(&fr.skip_cells(0));
        assert!(masked > 0 && masked < total);
    }

    #[test]
    fn value_feeding_only_a_dead_store_is_fully_masked() {
        let m = compile(
            r#"global int scratch[2];
               fn main(x: int) {
                   scratch[0] = x * 3;
                   output 7;
               }"#,
        );
        let fr = FaultReach::analyze(&m);
        let mul = find_sid(&m, "main", |op| is_bin(op, BinOp::Mul));
        assert_eq!(fr.matter_bits[mul.0 as usize], 0);
        assert_ne!(fr.widths[mul.0 as usize], 0);
    }

    #[test]
    fn argument_feeding_only_a_dead_callee_store_is_masked() {
        // The live-store channel: the callee's store is never loaded, so
        // the argument is masked even though it reaches memory.
        let m = compile(
            r#"global int scratch[1];
               fn put(v: int) { scratch[0] = v; }
               fn main(x: int) {
                   put(x * 3);
                   output 7;
               }"#,
        );
        let fr = FaultReach::analyze(&m);
        let mul = find_sid(&m, "main", |op| is_bin(op, BinOp::Mul));
        assert_eq!(fr.matter_bits[mul.0 as usize], 0);
    }

    #[test]
    fn call_results_compose_per_bit() {
        // Only bit 0 of `id`'s return matters, so only bit 0 of its
        // argument does (and the add's carries only move upward).
        let m = compile(
            r#"fn id(v: int) -> int { return v; }
               fn main(x: int) { output id(x + 1) & 1; }"#,
        );
        let fr = FaultReach::analyze(&m);
        let add = find_sid(&m, "main", |op| is_bin(op, BinOp::Add));
        assert_eq!(fr.matter_bits[add.0 as usize], 1);
    }

    #[test]
    fn store_to_live_load_keeps_value_live() {
        let m = compile(
            r#"global int cell[1];
               fn main(x: int) {
                   cell[0] = x * 3;
                   output cell[0];
               }"#,
        );
        let fr = FaultReach::analyze(&m);
        let mul = find_sid(&m, "main", |op| is_bin(op, BinOp::Mul));
        assert_ne!(fr.matter_bits[mul.0 as usize], 0);
    }

    #[test]
    fn divisor_is_a_trap_sink_even_when_quotient_is_dead() {
        let m = compile(
            r#"global int scratch[1];
               fn main(x: int) {
                   let d = x | 1;
                   scratch[0] = 100 / d;
                   output 7;
               }"#,
        );
        let fr = FaultReach::analyze(&m);
        // The quotient only feeds a dead store — but the divisor can
        // still trap, so `d = x | 1` must stay fully live.
        let or = find_sid(&m, "main", |op| is_bin(op, BinOp::Or));
        assert_eq!(fr.matter_bits[or.0 as usize], FULL);
        let div = find_sid(&m, "main", |op| is_bin(op, BinOp::SDiv));
        assert_eq!(fr.matter_bits[div.0 as usize], 0);
    }

    #[test]
    fn shift_amount_high_bits_are_masked() {
        let m = compile(
            r#"fn main(x: int, s: int) {
                   let a = s + 0;
                   output x << a;
               }"#,
        );
        let fr = FaultReach::analyze(&m);
        let add = find_sid(&m, "main", |op| is_bin(op, BinOp::Add));
        // Only the low 6 bits of a 64-bit shift amount participate.
        assert_eq!(fr.matter_bits[add.0 as usize], 63);
        assert!(fr.is_masked_fault(add, 6, 0));
        assert!(!fr.is_masked_fault(add, 5, 0));
    }

    #[test]
    fn and_with_constant_masks_cleared_bits() {
        let m = compile(
            r#"fn main(x: int) {
                   let a = x + 1;
                   output a & 255;
               }"#,
        );
        let fr = FaultReach::analyze(&m);
        let add = find_sid(&m, "main", |op| is_bin(op, BinOp::Add));
        assert_eq!(fr.matter_bits[add.0 as usize], 255);
    }

    #[test]
    fn branch_condition_inputs_stay_live() {
        let m = compile(
            r#"fn main(x: int) {
                   let a = x * 2;
                   if (a > 10) { output 1; } else { output 0; }
               }"#,
        );
        let fr = FaultReach::analyze(&m);
        let mul = find_sid(&m, "main", |op| is_bin(op, BinOp::Mul));
        assert_ne!(fr.matter_bits[mul.0 as usize], 0);
    }

    #[test]
    fn summaries_expose_the_three_channels() {
        let m = compile(
            r#"global int g[1];
               fn store_it(v: int) { g[0] = v; }
               fn ret_it(v: int) -> int { return v; }
               fn branch_it(v: int) -> int {
                   if (v > 0) { return 1; }
                   return 0;
               }
               fn main(x: int) {
                   store_it(x);
                   output ret_it(x);
                   output branch_it(x);
               }"#,
        );
        let cg = CallGraph::new(&m);
        let sums = summarize_bits(&m, &cg);
        let sid = |n: &str| m.func_by_name(n).unwrap().0 as usize;
        let st = &sums[sid("store_it")];
        assert_eq!(st.mem_bits[0], FULL);
        assert_eq!(st.param_ret_bits(0), 0);
        let rt = &sums[sid("ret_it")];
        assert_eq!(rt.param_ret_bits(0), FULL);
        assert_eq!(rt.mem_bits[0], 0);
        let br = &sums[sid("branch_it")];
        assert_eq!(br.sink_bits[0], FULL, "branch condition is a sink");
    }

    #[test]
    fn recursive_summary_reaches_fixpoint() {
        let m = compile(
            r#"fn fib(n: int) -> int {
                   if (n < 2) { return n; }
                   return fib(n - 1) + fib(n - 2);
               }
               fn main(n: int) { output fib(n); }"#,
        );
        let fr = FaultReach::analyze(&m);
        // Every arithmetic value inside fib reaches the recursion's
        // branch condition: nothing is masked.
        let sub = find_sid(&m, "fib", |op| is_bin(op, BinOp::Sub));
        assert_ne!(fr.matter_bits[sub.0 as usize], 0);
    }
}
