//! Liveness and observable-liveness.
//!
//! Two related facilities:
//!
//! * [`live_in`] / [`live_at_boundaries`]: classic backward liveness
//!   over [`ValueId`] bitsets, the in-tree client of the generic
//!   worklist solver in [`crate::dataflow`], and the source of the VM's
//!   snapshot convergence masks ([`converge_masks`]).
//! * [`observable_live`]: transitive "does this value influence
//!   observable behaviour" marking — a value is observable-live iff it
//!   (transitively) feeds a store, an output, a call argument, a return
//!   value, or a branch condition. A flipped bit in a value that is *not*
//!   observable-live can never cause an SDC, which is the masking fact
//!   the static predictor, the `dead-value` lint and DCE consume. The
//!   bit-precise answer to "which faults are masked" is
//!   [`crate::reach::FaultReach`].

use crate::cfg::Cfg;
use crate::dataflow::{solve_blocks, BlockAnalysis, Direction};
use peppa_ir::{Function, Module, Op, Operand, Term, ValueId};

/// A bitset over the function's values.
#[derive(Debug, Clone, PartialEq)]
pub struct ValueSet {
    words: Vec<u64>,
}

impl ValueSet {
    pub fn new(n: usize) -> ValueSet {
        ValueSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    pub fn insert(&mut self, v: ValueId) -> bool {
        let (w, b) = (v.0 as usize / 64, v.0 as usize % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    pub fn remove(&mut self, v: ValueId) {
        let (w, b) = (v.0 as usize / 64, v.0 as usize % 64);
        self.words[w] &= !(1 << b);
    }

    pub fn contains(&self, v: ValueId) -> bool {
        let (w, b) = (v.0 as usize / 64, v.0 as usize % 64);
        self.words[w] & (1 << b) != 0
    }

    /// Unions `other` into `self`; returns whether anything changed.
    pub fn union_with(&mut self, other: &ValueSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | *b;
            if next != *a {
                *a = next;
                changed = true;
            }
        }
        changed
    }

    /// Raw bitset words (64 values per word, value id `v` at word
    /// `v/64`, bit `v%64`) — the export format
    /// [`peppa_vm::ConvergeMasks`] consumes.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    pub fn iter(&self) -> impl Iterator<Item = ValueId> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            (0..64)
                .filter(move |b| bits & (1 << b) != 0)
                .map(move |b| ValueId((w * 64 + b) as u32))
        })
    }
}

struct Liveness<'f> {
    f: &'f Function,
}

impl BlockAnalysis for Liveness<'_> {
    type Fact = ValueSet;

    fn direction(&self) -> Direction {
        Direction::Backward
    }

    fn boundary(&self) -> ValueSet {
        ValueSet::new(self.f.value_types.len())
    }

    fn init(&self) -> ValueSet {
        ValueSet::new(self.f.value_types.len())
    }

    fn transfer(&self, block: u32, exit: &ValueSet) -> ValueSet {
        let b = &self.f.blocks[block as usize];
        let mut live = exit.clone();
        // Terminator operands are uses (branch arguments conservatively
        // count even when the receiving parameter is dead — the
        // observable-liveness pass below is the precise one).
        for op in b.term.operands() {
            if let Some(v) = op.value() {
                live.insert(v);
            }
        }
        for ins in b.instrs.iter().rev() {
            if let Some(r) = ins.result {
                live.remove(r);
            }
            for op in ins.op.operands() {
                if let Some(v) = op.value() {
                    live.insert(v);
                }
            }
        }
        for &p in &b.params {
            live.remove(p);
        }
        live
    }

    fn join(&self, into: &mut ValueSet, from: &ValueSet) -> bool {
        into.union_with(from)
    }
}

/// Values live at each block's entry (before its parameters bind).
pub fn live_in(f: &Function, cfg: &Cfg) -> Vec<ValueSet> {
    let lv = Liveness { f };
    // The solver returns the fact "before the transfer in analysis
    // direction" — for a backward problem that is each block's *exit*
    // set; apply the transfer once more for entry sets.
    let exits = solve_blocks(cfg, &lv);
    (0..f.num_blocks())
        .map(|b| lv.transfer(b as u32, &exits[b]))
        .collect()
}

/// Values live at every instruction boundary of every block:
/// `result[block][i]` is the set live just before executing instruction
/// `i` (`result[block][n_instrs]` = just before the terminator) —
/// values that may still be read before being overwritten on some path
/// from that point. Block parameters are *included* at boundary 0 when
/// read later (they are already bound there), unlike [`live_in`], which
/// reports the set before parameters bind.
pub fn live_at_boundaries(f: &Function, cfg: &Cfg) -> Vec<Vec<ValueSet>> {
    let lv = Liveness { f };
    let exits = solve_blocks(cfg, &lv);
    (0..f.num_blocks())
        .map(|b| {
            let blk = &f.blocks[b];
            let n = blk.instrs.len();
            let mut out = vec![ValueSet::new(f.value_types.len()); n + 1];
            let mut live = exits[b].clone();
            for op in blk.term.operands() {
                if let Some(v) = op.value() {
                    live.insert(v);
                }
            }
            out[n] = live.clone();
            for i in (0..n).rev() {
                let ins = &blk.instrs[i];
                if let Some(r) = ins.result {
                    live.remove(r);
                }
                for op in ins.op.operands() {
                    if let Some(v) = op.value() {
                        live.insert(v);
                    }
                }
                out[i] = live.clone();
            }
            out
        })
        .collect()
}

/// Builds the live-register masks the VM's snapshot convergence check
/// consumes ([`peppa_vm::ConvergeMasks`]): for each function, block,
/// and instruction boundary, the bitset of values that may still be
/// read. A value absent from a mask is dead at that point — never read
/// before redefinition on *any* path — so the convergence check may
/// ignore a corrupted value parked there. Soundness note: suspended
/// call frames sit *at* their call instruction, whose result the
/// backward pass already kills, so the pending return value is
/// correctly treated as dead in the caller (it is rewritten from the
/// callee's — separately compared — state on return).
pub fn converge_masks(module: &Module) -> peppa_vm::ConvergeMasks {
    let funcs = module
        .functions
        .iter()
        .map(|f| {
            let cfg = Cfg::new(f);
            live_at_boundaries(f, &cfg)
                .into_iter()
                .map(|bounds| bounds.into_iter().map(|s| s.words().to_vec()).collect())
                .collect()
        })
        .collect();
    peppa_vm::ConvergeMasks::from_raw(funcs)
}

/// Per-function set of values that (transitively) reach an effectful
/// sink: store operand, output, call argument, return value, or branch
/// condition. Block parameters are transparent wires, as in
/// [`crate::defuse`].
pub fn observable_live(f: &Function) -> ValueSet {
    let nv = f.value_types.len();
    let mut live = ValueSet::new(nv);
    let mut work: Vec<ValueId> = Vec::new();
    let seed = |op: &Operand, live: &mut ValueSet, work: &mut Vec<ValueId>| {
        if let Some(v) = op.value() {
            if live.insert(v) {
                work.push(v);
            }
        }
    };

    // Producers: which instruction defines each value; param feeders:
    // which operands flow into each block parameter.
    let mut producer: Vec<Option<&Op>> = vec![None; nv];
    let mut feeders: Vec<Vec<Operand>> = vec![Vec::new(); nv];
    for b in &f.blocks {
        for ins in &b.instrs {
            if let Some(r) = ins.result {
                producer[r.0 as usize] = Some(&ins.op);
            }
        }
        let mut record = |target: peppa_ir::BlockId, args: &[Operand]| {
            for (&p, &a) in f.blocks[target.0 as usize].params.iter().zip(args) {
                feeders[p.0 as usize].push(a);
            }
        };
        match &b.term {
            Term::Br { target, args } => record(*target, args),
            Term::CondBr {
                cond,
                then_target,
                then_args,
                else_target,
                else_args,
            } => {
                seed(cond, &mut live, &mut work);
                record(*then_target, then_args);
                record(*else_target, else_args);
            }
            Term::Ret { value } => {
                if let Some(v) = value {
                    seed(v, &mut live, &mut work);
                }
            }
        }
        for ins in &b.instrs {
            match &ins.op {
                Op::Store { addr, value } => {
                    seed(addr, &mut live, &mut work);
                    seed(value, &mut live, &mut work);
                }
                Op::Output { value } => seed(value, &mut live, &mut work),
                Op::Call { args, .. } => {
                    for a in args {
                        seed(a, &mut live, &mut work);
                    }
                }
                // Load addresses only matter if the loaded value does;
                // handled transitively below.
                _ => {}
            }
        }
    }

    while let Some(v) = work.pop() {
        let vi = v.0 as usize;
        if let Some(op) = producer[vi] {
            for o in op.operands() {
                if let Some(u) = o.value() {
                    if live.insert(u) {
                        work.push(u);
                    }
                }
            }
        }
        for &o in &feeders[vi] {
            if let Some(u) = o.value() {
                if live.insert(u) {
                    work.push(u);
                }
            }
        }
    }
    live
}

#[cfg(test)]
mod tests {
    use super::*;
    use peppa_ir::Module;

    fn compile(src: &str) -> Module {
        peppa_lang::compile(src, "live").unwrap()
    }

    /// Whether every value-defining instruction of every function is
    /// observable-live.
    fn all_defs_observable(m: &Module) -> bool {
        m.functions.iter().all(|f| {
            let live = observable_live(f);
            f.instrs()
                .filter_map(|i| i.result)
                .all(|r| live.contains(r))
        })
    }

    #[test]
    fn used_values_are_live() {
        let m = compile("fn main(x: int) { let a = x + 1; output a; }");
        let f = m.entry_func();
        let live = observable_live(f);
        let add = f.instrs().find(|i| i.op.mnemonic() == "add").unwrap();
        assert!(live.contains(add.result.unwrap()));
        assert!(all_defs_observable(&m));
    }

    #[test]
    fn loop_counter_is_live_through_condition() {
        let m = compile(
            "fn main(n: int) { let s = 0; for (i = 0; i < n; i = i + 1) { s = s + 2; } output s; }",
        );
        // Every value is live: i feeds the branch condition, s the output.
        assert!(all_defs_observable(&m));
    }

    #[test]
    fn block_liveness_crosses_blocks() {
        let m = compile(
            r#"fn main(x: int) {
                let a = x * 3;
                if (x > 0) { output a; } else { output 0; }
            }"#,
        );
        let f = m.entry_func();
        let cfg = Cfg::new(f);
        let li = live_in(f, &cfg);
        let mul = f.instrs().find(|i| i.op.mnemonic() == "mul").unwrap();
        let r = mul.result.unwrap();
        // a is live into the then-branch block.
        let then_b = (1..f.num_blocks()).find(|&b| li[b].contains(r));
        assert!(then_b.is_some(), "mul result live in no successor block");
    }

    #[test]
    fn value_set_roundtrip() {
        let mut s = ValueSet::new(130);
        assert!(s.insert(ValueId(129)));
        assert!(!s.insert(ValueId(129)));
        assert!(s.contains(ValueId(129)));
        s.remove(ValueId(129));
        assert!(!s.contains(ValueId(129)));
        assert_eq!(s.iter().count(), 0);
    }
}
