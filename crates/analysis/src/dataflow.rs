//! Generic dataflow engines over the [`Cfg`].
//!
//! Two solvers live here:
//!
//! * [`solve_blocks`]: the classic worklist solver over per-block facts,
//!   parameterized by a [`BlockAnalysis`] (direction, boundary fact,
//!   transfer, join). Liveness is the in-tree backward client.
//! * [`analyze_values`]: a per-value abstract-interpretation engine for
//!   domains implementing [`AbstractDomain`] (known-bits, intervals).
//!   It walks blocks in RPO, evaluates instruction transfers, joins
//!   branch arguments into block parameters, and applies the domain's
//!   widening operator at loop headers so loop-carried values converge.
//!   A solve allocates its fact vectors once and reuses one argument
//!   buffer for every transfer. Block parameters start optimistic, so
//!   only a fixpoint is sound: when `MAX_PASSES` full passes still
//!   change something, the solve returns ⊤ for every value but the
//!   seeded function parameters.

use crate::cfg::Cfg;
use peppa_ir::{Const, Function, Module, Op, Operand, Term, Ty};

/// Direction of a block analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    Forward,
    Backward,
}

/// A classic iterative dataflow problem over block facts.
pub trait BlockAnalysis {
    /// The fact attached to each block (entry fact for forward problems,
    /// exit fact for backward ones).
    type Fact: Clone;

    fn direction(&self) -> Direction;

    /// Fact at the boundary: the entry block (forward) or every
    /// exit block (backward).
    fn boundary(&self) -> Self::Fact;

    /// Initial fact for non-boundary blocks (usually the lattice bottom).
    fn init(&self) -> Self::Fact;

    /// Applies the block's effect: maps the entry fact to the exit fact
    /// (forward), or the exit fact to the entry fact (backward).
    fn transfer(&self, block: u32, fact: &Self::Fact) -> Self::Fact;

    /// Joins `from` into `into`; returns whether `into` changed.
    fn join(&self, into: &mut Self::Fact, from: &Self::Fact) -> bool;
}

/// Runs the worklist algorithm; returns the fact at each block's entry
/// (forward) or exit (backward) — i.e. the fact *before* the block's
/// transfer is applied, in analysis direction.
pub fn solve_blocks<A: BlockAnalysis>(cfg: &Cfg, a: &A) -> Vec<A::Fact> {
    let n = cfg.num_blocks();
    let mut facts: Vec<A::Fact> = (0..n).map(|_| a.init()).collect();
    if n == 0 {
        return facts;
    }
    let forward = a.direction() == Direction::Forward;
    if forward {
        facts[0] = a.boundary();
    } else {
        // Every block whose terminator has no successors is an exit.
        for (b, fact) in facts.iter_mut().enumerate() {
            if cfg.succs[b].is_empty() {
                *fact = a.boundary();
            }
        }
    }

    // Seed the worklist in the direction's preferred order so most
    // problems converge in one or two sweeps.
    let order: Vec<u32> = if forward {
        cfg.rpo.clone()
    } else {
        cfg.rpo.iter().rev().copied().collect()
    };
    let mut inq = vec![true; n];
    let mut queue: std::collections::VecDeque<u32> = order.into();

    while let Some(b) = queue.pop_front() {
        inq[b as usize] = false;
        let out = a.transfer(b, &facts[b as usize]);
        let nexts = if forward {
            &cfg.succs[b as usize]
        } else {
            &cfg.preds[b as usize]
        };
        for &s in nexts {
            if a.join(&mut facts[s as usize], &out) && !inq[s as usize] {
                inq[s as usize] = true;
                queue.push_back(s);
            }
        }
    }
    facts
}

/// An abstract value domain for the per-value engine. Every operation
/// works on the VM's canonical 64-bit representation (i32 values are
/// sign-extended, i1 is 0/1, f64 is IEEE bits) — transfers must be sound
/// w.r.t. the interpreter in `peppa-vm`.
pub trait AbstractDomain: Clone + PartialEq {
    /// Least-precise element for a type: all canonical values of `ty`.
    fn top(ty: Ty) -> Self;

    /// Abstraction of one constant (canonicalized).
    fn of_const(c: Const) -> Self;

    /// Least upper bound.
    fn join(&self, other: &Self) -> Self;

    /// Widening: `self` is the current fact at a loop header, `next` the
    /// freshly joined one. Must return something ≥ both and guarantee
    /// finite ascending chains.
    fn widen(&self, next: &Self) -> Self;

    /// Transfer of one value-producing instruction. `args` follow
    /// `op.operands()` order, `arg_tys` are their declared types, and
    /// `ty` is the result type. Must over-approximate every possible
    /// concrete result (loads and calls are typically `top(ty)` in an
    /// intraprocedural setting).
    fn transfer(op: &Op, ty: Ty, args: &[Self], arg_tys: &[Ty]) -> Self;
}

/// Per-function analysis result: one abstract value per
/// [`ValueId`](peppa_ir::ValueId).
#[derive(Debug, Clone)]
pub struct ValueFacts<D> {
    pub values: Vec<D>,
}

impl<D: AbstractDomain> ValueFacts<D> {
    /// Abstraction of an operand.
    pub fn of_operand(&self, op: &Operand) -> D {
        match op {
            Operand::Value(v) => self.values[v.0 as usize].clone(),
            Operand::Const(c) => D::of_const(*c),
        }
    }
}

/// How many joins a loop-header parameter absorbs before widening kicks
/// in. A couple of precise iterations let small constant-bounded loops
/// settle exactly; after that the domain must jump to convergence.
const WIDEN_AFTER: u32 = 3;

/// Runs the per-value engine on one function. Function parameters start
/// at `top` (their type's full canonical set) — callers that know more
/// can seed `params` instead.
pub fn analyze_values<D: AbstractDomain>(f: &Function, cfg: &Cfg) -> ValueFacts<D> {
    let params: Vec<D> = f.params.iter().map(|&t| D::top(t)).collect();
    analyze_values_seeded(f, cfg, &params)
}

/// [`analyze_values`] with explicit abstractions for the function
/// parameters.
pub fn analyze_values_seeded<D: AbstractDomain>(
    f: &Function,
    cfg: &Cfg,
    params: &[D],
) -> ValueFacts<D> {
    analyze_values_ctx(f, cfg, params, &|_, ty| D::top(ty))
}

/// [`analyze_values_seeded`] with an interprocedural context: call
/// results take `call_ret(callee, result_ty)` instead of `top`, so a
/// caller analysis can consume callee return summaries. The supplied
/// fact must over-approximate every value the callee can return in this
/// module (the top-down engine in [`crate::summary`] guarantees that by
/// joining over all call sites and widening recursive cliques).
pub fn analyze_values_ctx<D: AbstractDomain>(
    f: &Function,
    cfg: &Cfg,
    params: &[D],
    call_ret: &dyn Fn(peppa_ir::FuncId, Ty) -> D,
) -> ValueFacts<D> {
    assert_eq!(params.len(), f.params.len());
    let nv = f.value_types.len();
    let mut vals: Vec<D> = (0..nv).map(|v| D::top(f.value_types[v])).collect();
    // Block params start optimistically at the first incoming value and
    // join subsequent ones; until first reached, they sit at (sound) top.
    let mut param_seen = vec![false; nv];
    vals[..params.len()].clone_from_slice(params);
    // Join counts per block-param value, to trigger widening.
    let mut joins = vec![0u32; nv];
    // One transfer's abstract arguments and their types, reused.
    let mut args: Vec<D> = Vec::new();
    let mut arg_tys: Vec<Ty> = Vec::new();

    // Full RPO sweeps until a whole pass changes nothing. Widening at
    // loop headers bounds each value's ascent, but a domain whose widen
    // is a finite-height join (KnownBits) can still need more passes
    // than the cap when long chains of loop-carried values descend one
    // after another. Block parameters start optimistic, so a solve cut
    // off by the cap is not a fixpoint and its facts are unsound.
    const MAX_PASSES: u32 = 200;
    let mut converged = false;
    for _pass in 0..MAX_PASSES {
        let mut changed = false;
        for &b in &cfg.rpo {
            let block = &f.blocks[b as usize];
            for ins in &block.instrs {
                if let Some(r) = ins.result {
                    let next = match &ins.op {
                        Op::Call { func, .. } => call_ret(*func, f.ty_of(r)),
                        op => {
                            args.clear();
                            arg_tys.clear();
                            for o in op.operands() {
                                args.push(match o {
                                    Operand::Value(v) => vals[v.0 as usize].clone(),
                                    Operand::Const(c) => D::of_const(c),
                                });
                                arg_tys.push(f.operand_ty(&o));
                            }
                            D::transfer(op, f.ty_of(r), &args, &arg_tys)
                        }
                    };
                    if next != vals[r.0 as usize] {
                        vals[r.0 as usize] = next;
                        changed = true;
                    }
                }
            }

            let mut flow = |target: peppa_ir::BlockId, edge_args: &[Operand]| {
                let tb = target.0 as usize;
                for (&p, a) in f.blocks[tb].params.iter().zip(edge_args) {
                    let incoming = match a {
                        Operand::Value(v) => vals[v.0 as usize].clone(),
                        Operand::Const(c) => D::of_const(*c),
                    };
                    let pi = p.0 as usize;
                    let next = if param_seen[pi] {
                        vals[pi].join(&incoming)
                    } else {
                        param_seen[pi] = true;
                        incoming
                    };
                    let next = if cfg.loop_header[tb] && joins[pi] >= WIDEN_AFTER {
                        vals[pi].widen(&next)
                    } else {
                        next
                    };
                    if next != vals[pi] {
                        joins[pi] += 1;
                        vals[pi] = next;
                        changed = true;
                    }
                }
            };

            match &block.term {
                Term::Br { target, args } => flow(*target, args),
                Term::CondBr {
                    then_target,
                    then_args,
                    else_target,
                    else_args,
                    ..
                } => {
                    flow(*then_target, then_args);
                    flow(*else_target, else_args);
                }
                Term::Ret { .. } => {}
            }
        }
        if !changed {
            converged = true;
            break;
        }
    }
    if !converged {
        // Give up soundly: every value but the seeded parameters is ⊤.
        for (v, val) in vals.iter_mut().enumerate().skip(params.len()) {
            *val = D::top(f.value_types[v]);
        }
    }

    ValueFacts { values: vals }
}

/// Per-function results for a whole module, indexed by `FuncId.0`.
#[derive(Debug, Clone)]
pub struct ModuleValueFacts<D> {
    pub per_func: Vec<ValueFacts<D>>,
}

/// Runs [`analyze_values`] on every function of `module`.
pub fn analyze_module<D: AbstractDomain>(module: &Module) -> ModuleValueFacts<D> {
    let per_func = module
        .functions
        .iter()
        .map(|f| {
            let cfg = Cfg::new(f);
            analyze_values::<D>(f, &cfg)
        })
        .collect();
    ModuleValueFacts { per_func }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;

    /// Trivial forward "reachable constant count" analysis used to
    /// exercise the block solver: counts the max number of blocks on any
    /// path from the entry (saturating), i.e. longest-path depth.
    struct Depth {
        cap: u32,
    }

    impl BlockAnalysis for Depth {
        type Fact = u32;
        fn direction(&self) -> Direction {
            Direction::Forward
        }
        fn boundary(&self) -> u32 {
            0
        }
        fn init(&self) -> u32 {
            0
        }
        fn transfer(&self, _b: u32, f: &u32) -> u32 {
            (*f + 1).min(self.cap)
        }
        fn join(&self, into: &mut u32, from: &u32) -> bool {
            if *from > *into {
                *into = *from;
                true
            } else {
                false
            }
        }
    }

    #[test]
    fn block_solver_reaches_fixpoint_on_loops() {
        let m = peppa_lang::compile(
            "fn main(n: int) { let s = 0; for (i = 0; i < n; i = i + 1) { s = s + i; } output s; }",
            "df",
        )
        .unwrap();
        let f = m.entry_func();
        let cfg = Cfg::new(f);
        let facts = solve_blocks(&cfg, &Depth { cap: 100 });
        // With a loop, depths saturate at the cap for blocks in the cycle.
        assert!(facts.contains(&100));
        // The entry keeps its boundary fact.
        assert_eq!(facts[0], 0);
    }
}
