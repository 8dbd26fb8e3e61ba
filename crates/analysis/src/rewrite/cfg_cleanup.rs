//! CFG cleanup: constant-condition branch folding, single-predecessor
//! block merging, unreachable-block pruning.
//!
//! Constfold has already replaced provably-constant branch conditions
//! with literals (including the interprocedurally-proved ones the
//! `always-taken-branch` lint reports), so folding here just inspects
//! the condition operand. A two-way branch whose edges are fully
//! identical (same target, same args) folds regardless of the
//! condition: both golden arms are the same edge.
//!
//! Merging `b -> t` requires `t` to have exactly one incoming *edge*
//! (multiplicity counts — a self-loop on `t` is two edges and blocks
//! the merge, which matters for soundness: `t`'s parameters are
//! substituted by the branch arguments, valid only when that edge is
//! the sole way in). The merged-away block goes unreachable and is
//! pruned immediately, keeping every mid-pipeline module free of
//! unreachable blocks (the analyses assume it).
//!
//! Terminators are not dynamic instructions in the profile, so merging
//! does not change the dynamic-instruction count — its value is
//! unblocking other passes (longer straight-line regions for CSE) and
//! shrinking the static CFG.

use super::normalize::prune_unreachable_blocks;
use super::{replace_uses, resolve, Pass};
use peppa_ir::{Block, BlockId, Function, Module, Operand, Term, ValueId};
use peppa_vm::canon;
use std::collections::HashMap;

pub struct CfgCleanup;

impl Pass for CfgCleanup {
    fn name(&self) -> &'static str {
        "cfg-cleanup"
    }

    fn run(&self, m: &mut Module) -> u64 {
        let mut applied = 0;
        for f in &mut m.functions {
            // 1. Fold branches with a literal condition or identical
            // edges.
            for b in &mut f.blocks {
                if let Term::CondBr {
                    cond,
                    then_target,
                    then_args,
                    else_target,
                    else_args,
                } = &b.term
                {
                    let taken = match cond {
                        Operand::Const(c) => Some(canon(c.ty, c.bits) & 1 != 0),
                        Operand::Value(_) => {
                            if then_target == else_target && then_args == else_args {
                                Some(true)
                            } else {
                                None
                            }
                        }
                    };
                    if let Some(taken) = taken {
                        b.term = if taken {
                            Term::Br {
                                target: *then_target,
                                args: then_args.clone(),
                            }
                        } else {
                            Term::Br {
                                target: *else_target,
                                args: else_args.clone(),
                            }
                        };
                        applied += 1;
                    }
                }
            }
            applied += prune_unreachable_blocks(f);

            // 2. Eliminate trivial block parameters (the φ-equivalent
            // of φ(x, x, self) == x). MiniC lowering threads every
            // local through loop headers, so unchanged variables look
            // loop-defined until this runs — it is what unlocks LICM
            // and cross-iteration CSE on the benchmarks.
            applied += eliminate_trivial_params(f);

            // 3. Merge single-edge chains until none remain.
            applied += merge_chains(f);

            applied += eliminate_trivial_params(f);

            debug_assert!(f.blocks[0].params.is_empty());
            debug_assert!(f.blocks.iter().all(|b| b
                .term
                .successors()
                .iter()
                .all(|s| (s.0 as usize) < f.blocks.len())));
        }
        applied
    }
}

/// Merges every `b -> t` edge that is `t`'s only way in, scanning
/// blocks in order and merging each block again while its inherited
/// terminator qualifies: the same rewrites, in the same order, as
/// restarting the scan after every merge, because a merge changes no
/// surviving block's predecessor count and only `b`'s terminator.
/// Substitutions and the removal of merged-away blocks are applied once
/// at the end.
fn merge_chains(f: &mut Function) -> u64 {
    let n = f.blocks.len();
    let mut pred_edges = vec![0u32; n];
    for b in &f.blocks {
        for s in b.term.successors() {
            pred_edges[s.0 as usize] += 1;
        }
    }
    let mut subst: HashMap<ValueId, Operand> = HashMap::new();
    let mut merged = 0;
    for bi in 0..n {
        while let Term::Br { target, .. } = f.blocks[bi].term {
            let ti = target.0 as usize;
            if ti == 0 || ti == bi || pred_edges[ti] != 1 {
                break;
            }
            let Term::Br { args, .. } =
                std::mem::replace(&mut f.blocks[bi].term, Term::Ret { value: None })
            else {
                unreachable!()
            };
            // `ti` becomes an empty shell with no predecessors.
            let shell = Block {
                params: Vec::new(),
                instrs: Vec::new(),
                term: Term::Ret { value: None },
            };
            let t = std::mem::replace(&mut f.blocks[ti], shell);
            for (p, a) in t.params.into_iter().zip(args) {
                subst.insert(p, resolve(&subst, a));
            }
            f.blocks[bi].instrs.extend(t.instrs);
            f.blocks[bi].term = t.term;
            merged += 1;
        }
    }
    replace_uses(f, &subst);
    prune_unreachable_blocks(f);
    merged
}

/// Removes block parameters that are provably copies: a param `p`
/// receiving, on every incoming edge, either `p` itself (back edges) or
/// one fixed operand `x`, always equals `x`. The replacement's def
/// dominates the block — every entry path carries `x` — so replacing
/// uses of `p` and dropping the param/argument column is sound.
///
/// Params are removed one at a time, always the first trivial one in
/// block and param order. Removing `p` can only make params that read
/// `p` trivial, so those are the only ones checked again; uses are
/// rewritten once at the end.
fn eliminate_trivial_params(f: &mut Function) -> u64 {
    // Every param as the function stands on entry, in block and param
    // order; `first[bi]` is the slot of block `bi`'s first param.
    let mut first = Vec::with_capacity(f.blocks.len());
    let mut slots: Vec<(usize, ValueId)> = Vec::new();
    for (bi, b) in f.blocks.iter().enumerate() {
        first.push(slots.len());
        slots.extend(b.params.iter().map(|&p| (bi, p)));
    }
    // Per-target incoming edges as (source block, is the else edge), and
    // per value the param slots whose column reads it.
    let mut incoming: Vec<Vec<(usize, bool)>> = vec![Vec::new(); f.blocks.len()];
    let mut readers: HashMap<ValueId, Vec<usize>> = HashMap::new();
    for (bi, b) in f.blocks.iter().enumerate() {
        for (is_else, (target, args)) in edges(&b.term).enumerate() {
            incoming[target.0 as usize].push((bi, is_else == 1));
            for (j, a) in args.iter().enumerate() {
                if let Operand::Value(v) = a {
                    readers
                        .entry(*v)
                        .or_default()
                        .push(first[target.0 as usize] + j);
                }
            }
        }
    }
    // Slots to check; none below `next` is pending.
    let mut pending = vec![true; slots.len()];
    let mut next = 0;
    let mut subst: HashMap<ValueId, Operand> = HashMap::new();
    let mut applied = 0;
    while let Some(slot) = (next..slots.len()).find(|&s| pending[s]) {
        pending[slot] = false;
        next = slot + 1;
        let (bi, p) = slots[slot];
        let Some(col) = f.blocks[bi].params.iter().position(|&q| q == p) else {
            continue;
        };
        let mut x: Option<Operand> = None;
        let mut trivial = true;
        for &(src, is_else) in &incoming[bi] {
            let a = resolve(&subst, edge_args(&mut f.blocks[src].term, is_else)[col]);
            if a == Operand::Value(p) {
                continue;
            }
            match x {
                None => x = Some(a),
                Some(e) if e != a => {
                    trivial = false;
                    break;
                }
                Some(_) => {}
            }
        }
        let (true, Some(x)) = (trivial, x) else {
            continue;
        };
        f.blocks[bi].params.remove(col);
        for &(src, is_else) in &incoming[bi] {
            edge_args(&mut f.blocks[src].term, is_else).remove(col);
        }
        subst.insert(p, x);
        if let Some(rs) = readers.remove(&p) {
            for &s in &rs {
                pending[s] = true;
                next = next.min(s);
            }
            if let Operand::Value(v) = x {
                readers.entry(v).or_default().extend(rs);
            }
        }
        applied += 1;
    }
    replace_uses(f, &subst);
    applied
}

/// A terminator's outgoing edges: the target and argument list of its
/// branch, or of its then edge and then its else edge.
fn edges(term: &Term) -> impl Iterator<Item = (BlockId, &Vec<Operand>)> {
    let (first, second) = match term {
        Term::Br { target, args } => (Some((*target, args)), None),
        Term::CondBr {
            then_target,
            then_args,
            else_target,
            else_args,
            ..
        } => (
            Some((*then_target, then_args)),
            Some((*else_target, else_args)),
        ),
        Term::Ret { .. } => (None, None),
    };
    first.into_iter().chain(second)
}

/// The argument list of a branch edge (`is_else` picks a conditional
/// branch's else edge).
fn edge_args(term: &mut Term, is_else: bool) -> &mut Vec<Operand> {
    match term {
        Term::Br { args, .. } => args,
        Term::CondBr { then_args, .. } if !is_else => then_args,
        Term::CondBr { else_args, .. } => else_args,
        Term::Ret { .. } => unreachable!("a return has no edges"),
    }
}
