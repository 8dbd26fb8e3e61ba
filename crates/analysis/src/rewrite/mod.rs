//! The optimizing rewrite engine for PIR (ROADMAP item 4).
//!
//! A pattern-rewrite pass framework in the style of prjunnamed's netlist
//! rewriter: each [`Pass`] takes a whole module, applies local rewrites
//! built on the existing dataflow substrate (CFG/dominators, known-bits,
//! intervals, observable-liveness, the memory-dependence graph, the
//! interprocedural summaries), and reports how many rewrites it applied.
//! [`optimize`] drives a fixpoint pipeline: the pass list for the
//! requested [`OptLevel`] runs repeatedly until one full sweep changes
//! nothing (or the iteration cap trips), then instruction ids are
//! renumbered densely and the result is re-verified.
//!
//! ## The soundness contract
//!
//! Every pass must preserve the *golden-run observables* of the module
//! on both execution engines, bit for bit: the output stream, the
//! return value, and the status (including which trap fires first).
//! The fault *space* is allowed to change — that is the point of the
//! optimization-vs-vulnerability study — but fault-free behaviour is
//! not. Concretely:
//!
//! * Constant folding evaluates with the engines' own semantic kernels
//!   (`peppa_vm::exec_bin_checked` & co.), so a folded constant is the
//!   exact canonical word the VM would have computed — including `i32`
//!   sign-extension, masked shift counts, and saturating `fptosi`.
//! * No floating-point reassociation, ever. Float rewrites are limited
//!   to use-replacement by values proved bit-identical.
//! * Potentially-trapping instructions (`sdiv`/`srem` by a non-constant
//!   divisor, loads, stores, calls) are never deleted and never folded
//!   past their trap check; `allocas` are never deleted (removing one
//!   would shift every later stack address).
//! * Dead-code elimination removes only instructions that are pure and
//!   provably non-trapping; dead stores additionally need their address
//!   proved inside the static global segment.
//! * CSE replaces an instruction only with a *dominating* identical
//!   instruction, so the surviving instance executes (and traps)
//!   exactly when the deleted one would have.

pub mod algebraic;
pub mod cfg_cleanup;
pub mod constfold;
pub mod cse;
pub mod dce;
pub mod licm;
pub mod normalize;

use peppa_ir::{Module, Operand, ValueId};
use serde::Serialize;
use std::collections::HashMap;

pub use cse::redundant_computations;

/// Optimization level: `O0` is the identity, `O1` runs the scalar
/// simplification passes, `O2` adds CSE and CFG cleanup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
pub enum OptLevel {
    O0,
    O1,
    O2,
}

impl OptLevel {
    pub fn as_str(self) -> &'static str {
        match self {
            OptLevel::O0 => "O0",
            OptLevel::O1 => "O1",
            OptLevel::O2 => "O2",
        }
    }
}

impl std::str::FromStr for OptLevel {
    type Err = String;
    fn from_str(s: &str) -> Result<OptLevel, String> {
        match s.trim_start_matches("-").trim_start_matches(['O', 'o']) {
            "0" => Ok(OptLevel::O0),
            "1" => Ok(OptLevel::O1),
            "2" => Ok(OptLevel::O2),
            _ => Err(format!("unknown opt level `{s}` (expected 0, 1, or 2)")),
        }
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One rewrite pass over a whole module.
///
/// The input satisfies every verifier invariant *except* sid density
/// (earlier passes may have deleted instructions, leaving gaps below the
/// original `num_instrs`), and the pass must return a module in the same
/// state: all blocks reachable, SSA intact, types consistent, sids
/// unique and `< num_instrs`.
pub trait Pass {
    fn name(&self) -> &'static str;
    /// Applies the pass in place; returns the number of rewrites applied
    /// (0 means the module is unchanged).
    fn run(&self, m: &mut Module) -> u64;
}

/// Per-pass change tracking, accumulated across fixpoint iterations.
#[derive(Debug, Clone, Serialize)]
pub struct PassStats {
    pub name: &'static str,
    /// Total rewrites the pass applied over all pipeline iterations.
    pub applied: u64,
    /// Total wall time spent in the pass.
    pub wall_ns: u64,
}

/// Pipeline-level statistics for one [`optimize`] run.
#[derive(Debug, Clone, Serialize)]
pub struct PipelineStats {
    pub level: OptLevel,
    /// Fixpoint sweeps executed (the last one applied zero rewrites
    /// unless the iteration cap tripped).
    pub iterations: u32,
    pub passes: Vec<PassStats>,
    /// Static instruction count before / after.
    pub instrs_before: usize,
    pub instrs_after: usize,
}

/// Result of [`optimize`]: the rewritten module plus bookkeeping.
#[derive(Debug, Clone)]
pub struct OptResult {
    pub module: Module,
    pub stats: PipelineStats,
    /// `provenance[new_sid]` = the sid the instruction had in the input
    /// module. Rewrites edit instructions in place and deletions leave
    /// gaps, so every surviving instruction has a unique original sid —
    /// the correspondence the optstudy experiment ranks across levels.
    pub provenance: Vec<u32>,
}

/// The pass list for a level, in sweep order.
pub fn pipeline(level: OptLevel) -> Vec<Box<dyn Pass>> {
    match level {
        OptLevel::O0 => Vec::new(),
        OptLevel::O1 => vec![
            Box::new(constfold::ConstFold) as Box<dyn Pass>,
            Box::new(algebraic::Algebraic),
            Box::new(dce::Dce),
        ],
        OptLevel::O2 => vec![
            Box::new(constfold::ConstFold) as Box<dyn Pass>,
            Box::new(algebraic::Algebraic),
            Box::new(cse::Cse),
            Box::new(licm::Licm),
            Box::new(dce::Dce),
            Box::new(cfg_cleanup::CfgCleanup),
        ],
    }
}

/// Fixpoint sweeps before the driver gives up. Each sweep only runs if
/// the previous one changed something, and every rewrite strictly
/// shrinks the instruction count or the set of foldable patterns, so
/// real modules converge in 2-4 sweeps; the cap is a backstop.
const MAX_SWEEPS: u32 = 10;

/// Optimizes `module` at `level`: runs the pipeline to a fixpoint,
/// renumbers sids densely, and re-verifies. Panics if a pass breaks a
/// verifier invariant — that is a bug in the pass, never in the input.
pub fn optimize(module: &Module, level: OptLevel) -> OptResult {
    let mut m = module.clone();
    let instrs_before = m.num_instrs;
    let passes = pipeline(level);
    let mut stats: Vec<PassStats> = passes
        .iter()
        .map(|p| PassStats {
            name: p.name(),
            applied: 0,
            wall_ns: 0,
        })
        .collect();

    let mut iterations = 0;
    if !passes.is_empty() {
        loop {
            iterations += 1;
            let mut sweep_applied = 0;
            for (p, s) in passes.iter().zip(&mut stats) {
                let t0 = std::time::Instant::now();
                let n = p.run(&mut m);
                s.wall_ns += t0.elapsed().as_nanos() as u64;
                s.applied += n;
                sweep_applied += n;
            }
            if sweep_applied == 0 || iterations >= MAX_SWEEPS {
                break;
            }
        }
    }

    let provenance = normalize::renumber_sids(&mut m);
    normalize::compact_values(&mut m);
    if let Err(e) = peppa_ir::verify(&m) {
        panic!(
            "optimizer produced ill-formed IR at {level} for `{}`: {} (function {}, block {:?})",
            m.name, e.message, e.function, e.block
        );
    }
    let instrs_after = m.num_instrs;
    OptResult {
        module: m,
        stats: PipelineStats {
            level,
            iterations,
            passes: stats,
            instrs_before,
            instrs_after,
        },
        provenance,
    }
}

/// Renders per-pass statistics as an aligned table (the `peppa opt
/// --print-pipeline` / per-pass stats output).
pub fn render_stats(s: &PipelineStats) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "pipeline {} ({} sweep{}): {} -> {} static instrs ({:.1}% removed)\n",
        s.level,
        s.iterations,
        if s.iterations == 1 { "" } else { "s" },
        s.instrs_before,
        s.instrs_after,
        if s.instrs_before > 0 {
            (s.instrs_before - s.instrs_after) as f64 / s.instrs_before as f64 * 100.0
        } else {
            0.0
        }
    ));
    out.push_str(&format!(
        "{:<12} {:>10} {:>12}\n",
        "pass", "rewrites", "wall us"
    ));
    for p in &s.passes {
        out.push_str(&format!(
            "{:<12} {:>10} {:>12.1}\n",
            p.name,
            p.applied,
            p.wall_ns as f64 / 1e3
        ));
    }
    out
}

// ---- shared rewrite utilities ---------------------------------------------

/// `o` with mapped values chased to their final replacement.
pub(crate) fn resolve(map: &HashMap<ValueId, Operand>, mut o: Operand) -> Operand {
    // Chains are acyclic (every replacement points at an older value or
    // a constant); the hop cap is a defensive backstop.
    for _ in 0..=map.len() {
        match o {
            Operand::Value(v) => match map.get(&v) {
                Some(&next) => o = next,
                None => break,
            },
            Operand::Const(_) => break,
        }
    }
    o
}

/// Calls `f` on every operand slot of `op`.
pub(crate) fn for_each_operand_mut(op: &mut peppa_ir::Op, mut f: impl FnMut(&mut Operand)) {
    use peppa_ir::Op;
    match op {
        Op::Bin { a, b, .. } | Op::Icmp { a, b, .. } | Op::Fcmp { a, b, .. } => {
            f(a);
            f(b);
        }
        Op::Un { a, .. } | Op::Cast { a, .. } => f(a),
        Op::Select { cond, t, f: fo } => {
            f(cond);
            f(t);
            f(fo);
        }
        Op::Load { addr, .. } => f(addr),
        Op::Store { addr, value } => {
            f(addr);
            f(value);
        }
        Op::Gep { base, index } => {
            f(base);
            f(index);
        }
        Op::Alloca { words } => f(words),
        Op::Call { args, .. } => args.iter_mut().for_each(f),
        Op::Output { value } => f(value),
    }
}

/// Calls `f` on every operand slot of `term`.
pub(crate) fn for_each_term_operand_mut(
    term: &mut peppa_ir::Term,
    mut f: impl FnMut(&mut Operand),
) {
    use peppa_ir::Term;
    match term {
        Term::Br { args, .. } => args.iter_mut().for_each(f),
        Term::CondBr {
            cond,
            then_args,
            else_args,
            ..
        } => {
            f(cond);
            then_args.iter_mut().for_each(&mut f);
            else_args.iter_mut().for_each(f);
        }
        Term::Ret { value } => {
            if let Some(v) = value {
                f(v)
            }
        }
    }
}

/// Rewrites every use of the mapped values in `f` to the replacement
/// operand, chasing chains (`a -> b`, `b -> c` applies `a -> c`).
/// Returns the number of operand slots rewritten.
pub(crate) fn replace_uses(f: &mut peppa_ir::Function, map: &HashMap<ValueId, Operand>) -> u64 {
    if map.is_empty() {
        return 0;
    }
    let mut n = 0;
    let mut apply = |o: &mut Operand| {
        if matches!(*o, Operand::Value(v) if map.contains_key(&v)) {
            *o = resolve(map, *o);
            n += 1;
        }
    };
    for b in &mut f.blocks {
        for ins in &mut b.instrs {
            for_each_operand_mut(&mut ins.op, &mut apply);
        }
        for_each_term_operand_mut(&mut b.term, &mut apply);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opt_level_parses_all_spellings() {
        for (s, l) in [
            ("0", OptLevel::O0),
            ("O1", OptLevel::O1),
            ("-O2", OptLevel::O2),
            ("o2", OptLevel::O2),
            ("2", OptLevel::O2),
        ] {
            assert_eq!(s.parse::<OptLevel>().unwrap(), l, "{s}");
        }
        assert!("3".parse::<OptLevel>().is_err());
        assert!("fast".parse::<OptLevel>().is_err());
    }

    #[test]
    fn o0_is_identity() {
        let m = peppa_lang::compile("fn main(x: int) { output x * 2 + 3; }", "id").unwrap();
        let r = optimize(&m, OptLevel::O0);
        assert_eq!(r.module, m);
        assert_eq!(r.stats.iterations, 0);
        assert_eq!(r.provenance, (0..m.num_instrs as u32).collect::<Vec<_>>());
    }
}
