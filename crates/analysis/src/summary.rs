//! Interprocedural bit-precision summaries.
//!
//! [`BitSummary`] is a **per-bit transfer relation** per function: for
//! every return-value bit it records exactly which bits of each parameter
//! can influence it, alongside per-param-bit sink and memory channels and
//! a ⊤ *environment* channel for return bits fed by memory rather than
//! parameters. Summaries are computed bottom-up over the call-graph SCCs
//! (each SCC iterated to a joint fixpoint — the lattice of bit masks is
//! finite, so the iteration is its own widening) and composed at call
//! sites per result bit: [`compose_ret`] unions only the transfer rows
//! of the result bits that actually matter, so `output f(x) & 1` keeps
//! param bits that feed only the high bits of `f`'s return provably
//! masked.
//!
//! **Interprocedural value facts.** [`analyze_module_interproc`] runs the
//! per-value abstract-interpretation engine with call boundaries wired
//! up: a bottom-up pass computes return-value facts (recursive cliques
//! iterated with the domain's widening), then a top-down pass seeds
//! callee parameters with the join of the incoming argument facts over
//! all call sites (widened after a few rounds so recursion converges),
//! and a final pass produces per-value facts under both refinements.
//! `memdep` consumes the tighter address intervals; `lint` consumes the
//! return facts for constant-return findings.

use crate::callgraph::CallGraph;
use crate::cfg::Cfg;
use crate::dataflow::{analyze_values_ctx, AbstractDomain, ModuleValueFacts, ValueFacts};
use crate::reach::{solve_function, FULL};
use peppa_ir::{Function, Module, Op, Term};

/// Per-function, per-bit interprocedural transfer summary.
#[derive(Debug, Clone, PartialEq)]
pub struct BitSummary {
    /// `ret_transfer[i][b]`: bits of parameter `i` that can influence
    /// bit `b` of the return value. Rows beyond the return type's width
    /// stay zero; callers index rows with the *canonical* matter mask of
    /// the call result, whose high groups always include the in-width
    /// representative bit.
    pub ret_transfer: Vec<Box<[u64; 64]>>,
    /// Bits of each parameter that can reach an in-callee sink — branch
    /// condition, address, divisor, allocation size, output —
    /// transitively through nested calls.
    pub sink_bits: Vec<u64>,
    /// Bits of each parameter that can reach any stored-to-memory value.
    pub mem_bits: Vec<u64>,
    /// ⊤ environment channel: return bits that memory loads (or callees'
    /// environment channels) can influence — return deviation *not*
    /// explained by parameter deviation. Constant-return claims require
    /// this to be empty on the claimed bits.
    pub env_ret: u64,
}

impl BitSummary {
    fn empty(nparams: usize) -> BitSummary {
        BitSummary {
            ret_transfer: (0..nparams).map(|_| Box::new([0u64; 64])).collect(),
            sink_bits: vec![0; nparams],
            mem_bits: vec![0; nparams],
            env_ret: 0,
        }
    }

    /// Or-merges `other` into `self`; reports whether anything grew.
    fn merge(&mut self, other: &BitSummary) -> bool {
        let mut changed = false;
        for i in 0..self.sink_bits.len() {
            for b in 0..64 {
                let cur = self.ret_transfer[i][b];
                if cur | other.ret_transfer[i][b] != cur {
                    self.ret_transfer[i][b] |= other.ret_transfer[i][b];
                    changed = true;
                }
            }
            for (slot, m) in [
                (&mut self.sink_bits[i], other.sink_bits[i]),
                (&mut self.mem_bits[i], other.mem_bits[i]),
            ] {
                if *slot | m != *slot {
                    *slot |= m;
                    changed = true;
                }
            }
        }
        if self.env_ret | other.env_ret != self.env_ret {
            self.env_ret |= other.env_ret;
            changed = true;
        }
        changed
    }

    /// Param-`i` bits that can influence anything at all (any channel).
    pub fn param_reach(&self, i: usize) -> u64 {
        self.sink_bits[i] | self.mem_bits[i] | self.param_ret_bits(i)
    }

    /// Param-`i` bits that can influence some bit of the return value.
    pub fn param_ret_bits(&self, i: usize) -> u64 {
        let mut m = 0;
        for b in 0..64 {
            m |= self.ret_transfer[i][b];
        }
        m
    }
}

/// Per-bit call composition: bits of param `i` that can influence the
/// result bits in `r`, i.e. the union of the transfer rows `r` selects.
pub fn compose_ret(s: &BitSummary, i: usize, r: u64) -> u64 {
    let mut m = 0;
    let mut rr = r;
    while rr != 0 {
        let b = rr.trailing_zeros() as usize;
        rr &= rr - 1;
        m |= s.ret_transfer[i][b];
    }
    m
}

/// One function's candidate summary given the current table (for callee
/// composition).
fn summarize_one(f: &Function, sums: &[BitSummary]) -> BitSummary {
    let np = f.params.len();
    let mut out = BitSummary::empty(np);

    let sink = solve_function(
        f,
        0,
        true,
        |_| 0,
        |g, i, r| {
            let s = &sums[g.0 as usize];
            s.sink_bits[i] | compose_ret(s, i, r)
        },
    );
    out.sink_bits.copy_from_slice(&sink[..np]);

    let mem = solve_function(
        f,
        0,
        false,
        |_| FULL,
        |g, i, r| {
            let s = &sums[g.0 as usize];
            s.mem_bits[i] | compose_ret(s, i, r)
        },
    );
    out.mem_bits.copy_from_slice(&mem[..np]);

    let ret_w = f.ret.map(|t| t.bits()).unwrap_or(0);
    for b in 0..ret_w {
        let m = solve_function(
            f,
            1u64 << b,
            false,
            |_| 0,
            |g, i, r| compose_ret(&sums[g.0 as usize], i, r),
        );
        for (i, &mi) in m.iter().enumerate().take(np) {
            out.ret_transfer[i][b as usize] = mi;
        }
        // Environment channel: a load result with matter feeds this ret
        // bit from memory; a call result whose matter overlaps the
        // callee's environment channel inherits it transitively.
        let mut env = false;
        for ins in f.instrs() {
            if let Some(rv) = ins.result {
                match &ins.op {
                    Op::Load { .. } if m[rv.0 as usize] != 0 => env = true,
                    Op::Call { func, .. }
                        if sums[func.0 as usize].env_ret & m[rv.0 as usize] != 0 =>
                    {
                        env = true
                    }
                    _ => {}
                }
            }
        }
        if env {
            out.env_ret |= 1 << b;
        }
    }
    out
}

/// Computes the per-bit [`BitSummary`] for every function, bottom-up
/// over the call-graph SCCs. Each SCC is iterated to a joint fixpoint:
/// the summary lattice is a finite product of 64-bit masks that only
/// ever grows, so convergence needs no separate widening operator.
pub fn summarize_bits(module: &Module, cg: &CallGraph) -> Vec<BitSummary> {
    let mut sums: Vec<BitSummary> = module
        .functions
        .iter()
        .map(|f| BitSummary::empty(f.params.len()))
        .collect();
    for comp in &cg.sccs {
        loop {
            let mut changed = false;
            for &fid in comp {
                let fi = fid.0 as usize;
                let cand = summarize_one(&module.functions[fi], &sums);
                changed |= sums[fi].merge(&cand);
            }
            if !changed {
                break;
            }
        }
    }
    sums
}

/// Interprocedural per-value facts: the result of
/// [`analyze_module_interproc`].
#[derive(Debug, Clone)]
pub struct InterprocFacts<D> {
    /// Per-value facts under interprocedural parameter and return
    /// refinement. Sound for every concrete fault-free execution from
    /// the module entry.
    pub facts: ModuleValueFacts<D>,
    /// Return-value fact per function: the join of the facts at every
    /// `ret` operand. `None` for void functions.
    pub ret: Vec<Option<D>>,
    /// The parameter seeds the final pass used (join over call-site
    /// arguments; ⊤ for the entry and never-called functions).
    pub params: Vec<Vec<D>>,
}

/// How many top-down rounds join precisely before widening kicks in.
const INTERPROC_WIDEN_AFTER: u32 = 3;

/// Belt-and-braces cap on top-down rounds; the widening operator is what
/// actually guarantees convergence.
const INTERPROC_MAX_ROUNDS: u32 = 64;

/// Runs the per-value engine with call boundaries connected:
///
/// 1. **Bottom-up returns** — per SCC (callees first), compute each
///    function's return fact with ⊤ parameters, iterating recursive
///    cliques until the monotone return join stabilizes.
/// 2. **Top-down parameters** — seed each callee's parameters with the
///    join of the argument facts over all its call sites, rounds widened
///    (via [`AbstractDomain::widen`]) after `INTERPROC_WIDEN_AFTER` so
///    recursive parameter chains converge.
/// 3. **Final facts** — one pass per function under both refinements.
pub fn analyze_module_interproc<D: AbstractDomain>(
    module: &Module,
    cg: &CallGraph,
) -> InterprocFacts<D> {
    let n = module.functions.len();
    let cfgs: Vec<Cfg> = module.functions.iter().map(Cfg::new).collect();
    let tops = |f: &Function| -> Vec<D> { f.params.iter().map(|&t| D::top(t)).collect() };

    // Phase 1: bottom-up return facts with ⊤ parameters.
    let mut ret: Vec<Option<D>> = vec![None; n];
    for comp in &cg.sccs {
        // Recursive cliques: in-clique call results start at ⊤ (ret
        // None) and the per-function return join only grows, so a
        // bounded re-iteration reaches the clique fixpoint.
        for _ in 0..=comp.len() {
            let mut changed = false;
            for &fid in comp {
                let fi = fid.0 as usize;
                let f = &module.functions[fi];
                let vf = analyze_values_ctx(f, &cfgs[fi], &tops(f), &|g, ty| {
                    ret[g.0 as usize].clone().unwrap_or_else(|| D::top(ty))
                });
                let rf = ret_join(f, &vf);
                let next = match (&ret[fi], rf) {
                    (Some(cur), Some(new)) => Some(cur.join(&new)),
                    (None, new) => new,
                    (cur, None) => cur.clone(),
                };
                if next != ret[fi] {
                    ret[fi] = next;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    // Phase 2: top-down parameter seeds against the fixed return facts.
    // `None` = not yet reached by any call; the entry starts at ⊤.
    let mut params: Vec<Option<Vec<D>>> = vec![None; n];
    params[module.entry.0 as usize] = Some(tops(module.entry_func()));
    for round in 0..INTERPROC_MAX_ROUNDS {
        let mut changed = false;
        for comp in cg.sccs.iter().rev() {
            for &fid in comp {
                let fi = fid.0 as usize;
                let Some(seed) = params[fi].clone() else {
                    continue;
                };
                let f = &module.functions[fi];
                let vf = analyze_values_ctx(f, &cfgs[fi], &seed, &|g, ty| {
                    ret[g.0 as usize].clone().unwrap_or_else(|| D::top(ty))
                });
                for ins in f.instrs() {
                    if let Op::Call { func, args } = &ins.op {
                        let gi = func.0 as usize;
                        let incoming: Vec<D> = args.iter().map(|a| vf.of_operand(a)).collect();
                        match &mut params[gi] {
                            None => {
                                params[gi] = Some(incoming);
                                changed = true;
                            }
                            Some(cur) => {
                                for (c, inc) in cur.iter_mut().zip(&incoming) {
                                    let joined = c.join(inc);
                                    let next = if round >= INTERPROC_WIDEN_AFTER {
                                        c.widen(&joined)
                                    } else {
                                        joined
                                    };
                                    if next != *c {
                                        *c = next;
                                        changed = true;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Phase 3: final facts (and refined return facts) per function.
    // Never-called functions keep ⊤ seeds so their facts still exist.
    let final_params: Vec<Vec<D>> = module
        .functions
        .iter()
        .enumerate()
        .map(|(fi, f)| params[fi].clone().unwrap_or_else(|| tops(f)))
        .collect();
    let per_func: Vec<ValueFacts<D>> = module
        .functions
        .iter()
        .enumerate()
        .map(|(fi, f)| {
            analyze_values_ctx(f, &cfgs[fi], &final_params[fi], &|g, ty| {
                ret[g.0 as usize].clone().unwrap_or_else(|| D::top(ty))
            })
        })
        .collect();
    let final_ret: Vec<Option<D>> = module
        .functions
        .iter()
        .enumerate()
        .map(|(fi, f)| ret_join(f, &per_func[fi]).or_else(|| ret[fi].clone()))
        .collect();

    InterprocFacts {
        facts: ModuleValueFacts { per_func },
        ret: final_ret,
        params: final_params,
    }
}

/// Join of the facts at every `ret <operand>` in `f`; `None` when no
/// block returns a value.
fn ret_join<D: AbstractDomain>(f: &Function, vf: &ValueFacts<D>) -> Option<D> {
    let mut out: Option<D> = None;
    for b in &f.blocks {
        if let Term::Ret { value: Some(o) } = &b.term {
            let fact = vf.of_operand(o);
            out = Some(match out {
                Some(cur) => cur.join(&fact),
                None => fact,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knownbits::KnownBits;
    use crate::range::AbsRange;
    use peppa_ir::FuncId;

    fn compile(src: &str) -> Module {
        peppa_lang::compile(src, "summary").unwrap()
    }

    fn fid(m: &Module, name: &str) -> FuncId {
        m.func_by_name(name).unwrap()
    }

    #[test]
    fn per_bit_transfer_separates_return_bits() {
        // `low` routes param bits 0..8 to ret bits 0..8; bit 40 of the
        // param can only influence ret bits ≥ 40 (via the add's carries
        // it's even exact: the AND kills it).
        let m = compile(
            r#"fn low(x: int) -> int { return x & 255; }
               fn main(x: int) { output low(x); }"#,
        );
        let cg = CallGraph::new(&m);
        let sums = summarize_bits(&m, &cg);
        let s = &sums[fid(&m, "low").0 as usize];
        // Ret bit 3 is fed by param bit 3 only.
        assert_eq!(s.ret_transfer[0][3], 1 << 3);
        // Ret bits above 7 are fed by nothing.
        assert_eq!(s.ret_transfer[0][40], 0);
        // Channel views.
        assert_eq!(s.param_ret_bits(0), 255);
        assert_eq!(s.sink_bits[0], 0);
        assert_eq!(s.mem_bits[0], 0);
        assert_eq!(s.env_ret, 0, "no loads feed the return");
    }

    #[test]
    fn env_channel_marks_memory_fed_returns() {
        let m = compile(
            r#"global int g[1];
               fn peek(i: int) -> int { return g[0]; }
               fn main(x: int) { g[0] = x; output peek(0); }"#,
        );
        let cg = CallGraph::new(&m);
        let sums = summarize_bits(&m, &cg);
        let s = &sums[fid(&m, "peek").0 as usize];
        assert_ne!(s.env_ret, 0, "load-fed return must set the env channel");
        // The unused index param reaches nothing but the load address
        // computation (a sink).
        assert_eq!(s.param_ret_bits(0), 0);
    }

    #[test]
    fn recursive_and_mutually_recursive_summaries_converge() {
        let m = compile(
            r#"fn even(n: int) -> int {
                   if (n == 0) { return 1; }
                   return odd(n - 1);
               }
               fn odd(n: int) -> int {
                   if (n == 0) { return 0; }
                   return even(n - 1);
               }
               fn fib(n: int) -> int {
                   if (n < 2) { return n; }
                   return fib(n - 1) + fib(n - 2);
               }
               fn main(n: int) { output even(n) + fib(n); }"#,
        );
        let cg = CallGraph::new(&m);
        let sums = summarize_bits(&m, &cg);
        // Every param bit of the recursive cliques reaches the branch
        // condition (a sink): the fixpoint must reach FULL, not hang.
        for name in ["even", "odd", "fib"] {
            let s = &sums[fid(&m, name).0 as usize];
            assert_eq!(s.sink_bits[0], FULL, "{name}");
        }
    }

    #[test]
    fn interproc_ranges_widen_recursive_params_to_convergence() {
        // `count` grows its accumulator each level: without widening the
        // top-down seed would climb forever; with it the rounds stop and
        // the result still over-approximates every concrete value.
        let m = compile(
            r#"fn count(n: int, acc: int) -> int {
                   if (n <= 0) { return acc; }
                   return count(n - 1, acc + 3);
               }
               fn main(n: int) { output count(7, 0); }"#,
        );
        let cg = CallGraph::new(&m);
        let ip = analyze_module_interproc::<AbsRange>(&m, &cg);
        let f = fid(&m, "count").0 as usize;
        // Concrete acc values are 0,3,...,21: the seed must contain them.
        match &ip.params[f][1] {
            AbsRange::Int(r) => {
                assert!(r.lo <= 0 && r.hi >= 21, "[{}, {}]", r.lo, r.hi);
            }
            other => panic!("int param got {other:?}"),
        }
        // And the return fact must contain 21 (= count(7, 0)).
        match ip.ret[f].as_ref().expect("count returns") {
            AbsRange::Int(r) => assert!(r.lo <= 21 && 21 <= r.hi),
            other => panic!("int ret got {other:?}"),
        }
    }

    #[test]
    fn interproc_known_bits_flow_through_calls_both_ways() {
        let m = compile(
            r#"fn mask(x: int) -> int { return x & 255; }
               fn main(x: int) { output mask(x) & 65535; }"#,
        );
        let cg = CallGraph::new(&m);
        let ip = analyze_module_interproc::<KnownBits>(&m, &cg);
        // Bottom-up: mask's return has bits 8..63 known zero.
        let f = fid(&m, "mask").0 as usize;
        let rk = ip.ret[f].as_ref().expect("mask returns");
        assert_eq!(rk.zeros & !255, !255 & FULL);
    }

    #[test]
    fn uncalled_functions_keep_top_seeds() {
        let m = compile(
            r#"fn orphan(x: int) -> int { return x + 1; }
               fn main(x: int) { output x; }"#,
        );
        let cg = CallGraph::new(&m);
        let ip = analyze_module_interproc::<AbsRange>(&m, &cg);
        let f = fid(&m, "orphan").0 as usize;
        match &ip.params[f][0] {
            AbsRange::Int(r) => assert!(r.lo == i64::MIN || r.lo < -1_000_000_000),
            other => panic!("{other:?}"),
        }
    }
}
