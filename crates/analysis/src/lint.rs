//! Static lints over PIR modules, built on the dataflow framework.
//!
//! [`lint_module`] always runs the IR verifier first: a module that fails
//! verification yields a single `ill-formed-ir` *error* finding and no
//! further analysis — the lints (and the analyses they use) assume
//! well-formed IR.
//!
//! On verified modules the linter reports *warnings*:
//!
//! * `dead-value` — an instruction result that never (transitively)
//!   influences observable behaviour (store, output, call argument,
//!   return, branch condition). Bit flips there are guaranteed-masked,
//!   and as ordinary code the instruction is removable.
//! * `always-taken-branch` — a `condbr` whose condition the interval /
//!   known-bits analyses prove constant.
//! * `trapping-memory-access` — a load or store whose address is provably
//!   `<= 0` (word 0 is the VM's null sentinel and negative indices wrap
//!   out of the address space): executing it always traps.
//! * `unreachable-block` — a block with no path from the entry. The
//!   verifier rejects these too, so on verified IR this never fires; it
//!   is kept for callers linting IR built outside
//!   [`ModuleBuilder`](peppa_ir::ModuleBuilder).
//! * `undominated-use` — a cross-block use whose definition block does
//!   not dominate the use block. Also subsumed by the verifier's
//!   definite-definition check; kept as a cheap independent oracle.
//! * `dead-store` — a store whose value provably reaches no load
//!   anywhere in the module (no aliasing load in the
//!   [`MemDepGraph`]). The stored value is wasted work and a
//!   guaranteed-masked fault site.
//! * `uninit-load` — a load that provably reads a zero-initialized
//!   global range no store ever writes: it can only observe the
//!   implicit zero fill, which is almost always a missing
//!   initialization.
//! * `dead-argument` — a parameter of a called function whose
//!   interprocedural bit summary proves zero reach on every channel
//!   (sink, return, stored memory): the argument expression at every
//!   call site is wasted work and a guaranteed-masked fault region.
//! * `constant-return` — a called function whose interprocedural value
//!   facts (parameter seeds joined over all call sites, returns
//!   propagated bottom-up) prove it returns one single value for every
//!   call in this module.
//! * `redundant-computation` — a pure instruction that recomputes a
//!   value an identical dominating instruction already produced (the
//!   optimizer's dominator-scoped CSE would fold it). Wasted work, and
//!   a fault in either copy is masked whenever the other feeds the
//!   observable path.
//!
//! Findings are sorted deterministically by `(sid, code, function,
//! block)` so `peppa lint --json` output is stable across runs and
//! analysis-order changes.

use crate::callgraph::CallGraph;
use crate::cfg::Cfg;
use crate::dataflow::{analyze_values, ValueFacts};
use crate::knownbits::KnownBits;
use crate::liveness::observable_live;
use crate::memdep::MemDepGraph;
use crate::range::AbsRange;
use crate::summary::{analyze_module_interproc, summarize_bits};
use peppa_ir::{verify, BlockId, Function, Module, Op, Operand, Term, ValueId};
use serde::Serialize;

/// How severe a finding is. `Error` findings mean the module should not
/// be run at all; warnings are suspicious-but-executable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Severity {
    Error,
    Warning,
}

/// One lint finding, locatable and machine-readable.
#[derive(Debug, Clone, Serialize)]
pub struct Lint {
    /// Stable kebab-case code, e.g. `dead-value`.
    pub code: String,
    pub severity: Severity,
    /// Function the finding is in (`<module>` for module-level ones).
    pub function: String,
    /// Block index within the function, when applicable.
    pub block: Option<u32>,
    /// Static instruction id, when the finding points at an instruction.
    pub sid: Option<u32>,
    pub message: String,
}

impl std::fmt::Display for Lint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(f, "{sev}[{}]: {}", self.code, self.function)?;
        if let Some(b) = self.block {
            write!(f, ": bb{b}")?;
        }
        if let Some(s) = self.sid {
            write!(f, ": sid {s}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// All findings for one module.
#[derive(Debug, Clone, Default, Serialize)]
pub struct LintReport {
    pub lints: Vec<Lint>,
}

impl LintReport {
    pub fn is_clean(&self) -> bool {
        self.lints.is_empty()
    }

    pub fn errors(&self) -> usize {
        self.lints
            .iter()
            .filter(|l| l.severity == Severity::Error)
            .count()
    }

    pub fn warnings(&self) -> usize {
        self.lints
            .iter()
            .filter(|l| l.severity == Severity::Warning)
            .count()
    }
}

/// Lints `module`. Verification runs first; on failure the report holds
/// exactly the verifier error and nothing else.
pub fn lint_module(module: &Module) -> LintReport {
    let mut report = LintReport::default();
    if let Err(e) = verify(module) {
        report.lints.push(Lint {
            code: "ill-formed-ir".into(),
            severity: Severity::Error,
            function: e.function.clone(),
            block: e.block,
            sid: None,
            message: e.message,
        });
        return report;
    }
    for f in &module.functions {
        lint_function(f, &mut report);
    }
    lint_memory(module, &mut report);
    lint_interproc(module, &mut report);
    report.lints.sort_by(|a, b| {
        (a.sid, &a.code, &a.function, a.block).cmp(&(b.sid, &b.code, &b.function, b.block))
    });
    report
}

/// Module-level memory lints backed by the store→load dependence graph.
fn lint_memory(module: &Module, report: &mut LintReport) {
    let g = MemDepGraph::new(module);

    // A provably-trapping access never executes its memory effect, so it
    // is already reported once as `trapping-memory-access`; don't pile a
    // dead-store / uninit-load finding on the same sid.
    let trapping: std::collections::HashSet<u32> = report
        .lints
        .iter()
        .filter(|l| l.code == "trapping-memory-access")
        .filter_map(|l| l.sid)
        .collect();

    // Locate a sid: function name + block index.
    let mut site = std::collections::HashMap::new();
    for f in &module.functions {
        for (bi, b) in f.blocks.iter().enumerate() {
            for ins in &b.instrs {
                site.insert(ins.sid.0, (f.name.clone(), bi as u32));
            }
        }
    }
    let mut warn = |code: &str, sid: u32, message: String| {
        let (function, block) = site.get(&sid).cloned().unwrap_or_default();
        report.lints.push(Lint {
            code: code.into(),
            severity: Severity::Warning,
            function,
            block: Some(block),
            sid: Some(sid),
            message,
        });
    };

    for sid in g.dead_stores() {
        if !trapping.contains(&sid.0) {
            warn(
                "dead-store",
                sid.0,
                "stored value can never reach any load".into(),
            );
        }
    }
    for sid in g.uninit_loads(module) {
        if !trapping.contains(&sid.0) {
            warn(
                "uninit-load",
                sid.0,
                "reads a zero-initialized global range no store ever writes".into(),
            );
        }
    }
}

/// Interprocedural lints from the per-bit function summaries and the
/// call-connected value facts. Only *called* non-entry functions are
/// linted: the entry's arguments come from outside the module, and an
/// uncalled function has no call sites to be wasteful at (it is already
/// wholly unreachable — a different problem than a dead argument).
fn lint_interproc(module: &Module, report: &mut LintReport) {
    let cg = CallGraph::new(module);
    let mut called = vec![false; module.functions.len()];
    for cs in &cg.call_sites {
        called[cs.callee.0 as usize] = true;
    }

    let sums = summarize_bits(module, &cg);
    let ranges = analyze_module_interproc::<AbsRange>(module, &cg);
    let kbs = analyze_module_interproc::<KnownBits>(module, &cg);

    for (fi, f) in module.functions.iter().enumerate() {
        if peppa_ir::FuncId(fi as u32) == module.entry || !called[fi] {
            continue;
        }
        for i in 0..f.params.len() {
            if sums[fi].param_reach(i) == 0 {
                report.lints.push(Lint {
                    code: "dead-argument".into(),
                    severity: Severity::Warning,
                    function: f.name.clone(),
                    block: None,
                    sid: None,
                    message: format!(
                        "parameter {i} (v{i}) never influences observable behaviour: \
                         the argument at every call site is wasted work"
                    ),
                });
            }
        }
        if f.ret.is_none() {
            continue;
        }
        let by_range = ranges.ret[fi].as_ref().and_then(|r| match r {
            AbsRange::Int(r) => r.as_const().map(|v| v.to_string()),
            AbsRange::Float(r) => {
                (!r.nan && r.lo == r.hi && r.lo.is_finite()).then(|| r.lo.to_string())
            }
        });
        // Known-bits constants are canonical u64 words: meaningful to
        // print for the integer types only.
        let by_kb = (f.ret != Some(peppa_ir::Ty::F64))
            .then(|| kbs.ret[fi].as_ref().and_then(|k| k.as_const()))
            .flatten()
            .map(|v| (v as i64).to_string());
        if let Some(c) = by_range.or(by_kb) {
            report.lints.push(Lint {
                code: "constant-return".into(),
                severity: Severity::Warning,
                function: f.name.clone(),
                block: None,
                sid: None,
                message: format!("returns {c} for every call in this module"),
            });
        }
    }
}

fn lint_function(f: &Function, report: &mut LintReport) {
    let warn = |report: &mut LintReport, code: &str, block, sid, message: String| {
        report.lints.push(Lint {
            code: code.into(),
            severity: Severity::Warning,
            function: f.name.clone(),
            block,
            sid,
            message,
        });
    };

    // Unreachable blocks: flagged, then excluded from the dataflow-based
    // lints (the Cfg/dominator machinery assumes full reachability).
    let reach = f.reachable_blocks();
    for (bi, r) in reach.iter().enumerate() {
        if !r {
            warn(
                report,
                "unreachable-block",
                Some(bi as u32),
                None,
                "no path from the entry reaches this block".into(),
            );
        }
    }
    if reach.iter().any(|&r| !r) {
        return;
    }

    let cfg = Cfg::new(f);
    let kb: ValueFacts<KnownBits> = analyze_values(f, &cfg);
    let ranges: ValueFacts<AbsRange> = analyze_values(f, &cfg);
    let live = observable_live(f);

    // Where each sid lives, for locating CSE candidates.
    let mut sid_block = std::collections::HashMap::new();
    for (bi, b) in f.blocks.iter().enumerate() {
        for ins in &b.instrs {
            sid_block.insert(ins.sid, bi as u32);
        }
    }
    // `redundant_computations` returns (sid, kind) sorted by sid; the
    // report-level sort keeps the overall order deterministic.
    for (sid, kind) in crate::rewrite::redundant_computations(f) {
        warn(
            report,
            "redundant-computation",
            sid_block.get(&sid).copied(),
            Some(sid.0),
            format!(
                "{kind} recomputes a value a dominating identical instruction already produced"
            ),
        );
    }

    // Definition site of every value: block index, or the entry for
    // function parameters.
    let nv = f.value_types.len();
    let mut def_block: Vec<u32> = vec![0; nv];
    for (bi, b) in f.blocks.iter().enumerate() {
        for &p in &b.params {
            def_block[p.0 as usize] = bi as u32;
        }
        for ins in &b.instrs {
            if let Some(r) = ins.result {
                def_block[r.0 as usize] = bi as u32;
            }
        }
    }

    let cond_const = |c: &Operand| -> Option<u64> {
        let by_range = match ranges.of_operand(c) {
            AbsRange::Int(r) => r.as_const().map(|v| v as u64),
            AbsRange::Float(_) => None,
        };
        by_range.or_else(|| kb.of_operand(c).as_const())
    };

    for (bi, b) in f.blocks.iter().enumerate() {
        let bid = BlockId(bi as u32);
        let check_use = |report: &mut LintReport, v: ValueId, sid: Option<u32>| {
            let db = BlockId(def_block[v.0 as usize]);
            if db != bid && !cfg.dominates(db, bid) {
                warn(
                    report,
                    "undominated-use",
                    Some(bid.0),
                    sid,
                    format!(
                        "use of v{} whose definition (bb{}) does not dominate bb{}",
                        v.0, db.0, bid.0
                    ),
                );
            }
        };

        for ins in &b.instrs {
            for o in ins.op.operands() {
                if let Some(v) = o.value() {
                    check_use(report, v, Some(ins.sid.0));
                }
            }

            if let Some(r) = ins.result {
                if !live.contains(r) {
                    warn(
                        report,
                        "dead-value",
                        Some(bid.0),
                        Some(ins.sid.0),
                        format!(
                            "result of `{}` never influences observable behaviour",
                            ins.op.mnemonic()
                        ),
                    );
                }
            }

            let addr = match &ins.op {
                Op::Load { addr, .. } => Some(addr),
                Op::Store { addr, .. } => Some(addr),
                _ => None,
            };
            if let Some(addr) = addr {
                if let AbsRange::Int(r) = ranges.of_operand(addr) {
                    if r.hi <= 0 {
                        warn(
                            report,
                            "trapping-memory-access",
                            Some(bid.0),
                            Some(ins.sid.0),
                            format!("address is provably in [{}, {}]: always traps", r.lo, r.hi),
                        );
                    }
                }
            }
        }

        for o in b.term.operands() {
            if let Some(v) = o.value() {
                check_use(report, v, None);
            }
        }
        if let Term::CondBr { cond, .. } = &b.term {
            if let Some(c) = cond_const(cond) {
                let arm = if c & 1 == 1 { "then" } else { "else" };
                warn(
                    report,
                    "always-taken-branch",
                    Some(bid.0),
                    None,
                    format!(
                        "condition is provably {}: the {arm} arm is always taken",
                        c & 1
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peppa_ir::{IPred, ModuleBuilder, Operand, Ty};

    fn compile(src: &str) -> Module {
        peppa_lang::compile(src, "lint").unwrap()
    }

    #[test]
    fn clean_program_has_no_lints() {
        let m = compile(
            "fn main(n: int) { let s = 0; for (i = 0; i < n; i = i + 1) { s = s + i; } output s; }",
        );
        let r = lint_module(&m);
        assert!(r.is_clean(), "{:?}", r.lints);
    }

    #[test]
    fn dead_value_is_reported() {
        let m = compile("fn main(x: int) { let a = x * 7; output x; }");
        let r = lint_module(&m);
        assert_eq!(r.warnings(), 1, "{:?}", r.lints);
        assert_eq!(r.lints[0].code, "dead-value");
        assert!(r.lints[0].sid.is_some());
    }

    #[test]
    fn always_taken_branch_is_reported() {
        let m = compile(
            r#"fn main(x: int) {
                let a = x & 15;
                if (a < 100) { output 1; } else { output 2; }
            }"#,
        );
        let r = lint_module(&m);
        assert!(
            r.lints.iter().any(|l| l.code == "always-taken-branch"),
            "{:?}",
            r.lints
        );
    }

    #[test]
    fn ill_formed_ir_short_circuits() {
        let mut m = compile("fn main(x: int) { output x + 1; }");
        // Corrupt the module: duplicate a sid.
        m.num_instrs += 1;
        let r = lint_module(&m);
        assert_eq!(r.errors(), 1);
        assert_eq!(r.lints[0].code, "ill-formed-ir");
        assert_eq!(r.lints.len(), 1);
    }

    #[test]
    fn trapping_store_is_reported() {
        // Hand-build: store through intoptr(0) — provably null.
        let mut mb = ModuleBuilder::new("trap");
        let main = mb.declare("main", &[], None);
        let mut fb = mb.define(main);
        let p = fb.cast(peppa_ir::CastKind::IntToPtr, Operand::i64(0), Ty::Ptr);
        fb.store(p, Operand::i64(1));
        fb.output(Operand::i64(0));
        fb.ret(None);
        fb.finish();
        mb.set_entry(main);
        let m = mb.finish();
        let r = lint_module(&m);
        assert!(
            r.lints.iter().any(|l| l.code == "trapping-memory-access"),
            "{:?}",
            r.lints
        );
    }

    #[test]
    fn dead_store_is_reported_once() {
        let m = compile(
            r#"global int a[4];
               global int b[4];
               fn main(x: int) {
                   a[0] = x;
                   output b[1];
               }"#,
        );
        let r = lint_module(&m);
        let dead: Vec<_> = r.lints.iter().filter(|l| l.code == "dead-store").collect();
        assert_eq!(dead.len(), 1, "{:?}", r.lints);
        assert_eq!(dead[0].function, "main");
        // The companion uninit-load on b[1] fires too.
        assert!(
            r.lints.iter().any(|l| l.code == "uninit-load"),
            "{:?}",
            r.lints
        );
    }

    #[test]
    fn trapping_store_not_double_reported_as_dead() {
        let mut mb = ModuleBuilder::new("trap");
        let main = mb.declare("main", &[], None);
        let mut fb = mb.define(main);
        let p = fb.cast(peppa_ir::CastKind::IntToPtr, Operand::i64(0), Ty::Ptr);
        fb.store(p, Operand::i64(1));
        fb.output(Operand::i64(0));
        fb.ret(None);
        fb.finish();
        mb.set_entry(main);
        let m = mb.finish();
        let r = lint_module(&m);
        assert!(r.lints.iter().any(|l| l.code == "trapping-memory-access"));
        assert!(
            !r.lints.iter().any(|l| l.code == "dead-store"),
            "trapping store double-reported: {:?}",
            r.lints
        );
    }

    #[test]
    fn findings_sorted_by_sid_then_code() {
        let m = compile(
            r#"global int a[4];
               fn main(x: int) {
                   let d = x * 3;
                   a[0] = x;
                   output x;
               }"#,
        );
        let r = lint_module(&m);
        assert!(r.warnings() >= 2, "{:?}", r.lints);
        let keys: Vec<_> = r
            .lints
            .iter()
            .map(|l| (l.sid, l.code.clone(), l.function.clone(), l.block))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn dead_argument_is_reported() {
        let m = compile(
            r#"fn pick(a: int, b: int) -> int { return a; }
               fn main(x: int) { output pick(x, x * 9); }"#,
        );
        let r = lint_module(&m);
        let dead: Vec<_> = r
            .lints
            .iter()
            .filter(|l| l.code == "dead-argument")
            .collect();
        assert_eq!(dead.len(), 1, "{:?}", r.lints);
        assert_eq!(dead[0].function, "pick");
        assert!(dead[0].message.contains("parameter 1"), "{:?}", dead[0]);
    }

    #[test]
    fn constant_return_is_reported_across_call_sites() {
        // `ident` is not intrinsically constant — but every call in the
        // module passes 5, and the interprocedural seeds prove it.
        let m = compile(
            r#"fn ident(v: int) -> int { return v; }
               fn main(x: int) { output ident(5) + ident(5) + x; }"#,
        );
        let r = lint_module(&m);
        let c: Vec<_> = r
            .lints
            .iter()
            .filter(|l| l.code == "constant-return")
            .collect();
        assert_eq!(c.len(), 1, "{:?}", r.lints);
        assert_eq!(c[0].function, "ident");
        assert!(c[0].message.contains('5'), "{:?}", c[0]);
    }

    #[test]
    fn varying_callee_has_no_interproc_findings() {
        let m = compile(
            r#"fn double(v: int) -> int { return v * 2; }
               fn main(x: int) { output double(x) + double(3); }"#,
        );
        let r = lint_module(&m);
        assert!(
            !r.lints
                .iter()
                .any(|l| l.code == "dead-argument" || l.code == "constant-return"),
            "{:?}",
            r.lints
        );
    }

    #[test]
    fn redundant_computation_is_reported_and_o2_removes_it() {
        let m = compile(
            r#"fn main(x: int, y: int) {
                let a = x * y + 1;
                let b = x * y + 2;
                output a + b;
            }"#,
        );
        let r = lint_module(&m);
        let hits: Vec<_> = r
            .lints
            .iter()
            .filter(|l| l.code == "redundant-computation")
            .collect();
        assert_eq!(hits.len(), 1, "{:?}", r.lints);
        assert!(hits[0].message.contains("mul"), "{:?}", hits[0]);
        let opt = crate::rewrite::optimize(&m, crate::rewrite::OptLevel::O2).module;
        assert!(lint_module(&opt).is_clean());
    }

    #[test]
    fn bundled_benchmarks_are_lint_clean_at_o2() {
        // The benchmarks deliberately carry O0 redundancy (it is part of
        // the fault space under study); the cleanliness bar is the
        // optimized form: at O2 every lint, including
        // `redundant-computation`, must be silent.
        for b in peppa_apps::all_benchmarks() {
            let opt = crate::rewrite::optimize(&b.module, crate::rewrite::OptLevel::O2).module;
            let r = lint_module(&opt);
            assert!(r.is_clean(), "{}@O2: {:?}", b.name, r.lints);
        }
    }

    #[test]
    fn report_serializes_to_json() {
        let m = compile("fn main(x: int) { let a = x * 7; output x; }");
        let r = lint_module(&m);
        let s = serde_json::to_string_pretty(&r).unwrap();
        assert!(s.contains("dead-value"), "{s}");
    }

    #[test]
    fn undominated_use_detector_agrees_with_verifier_on_good_ir() {
        let m = compile(
            r#"fn main(x: int) {
                let r = 0;
                if (x > 0) { r = x * 2; } else { r = 3; }
                output r;
            }"#,
        );
        let r = lint_module(&m);
        assert!(
            !r.lints.iter().any(|l| l.code == "undominated-use"),
            "{:?}",
            r.lints
        );
        // icmp feeding the branch must not be flagged either.
        let _ = IPred::Sgt;
    }
}
