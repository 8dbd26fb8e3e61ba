//! Golden-trajectory deviation-amplitude analysis.
//!
//! The bit-precision layer in [`crate::reach`] proves cells masked when a
//! flipped bit *cannot reach* an observable at all. That argument is
//! program-only and tops out quickly on numeric kernels: almost every
//! value feeds an output, an address, or a branch through arithmetic that
//! propagates all bits. What those proofs miss is *quantization*: a
//! `floor(x * 1e4 + 0.5)` output, a `fmin` tournament, or a re-found
//! binary-search index absorbs any deviation smaller than the distance to
//! the nearest decision boundary.
//!
//! This module bounds that distance. One instrumented golden run (a
//! [`GoldenObserver`] implementing [`peppa_vm::ExecHook`]) records, per
//! static value, the magnitude envelope of every instance, the minimum
//! decision-preserving margin of every compare, the minimum
//! distance-to-integer of every `floor`/`fptosi`, and the maximum
//! read-fanout of every store. [`DeviationAnalysis`] then propagates a
//! worst-case deviation amplitude from each injectable value through a
//! per-op Lipschitz edge graph and computes `tol[sid]`: the largest
//! initial |Δ| guaranteed to vanish before it can change any observable
//! or any control decision. A cell `(sid, bit, burst)` whose flip
//! magnitude bound is below `tol[sid]` is provably benign.
//!
//! # Soundness argument
//!
//! The FI model injects at one dynamic instance; the run prefix before it
//! is bit-identical to golden, so golden-run facts (margins, magnitudes,
//! read fanouts) hold exactly at injection time. The analysis enforces,
//! along every path the deviation can take:
//!
//! * **control equality** — every compare the deviation reaches keeps a
//!   margin larger than the incoming amplitude (plus global rounding
//!   slack), every branch condition and every address is either
//!   deviation-free or behind such a margin, so the faulty run executes
//!   the exact golden instruction/branch sequence. This closes the loop:
//!   with control and addresses equal, golden per-instance facts describe
//!   the faulty run too (simultaneous induction over the trace).
//! * **magnitude headroom** — multiplier operands, overflow, and domain
//!   constraints (`sqrt`/`log`/divisor-away-from-zero) bound every
//!   Lipschitz constant used by an edge.
//! * **absorption** — `floor`/`fptosi` results are *exactly* unchanged
//!   when the operand deviation is below the recorded boundary margin;
//!   compares decide identically below their margin. Their out-edges
//!   therefore carry zero deviation, which is what ultimately discharges
//!   the `output`/`ret`/address "must be exact" obligations.
//! * **accumulation** — cyclic SCCs of the value graph are classified:
//!   contraction-safe cycles (all internal edge gains ≤ 1, additive nodes
//!   with at most one in-cycle operand) absorb at most
//!   Σ (gain · amplitude · bounded-instance-count) over entry edges;
//!   anything else (e.g. FFT butterflies) is assigned amplitude ∞, i.e.
//!   honestly unprunable.
//! * **rounding** — float re-rounding differences are re-propagated as a
//!   second multi-source pass (one `ulp(2·maxabs)` per executed float op
//!   reachable by the deviation) and charged against every margin.
//!
//! Bitwise/shift/div-rem ops, exponent-field flips, and `i1` results are
//! never deviation-masked (their effect is not amplitude-bounded); the
//! pure reach-based masking in [`crate::reach`] still applies to them
//! independently, and the two cell sets are unioned by callers.

use std::collections::{HashMap, HashSet};

use peppa_ir::{
    BinOp, CastKind, Const, FPred, FuncId, IPred, Instr, Module, Op, Operand, Term, Ty, UnOp,
    ValueId,
};
use peppa_vm::{encode_inputs, ExecHook, ExecLimits, RunOutput, Vm};

use crate::memdep::MemDepGraph;
use crate::reach::effective_flip_mask;

const INF: f64 = f64::INFINITY;

/// Per-value-node magnitude envelope collected from the golden run.
#[derive(Debug, Clone, Copy)]
pub struct NodeStat {
    /// Dynamic writes of this node (instances).
    pub writes: u64,
    /// Signed float range over instances (F64 nodes).
    pub f_min: f64,
    pub f_max: f64,
    /// Signed integer range over instances (I1/I32/I64/Ptr nodes).
    pub i_min: i64,
    pub i_max: i64,
    /// A NaN or infinity was observed — amplitude reasoning is off here.
    pub non_finite: bool,
    /// Max uses of a single def instance (register read fanout).
    pub max_uses: u64,
}

impl Default for NodeStat {
    fn default() -> NodeStat {
        NodeStat {
            writes: 0,
            f_min: INF,
            f_max: -INF,
            i_min: i64::MAX,
            i_max: i64::MIN,
            non_finite: false,
            max_uses: 0,
        }
    }
}

impl NodeStat {
    fn record(&mut self, ty: Ty, bits: u64) {
        self.writes += 1;
        if ty == Ty::F64 {
            let v = f64::from_bits(bits);
            if v.is_finite() {
                self.f_min = self.f_min.min(v);
                self.f_max = self.f_max.max(v);
            } else {
                self.non_finite = true;
            }
        } else {
            let v = bits as i64;
            self.i_min = self.i_min.min(v);
            self.i_max = self.i_max.max(v);
        }
    }

    /// Largest |value| seen (0 when never written).
    pub fn max_abs(&self, ty: Ty) -> f64 {
        if self.writes == 0 {
            return 0.0;
        }
        if ty == Ty::F64 {
            if self.non_finite {
                return INF;
            }
            self.f_min.abs().max(self.f_max.abs())
        } else {
            (self.i_min.unsigned_abs().max(self.i_max.unsigned_abs())) as f64
        }
    }

    /// Smallest |value| seen; 0 when the signed range crosses zero.
    pub fn min_abs(&self, ty: Ty) -> f64 {
        if self.writes == 0 {
            return 0.0;
        }
        if ty == Ty::F64 {
            if self.non_finite || (self.f_min <= 0.0 && self.f_max >= 0.0) {
                return 0.0;
            }
            self.f_min.abs().min(self.f_max.abs())
        } else {
            if self.i_min <= 0 && self.i_max >= 0 {
                return 0.0;
            }
            (self.i_min.unsigned_abs().min(self.i_max.unsigned_abs())) as f64
        }
    }

    /// Smallest signed value seen, as f64 (domain checks for sqrt/log).
    fn signed_min(&self, ty: Ty) -> f64 {
        if self.writes == 0 {
            return 0.0;
        }
        if ty == Ty::F64 {
            if self.non_finite {
                return -INF;
            }
            self.f_min
        } else {
            self.i_min as f64
        }
    }
}

/// Facts about one golden execution, addressed by value node
/// (`(function, ValueId)` flattened) and by static instruction id.
#[derive(Debug, Clone)]
pub struct GoldenStats {
    /// `node_base[f] + vid` flattens `(FuncId, ValueId)` to a node index.
    pub node_base: Vec<u32>,
    pub nodes: Vec<NodeStat>,
    /// Per compare sid: min decision-preserving margin over instances
    /// (operand-domain units; `INF` = never executed).
    pub cmp_margin: Vec<f64>,
    /// Per floor/fptosi sid: min distance from the operand to the nearest
    /// integer boundary over instances.
    pub floor_margin: Vec<f64>,
    /// Per store sid: max reads of a single stored instance.
    pub max_reads_per_store: Vec<u64>,
    /// Golden dynamic read-from pairs `(store_sid, load_sid)`.
    pub read_pairs: HashSet<(u32, u32)>,
}

impl GoldenStats {
    pub fn node(&self, f: FuncId, v: ValueId) -> usize {
        self.node_base[f.0 as usize] as usize + v.0 as usize
    }

    /// Runs the module once on `inputs` with a [`GoldenObserver`]
    /// attached and returns the collected stats with the run output.
    /// `None` when the golden run itself does not complete.
    pub fn collect(
        module: &Module,
        inputs: &[f64],
        limits: ExecLimits,
    ) -> Option<(GoldenStats, RunOutput)> {
        let bits = encode_inputs(module.entry_func(), inputs);
        let mut obs = GoldenObserver::new(module, &bits);
        let out = Vm::new(module, limits).run_with_hook(&bits, None, &mut obs);
        if !out.status.is_ok() {
            return None;
        }
        Some((obs.finish(), out))
    }
}

struct ShadowFrame {
    func: usize,
    vals: Vec<u64>,
    uses: Vec<u64>,
}

/// An [`ExecHook`] that mirrors the interpreter's register file to record
/// the golden-run facts a [`DeviationAnalysis`] needs.
pub struct GoldenObserver<'m> {
    module: &'m Module,
    node_base: Vec<u32>,
    nodes: Vec<NodeStat>,
    cmp_margin: Vec<f64>,
    floor_margin: Vec<f64>,
    max_reads_per_store: Vec<u64>,
    read_pairs: HashSet<(u32, u32)>,
    frames: Vec<ShadowFrame>,
    /// word address -> (store sid, reads of the current stored instance)
    mem: HashMap<u64, (u32, u64)>,
}

fn const_bits(c: &Const) -> u64 {
    match c.ty {
        Ty::I32 => c.as_i64() as u64,
        Ty::I1 => c.bits & 1,
        _ => c.bits,
    }
}

impl<'m> GoldenObserver<'m> {
    pub fn new(module: &'m Module, entry_bits: &[u64]) -> GoldenObserver<'m> {
        let mut node_base = Vec::with_capacity(module.functions.len());
        let mut total = 0u32;
        for f in &module.functions {
            node_base.push(total);
            total += f.value_types.len() as u32;
        }
        let n = module.num_instrs;
        let mut obs = GoldenObserver {
            module,
            node_base,
            nodes: vec![NodeStat::default(); total as usize],
            cmp_margin: vec![INF; n],
            floor_margin: vec![INF; n],
            max_reads_per_store: vec![0; n],
            read_pairs: HashSet::new(),
            frames: Vec::new(),
            mem: HashMap::new(),
        };
        obs.push_shadow(module.entry.0 as usize, entry_bits);
        obs
    }

    fn push_shadow(&mut self, fi: usize, params: &[u64]) {
        let func = &self.module.functions[fi];
        let mut vals = vec![0u64; func.value_types.len()];
        let base = self.node_base[fi] as usize;
        for (i, &b) in params.iter().enumerate() {
            vals[i] = b;
            self.nodes[base + i].record(func.value_types[i], b);
        }
        self.frames.push(ShadowFrame {
            func: fi,
            vals,
            uses: vec![0; func.value_types.len()],
        });
    }

    fn fold_uses(nodes: &mut [NodeStat], base: usize, uses: &mut [u64], vid: usize) {
        let u = std::mem::take(&mut uses[vid]);
        let st = &mut nodes[base + vid];
        st.max_uses = st.max_uses.max(u);
    }

    fn val(&self, o: &Operand) -> u64 {
        match o {
            Operand::Const(c) => const_bits(c),
            Operand::Value(v) => self.frames.last().expect("shadow frame").vals[v.0 as usize],
        }
    }

    fn fval(&self, o: &Operand) -> f64 {
        f64::from_bits(self.val(o))
    }

    fn ival(&self, o: &Operand) -> i64 {
        self.val(o) as i64
    }

    fn use_operand(&mut self, o: &Operand) {
        if let Operand::Value(v) = o {
            let fr = self.frames.last_mut().expect("shadow frame");
            fr.uses[v.0 as usize] += 1;
        }
    }

    /// Consumes the observer; folds pending per-frame and per-address
    /// state into the collected maxima.
    pub fn finish(mut self) -> GoldenStats {
        while let Some(mut fr) = self.frames.pop() {
            let base = self.node_base[fr.func] as usize;
            for vid in 0..fr.uses.len() {
                Self::fold_uses(&mut self.nodes, base, &mut fr.uses, vid);
            }
        }
        GoldenStats {
            node_base: self.node_base,
            nodes: self.nodes,
            cmp_margin: self.cmp_margin,
            floor_margin: self.floor_margin,
            max_reads_per_store: self.max_reads_per_store,
            read_pairs: self.read_pairs,
        }
    }
}

/// Min |Δ(a-b)| (real-valued, strict) that could change `pred`'s outcome.
fn int_margin(pred: IPred, a: i64, b: i64) -> f64 {
    let d = a as i128 - b as i128;
    let du = (a as u64) as i128 - (b as u64) as i128;
    let m: i128 = match pred {
        IPred::Eq | IPred::Ne => {
            if d == 0 {
                1
            } else {
                d.abs()
            }
        }
        IPred::Slt => {
            if d < 0 {
                -d
            } else {
                d + 1
            }
        }
        IPred::Sle => {
            if d <= 0 {
                1 - d
            } else {
                d
            }
        }
        IPred::Sgt => {
            if d > 0 {
                d
            } else {
                1 - d
            }
        }
        IPred::Sge => {
            if d >= 0 {
                d + 1
            } else {
                -d
            }
        }
        IPred::Ult => {
            if du < 0 {
                -du
            } else {
                du + 1
            }
        }
    };
    m as f64
}

/// Min |Δ(a-b)| that could change `pred`'s outcome (0 on NaN operands —
/// non-finite compares are outside the amplitude model).
fn float_margin(pred: FPred, a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        return 0.0;
    }
    let d = a - b;
    if d.is_nan() {
        return 0.0;
    }
    match pred {
        FPred::Oeq | FPred::One => {
            if d == 0.0 {
                0.0
            } else {
                d.abs()
            }
        }
        // All four order predicates flip exactly when a-b crosses 0;
        // on the boundary-inclusive side the margin collapses to |d|.
        FPred::Olt | FPred::Ole | FPred::Ogt | FPred::Oge => d.abs(),
    }
}

/// Min distance from `x` to an integer boundary (floor/trunc results are
/// unchanged under any smaller perturbation).
fn boundary_margin(x: f64) -> f64 {
    if !x.is_finite() {
        return 0.0;
    }
    (x - x.floor()).min(x.ceil() - x)
}

impl ExecHook for GoldenObserver<'_> {
    const ENABLED: bool = true;

    fn begin_instr(&mut self, ins: &Instr) {
        let sid = ins.sid.0 as usize;
        match &ins.op {
            Op::Icmp { pred, a, b } => {
                let m = int_margin(*pred, self.ival(a), self.ival(b));
                self.cmp_margin[sid] = self.cmp_margin[sid].min(m);
            }
            Op::Fcmp { pred, a, b } => {
                let m = float_margin(*pred, self.fval(a), self.fval(b));
                self.cmp_margin[sid] = self.cmp_margin[sid].min(m);
            }
            Op::Un { op: UnOp::Floor, a } => {
                let m = boundary_margin(self.fval(a));
                self.floor_margin[sid] = self.floor_margin[sid].min(m);
            }
            Op::Cast {
                kind: CastKind::FpToSi,
                a,
                ..
            } => {
                let m = boundary_margin(self.fval(a));
                self.floor_margin[sid] = self.floor_margin[sid].min(m);
            }
            _ => {}
        }
        for o in ins.op.operands() {
            self.use_operand(&o);
        }
    }

    fn def_value(&mut self, ins: &Instr, bits: u64) {
        let r = ins.result.expect("def_value on void instr");
        let fr = self.frames.last_mut().expect("shadow frame");
        let fi = fr.func;
        let vid = r.0 as usize;
        let base = self.node_base[fi] as usize;
        Self::fold_uses(&mut self.nodes, base, &mut fr.uses, vid);
        fr.vals[vid] = bits;
        let ty = self.module.functions[fi].value_types[vid];
        self.nodes[base + vid].record(ty, bits);
    }

    fn mem_store(&mut self, ins: &Instr, addr: u64, _bits: u64) {
        self.mem.insert(addr, (ins.sid.0, 0));
    }

    fn mem_load(&mut self, ins: &Instr, addr: u64, _bits: u64) {
        if let Some((writer, reads)) = self.mem.get_mut(&addr) {
            *reads += 1;
            let w = *writer as usize;
            let r = *reads;
            self.max_reads_per_store[w] = self.max_reads_per_store[w].max(r);
            self.read_pairs.insert((*writer, ins.sid.0));
        }
    }

    fn mem_clear(&mut self, base: u64, words: u64) {
        if words <= 4096 {
            for a in base..base + words {
                self.mem.remove(&a);
            }
        } else {
            self.mem.retain(|&a, _| a < base || a >= base + words);
        }
    }

    fn branch_transfer(&mut self, cond: Option<&Operand>, params: &[ValueId], args: &[Operand]) {
        if let Some(c) = cond {
            self.use_operand(c);
        }
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            self.use_operand(a);
            vals.push(self.val(a));
        }
        let fr = self.frames.last_mut().expect("shadow frame");
        let fi = fr.func;
        let base = self.node_base[fi] as usize;
        for (&p, &v) in params.iter().zip(&vals) {
            let vid = p.0 as usize;
            Self::fold_uses(&mut self.nodes, base, &mut fr.uses, vid);
            fr.vals[vid] = v;
            let ty = self.module.functions[fi].value_types[vid];
            self.nodes[base + vid].record(ty, v);
        }
    }

    fn call_enter(&mut self, ins: &Instr, callee: FuncId) {
        let args = match &ins.op {
            Op::Call { args, .. } => args,
            _ => unreachable!("call_enter on non-call"),
        };
        let vals: Vec<u64> = args.iter().map(|a| self.val(a)).collect();
        self.push_shadow(callee.0 as usize, &vals);
    }

    fn func_ret(&mut self, value: Option<&Operand>) {
        if let Some(v) = value {
            self.use_operand(v);
        }
        if self.frames.len() > 1 {
            let mut fr = self.frames.pop().expect("shadow frame");
            let base = self.node_base[fr.func] as usize;
            for vid in 0..fr.uses.len() {
                Self::fold_uses(&mut self.nodes, base, &mut fr.uses, vid);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Deviation graph + per-source tolerance computation
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
struct Edge {
    from: u32,
    to: u32,
    /// Lipschitz gain: out-amplitude per unit in-amplitude.
    w: f64,
    /// Instance-count multiplier (register/memory read fanout).
    mult: f64,
}

#[derive(Debug, Clone, Copy)]
struct Constraint {
    node: u32,
    /// Strict bound: amplitude at `node` (plus rounding slack) must stay
    /// below this. 0 ⇔ the node must be deviation-free.
    bound: f64,
}

struct Graph {
    nverts: usize,
    in_edges: Vec<Vec<Edge>>,
    constraints: Vec<Constraint>,
    /// Instance count (writes) per node, as f64.
    writes: Vec<f64>,
    /// Topologically ordered SCCs (predecessors first).
    comps: Vec<Vec<u32>>,
    comp_of: Vec<u32>,
    comp_cyclic: Vec<bool>,
    comp_unsafe: Vec<bool>,
    comp_additive: Vec<bool>,
    /// Rounding-slack sources: (node, per-execution ulp bound).
    slack_sources: Vec<(u32, f64)>,
}

/// The computed per-sid deviation tolerances plus the cell predicate.
pub struct DeviationAnalysis {
    /// `tol[sid]`: the faulty value may deviate by strictly less than
    /// this without any observable or control-flow difference.
    pub tol: Vec<f64>,
    /// Magnitude envelope of each sid's golden values.
    pub sid_max_abs: Vec<f64>,
    sid_ty: Vec<Option<Ty>>,
    sid_width: Vec<u8>,
    sid_non_finite: Vec<bool>,
}

/// Conservative shave applied to every tolerance and inflation applied to
/// every flip magnitude, covering rounding in the analysis's own f64
/// bookkeeping.
const SAFETY: f64 = 1e-6;

fn is_rel_ipred(p: IPred) -> bool {
    matches!(
        p,
        IPred::Slt | IPred::Sle | IPred::Sgt | IPred::Sge | IPred::Ult
    )
}

fn is_rel_fpred(p: FPred) -> bool {
    matches!(p, FPred::Olt | FPred::Ole | FPred::Ogt | FPred::Oge)
}

/// ulp of magnitude `m` (distance between adjacent floats at that scale).
fn ulp_of(m: f64) -> f64 {
    if !m.is_finite() || m <= 0.0 {
        return f64::MIN_POSITIVE;
    }
    let e = ((m.to_bits() >> 52) & 0x7FF) as i32 - 1023;
    let e = e.max(-1022);
    ((e - 52) as f64).exp2()
}

impl DeviationAnalysis {
    /// Builds the deviation graph from `module` + golden `stats` and
    /// computes per-sid tolerances. `exec` is the golden per-sid
    /// execution count; `memdep` supplies the static store→load may-edges
    /// that golden `read_pairs` are checked against.
    pub fn analyze(
        module: &Module,
        stats: &GoldenStats,
        memdep: &MemDepGraph,
        exec: &[u64],
    ) -> DeviationAnalysis {
        let b = GraphBuilder::new(module, stats, memdep, exec);
        b.solve()
    }

    /// Convenience entry point: golden instrumented run + analysis.
    /// `None` when the golden run fails.
    pub fn from_run(
        module: &Module,
        inputs: &[f64],
        limits: ExecLimits,
    ) -> Option<(DeviationAnalysis, RunOutput)> {
        let (stats, out) = GoldenStats::collect(module, inputs, limits)?;
        let memdep = MemDepGraph::new(module);
        let dev = DeviationAnalysis::analyze(module, &stats, &memdep, &out.profile.exec_counts);
        Some((dev, out))
    }

    /// Upper bound on |value change| from flipping `flip_mask`'s low
    /// `width` bits of a `ty`-typed value bounded by `max_abs`.
    /// `INF` when the flip is not amplitude-bounded (exponent field,
    /// i1, non-finite envelope).
    fn flip_delta(ty: Ty, width: u8, max_abs: f64, non_finite: bool, flip_mask: u64) -> f64 {
        if width == 0 || ty == Ty::I1 || non_finite {
            return INF;
        }
        let live = if width >= 64 {
            flip_mask
        } else {
            flip_mask & ((1u64 << width) - 1)
        };
        let mut delta = 0.0f64;
        for b in 0..width as u32 {
            if live & (1u64 << b) == 0 {
                continue;
            }
            delta += match ty {
                Ty::F64 => {
                    if b <= 51 {
                        let e = if max_abs > 0.0 {
                            (((max_abs.to_bits() >> 52) & 0x7FF) as i32 - 1023).max(-1022)
                        } else {
                            -1022
                        };
                        ((e - 52 + b as i32) as f64).exp2()
                    } else if b == 63 {
                        2.0 * max_abs
                    } else if b == 52 && max_abs < 500f64.exp2() {
                        // One exponent step can at most double/halve; the
                        // magnitude guard keeps it far from Inf/NaN.
                        max_abs
                    } else {
                        INF
                    }
                }
                // Sign bit of a w-bit integer swings the canonical value
                // by exactly 2^(w-1) (mod 2^w); lower bits by 2^b.
                _ => ((b.min(width as u32 - 1)) as f64).exp2(),
            };
        }
        delta
    }

    /// Cells additionally masked by deviation tolerance: bit `b` set in
    /// `result[sid]` ⇔ a burst flip starting at bit `b` of `sid`'s value
    /// is provably benign at every dynamic instance.
    pub fn extra_cells(&self, burst: u8) -> Vec<u64> {
        let n = self.tol.len();
        let mut cells = vec![0u64; n];
        for (sid, cell) in cells.iter_mut().enumerate().take(n) {
            let tol = self.tol[sid];
            if tol <= 0.0 {
                continue;
            }
            let (ty, width) = match self.sid_ty[sid] {
                Some(t) => (t, self.sid_width[sid]),
                None => continue,
            };
            let mut mask = 0u64;
            for bit in 0..64u32 {
                let flip = effective_flip_mask(width, bit, burst);
                let delta = Self::flip_delta(
                    ty,
                    width,
                    self.sid_max_abs[sid],
                    self.sid_non_finite[sid],
                    flip,
                );
                if delta * (1.0 + SAFETY) < tol {
                    mask |= 1u64 << bit;
                }
            }
            *cell = mask;
        }
        cells
    }

    /// The full masked-cell table for one input: the union of the
    /// input-independent reachability cells (`fr.skip_cells`) and this
    /// input's deviation-tolerance cells. Sound as a union of cell
    /// *sets*: each cell is benign by one argument or the other (mixing
    /// the two per-cell would not be).
    pub fn union_cells(&self, fr: &crate::reach::FaultReach, burst: u8) -> Vec<u64> {
        let reach = fr.skip_cells(burst);
        let dev = self.extra_cells(burst);
        reach.iter().zip(&dev).map(|(&a, &b)| a | b).collect()
    }
}

/// Campaign-facing entry point: the reach ∪ deviation masked-cell table
/// for one concrete input, falling back to the input-independent reach
/// table when the golden instrumented run fails.
pub fn combined_skip_cells(
    module: &Module,
    fr: &crate::reach::FaultReach,
    inputs: &[f64],
    limits: ExecLimits,
    burst: u8,
) -> Vec<u64> {
    match DeviationAnalysis::from_run(module, inputs, limits) {
        Some((dev, _)) => dev.union_cells(fr, burst),
        None => fr.skip_cells(burst),
    }
}

struct GraphBuilder<'a> {
    module: &'a Module,
    stats: &'a GoldenStats,
    exec: &'a [u64],
    /// node index of each sid's result value (u32::MAX for void).
    sid_node: Vec<u32>,
    /// defining cmp/floor sid of each node, if any (absorbers).
    absorber: Vec<bool>,
    /// cmp sids that need a margin constraint (any non-idiom use).
    cmp_nonidiom: Vec<bool>,
    /// cmp sids seen at all.
    cmp_sids: Vec<u32>,
    edges: Vec<Edge>,
    constraints: Vec<Constraint>,
}

impl<'a> GraphBuilder<'a> {
    fn new(
        module: &'a Module,
        stats: &'a GoldenStats,
        memdep: &'a MemDepGraph,
        exec: &'a [u64],
    ) -> GraphBuilder<'a> {
        let mut b = GraphBuilder {
            module,
            stats,
            exec,
            sid_node: vec![u32::MAX; module.num_instrs],
            absorber: vec![false; stats.nodes.len()],
            cmp_nonidiom: vec![false; module.num_instrs],
            cmp_sids: Vec::new(),
            edges: Vec::new(),
            constraints: Vec::new(),
        };
        b.prepass();
        b.build(memdep);
        b
    }

    fn node_of(&self, fi: usize, v: ValueId) -> u32 {
        self.stats.node_base[fi] + v.0
    }

    fn ty_of_node(&self, n: u32) -> Ty {
        // node_base is ascending; find the owning function.
        let fi = match self.stats.node_base.binary_search(&n) {
            Ok(mut i) => {
                // Empty functions share a base; take the last one.
                while i + 1 < self.stats.node_base.len() && self.stats.node_base[i + 1] == n {
                    i += 1;
                }
                i
            }
            Err(i) => i - 1,
        };
        let f = &self.module.functions[fi];
        f.value_types[(n - self.stats.node_base[fi]) as usize]
    }

    fn live(&self, n: u32) -> bool {
        self.stats.nodes[n as usize].writes > 0
    }

    fn max_abs(&self, n: u32) -> f64 {
        self.stats.nodes[n as usize].max_abs(self.ty_of_node(n))
    }

    /// |operand| bound from golden (consts exact).
    fn mag(&self, fi: usize, o: &Operand) -> f64 {
        match o {
            Operand::Const(c) => match c.ty {
                Ty::F64 => c.as_f64().abs(),
                _ => c.as_i64().unsigned_abs() as f64,
            },
            Operand::Value(v) => self.max_abs(self.node_of(fi, *v)),
        }
    }

    /// Marks absorber nodes and classifies compare uses (idiom vs not).
    fn prepass(&mut self) {
        // Defining op per node, for idiom detection.
        let mut def_cmp: HashMap<u32, u32> = HashMap::new(); // node -> cmp sid
        for (fi, f) in self.module.functions.iter().enumerate() {
            for ins in f.instrs() {
                let sid = ins.sid.0 as usize;
                if let Some(r) = ins.result {
                    let n = self.node_of(fi, r);
                    self.sid_node[sid] = n;
                    match &ins.op {
                        Op::Icmp { .. } | Op::Fcmp { .. } => {
                            self.absorber[n as usize] = true;
                            def_cmp.insert(n, sid as u32);
                            self.cmp_sids.push(sid as u32);
                        }
                        Op::Un {
                            op: UnOp::Floor, ..
                        }
                        | Op::Cast {
                            kind: CastKind::FpToSi,
                            ..
                        } => {
                            self.absorber[n as usize] = true;
                        }
                        _ => {}
                    }
                }
            }
        }
        // Use scan: any reference to a cmp value that is not the cond of
        // a min/max-idiom select forces the margin constraint.
        for (fi, f) in self.module.functions.iter().enumerate() {
            let mark = |b: &mut GraphBuilder, o: &Operand| {
                if let Operand::Value(v) = o {
                    if let Some(&csid) = def_cmp.get(&(b.stats.node_base[fi] + v.0)) {
                        b.cmp_nonidiom[csid as usize] = true;
                    }
                }
            };
            for blk in &f.blocks {
                for ins in &blk.instrs {
                    if let Op::Select { cond, t, f: fo } = &ins.op {
                        if self.is_minmax_idiom(fi, cond, t, fo) {
                            // cond exempt; arms are plain operands of a
                            // non-cmp instr (no cmp arms possible here).
                            mark(self, t);
                            mark(self, fo);
                            continue;
                        }
                    }
                    for o in ins.op.operands() {
                        mark(self, &o);
                    }
                }
                for o in blk.term.operands() {
                    mark(self, &o);
                }
                if let Term::CondBr { cond, .. } = &blk.term {
                    mark(self, cond);
                }
            }
        }
    }

    /// `select(cmp(a,b), t, f)` where `{t,f} == {a,b}` and the predicate
    /// is a plain order relation: a min/max tournament. Even a flipped
    /// decision returns one of the two (deviated) operands, so the result
    /// amplitude is bounded by the operand amplitudes plus the operand
    /// gap the compare tolerated — non-expansive, no margin needed.
    fn is_minmax_idiom(&self, fi: usize, cond: &Operand, t: &Operand, f: &Operand) -> bool {
        let cv = match cond {
            Operand::Value(v) => *v,
            _ => return false,
        };
        let func = &self.module.functions[fi];
        for ins in func.instrs() {
            if ins.result != Some(cv) {
                continue;
            }
            return match &ins.op {
                Op::Fcmp { pred, a, b } if is_rel_fpred(*pred) => {
                    (a == t && b == f) || (a == f && b == t)
                }
                Op::Icmp { pred, a, b } if is_rel_ipred(*pred) => {
                    (a == t && b == f) || (a == f && b == t)
                }
                _ => false,
            };
        }
        false
    }

    fn edge(&mut self, fi: usize, from: &Operand, to: u32, w: f64) {
        let fv = match from {
            Operand::Value(v) => self.node_of(fi, *v),
            Operand::Const(_) => return,
        };
        if self.absorber[fv as usize] {
            return; // absorber out-amplitude is 0 (margin-constrained)
        }
        if !self.live(fv) || !self.live(to) {
            return;
        }
        let mult = self.stats.nodes[fv as usize].max_uses as f64;
        self.edges.push(Edge {
            from: fv,
            to,
            w,
            mult,
        });
    }

    /// The operand must stay deviation-free (address, bitwise input,
    /// observable). Absorber-defined operands are exempt: their margin
    /// constraint already guarantees an exact result.
    fn kill(&mut self, fi: usize, o: &Operand) {
        if let Operand::Value(v) = o {
            let n = self.node_of(fi, *v);
            if !self.absorber[n as usize] && self.live(n) {
                self.constraints.push(Constraint {
                    node: n,
                    bound: 0.0,
                });
            }
        }
    }

    /// Headroom constraint used by multiplier edges: deviation at the
    /// *other* operand must stay within its own golden magnitude.
    fn headroom(&mut self, fi: usize, o: &Operand) -> f64 {
        match o {
            Operand::Const(_) => 0.0,
            Operand::Value(v) => {
                let n = self.node_of(fi, *v);
                if self.absorber[n as usize] || !self.live(n) {
                    return 0.0;
                }
                let hb = self.max_abs(n).max(f64::MIN_POSITIVE);
                self.constraints.push(Constraint { node: n, bound: hb });
                hb
            }
        }
    }

    fn build(&mut self, memdep: &MemDepGraph) {
        let module = self.module;
        // Stores: value operand node per store sid, for memory edges.
        let mut store_val: HashMap<u32, (usize, Operand)> = HashMap::new();
        for (fi, f) in module.functions.iter().enumerate() {
            for ins in f.instrs() {
                if let Op::Store { value, .. } = &ins.op {
                    store_val.insert(ins.sid.0, (fi, *value));
                }
            }
        }
        // Return-value operands per function, for call-result edges.
        let mut rets: Vec<Vec<(usize, Operand)>> = vec![Vec::new(); module.functions.len()];
        for (fi, f) in module.functions.iter().enumerate() {
            for blk in &f.blocks {
                if let Term::Ret { value: Some(v) } = &blk.term {
                    rets[fi].push((fi, *v));
                }
            }
        }

        for (fi, f) in module.functions.iter().enumerate() {
            for blk in &f.blocks {
                for ins in &blk.instrs {
                    let sid = ins.sid.0 as usize;
                    if self.exec[sid] == 0 {
                        continue;
                    }
                    let r = ins.result.map(|v| self.node_of(fi, v));
                    match &ins.op {
                        Op::Bin { op, a, b } => {
                            let to = r.expect("bin result");
                            match op {
                                BinOp::FAdd | BinOp::FSub | BinOp::Add | BinOp::Sub => {
                                    self.edge(fi, a, to, 1.0);
                                    self.edge(fi, b, to, 1.0);
                                }
                                BinOp::FMul | BinOp::Mul => {
                                    // x'y' - xy = y'(x'-x) + x(y'-y):
                                    // |y'| <= |y| + headroom(y).
                                    let wb = self.mag(fi, b) + self.headroom(fi, b);
                                    let wa = self.mag(fi, a) + self.headroom(fi, a);
                                    self.edge(fi, a, to, wb);
                                    self.edge(fi, b, to, wa);
                                }
                                BinOp::FDiv => {
                                    let dmin = match b {
                                        Operand::Const(c) => c.as_f64().abs(),
                                        Operand::Value(v) => {
                                            let n = self.node_of(fi, *v);
                                            self.stats.nodes[n as usize].min_abs(Ty::F64)
                                        }
                                    };
                                    if dmin <= 0.0 {
                                        self.kill(fi, a);
                                        self.kill(fi, b);
                                    } else {
                                        if let Operand::Value(v) = b {
                                            let n = self.node_of(fi, *v);
                                            if !self.absorber[n as usize] && self.live(n) {
                                                self.constraints.push(Constraint {
                                                    node: n,
                                                    bound: dmin / 2.0,
                                                });
                                            }
                                        }
                                        let num = self.mag(fi, a);
                                        self.edge(fi, a, to, 2.0 / dmin);
                                        self.edge(fi, b, to, 2.0 * num / (dmin * dmin));
                                    }
                                }
                                BinOp::SDiv | BinOp::SRem => {
                                    self.kill(fi, a);
                                    self.kill(fi, b);
                                }
                                BinOp::And
                                | BinOp::Or
                                | BinOp::Xor
                                | BinOp::Shl
                                | BinOp::LShr
                                | BinOp::AShr => {
                                    self.kill(fi, a);
                                    self.kill(fi, b);
                                }
                            }
                        }
                        Op::Un { op, a } => {
                            let to = r.expect("un result");
                            match op {
                                UnOp::FNeg | UnOp::FAbs | UnOp::Sin | UnOp::Cos | UnOp::Not => {
                                    self.edge(fi, a, to, 1.0);
                                }
                                UnOp::Sqrt => {
                                    let dmin = match a {
                                        Operand::Const(c) => c.as_f64(),
                                        Operand::Value(v) => {
                                            let n = self.node_of(fi, *v);
                                            self.stats.nodes[n as usize].signed_min(Ty::F64)
                                        }
                                    };
                                    if dmin <= 0.0 {
                                        self.kill(fi, a);
                                    } else {
                                        if let Operand::Value(v) = a {
                                            let n = self.node_of(fi, *v);
                                            if !self.absorber[n as usize] && self.live(n) {
                                                self.constraints.push(Constraint {
                                                    node: n,
                                                    bound: dmin / 2.0,
                                                });
                                            }
                                        }
                                        self.edge(fi, a, to, 0.5 / (dmin / 2.0).sqrt());
                                    }
                                }
                                UnOp::Exp => {
                                    let dmax = self.mag(fi, a).min(700.0);
                                    if let Operand::Value(v) = a {
                                        let n = self.node_of(fi, *v);
                                        if !self.absorber[n as usize] && self.live(n) {
                                            self.constraints.push(Constraint {
                                                node: n,
                                                bound: 1.0,
                                            });
                                        }
                                    }
                                    self.edge(fi, a, to, (dmax + 1.0).exp());
                                }
                                UnOp::Log => {
                                    let dmin = match a {
                                        Operand::Const(c) => c.as_f64(),
                                        Operand::Value(v) => {
                                            let n = self.node_of(fi, *v);
                                            self.stats.nodes[n as usize].signed_min(Ty::F64)
                                        }
                                    };
                                    if dmin <= 0.0 {
                                        self.kill(fi, a);
                                    } else {
                                        if let Operand::Value(v) = a {
                                            let n = self.node_of(fi, *v);
                                            if !self.absorber[n as usize] && self.live(n) {
                                                self.constraints.push(Constraint {
                                                    node: n,
                                                    bound: dmin / 2.0,
                                                });
                                            }
                                        }
                                        self.edge(fi, a, to, 2.0 / dmin);
                                    }
                                }
                                UnOp::Floor => {
                                    // Absorber: in-amplitude feeds the
                                    // margin constraint; out-edges are 0.
                                    let to = r.expect("floor result");
                                    self.edge(fi, a, to, 1.0);
                                    self.constraints.push(Constraint {
                                        node: to,
                                        bound: self.stats.floor_margin[sid],
                                    });
                                }
                            }
                        }
                        Op::Icmp { a, b, .. } | Op::Fcmp { a, b, .. } => {
                            let to = r.expect("cmp result");
                            self.edge(fi, a, to, 1.0);
                            self.edge(fi, b, to, 1.0);
                            if self.cmp_nonidiom[sid] {
                                self.constraints.push(Constraint {
                                    node: to,
                                    bound: self.stats.cmp_margin[sid],
                                });
                            }
                        }
                        Op::Select { cond, t, f: fo } => {
                            let to = r.expect("select result");
                            self.edge(fi, t, to, 1.0);
                            self.edge(fi, fo, to, 1.0);
                            if !self.is_minmax_idiom(fi, cond, t, fo) {
                                // A flipped decision is only tolerable in
                                // the min/max idiom; otherwise the cond
                                // must stay exact (cmp margins qualify).
                                self.kill(fi, cond);
                            }
                        }
                        Op::Cast { kind, a, .. } => {
                            let to = r.expect("cast result");
                            match kind {
                                CastKind::ZExt | CastKind::SExt | CastKind::SiToFp => {
                                    self.edge(fi, a, to, 1.0);
                                }
                                CastKind::FpToSi => {
                                    self.edge(fi, a, to, 1.0);
                                    self.constraints.push(Constraint {
                                        node: to,
                                        bound: self.stats.floor_margin[sid],
                                    });
                                }
                                CastKind::Trunc
                                | CastKind::Bitcast
                                | CastKind::PtrToInt
                                | CastKind::IntToPtr => {
                                    self.kill(fi, a);
                                }
                            }
                        }
                        Op::Load { addr, .. } => {
                            let to = r.expect("load result");
                            self.kill(fi, addr);
                            let li = memdep
                                .loads
                                .iter()
                                .position(|m| m.sid == ins.sid)
                                .expect("load in memdep");
                            for &si in &memdep.load_stores[li] {
                                let ssid = memdep.stores[si as usize].sid;
                                // Control and addresses are pinned to the
                                // golden trace, so only golden-observed
                                // read-from pairs can carry deviation.
                                if !self.stats.read_pairs.contains(&(ssid.0, ins.sid.0)) {
                                    continue;
                                }
                                let (sfi, sval) = store_val[&ssid.0];
                                let reads = self.stats.max_reads_per_store[ssid.0 as usize];
                                if let Operand::Value(v) = sval {
                                    let fv = self.stats.node_base[sfi] + v.0;
                                    if self.absorber[fv as usize]
                                        || !self.live(fv)
                                        || !self.live(to)
                                    {
                                        continue;
                                    }
                                    let mult = self.stats.nodes[fv as usize].max_uses as f64
                                        * reads as f64;
                                    self.edges.push(Edge {
                                        from: fv,
                                        to,
                                        w: 1.0,
                                        mult,
                                    });
                                }
                            }
                        }
                        Op::Store { addr, .. } => {
                            self.kill(fi, addr);
                            // value flows via the load edges above
                        }
                        Op::Gep { base, index } => {
                            self.kill(fi, base);
                            self.kill(fi, index);
                        }
                        Op::Alloca { words } => {
                            self.kill(fi, words);
                        }
                        Op::Call { func: callee, args } => {
                            let cf = callee.0 as usize;
                            for (i, a) in args.iter().enumerate() {
                                let pn = self.stats.node_base[cf] + i as u32;
                                if self.live(pn) {
                                    self.edge(fi, a, pn, 1.0);
                                }
                            }
                            if let Some(to) = r {
                                let ret_ops: Vec<(usize, Operand)> = rets[cf].clone();
                                for (rfi, v) in ret_ops {
                                    self.edge(rfi, &v, to, 1.0);
                                }
                            }
                        }
                        Op::Output { value } => {
                            self.kill(fi, value);
                        }
                    }
                }
                // Terminator edges. Dead-node filtering inside edge()
                // drops never-taken transfers (their params were never
                // written) — and control equality keeps it that way.
                match &blk.term {
                    Term::Br { target, args } => {
                        let params = &f.blocks[target.0 as usize].params;
                        for (p, a) in params.iter().zip(args) {
                            self.edge(fi, a, self.node_of(fi, *p), 1.0);
                        }
                    }
                    Term::CondBr {
                        cond,
                        then_target,
                        then_args,
                        else_target,
                        else_args,
                    } => {
                        self.kill(fi, cond);
                        for (t, args) in [(then_target, then_args), (else_target, else_args)] {
                            let params = &f.blocks[t.0 as usize].params;
                            for (p, a) in params.iter().zip(args) {
                                self.edge(fi, a, self.node_of(fi, *p), 1.0);
                            }
                        }
                    }
                    Term::Ret { value } => {
                        if fi == module.entry.0 as usize {
                            // The entry return value is observable.
                            if let Some(v) = value {
                                self.kill(fi, v);
                            }
                        }
                    }
                }
            }
        }

        // Magnitude guards: keep every reachable float finite and every
        // integer far from wraparound, so the linearized edge model stays
        // valid end to end.
        for n in 0..self.stats.nodes.len() as u32 {
            if !self.live(n) || self.absorber[n as usize] {
                continue;
            }
            let ty = self.ty_of_node(n);
            let ma = self.max_abs(n);
            let bound = match ty {
                Ty::F64 => 8.9e307 - ma,
                Ty::I64 | Ty::Ptr => (62f64).exp2() - ma,
                Ty::I32 => (30f64).exp2() - ma,
                Ty::I1 => continue,
            };
            self.constraints.push(Constraint {
                node: n,
                bound: bound.max(0.0),
            });
        }
    }

    fn solve(self) -> DeviationAnalysis {
        let module = self.module;
        let stats = self.stats;
        let nverts = stats.nodes.len();
        let mut in_edges: Vec<Vec<Edge>> = vec![Vec::new(); nverts];
        let mut out_adj: Vec<Vec<u32>> = vec![Vec::new(); nverts];
        for e in &self.edges {
            in_edges[e.to as usize].push(*e);
            out_adj[e.from as usize].push(e.to);
        }
        let (comps, comp_of) = tarjan_sccs(nverts, &out_adj);

        // Classify each SCC.
        let mut comp_cyclic = vec![false; comps.len()];
        let mut comp_unsafe = vec![false; comps.len()];
        let mut comp_additive = vec![false; comps.len()];
        // Node kinds needed for the classification. Only `Bin` results
        // genuinely *sum* several inflows into one instance; selects,
        // loads, block params, function params, and call results all take
        // exactly one of their in-edges per dynamic instance (max-kind),
        // so several in-cycle edges there do not compound per lap.
        let mut additive_node = vec![false; nverts];
        let mut sum_node = vec![false; nverts];
        for (fi, f) in module.functions.iter().enumerate() {
            for ins in f.instrs() {
                if let Some(r) = ins.result {
                    let n = (stats.node_base[fi] + r.0) as usize;
                    if let Op::Bin { op, .. } = &ins.op {
                        sum_node[n] = true;
                        if matches!(op, BinOp::Add | BinOp::Sub | BinOp::FAdd | BinOp::FSub) {
                            additive_node[n] = true;
                        }
                    }
                }
            }
        }
        for (ci, members) in comps.iter().enumerate() {
            let cyclic = members.len() > 1
                || in_edges[members[0] as usize]
                    .iter()
                    .any(|e| e.from == members[0]);
            comp_cyclic[ci] = cyclic;
            if !cyclic {
                continue;
            }
            for &m in members {
                let internal: Vec<&Edge> = in_edges[m as usize]
                    .iter()
                    .filter(|e| comp_of[e.from as usize] == ci as u32)
                    .collect();
                if internal.iter().any(|e| e.w > 1.0 + 1e-9) {
                    comp_unsafe[ci] = true;
                }
                if internal.len() >= 2 && sum_node[m as usize] {
                    // Two in-cycle inflows at a summing node compound per
                    // lap: geometric growth, not amplitude-bounded.
                    comp_unsafe[ci] = true;
                }
                if additive_node[m as usize] {
                    comp_additive[ci] = true;
                }
            }
        }

        // Rounding-slack sources: executed float-rounding ops.
        let mut slack_sources: Vec<(u32, f64)> = Vec::new();
        for (fi, f) in module.functions.iter().enumerate() {
            for ins in f.instrs() {
                let sid = ins.sid.0 as usize;
                if self.exec[sid] == 0 {
                    continue;
                }
                let rounds = match &ins.op {
                    Op::Bin { op, .. } => {
                        matches!(op, BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv)
                    }
                    Op::Un { op, .. } => matches!(
                        op,
                        UnOp::Sqrt | UnOp::Sin | UnOp::Cos | UnOp::Exp | UnOp::Log
                    ),
                    Op::Cast { kind, .. } => matches!(kind, CastKind::SiToFp),
                    _ => false,
                };
                if !rounds {
                    continue;
                }
                if let Some(r) = ins.result {
                    let n = stats.node_base[fi] + r.0;
                    let ma = stats.nodes[n as usize].max_abs(Ty::F64);
                    slack_sources.push((n, ulp_of(2.0 * ma.max(f64::MIN_POSITIVE))));
                }
            }
        }

        let writes: Vec<f64> = stats.nodes.iter().map(|s| s.writes as f64).collect();
        let graph = Graph {
            nverts,
            in_edges,
            constraints: self.constraints,
            writes,
            comps,
            comp_of,
            comp_cyclic,
            comp_unsafe,
            comp_additive,
            slack_sources,
        };

        // Per-sid result tables.
        let n = module.num_instrs;
        let mut tol = vec![0.0f64; n];
        let mut sid_max_abs = vec![0.0f64; n];
        let mut sid_ty = vec![None; n];
        let mut sid_width = vec![0u8; n];
        let mut sid_non_finite = vec![false; n];
        for (fi, f) in module.functions.iter().enumerate() {
            for ins in f.instrs() {
                let sid = ins.sid.0 as usize;
                let r = match ins.result {
                    Some(r) => r,
                    None => continue,
                };
                let ty = f.value_types[r.0 as usize];
                sid_ty[sid] = Some(ty);
                sid_width[sid] = match ty {
                    Ty::I1 => 1,
                    Ty::I32 => 32,
                    _ => 64,
                };
                let node = stats.node_base[fi] + r.0;
                sid_max_abs[sid] = stats.nodes[node as usize].max_abs(ty);
                sid_non_finite[sid] = stats.nodes[node as usize].non_finite;
                if self.exec[sid] == 0 || ty == Ty::I1 {
                    continue;
                }
                // Amplitude injected at the fault site is never masked
                // for absorber results: a flipped compare bit is a
                // decision flip, and a flipped floor result is already
                // integral — margins don't apply to direct corruption.
                if self.absorber[node as usize] {
                    continue;
                }
                tol[sid] = solve_source(&graph, node);
            }
        }
        DeviationAnalysis {
            tol,
            sid_max_abs,
            sid_ty,
            sid_width,
            sid_non_finite,
        }
    }
}

/// Forward-propagates amplitudes/instance-counts from `init` over the SCC
/// condensation. Returns per-node amplitude bounds.
fn propagate(graph: &Graph, init: &[(u32, f64)]) -> Vec<f64> {
    let mut a = vec![0.0f64; graph.nverts];
    let mut cnt = vec![0.0f64; graph.nverts];
    let mut init_a = vec![0.0f64; graph.nverts];
    let mut init_c = vec![0.0f64; graph.nverts];
    for &(v, amp) in init {
        init_a[v as usize] += amp;
        // Amplitude sources carry one deviated instance each per
        // execution of the source (slack) or exactly one (fault).
        init_c[v as usize] = graph.writes[v as usize].max(1.0);
    }
    for (ci, members) in graph.comps.iter().enumerate() {
        if !graph.comp_cyclic[ci] {
            let v = members[0] as usize;
            let mut amp = init_a[v];
            let mut c = init_c[v];
            for e in &graph.in_edges[v] {
                amp += e.w * a[e.from as usize];
                c += cnt[e.from as usize] * e.mult;
            }
            a[v] = amp;
            cnt[v] = c.min(graph.writes[v]);
            continue;
        }
        // Cyclic SCC: gather entry contributions.
        let mut amp_in = 0.0f64;
        let mut amp_counted = 0.0f64;
        for &m in members {
            let v = m as usize;
            amp_in += init_a[v];
            amp_counted += init_a[v] * init_c[v].min(graph.writes[v]);
            for e in &graph.in_edges[v] {
                if graph.comp_of[e.from as usize] == ci as u32 {
                    continue;
                }
                let contrib = e.w * a[e.from as usize];
                amp_in += contrib;
                let events = (cnt[e.from as usize] * e.mult).min(graph.writes[v]);
                amp_counted += contrib * events.max(1.0);
            }
        }
        let val = if amp_in <= 0.0 {
            0.0
        } else if graph.comp_unsafe[ci] {
            INF
        } else if graph.comp_additive[ci] {
            // An in-cycle accumulator integrates every deviated entry
            // event once; events are bounded by golden instance counts.
            amp_counted
        } else {
            amp_in
        };
        for &m in members {
            a[m as usize] = val;
            cnt[m as usize] = graph.writes[m as usize];
        }
    }
    a
}

/// Max initial deviation at `source` that satisfies every reachable
/// constraint, accounting for re-rounding slack along reached float ops.
fn solve_source(graph: &Graph, source: u32) -> f64 {
    let a = propagate(graph, &[(source, 1.0)]);
    // Slack from float ops the deviation actually reaches.
    let slack_init: Vec<(u32, f64)> = graph
        .slack_sources
        .iter()
        .filter(|(v, _)| a[*v as usize] > 0.0)
        .map(|&(v, u)| (v, u * graph.writes[v as usize].max(1.0)))
        .collect();
    let slack = if slack_init.is_empty() {
        vec![0.0; graph.nverts]
    } else {
        propagate(graph, &slack_init)
    };
    let mut tol = INF;
    for c in &graph.constraints {
        let av = a[c.node as usize];
        if av <= 0.0 {
            continue;
        }
        let room = c.bound - slack[c.node as usize];
        let t = if room <= 0.0 { 0.0 } else { room / av };
        tol = tol.min(t);
    }
    tol * (1.0 - SAFETY)
}

/// Iterative Tarjan SCC. Returns components in topological order
/// (predecessors first) and the component index of each node.
fn tarjan_sccs(n: usize, out_adj: &[Vec<u32>]) -> (Vec<Vec<u32>>, Vec<u32>) {
    let mut index = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut comps: Vec<Vec<u32>> = Vec::new();
    let mut comp_of = vec![u32::MAX; n];
    let mut next = 0u32;
    // Explicit DFS: (node, child cursor).
    let mut call: Vec<(u32, usize)> = Vec::new();
    for s in 0..n as u32 {
        if index[s as usize] != u32::MAX {
            continue;
        }
        call.push((s, 0));
        index[s as usize] = next;
        low[s as usize] = next;
        next += 1;
        stack.push(s);
        on_stack[s as usize] = true;
        while let Some(&mut (v, ref mut cursor)) = call.last_mut() {
            if *cursor < out_adj[v as usize].len() {
                let w = out_adj[v as usize][*cursor];
                *cursor += 1;
                if index[w as usize] == u32::MAX {
                    index[w as usize] = next;
                    low[w as usize] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    call.push((w, 0));
                } else if on_stack[w as usize] {
                    low[v as usize] = low[v as usize].min(index[w as usize]);
                }
            } else {
                call.pop();
                if let Some(&(p, _)) = call.last() {
                    low[p as usize] = low[p as usize].min(low[v as usize]);
                }
                if low[v as usize] == index[v as usize] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack");
                        on_stack[w as usize] = false;
                        comp_of[w as usize] = comps.len() as u32;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comps.push(comp);
                }
            }
        }
    }
    // Tarjan pops sinks first; reverse for predecessors-first order.
    comps.reverse();
    let flip = comps.len() as u32 - 1;
    for c in comp_of.iter_mut() {
        *c = flip - *c;
    }
    (comps, comp_of)
}

#[cfg(test)]
mod tests {
    use super::*;
    use peppa_vm::{ExecLimits, Injection, InjectionTarget, Vm};

    fn compile(src: &str) -> Module {
        peppa_lang::compile(src, "dev_test").expect("compile")
    }

    fn analyze(src: &str, inputs: &[f64]) -> (Module, DeviationAnalysis, RunOutput) {
        let module = compile(src);
        let (dev, out) =
            DeviationAnalysis::from_run(&module, inputs, ExecLimits::default()).expect("golden");
        (module, dev, out)
    }

    /// Injects every predicted-masked cell at every dynamic instance and
    /// checks the run output stays bit-identical to golden.
    fn assert_cells_benign(module: &Module, dev: &DeviationAnalysis, inputs: &[f64], burst: u8) {
        let cells = dev.extra_cells(burst);
        let bits = encode_inputs(module.entry_func(), inputs);
        let vm = Vm::new(module, ExecLimits::default());
        let golden = vm.run(&bits, None);
        let mut tried = 0;
        for (sid, &mask) in cells.iter().enumerate() {
            if mask == 0 {
                continue;
            }
            let execs = golden.profile.exec_counts[sid].min(4);
            for bit in 0..64u32 {
                if mask & (1 << bit) == 0 {
                    continue;
                }
                for inst in 0..execs {
                    let out = vm.run(
                        &bits,
                        Some(Injection {
                            target: InjectionTarget::StaticInstance {
                                sid: peppa_ir::InstrId(sid as u32),
                                instance: inst,
                            },
                            bit,
                            burst,
                        }),
                    );
                    assert!(
                        !out.is_sdc_vs(&golden) && out.status.is_ok(),
                        "cell (sid {sid}, bit {bit}, inst {inst}) predicted benign but diverged"
                    );
                    tried += 1;
                }
            }
        }
        assert!(tried > 0, "no cells predicted — test is vacuous");
    }

    #[test]
    fn quantized_output_masks_low_mantissa_bits() {
        // floor(x*0.001 + 3.7) quantizes: low mantissa flips of the
        // product vanish. The analysis must find a positive tolerance.
        let src = r#"
            fn main(x: float) {
                let y = x * 0.001 + 3.7;
                output floor(y);
            }
        "#;
        let (module, dev, _) = analyze(src, &[5.0]);
        let some_tol = dev.tol.iter().any(|&t| t > 1e-9 && t.is_finite());
        assert!(
            some_tol,
            "expected a positive finite tolerance: {:?}",
            dev.tol
        );
        assert_cells_benign(&module, &dev, &[5.0], 0);
    }

    #[test]
    fn fmin_tournament_is_nonexpansive() {
        // A min tournament feeding a quantized output: deviations below
        // the floor margin are absorbed even though the comparison
        // decision may flip.
        let src = r#"
            fn main(a: float, b: float) {
                let m = fmin(a * 1.0000001, b);
                output floor(m * 10.0);
            }
        "#;
        let (module, dev, _) = analyze(src, &[1.53, 2.71]);
        assert!(dev.tol.iter().any(|&t| t > 1e-9));
        assert_cells_benign(&module, &dev, &[1.53, 2.71], 0);
        assert_cells_benign(&module, &dev, &[1.53, 2.71], 2);
    }

    #[test]
    fn branch_compare_margin_bounds_tolerance() {
        // The loop bound compare has margin 1 in (i - n) units; i itself
        // must not deviate (margin 1 > deviation needs tol < 1), and the
        // accumulator chain tolerates only below the floor margin.
        let src = r#"
            fn main(n: int) {
                let s = 0.0;
                for (i = 0; i < n; i = i + 1) {
                    s = s + 0.125;
                }
                output floor(s);
            }
        "#;
        let (module, dev, _) = analyze(src, &[7.0]);
        assert_cells_benign(&module, &dev, &[7.0], 0);
    }

    #[test]
    fn amplifying_cycle_is_unprunable() {
        // s doubles every lap: the SCC is expansion-unsafe, so nothing
        // feeding it may be deviation-masked.
        let src = r#"
            fn main(x: float) {
                let s = x;
                for (i = 0; i < 40; i = i + 1) {
                    s = s + s;
                }
                output floor(s);
            }
        "#;
        let module = compile(src);
        let (dev, out) =
            DeviationAnalysis::from_run(&module, &[1.25], ExecLimits::default()).expect("golden");
        // Find the doubling fadd: its tol must be 0 (reaches itself).
        for f in &module.functions {
            for ins in f.instrs() {
                if let Op::Bin {
                    op: BinOp::FAdd,
                    a,
                    b,
                } = &ins.op
                {
                    if a == b {
                        assert_eq!(
                            dev.tol[ins.sid.0 as usize], 0.0,
                            "doubling fadd must be live"
                        );
                    }
                }
            }
        }
        let _ = out;
    }

    #[test]
    fn int_exact_output_gets_no_deviation_cells() {
        // Integer chain straight into out(): any deviation changes the
        // observable, so no deviation cells exist (reach-based masking
        // may still apply independently).
        let src = r#"
            fn main(x: int) {
                output x * 3 + 1;
            }
        "#;
        let (_, dev, _) = analyze(src, &[9.0]);
        assert!(dev.extra_cells(0).iter().all(|&c| c == 0));
    }

    #[test]
    fn interprocedural_deviation_flows_through_calls() {
        let src = r#"
            fn scale(v: float) -> float {
                return v * 0.5;
            }
            fn main(x: float) {
                output floor(scale(x) + 100.5);
            }
        "#;
        let (module, dev, _) = analyze(src, &[3.2]);
        assert!(
            dev.tol.iter().any(|&t| t > 1e-9),
            "call path should carry tolerance"
        );
        assert_cells_benign(&module, &dev, &[3.2], 0);
    }

    #[test]
    fn randomized_masked_cells_never_flip_observables() {
        // Property-style spot check over a richer kernel with memory,
        // calls, and a min-tournament, across several inputs and bursts.
        let src = r#"
            global float buf[64];
            fn lcg(x: int) -> int {
                return (x * 1103515245 + 12345) % 2147483648;
            }
            fn main(seed: int, n: int) {
                let r = seed;
                for (i = 0; i < n; i = i + 1) {
                    r = lcg(r);
                    buf[i] = i2f(abs(r) % 1000) * 0.01;
                }
                let best = 1000000000000000000.0;
                let sum = 0.0;
                for (i = 0; i < n; i = i + 1) {
                    best = fmin(best, buf[i] * 1.000001);
                    sum = sum + buf[i];
                }
                output floor(best * 100.0 + 0.5);
                output floor(sum + 0.5);
            }
        "#;
        for inputs in [[7.0, 24.0], [99.0, 48.0], [3.0, 11.0]] {
            let (module, dev, _) = analyze(src, &inputs);
            for burst in [0u8, 1, 3] {
                assert_cells_benign(&module, &dev, &inputs, burst);
            }
        }
    }
}
