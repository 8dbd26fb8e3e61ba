//! The compiled execution backend: a threaded-bytecode machine over
//! [`CompiledModule`] that is observably bit-identical to the
//! interpreter in `exec.rs`.
//!
//! Every observable a trial reads from the interpreter — output words,
//! return bits, `Profile` counters, trap/hang classification, fault
//! activation, snapshots in interpreter frame coordinates, convergence
//! decisions — is produced here with the same values. The machine runs
//! no `ExecHook`: instrumented runs are the interpreter's. It differs
//! only in *how* it gets there: it dispatches over pre-lowered bytecode
//! ops with all operands resolved to flat register indices, executes
//! fused superinstructions where the lowering found the patterns, and
//! skips the interpreter's per-instruction operand matching entirely.
//!
//! The equivalence argument is structural: each exact-tier step runs
//! one interpreter instruction with the interpreter driver loop's
//! bookkeeping sequence (dynamic count → hang check → exec count →
//! compute → `finish`) and then checks the snapshot-boundary gate; a
//! fused head runs only its first component there and steps to the
//! unfused stub at `pc + 1`, so fused pairs run only in the turbo
//! tier, whose gate proves no boundary falls inside them. The turbo
//! tier is its own small loop (`CMachine::turbo`) that counts a whole
//! segment's instructions when its gate passes and, on a trap, rebuilds
//! the counters the exact tier would have left. Register
//! indices below `num_values` coincide with `ValueId`s so fault
//! injection flips the same typed bits of the same register.
//! Unchecked register/code accesses are justified by the bounds sweep
//! at the end of lowering (`lower::validate`); debug builds keep the
//! assertions.

use crate::exec::{
    canon, exec_bin, exec_cast, exec_fcmp as fcmp, exec_icmp as icmp, exec_un, flip_bits,
    ExecLimits, Injection, InjectionTarget, RunEnd, RunOutput, RunStatus, Stop, Trap,
};
use crate::image::{Image, ResumeScratch};
use crate::lower::{defines, Bc, CompiledFunc, CompiledModule, NO_REG};
use crate::profile::Profile;
use crate::snapshot::{
    mask_contains, AccessEv, AccessLog, ConvergeMasks, FrameSnap, ReadSets, SnapData, TrialResume,
    VmSnapshot,
};
use peppa_ir::{FuncId, Instr, Module};

#[inline(always)]
fn rd(regs: &[u64], i: u32) -> u64 {
    debug_assert!((i as usize) < regs.len(), "register read out of bounds");
    unsafe { *regs.get_unchecked(i as usize) }
}

#[inline(always)]
fn wr(regs: &mut [u64], i: u32, v: u64) {
    debug_assert!((i as usize) < regs.len(), "register write out of bounds");
    unsafe { *regs.get_unchecked_mut(i as usize) = v }
}

/// One activation record of the compiled machine. The frame's
/// register file lives in the run's shared register arena at
/// `[base, base + num_regs)`: the interpreter's value registers in
/// the first `num_values` slots and the function's constant pool
/// behind them. `pc` replaces the interpreter's `(block, instr)` pair
/// (recoverable through the lowered function's `meta` table). Keeping frames in
/// one arena makes a call push a bump + one memcpy of the prebuilt
/// frame image instead of a heap allocation.
struct CFrame {
    fid: FuncId,
    base: u32,
    pc: u32,
    frame_sp: u64,
}

/// What the driver does when a value-dynamic boundary is due; mirrors
/// the interpreter's `SnapCtl`.
enum Ctl<'a> {
    Off,
    /// Freeze a [`VmSnapshot`] at each of `points` (sorted, distinct).
    Capture {
        points: &'a [u64],
        next: usize,
        out: Vec<VmSnapshot>,
    },
    /// Compare machine state against later golden checkpoints once the
    /// fault has fired.
    Converge {
        checkpoints: &'a [VmSnapshot],
        next: usize,
        masks: Option<&'a ConvergeMasks>,
        read_sets: Option<&'a ReadSets>,
    },
}

/// Why the inner dispatch loop handed control back to the driver.
enum Exit {
    /// `frame.pc` is at a call; push the callee frame.
    Call,
    /// `frame.pc` is at a return; pop the frame.
    Ret,
    /// A snapshot boundary is due at `frame.pc`.
    Boundary,
}

/// The machine state of one run. `LOG` is on only in a snapshot capture
/// that derives read sets: both tiers then append every load, store and
/// zero-fill to `log`, and the tiers of every other run compile without
/// a trace of it.
struct CMachine<'m, const LOG: bool> {
    module: &'m Module,
    code: &'m CompiledModule,
    limits: ExecLimits,
    memory: Image,
    stack_ptr: u64,
    profile: Profile,
    output: Vec<u64>,
    injection: Option<Injection>,
    /// `value_dynamic` value at which a [`InjectionTarget::DynamicIndex`]
    /// fault fires (`k + 1`); `u64::MAX` when absent or already applied.
    inj_vd: u64,
    /// A [`InjectionTarget::StaticInstance`] fault is still pending, so
    /// every def must run the sid/instance check.
    static_pending: bool,
    fault_activated: bool,
    ctl: Ctl<'m>,
    /// Cached `value_dynamic` of the next interesting boundary
    /// (`u64::MAX` when none): the per-def gate is one compare.
    next_vd: u64,
    /// Completed-segment execution counts, indexed by flat pc
    /// (`pc_base[fid] + segment start pc`). The turbo loop records one
    /// hit per fully executed straight-line segment instead of one
    /// `exec_counts` read-modify-write per instruction;
    /// [`Self::fold_seg_hits`] folds the hits back into per-sid
    /// `exec_counts` before the profile is observable (at run end and
    /// at each snapshot capture). Only the injection-far fast path
    /// writes here — every slow-path instruction still counts directly
    /// — so live `exec_counts` reads (the `StaticInstance` check) always
    /// see exact values: a pending static injection disables the turbo
    /// loop outright.
    seg_hits: Vec<u64>,
    /// Memory-access trace (`LOG` runs only).
    log: AccessLog,
}

impl<'m, const LOG: bool> CMachine<'m, LOG> {
    #[inline]
    fn instr_at(&self, fid: FuncId, pc: usize) -> &'m Instr {
        let cf = &self.code.funcs[fid.0 as usize];
        let (b, i) = cf.meta[pc];
        &self.module.func(fid).blocks[b as usize].instrs[i as usize]
    }

    /// The interpreter's per-instruction bookkeeping before the op at
    /// `pc` executes: bump `dynamic`, check the hang budget, count the
    /// instruction in `exec_counts`.
    #[inline(always)]
    fn begin(&mut self, cf: &CompiledFunc, pc: usize) -> Result<(), Stop> {
        self.profile.dynamic += 1;
        if self.profile.dynamic > self.limits.max_dynamic {
            return Err(Stop::Hang);
        }
        let sid = cf.sids[pc];
        debug_assert_ne!(sid, u32::MAX, "begin at a terminator pc");
        self.profile.exec_counts[sid as usize] += 1;
        Ok(())
    }

    /// The interpreter's `finish_instr` for a value-producing op at
    /// `pc`: bump `value_dynamic`, apply a pending injection, write the
    /// register.
    #[inline(always)]
    fn finish(
        &mut self,
        fid: FuncId,
        cf: &CompiledFunc,
        pc: usize,
        dst: u32,
        bits: u64,
        regs: &mut [u64],
    ) {
        let mut bits = bits;
        self.profile.value_dynamic += 1;
        if self.profile.value_dynamic == self.inj_vd
            || (self.static_pending && self.static_hits(cf, pc))
        {
            bits = self.apply_fault(fid, pc, bits);
        }
        wr(regs, dst, bits);
    }

    #[inline]
    fn static_hits(&self, cf: &CompiledFunc, pc: usize) -> bool {
        match self.injection {
            Some(Injection {
                target: InjectionTarget::StaticInstance { sid, instance },
                ..
            }) => cf.sids[pc] == sid.0 && self.profile.exec_counts[sid.0 as usize] - 1 == instance,
            _ => false,
        }
    }

    #[cold]
    fn apply_fault(&mut self, fid: FuncId, pc: usize, bits: u64) -> u64 {
        let inj = self.injection.expect("fault fired without an injection");
        let ins = self.instr_at(fid, pc);
        let r = ins.result.expect("injected instruction has a result");
        let ty = self.module.func(fid).ty_of(r);
        let flipped = flip_bits(ty, bits, inj.bit, inj.burst);
        self.fault_activated = true;
        self.inj_vd = u64::MAX;
        self.static_pending = false;
        flipped
    }

    /// A load through `addr`, traced in `LOG` runs.
    #[inline(always)]
    fn mem_read(&mut self, addr: u64) -> Result<u64, Stop> {
        let word = self.memory.read(addr)?;
        if LOG {
            self.log.events.push(AccessEv::Load(addr as u32));
        }
        Ok(word)
    }

    /// A store through `addr`, traced in `LOG` runs.
    #[inline(always)]
    fn mem_write(&mut self, addr: u64, value: u64) -> Result<(), Stop> {
        self.memory.write(addr, value)?;
        if LOG {
            self.log.events.push(AccessEv::Store(addr as u32));
        }
        Ok(())
    }

    /// Pushes a callee frame: one bump of the register arena plus a
    /// memcpy of the prebuilt frame image (zeros + constant pool),
    /// then the parameters. Depth check first, as in the interpreter's
    /// `push_frame`.
    fn push_cframe(
        &mut self,
        frames: &mut Vec<CFrame>,
        arena: &mut Vec<u64>,
        fid: FuncId,
        args: &[u64],
    ) -> Result<(), Stop> {
        if frames.len() >= self.limits.max_call_depth {
            return Err(Stop::Trap(Trap::CallDepth));
        }
        let cf = &self.code.funcs[fid.0 as usize];
        let base = arena.len();
        arena.extend_from_slice(&cf.frame_image);
        arena[base..base + args.len()].copy_from_slice(args);
        frames.push(CFrame {
            fid,
            base: base as u32,
            pc: 0,
            frame_sp: self.stack_ptr,
        });
        Ok(())
    }

    /// Folds the turbo loop's per-segment hit counters back into
    /// per-sid `exec_counts` and resets them: each completed segment
    /// contributes its hit count to every instruction it covers, in the
    /// same amounts per-instruction counting would have produced. Runs
    /// before the profile escapes — at run end and at each snapshot
    /// capture — and counts each hit once.
    fn fold_seg_hits(&mut self) {
        let code = self.code;
        for (fi, cf) in code.funcs.iter().enumerate() {
            let base = code.pc_base[fi] as usize;
            for start in 0..cf.code.len() {
                let h = std::mem::take(&mut self.seg_hits[base + start]);
                if h != 0 {
                    for pc in cf.seg_pcs(start) {
                        self.profile.exec_counts[cf.sids[pc] as usize] += h;
                    }
                }
            }
        }
    }

    /// Exact `exec_counts` for a segment the turbo loop abandoned
    /// mid-way (a trap): credit the segment's first `began`
    /// instructions, the ones that began before the trap.
    #[cold]
    fn credit_partial(&mut self, cf: &CompiledFunc, start_pc: usize, began: u64) {
        let pcs = cf.seg_pcs(start_pc);
        debug_assert!(
            began as usize <= pcs.len(),
            "more began than the segment holds"
        );
        for pc in pcs.take(began as usize) {
            self.profile.exec_counts[cf.sids[pc] as usize] += 1;
        }
    }

    /// The interpreter's `snapshot_boundary`, verbatim over compiled
    /// frames.
    #[cold]
    fn boundary(&mut self, frames: &[CFrame], arena: &[u64]) -> Option<RunEnd> {
        let vd = self.profile.value_dynamic;
        let (checkpoints, mut next, masks, read_sets) = match &mut self.ctl {
            Ctl::Off => {
                self.next_vd = u64::MAX;
                return None;
            }
            Ctl::Capture { points, next, .. } => {
                let mut due = false;
                while *next < points.len() && vd >= points[*next] {
                    due |= vd == points[*next];
                    *next += 1;
                }
                self.next_vd = points.get(*next).copied().unwrap_or(u64::MAX);
                if due {
                    let snap = self.snapshot(frames, arena);
                    if let Ctl::Capture { out, .. } = &mut self.ctl {
                        out.push(snap);
                    }
                    if LOG {
                        self.log.marks.push((self.log.events.len(), vd));
                    }
                }
                return None;
            }
            Ctl::Converge {
                checkpoints,
                next,
                masks,
                read_sets,
            } => (*checkpoints, *next, *masks, *read_sets),
        };
        let mut matched = None;
        while next < checkpoints.len() {
            let cp = checkpoints[next].data();
            if cp.value_dynamic < self.profile.value_dynamic
                || (cp.value_dynamic == self.profile.value_dynamic && !self.fault_activated)
            {
                next += 1;
                continue;
            }
            if cp.value_dynamic > self.profile.value_dynamic {
                break;
            }
            next += 1;
            if self.state_matches(cp, frames, arena, masks, read_sets) {
                matched = Some(RunEnd::Converged {
                    at_value_dynamic: cp.value_dynamic,
                    checkpoint_dynamic: cp.dynamic,
                    dynamic_at_exit: self.profile.dynamic,
                    output_matches: self.output == cp.output,
                });
                break;
            }
        }
        self.next_vd = checkpoints
            .get(next)
            .map_or(u64::MAX, |c| c.data().value_dynamic);
        if let Ctl::Converge { next: n, .. } = &mut self.ctl {
            *n = next;
        }
        matched
    }

    /// Freezes the machine in interpreter coordinates: frame positions
    /// through `meta`, each frame's value registers (the constant-pool
    /// tail is engine-private), and exact `exec_counts`, folding the
    /// turbo tier's segment hits so far.
    fn snapshot(&mut self, frames: &[CFrame], arena: &[u64]) -> VmSnapshot {
        self.fold_seg_hits();
        let code = self.code;
        let frames = frames
            .iter()
            .map(|f| {
                let cf = &code.funcs[f.fid.0 as usize];
                let (block, instr) = cf.meta[f.pc as usize];
                let base = f.base as usize;
                FrameSnap {
                    fid: f.fid,
                    regs: arena[base..base + cf.num_values].to_vec(),
                    block,
                    instr,
                    frame_sp: f.frame_sp,
                }
            })
            .collect();
        VmSnapshot::freeze(
            frames,
            &self.memory,
            self.stack_ptr,
            &self.output,
            &self.profile,
        )
    }

    /// The interpreter's `state_matches` with frame coordinates
    /// recovered through `meta`; only the value registers participate
    /// (the constant-pool tail is immutable and engine-private).
    fn state_matches(
        &self,
        cp: &SnapData,
        frames: &[CFrame],
        arena: &[u64],
        masks: Option<&ConvergeMasks>,
        read_sets: Option<&ReadSets>,
    ) -> bool {
        if self.stack_ptr != cp.stack_ptr || frames.len() != cp.frames.len() {
            return false;
        }
        for (f, s) in frames.iter().zip(&cp.frames) {
            let cf = &self.code.funcs[f.fid.0 as usize];
            let (b, i) = cf.meta[f.pc as usize];
            if f.fid != s.fid || b != s.block || i != s.instr || f.frame_sp != s.frame_sp {
                return false;
            }
            let regs = &arena[f.base as usize..f.base as usize + cf.num_values];
            match masks {
                None => {
                    if regs != &s.regs[..] {
                        return false;
                    }
                }
                Some(m) => {
                    let live = m.mask(f.fid, b, i);
                    for (k, (a, bb)) in regs.iter().zip(&s.regs).enumerate() {
                        if a != bb && mask_contains(live, k) {
                            return false;
                        }
                    }
                }
            }
        }
        self.memory
            .matches(cp, read_sets.and_then(|r| r.set_at(cp.value_dynamic)))
    }

    /// The turbo tier: runs whole straight-line segments of one frame
    /// from `*pc` while the gate holds for the next segment (see
    /// [`Self::drive`]). Returns `None` with `*pc` at the segment whose
    /// gate failed, or `Exit::Call`/`Exit::Ret` with `*pc` at the call or
    /// return that ended the last segment. A passing gate adds the
    /// segment's `n_ops` and `n_defs` to the counters up front, so no op
    /// counts itself; a trap inside the segment hands its position to
    /// [`Self::turbo_trap`], which rebuilds the counters the exact tier
    /// would have left.
    ///
    /// Kept out of line so that its register allocation does not depend
    /// on `drive`'s. Inside `drive` and counting per op, the loop's
    /// release build reloaded the register-file pointer from `drive`'s
    /// stack frame on every op and kept `value_dynamic` in memory; here
    /// the register-file and bytecode pointers and the pc stay in
    /// registers. An `#[inline(always)]` build of this loop keeps them in
    /// registers too and timed the same within noise (perfbench `ship`,
    /// 6 pairs of 5 s runs, median ratio 0.99): the attribute guards the
    /// loop against `drive`'s growth rather than closing a gap measured
    /// today.
    #[inline(never)]
    fn turbo(
        &mut self,
        cf: &CompiledFunc,
        pcb: usize,
        regs: &mut [u64],
        pc_out: &mut usize,
        move_buf: &mut Vec<u64>,
    ) -> Result<Option<Exit>, Stop> {
        let code = &cf.code[..];
        let gate_vd = self.inj_vd.min(self.next_vd);
        let max_dyn = self.limits.max_dynamic;
        let mut dynamic = self.profile.dynamic;
        let mut vd = self.profile.value_dynamic;
        let mut pc = *pc_out;
        let exit = 'segs: loop {
            debug_assert!(pc < cf.seg.len(), "pc out of bounds");
            // SAFETY: `seg` has one entry per op, and `pc` is a valid op
            // index: it starts at the frame's pc (an entry, a `pc_of`
            // resume point or the op after a call) and moves only to an
            // edge target, all checked by `lower::validate`, or to a
            // later op of its own block, which ends in a control op.
            let s = unsafe { *cf.seg.get_unchecked(pc) };
            if vd + s.n_defs as u64 >= gate_vd || dynamic + s.n_ops as u64 > max_dyn {
                break None;
            }
            dynamic += s.n_ops as u64;
            vd += s.n_defs as u64;
            let start = pc;
            // A trap at `pc` after `$began` of the segment's instructions
            // began, the trapping one included.
            macro_rules! trap {
                ($e:expr, $began:expr) => {
                    return Err(self.turbo_trap(cf, start, dynamic, vd, $began, $e))
                };
            }
            loop {
                debug_assert!(pc < code.len(), "pc out of bounds");
                // SAFETY: `pc` is a valid op index, as above.
                match unsafe { code.get_unchecked(pc) } {
                    Bc::Bin { op, ty, dst, a, b } => {
                        match exec_bin(*op, *ty, rd(regs, *a), rd(regs, *b)) {
                            Ok(r) => wr(regs, *dst, r),
                            Err(e) => trap!(e, pc - start + 1),
                        }
                        pc += 1;
                    }
                    Bc::IAdd { dst, a, b } => {
                        let r = (rd(regs, *a) as i64).wrapping_add(rd(regs, *b) as i64);
                        wr(regs, *dst, r as u64);
                        pc += 1;
                    }
                    Bc::ISub { dst, a, b } => {
                        let r = (rd(regs, *a) as i64).wrapping_sub(rd(regs, *b) as i64);
                        wr(regs, *dst, r as u64);
                        pc += 1;
                    }
                    Bc::IMul { dst, a, b } => {
                        let r = (rd(regs, *a) as i64).wrapping_mul(rd(regs, *b) as i64);
                        wr(regs, *dst, r as u64);
                        pc += 1;
                    }
                    Bc::And { dst, a, b } => {
                        wr(regs, *dst, rd(regs, *a) & rd(regs, *b));
                        pc += 1;
                    }
                    Bc::FAdd { dst, a, b } => {
                        let r = f64::from_bits(rd(regs, *a)) + f64::from_bits(rd(regs, *b));
                        wr(regs, *dst, r.to_bits());
                        pc += 1;
                    }
                    Bc::FSub { dst, a, b } => {
                        let r = f64::from_bits(rd(regs, *a)) - f64::from_bits(rd(regs, *b));
                        wr(regs, *dst, r.to_bits());
                        pc += 1;
                    }
                    Bc::FMul { dst, a, b } => {
                        let r = f64::from_bits(rd(regs, *a)) * f64::from_bits(rd(regs, *b));
                        wr(regs, *dst, r.to_bits());
                        pc += 1;
                    }
                    Bc::FDiv { dst, a, b } => {
                        let r = f64::from_bits(rd(regs, *a)) / f64::from_bits(rd(regs, *b));
                        wr(regs, *dst, r.to_bits());
                        pc += 1;
                    }
                    Bc::FMulAdd { t, a, b, dst, x, y } => {
                        let m = f64::from_bits(rd(regs, *a)) * f64::from_bits(rd(regs, *b));
                        wr(regs, *t, m.to_bits());
                        let sum = f64::from_bits(rd(regs, *x)) + f64::from_bits(rd(regs, *y));
                        wr(regs, *dst, sum.to_bits());
                        pc += 2;
                    }
                    Bc::Un { op, ty, dst, a } => {
                        wr(regs, *dst, exec_un(*op, *ty, rd(regs, *a)));
                        pc += 1;
                    }
                    Bc::Icmp { pred, dst, a, b } => {
                        wr(regs, *dst, icmp(*pred, rd(regs, *a), rd(regs, *b)));
                        pc += 1;
                    }
                    Bc::Fcmp { pred, dst, a, b } => {
                        wr(regs, *dst, fcmp(*pred, rd(regs, *a), rd(regs, *b)));
                        pc += 1;
                    }
                    Bc::Select { dst, cond, t, f } => {
                        let r = if rd(regs, *cond) & 1 != 0 {
                            rd(regs, *t)
                        } else {
                            rd(regs, *f)
                        };
                        wr(regs, *dst, r);
                        pc += 1;
                    }
                    Bc::Cast {
                        kind,
                        from,
                        to,
                        dst,
                        a,
                    } => {
                        wr(regs, *dst, exec_cast(*kind, *from, *to, rd(regs, *a)));
                        pc += 1;
                    }
                    Bc::Load { ty, dst, addr } => {
                        match self.mem_read(rd(regs, *addr)) {
                            Ok(w) => wr(regs, *dst, canon(*ty, w)),
                            Err(e) => trap!(e, pc - start + 1),
                        }
                        pc += 1;
                    }
                    Bc::Store { addr, val } => {
                        if let Err(e) = self.mem_write(rd(regs, *addr), rd(regs, *val)) {
                            trap!(e, pc - start + 1);
                        }
                        pc += 1;
                    }
                    Bc::Gep { dst, base, index } => {
                        wr(regs, *dst, rd(regs, *base).wrapping_add(rd(regs, *index)));
                        pc += 1;
                    }
                    Bc::Alloca { dst, words } => {
                        match self.alloca(rd(regs, *words)) {
                            Ok(r) => wr(regs, *dst, r),
                            Err(e) => trap!(e, pc - start + 1),
                        }
                        pc += 1;
                    }
                    Bc::Output { val } => {
                        self.output.push(rd(regs, *val));
                        pc += 1;
                    }
                    Bc::GepLoad {
                        ty,
                        gep_dst,
                        base,
                        index,
                        dst,
                    } => {
                        let p = rd(regs, *base).wrapping_add(rd(regs, *index));
                        wr(regs, *gep_dst, p);
                        match self.mem_read(p) {
                            Ok(w) => wr(regs, *dst, canon(*ty, w)),
                            Err(e) => trap!(e, pc - start + 2),
                        }
                        pc += 2;
                    }
                    Bc::GepStore {
                        gep_dst,
                        base,
                        index,
                        val,
                    } => {
                        let p = rd(regs, *base).wrapping_add(rd(regs, *index));
                        wr(regs, *gep_dst, p);
                        if let Err(e) = self.mem_write(p, rd(regs, *val)) {
                            trap!(e, pc - start + 2);
                        }
                        pc += 2;
                    }
                    Bc::CmpBrI {
                        pred,
                        dst,
                        a,
                        b,
                        edge,
                    } => {
                        let r = icmp(*pred, rd(regs, *a), rd(regs, *b));
                        wr(regs, *dst, r);
                        self.seg_hits[pcb + start] += 1;
                        let e = if r != 0 { *edge } else { *edge + 1 };
                        pc = take_edge(cf, e, regs, move_buf) as usize;
                        break;
                    }
                    Bc::CmpBrF {
                        pred,
                        dst,
                        a,
                        b,
                        edge,
                    } => {
                        let r = fcmp(*pred, rd(regs, *a), rd(regs, *b));
                        wr(regs, *dst, r);
                        self.seg_hits[pcb + start] += 1;
                        let e = if r != 0 { *edge } else { *edge + 1 };
                        pc = take_edge(cf, e, regs, move_buf) as usize;
                        break;
                    }
                    Bc::Br { edge } => {
                        self.seg_hits[pcb + start] += 1;
                        pc = take_edge(cf, *edge, regs, move_buf) as usize;
                        break;
                    }
                    Bc::CondBr { cond, edge } => {
                        self.seg_hits[pcb + start] += 1;
                        let e = if rd(regs, *cond) & 1 != 0 {
                            *edge
                        } else {
                            *edge + 1
                        };
                        pc = take_edge(cf, e, regs, move_buf) as usize;
                        break;
                    }
                    Bc::Call { .. } => {
                        self.seg_hits[pcb + start] += 1;
                        break 'segs Some(Exit::Call);
                    }
                    Bc::Ret { .. } => {
                        self.seg_hits[pcb + start] += 1;
                        break 'segs Some(Exit::Ret);
                    }
                }
            }
        };
        self.profile.dynamic = dynamic;
        self.profile.value_dynamic = vd;
        *pc_out = pc;
        Ok(exit)
    }

    /// The counters a trap leaves inside the turbo segment from `start`,
    /// whose gate already added its `n_ops` and `n_defs` to `dynamic` and
    /// `vd`: the first `began` instructions began (`pc - start + 1`, or
    /// `+ 2` when a fused op's second component traps), and the defs
    /// among all but the last of them finished. `exec_counts` gets the
    /// `began` credits the exact tier would have made.
    #[cold]
    #[inline(never)]
    fn turbo_trap(
        &mut self,
        cf: &CompiledFunc,
        start: usize,
        dynamic: u64,
        vd: u64,
        began: usize,
        stop: Stop,
    ) -> Stop {
        let s = cf.seg[start];
        let finished = cf
            .seg_pcs(start)
            .take(began - 1)
            .filter(|&pc| defines(&cf.code[pc]))
            .count();
        self.profile.dynamic = dynamic - s.n_ops as u64 + began as u64;
        self.profile.value_dynamic = vd - s.n_defs as u64 + finished as u64;
        self.credit_partial(cf, start, began as u64);
        stop
    }

    /// Runs the machine to the end of the run: the outer loop owns
    /// frame pushes/pops, calls, returns and the boundary gate; the
    /// inner loop threads through one frame's bytecode.
    ///
    /// The inner loop is two-tier. The **turbo** tier,
    /// [`Self::turbo`], runs whole straight-line segments with batched
    /// bookkeeping whenever a one-time gate proves nothing observable
    /// can happen inside the segment: no static-instance injection is
    /// pending, the hang budget cannot expire
    /// (`dynamic + n_ops <= max_dynamic`), and no def in the segment
    /// can reach the pending injection index or the next snapshot
    /// boundary (`value_dynamic + n_defs < min(inj_vd, next_vd)`).
    /// Under that proof the per-instruction counters collapse to one
    /// addition of the segment's `n_ops` and `n_defs` (written back at
    /// every exit) and `exec_counts` collapses to one segment-hit
    /// increment, expanded exactly at run end by
    /// [`Self::fold_seg_hits`]. A trap mid-segment reconstructs the
    /// exact partial counters the per-instruction path would have left
    /// ([`Self::turbo_trap`]). Whenever the gate fails, the **exact**
    /// tier runs one interpreter instruction with full `begin`/`finish`
    /// bookkeeping, checks the boundary gate, and retries the turbo
    /// gate at the next pc. It never runs a fused pair: a fused head
    /// runs as its first component and steps to its stub at `pc + 1`.
    /// Both tiers produce bit-identical observables; the split is pure
    /// wall-clock.
    fn drive(&mut self, frames: &mut Vec<CFrame>, arena: &mut Vec<u64>) -> Result<RunEnd, Stop> {
        let module = self.module;
        let code = self.code;
        let mut move_buf: Vec<u64> = Vec::new();
        let mut arg_buf: Vec<u64> = Vec::new();
        'outer: loop {
            if self.profile.value_dynamic >= self.next_vd {
                if let Some(end) = self.boundary(frames, arena) {
                    return Ok(end);
                }
            }
            let fidx = frames.len() - 1;
            let exit = {
                let frame = &mut frames[fidx];
                let fid = frame.fid;
                let cf = &code.funcs[fid.0 as usize];
                let pcb = code.pc_base[fid.0 as usize] as usize;
                let base = frame.base as usize;
                let frame_pc = &mut frame.pc;
                let regs = &mut arena[base..];
                let mut pc = *frame_pc as usize;
                'inner: loop {
                    if !self.static_pending {
                        if let Some(exit) = self.turbo(cf, pcb, regs, &mut pc, &mut move_buf)? {
                            *frame_pc = pc as u32;
                            break 'inner exit;
                        }
                    }
                    // ---- exact tier ----
                    // One interpreter instruction per step. A fused head
                    // runs only its first component, through the arm of
                    // its plain op, and steps to its unfused stub at
                    // `pc + 1`.
                    debug_assert!(pc < cf.code.len(), "pc out of bounds");
                    let bc = unsafe { *cf.code.get_unchecked(pc) };
                    match bc {
                        Bc::Bin { op, ty, dst, a, b } => {
                            self.begin(cf, pc)?;
                            let r = exec_bin(op, ty, rd(regs, a), rd(regs, b))?;
                            self.finish(fid, cf, pc, dst, r, regs);
                        }
                        Bc::Un { op, ty, dst, a } => {
                            self.begin(cf, pc)?;
                            let r = exec_un(op, ty, rd(regs, a));
                            self.finish(fid, cf, pc, dst, r, regs);
                        }
                        Bc::Icmp { pred, dst, a, b }
                        | Bc::CmpBrI {
                            pred, dst, a, b, ..
                        } => {
                            self.begin(cf, pc)?;
                            let r = icmp(pred, rd(regs, a), rd(regs, b));
                            self.finish(fid, cf, pc, dst, r, regs);
                        }
                        Bc::Fcmp { pred, dst, a, b }
                        | Bc::CmpBrF {
                            pred, dst, a, b, ..
                        } => {
                            self.begin(cf, pc)?;
                            let r = fcmp(pred, rd(regs, a), rd(regs, b));
                            self.finish(fid, cf, pc, dst, r, regs);
                        }
                        Bc::Select { dst, cond, t, f } => {
                            self.begin(cf, pc)?;
                            let c = rd(regs, cond) & 1;
                            let r = if c != 0 { rd(regs, t) } else { rd(regs, f) };
                            self.finish(fid, cf, pc, dst, r, regs);
                        }
                        Bc::Cast {
                            kind,
                            from,
                            to,
                            dst,
                            a,
                        } => {
                            self.begin(cf, pc)?;
                            let r = exec_cast(kind, from, to, rd(regs, a));
                            self.finish(fid, cf, pc, dst, r, regs);
                        }
                        Bc::Load { ty, dst, addr } => {
                            self.begin(cf, pc)?;
                            let p = rd(regs, addr);
                            let word = self.mem_read(p)?;
                            self.finish(fid, cf, pc, dst, canon(ty, word), regs);
                        }
                        Bc::Store { addr, val } => {
                            self.begin(cf, pc)?;
                            let p = rd(regs, addr);
                            let v = rd(regs, val);
                            self.mem_write(p, v)?;
                        }
                        Bc::Gep { dst, base, index }
                        | Bc::GepLoad {
                            gep_dst: dst,
                            base,
                            index,
                            ..
                        }
                        | Bc::GepStore {
                            gep_dst: dst,
                            base,
                            index,
                            ..
                        } => {
                            self.begin(cf, pc)?;
                            let r = rd(regs, base).wrapping_add(rd(regs, index));
                            self.finish(fid, cf, pc, dst, r, regs);
                        }
                        Bc::Alloca { dst, words } => {
                            self.begin(cf, pc)?;
                            let r = self.alloca(rd(regs, words))?;
                            self.finish(fid, cf, pc, dst, r, regs);
                        }
                        Bc::Output { val } => {
                            self.begin(cf, pc)?;
                            let v = rd(regs, val);
                            self.output.push(v);
                        }
                        Bc::IAdd { dst, a, b } => {
                            self.begin(cf, pc)?;
                            let r = (rd(regs, a) as i64).wrapping_add(rd(regs, b) as i64) as u64;
                            self.finish(fid, cf, pc, dst, r, regs);
                        }
                        Bc::ISub { dst, a, b } => {
                            self.begin(cf, pc)?;
                            let r = (rd(regs, a) as i64).wrapping_sub(rd(regs, b) as i64) as u64;
                            self.finish(fid, cf, pc, dst, r, regs);
                        }
                        Bc::IMul { dst, a, b } => {
                            self.begin(cf, pc)?;
                            let r = (rd(regs, a) as i64).wrapping_mul(rd(regs, b) as i64) as u64;
                            self.finish(fid, cf, pc, dst, r, regs);
                        }
                        Bc::FAdd { dst, a, b } => {
                            self.begin(cf, pc)?;
                            let r = (f64::from_bits(rd(regs, a)) + f64::from_bits(rd(regs, b)))
                                .to_bits();
                            self.finish(fid, cf, pc, dst, r, regs);
                        }
                        Bc::FSub { dst, a, b } => {
                            self.begin(cf, pc)?;
                            let r = (f64::from_bits(rd(regs, a)) - f64::from_bits(rd(regs, b)))
                                .to_bits();
                            self.finish(fid, cf, pc, dst, r, regs);
                        }
                        Bc::FMul { dst, a, b } | Bc::FMulAdd { t: dst, a, b, .. } => {
                            self.begin(cf, pc)?;
                            let r = (f64::from_bits(rd(regs, a)) * f64::from_bits(rd(regs, b)))
                                .to_bits();
                            self.finish(fid, cf, pc, dst, r, regs);
                        }
                        Bc::FDiv { dst, a, b } => {
                            self.begin(cf, pc)?;
                            let r = (f64::from_bits(rd(regs, a)) / f64::from_bits(rd(regs, b)))
                                .to_bits();
                            self.finish(fid, cf, pc, dst, r, regs);
                        }
                        Bc::And { dst, a, b } => {
                            self.begin(cf, pc)?;
                            let r = rd(regs, a) & rd(regs, b);
                            self.finish(fid, cf, pc, dst, r, regs);
                        }
                        Bc::Call { .. } => {
                            *frame_pc = pc as u32;
                            break 'inner Exit::Call;
                        }
                        Bc::Ret { .. } => {
                            *frame_pc = pc as u32;
                            break 'inner Exit::Ret;
                        }
                        Bc::Br { edge } => {
                            pc = take_edge(cf, edge, regs, &mut move_buf) as usize;
                            continue 'inner;
                        }
                        Bc::CondBr { cond, edge } => {
                            let c = rd(regs, cond) & 1;
                            let e = if c != 0 { edge } else { edge + 1 };
                            pc = take_edge(cf, e, regs, &mut move_buf) as usize;
                            continue 'inner;
                        }
                    }
                    pc += 1;
                    if self.profile.value_dynamic >= self.next_vd {
                        *frame_pc = pc as u32;
                        break 'inner Exit::Boundary;
                    }
                }
            };
            match exit {
                Exit::Boundary => continue 'outer,
                Exit::Call => {
                    let frame = frames.last_mut().expect("call with no frame");
                    let fid = frame.fid;
                    let cf = &code.funcs[fid.0 as usize];
                    let pc = frame.pc as usize;
                    let base = frame.base as usize;
                    let (callee, args_start) = match cf.code[pc] {
                        Bc::Call { callee, args, .. } => (callee, args as usize),
                        _ => unreachable!("Exit::Call at a non-call pc"),
                    };
                    self.begin(cf, pc)?;
                    let nargs = module.func(callee).params.len();
                    arg_buf.clear();
                    arg_buf.extend(
                        cf.call_args[args_start..args_start + nargs]
                            .iter()
                            .map(|&r| rd(&arena[base..], r)),
                    );
                    self.push_cframe(frames, arena, callee, &arg_buf)?;
                    continue 'outer;
                }
                Exit::Ret => {
                    let frame = frames.last().expect("ret with no frame");
                    let fid = frame.fid;
                    let cf = &code.funcs[fid.0 as usize];
                    let pc = frame.pc as usize;
                    let val_reg = match cf.code[pc] {
                        Bc::Ret { val } => val,
                        _ => unreachable!("Exit::Ret at a non-ret pc"),
                    };
                    let v = if val_reg == NO_REG {
                        None
                    } else {
                        Some(rd(&arena[frame.base as usize..], val_reg))
                    };
                    let frame_sp = frame.frame_sp;
                    let freed = frame_sp as usize..self.stack_ptr as usize;
                    if !freed.is_empty() {
                        let len = (freed.end - freed.start) as u64;
                        self.memory.clear(freed.start, freed.end);
                        if LOG {
                            self.log.events.push(AccessEv::Zero {
                                base: frame_sp as u32,
                                len: len as u32,
                            });
                        }
                    }
                    self.stack_ptr = frame_sp;
                    let popped = frames.pop().expect("ret with no frame");
                    arena.truncate(popped.base as usize);
                    match frames.last_mut() {
                        None => return Ok(RunEnd::Done(v)),
                        Some(caller) => {
                            let ccf = &code.funcs[caller.fid.0 as usize];
                            let cpc = caller.pc as usize;
                            let dst = match ccf.code[cpc] {
                                Bc::Call { dst, .. } => dst,
                                _ => unreachable!("caller pc not at its call"),
                            };
                            if dst != NO_REG {
                                let cfid = caller.fid;
                                let bits = v.expect("value call returned nothing");
                                let cbase = caller.base as usize;
                                self.finish(cfid, ccf, cpc, dst, bits, &mut arena[cbase..]);
                            }
                            caller.pc += 1;
                        }
                    }
                    continue 'outer;
                }
            }
        }
    }

    /// Alloca with the interpreter's exact trap/high-water semantics.
    fn alloca(&mut self, words: u64) -> Result<u64, Stop> {
        let base = self.stack_ptr;
        let end = self.memory.alloca(base, words)?;
        if LOG {
            self.log.events.push(AccessEv::Zero {
                base: base as u32,
                len: (end - base) as u32,
            });
        }
        self.stack_ptr = end;
        Ok(base)
    }
}

/// Applies a branch edge's block-argument moves and returns the target
/// pc. Safe edges copy in place; unsafe ones buffer sources first —
/// both orders equal the interpreter's two-phase `arg_buf` copy (see
/// [`crate::lower::Edge::in_place`]).
#[inline(always)]
fn take_edge(cf: &CompiledFunc, e: u32, regs: &mut [u64], buf: &mut Vec<u64>) -> u32 {
    let ed = cf.edges[e as usize];
    let mv = &cf.moves[ed.moves_start as usize..(ed.moves_start + ed.moves_len) as usize];
    if ed.in_place {
        for &(d, s) in mv {
            let v = rd(regs, s);
            wr(regs, d, v);
        }
    } else {
        buf.clear();
        buf.extend(mv.iter().map(|&(_, s)| rd(regs, s)));
        for (&(d, _), &v) in mv.iter().zip(buf.iter()) {
            wr(regs, d, v);
        }
    }
    ed.target_pc
}

/// The compiled engine's public face: same constructor shape and entry
/// points as [`crate::Vm`], dispatching over a pre-lowered
/// [`CompiledModule`]. Every uninstrumented run runs here — full runs,
/// snapshot capture (with future read sets), snapshot resume and
/// convergence trials; the interpreter is the reference it is compared
/// against and the one engine that runs an [`crate::ExecHook`].
pub struct CompiledVm<'m> {
    module: &'m Module,
    code: &'m CompiledModule,
    limits: ExecLimits,
}

/// What a run from entry leaves besides its [`RunOutput`]: the snapshots
/// a capture froze and its memory-access trace.
struct Captured {
    snaps: Vec<VmSnapshot>,
    log: AccessLog,
}

impl<'m> CompiledVm<'m> {
    /// `code` must be the result of [`CompiledModule::lower`] on this
    /// exact `module`.
    pub fn new(module: &'m Module, code: &'m CompiledModule, limits: ExecLimits) -> CompiledVm<'m> {
        assert_eq!(
            module.functions.len(),
            code.funcs.len(),
            "compiled code does not match the module"
        );
        CompiledVm {
            module,
            code,
            limits,
        }
    }

    pub fn run(&self, input_bits: &[u64], injection: Option<Injection>) -> RunOutput {
        self.run_impl::<false>(input_bits, injection, None, &[]).0
    }

    /// Golden/trial run from numeric inputs, as [`crate::Vm::run_numeric`].
    pub fn run_numeric(&self, inputs: &[f64], injection: Option<Injection>) -> RunOutput {
        let bits = crate::inputs::encode_inputs(self.module.entry_func(), inputs);
        self.run(&bits, injection)
    }

    /// Full run that starts from `scratch`'s buffer, reused across
    /// trials: a restore clears it and copies the prelowered globals
    /// image in, with no allocation once the buffer has grown.
    pub fn run_amortized(
        &self,
        scratch: &mut ResumeScratch,
        input_bits: &[u64],
        injection: Option<Injection>,
    ) -> RunOutput {
        self.run_impl::<false>(input_bits, injection, Some(scratch), &[])
            .0
    }

    /// Fault-free run that captures a [`VmSnapshot`] at each fork point
    /// in `points` (sorted, distinct `value_dynamic` coordinates), as
    /// [`crate::Vm::run_with_snapshots`] does and equal to its
    /// snapshots. Fork points stop the turbo tier through the boundary
    /// gate, as convergence checkpoints do; between them the run goes
    /// at full speed.
    pub fn run_with_snapshots(
        &self,
        input_bits: &[u64],
        points: &[u64],
    ) -> (RunOutput, Vec<VmSnapshot>) {
        let (out, cap) = self.run_impl::<false>(input_bits, None, None, points);
        (out, cap.snaps)
    }

    /// [`run_with_snapshots`](Self::run_with_snapshots) that also traces
    /// every load, store and zero-fill, in both tiers, and derives each
    /// checkpoint's future read set, as
    /// [`crate::Vm::run_with_snapshots_read_sets`] does.
    pub fn run_with_snapshots_read_sets(
        &self,
        input_bits: &[u64],
        points: &[u64],
    ) -> (RunOutput, Vec<VmSnapshot>, ReadSets) {
        assert!(
            self.limits.memory_words <= u32::MAX as usize,
            "access tracing addresses memory with u32 word indices"
        );
        let (out, cap) = self.run_impl::<true>(input_bits, None, None, points);
        (out, cap.snaps, ReadSets::from_log(&cap.log))
    }

    fn run_impl<const LOG: bool>(
        &self,
        input_bits: &[u64],
        injection: Option<Injection>,
        mut scratch: Option<&mut ResumeScratch>,
        points: &[u64],
    ) -> (RunOutput, Captured) {
        let entry = self.module.entry_func();
        assert_eq!(input_bits.len(), entry.params.len(), "entry arity mismatch");
        let (globals, limit) = (&self.code.globals_image, self.limits.memory_words);
        let memory = match scratch.as_deref_mut() {
            Some(s) => s.image(globals, limit),
            None => Image::new(globals.clone(), limit),
        };
        let mut m = self.machine::<LOG>(memory, injection);
        m.stack_ptr = self.module.globals_words();
        if !points.is_empty() {
            debug_assert!(
                points.windows(2).all(|w| w[0] < w[1]),
                "fork points must be sorted and distinct"
            );
            m.next_vd = points[0];
            m.ctl = Ctl::Capture {
                points,
                next: 0,
                out: Vec::with_capacity(points.len()),
            };
        }
        let args: Vec<u64> = input_bits
            .iter()
            .zip(&entry.params)
            .map(|(&b, &t)| canon(t, b))
            .collect();
        let mut frames: Vec<CFrame> = Vec::new();
        let mut arena: Vec<u64> = Vec::new();
        let end = m
            .push_cframe(&mut frames, &mut arena, self.module.entry, &args)
            .and_then(|()| m.drive(&mut frames, &mut arena));
        m.fold_seg_hits();
        if let Some(s) = scratch {
            s.put_back(m.memory);
        }
        let (status, ret) = match end {
            Ok(RunEnd::Done(v)) => (RunStatus::Ok, v),
            Ok(RunEnd::Converged { .. }) => unreachable!("full runs carry no checkpoints"),
            Err(Stop::Trap(t)) => (RunStatus::Trap(t), None),
            Err(Stop::Hang) => (RunStatus::Hang, None),
        };
        let snaps = match m.ctl {
            Ctl::Capture { out, .. } => out,
            _ => Vec::new(),
        };
        let out = RunOutput {
            status,
            output: m.output,
            ret,
            profile: m.profile,
            fault_activated: m.fault_activated,
            memory: None,
        };
        (out, Captured { snaps, log: m.log })
    }

    pub fn resume_from(&self, snap: &VmSnapshot, injection: Option<Injection>) -> RunOutput {
        match self.resume_impl(snap, injection, &[], None, None, None) {
            TrialResume::Completed(out) => out,
            TrialResume::Converged { .. } => unreachable!("no checkpoints supplied"),
        }
    }

    /// [`crate::Vm::resume_trial`] starting from `scratch`'s buffer,
    /// reused across trials as [`run_amortized`](Self::run_amortized)
    /// does.
    #[allow(clippy::too_many_arguments)]
    pub fn resume_trial_amortized(
        &self,
        scratch: &mut ResumeScratch,
        snap: &VmSnapshot,
        injection: Option<Injection>,
        checkpoints: &[VmSnapshot],
        masks: Option<&ConvergeMasks>,
        read_sets: Option<&ReadSets>,
    ) -> TrialResume {
        self.resume_impl(
            snap,
            injection,
            checkpoints,
            masks,
            read_sets,
            Some(scratch),
        )
    }

    fn resume_impl<'a>(
        &'a self,
        snap: &VmSnapshot,
        injection: Option<Injection>,
        checkpoints: &'a [VmSnapshot],
        masks: Option<&'a ConvergeMasks>,
        read_sets: Option<&'a ReadSets>,
        mut scratch: Option<&mut ResumeScratch>,
    ) -> TrialResume {
        let d = snap.data();
        assert_eq!(
            d.memory_words, self.limits.memory_words,
            "snapshot captured under a different memory size"
        );
        let memory = match scratch.as_deref_mut() {
            Some(s) => s.image(&d.mem, self.limits.memory_words),
            None => Image::new(d.mem.clone(), self.limits.memory_words),
        };
        let mut m = self.machine::<false>(memory, injection);
        m.stack_ptr = d.stack_ptr;
        m.profile = Profile {
            exec_counts: d.exec_counts.clone(),
            dynamic: d.dynamic,
            value_dynamic: d.value_dynamic,
        };
        m.output = d.output.clone();
        if let Some(first) = checkpoints.first() {
            m.next_vd = first.data().value_dynamic;
            m.ctl = Ctl::Converge {
                checkpoints,
                next: 0,
                masks,
                read_sets,
            };
        }
        // Interpreter frames map onto pcs through `pc_of`; the register
        // file is widened with the function's constant pool.
        let mut frames: Vec<CFrame> = Vec::with_capacity(d.frames.len());
        let mut arena: Vec<u64> = Vec::new();
        for f in &d.frames {
            let cf = &self.code.funcs[f.fid.0 as usize];
            let base = arena.len();
            arena.extend_from_slice(&cf.frame_image);
            arena[base..base + f.regs.len()].copy_from_slice(&f.regs);
            frames.push(CFrame {
                fid: f.fid,
                base: base as u32,
                pc: cf.pc_of[f.block as usize][f.instr as usize],
                frame_sp: f.frame_sp,
            });
        }
        let end = m.drive(&mut frames, &mut arena);
        m.fold_seg_hits();
        if let Some(s) = scratch {
            s.put_back(m.memory);
        }
        match end {
            Ok(RunEnd::Done(v)) => TrialResume::Completed(RunOutput {
                status: RunStatus::Ok,
                output: m.output,
                ret: v,
                profile: m.profile,
                fault_activated: m.fault_activated,
                memory: None,
            }),
            Ok(RunEnd::Converged {
                at_value_dynamic,
                checkpoint_dynamic,
                dynamic_at_exit,
                output_matches,
            }) => TrialResume::Converged {
                at_value_dynamic,
                checkpoint_dynamic,
                dynamic_at_exit,
                output_matches,
            },
            Err(stop) => TrialResume::Completed(RunOutput {
                status: match stop {
                    Stop::Trap(t) => RunStatus::Trap(t),
                    Stop::Hang => RunStatus::Hang,
                },
                output: m.output,
                ret: None,
                profile: m.profile,
                fault_activated: m.fault_activated,
                memory: None,
            }),
        }
    }

    fn machine<const LOG: bool>(
        &self,
        memory: Image,
        injection: Option<Injection>,
    ) -> CMachine<'_, LOG> {
        let inj_vd = match injection {
            Some(Injection {
                target: InjectionTarget::DynamicIndex(k),
                ..
            }) => k.saturating_add(1),
            _ => u64::MAX,
        };
        let static_pending = matches!(
            injection,
            Some(Injection {
                target: InjectionTarget::StaticInstance { .. },
                ..
            })
        );
        CMachine {
            module: self.module,
            code: self.code,
            limits: self.limits,
            memory,
            stack_ptr: 0,
            profile: Profile::new(self.module.num_instrs),
            output: Vec::new(),
            injection,
            inj_vd,
            static_pending,
            fault_activated: false,
            ctl: Ctl::Off,
            next_vd: u64::MAX,
            seg_hits: vec![0u64; self.code.total_pcs],
            log: AccessLog::default(),
        }
    }
}
