//! The PIR interpreter.
//!
//! Register representation: every value is held as a canonical 64-bit
//! pattern — `i64`/`ptr` raw, `i32` sign-extended into 64 bits, `i1` as
//! 0/1, `f64` as its IEEE bits. Bit flips are applied within the value's
//! *typed* width and the result re-canonicalized, which matches LLFI
//! flipping a random bit of the destination register of the instruction's
//! width.
//!
//! The machine is an explicit frame-stack interpreter: calls push a
//! frame and returns pop it, with no recursion on the host stack.
//! That makes the complete execution state a plain value — the frame
//! vector plus the machine state — which is what lets
//! [`Vm::run_with_snapshots`] freeze it at any instruction boundary into
//! a [`VmSnapshot`] and [`Vm::resume_from`] thaw it later, bit-exactly.

use crate::hooks::{ExecHook, NoHook};
use crate::image::{globals_image, Image};
use crate::profile::Profile;
use crate::snapshot::{
    mask_contains, AccessEv, AccessLog, ConvergeMasks, FrameSnap, ReadSets, SnapData, TrialResume,
    VmSnapshot,
};
use peppa_ir::{
    BinOp, CastKind, FPred, FuncId, IPred, Instr, InstrId, Module, Op, Operand, Term, Ty, UnOp,
};

/// Execution traps — the "crash" failure category of the paper ("the
/// raising of a hardware trap or exception … the OS terminates the
/// program").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// Load or store outside the memory segment, or through null.
    OutOfBounds { addr: u64 },
    /// Integer division or remainder by zero.
    DivByZero,
    /// Stack allocation exhausted memory (or had a negative size).
    StackOverflow,
    /// Call depth exceeded the limit.
    CallDepth,
}

impl std::fmt::Display for Trap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Trap::OutOfBounds { addr } => write!(f, "out-of-bounds access at word {addr}"),
            Trap::DivByZero => write!(f, "integer division by zero"),
            Trap::StackOverflow => write!(f, "stack allocation overflow"),
            Trap::CallDepth => write!(f, "call depth limit exceeded"),
        }
    }
}

/// Terminal status of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Clean exit.
    Ok,
    /// Crashed with a trap.
    Trap(Trap),
    /// Exceeded the dynamic-instruction budget.
    Hang,
}

impl RunStatus {
    pub fn is_ok(self) -> bool {
        matches!(self, RunStatus::Ok)
    }
}

/// Which dynamic instruction to corrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionTarget {
    /// The `k`-th value-producing dynamic instruction of the whole run
    /// (0-based) — used when sampling faults uniformly over the execution.
    DynamicIndex(u64),
    /// The `instance`-th execution (0-based) of one static instruction —
    /// used for per-instruction SDC probability measurement.
    StaticInstance { sid: InstrId, instance: u64 },
}

/// A bit-flip fault specification.
///
/// The default fault model is a single bit flip (`burst == 0`), the
/// de-facto standard the paper adopts (§3.1.3). Setting `burst = k`
/// flips `k` *additional adjacent* bits — the multi-bit model used to
/// validate that single-bit campaigns do not understate SDC rates
/// (Sangchoolie et al., DSN'17, cited as \[47\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    pub target: InjectionTarget,
    /// Bit position; reduced modulo the target value's typed width.
    pub bit: u32,
    /// Additional adjacent bits to flip (0 = single-bit model).
    pub burst: u8,
}

impl Injection {
    /// Single-bit flip at `bit` of the targeted dynamic instruction.
    pub fn single(target: InjectionTarget, bit: u32) -> Injection {
        Injection {
            target,
            bit,
            burst: 0,
        }
    }
}

/// Resource limits for one run.
#[derive(Debug, Clone, Copy)]
pub struct ExecLimits {
    /// Dynamic (non-terminator) instruction budget; exceeding it reports
    /// [`RunStatus::Hang`].
    pub max_dynamic: u64,
    /// The address space, in 64-bit words (globals + stack): address 0
    /// and addresses at or past it trap, and an `alloca` ending past it
    /// overflows the stack. It is a limit, not an allocation: a run holds
    /// only the words it touches, and words it never wrote read zero.
    pub memory_words: usize,
    /// Maximum call depth.
    pub max_call_depth: usize,
}

impl Default for ExecLimits {
    fn default() -> Self {
        ExecLimits {
            max_dynamic: 200_000_000,
            memory_words: 1 << 21,
            max_call_depth: 128,
        }
    }
}

/// Result of one run.
#[derive(Debug, Clone)]
pub struct RunOutput {
    pub status: RunStatus,
    /// Words emitted by `output` instructions up to termination.
    pub output: Vec<u64>,
    /// Entry function's return value bits, if it returned one.
    pub ret: Option<u64>,
    pub profile: Profile,
    /// Whether the injection target was reached (the fault *activated*).
    pub fault_activated: bool,
    /// Final memory image, `memory_words` long, present only for
    /// [`Vm::run_capture`] and [`Vm::resume_capture`] — used by
    /// error-propagation tracing to diff faulty vs golden state.
    pub memory: Option<Vec<u64>>,
}

impl RunOutput {
    /// True when `self` silently corrupted data relative to `golden`:
    /// clean exit but different observable output (§2.2's SDC
    /// definition: "a mismatch between the outputs of a program's faulty
    /// execution and error-free execution").
    pub fn is_sdc_vs(&self, golden: &RunOutput) -> bool {
        self.status.is_ok() && (self.output != golden.output || self.ret != golden.ret)
    }
}

#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Stop {
    Trap(Trap),
    Hang,
}

/// How the driver loop ended (besides a trap or hang).
pub(crate) enum RunEnd {
    /// The entry function returned.
    Done(Option<u64>),
    /// Convergence early-exit: machine state matched a golden checkpoint.
    Converged {
        at_value_dynamic: u64,
        checkpoint_dynamic: u64,
        dynamic_at_exit: u64,
        output_matches: bool,
    },
}

/// Snapshot plumbing threaded through the driver loop. `Off` costs one
/// well-predicted branch per instruction boundary.
enum SnapCtl<'a> {
    Off,
    /// Capture a [`VmSnapshot`] at each `value_dynamic` in `points`
    /// (sorted, distinct).
    Capture {
        points: &'a [u64],
        next: usize,
        out: Vec<VmSnapshot>,
        /// Return slot for the memory-access trace: when `Some`, the
        /// run logs every load/store/zero-fill and marks each capture
        /// point, so the caller can derive per-checkpoint future read
        /// sets ([`ReadSets`]).
        log: Option<AccessLog>,
    },
    /// After the fault activates, compare machine state against each
    /// golden checkpoint when its `value_dynamic` is reached; exit early
    /// on a match (the continuation is then pinned to golden's).
    Converge {
        checkpoints: &'a [VmSnapshot],
        next: usize,
        /// Cached `value_dynamic` of `checkpoints[next]` (`u64::MAX`
        /// when exhausted), so the per-instruction boundary check is a
        /// single integer compare instead of an `Arc` dereference.
        next_vd: u64,
        /// Live-register masks widening the comparison (dead registers
        /// cannot affect the continuation and are ignored).
        masks: Option<&'a ConvergeMasks>,
        /// Golden future read sets widening the memory comparison:
        /// only words the golden continuation actually loads (before
        /// overwriting) can affect it, so everything else is ignored.
        read_sets: Option<&'a ReadSets>,
    },
}

/// The interpreter. Cheap to construct; holds no run state.
pub struct Vm<'m> {
    module: &'m Module,
    limits: ExecLimits,
}

/// Canonical 64-bit representation of a value of type `ty`: `i32` is
/// kept sign-extended, `i1` is 0/1, everything else is raw bits. Public
/// because the optimizer's constant folder must produce exactly the
/// representation the engines compute with.
#[inline]
pub fn canon(ty: Ty, bits: u64) -> u64 {
    match ty {
        Ty::I1 => bits & 1,
        Ty::I32 => (bits as u32 as i32 as i64) as u64,
        _ => bits,
    }
}

#[inline]
pub(crate) fn flip_bits(ty: Ty, bits: u64, bit: u32, burst: u8) -> u64 {
    let w = ty.bits();
    let mut mask = 0u64;
    for k in 0..=burst as u32 {
        mask |= 1u64 << ((bit + k) % w);
    }
    canon(ty, bits ^ mask)
}

/// One live activation record of the explicit frame stack.
struct Frame {
    fid: FuncId,
    regs: Vec<u64>,
    /// Current block index within the function.
    block: u32,
    /// Next instruction index within the block.
    instr: u32,
    /// Stack pointer to restore when this frame returns.
    frame_sp: u64,
    /// Timer for the *caller's* call instruction, when the hook asked to
    /// time it; ends when this frame returns.
    call_timer: Option<std::time::Instant>,
}

struct State<'m, H: ExecHook> {
    module: &'m Module,
    limits: ExecLimits,
    memory: Image,
    stack_ptr: u64,
    profile: Profile,
    output: Vec<u64>,
    injection: Option<Injection>,
    fault_activated: bool,
    /// When set (golden capture runs only), every memory access is
    /// traced so per-checkpoint future read sets can be derived.
    access_log: Option<AccessLog>,
    hook: H,
}

impl<'m> Vm<'m> {
    pub fn new(module: &'m Module, limits: ExecLimits) -> Vm<'m> {
        Vm { module, limits }
    }

    /// Runs the entry function on encoded input bits (see
    /// [`crate::encode_inputs`]), optionally injecting one fault.
    pub fn run(&self, input_bits: &[u64], injection: Option<Injection>) -> RunOutput {
        self.run_impl(input_bits, injection, false, NoHook, &mut SnapCtl::Off)
    }

    /// Like [`run`](Self::run), but the returned [`RunOutput::memory`]
    /// holds the final memory image (even on trap or budget exhaustion),
    /// enabling state diffing between runs. The image spans the whole
    /// address space, `memory_words` long, padded with the zeros the run
    /// never touched.
    pub fn run_capture(&self, input_bits: &[u64], injection: Option<Injection>) -> RunOutput {
        self.run_impl(input_bits, injection, true, NoHook, &mut SnapCtl::Off)
    }

    /// Like [`run`](Self::run), with an [`ExecHook`] observing each
    /// dynamic instruction (per-opcode profiling, sampled timing). The
    /// instruction loop is monomorphized over the hook type, so the
    /// hook-free paths above pay nothing for this entry point existing.
    pub fn run_with_hook<H: ExecHook>(
        &self,
        input_bits: &[u64],
        injection: Option<Injection>,
        hook: &mut H,
    ) -> RunOutput {
        self.run_impl(input_bits, injection, false, hook, &mut SnapCtl::Off)
    }

    /// Fault-free run that captures a [`VmSnapshot`] at each fork point
    /// in `points` (sorted, distinct `value_dynamic` coordinates). A
    /// point the run never reaches is skipped; the returned snapshots
    /// are in point order.
    pub fn run_with_snapshots(
        &self,
        input_bits: &[u64],
        points: &[u64],
    ) -> (RunOutput, Vec<VmSnapshot>) {
        debug_assert!(
            points.windows(2).all(|w| w[0] < w[1]),
            "fork points must be sorted and distinct"
        );
        let mut ctl = SnapCtl::Capture {
            points,
            next: 0,
            out: Vec::with_capacity(points.len()),
            log: None,
        };
        let out = self.run_impl(input_bits, None, false, NoHook, &mut ctl);
        let snaps = match ctl {
            SnapCtl::Capture { out, .. } => out,
            _ => unreachable!(),
        };
        (out, snaps)
    }

    /// [`run_with_snapshots`](Self::run_with_snapshots) that also traces
    /// the run's memory accesses and derives each checkpoint's *future
    /// read set* — the words the golden continuation loads after the
    /// checkpoint before overwriting them (see [`ReadSets`]). The sets
    /// let [`resume_trial`](Self::resume_trial)
    /// detect convergence on observable state rather than bit-identical
    /// memory.
    pub fn run_with_snapshots_read_sets(
        &self,
        input_bits: &[u64],
        points: &[u64],
    ) -> (RunOutput, Vec<VmSnapshot>, ReadSets) {
        debug_assert!(
            points.windows(2).all(|w| w[0] < w[1]),
            "fork points must be sorted and distinct"
        );
        assert!(
            self.limits.memory_words <= u32::MAX as usize,
            "access tracing addresses memory with u32 word indices"
        );
        let mut ctl = SnapCtl::Capture {
            points,
            next: 0,
            out: Vec::with_capacity(points.len()),
            log: Some(AccessLog::default()),
        };
        let out = self.run_impl(input_bits, None, false, NoHook, &mut ctl);
        let (snaps, log) = match ctl {
            SnapCtl::Capture { out, log, .. } => (out, log.expect("capture returns the log")),
            _ => unreachable!(),
        };
        (out, snaps, ReadSets::from_log(&log))
    }

    /// Resumes execution from `snap` to a normal end. With an injection
    /// whose site lies at or after the snapshot's
    /// [`value_dynamic`](VmSnapshot::value_dynamic), the result is
    /// bit-identical to a full run with the same injection.
    pub fn resume_from(&self, snap: &VmSnapshot, injection: Option<Injection>) -> RunOutput {
        match self.resume_impl(snap, injection, false, NoHook, &[], None, None) {
            TrialResume::Completed(out) => out,
            TrialResume::Converged { .. } => unreachable!("no checkpoints supplied"),
        }
    }

    /// Like [`resume_from`](Self::resume_from), capturing the final
    /// memory image, `memory_words` long, in [`RunOutput::memory`].
    pub fn resume_capture(&self, snap: &VmSnapshot, injection: Option<Injection>) -> RunOutput {
        match self.resume_impl(snap, injection, true, NoHook, &[], None, None) {
            TrialResume::Completed(out) => out,
            TrialResume::Converged { .. } => unreachable!("no checkpoints supplied"),
        }
    }

    /// Like [`resume_from`](Self::resume_from), with an [`ExecHook`]
    /// re-attached mid-stream. The hook only observes the suffix; shadow
    /// engines that mirror interpreter state (e.g.
    /// [`crate::TaintHook`]) must be initialized from the same snapshot
    /// (see [`crate::TaintHook::resumed`]).
    pub fn resume_from_with_hook<H: ExecHook>(
        &self,
        snap: &VmSnapshot,
        injection: Option<Injection>,
        hook: &mut H,
    ) -> RunOutput {
        match self.resume_impl(snap, injection, false, hook, &[], None, None) {
            TrialResume::Completed(out) => out,
            TrialResume::Converged { .. } => unreachable!("no checkpoints supplied"),
        }
    }

    /// Resumes from `snap` and, once the fault has activated, compares
    /// machine state against each later golden `checkpoint` as its fork
    /// point is reached. On a match the run stops early
    /// ([`TrialResume::Converged`]) — determinism pins the continuation
    /// to golden's, so the final outcome is already known. Optional
    /// static live-register masks ([`ConvergeMasks`]) and golden future
    /// read sets ([`ReadSets`]) widen the comparison to the state the
    /// continuation can observe: a masked register is never read before
    /// being overwritten, so its value cannot change the continuation.
    pub fn resume_trial(
        &self,
        snap: &VmSnapshot,
        injection: Option<Injection>,
        checkpoints: &[VmSnapshot],
        masks: Option<&ConvergeMasks>,
        read_sets: Option<&ReadSets>,
    ) -> TrialResume {
        self.resume_impl(
            snap,
            injection,
            false,
            NoHook,
            checkpoints,
            masks,
            read_sets,
        )
    }

    fn run_impl<H: ExecHook>(
        &self,
        input_bits: &[u64],
        injection: Option<Injection>,
        capture: bool,
        hook: H,
        ctl: &mut SnapCtl<'_>,
    ) -> RunOutput {
        let entry = self.module.entry_func();
        assert_eq!(input_bits.len(), entry.params.len(), "entry arity mismatch");

        let mut state = State {
            module: self.module,
            limits: self.limits,
            stack_ptr: self.module.globals_words(),
            memory: Image::new(globals_image(self.module), self.limits.memory_words),
            profile: Profile::new(self.module.num_instrs),
            output: Vec::new(),
            injection,
            fault_activated: false,
            access_log: match ctl {
                SnapCtl::Capture { log, .. } => log.take(),
                _ => None,
            },
            hook,
        };

        let args: Vec<u64> = input_bits
            .iter()
            .zip(&entry.params)
            .map(|(&b, &t)| canon(t, b))
            .collect();

        let mut frames: Vec<Frame> = Vec::new();
        let end = state
            .push_frame(&mut frames, self.module.entry, &args, None)
            .and_then(|()| state.drive(&mut frames, ctl));
        let (status, ret) = match end {
            Ok(RunEnd::Done(v)) => (RunStatus::Ok, v),
            Ok(RunEnd::Converged { .. }) => unreachable!("full runs carry no checkpoints"),
            Err(Stop::Trap(t)) => (RunStatus::Trap(t), None),
            Err(Stop::Hang) => (RunStatus::Hang, None),
        };
        if let SnapCtl::Capture { log, .. } = ctl {
            *log = state.access_log.take();
        }
        RunOutput {
            status,
            output: state.output,
            ret,
            profile: state.profile,
            fault_activated: state.fault_activated,
            memory: capture.then(|| state.memory.into_padded()),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn resume_impl<H: ExecHook>(
        &self,
        snap: &VmSnapshot,
        injection: Option<Injection>,
        capture: bool,
        hook: H,
        checkpoints: &[VmSnapshot],
        masks: Option<&ConvergeMasks>,
        read_sets: Option<&ReadSets>,
    ) -> TrialResume {
        let d = snap.data();
        assert_eq!(
            d.memory_words, self.limits.memory_words,
            "snapshot captured under a different memory size"
        );
        let mut state = State {
            module: self.module,
            limits: self.limits,
            memory: Image::new(d.mem.clone(), self.limits.memory_words),
            stack_ptr: d.stack_ptr,
            profile: Profile {
                exec_counts: d.exec_counts.clone(),
                dynamic: d.dynamic,
                value_dynamic: d.value_dynamic,
            },
            output: d.output.clone(),
            injection,
            fault_activated: false,
            access_log: None,
            hook,
        };
        let mut frames: Vec<Frame> = d
            .frames
            .iter()
            .map(|f| Frame {
                fid: f.fid,
                regs: f.regs.clone(),
                block: f.block,
                instr: f.instr,
                frame_sp: f.frame_sp,
                call_timer: None,
            })
            .collect();

        let mut ctl = if checkpoints.is_empty() {
            SnapCtl::Off
        } else {
            SnapCtl::Converge {
                checkpoints,
                next: 0,
                next_vd: checkpoints
                    .first()
                    .map_or(u64::MAX, |c| c.data().value_dynamic),
                masks,
                read_sets,
            }
        };
        let end = state.drive(&mut frames, &mut ctl);
        let completed = |state: State<'m, H>, status: RunStatus, ret: Option<u64>| {
            TrialResume::Completed(RunOutput {
                status,
                output: state.output,
                ret,
                profile: state.profile,
                fault_activated: state.fault_activated,
                memory: capture.then(|| state.memory.into_padded()),
            })
        };
        match end {
            Ok(RunEnd::Done(v)) => completed(state, RunStatus::Ok, v),
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
            Err(Stop::Trap(t)) => completed(state, RunStatus::Trap(t), None),
            Err(Stop::Hang) => completed(state, RunStatus::Hang, None),
        }
    }

    /// Convenience: golden (fault-free) run from numeric inputs.
    pub fn run_numeric(&self, inputs: &[f64], injection: Option<Injection>) -> RunOutput {
        let bits = crate::inputs::encode_inputs(self.module.entry_func(), inputs);
        self.run(&bits, injection)
    }
}

impl<'m, H: ExecHook> State<'m, H> {
    fn push_frame(
        &mut self,
        frames: &mut Vec<Frame>,
        fid: FuncId,
        args: &[u64],
        call_timer: Option<std::time::Instant>,
    ) -> Result<(), Stop> {
        if frames.len() >= self.limits.max_call_depth {
            return Err(Stop::Trap(Trap::CallDepth));
        }
        let func = self.module.func(fid);
        let mut regs = vec![0u64; func.value_types.len()];
        regs[..args.len()].copy_from_slice(args);
        frames.push(Frame {
            fid,
            regs,
            block: 0,
            instr: 0,
            frame_sp: self.stack_ptr,
            call_timer,
        });
        Ok(())
    }

    /// The driver loop: executes the top frame until the entry function
    /// returns, a trap/hang stops the run, or (in converge mode) the
    /// state matches a golden checkpoint. Every iteration starts at an
    /// instruction boundary — the only points snapshots see.
    fn drive(&mut self, frames: &mut Vec<Frame>, ctl: &mut SnapCtl<'_>) -> Result<RunEnd, Stop> {
        let module = self.module;
        let mut arg_buf: Vec<u64> = Vec::new();
        loop {
            // Cheap per-boundary gate: the heavy snapshot/convergence
            // bookkeeping only runs when the next interesting
            // `value_dynamic` coordinate has actually been reached.
            let boundary_due = match ctl {
                SnapCtl::Off => false,
                SnapCtl::Capture { points, next, .. } => {
                    *next < points.len() && self.profile.value_dynamic >= points[*next]
                }
                SnapCtl::Converge { next_vd, .. } => self.profile.value_dynamic >= *next_vd,
            };
            if boundary_due {
                if let Some(end) = self.snapshot_boundary(frames, ctl) {
                    return Ok(end);
                }
            }
            let frame = frames.last_mut().expect("drive on empty frame stack");
            let func = module.func(frame.fid);
            let block = &func.blocks[frame.block as usize];
            if (frame.instr as usize) < block.instrs.len() {
                let ins = &block.instrs[frame.instr as usize];
                self.profile.dynamic += 1;
                if self.profile.dynamic > self.limits.max_dynamic {
                    return Err(Stop::Hang);
                }
                self.profile.exec_counts[ins.sid.0 as usize] += 1;
                let timer = if H::ENABLED && self.hook.begin_instr(ins) {
                    Some(std::time::Instant::now())
                } else {
                    None
                };
                if let Op::Call { func: callee, args } = &ins.op {
                    let vals: Vec<u64> = args.iter().map(|a| eval(&frame.regs, a)).collect();
                    if H::ENABLED {
                        self.hook.call_enter(ins, *callee);
                    }
                    self.push_frame(frames, *callee, &vals, timer)?;
                    continue;
                }
                let computed = self.exec_instr(func, ins, &mut frame.regs)?;
                self.finish_instr(func, ins, computed, &mut frame.regs);
                frame.instr += 1;
                if let Some(t0) = timer {
                    self.hook.end_instr(ins, t0.elapsed().as_nanos() as u64);
                }
            } else {
                match &block.term {
                    Term::Br { target, args } => {
                        arg_buf.clear();
                        arg_buf.extend(args.iter().map(|a| eval(&frame.regs, a)));
                        let t = &func.blocks[target.0 as usize];
                        if H::ENABLED {
                            self.hook.branch_transfer(None, &t.params, args);
                        }
                        for (&p, &v) in t.params.iter().zip(&arg_buf) {
                            frame.regs[p.0 as usize] = v;
                        }
                        frame.block = target.0;
                        frame.instr = 0;
                    }
                    Term::CondBr {
                        cond,
                        then_target,
                        then_args,
                        else_target,
                        else_args,
                    } => {
                        let c = eval(&frame.regs, cond) & 1;
                        let (target, targs) = if c != 0 {
                            (then_target, then_args)
                        } else {
                            (else_target, else_args)
                        };
                        arg_buf.clear();
                        arg_buf.extend(targs.iter().map(|a| eval(&frame.regs, a)));
                        let t = &func.blocks[target.0 as usize];
                        if H::ENABLED {
                            self.hook.branch_transfer(Some(cond), &t.params, targs);
                        }
                        for (&p, &v) in t.params.iter().zip(&arg_buf) {
                            frame.regs[p.0 as usize] = v;
                        }
                        frame.block = target.0;
                        frame.instr = 0;
                    }
                    Term::Ret { value } => {
                        if H::ENABLED {
                            self.hook.func_ret(value.as_ref());
                        }
                        let v = value.as_ref().map(|x| eval(&frame.regs, x));
                        // Stack memory is zero-initialized: scrub the
                        // frame's alloca region on return so popped data
                        // never leaks into a later frame and — crucially —
                        // so a corrupted value parked in a dead frame slot
                        // cannot keep a faulty run's memory image unequal
                        // to golden's after the frame is gone.
                        let freed = frame.frame_sp as usize..self.stack_ptr as usize;
                        if !freed.is_empty() {
                            let len = (freed.end - freed.start) as u64;
                            self.memory.clear(freed.start, freed.end);
                            if let Some(l) = &mut self.access_log {
                                l.events.push(AccessEv::Zero {
                                    base: frame.frame_sp as u32,
                                    len: len as u32,
                                });
                            }
                            if H::ENABLED {
                                self.hook.mem_clear(frame.frame_sp, len);
                            }
                        }
                        self.stack_ptr = frame.frame_sp;
                        let timer = frame.call_timer;
                        frames.pop();
                        match frames.last_mut() {
                            None => return Ok(RunEnd::Done(v)),
                            Some(caller) => {
                                let cfunc = module.func(caller.fid);
                                let cins = &cfunc.blocks[caller.block as usize].instrs
                                    [caller.instr as usize];
                                self.finish_instr(cfunc, cins, v, &mut caller.regs);
                                caller.instr += 1;
                                if let Some(t0) = timer {
                                    self.hook.end_instr(cins, t0.elapsed().as_nanos() as u64);
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Snapshot bookkeeping at an instruction boundary; returns an early
    /// end when a convergence checkpoint matches.
    #[cold]
    fn snapshot_boundary(&mut self, frames: &[Frame], ctl: &mut SnapCtl<'_>) -> Option<RunEnd> {
        match ctl {
            SnapCtl::Off => None,
            SnapCtl::Capture {
                points, next, out, ..
            } => {
                while *next < points.len() && self.profile.value_dynamic >= points[*next] {
                    if self.profile.value_dynamic == points[*next] {
                        out.push(self.capture(frames));
                        if let Some(l) = &mut self.access_log {
                            l.marks.push((l.events.len(), self.profile.value_dynamic));
                        }
                    }
                    *next += 1;
                }
                None
            }
            SnapCtl::Converge {
                checkpoints,
                next,
                next_vd,
                masks,
                read_sets,
            } => {
                let mut matched = None;
                while *next < checkpoints.len() {
                    let cp = checkpoints[*next].data();
                    if cp.value_dynamic < self.profile.value_dynamic
                        || (cp.value_dynamic == self.profile.value_dynamic && !self.fault_activated)
                    {
                        // Passed pre-activation: identical-to-golden by
                        // construction, exiting here would misclassify a
                        // not-yet-injected trial.
                        *next += 1;
                        continue;
                    }
                    if cp.value_dynamic > self.profile.value_dynamic {
                        break;
                    }
                    *next += 1;
                    if self.state_matches(cp, frames, *masks, *read_sets) {
                        matched = Some(RunEnd::Converged {
                            at_value_dynamic: cp.value_dynamic,
                            checkpoint_dynamic: cp.dynamic,
                            dynamic_at_exit: self.profile.dynamic,
                            output_matches: self.output == cp.output,
                        });
                        break;
                    }
                }
                *next_vd = checkpoints
                    .get(*next)
                    .map_or(u64::MAX, |c| c.data().value_dynamic);
                matched
            }
        }
    }

    fn capture(&self, frames: &[Frame]) -> VmSnapshot {
        let frames = frames
            .iter()
            .map(|f| FrameSnap {
                fid: f.fid,
                regs: f.regs.clone(),
                block: f.block,
                instr: f.instr,
                frame_sp: f.frame_sp,
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

    /// Machine-state equality against a golden checkpoint. Cheap
    /// discriminators (stack pointer, frame positions, registers) run
    /// first; the memory compare is bounded by the high-water marks —
    /// both sides are provably zero beyond them. With `masks`, register
    /// comparison skips values that are statically dead at the frame's
    /// position: they are never read before being overwritten on any
    /// path, so a differing value parked there cannot change the
    /// continuation (see [`ConvergeMasks`]). With `read_sets`, the
    /// memory comparison checks only the checkpoint's future read set —
    /// the words the golden continuation loads before overwriting them;
    /// agreement there pins the continuation behaviourally even when
    /// dead memory differs (see [`ReadSets`]).
    fn state_matches(
        &self,
        cp: &SnapData,
        frames: &[Frame],
        masks: Option<&ConvergeMasks>,
        read_sets: Option<&ReadSets>,
    ) -> bool {
        if self.stack_ptr != cp.stack_ptr || frames.len() != cp.frames.len() {
            return false;
        }
        for (f, s) in frames.iter().zip(&cp.frames) {
            if f.fid != s.fid
                || f.block != s.block
                || f.instr != s.instr
                || f.frame_sp != s.frame_sp
            {
                return false;
            }
            match masks {
                None => {
                    if f.regs != s.regs {
                        return false;
                    }
                }
                Some(m) => {
                    let live = m.mask(f.fid, f.block, f.instr);
                    for (i, (a, b)) in f.regs.iter().zip(&s.regs).enumerate() {
                        if a != b && mask_contains(live, i) {
                            return false;
                        }
                    }
                }
            }
        }
        self.memory
            .matches(cp, read_sets.and_then(|r| r.set_at(cp.value_dynamic)))
    }

    /// Computes one non-call instruction. Returns the value to write to
    /// the result register, if any; the write itself (with fault
    /// injection) happens in [`finish_instr`](Self::finish_instr).
    #[inline]
    fn exec_instr(
        &mut self,
        func: &peppa_ir::Function,
        ins: &Instr,
        regs: &mut [u64],
    ) -> Result<Option<u64>, Stop> {
        let computed: Option<u64> = match &ins.op {
            Op::Bin { op, a, b } => {
                let ty = func.operand_ty(a);
                Some(exec_bin(*op, ty, eval(regs, a), eval(regs, b))?)
            }
            Op::Un { op, a } => {
                let ty = func.operand_ty(a);
                Some(exec_un(*op, ty, eval(regs, a)))
            }
            Op::Icmp { pred, a, b } => Some(exec_icmp(*pred, eval(regs, a), eval(regs, b))),
            Op::Fcmp { pred, a, b } => Some(exec_fcmp(*pred, eval(regs, a), eval(regs, b))),
            Op::Select { cond, t, f } => {
                let c = eval(regs, cond) & 1;
                Some(if c != 0 { eval(regs, t) } else { eval(regs, f) })
            }
            Op::Cast { kind, a, to } => {
                let from = func.operand_ty(a);
                Some(exec_cast(*kind, from, *to, eval(regs, a)))
            }
            Op::Load { addr, ty } => {
                let p = eval(regs, addr);
                let word = self.memory.read(p)?;
                if let Some(l) = &mut self.access_log {
                    l.events.push(AccessEv::Load(p as u32));
                }
                if H::ENABLED {
                    self.hook.mem_load(ins, p, word);
                }
                Some(canon(*ty, word))
            }
            Op::Store { addr, value } => {
                let p = eval(regs, addr);
                let v = eval(regs, value);
                self.memory.write(p, v)?;
                if let Some(l) = &mut self.access_log {
                    l.events.push(AccessEv::Store(p as u32));
                }
                if H::ENABLED {
                    self.hook.mem_store(ins, p, v);
                }
                None
            }
            Op::Gep { base, index } => Some(eval(regs, base).wrapping_add(eval(regs, index))),
            Op::Alloca { words } => {
                let base = self.stack_ptr;
                let end = self.memory.alloca(base, eval(regs, words))?;
                if let Some(l) = &mut self.access_log {
                    l.events.push(AccessEv::Zero {
                        base: base as u32,
                        len: (end - base) as u32,
                    });
                }
                if H::ENABLED {
                    self.hook.mem_clear(base, end - base);
                }
                self.stack_ptr = end;
                Some(base)
            }
            Op::Call { .. } => unreachable!("calls are handled by the driver loop"),
            Op::Output { value } => {
                let v = eval(regs, value);
                self.output.push(v);
                None
            }
        };
        Ok(computed)
    }

    /// Result write for a value-producing instruction: bumps the
    /// value-dynamic counter, applies a pending fault injection, stores
    /// the (possibly flipped) bits, and notifies the hook. Calls reach
    /// this when their frame pops.
    #[inline]
    fn finish_instr(
        &mut self,
        func: &peppa_ir::Function,
        ins: &Instr,
        computed: Option<u64>,
        regs: &mut [u64],
    ) {
        if let Some(r) = ins.result {
            let mut bits = computed.expect("value instruction computed nothing");
            self.profile.value_dynamic += 1;
            if let Some(inj) = self.injection {
                if !self.fault_activated && self.hits(ins, inj) {
                    let flipped = flip_bits(func.ty_of(r), bits, inj.bit, inj.burst);
                    if H::ENABLED {
                        self.hook.fault_injected(ins, bits ^ flipped);
                    }
                    bits = flipped;
                    self.fault_activated = true;
                }
            }
            regs[r.0 as usize] = bits;
            if H::ENABLED {
                self.hook.def_value(ins, bits);
            }
        }
    }

    #[inline]
    fn hits(&self, ins: &Instr, inj: Injection) -> bool {
        match inj.target {
            InjectionTarget::DynamicIndex(k) => self.profile.value_dynamic - 1 == k,
            InjectionTarget::StaticInstance { sid, instance } => {
                ins.sid == sid && self.profile.exec_counts[sid.0 as usize] - 1 == instance
            }
        }
    }
}

#[inline]
pub(crate) fn eval(regs: &[u64], op: &Operand) -> u64 {
    match op {
        Operand::Value(v) => regs[v.0 as usize],
        Operand::Const(c) => canon(c.ty, c.bits),
    }
}

#[inline]
pub(crate) fn exec_bin(op: BinOp, ty: Ty, a: u64, b: u64) -> Result<u64, Stop> {
    exec_bin_checked(op, ty, a, b).ok_or(Stop::Trap(Trap::DivByZero))
}

/// Bit-exact binary-op semantics shared by both engines and the
/// optimizer's constant folder. `None` means the operation traps
/// (integer division/remainder by zero).
#[inline]
pub fn exec_bin_checked(op: BinOp, ty: Ty, a: u64, b: u64) -> Option<u64> {
    let r = match op {
        BinOp::Add => (a as i64).wrapping_add(b as i64) as u64,
        BinOp::Sub => (a as i64).wrapping_sub(b as i64) as u64,
        BinOp::Mul => (a as i64).wrapping_mul(b as i64) as u64,
        BinOp::SDiv => {
            let (x, y) = (a as i64, b as i64);
            if y == 0 {
                return None;
            }
            x.wrapping_div(y) as u64
        }
        BinOp::SRem => {
            let (x, y) = (a as i64, b as i64);
            if y == 0 {
                return None;
            }
            x.wrapping_rem(y) as u64
        }
        BinOp::FAdd => (f64::from_bits(a) + f64::from_bits(b)).to_bits(),
        BinOp::FSub => (f64::from_bits(a) - f64::from_bits(b)).to_bits(),
        BinOp::FMul => (f64::from_bits(a) * f64::from_bits(b)).to_bits(),
        BinOp::FDiv => (f64::from_bits(a) / f64::from_bits(b)).to_bits(),
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        // Shift counts are masked to the type width (deterministic
        // behaviour even when a flipped bit lands in a shift amount).
        BinOp::Shl => a << (b & (ty.bits() as u64 - 1).max(1)),
        BinOp::LShr => {
            let w = ty.bits();
            let masked = if w == 64 { a } else { a & ((1u64 << w) - 1) };
            masked >> (b & (w as u64 - 1).max(1))
        }
        BinOp::AShr => ((a as i64) >> (b & (ty.bits() as u64 - 1).max(1))) as u64,
    };
    Some(canon(ty, r))
}

/// Bit-exact integer-compare semantics (operands in canonical form).
#[inline]
pub fn exec_icmp(pred: IPred, a: u64, b: u64) -> u64 {
    let (x, y) = (a as i64, b as i64);
    let r = match pred {
        IPred::Eq => x == y,
        IPred::Ne => x != y,
        IPred::Slt => x < y,
        IPred::Sle => x <= y,
        IPred::Sgt => x > y,
        IPred::Sge => x >= y,
        IPred::Ult => (x as u64) < (y as u64),
    };
    r as u64
}

/// Bit-exact float-compare semantics (ordered: NaN compares false).
#[inline]
pub fn exec_fcmp(pred: FPred, a: u64, b: u64) -> u64 {
    let x = f64::from_bits(a);
    let y = f64::from_bits(b);
    let r = match pred {
        FPred::Oeq => x == y,
        FPred::One => x != y && !x.is_nan() && !y.is_nan(),
        FPred::Olt => x < y,
        FPred::Ole => x <= y,
        FPred::Ogt => x > y,
        FPred::Oge => x >= y,
    };
    r as u64
}

/// Bit-exact unary-op semantics shared by both engines and the
/// optimizer's constant folder.
#[inline]
pub fn exec_un(op: UnOp, ty: Ty, a: u64) -> u64 {
    let r = match op {
        UnOp::FNeg => (-f64::from_bits(a)).to_bits(),
        UnOp::Not => !a,
        UnOp::Sqrt => f64::from_bits(a).sqrt().to_bits(),
        UnOp::Sin => f64::from_bits(a).sin().to_bits(),
        UnOp::Cos => f64::from_bits(a).cos().to_bits(),
        UnOp::Exp => f64::from_bits(a).exp().to_bits(),
        UnOp::Log => f64::from_bits(a).ln().to_bits(),
        UnOp::Floor => f64::from_bits(a).floor().to_bits(),
        UnOp::FAbs => f64::from_bits(a).abs().to_bits(),
    };
    canon(ty, r)
}

/// Bit-exact cast semantics shared by both engines and the optimizer's
/// constant folder (`FpToSi` saturates; see [`CastKind`] docs).
#[inline]
pub fn exec_cast(kind: CastKind, from: Ty, to: Ty, a: u64) -> u64 {
    match kind {
        CastKind::Trunc | CastKind::Bitcast | CastKind::PtrToInt | CastKind::IntToPtr => {
            canon(to, a)
        }
        CastKind::ZExt => {
            // Zero-extension uses the *unsigned* narrow value.
            let narrow = from.truncate_bits(a);
            canon(to, narrow)
        }
        CastKind::SExt => {
            if from == Ty::I1 {
                if a & 1 != 0 {
                    u64::MAX
                } else {
                    0
                }
            } else {
                a // i32 is already canonically sign-extended
            }
        }
        CastKind::FpToSi => {
            let x = f64::from_bits(a);
            match to {
                Ty::I32 => ((x as i32) as i64) as u64,
                _ => (x as i64) as u64,
            }
        }
        CastKind::SiToFp => {
            let v = if from == Ty::I1 {
                (a & 1) as i64
            } else {
                a as i64
            };
            (v as f64).to_bits()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peppa_ir::{IPred, ModuleBuilder, Operand};

    /// sum = 0; for i in 0..n { sum += i*i }; output sum
    fn loop_module() -> Module {
        let mut mb = ModuleBuilder::new("loop");
        let main = mb.declare("main", &[Ty::I64], Some(Ty::I64));
        let mut f = mb.define(main);
        let n = f.param(0);
        let (head, hv) = f.new_block(&[Ty::I64, Ty::I64]); // i, sum
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
    fn sum_of_squares() {
        let m = loop_module();
        let vm = Vm::new(&m, ExecLimits::default());
        let out = vm.run_numeric(&[5.0], None);
        assert_eq!(out.status, RunStatus::Ok);
        assert_eq!(out.output, vec![30]); // 0+1+4+9+16
        assert_eq!(out.ret, Some(30));
    }

    #[test]
    fn profile_counts_loop_iterations() {
        let m = loop_module();
        let vm = Vm::new(&m, ExecLimits::default());
        let out = vm.run_numeric(&[10.0], None);
        // icmp executes 11 times; mul/add/add 10 times; output once.
        assert_eq!(out.profile.exec_counts[0], 11);
        assert_eq!(out.profile.exec_counts[1], 10);
        assert_eq!(out.profile.dynamic, 11 + 30 + 1);
        // All but `output` produce values.
        assert_eq!(out.profile.value_dynamic, 11 + 30);
    }

    #[test]
    fn hang_on_budget() {
        let m = loop_module();
        let vm = Vm::new(
            &m,
            ExecLimits {
                max_dynamic: 50,
                ..Default::default()
            },
        );
        let out = vm.run_numeric(&[1e9 /* huge */], None);
        assert_eq!(out.status, RunStatus::Hang);
    }

    #[test]
    fn injected_fault_changes_output() {
        let m = loop_module();
        let vm = Vm::new(&m, ExecLimits::default());
        let golden = vm.run_numeric(&[5.0], None);
        // Flip bit 3 of the first mul result (dynamic value index 1 is the
        // first mul: index 0 is the first icmp).
        let inj = Injection {
            target: InjectionTarget::DynamicIndex(1),
            bit: 3,
            burst: 0,
        };
        let faulty = vm.run_numeric(&[5.0], Some(inj));
        assert!(faulty.fault_activated);
        assert!(faulty.is_sdc_vs(&golden));
        // 0*0=0 flipped bit3 -> 8; totals 30 -> 38.
        assert_eq!(faulty.output, vec![38]);
    }

    #[test]
    fn injection_into_icmp_takes_wrong_branch() {
        let m = loop_module();
        let vm = Vm::new(&m, ExecLimits::default());
        let golden = vm.run_numeric(&[5.0], None);
        // Flip the very first icmp (i -> loop exits immediately, sum 0).
        let inj = Injection {
            target: InjectionTarget::DynamicIndex(0),
            bit: 0,
            burst: 0,
        };
        let faulty = vm.run_numeric(&[5.0], Some(inj));
        assert_eq!(faulty.status, RunStatus::Ok);
        assert_eq!(faulty.output, vec![0]);
        assert!(faulty.is_sdc_vs(&golden));
    }

    #[test]
    fn static_instance_targeting() {
        let m = loop_module();
        let vm = Vm::new(&m, ExecLimits::default());
        // mul is sid 1; instance 3 computes 3*3=9; flip bit 0 -> 8.
        let inj = Injection {
            target: InjectionTarget::StaticInstance {
                sid: InstrId(1),
                instance: 3,
            },
            bit: 0,
            burst: 0,
        };
        let faulty = vm.run_numeric(&[5.0], Some(inj));
        assert!(faulty.fault_activated);
        assert_eq!(faulty.output, vec![29]); // 30 - 1
    }

    #[test]
    fn fault_not_activated_when_target_beyond_run() {
        let m = loop_module();
        let vm = Vm::new(&m, ExecLimits::default());
        let inj = Injection {
            target: InjectionTarget::DynamicIndex(10_000),
            bit: 0,
            burst: 0,
        };
        let out = vm.run_numeric(&[5.0], Some(inj));
        assert!(!out.fault_activated);
        assert_eq!(out.output, vec![30]);
    }

    fn mem_module() -> Module {
        // Writes param into g[idx] then reads g[idx] back; traps if idx OOB.
        let mut mb = ModuleBuilder::new("mem");
        let g = mb.global("g", 4);
        let main = mb.declare("main", &[Ty::I64, Ty::F64], Some(Ty::F64));
        let mut f = mb.define(main);
        let idx = f.param(0);
        let val = f.param(1);
        let p = f.gep(g, idx);
        let vb = f.cast(CastKind::Bitcast, val, Ty::I64);
        f.store(p, vb);
        let l = f.load(p, Ty::F64);
        f.output(l);
        f.ret(Some(l));
        f.finish();
        mb.set_entry(main);
        let m = mb.finish();
        peppa_ir::verify(&m).unwrap();
        m
    }

    #[test]
    fn memory_roundtrip() {
        let m = mem_module();
        let vm = Vm::new(&m, ExecLimits::default());
        let out = vm.run_numeric(&[2.0, 6.25], None);
        assert_eq!(out.status, RunStatus::Ok);
        assert_eq!(out.ret, Some(6.25f64.to_bits()));
    }

    #[test]
    fn oob_store_traps() {
        let m = mem_module();
        let vm = Vm::new(
            &m,
            ExecLimits {
                memory_words: 64,
                ..Default::default()
            },
        );
        let out = vm.run_numeric(&[1000.0, 1.0], None);
        assert!(matches!(
            out.status,
            RunStatus::Trap(Trap::OutOfBounds { .. })
        ));
    }

    #[test]
    fn flipped_pointer_crashes() {
        let m = mem_module();
        let vm = Vm::new(
            &m,
            ExecLimits {
                memory_words: 64,
                ..Default::default()
            },
        );
        // Flip a high bit of the gep result -> wild address -> trap.
        let inj = Injection {
            target: InjectionTarget::DynamicIndex(0),
            bit: 40,
            burst: 0,
        };
        let out = vm.run_numeric(&[2.0, 1.5], Some(inj));
        assert!(matches!(
            out.status,
            RunStatus::Trap(Trap::OutOfBounds { .. })
        ));
    }

    #[test]
    fn div_by_zero_traps() {
        let mut mb = ModuleBuilder::new("div");
        let main = mb.declare("main", &[Ty::I64], Some(Ty::I64));
        let mut f = mb.define(main);
        let x = f.param(0);
        let q = f.bin(BinOp::SDiv, Operand::i64(100), x);
        f.ret(Some(q));
        f.finish();
        mb.set_entry(main);
        let m = mb.finish();
        let vm = Vm::new(&m, ExecLimits::default());
        assert_eq!(
            vm.run_numeric(&[0.0], None).status,
            RunStatus::Trap(Trap::DivByZero)
        );
        assert_eq!(vm.run_numeric(&[4.0], None).ret, Some(25));
    }

    #[test]
    fn alloca_scopes_per_call() {
        // callee allocas 8 words each call; calling twice must not leak.
        let mut mb = ModuleBuilder::new("alloca");
        let callee = mb.declare("callee", &[Ty::I64], Some(Ty::I64));
        let main = mb.declare("main", &[], Some(Ty::I64));
        {
            let mut f = mb.define(callee);
            let x = f.param(0);
            let buf = f.alloca(Operand::i64(8));
            f.store(buf, x);
            let v = f.load(buf, Ty::I64);
            f.ret(Some(v));
            f.finish();
        }
        {
            let mut f = mb.define(main);
            let a = f.call(callee, &[Operand::i64(11)]).unwrap();
            let b = f.call(callee, &[Operand::i64(31)]).unwrap();
            let s = f.add(a, b);
            f.output(s);
            f.ret(Some(s));
            f.finish();
        }
        mb.set_entry(main);
        let m = mb.finish();
        peppa_ir::verify(&m).unwrap();
        // Memory just big enough for one frame's alloca at a time.
        let vm = Vm::new(
            &m,
            ExecLimits {
                memory_words: 12,
                ..Default::default()
            },
        );
        let out = vm.run_numeric(&[], None);
        assert_eq!(out.status, RunStatus::Ok);
        assert_eq!(out.ret, Some(42));
    }

    #[test]
    fn recursion_depth_trap() {
        let mut mb = ModuleBuilder::new("rec");
        let f_id = mb.declare("f", &[Ty::I64], Some(Ty::I64));
        {
            let mut f = mb.define(f_id);
            let x = f.param(0);
            let r = f.call(f_id, &[x]).unwrap();
            f.ret(Some(r));
            f.finish();
        }
        mb.set_entry(f_id);
        let m = mb.finish();
        let vm = Vm::new(
            &m,
            ExecLimits {
                max_call_depth: 16,
                ..Default::default()
            },
        );
        assert_eq!(
            vm.run_numeric(&[1.0], None).status,
            RunStatus::Trap(Trap::CallDepth)
        );
    }

    #[test]
    fn i32_canonicalization_after_flip() {
        // Flipping bit 31 of an i32 changes the sign and stays canonical.
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
        let vm = Vm::new(&m, ExecLimits::default());
        let inj = Injection {
            target: InjectionTarget::DynamicIndex(0),
            bit: 31,
            burst: 0,
        };
        let out = vm.run_numeric(&[], Some(inj));
        assert_eq!(out.ret, Some((1i64 + i32::MIN as i64) as u64));
    }

    #[test]
    fn hook_counts_match_profile() {
        let m = loop_module();
        let vm = Vm::new(&m, ExecLimits::default());
        let bits = crate::inputs::encode_inputs(m.entry_func(), &[10.0]);
        let mut prof = crate::hooks::OpcodeProfile::new(1);
        let out = vm.run_with_hook(&bits, None, &mut prof);
        assert_eq!(out.status, RunStatus::Ok);
        assert_eq!(prof.total(), out.profile.dynamic);
        for (sid, c) in out.profile.exec_counts.iter().enumerate() {
            assert_eq!(prof.sid_count(InstrId(sid as u32)), *c, "sid {sid}");
        }
        let table = prof.hot_table(&m, 3);
        assert!(table.contains("icmp"), "{table}");
    }

    #[test]
    fn hooked_run_output_matches_plain_run() {
        let m = loop_module();
        let vm = Vm::new(&m, ExecLimits::default());
        let bits = crate::inputs::encode_inputs(m.entry_func(), &[7.0]);
        let plain = vm.run(&bits, None);
        let mut prof = crate::hooks::OpcodeProfile::default();
        let hooked = vm.run_with_hook(&bits, None, &mut prof);
        assert_eq!(plain.output, hooked.output);
        assert_eq!(plain.ret, hooked.ret);
        assert_eq!(plain.profile, hooked.profile);
    }

    #[test]
    fn deterministic_repeat_runs() {
        let m = loop_module();
        let vm = Vm::new(&m, ExecLimits::default());
        let a = vm.run_numeric(&[17.0], None);
        let b = vm.run_numeric(&[17.0], None);
        assert_eq!(a.output, b.output);
        assert_eq!(a.profile, b.profile);
    }

    #[test]
    fn snapshot_resume_matches_full_run() {
        let m = loop_module();
        let vm = Vm::new(&m, ExecLimits::default());
        let bits = crate::inputs::encode_inputs(m.entry_func(), &[9.0]);
        let full = vm.run(&bits, None);
        let points: Vec<u64> = vec![0, 5, 13, 27];
        let (cap_out, snaps) = vm.run_with_snapshots(&bits, &points);
        assert_eq!(cap_out.output, full.output);
        assert_eq!(snaps.len(), points.len());
        for (s, &p) in snaps.iter().zip(&points) {
            assert_eq!(s.value_dynamic(), p);
            let resumed = vm.resume_from(s, None);
            assert_eq!(resumed.status, RunStatus::Ok);
            assert_eq!(resumed.output, full.output, "point {p}");
            assert_eq!(resumed.ret, full.ret, "point {p}");
            assert_eq!(resumed.profile, full.profile, "point {p}");
        }
    }

    #[test]
    fn snapshot_resume_with_injection_is_bit_exact() {
        let m = loop_module();
        let vm = Vm::new(&m, ExecLimits::default());
        let bits = crate::inputs::encode_inputs(m.entry_func(), &[9.0]);
        let (_, snaps) = vm.run_with_snapshots(&bits, &[7]);
        let snap = &snaps[0];
        for site in 7..20u64 {
            for bit in [0u32, 5, 31] {
                let inj = Injection::single(InjectionTarget::DynamicIndex(site), bit);
                let full = vm.run(&bits, Some(inj));
                let resumed = vm.resume_from(snap, Some(inj));
                assert_eq!(resumed.status, full.status, "site {site} bit {bit}");
                assert_eq!(resumed.output, full.output, "site {site} bit {bit}");
                assert_eq!(resumed.ret, full.ret, "site {site} bit {bit}");
                assert_eq!(resumed.profile, full.profile, "site {site} bit {bit}");
                assert_eq!(
                    resumed.fault_activated, full.fault_activated,
                    "site {site} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn snapshot_resume_preserves_memory_and_calls() {
        // Exercise alloca/call frames across the snapshot boundary.
        let mut mb = ModuleBuilder::new("snapcall");
        let callee = mb.declare("callee", &[Ty::I64], Some(Ty::I64));
        let main = mb.declare("main", &[Ty::I64], Some(Ty::I64));
        {
            let mut f = mb.define(callee);
            let x = f.param(0);
            let buf = f.alloca(Operand::i64(4));
            let x2 = f.mul(x, x);
            f.store(buf, x2);
            let v = f.load(buf, Ty::I64);
            f.ret(Some(v));
            f.finish();
        }
        {
            let mut f = mb.define(main);
            let n = f.param(0);
            let a = f.call(callee, &[n]).unwrap();
            let b = f.call(callee, &[a]).unwrap();
            f.output(b);
            f.ret(Some(b));
            f.finish();
        }
        mb.set_entry(main);
        let m = mb.finish();
        peppa_ir::verify(&m).unwrap();
        let vm = Vm::new(&m, ExecLimits::default());
        let bits = crate::inputs::encode_inputs(m.entry_func(), &[3.0]);
        let full = vm.run_capture(&bits, None);
        assert_eq!(full.ret, Some(81));
        // Capture at every value boundary; resume each mid-call snapshot.
        let points: Vec<u64> = (0..full.profile.value_dynamic).collect();
        let (_, snaps) = vm.run_with_snapshots(&bits, &points);
        assert_eq!(snaps.len(), points.len());
        for s in &snaps {
            let resumed = vm.resume_capture(s, None);
            assert_eq!(resumed.ret, full.ret);
            assert_eq!(resumed.memory, full.memory, "point {}", s.value_dynamic());
        }
    }

    #[test]
    fn convergence_exit_detects_benign_state() {
        let m = loop_module();
        let vm = Vm::new(&m, ExecLimits::default());
        let bits = crate::inputs::encode_inputs(m.entry_func(), &[20.0]);
        let golden = vm.run(&bits, None);
        // Fork at 0, checkpoints thereafter every 10 value instructions.
        let points: Vec<u64> = (0..golden.profile.value_dynamic).step_by(10).collect();
        let (_, snaps) = vm.run_with_snapshots(&bits, &points);
        // Flip a dead-ish bit of an icmp *result* after it was consumed?
        // icmp results feed cond_br immediately, so instead corrupt the
        // loop induction variable's square: sum diverges permanently and
        // the trial must NOT converge-exit as benign.
        let inj = Injection::single(InjectionTarget::DynamicIndex(1), 3);
        match vm.resume_trial(&snaps[0], Some(inj), &snaps[1..], None, None) {
            TrialResume::Completed(out) => {
                assert!(out.is_sdc_vs(&golden));
            }
            TrialResume::Converged { output_matches, .. } => {
                // State converged only if the corrupted sum re-joined the
                // golden value, which a +8 offset never does; output
                // divergence must be flagged.
                assert!(!output_matches);
            }
        }
    }
}
