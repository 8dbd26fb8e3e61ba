//! The campaign pipeline: one staged plan behind every FI campaign.
//!
//! A [`CampaignPlan`] passes through each stage once:
//!
//! 1. **Golden run** on the selected engine. It records the
//!    dynamic-index → sid map only when a stage reads sids: a non-empty
//!    prune table, tracing or the per-instruction sampler.
//! 2. **Sampler.** Trial `t` draws its fault from a stream seeded by
//!    `(seed, t)` alone, so results never depend on scheduling or on
//!    when a trial is sampled. The uniform sampler draws a dynamic
//!    value site; the per-instruction sampler
//!    ([`CampaignPlan::per_instruction`]) draws an instance of one static
//!    instruction and maps it through the sid map to the dynamic site
//!    where the VM faults it (none, for some instances of a recursive
//!    call: such a trial runs from entry).
//! 3. **Filter** (with a prune table). The [`PruneGate`] reads the
//!    golden run's execution counts; when pruning engages, a trial whose
//!    sampled cell is provably masked counts Benign without executing.
//! 4. **Executor.** Kept trials run from program entry or, with `K > 0`
//!    snapshots, resume from the latest golden-prefix snapshot before
//!    their fault site. Fork points are planned over the kept trials'
//!    sites, and the snapshots are captured on the campaign's engine.
//!    Convergence exits are on unless tracing.
//! 5. **Hook** (with tracing). Each executed trial runs under a
//!    shadow-taint [`TaintHook`] and reports its provenance.
//! 6. **Aggregator.** Workers report over a bounded channel drained on
//!    the calling thread, which emits every event and tallies outcomes.
//!
//! Pruning, snapshots and tracing change only how trials execute, never
//! which faults they sample, so every composition measures the same
//! campaign: outcome counts are bit-identical to the plain plan's (for a
//! sound prune table). `crates/inject/tests/snapshot_differential.rs`
//! holds the proof obligations.
//!
//! Event stream: `CampaignStarted`; a `golden` span, then `GoldenRun`;
//! the gate's `Message` (with a prune table); a `capture` span, then one
//! `SnapshotCaptured` per fork point (`K > 0`); a `trials` span holding,
//! per trial in completion order, a `StaticSkip` (skipped trials), its
//! `TrialFinished` and its `TrialProvenance` (tracing); then
//! `SnapshotStats` (`K > 0`) and `CampaignFinished`.

use crate::campaign::{
    check_golden, sample_fault_burst, CampaignConfig, CampaignError, CampaignResult, PruneDecision,
    PruneGate, SnapshotStats, StaticPrune,
};
use crate::forkpoint::{fork_point_for, plan_fork_points};
use crate::outcome::{classify, FaultOutcome};
use crate::provenance::TracedTrial;
use peppa_ir::{FuncId, Instr, InstrId, Module, Op};
use peppa_obs::{Event, Observer, Span};
use peppa_stats::{binomial_ci, ci::Z_95, Pcg64};
use peppa_vm::{
    encode_inputs, CompiledModule, Engine, EngineKind, ExecHook, ExecLimits, Injection,
    InjectionTarget, ResumeScratch, RunOutput, TaintHook, TaintReport, TrialResume,
};
use std::time::Instant;

/// The snapshot count `K` every command resumes trials at: `peppa
/// inject`, both FI stages of a search and `SnapshotConfig::default()`
/// capture up to this many golden-prefix snapshots.
pub const DEFAULT_SNAPSHOTS: u32 = 16;

/// One FI campaign: what it measures ([`CampaignConfig`]) and which
/// optional stages execute it. Built with [`CampaignPlan::new`] and the
/// stage setters, executed with [`CampaignPlan::run`].
#[derive(Clone, Copy)]
pub struct CampaignPlan<'a> {
    module: &'a Module,
    inputs: &'a [f64],
    limits: ExecLimits,
    cfg: CampaignConfig,
    sampler: Sampler<'a>,
    prune: Option<(&'a StaticPrune, PruneGate)>,
    snapshots: u32,
    trace: bool,
}

/// What a plan measured, plus each stage's bookkeeping.
#[derive(Debug, Clone)]
pub struct PlanResult {
    pub campaign: CampaignResult,
    /// Trials the filter skipped without execution (already counted
    /// Benign in `campaign`).
    pub skipped: u64,
    /// The prune gate's decision; `None` without a prune table.
    pub decision: Option<PruneDecision>,
    /// The executor's accounting. Without snapshots every executed trial
    /// is a full run.
    pub stats: SnapshotStats,
    /// `traced[t]` is trial `t`'s provenance, whatever order trials
    /// finished in. Empty unless tracing.
    pub traced: Vec<TracedTrial>,
    /// Per-instruction sampler only: each measured instruction, in
    /// sampling order, with the number of its `cfg.trials` trials that
    /// ended in an SDC.
    pub per_instr: Vec<(InstrId, u32)>,
}

impl PlanResult {
    /// Fraction of trials that needed no faulty execution.
    pub fn skip_ratio(&self) -> f64 {
        if self.campaign.trials == 0 {
            return 0.0;
        }
        self.skipped as f64 / self.campaign.trials as f64
    }

    /// Traced trials whose taint reached an observable sink.
    pub fn propagated(&self) -> usize {
        self.traced.iter().filter(|t| t.report.propagated()).count()
    }

    /// Traced trials whose taint died before reaching any sink.
    pub fn extinguished(&self) -> usize {
        self.traced
            .iter()
            .filter(|t| t.report.extinguished())
            .count()
    }
}

/// Records, for every value-producing dynamic instruction of the golden
/// run, the static instruction it came from: the map that turns a
/// sampled dynamic site into a prune-table or provenance sid.
///
/// It also records where recursion shifts a call's instances. The VM
/// counts an instance of a call when it dispatches the call, but writes
/// (and faults) the call's result when the frame pops. Under recursion
/// several returns of one call see the same count, so a call's `k`-th
/// result need not be its instance `k`.
struct SidMapHook {
    sids: Vec<u32>,
    /// Per sid: calls dispatched, and results those calls wrote.
    calls: Vec<(u64, u64)>,
    /// `(site, instance)` of each call result whose instance is not its
    /// index among its instruction's results, in site order.
    shifted: Vec<(u64, u64)>,
}

impl SidMapHook {
    fn new(num_instrs: usize) -> Self {
        SidMapHook {
            sids: Vec::new(),
            calls: vec![(0, 0); num_instrs],
            shifted: Vec::new(),
        }
    }
}

impl ExecHook for SidMapHook {
    const ENABLED: bool = true;

    #[inline]
    fn call_enter(&mut self, ins: &Instr, _callee: FuncId) {
        self.calls[ins.sid.0 as usize].0 += 1;
    }

    #[inline]
    fn def_value(&mut self, ins: &Instr, _bits: u64) {
        if let Op::Call { .. } = ins.op {
            let (dispatched, written) = &mut self.calls[ins.sid.0 as usize];
            // The instance `InjectionTarget::StaticInstance` matches here.
            let instance = *dispatched - 1;
            if instance != *written {
                self.shifted.push((self.sids.len() as u64, instance));
            }
            *written += 1;
        }
        self.sids.push(ins.sid.0);
    }
}

/// Which faults a plan's trials measure.
#[derive(Clone, Copy)]
enum Sampler<'a> {
    /// `cfg.trials` sites drawn uniformly over the golden run's
    /// value-producing dynamic instructions.
    Uniform,
    /// `cfg.trials` instances of each of `sids` (of every instruction
    /// when `None`).
    PerInstruction(Option<&'a [InstrId]>),
}

impl Sampler<'_> {
    /// The trial count `CampaignStarted` announces: `per` in all, or
    /// `per` for each requested value-producing instruction, which must
    /// fit a trial index.
    fn planned(self, module: &Module, per: u32) -> Result<u32, CampaignError> {
        let Sampler::PerInstruction(sids) = self else {
            return Ok(per);
        };
        let instructions = InstrSampler::valued(module, sids).len() as u64;
        u32::try_from(instructions * per as u64).map_err(|_| CampaignError::TooManyTrials {
            instructions,
            per_instruction: per,
        })
    }
}

/// `InstrSampler::sites` entry of an instance no result carries: a
/// fault on it never fires.
const NOWHERE: u64 = u64::MAX;

/// The per-instruction sampler, set up from the golden run.
struct InstrSampler {
    /// Trials per instruction.
    per: u32,
    /// Measured instructions: the requested value-producing ones the
    /// golden run executed.
    work: Vec<InstrId>,
    /// `sites[first[sid] + i]` is the value-dynamic index of the result
    /// a fault on instance `i` of `sid` corrupts, or [`NOWHERE`].
    first: Vec<usize>,
    sites: Vec<u64>,
}

impl InstrSampler {
    /// The value-producing instructions among `sids` (all when `None`).
    fn valued(module: &Module, sids: Option<&[InstrId]>) -> Vec<InstrId> {
        let instrs = module.all_instrs();
        let valued = |s: &InstrId| {
            instrs
                .get(s.0 as usize)
                .is_some_and(|(_, i)| i.result.is_some())
        };
        match sids {
            Some(sids) => sids.iter().copied().filter(valued).collect(),
            None => instrs.iter().map(|(_, i)| i.sid).filter(valued).collect(),
        }
    }

    /// Measures the requested value-producing instructions the golden
    /// run executed, `per` trials each. Each instance's site comes from
    /// a counting sort of the golden sid map: a result is the instance
    /// of its index among its instruction's results, unless recursion
    /// shifted it, and an instance is faulted at the first result that
    /// carries it.
    fn new(module: &Module, sids: Option<&[InstrId]>, per: u32, golden: &SidMapHook) -> Self {
        let n = module.num_instrs;
        let mut first = vec![0usize; n + 1];
        for &sid in &golden.sids {
            first[sid as usize + 1] += 1;
        }
        for i in 0..n {
            first[i + 1] += first[i];
        }
        let mut written = vec![0usize; n];
        let mut shifted = golden.shifted.iter().peekable();
        let mut sites = vec![NOWHERE; golden.sids.len()];
        for (site, &sid) in golden.sids.iter().enumerate() {
            let sid = sid as usize;
            let instance = match shifted.next_if(|&&(at, _)| at == site as u64) {
                Some(&(_, instance)) => instance as usize,
                None => written[sid],
            };
            written[sid] += 1;
            let slot = &mut sites[first[sid] + instance];
            if *slot == NOWHERE {
                *slot = site as u64;
            }
        }
        let work = Self::valued(module, sids)
            .into_iter()
            .filter(|s| first[s.0 as usize + 1] > first[s.0 as usize])
            .collect();
        InstrSampler {
            per,
            work,
            first,
            sites,
        }
    }

    fn trials(&self) -> u32 {
        self.work.len() as u32 * self.per
    }

    /// Index in `work` of the instruction trial `t` measures.
    fn instr_of(&self, t: u32) -> usize {
        (t / self.per) as usize
    }

    /// Trial `t`'s fault, a uniformly drawn instance and bit of its
    /// instruction from that instruction's stream of trial `t % per`,
    /// and the site the fault corrupts (`None`: it never fires).
    fn sample(&self, t: u32, cfg: &CampaignConfig) -> (Injection, Option<u64>) {
        let sid = self.work[self.instr_of(t)];
        let k = t % self.per;
        let sites = &self.sites[self.first[sid.0 as usize]..self.first[sid.0 as usize + 1]];
        let mut rng = Pcg64::new(
            cfg.seed ^ ((sid.0 as u64) << 32) ^ (k as u64).wrapping_mul(0x2545f4914f6cdd1d),
        );
        let instance = rng.gen_range_u64(sites.len() as u64);
        let bit = rng.gen_range_u64(64) as u32;
        let inj = Injection {
            target: InjectionTarget::StaticInstance { sid, instance },
            bit,
            burst: cfg.burst,
        };
        let site = sites[instance as usize];
        (inj, (site != NOWHERE).then_some(site))
    }
}

/// One trial's sampled fault and the filter's verdict on it.
struct Fault {
    inj: Injection,
    /// The dynamic site the fault corrupts; `None` if it never fires.
    site: Option<u64>,
    /// `Some(sid)` when the filter skips the trial.
    skip: Option<u32>,
}

/// How the executor handled one trial.
enum Exec {
    /// Skipped by the filter; carries the masked cell's sid.
    Skipped(u32),
    /// Ran from program entry.
    Full,
    /// Resumed from a snapshot, skipping `prefix` golden instructions.
    Resumed { prefix: u64, converged: bool },
}

/// One trial's observable facts, reported from a worker to the
/// aggregator.
struct TrialReport {
    trial: u32,
    outcome: FaultOutcome,
    site: u64,
    bit: u32,
    latency_ns: u64,
    exec: Exec,
    /// Seed sid and taint provenance (tracing only).
    taint: Option<(u32, TaintReport)>,
}

impl TrialReport {
    fn emit(&self, observer: &dyn Observer) {
        let (trial, site, bit) = (self.trial, self.site, self.bit);
        let outcome = self.outcome.into();
        if let Exec::Skipped(sid) = self.exec {
            observer.on_event(&Event::StaticSkip {
                trial,
                sid,
                site,
                bit,
            });
        }
        observer.on_event(&Event::TrialFinished {
            trial,
            outcome,
            site,
            bit,
            latency_ns: self.latency_ns,
        });
        if let Some((sid, r)) = &self.taint {
            observer.on_event(&Event::TrialProvenance {
                trial,
                outcome,
                site,
                bit,
                sid: *sid,
                seeded: r.seeded,
                propagated: r.propagated(),
                sink: r.first_sink.map(|s| s.kind.as_str().to_string()),
                hops: r.tainted_defs,
                seed_dynamic: r.seed_dynamic,
                extinction_dynamic: r.extinction_dynamic,
                sid_hits: r.sid_hits.clone(),
            });
        }
    }
}

impl<'a> CampaignPlan<'a> {
    /// The plain campaign: every trial runs from program entry.
    pub fn new(
        module: &'a Module,
        inputs: &'a [f64],
        limits: ExecLimits,
        cfg: CampaignConfig,
    ) -> CampaignPlan<'a> {
        CampaignPlan {
            module,
            inputs,
            limits,
            cfg,
            sampler: Sampler::Uniform,
            prune: None,
            snapshots: 0,
            trace: false,
        }
    }

    /// Samples per static instruction (§3.1.4) instead of uniformly:
    /// each instruction of `sids` (every one when `None`) that produces
    /// a value and that the golden run executes gets `cfg.trials`
    /// trials, each flipping a random bit of a random dynamic instance
    /// of it. `CampaignStarted` announces the trials of every requested
    /// value-producing instruction; the result counts only those run.
    pub fn per_instruction(self, sids: Option<&'a [InstrId]>) -> CampaignPlan<'a> {
        CampaignPlan {
            sampler: Sampler::PerInstruction(sids),
            ..self
        }
    }

    /// Adds the filter stage: trials whose sampled cell `table` proves
    /// masked are skipped, whenever `gate` engages.
    pub fn prune(self, table: &'a StaticPrune, gate: PruneGate) -> CampaignPlan<'a> {
        CampaignPlan {
            prune: Some((table, gate)),
            ..self
        }
    }

    /// Captures up to `k` golden-prefix snapshots and resumes each trial
    /// from the latest one before its fault site (`0` = from entry).
    pub fn snapshots(self, k: u32) -> CampaignPlan<'a> {
        CampaignPlan {
            snapshots: k,
            ..self
        }
    }

    /// Runs every trial under the shadow-taint hook.
    pub fn trace(self, on: bool) -> CampaignPlan<'a> {
        CampaignPlan { trace: on, ..self }
    }

    /// Runs the campaign, reporting to `observer`.
    pub fn run(&self, observer: &dyn Observer) -> Result<PlanResult, CampaignError> {
        let (module, inputs, limits, cfg) = (self.module, self.inputs, self.limits, self.cfg);
        if let Some((table, _)) = self.prune {
            if table.burst != cfg.burst {
                return Err(CampaignError::PruneBurstMismatch {
                    table: table.burst,
                    campaign: cfg.burst,
                });
            }
            if self.trace {
                return Err(CampaignError::PruneWithTrace);
            }
        }
        let planned = self.sampler.planned(module, cfg.trials)?;
        let start = Instant::now();
        observer.on_event(&Event::CampaignStarted {
            benchmark: module.name.clone(),
            trials: planned,
            seed: cfg.seed,
            threads: cfg.threads,
            engine: cfg.engine.as_str().to_string(),
        });
        // Lower once per campaign; workers share the read-only bytecode.
        let code = (cfg.engine == EngineKind::Compiled).then(|| CompiledModule::lower(module));
        let bits = encode_inputs(module.entry_func(), inputs);

        // 1. Golden run. The hook does not perturb execution.
        let masked_cells = self.prune.map_or(0, |(table, _)| table.masked_cells());
        let mut hook = SidMapHook::new(module.num_instrs);
        let per_instruction = matches!(self.sampler, Sampler::PerInstruction(_));
        let golden = {
            let _span = Span::enter(observer, "golden");
            let eng = Engine::new(module, limits, code.as_ref());
            check_golden(if per_instruction || self.trace || masked_cells > 0 {
                eng.run_with_hook(&bits, None, &mut hook)
            } else {
                eng.run(&bits, None)
            })?
        };
        let value_dynamic = golden.profile.value_dynamic;
        let per_instr = match self.sampler {
            Sampler::Uniform => None,
            Sampler::PerInstruction(sids) => {
                Some(InstrSampler::new(module, sids, cfg.trials, &hook))
            }
        };
        let sid_map = hook.sids;
        if value_dynamic == 0 && per_instr.is_none() {
            return Err(CampaignError::NoFaultSites);
        }
        // At most `planned`: only executed instructions are measured.
        let trials = per_instr.as_ref().map_or(cfg.trials, InstrSampler::trials);
        debug_assert!(
            sid_map.is_empty() || sid_map.len() as u64 == value_dynamic,
            "a recorded sid map covers every value-producing dynamic instruction"
        );
        observer.on_event(&Event::GoldenRun {
            benchmark: module.name.clone(),
            dynamic: golden.profile.dynamic,
            value_dynamic,
            coverage: golden.profile.coverage(),
        });

        // 3a. The gate predicts from this run's execution counts.
        let decision = self
            .prune
            .map(|(table, gate)| gate.decide(table, &golden.profile));
        if let Some(d) = &decision {
            observer.on_event(&Event::Message {
                text: d.to_string(),
            });
        }
        // An empty table skips nothing, and its golden run kept no sids.
        let filter = match (self.prune, &decision) {
            (Some((table, _)), Some(d)) if d.applied && masked_cells > 0 => Some(table),
            _ => None,
        };

        // The static instruction a fault targets; a uniform one's comes
        // from the sid map, recorded whenever a stage reads it.
        let sid_of = |inj: &Injection| match inj.target {
            InjectionTarget::StaticInstance { sid, .. } => sid.0,
            InjectionTarget::DynamicIndex(k) => sid_map[k as usize],
        };
        // 2. Sampler, then 3b. the filter's verdict. The fault is sampled
        // before the skip decision, so pruning never changes which fault
        // a trial measures. Each trial is sampled where it runs (and, for
        // fork planning, up front): a draw is a few RNG steps, so a
        // per-trial table would keep nothing worth its memory.
        let sample = |t: u32| -> Fault {
            let (inj, site) = match &per_instr {
                Some(p) => p.sample(t, &cfg),
                None => {
                    let mut rng =
                        Pcg64::new(cfg.seed ^ (t as u64).wrapping_mul(0x9e3779b97f4a7c15));
                    let inj = sample_fault_burst(&mut rng, value_dynamic, cfg.burst);
                    let InjectionTarget::DynamicIndex(site) = inj.target else {
                        unreachable!("the uniform sampler targets dynamic sites")
                    };
                    (inj, Some(site))
                }
            };
            let skip = filter.and_then(|table| {
                let sid = sid_of(&inj);
                table.is_masked(sid, inj.bit).then_some(sid)
            });
            Fault { inj, site, skip }
        };

        // 4. Executor set-up: replay the golden run once, freezing the
        // machine at fork points planned over the trials that execute.
        let points = match self.snapshots {
            0 => Vec::new(),
            k => {
                let kept: Vec<u64> = (0..trials)
                    .map(&sample)
                    .filter(|f| f.skip.is_none())
                    .filter_map(|f| f.site)
                    .collect();
                plan_fork_points(&kept, k)
            }
        };
        // Convergence exits would cut the suffix the taint hook observes.
        let converge = !self.trace;
        let (snaps, read_sets, masks) = if points.is_empty() {
            (Vec::new(), None, None)
        } else {
            let _span = Span::enter(observer, "capture");
            let eng = Engine::new(module, limits, code.as_ref());
            // Convergence needs each checkpoint's future read set, from
            // the capture run's memory-access trace.
            let (replay, snaps, read_sets) = if converge {
                let (replay, snaps, rs) = eng.run_with_snapshots_read_sets(&bits, &points);
                (replay, snaps, Some(rs))
            } else {
                let (replay, snaps) = eng.run_with_snapshots(&bits, &points);
                (replay, snaps, None)
            };
            debug_assert_eq!(replay.output, golden.output);
            debug_assert_eq!(
                snaps.len(),
                points.len(),
                "every fork point precedes a kept site, so all are reached"
            );
            // Static live-register masks widen the convergence check: a
            // benign fault parked in a dead register would otherwise keep
            // the register file unequal forever.
            let masks = converge.then(|| peppa_analysis::converge_masks(module));
            (snaps, read_sets, masks)
        };
        for (i, s) in snaps.iter().enumerate() {
            observer.on_event(&Event::SnapshotCaptured {
                index: i as u32,
                value_dynamic: s.value_dynamic(),
                dynamic: s.dynamic(),
                bytes: s.bytes(),
            });
        }

        let faulty_limits = ExecLimits {
            max_dynamic: golden
                .profile
                .dynamic
                .saturating_mul(cfg.hang_factor)
                .saturating_add(10_000),
            ..limits
        };

        // 4–5. One trial: skip, run from entry, or resume; traced trials
        // run under the taint hook on the same engine entry points. A
        // fault that never fires runs from entry and reports the site
        // past the golden run's last.
        let run_trial = |t: u32, scratch: &mut ResumeScratch| -> TrialReport {
            let Fault { inj, site, skip } = sample(t);
            let judge = |faulty: &RunOutput| {
                debug_assert_eq!(
                    faulty.fault_activated,
                    site.is_some(),
                    "trial {t}: a fault fires exactly when it has a site"
                );
                classify(&golden, faulty)
            };
            let mut report = TrialReport {
                trial: t,
                outcome: FaultOutcome::Benign,
                site: site.unwrap_or(value_dynamic),
                bit: inj.bit,
                latency_ns: 0,
                exec: Exec::Full,
                taint: None,
            };
            if let Some(sid) = skip {
                report.exec = Exec::Skipped(sid);
                return report;
            }
            let eng = Engine::new(module, faulty_limits, code.as_ref());
            let fork = site.and_then(|s| fork_point_for(&points, s));
            if let Some(i) = fork {
                report.exec = Exec::Resumed {
                    prefix: snaps[i].dynamic(),
                    converged: false,
                };
            }
            let t0 = Instant::now();
            report.outcome = if self.trace {
                let mut hook = match fork {
                    None => TaintHook::new(module),
                    Some(i) => TaintHook::resumed(module, &snaps[i]),
                };
                let faulty = match fork {
                    None => eng.run_with_hook(&bits, Some(inj), &mut hook),
                    Some(i) => eng.resume_from_with_hook(&snaps[i], Some(inj), &mut hook),
                };
                report.taint = Some((sid_of(&inj), hook.finish()));
                judge(&faulty)
            } else if let Some(i) = fork {
                match eng.resume_trial_amortized(
                    scratch,
                    &snaps[i],
                    Some(inj),
                    &snaps[i + 1..],
                    masks.as_ref(),
                    read_sets.as_ref(),
                ) {
                    TrialResume::Completed(faulty) => judge(&faulty),
                    TrialResume::Converged {
                        checkpoint_dynamic,
                        dynamic_at_exit,
                        output_matches,
                        ..
                    } => {
                        if let Exec::Resumed { converged, .. } = &mut report.exec {
                            *converged = true;
                        }
                        // The continuation from the matched checkpoint is
                        // exactly golden's. Project the final dynamic
                        // count so the hang budget stays bit-exact with
                        // the full execution (the VM hangs when `dynamic
                        // > max_dynamic`).
                        let projected = dynamic_at_exit
                            .saturating_add(golden.profile.dynamic - checkpoint_dynamic);
                        if projected > faulty_limits.max_dynamic {
                            FaultOutcome::Hang
                        } else if output_matches {
                            FaultOutcome::Benign
                        } else {
                            FaultOutcome::Sdc
                        }
                    }
                }
            } else {
                judge(&eng.run_numeric_amortized(scratch, inputs, Some(inj)))
            };
            report.latency_ns = t0.elapsed().as_nanos() as u64;
            report
        };

        // 6. Aggregator.
        let (mut sdc, mut crash, mut hang, mut benign) = (0, 0, 0, 0);
        let mut skipped = 0;
        let mut stats = SnapshotStats {
            snapshots: snaps.len() as u32,
            bytes: snaps.iter().map(|s| s.bytes()).sum(),
            ..Default::default()
        };
        let mut traced: Vec<Option<TracedTrial>> = Vec::new();
        if self.trace {
            traced.resize_with(trials as usize, || None);
        }
        let mut instr_sdc = vec![0u32; per_instr.as_ref().map_or(0, |p| p.work.len())];
        {
            let _span = Span::enter(observer, "trials");
            fan_out(trials, cfg.threads, run_trial, |r: TrialReport| {
                r.emit(observer);
                match r.outcome {
                    FaultOutcome::Sdc => sdc += 1,
                    FaultOutcome::Crash => crash += 1,
                    FaultOutcome::Hang => hang += 1,
                    FaultOutcome::Benign => benign += 1,
                }
                if let (FaultOutcome::Sdc, Some(p)) = (r.outcome, &per_instr) {
                    instr_sdc[p.instr_of(r.trial)] += 1;
                }
                match r.exec {
                    Exec::Skipped(_) => skipped += 1,
                    Exec::Full => stats.full_runs += 1,
                    Exec::Resumed { prefix, converged } => {
                        stats.restores += 1;
                        stats.prefix_instrs_saved += prefix;
                        stats.converged_exits += converged as u64;
                    }
                }
                if let Some((sid, report)) = r.taint {
                    traced[r.trial as usize] = Some(TracedTrial {
                        trial: r.trial,
                        outcome: r.outcome,
                        site: r.site,
                        bit: r.bit,
                        sid,
                        report,
                    });
                }
            });
        }

        if self.snapshots > 0 {
            observer.on_event(&Event::SnapshotStats {
                snapshots: stats.snapshots,
                bytes: stats.bytes,
                restores: stats.restores,
                full_runs: stats.full_runs,
                converged_exits: stats.converged_exits,
                prefix_instrs_saved: stats.prefix_instrs_saved,
            });
        }
        observer.on_event(&Event::CampaignFinished {
            trials,
            sdc,
            crash,
            hang,
            benign,
            wall_ns: start.elapsed().as_nanos() as u64,
        });
        observer.flush();

        Ok(PlanResult {
            campaign: CampaignResult {
                trials,
                sdc,
                crash,
                hang,
                benign,
                sdc_ci: binomial_ci(sdc as u64, trials as u64, Z_95),
                // Each executed trial is one (partial) program execution,
                // plus the golden run.
                executions: trials as u64 - skipped + 1,
                golden_dynamic: golden.profile.dynamic,
            },
            skipped,
            decision,
            stats,
            traced: traced.into_iter().flatten().collect(),
            per_instr: per_instr
                .map_or(Vec::new(), |p| p.work.into_iter().zip(instr_sdc).collect()),
        })
    }
}

/// Runs `trial(t)` for every `t < trials` on up to `threads` workers
/// (0 = all cores), each with its own [`ResumeScratch`], and hands every
/// result to `sink` on the calling thread. Workers take contiguous
/// chunks and report over a bounded channel, so the sink sees a
/// single-threaded stream and a slow sink back-pressures the workers
/// instead of letting reports pile up.
pub(crate) fn fan_out<R: Send>(
    trials: u32,
    threads: usize,
    trial: impl Fn(u32, &mut ResumeScratch) -> R + Sync,
    mut sink: impl FnMut(R),
) {
    let n = trials as usize;
    let nthreads = effective_threads(threads, n);
    if nthreads <= 1 {
        let mut scratch = ResumeScratch::new();
        (0..trials).for_each(|t| sink(trial(t, &mut scratch)));
        return;
    }
    let chunk = n.div_ceil(nthreads);
    let (tx, rx) = std::sync::mpsc::sync_channel::<R>(1024);
    crossbeam::thread::scope(|s| {
        for lo in (0..n).step_by(chunk) {
            let (trial, tx) = (&trial, tx.clone());
            s.spawn(move |_| {
                let mut scratch = ResumeScratch::new();
                for t in lo..(lo + chunk).min(n) {
                    // The receiver outlives the scope; send only fails if
                    // the collector was dropped, when reporting is moot.
                    let _ = tx.send(trial(t as u32, &mut scratch));
                }
            });
        }
        drop(tx);
        rx.iter().for_each(&mut sink);
    })
    .expect("campaign worker panicked");
}

/// Worker count for `work_items` items: `requested`, or every core when
/// 0, never more than there is work.
fn effective_threads(requested: usize, work_items: usize) -> usize {
    let n = match requested {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    };
    n.clamp(1, work_items.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use peppa_vm::Vm;

    /// `base` is computed once before the loop, the output's sum once
    /// after it.
    const SRC: &str = r#"
        fn main(n: int) {
            let base = n * 5;
            let acc = 0;
            for (i = 0; i < n; i = i + 1) {
                acc = acc + i * 3;
            }
            output acc + base;
        }
    "#;

    /// Each recursive call's result is written when its frame pops, but
    /// its instance is counted when the call is dispatched.
    const RECURSIVE: &str = r#"
        fn fib(n: int) -> int {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        fn pow2(n: int) -> int {
            if (n <= 0) { return 1; }
            return pow2(n - 1) * 2;
        }
        fn main(n: int) { output fib(n) + pow2(n); }
    "#;

    fn golden_hook(m: &Module, inputs: &[f64]) -> SidMapHook {
        let mut hook = SidMapHook::new(m.num_instrs);
        let bits = encode_inputs(m.entry_func(), inputs);
        Vm::new(m, ExecLimits::default()).run_with_hook(&bits, None, &mut hook);
        hook
    }

    /// Counts results and notes the one a fault corrupts.
    #[derive(Default)]
    struct FaultedSite {
        results: u64,
        faulted: Option<u64>,
    }

    impl ExecHook for FaultedSite {
        const ENABLED: bool = true;

        fn fault_injected(&mut self, _: &Instr, _: u64) {
            self.faulted = Some(self.results);
        }

        fn def_value(&mut self, _: &Instr, _: u64) {
            self.results += 1;
        }
    }

    #[test]
    fn every_instance_sits_where_the_vm_faults_it() {
        for (src, input) in [(SRC, 9.0), (RECURSIVE, 6.0)] {
            let m = peppa_lang::compile(src, "sites").unwrap();
            let s = InstrSampler::new(&m, None, 1, &golden_hook(&m, &[input]));
            let bits = encode_inputs(m.entry_func(), &[input]);
            let mut unfaulted = 0;
            for &sid in &s.work {
                let sites = &s.sites[s.first[sid.0 as usize]..s.first[sid.0 as usize + 1]];
                for (instance, &site) in sites.iter().enumerate() {
                    let inj = Injection {
                        target: InjectionTarget::StaticInstance {
                            sid,
                            instance: instance as u64,
                        },
                        bit: 3,
                        burst: 0,
                    };
                    let mut hook = FaultedSite::default();
                    Vm::new(&m, ExecLimits::default()).run_with_hook(&bits, Some(inj), &mut hook);
                    assert_eq!(
                        hook.faulted.unwrap_or(NOWHERE),
                        site,
                        "{sid:?} instance {instance}"
                    );
                    unfaulted += (site == NOWHERE) as u32;
                }
            }
            // Recursion leaves some call instances on no result.
            assert_eq!(unfaulted > 0, src == RECURSIVE, "{unfaulted}");
        }
    }

    #[test]
    fn samples_measure_executed_value_instructions() {
        let m = peppa_lang::compile(SRC, "sites").unwrap();
        let hook = golden_hook(&m, &[9.0]);
        let s = InstrSampler::new(&m, None, 6, &hook);
        let cfg = CampaignConfig {
            trials: 6,
            seed: 3,
            ..Default::default()
        };
        let golden = Vm::new(&m, ExecLimits::default()).run_numeric(&[9.0], None);
        for sid in &s.work {
            assert!(golden.profile.exec_counts[sid.0 as usize] > 0);
        }
        assert_eq!(s.trials(), s.work.len() as u32 * 6);
        for t in 0..s.trials() {
            let (inj, site) = s.sample(t, &cfg);
            let InjectionTarget::StaticInstance { sid, instance } = inj.target else {
                panic!("per-instruction trials target an instance");
            };
            assert_eq!(sid, s.work[s.instr_of(t)]);
            let site = site.expect("without recursion every instance has a site");
            assert_eq!(hook.sids[site as usize], sid.0);
            let earlier = hook.sids[..site as usize].iter().filter(|&&x| x == sid.0);
            assert_eq!(earlier.count() as u64, instance, "trial {t}");
        }
    }

    #[test]
    fn instance_before_the_first_fork_point_runs_from_entry() {
        let m = peppa_lang::compile(SRC, "early").unwrap();
        let limits = ExecLimits::default();
        let hook = golden_hook(&m, &[20.0]);
        let (early, late) = (InstrId(hook.sids[0]), InstrId(*hook.sids.last().unwrap()));
        let s = InstrSampler::new(&m, Some(&[early, late]), 8, &hook);
        let cfg = CampaignConfig {
            trials: 8,
            seed: 1,
            ..Default::default()
        };
        let golden = Vm::new(&m, limits).run_numeric(&[20.0], None);
        // Fork points planned over the late instruction's trials alone
        // all follow every instance of the early one.
        let late_sites: Vec<u64> = (8..16).filter_map(|t| s.sample(t, &cfg).1).collect();
        let points = plan_fork_points(&late_sites, DEFAULT_SNAPSHOTS);
        let bits = encode_inputs(m.entry_func(), &[20.0]);
        let (_, snaps) = Vm::new(&m, limits).run_with_snapshots(&bits, &points);
        let code = CompiledModule::lower(&m);
        let eng = Engine::compiled(&m, &code, limits);
        let mut scratch = ResumeScratch::new();
        for t in 0..8 {
            let (inj, site) = s.sample(t, &cfg);
            assert_eq!(fork_point_for(&points, site.unwrap()), None, "trial {t}");
            // A resumed trial leaves the worker's image dirty first.
            let (late_inj, late_site) = s.sample(8 + t, &cfg);
            let i = fork_point_for(&points, late_site.unwrap()).unwrap();
            eng.resume_trial_amortized(&mut scratch, &snaps[i], Some(late_inj), &[], None, None);
            let faulty = eng.run_numeric_amortized(&mut scratch, &[20.0], Some(inj));
            let oracle = Vm::new(&m, limits).run_numeric(&[20.0], Some(inj));
            assert!(faulty.fault_activated, "trial {t}");
            assert_eq!(classify(&golden, &faulty), classify(&golden, &oracle));
            assert_eq!(faulty.output, oracle.output, "trial {t}");
        }
    }
}
