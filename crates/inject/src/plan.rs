//! The campaign pipeline: one staged plan behind every FI campaign.
//!
//! A [`CampaignPlan`] passes through each stage once:
//!
//! 1. **Golden run** on the selected engine. It records the
//!    dynamic-index → sid map only when a stage reads sids: a non-empty
//!    prune table or tracing.
//! 2. **Sampler.** Trial `t` draws its fault from a stream seeded by
//!    `(seed, t)` alone, so results never depend on scheduling or on
//!    when a trial is sampled.
//! 3. **Filter** (with a prune table). The [`PruneGate`] reads the
//!    golden run's execution counts; when pruning engages, a trial whose
//!    sampled cell is provably masked counts Benign without executing.
//! 4. **Executor.** Kept trials run from program entry or, with `K > 0`
//!    snapshots, resume from the latest golden-prefix snapshot before
//!    their fault site. Fork points are planned over the kept trials'
//!    sites. Convergence exits are on unless tracing.
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
use peppa_ir::{Instr, Module};
use peppa_obs::{Event, Observer, Span};
use peppa_stats::{binomial_ci, ci::Z_95, Pcg64};
use peppa_vm::{
    encode_inputs, CompiledModule, Engine, EngineKind, ExecHook, ExecLimits, Injection,
    InjectionTarget, ResumeScratch, TaintHook, TaintReport, TrialResume, Vm,
};
use std::time::Instant;

/// One FI campaign: what it measures ([`CampaignConfig`]) and which
/// optional stages execute it. Built with [`CampaignPlan::new`] and the
/// stage setters, executed with [`CampaignPlan::run`].
#[derive(Clone, Copy)]
pub struct CampaignPlan<'a> {
    module: &'a Module,
    inputs: &'a [f64],
    limits: ExecLimits,
    cfg: CampaignConfig,
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
struct SidMapHook(Vec<u32>);

impl ExecHook for SidMapHook {
    const ENABLED: bool = true;

    #[inline]
    fn def_value(&mut self, ins: &Instr, _bits: u64) {
        self.0.push(ins.sid.0);
    }
}

/// One trial's sampled fault and the filter's verdict on it.
struct Fault {
    inj: Injection,
    site: u64,
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
            prune: None,
            snapshots: 0,
            trace: false,
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
        let start = Instant::now();
        observer.on_event(&Event::CampaignStarted {
            benchmark: module.name.clone(),
            trials: cfg.trials,
            seed: cfg.seed,
            threads: cfg.threads,
            engine: cfg.engine.as_str().to_string(),
        });
        // Lower once per campaign; workers share the read-only bytecode.
        let code = (cfg.engine == EngineKind::Compiled).then(|| CompiledModule::lower(module));
        let bits = encode_inputs(module.entry_func(), inputs);

        // 1. Golden run. The hook does not perturb execution.
        let masked_cells = self.prune.map_or(0, |(table, _)| table.masked_cells());
        let mut sid_map = SidMapHook(Vec::new());
        let golden = {
            let _span = Span::enter(observer, "golden");
            let eng = Engine::new(module, limits, code.as_ref());
            check_golden(if self.trace || masked_cells > 0 {
                eng.run_with_hook(&bits, None, &mut sid_map)
            } else {
                eng.run(&bits, None)
            })?
        };
        let sid_map = sid_map.0;
        let value_dynamic = golden.profile.value_dynamic;
        if value_dynamic == 0 {
            return Err(CampaignError::NoFaultSites);
        }
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

        // 2. Sampler, then 3b. the filter's verdict. The fault is sampled
        // before the skip decision, so pruning never changes which fault
        // a trial measures. Each trial is sampled where it runs (and, for
        // fork planning, up front): a per-trial table allocated after the
        // golden run can split its freed memory image, and the trial arena
        // then takes fresh memory (perfbench `prune` peak RSS rose from 21
        // to 29-36 MB).
        let sample = |t: u32| -> Fault {
            let mut rng = Pcg64::new(cfg.seed ^ (t as u64).wrapping_mul(0x9e3779b97f4a7c15));
            let inj = sample_fault_burst(&mut rng, value_dynamic, cfg.burst);
            let site = match inj.target {
                InjectionTarget::DynamicIndex(k) => k,
                InjectionTarget::StaticInstance { instance, .. } => instance,
            };
            let skip = filter.and_then(|table| {
                let sid = sid_map[site as usize];
                table.is_masked(sid, inj.bit).then_some(sid)
            });
            Fault { inj, site, skip }
        };

        // 4. Executor set-up: replay the golden run once, freezing the
        // machine at fork points planned over the trials that execute.
        let points = match self.snapshots {
            0 => Vec::new(),
            k => {
                let kept: Vec<u64> = (0..cfg.trials)
                    .map(&sample)
                    .filter(|f| f.skip.is_none())
                    .map(|f| f.site)
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
            let vm = Vm::new(module, limits);
            // Convergence needs each checkpoint's future read set, from
            // the capture run's memory-access trace.
            let (replay, snaps, read_sets) = if converge {
                let (replay, snaps, rs) = vm.run_with_snapshots_read_sets(&bits, &points);
                (replay, snaps, Some(rs))
            } else {
                let (replay, snaps) = vm.run_with_snapshots(&bits, &points);
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
        // run under the taint hook on the same engine entry points.
        let run_trial = |t: u32, scratch: &mut ResumeScratch| -> TrialReport {
            let Fault { inj, site, skip } = sample(t);
            let mut report = TrialReport {
                trial: t,
                outcome: FaultOutcome::Benign,
                site,
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
            let fork = fork_point_for(&points, site);
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
                report.taint = Some((sid_map[site as usize], hook.finish()));
                classify(&golden, &faulty)
            } else if let Some(i) = fork {
                match eng.resume_trial_amortized(
                    scratch,
                    &snaps[i],
                    Some(inj),
                    &snaps[i + 1..],
                    masks.as_ref(),
                    read_sets.as_ref(),
                ) {
                    TrialResume::Completed(faulty) => classify(&golden, &faulty),
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
                classify(
                    &golden,
                    &eng.run_numeric_amortized(scratch, inputs, Some(inj)),
                )
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
            traced.resize_with(cfg.trials as usize, || None);
        }
        {
            let _span = Span::enter(observer, "trials");
            fan_out(cfg.trials, cfg.threads, run_trial, |r: TrialReport| {
                r.emit(observer);
                match r.outcome {
                    FaultOutcome::Sdc => sdc += 1,
                    FaultOutcome::Crash => crash += 1,
                    FaultOutcome::Hang => hang += 1,
                    FaultOutcome::Benign => benign += 1,
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
            trials: cfg.trials,
            sdc,
            crash,
            hang,
            benign,
            wall_ns: start.elapsed().as_nanos() as u64,
        });
        observer.flush();

        Ok(PlanResult {
            campaign: CampaignResult {
                trials: cfg.trials,
                sdc,
                crash,
                hang,
                benign,
                sdc_ci: binomial_ci(sdc as u64, cfg.trials as u64, Z_95),
                // Each executed trial is one (partial) program execution,
                // plus the golden run.
                executions: cfg.trials as u64 - skipped + 1,
                golden_dynamic: golden.profile.dynamic,
            },
            skipped,
            decision,
            stats,
            traced: traced.into_iter().flatten().collect(),
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
