//! The operations of the three workloads, each through the public calls
//! the `peppa` CLI makes, on one FI worker.

use crate::inputs::{Case, CAMPAIGN_TRIALS, SEARCH_FINAL_TRIALS, SEARCH_GENERATIONS};
use crate::record::{timed, Call, Log, Seen, Timed};
use peppa_x::analysis::{deviation::combined_skip_cells, optimize, FaultReach, OptLevel};
use peppa_x::apps::benchmark_by_name;
use peppa_x::core::{derive_sdc_scores, fuzz_small_input, PeppaConfig, PeppaX};
use peppa_x::inject::{
    run_campaign_pruned_gated_observed, run_campaign_snapshotted_observed, CampaignConfig,
    CampaignResult, PruneGate, SnapshotConfig, StaticPrune,
};
use peppa_x::vm::{EngineKind, ExecLimits};
use std::collections::BTreeMap;
use std::time::Instant;

/// One worker: `nproc` is 2 on the reference VM, and a second worker
/// would make wall time depend on what else the machine runs.
pub const THREADS: usize = 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `-O2`, compiled engine, snapshot/fork trials at the default K.
    Ship,
    /// `-O0`, compiled engine, reach ∪ deviation table behind the gate.
    Prune,
    /// `PeppaX::prepare` + `search` at the CLI defaults.
    Search,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        match s {
            "ship" => Some(Workload::Ship),
            "prune" => Some(Workload::Prune),
            "search" => Some(Workload::Search),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ship => "ship",
            Workload::Prune => "prune",
            Workload::Search => "search",
        }
    }
}

/// What an operation answered, as the reference gate compares it.
#[derive(Clone, Debug, PartialEq)]
pub struct Answer {
    /// The campaign's input (for `search`, the SDC-bound input found).
    pub input: Vec<f64>,
    /// SDC, crash, hang, benign.
    pub outcomes: [u32; 4],
}

impl Answer {
    fn of(input: &[f64], r: &CampaignResult) -> Answer {
        Answer {
            input: input.to_vec(),
            outcomes: [r.sdc, r.crash, r.hang, r.benign],
        }
    }

    pub fn sdc_prob(&self) -> f64 {
        let trials: u32 = self.outcomes.iter().sum();
        self.outcomes[0] as f64 / trials.max(1) as f64
    }
}

/// One operation of one pass.
pub struct Op {
    pub program: &'static str,
    pub start: Instant,
    /// The answer arrived; reference checks come after this.
    pub end: Instant,
    /// Start of the first trial or GA generation.
    pub setup_end: Instant,
    pub calls: Vec<Timed>,
    pub seen: Seen,
    pub answer: Result<Answer, String>,
    /// Exact work counters, summed into the pass's counts.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Op {
    fn new(program: &'static str) -> Op {
        let start = Instant::now();
        Op {
            program,
            start,
            end: start,
            setup_end: start,
            calls: Vec::new(),
            seen: Seen::default(),
            answer: Err("not run".into()),
            counts: BTreeMap::new(),
        }
    }

    pub fn wall_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    pub fn setup_s(&self) -> f64 {
        (self.setup_end - self.start).as_secs_f64()
    }

    fn campaign_counts(&mut self, r: &CampaignResult) {
        for (k, v) in [
            ("inject.trials", r.trials as u64),
            ("inject.sdc", r.sdc as u64),
            ("inject.crash", r.crash as u64),
            ("inject.hang", r.hang as u64),
            ("inject.benign", r.benign as u64),
        ] {
            self.counts.insert(k, v);
        }
    }

    /// Closes the operation when its answer (or error) arrived.
    fn finish(mut self, log: &Log, answer: Result<Answer, String>) -> Op {
        self.end = Instant::now();
        self.seen = log.drain();
        self.answer = answer;
        self
    }
}

fn campaign_config(seed: u64, trials: u32) -> CampaignConfig {
    CampaignConfig {
        trials,
        seed,
        threads: THREADS,
        engine: EngineKind::Compiled,
        ..Default::default()
    }
}

/// `peppa inject --bench P --input I -O2 --engine compiled --snapshots 16`.
pub fn ship(case: &Case, seed: u64, trials: u32, log: &Log) -> Op {
    let mut op = Op::new(case.program);
    let result = (|| -> Result<_, String> {
        let bench = timed(&mut op.calls, Call::Compile, || {
            benchmark_by_name(case.program)
        })
        .ok_or("unknown program")?;
        let o2 = timed(&mut op.calls, Call::Optimize, || {
            optimize(&bench.module, OptLevel::O2).module
        });
        let r = timed(&mut op.calls, Call::Campaign { snapshots: true }, || {
            run_campaign_snapshotted_observed(
                &o2,
                case.input,
                ExecLimits::default(),
                campaign_config(seed, trials),
                SnapshotConfig::default(),
                log,
            )
        })
        .map_err(|e| e.to_string())?;
        Ok(r)
    })();
    let answer = result
        .as_ref()
        .map(|r| Answer::of(case.input, &r.campaign))
        .map_err(|e: &String| e.clone());
    let mut op = op.finish(log, answer);
    op.setup_end = op.seen.first_trial.unwrap_or(op.end);
    if let Ok(r) = result {
        op.campaign_counts(&r.campaign);
        let s = &r.stats;
        for (k, v) in [
            ("vm.golden_dyn", r.campaign.golden_dynamic),
            ("vm.snapshots", s.snapshots as u64),
            ("vm.snapshot_bytes", s.bytes),
            ("vm.restores", s.restores),
            ("vm.full_runs", s.full_runs),
            ("vm.converged_exits", s.converged_exits),
            ("vm.prefix_saved", s.prefix_instrs_saved),
        ] {
            op.counts.insert(k, v);
        }
    }
    op
}

/// `-O0` campaign behind `PruneGate::default()` with the reach ∪
/// deviation table for the campaign's own input, as `repro baseline`
/// and `repro hybrid` build it.
pub fn prune(case: &Case, seed: u64, trials: u32, log: &Log) -> Op {
    let mut op = Op::new(case.program);
    let limits = ExecLimits::default();
    let cfg = campaign_config(seed, trials);
    let result = (|| -> Result<_, String> {
        let bench = timed(&mut op.calls, Call::Compile, || {
            benchmark_by_name(case.program)
        })
        .ok_or("unknown program")?;
        let m = &bench.module;
        let fr = timed(&mut op.calls, Call::Reach, || FaultReach::analyze(m));
        let cells = timed(&mut op.calls, Call::Deviation, || {
            combined_skip_cells(m, &fr, case.input, limits, cfg.burst)
        });
        let prune = StaticPrune {
            cells,
            burst: cfg.burst,
        };
        let g = timed(&mut op.calls, Call::Campaign { snapshots: false }, || {
            run_campaign_pruned_gated_observed(
                m,
                case.input,
                limits,
                cfg,
                &prune,
                PruneGate::default(),
                log,
            )
        })
        .map_err(|e| e.to_string())?;
        Ok((g, fr.widths, prune.cells))
    })();
    let answer = result
        .as_ref()
        .map(|(g, _, _)| Answer::of(case.input, &g.result.campaign))
        .map_err(|e: &String| e.clone());
    let mut op = op.finish(log, answer);
    op.setup_end = op.seen.first_trial.unwrap_or(op.end);
    if let Ok((g, widths, cells)) = result {
        op.campaign_counts(&g.result.campaign);
        // Cells of value-producing instructions only: 64 per value sid.
        let value = || widths.iter().zip(&cells).filter(|(&w, _)| w != 0);
        let masked: u64 = value().map(|(_, c)| c.count_ones() as u64).sum();
        for (k, v) in [
            ("vm.golden_dyn", g.result.campaign.golden_dynamic),
            ("analysis.masked_cells", masked),
            ("analysis.total_cells", 64 * value().count() as u64),
            ("inject.skipped", g.result.skipped),
            ("inject.gate_engaged", g.decision.applied as u64),
        ] {
            op.counts.insert(k, v);
        }
    }
    op
}

/// The search configuration `peppa search --engine compiled --seed S`
/// builds, on one worker.
pub fn search_config(seed: u64) -> PeppaConfig {
    PeppaConfig {
        seed,
        final_fi_trials: SEARCH_FINAL_TRIALS,
        threads: THREADS,
        engine: EngineKind::Compiled,
        ..Default::default()
    }
}

/// `peppa search --bench P --engine compiled`. Untraced passes call
/// `PeppaX::prepare`; traced passes call its two steps one by one to
/// time them apart, and the run checks both give the same answer.
pub fn search(program: &'static str, seed: u64, traced: bool, log: &Log) -> Op {
    let mut op = Op::new(program);
    let cfg = search_config(seed);
    let result = (|| -> Result<_, String> {
        let bench = timed(&mut op.calls, Call::Compile, || benchmark_by_name(program))
            .ok_or("unknown program")?;
        let px = if traced {
            let small = timed(&mut op.calls, Call::SmallInput, || {
                fuzz_small_input(&bench, cfg.limits, cfg.small_input)
            })
            .map_err(|e| e.to_string())?;
            // The arguments `PeppaX::prepare` passes.
            let scores = timed(&mut op.calls, Call::Distribution, || {
                derive_sdc_scores(
                    &bench,
                    &small.input,
                    cfg.limits,
                    cfg.distribution_trials,
                    cfg.seed ^ 0xd157,
                    true,
                    cfg.threads,
                )
            })
            .map_err(|e| e.to_string())?;
            PeppaX {
                bench: &bench,
                cfg,
                small,
                scores,
            }
        } else {
            PeppaX::prepare(&bench, cfg).map_err(|e| e.to_string())?
        };
        let report = timed(&mut op.calls, Call::Search, || {
            px.search_observed(&[SEARCH_GENERATIONS], log)
        });
        let bound = report.sdc_bound();
        let counts = [
            ("core.small_input_runs", px.small.attempts),
            ("core.distribution_trials", px.scores.trials),
            (
                "core.representatives",
                px.scores.representatives.len() as u64,
            ),
            ("ga.evaluations", report.ga_evaluations),
            (
                "ga.cost_dyn",
                bound.search_cost_dynamic - report.analysis_cost_dynamic,
            ),
        ];
        Ok((
            Answer::of(&bound.input, &bound.sdc),
            counts,
            bound.sdc.clone(),
        ))
    })();
    let answer = result
        .as_ref()
        .map(|(a, _, _)| a.clone())
        .map_err(|e: &String| e.clone());
    let mut op = op.finish(log, answer);
    // Set-up is build + prepare; the GA starts when the search call does.
    op.setup_end = op
        .calls
        .iter()
        .find(|t| t.call == Call::Search)
        .map_or(op.end, |t| t.start);
    if let Ok((_, counts, campaign)) = result {
        op.counts.extend(counts);
        op.counts.insert("ga.cache_hits", op.seen.cache_hits);
        op.campaign_counts(&campaign);
    }
    op
}

/// One pass: the workload's operations, run back to back, and the
/// duration of the host kernel run before each of them.
pub struct Pass {
    pub ops: Vec<Op>,
    pub kernel_s: Vec<f64>,
}

/// Runs one pass of a workload.
pub fn pass(w: Workload, seed: u64, traced: bool) -> Pass {
    let log = Log::new(traced);
    let mut kernel_s = Vec::new();
    let mut each = |run: &dyn Fn() -> Op| {
        kernel_s.push(crate::host::kernel());
        run()
    };
    let ops = match w {
        Workload::Ship => crate::inputs::CASES
            .iter()
            .map(|c| each(&|| ship(c, seed, CAMPAIGN_TRIALS, &log)))
            .collect(),
        Workload::Prune => crate::inputs::CASES
            .iter()
            .map(|c| each(&|| prune(c, seed, CAMPAIGN_TRIALS, &log)))
            .collect(),
        Workload::Search => crate::inputs::PROGRAMS
            .iter()
            .map(|p| each(&|| search(p, seed, traced, &log)))
            .collect(),
    };
    Pass { ops, kernel_s }
}
