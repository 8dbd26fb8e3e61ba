//! Per-instruction SDC probability measurement (§3.1.4: "we inject 100
//! random faults to each static instruction of each benchmark on each
//! input").
//!
//! For a static instruction `sid`, each trial picks a uniformly random
//! dynamic *instance* of `sid` from the golden run and a random bit of
//! its result, then classifies the outcome. Instructions that never
//! execute under the input, or that produce no value (stores, outputs,
//! void calls), have no measurement.
//!
//! [`per_instruction_sdc`] is one [`CampaignPlan`] with the
//! per-instruction sampler, on the compiled engine, resuming each trial
//! from the latest of [`DEFAULT_SNAPSHOTS`] golden-prefix snapshots
//! before the result its fault corrupts. Under recursion that is not
//! always the instance's own result, and some instances are never
//! faulted; the plan places each one where the VM faults it, and runs
//! the unfaulted ones from entry. The plan's golden run, hang budget,
//! executor and aggregator are the ones every campaign uses, so
//! outcomes are bit-identical to running each trial from entry:
//! `crates/core/tests/engine_invariance.rs` keeps a
//! fresh-interpreter-per-trial loop as the oracle, on the benchmarks
//! and on a recursive program.

use crate::campaign::{CampaignConfig, CampaignError};
use crate::plan::{CampaignPlan, DEFAULT_SNAPSHOTS};
use peppa_ir::{InstrId, Module};
use peppa_obs::NullObserver;
use peppa_vm::ExecLimits;
use serde::{Deserialize, Serialize};

/// Configuration for per-instruction measurement.
#[derive(Debug, Clone, Copy)]
pub struct PerInstrConfig {
    /// FI trials per instruction.
    pub trials_per_instr: u32,
    pub seed: u64,
    pub hang_factor: u64,
    /// Worker threads; 0 = all cores.
    pub threads: usize,
}

impl Default for PerInstrConfig {
    fn default() -> Self {
        PerInstrConfig {
            trials_per_instr: 100,
            seed: 0xd157,
            hang_factor: 8,
            threads: 0,
        }
    }
}

/// Per-instruction measurement for one input.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerInstrResult {
    /// `sdc_prob[sid]`: measured SDC probability, or `None` when the
    /// instruction was not measurable (never executed / no result value).
    pub sdc_prob: Vec<Option<f64>>,
    /// Trials actually spent.
    pub total_trials: u64,
    /// Program executions consumed (trials + golden).
    pub executions: u64,
    /// Dynamic instructions of the golden run (each trial re-executes
    /// about as many).
    pub golden_dynamic: u64,
}

impl PerInstrResult {
    /// The measured probabilities for a set of instruction ids, skipping
    /// unmeasured ones.
    pub fn probs_for(&self, sids: &[InstrId]) -> Vec<f64> {
        sids.iter()
            .filter_map(|s| self.sdc_prob[s.0 as usize])
            .collect()
    }

    /// Ids of all measured instructions.
    pub fn measured_sids(&self) -> Vec<InstrId> {
        self.sdc_prob
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_some())
            .map(|(i, _)| InstrId(i as u32))
            .collect()
    }
}

/// Measures SDC probability for the given instructions (or for every
/// measurable instruction if `subset` is `None`).
pub fn per_instruction_sdc(
    module: &Module,
    inputs: &[f64],
    limits: ExecLimits,
    cfg: PerInstrConfig,
    subset: Option<&[InstrId]>,
) -> Result<PerInstrResult, CampaignError> {
    let campaign = CampaignConfig {
        trials: cfg.trials_per_instr,
        seed: cfg.seed,
        hang_factor: cfg.hang_factor,
        burst: 0,
        threads: cfg.threads,
        ..Default::default()
    };
    let r = CampaignPlan::new(module, inputs, limits, campaign)
        .per_instruction(subset)
        .snapshots(DEFAULT_SNAPSHOTS)
        .run(&NullObserver)?;
    let mut sdc_prob = vec![None; module.num_instrs];
    for &(sid, sdc) in &r.per_instr {
        sdc_prob[sid.0 as usize] = Some(sdc as f64 / cfg.trials_per_instr as f64);
    }
    Ok(PerInstrResult {
        sdc_prob,
        total_trials: r.campaign.trials as u64,
        executions: r.campaign.executions,
        golden_dynamic: r.campaign.golden_dynamic,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use peppa_obs::Observer;

    const SRC: &str = r#"
        fn main(n: int) {
            let acc = 0;
            for (i = 0; i < n; i = i + 1) {
                let masked = min(i, 1);      // heavy masking: result 0/1
                let direct = i * 3;          // flips propagate linearly
                acc = acc + masked + direct;
            }
            output acc;
        }
    "#;

    fn module() -> Module {
        peppa_lang::compile(SRC, "pi").unwrap()
    }

    #[test]
    fn measures_only_executed_value_instrs() {
        let m = module();
        let cfg = PerInstrConfig {
            trials_per_instr: 20,
            seed: 3,
            ..Default::default()
        };
        let r = per_instruction_sdc(&m, &[10.0], ExecLimits::default(), cfg, None).unwrap();
        assert_eq!(r.sdc_prob.len(), m.num_instrs);
        let measured = r.measured_sids();
        assert!(!measured.is_empty());
        // `output` has no result; it must be unmeasured.
        for (_, ins) in m.all_instrs() {
            if ins.result.is_none() {
                assert!(r.sdc_prob[ins.sid.0 as usize].is_none());
            }
        }
    }

    #[test]
    fn subset_restricts_work() {
        let m = module();
        let cfg = PerInstrConfig {
            trials_per_instr: 10,
            seed: 3,
            ..Default::default()
        };
        let all = per_instruction_sdc(&m, &[10.0], ExecLimits::default(), cfg, None).unwrap();
        let some: Vec<InstrId> = all.measured_sids().into_iter().take(2).collect();
        let r = per_instruction_sdc(&m, &[10.0], ExecLimits::default(), cfg, Some(&some)).unwrap();
        assert_eq!(r.measured_sids(), some);
        assert_eq!(r.total_trials, 20);
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let m = module();
        let cfg = PerInstrConfig {
            trials_per_instr: 30,
            seed: 9,
            ..Default::default()
        };
        let r = per_instruction_sdc(&m, &[8.0], ExecLimits::default(), cfg, None).unwrap();
        for p in r.sdc_prob.iter().flatten() {
            assert!((0.0..=1.0).contains(p));
        }
    }

    #[test]
    fn deterministic_across_threads() {
        let m = module();
        let mk = |threads| PerInstrConfig {
            trials_per_instr: 15,
            seed: 4,
            hang_factor: 8,
            threads,
        };
        let a = per_instruction_sdc(&m, &[10.0], ExecLimits::default(), mk(1), None).unwrap();
        let b = per_instruction_sdc(&m, &[10.0], ExecLimits::default(), mk(4), None).unwrap();
        assert_eq!(a.sdc_prob, b.sdc_prob);
    }

    /// A loop, an instruction that never executes for `n >= 0`, and
    /// instructions that execute exactly once, after the loop.
    const ONCE: &str = r#"
        fn main(n: int) {
            let acc = 0;
            for (i = 0; i < n; i = i + 1) {
                acc = acc + i * 3;
            }
            if (n < 0) {
                acc = acc * 5;
            }
            output acc * 7;
        }
    "#;

    /// `ONCE`'s value-producing instructions by golden execution count.
    fn once_sids(m: &Module, count: impl Fn(u64) -> bool) -> Vec<InstrId> {
        let golden = peppa_vm::Vm::new(m, ExecLimits::default()).run_numeric(&[12.0], None);
        m.all_instrs()
            .into_iter()
            .filter(|(_, i)| {
                i.result.is_some() && count(golden.profile.exec_counts[i.sid.0 as usize])
            })
            .map(|(_, i)| i.sid)
            .collect()
    }

    fn plan_cfg(trials: u32) -> CampaignConfig {
        CampaignConfig {
            trials,
            seed: 5,
            threads: 2,
            ..Default::default()
        }
    }

    #[test]
    fn instruction_executed_once_resumes_from_its_snapshot() {
        let m = peppa_lang::compile(ONCE, "once").unwrap();
        let once = once_sids(&m, |n| n == 1);
        assert!(!once.is_empty());
        let run = |k| {
            CampaignPlan::new(&m, &[12.0], ExecLimits::default(), plan_cfg(40))
                .per_instruction(Some(&once))
                .snapshots(k)
                .run(&NullObserver)
                .unwrap()
        };
        let (entry, snap) = (run(0), run(DEFAULT_SNAPSHOTS));
        assert_eq!(snap.per_instr, entry.per_instr);
        assert_eq!(snap.per_instr.len(), once.len());
        // Every trial hits instance 0 and resumes from a snapshot taken
        // on the way to it.
        assert_eq!(snap.stats.restores, 40 * once.len() as u64);
        assert!(snap.stats.prefix_instrs_saved > 0);
    }

    #[test]
    fn unmeasurable_subset_stays_unmeasured_without_a_capture() {
        struct Kinds(std::sync::Mutex<Vec<String>>);
        impl Observer for Kinds {
            fn on_event(&self, e: &peppa_obs::Event) {
                let kind = match e {
                    peppa_obs::Event::SpanBegin { name, .. } => name.clone(),
                    e => e.kind().to_string(),
                };
                self.0.lock().unwrap().push(kind);
            }
        }
        let m = peppa_lang::compile(ONCE, "once").unwrap();
        let mut subset = once_sids(&m, |n| n == 0);
        assert!(
            !subset.is_empty(),
            "the `n < 0` branch must stay unexecuted"
        );
        // `output` produces no value.
        let (_, output) = m
            .all_instrs()
            .into_iter()
            .find(|(_, i)| i.result.is_none())
            .unwrap();
        subset.push(output.sid);

        let cfg = PerInstrConfig {
            trials_per_instr: 10,
            ..Default::default()
        };
        let r =
            per_instruction_sdc(&m, &[12.0], ExecLimits::default(), cfg, Some(&subset)).unwrap();
        assert!(r.sdc_prob.iter().all(Option::is_none));
        assert_eq!((r.total_trials, r.executions), (0, 1));

        let kinds = Kinds(std::sync::Mutex::new(Vec::new()));
        let p = CampaignPlan::new(&m, &[12.0], ExecLimits::default(), plan_cfg(10))
            .per_instruction(Some(&subset))
            .snapshots(DEFAULT_SNAPSHOTS)
            .run(&kinds)
            .unwrap();
        assert!(p.per_instr.is_empty());
        assert_eq!(p.stats.snapshots, 0);
        let kinds = kinds.0.into_inner().unwrap();
        assert!(kinds.iter().any(|k| k == "golden"));
        assert!(
            !kinds
                .iter()
                .any(|k| k == "capture" || k == "snapshot_captured"),
            "nothing measurable, yet a capture ran: {kinds:?}"
        );
    }

    #[test]
    fn trial_count_overflow_is_a_typed_error() {
        let m = module();
        let cfg = PerInstrConfig {
            trials_per_instr: u32::MAX,
            ..Default::default()
        };
        let e = per_instruction_sdc(&m, &[10.0], ExecLimits::default(), cfg, None).unwrap_err();
        assert!(
            matches!(
                e,
                CampaignError::TooManyTrials {
                    instructions,
                    per_instruction: u32::MAX,
                } if instructions > 1
            ),
            "{e:?}"
        );
    }

    #[test]
    fn masking_shows_in_probabilities() {
        // The `min(i, 1)` result feeds a sum that is bounded; flipping
        // high bits of `i * 3` corrupts the accumulator directly. The
        // direct path should show a clearly higher SDC probability than
        // the most-masked instruction.
        let m = module();
        let cfg = PerInstrConfig {
            trials_per_instr: 60,
            seed: 11,
            ..Default::default()
        };
        let r = per_instruction_sdc(&m, &[12.0], ExecLimits::default(), cfg, None).unwrap();
        let probs: Vec<f64> = r.sdc_prob.iter().flatten().copied().collect();
        let max = probs.iter().cloned().fold(0.0, f64::max);
        let min = probs.iter().cloned().fold(1.0, f64::min);
        assert!(
            max > min,
            "expected heterogeneous per-instruction SDC sensitivity"
        );
    }
}
