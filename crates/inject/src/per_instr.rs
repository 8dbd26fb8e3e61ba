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
//! Every run is on the compiled engine, each worker reusing one memory
//! image across its trials: the engines are bit-identical, and on a
//! short input a fresh interpreter and its 16 MiB image cost far more
//! than the trial itself. `crates/core/tests/engine_invariance.rs` keeps
//! a fresh-interpreter-per-trial loop as the oracle.

use crate::campaign::{check_golden, CampaignError};
use crate::outcome::{classify, FaultOutcome};
use crate::plan::fan_out;
use peppa_ir::{InstrId, Module};
use peppa_stats::Pcg64;
use peppa_vm::{CompiledModule, Engine, ExecLimits, Injection, InjectionTarget, ResumeScratch};
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
    // Lower once; workers share the read-only bytecode.
    let code = CompiledModule::lower(module);
    let golden = check_golden(Engine::compiled(module, &code, limits).run_numeric(inputs, None))?;

    // Which instructions have a result value?
    let mut has_result = vec![false; module.num_instrs];
    for (_, ins) in module.all_instrs() {
        has_result[ins.sid.0 as usize] = ins.result.is_some();
    }

    let targets: Vec<InstrId> = match subset {
        Some(s) => s.to_vec(),
        None => (0..module.num_instrs as u32).map(InstrId).collect(),
    };
    let work: Vec<InstrId> = targets
        .into_iter()
        .filter(|sid| has_result[sid.0 as usize] && golden.profile.exec_counts[sid.0 as usize] > 0)
        .collect();

    let faulty_limits = ExecLimits {
        max_dynamic: golden
            .profile
            .dynamic
            .saturating_mul(cfg.hang_factor)
            .saturating_add(10_000),
        ..limits
    };
    let engine = Engine::compiled(module, &code, faulty_limits);

    let measure_one = |sid: InstrId, scratch: &mut ResumeScratch| -> f64 {
        let count = golden.profile.exec_counts[sid.0 as usize];
        let mut sdc = 0u32;
        for t in 0..cfg.trials_per_instr {
            let mut rng = Pcg64::new(
                cfg.seed ^ (sid.0 as u64) << 32 ^ (t as u64).wrapping_mul(0x2545f4914f6cdd1d),
            );
            let instance = rng.gen_range_u64(count);
            let bit = rng.gen_range_u64(64) as u32;
            let inj = Injection {
                target: InjectionTarget::StaticInstance { sid, instance },
                bit,
                burst: 0,
            };
            let faulty = engine.run_numeric_amortized(scratch, inputs, Some(inj));
            debug_assert!(
                faulty.fault_activated,
                "instance sampled from golden must activate"
            );
            if classify(&golden, &faulty) == FaultOutcome::Sdc {
                sdc += 1;
            }
        }
        sdc as f64 / cfg.trials_per_instr as f64
    };

    let mut sdc_prob = vec![None; module.num_instrs];
    fan_out(
        work.len() as u32,
        cfg.threads,
        |i, scratch| (work[i as usize], measure_one(work[i as usize], scratch)),
        |(sid, p)| sdc_prob[sid.0 as usize] = Some(p),
    );
    let total_trials = work.len() as u64 * cfg.trials_per_instr as u64;
    Ok(PerInstrResult {
        sdc_prob,
        total_trials,
        executions: total_trials + 1,
        golden_dynamic: golden.profile.dynamic,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
