//! Error-propagation tracing: how far does one bit flip spread?
//!
//! Supports the paper's §7.1.1 use case (data generation for modeling
//! error propagation, cf. FlipTracker/TensorFI-style studies): for one
//! fault, sample the *state divergence* between the faulty and the
//! golden execution at increasing dynamic-instruction budgets. At each
//! sample point both executions are replayed up to the budget and their
//! memory images and output streams diffed — a deterministic, restart-
//! based alternative to lockstep shadow execution that remains exact
//! even after control-flow divergence.

use crate::outcome::{classify, FaultOutcome};
use peppa_ir::Module;
use peppa_vm::{encode_inputs, ExecLimits, Injection, Vm};
use serde::{Deserialize, Serialize};

/// Divergence between faulty and golden state at one sample point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PropagationSample {
    /// Dynamic-instruction budget of this snapshot.
    pub dynamic: u64,
    /// Memory words whose contents differ.
    pub corrupted_mem_words: usize,
    /// Output words that differ (including length mismatches).
    pub corrupted_outputs: usize,
}

/// A full propagation trace for one fault.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PropagationTrace {
    pub injection_bit: u32,
    pub samples: Vec<PropagationSample>,
    /// Final classification of the (unbudgeted) faulty run.
    pub outcome: FaultOutcome,
    /// Peak memory corruption across samples.
    pub peak_corruption: usize,
}

impl PropagationTrace {
    /// True if the corruption ever reached memory at all.
    pub fn reached_memory(&self) -> bool {
        self.peak_corruption > 0
    }
}

/// Traces the propagation of `injection` through an execution of
/// `module` on `inputs`, sampling at `samples` evenly spaced points.
pub fn trace_propagation(
    module: &Module,
    inputs: &[f64],
    injection: Injection,
    limits: ExecLimits,
    samples: usize,
) -> PropagationTrace {
    assert!(samples >= 1, "need at least one sample point");
    let bits = encode_inputs(module.entry_func(), inputs);

    let full_vm = Vm::new(module, limits);
    let golden_full = full_vm.run(&bits, None);
    let faulty_full = full_vm.run(&bits, Some(injection));
    let outcome = classify(&golden_full, &faulty_full);
    let total = golden_full.profile.dynamic.max(1);

    let mut out = PropagationTrace {
        injection_bit: injection.bit,
        samples: Vec::with_capacity(samples),
        outcome,
        peak_corruption: 0,
    };

    for k in 1..=samples {
        let budget = total * k as u64 / samples as u64;
        let lim = ExecLimits {
            max_dynamic: budget.max(1),
            ..limits
        };
        let vm = Vm::new(module, lim);
        let golden = vm.run_capture(&bits, None);
        let faulty = vm.run_capture(&bits, Some(injection));

        let gm = golden.memory.as_ref().expect("capture requested");
        let fm = faulty.memory.as_ref().expect("capture requested");
        let corrupted_mem_words =
            gm.iter().zip(fm.iter()).filter(|(a, b)| a != b).count() + gm.len().abs_diff(fm.len());

        let common = golden.output.len().min(faulty.output.len());
        let corrupted_outputs = golden.output[..common]
            .iter()
            .zip(&faulty.output[..common])
            .filter(|(a, b)| a != b)
            .count()
            + golden.output.len().abs_diff(faulty.output.len());

        out.peak_corruption = out.peak_corruption.max(corrupted_mem_words);
        out.samples.push(PropagationSample {
            dynamic: budget,
            corrupted_mem_words,
            corrupted_outputs,
        });
    }
    out
}

/// Generates a labeled FI corpus (§7.1.2's "data generation" use case):
/// `count` faults sampled uniformly, each classified, with its final
/// memory/output corruption. SDC-bound inputs make this corpus far
/// denser in SDC examples than reference inputs do.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CorpusEntry {
    pub dyn_index: u64,
    pub bit: u32,
    pub outcome: FaultOutcome,
    pub corrupted_mem_words: usize,
    pub corrupted_outputs: usize,
}

/// Runs the corpus generation.
pub fn generate_corpus(
    module: &Module,
    inputs: &[f64],
    limits: ExecLimits,
    count: usize,
    seed: u64,
) -> Result<Vec<CorpusEntry>, crate::campaign::CampaignError> {
    let bits = encode_inputs(module.entry_func(), inputs);
    let golden = crate::campaign::check_golden(Vm::new(module, limits).run_capture(&bits, None))?;
    if golden.profile.value_dynamic == 0 {
        return Err(crate::campaign::CampaignError::NoFaultSites);
    }
    let golden_mem = golden.memory.as_deref().expect("capture");

    let faulty_limits = ExecLimits {
        max_dynamic: golden.profile.dynamic * 8 + 10_000,
        ..limits
    };
    let mut rng = peppa_stats::Pcg64::new(seed);
    let mut corpus = Vec::with_capacity(count);
    let vm = Vm::new(module, faulty_limits);
    for _ in 0..count {
        let inj = crate::campaign::sample_fault(&mut rng, golden.profile.value_dynamic);
        let faulty = vm.run_capture(&bits, Some(inj));
        let outcome = classify(&golden, &faulty);
        let fm = faulty.memory.as_ref().expect("capture");
        let corrupted_mem_words = golden_mem
            .iter()
            .zip(fm.iter())
            .filter(|(a, b)| a != b)
            .count();
        let common = golden.output.len().min(faulty.output.len());
        let corrupted_outputs = golden.output[..common]
            .iter()
            .zip(&faulty.output[..common])
            .filter(|(a, b)| a != b)
            .count()
            + golden.output.len().abs_diff(faulty.output.len());
        let dyn_index = match inj.target {
            peppa_vm::InjectionTarget::DynamicIndex(k) => k,
            peppa_vm::InjectionTarget::StaticInstance { .. } => unreachable!(),
        };
        corpus.push(CorpusEntry {
            dyn_index,
            bit: inj.bit,
            outcome,
            corrupted_mem_words,
            corrupted_outputs,
        });
    }
    Ok(corpus)
}

#[cfg(test)]
mod tests {
    use super::*;
    use peppa_vm::InjectionTarget;

    const SRC: &str = r#"
        global float buf[32];
        fn main(n: int) {
            for (i = 0; i < n; i = i + 1) {
                buf[i] = i2f(i) * 2.0;
            }
            let acc = 0.0;
            for (i = 0; i < n; i = i + 1) {
                acc = acc + buf[i];
            }
            output acc;
        }
    "#;

    fn module() -> Module {
        peppa_lang::compile(SRC, "prop").unwrap()
    }

    fn small_limits() -> ExecLimits {
        ExecLimits {
            memory_words: 256,
            ..Default::default()
        }
    }

    #[test]
    fn corruption_monotonically_visible_for_store_chain() {
        let m = module();
        // Flip a high bit of an early multiply: the corrupted value is
        // stored into buf and later read into the accumulator.
        let inj = Injection {
            target: InjectionTarget::DynamicIndex(3),
            bit: 60,
            burst: 0,
        };
        let t = trace_propagation(&m, &[16.0], inj, small_limits(), 8);
        assert_eq!(t.samples.len(), 8);
        assert!(t.reached_memory(), "{t:?}");
        // Corruption stays bounded by the buffer size + accumulator.
        assert!(t.peak_corruption <= 40, "{}", t.peak_corruption);
    }

    #[test]
    fn benign_fault_leaves_no_trace_at_end() {
        let m = module();
        let vm = Vm::new(&m, small_limits());
        let golden = vm.run_numeric(&[8.0], None);
        // Find a benign fault by scanning a few bits on the loop icmp.
        let mut found = None;
        for dyn_index in 0..golden.profile.value_dynamic {
            let inj = Injection {
                target: InjectionTarget::DynamicIndex(dyn_index),
                bit: 1,
                burst: 0,
            };
            let f = vm.run_numeric(&[8.0], Some(inj));
            if f.status.is_ok() && f.output == golden.output && f.ret == golden.ret {
                found = Some(inj);
                break;
            }
        }
        let inj = found.expect("some fault is benign");
        let t = trace_propagation(&m, &[8.0], inj, small_limits(), 4);
        assert_eq!(t.outcome, FaultOutcome::Benign);
        assert_eq!(t.samples.last().unwrap().corrupted_outputs, 0);
    }

    #[test]
    fn corpus_has_all_fields_and_is_deterministic() {
        let m = module();
        let a = generate_corpus(&m, &[12.0], small_limits(), 40, 9).unwrap();
        let b = generate_corpus(&m, &[12.0], small_limits(), 40, 9).unwrap();
        assert_eq!(a.len(), 40);
        assert_eq!(a, b);
        // The corpus must contain a mix of outcomes on this kernel.
        let sdc = a.iter().filter(|e| e.outcome == FaultOutcome::Sdc).count();
        assert!(sdc > 0, "no SDCs in corpus");
        for e in &a {
            if e.outcome == FaultOutcome::Benign {
                assert_eq!(e.corrupted_outputs, 0, "{e:?}");
            }
        }
    }

    #[test]
    fn sdc_fault_shows_output_corruption() {
        let m = module();
        let vm = Vm::new(&m, small_limits());
        let golden = vm.run_numeric(&[10.0], None);
        // Find an SDC fault.
        let mut found = None;
        'outer: for dyn_index in 0..golden.profile.value_dynamic {
            for bit in [40, 52] {
                let inj = Injection {
                    target: InjectionTarget::DynamicIndex(dyn_index),
                    bit,
                    burst: 0,
                };
                let f = vm.run_numeric(&[10.0], Some(inj));
                if f.status.is_ok() && f.output != golden.output {
                    found = Some(inj);
                    break 'outer;
                }
            }
        }
        let inj = found.expect("some fault is an SDC");
        let t = trace_propagation(&m, &[10.0], inj, small_limits(), 6);
        assert_eq!(t.outcome, FaultOutcome::Sdc);
        assert!(t.samples.last().unwrap().corrupted_outputs > 0);
    }
}
