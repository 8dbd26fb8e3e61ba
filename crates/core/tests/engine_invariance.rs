//! Engine invariance of the pipeline's measurements.
//!
//! `PeppaX::prepare` and the GA run every execution on the compiled
//! engine, each worker reusing one memory image, and both FI stages of
//! a search resume their trials from golden-prefix snapshots. Each test
//! here takes one of those measurements again on the interpreter, every
//! run from program entry, and requires it bit for bit, on all seven
//! benchmarks:
//!
//! * `per_instruction_sdc` (the distribution FI, snapshot-resumed)
//!   against the loop it ran before, one interpreter per
//!   `StaticInstance` trial, at the fuzzed small inputs, and on a
//!   recursive program from snapshots and from entry;
//! * `fuzz_small_input` against a replay of §4.2.1 on the interpreter;
//! * `FitnessOracle::eval` against Eq. 2 over an interpreter profile,
//!   invalid genomes included;
//! * each checkpoint of `search_observed` (the final FI,
//!   snapshot-resumed) against `run_campaign` from entry.

use peppa_analysis::prune_fi_space;
use peppa_apps::{all_benchmarks, Benchmark};
use peppa_core::{
    derive_sdc_scores, fuzz_small_input, FitnessOracle, PeppaConfig, PeppaX, SdcScores, SmallInput,
    SmallInputConfig,
};
use peppa_inject::{
    classify, per_instruction_sdc, run_campaign, CampaignConfig, CampaignPlan, FaultOutcome,
    PerInstrConfig, DEFAULT_SNAPSHOTS,
};
use peppa_ir::Module;
use peppa_obs::{Event, NullObserver, Observer};
use peppa_stats::Pcg64;
use peppa_vm::{EngineKind, ExecLimits, Injection, InjectionTarget, RunStatus, Vm};
use std::collections::HashSet;
use std::sync::Mutex;

/// Few trials per instruction keep the interpreter oracle fast in debug
/// builds; every measurable instruction of every benchmark still gets
/// them.
const TRIALS: u32 = 3;

fn small_input(b: &Benchmark) -> SmallInput {
    fuzz_small_input(b, ExecLimits::default(), SmallInputConfig::default())
        .unwrap_or_else(|e| panic!("{}: {e}", b.name))
}

/// The interpreter loop `per_instruction_sdc` ran before it moved to the
/// compiled engine: `sdc_prob` per sid, the golden run's dynamic
/// instruction count, and how many trials' faults never fired.
fn interp_per_instruction_sdc(
    module: &Module,
    inputs: &[f64],
    limits: ExecLimits,
    cfg: PerInstrConfig,
) -> (Vec<Option<f64>>, u64, u64) {
    let golden = Vm::new(module, limits).run_numeric(inputs, None);
    assert_eq!(golden.status, RunStatus::Ok);
    let faulty_limits = ExecLimits {
        max_dynamic: golden
            .profile
            .dynamic
            .saturating_mul(cfg.hang_factor)
            .saturating_add(10_000),
        ..limits
    };
    let mut sdc_prob = vec![None; module.num_instrs];
    let mut unfired = 0;
    for (_, ins) in module.all_instrs() {
        let sid = ins.sid;
        let count = golden.profile.exec_counts[sid.0 as usize];
        if ins.result.is_none() || count == 0 {
            continue;
        }
        let mut sdc = 0u32;
        for t in 0..cfg.trials_per_instr {
            let mut rng = Pcg64::new(
                cfg.seed ^ ((sid.0 as u64) << 32) ^ (t as u64).wrapping_mul(0x2545f4914f6cdd1d),
            );
            let instance = rng.gen_range_u64(count);
            let bit = rng.gen_range_u64(64) as u32;
            let inj = Injection {
                target: InjectionTarget::StaticInstance { sid, instance },
                bit,
                burst: 0,
            };
            let faulty = Vm::new(module, faulty_limits).run_numeric(inputs, Some(inj));
            unfired += u64::from(!faulty.fault_activated);
            if classify(&golden, &faulty) == FaultOutcome::Sdc {
                sdc += 1;
            }
        }
        sdc_prob[sid.0 as usize] = Some(sdc as f64 / cfg.trials_per_instr as f64);
    }
    (sdc_prob, golden.profile.dynamic, unfired)
}

#[test]
fn per_instruction_sdc_matches_a_fresh_interpreter_per_trial() {
    let limits = ExecLimits::default();
    for b in all_benchmarks() {
        let small = small_input(&b);
        let cfg = PerInstrConfig {
            trials_per_instr: TRIALS,
            seed: 0x5eed,
            hang_factor: 8,
            // Two workers, so each scratch image serves trials of
            // several instructions.
            threads: 2,
        };
        let r = per_instruction_sdc(&b.module, &small.input, limits, cfg, None).unwrap();
        let (oracle, golden_dynamic, unfired) =
            interp_per_instruction_sdc(&b.module, &small.input, limits, cfg);
        assert_eq!(unfired, 0, "{}: a sampled instance never fired", b.name);
        assert_eq!(r.sdc_prob, oracle, "{}: sdc_prob", b.name);
        assert_eq!(r.golden_dynamic, golden_dynamic, "{}: golden", b.name);
        let measured = oracle.iter().flatten().count() as u64;
        assert!(measured > 0, "{}: nothing measured", b.name);
        assert_eq!(r.total_trials, measured * TRIALS as u64, "{}", b.name);
        assert_eq!(r.executions, r.total_trials + 1, "{}", b.name);

        // The distribution prices its trials with that golden run.
        let scores = derive_sdc_scores(&b, &small.input, limits, TRIALS, 7, true, 2).unwrap();
        assert_eq!(
            scores.trials,
            prune_fi_space(&b.module)
                .representatives()
                .iter()
                .filter(|s| oracle[s.0 as usize].is_some())
                .count() as u64
                * TRIALS as u64,
            "{}: distribution trials",
            b.name
        );
        assert_eq!(
            scores.cost_dynamic,
            scores.trials * golden_dynamic + golden_dynamic,
            "{}: distribution cost",
            b.name
        );
    }
}

/// Recursive calls. The VM counts a call's instance when it dispatches
/// the call and faults the result when the frame pops, so several
/// returns of one call instruction see the same instance: some
/// instances fire at an earlier return than their place among the
/// results, and some never fire.
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

#[test]
fn per_instruction_sdc_matches_a_fresh_interpreter_per_trial_under_recursion() {
    const PER_INSTR: u32 = 24;
    let m = peppa_lang::compile(RECURSIVE, "recursive").unwrap();
    let (limits, input) = (ExecLimits::default(), [12.0]);
    let cfg = PerInstrConfig {
        trials_per_instr: PER_INSTR,
        seed: 0x5eed,
        hang_factor: 8,
        threads: 2,
    };
    let (oracle, _, unfired) = interp_per_instruction_sdc(&m, &input, limits, cfg);
    assert!(unfired > 0, "no sampled instance was one that never fires");

    // From `DEFAULT_SNAPSHOTS` snapshots, and from entry.
    let r = per_instruction_sdc(&m, &input, limits, cfg, None).unwrap();
    assert_eq!(r.sdc_prob, oracle, "K = {DEFAULT_SNAPSHOTS}");
    let entry = CampaignPlan::new(
        &m,
        &input,
        limits,
        CampaignConfig {
            trials: PER_INSTR,
            seed: cfg.seed,
            hang_factor: cfg.hang_factor,
            burst: 0,
            threads: 2,
            engine: EngineKind::Compiled,
        },
    )
    .per_instruction(None)
    .run(&NullObserver)
    .unwrap();
    let mut from_entry = vec![None; m.num_instrs];
    for &(sid, sdc) in &entry.per_instr {
        from_entry[sid.0 as usize] = Some(sdc as f64 / PER_INSTR as f64);
    }
    assert_eq!(from_entry, oracle, "K = 0");
}

/// §4.2.1 replayed on the interpreter: the same candidates, drawn from
/// the same stream, judged on interpreter profiles.
fn interp_fuzz(b: &Benchmark, limits: ExecLimits, cfg: SmallInputConfig) -> SmallInput {
    let vm = Vm::new(&b.module, limits);
    let reference = vm.run_numeric(&b.reference_input, None);
    assert_eq!(reference.status, RunStatus::Ok);
    let reference_coverage = reference.profile.coverage();
    let target = reference_coverage * cfg.coverage_fraction;
    let mut rng = Pcg64::new(cfg.seed);
    let (mut attempts, mut cost) = (0, reference.profile.dynamic);
    let mut best: Option<(Vec<f64>, f64, u64)> = None;
    for stage in 0..cfg.stages {
        let t = stage as f64 / (cfg.stages - 1).max(1) as f64;
        for _ in 0..cfg.samples_per_stage {
            let candidate: Vec<f64> = b
                .args
                .iter()
                .map(|a| {
                    let lo = a.small.0 + (a.lo - a.small.0) * t;
                    let hi = a.small.1 + (a.hi - a.small.1) * t;
                    a.clamp(rng.gen_range_f64(lo, hi))
                })
                .collect();
            attempts += 1;
            let out = vm.run_numeric(&candidate, None);
            cost += out.profile.dynamic;
            if out.status != RunStatus::Ok {
                continue;
            }
            let (cov, dynamic) = (out.profile.coverage(), out.profile.dynamic);
            let better = best.as_ref().is_none_or(|(_, bcov, bdyn)| {
                cov > bcov + 1e-12 || (cov >= bcov - 1e-12 && dynamic < *bdyn)
            });
            if better {
                best = Some((candidate, cov, dynamic));
            }
        }
        if best.as_ref().is_some_and(|(_, cov, _)| *cov >= target) {
            break;
        }
    }
    let (input, coverage, dynamic) = best.expect("some candidate runs");
    SmallInput {
        input,
        coverage,
        reference_coverage,
        dynamic,
        reference_dynamic: reference.profile.dynamic,
        attempts,
        cost_dynamic: cost,
    }
}

#[test]
fn fuzz_small_input_matches_an_interpreter_replay() {
    let (limits, cfg) = (ExecLimits::default(), SmallInputConfig::default());
    for b in all_benchmarks() {
        let got = fuzz_small_input(&b, limits, cfg).unwrap();
        let want = interp_fuzz(&b, limits, cfg);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.input), bits(&want.input), "{}: input", b.name);
        assert_eq!(
            got.coverage.to_bits(),
            want.coverage.to_bits(),
            "{}: coverage",
            b.name
        );
        assert_eq!(
            got.reference_coverage.to_bits(),
            want.reference_coverage.to_bits(),
            "{}: reference coverage",
            b.name
        );
        assert_eq!(got.dynamic, want.dynamic, "{}: dynamic", b.name);
        assert_eq!(
            got.reference_dynamic, want.reference_dynamic,
            "{}: reference dynamic",
            b.name
        );
        assert_eq!(got.attempts, want.attempts, "{}: attempts", b.name);
        assert_eq!(got.cost_dynamic, want.cost_dynamic, "{}: cost", b.name);
    }
}

/// Eq. 2 over an interpreter profile: the fitness and the run's dynamic
/// instruction count, or `None` for an invalid input.
fn interp_eq2(
    b: &Benchmark,
    scores: &SdcScores,
    input: &[f64],
    limits: ExecLimits,
) -> Option<(f64, u64)> {
    let out = Vm::new(&b.module, limits).run_numeric(input, None);
    if out.status != RunStatus::Ok || out.profile.dynamic == 0 {
        return None;
    }
    let total = out.profile.dynamic as f64;
    let mut acc = 0.0;
    for (sid, &n) in out.profile.exec_counts.iter().enumerate() {
        if n > 0 {
            acc += scores.score[sid] * (n as f64 / total);
        }
    }
    Some((acc, out.profile.dynamic))
}

#[test]
fn fitness_oracle_matches_eq2_over_interpreter_profiles() {
    for b in all_benchmarks() {
        let small = small_input(&b);
        let scores =
            derive_sdc_scores(&b, &small.input, ExecLimits::default(), TRIALS, 3, true, 2).unwrap();
        // A dynamic cap between the small and the reference input's
        // lengths makes the reference input invalid: it hangs.
        let limits = ExecLimits {
            max_dynamic: (small.dynamic + small.reference_dynamic) / 2,
            ..ExecLimits::default()
        };
        let mut rng = Pcg64::new(0x0ddba11);
        let mut genomes = vec![
            b.reference_input.clone(),
            small.input.clone(),
            small.input.clone(),
        ];
        for _ in 0..6 {
            // Drawn past each argument's range, so clamping matters.
            genomes.push(
                b.args
                    .iter()
                    .map(|a| rng.gen_range_f64(a.lo - 1.0, a.hi + 1.0))
                    .collect(),
            );
        }

        let mut oracle = FitnessOracle::new(&b, &scores, limits);
        let (mut seen, mut cost, mut invalid) = (HashSet::new(), 0, 0);
        for g in &genomes {
            let clamped: Vec<f64> = g.iter().zip(&b.args).map(|(&x, a)| a.clamp(x)).collect();
            let want = interp_eq2(&b, &scores, &clamped, limits);
            let got = oracle.eval(g);
            assert_eq!(
                got.map(f64::to_bits),
                want.map(|(f, _)| f.to_bits()),
                "{}: fitness of {g:?}",
                b.name
            );
            let key: Vec<u64> = clamped.iter().map(|x| x.to_bits()).collect();
            if seen.insert(key) {
                cost += want.map_or(0, |(_, d)| d);
            }
            invalid += want.is_none() as u32;
            assert_eq!(oracle.cost_dynamic, cost, "{}: cost_dynamic", b.name);
        }
        assert!(invalid > 0, "{}: no invalid genome exercised", b.name);
        assert_eq!(oracle.evaluations, genomes.len() as u64, "{}", b.name);
        assert!(oracle.cache_hits >= 1, "{}: repeat not memoized", b.name);
    }
}

/// Collects each campaign's `SnapshotStats::restores`.
struct Restores(Mutex<Vec<u64>>);

impl Observer for Restores {
    fn on_event(&self, e: &Event) {
        if let Event::SnapshotStats { restores, .. } = e {
            self.0.lock().unwrap().push(*restores);
        }
    }
}

#[test]
fn search_final_fi_matches_interpreter_campaigns_from_entry() {
    for b in all_benchmarks() {
        let cfg = PeppaConfig {
            seed: 0x5eed,
            population: 4,
            distribution_trials: TRIALS,
            final_fi_trials: 40,
            threads: 2,
            engine: EngineKind::Compiled,
            ..Default::default()
        };
        let px = PeppaX::prepare(&b, cfg).unwrap_or_else(|e| panic!("{}: {e}", b.name));
        let restores = Restores(Mutex::new(Vec::new()));
        let report = px.search_observed(&[1, 2], &restores);
        assert_eq!(report.checkpoints.len(), 2, "{}", b.name);
        let restores = restores.0.into_inner().unwrap();
        assert_eq!(
            restores.len(),
            2,
            "{}: one SnapshotStats per checkpoint",
            b.name
        );
        assert!(restores.iter().all(|&r| r > 0), "{}: {restores:?}", b.name);
        for cp in &report.checkpoints {
            let want = run_campaign(
                &b.module,
                &cp.input,
                cfg.limits,
                CampaignConfig {
                    trials: cfg.final_fi_trials,
                    seed: cfg.seed ^ cp.generation,
                    hang_factor: 8,
                    burst: 0,
                    threads: 1,
                    engine: EngineKind::Interp,
                },
            )
            .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            let counts = |r: &peppa_inject::CampaignResult| {
                (r.trials, r.sdc, r.crash, r.hang, r.benign, r.executions)
            };
            assert_eq!(
                counts(&cp.sdc),
                counts(&want),
                "{}: generation {} final FI",
                b.name,
                cp.generation
            );
            assert_eq!(cp.sdc.golden_dynamic, want.golden_dynamic, "{}", b.name);
        }
    }
}
