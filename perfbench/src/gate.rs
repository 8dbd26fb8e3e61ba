//! The reference gate, run after the timed passes.
//!
//! The interpreter's plain runner is the repository's reference oracle.
//! Every campaign answer must equal its outcome counts on the same
//! module, input and seed, and every `-O2` module must print what its
//! `-O0` module prints. The gate runs on two workers: campaign counts do
//! not depend on the thread count, and nothing is timed while it runs.

use crate::inputs::{Case, SEARCH_GENERATIONS};
use crate::ops::{search_config, Answer, Op};
use peppa_x::analysis::{optimize, OptLevel};
use peppa_x::apps::benchmark_by_name;
use peppa_x::inject::{campaign::golden_run, run_campaign, CampaignConfig};
use peppa_x::vm::{EngineKind, ExecLimits};

/// The reference answer of one operation.
pub struct Reference {
    pub answer: Result<Answer, String>,
    /// `-O0` minus `-O2` golden dynamic instructions (`ship` only).
    pub opt_dyn_saved: u64,
}

fn interp_counts(
    module: &peppa_x::ir::Module,
    input: &[f64],
    cfg: CampaignConfig,
) -> Result<Answer, String> {
    let cfg = CampaignConfig {
        engine: EngineKind::Interp,
        threads: 2,
        ..cfg
    };
    let r = run_campaign(module, input, ExecLimits::default(), cfg).map_err(|e| e.to_string())?;
    Ok(Answer {
        input: input.to_vec(),
        outcomes: [r.sdc, r.crash, r.hang, r.benign],
    })
}

/// Reference for a `ship` or `prune` case: the plain interpreter campaign
/// on the `-O2` (`optimized`) or `-O0` module, and for `-O2` the golden
/// output check against `-O0`.
pub fn campaign_reference(case: &Case, seed: u64, trials: u32, optimized: bool) -> Reference {
    let reference = || -> Result<(Answer, u64), String> {
        let bench = benchmark_by_name(case.program).ok_or("unknown program")?;
        let cfg = CampaignConfig {
            trials,
            seed,
            ..Default::default()
        };
        if !optimized {
            return Ok((interp_counts(&bench.module, case.input, cfg)?, 0));
        }
        let o2 = optimize(&bench.module, OptLevel::O2).module;
        let limits = ExecLimits::default();
        let g0 = golden_run(&bench.module, case.input, limits).map_err(|e| e.to_string())?;
        let g2 = golden_run(&o2, case.input, limits).map_err(|e| e.to_string())?;
        if g0.output != g2.output {
            return Err("-O2 golden output differs from -O0".into());
        }
        let saved = g0.profile.dynamic.saturating_sub(g2.profile.dynamic);
        Ok((interp_counts(&o2, case.input, cfg)?, saved))
    };
    match reference() {
        Ok((answer, opt_dyn_saved)) => Reference {
            answer: Ok(answer),
            opt_dyn_saved,
        },
        Err(e) => Reference {
            answer: Err(e),
            opt_dyn_saved: 0,
        },
    }
}

/// Reference for a search: the plain interpreter campaign `search` runs
/// on the SDC-bound input it found, with the seed it derives for the
/// final generation's checkpoint.
pub fn search_reference(program: &str, seed: u64, found: &Answer) -> Reference {
    let cfg = search_config(seed);
    let answer = benchmark_by_name(program)
        .ok_or_else(|| "unknown program".to_string())
        .and_then(|bench| {
            interp_counts(
                &bench.module,
                &found.input,
                CampaignConfig {
                    trials: cfg.final_fi_trials,
                    seed: cfg.seed ^ SEARCH_GENERATIONS,
                    hang_factor: 8,
                    burst: 0,
                    ..Default::default()
                },
            )
        });
    Reference {
        answer,
        opt_dyn_saved: 0,
    }
}

/// Whether an operation failed: it returned an error, or its answer
/// differs from the reference (or the reference itself could not be
/// computed).
pub fn failed(op: &Op, reference: &Reference) -> bool {
    match (&op.answer, &reference.answer) {
        (Ok(a), Ok(r)) => a != r,
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::CASES;
    use crate::ops::{prune, ship};
    use crate::record::Log;

    #[test]
    fn gate_passes_real_answers_and_fires_on_a_perturbed_count() {
        let case = &CASES[0];
        let log = Log::new(false);
        for (mut op, optimized) in [
            (ship(case, 3, 40, &log), true),
            (prune(case, 3, 40, &log), false),
        ] {
            let reference = campaign_reference(case, 3, 40, optimized);
            assert!(!failed(&op, &reference), "{:?}", reference.answer);
            if let Ok(a) = &mut op.answer {
                a.outcomes[0] += 1;
            }
            assert!(failed(&op, &reference));
        }
    }
}
