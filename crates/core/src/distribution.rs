//! Deriving the SDC-sensitivity distribution (§4.2.2–§4.2.3).
//!
//! After pruning, only one representative per dataflow subgroup receives
//! FI trials (30 by default); its measured SDC probability becomes the
//! *SDC score* of every instruction in the subgroup. Scores are
//! normalized to `[0, 1]` — the distribution is used for *relative*
//! ranking (Eq. 2), not absolute probabilities.

use peppa_analysis::{prune_fi_space, PruningResult};
use peppa_apps::Benchmark;
use peppa_inject::{per_instruction_sdc, PerInstrConfig};
use peppa_ir::InstrId;
use peppa_vm::ExecLimits;
use serde::{Deserialize, Serialize};

/// The per-instruction SDC-sensitivity distribution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SdcScores {
    /// `score[sid] ∈ [0, 1]`: relative SDC sensitivity; 0 for
    /// instructions outside the FI space or never executed by the small
    /// input.
    pub score: Vec<f64>,
    /// Representatives measured (one per subgroup).
    pub representatives: Vec<InstrId>,
    /// Pruning statistics for reporting (Table 4).
    pub pruning_ratio: f64,
    /// FI trials spent.
    pub trials: u64,
    /// Dynamic-instruction cost of the measurement (≈ trials × small
    /// input's run length).
    pub cost_dynamic: u64,
}

impl SdcScores {
    /// Raw (pre-normalization) scores are not retained; this returns the
    /// number of instructions with non-zero sensitivity.
    pub fn hot_instructions(&self) -> usize {
        self.score.iter().filter(|&&s| s > 0.0).count()
    }
}

/// Measures the distribution with pruning (`use_pruning = true`, the
/// PEPPA-X configuration) or exhaustively (`false`, the "without
/// heuristics" row of Table 5).
pub fn derive_sdc_scores(
    bench: &Benchmark,
    fi_input: &[f64],
    limits: ExecLimits,
    trials_per_instr: u32,
    seed: u64,
    use_pruning: bool,
    threads: usize,
) -> Result<SdcScores, peppa_inject::campaign::CampaignError> {
    let pruning: PruningResult = prune_fi_space(&bench.module);
    let cfg = PerInstrConfig {
        trials_per_instr,
        seed,
        hang_factor: 8,
        threads,
    };

    let (targets, ratio): (Vec<InstrId>, f64) = if use_pruning {
        (pruning.representatives(), pruning.pruning_ratio())
    } else {
        (
            (0..bench.module.num_instrs as u32).map(InstrId).collect(),
            0.0,
        )
    };

    let measured = per_instruction_sdc(&bench.module, fi_input, limits, cfg, Some(&targets))?;

    // Propagate each representative's probability to its whole subgroup.
    let mut raw = vec![0.0f64; bench.module.num_instrs];
    if use_pruning {
        for group in &pruning.groups {
            let rep = group[0];
            if let Some(p) = measured.sdc_prob[rep.0 as usize] {
                for sid in group {
                    raw[sid.0 as usize] = p;
                }
            }
        }
    } else {
        for (sid, p) in measured.sdc_prob.iter().enumerate() {
            if let Some(p) = p {
                raw[sid] = *p;
            }
        }
    }

    // Normalize to [0, 1].
    let max = raw.iter().cloned().fold(0.0f64, f64::max);
    if max > 0.0 {
        for s in &mut raw {
            *s /= max;
        }
    }

    // Cost: each trial re-executes the program on the FI input.
    let cost = measured
        .total_trials
        .saturating_mul(measured.golden_dynamic)
        + measured.golden_dynamic;

    Ok(SdcScores {
        score: raw,
        representatives: targets,
        pruning_ratio: ratio,
        trials: measured.total_trials,
        cost_dynamic: cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use peppa_apps::pathfinder;

    fn scores(use_pruning: bool) -> SdcScores {
        let b = pathfinder::benchmark();
        let small = vec![6.0, 6.0, 3.0, 0.1];
        derive_sdc_scores(&b, &small, ExecLimits::default(), 12, 9, use_pruning, 0).unwrap()
    }

    #[test]
    fn scores_normalized() {
        let s = scores(true);
        let max = s.score.iter().cloned().fold(0.0f64, f64::max);
        assert!(s.score.iter().all(|&x| (0.0..=1.0).contains(&x)));
        assert!((max - 1.0).abs() < 1e-12, "max score {max}");
        assert!(s.hot_instructions() > 0);
    }

    #[test]
    fn pruning_reduces_trials() {
        let with = scores(true);
        let without = scores(false);
        assert!(
            with.trials < without.trials,
            "pruned {} !< exhaustive {}",
            with.trials,
            without.trials
        );
        assert!(with.pruning_ratio > 0.0);
    }

    #[test]
    fn group_members_share_scores() {
        let b = pathfinder::benchmark();
        let small = vec![6.0, 6.0, 3.0, 0.1];
        let s = derive_sdc_scores(&b, &small, ExecLimits::default(), 10, 4, true, 0).unwrap();
        let pruning = peppa_analysis::prune_fi_space(&b.module);
        for g in &pruning.groups {
            let first = s.score[g[0].0 as usize];
            for sid in g {
                assert_eq!(s.score[sid.0 as usize], first, "subgroup not uniform");
            }
        }
    }
}
