//! Fault-model sensitivity: single vs multi-bit flips.
//!
//! §3.1.3 justifies the single-bit model by citing Sangchoolie et al.
//! (DSN'17 \[47\]): "there is little difference in SDC probabilities
//! between the single and multiple bit flips at the application level."
//! This experiment validates that premise on our substrate by running
//! identical campaigns under 1-, 2-, and 3-bit burst models.

use crate::scale::Ctx;
use peppa_apps::all_benchmarks;
use peppa_inject::{run_campaign, CampaignConfig};
use serde::{Deserialize, Serialize};

/// One benchmark's SDC probability per fault model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultModelRow {
    pub benchmark: String,
    /// SDC probability under 1-, 2-, 3-bit flips.
    pub sdc_by_bits: Vec<f64>,
    /// Crash probability under the same models.
    pub crash_by_bits: Vec<f64>,
}

/// Fault-model comparison report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultModelReport {
    pub rows: Vec<FaultModelRow>,
}

impl FaultModelReport {
    /// Largest SDC-probability deviation (in absolute percentage points)
    /// of any multi-bit model from the single-bit model.
    pub fn max_sdc_deviation(&self) -> f64 {
        self.rows
            .iter()
            .flat_map(|r| {
                r.sdc_by_bits[1..]
                    .iter()
                    .map(|p| (p - r.sdc_by_bits[0]).abs())
            })
            .fold(0.0, f64::max)
    }
}

/// Runs the comparison on every benchmark's reference input.
pub fn run_fault_models(ctx: &Ctx) -> FaultModelReport {
    let rows = all_benchmarks()
        .iter()
        .map(|b| {
            let mut sdc = Vec::new();
            let mut crash = Vec::new();
            for burst in 0u8..3 {
                let cfg = CampaignConfig {
                    trials: ctx.campaign_trials(),
                    seed: ctx.seed, // same sites and bits; only the model differs
                    hang_factor: 8,
                    threads: ctx.threads,
                    burst,
                    ..Default::default()
                };
                let r = run_campaign(&b.module, &b.reference_input, ctx.limits, cfg)
                    .expect("reference input runs");
                sdc.push(r.sdc_prob());
                crash.push(r.crash_prob());
            }
            FaultModelRow {
                benchmark: b.name.to_string(),
                sdc_by_bits: sdc,
                crash_by_bits: crash,
            }
        })
        .collect();
    FaultModelReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::{Ctx, Scale};

    #[test]
    fn multi_bit_model_changes_sdc_little() {
        // The §3.1.3 premise, on two kernels at reduced trials.
        let mut ctx = Ctx::new(Scale::Quick, 6);
        ctx.threads = 0;
        let b = peppa_apps::pathfinder::benchmark();
        let mut probs = Vec::new();
        for burst in 0u8..3 {
            let cfg = CampaignConfig {
                trials: 200,
                seed: 6,
                hang_factor: 8,
                threads: 0,
                burst,
                ..Default::default()
            };
            let r = run_campaign(&b.module, &b.reference_input, ctx.limits, cfg).unwrap();
            probs.push(r.sdc_prob());
        }
        for p in &probs[1..] {
            assert!(
                (p - probs[0]).abs() < 0.15,
                "multi-bit SDC deviates strongly: {probs:?}"
            );
        }
    }
}
