//! The baseline SDC-bound search (§5.1): random input generation where
//! every candidate input is evaluated with a full statistical FI
//! campaign — "the only currently available approach".

use peppa_apps::{sample_input, Benchmark};
use peppa_inject::{run_campaign, CampaignConfig};
use peppa_stats::Pcg64;
use peppa_vm::ExecLimits;
use serde::{Deserialize, Serialize};

/// Baseline configuration.
#[derive(Debug, Clone, Copy)]
pub struct BaselineConfig {
    pub seed: u64,
    /// FI trials per candidate input (1,000 in the paper).
    pub fi_trials: u32,
    pub limits: ExecLimits,
    pub threads: usize,
    /// Safety cap on evaluated inputs regardless of budget.
    pub max_inputs: usize,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            seed: 0xba5e,
            fi_trials: 1000,
            limits: ExecLimits::default(),
            threads: 0,
            max_inputs: 10_000,
        }
    }
}

/// One evaluated input.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BaselineEval {
    pub input: Vec<f64>,
    pub sdc_prob: f64,
    /// Cumulative dynamic-instruction cost *after* this evaluation.
    pub cumulative_cost: u64,
}

/// Baseline search trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BaselineReport {
    pub benchmark: String,
    pub evals: Vec<BaselineEval>,
    pub total_cost: u64,
}

impl BaselineReport {
    /// Best SDC probability found within a cost budget (for comparing
    /// trajectories at different time budgets, Figures 5 and 7).
    pub fn best_at_budget(&self, budget: u64) -> Option<f64> {
        self.evals
            .iter()
            .take_while(|e| e.cumulative_cost <= budget)
            .map(|e| e.sdc_prob)
            .fold(None, |acc, p| Some(acc.map_or(p, |a: f64| a.max(p))))
    }

    /// Best over the whole search.
    pub fn best(&self) -> Option<f64> {
        self.best_at_budget(u64::MAX)
    }
}

/// Runs the baseline search until `budget_dynamic` dynamic instructions
/// have been spent (or `max_inputs` candidates evaluated).
pub fn baseline_search(
    bench: &Benchmark,
    budget_dynamic: u64,
    cfg: BaselineConfig,
) -> BaselineReport {
    let mut rng = Pcg64::new(cfg.seed);
    let mut evals = Vec::new();
    let mut cost = 0u64;

    while cost < budget_dynamic && evals.len() < cfg.max_inputs {
        let input = sample_input(bench, &mut rng);
        let campaign_cfg = CampaignConfig {
            trials: cfg.fi_trials,
            seed: rng.next_u64(),
            hang_factor: 8,
            threads: cfg.threads,
            burst: 0,
            ..Default::default()
        };
        match run_campaign(&bench.module, &input, cfg.limits, campaign_cfg) {
            Ok(r) => {
                // Each trial re-executes the program; charge executions
                // times the input's run length.
                cost = cost.saturating_add(r.executions.saturating_mul(r.golden_dynamic));
                evals.push(BaselineEval {
                    input,
                    sdc_prob: r.sdc_prob(),
                    cumulative_cost: cost,
                });
            }
            Err(_) => {
                // Invalid input: the golden run still cost one execution.
                let vm = peppa_vm::Vm::new(&bench.module, cfg.limits);
                let probe = vm.run_numeric(&input, None);
                cost = cost.saturating_add(probe.profile.dynamic.max(1));
            }
        }
    }

    BaselineReport {
        benchmark: bench.name.to_string(),
        evals,
        total_cost: cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peppa_apps::pathfinder;

    fn quick_cfg() -> BaselineConfig {
        BaselineConfig {
            seed: 5,
            fi_trials: 40,
            max_inputs: 6,
            ..Default::default()
        }
    }

    #[test]
    fn respects_budget_and_caps() {
        let b = pathfinder::benchmark();
        let r = baseline_search(&b, 10_000_000, quick_cfg());
        assert!(!r.evals.is_empty());
        assert!(r.evals.len() <= 6);
        // Cumulative costs are monotone.
        for w in r.evals.windows(2) {
            assert!(w[1].cumulative_cost >= w[0].cumulative_cost);
        }
    }

    #[test]
    fn best_at_budget_monotone_in_budget() {
        let b = pathfinder::benchmark();
        let r = baseline_search(&b, 50_000_000, quick_cfg());
        let mid = r.evals[r.evals.len() / 2].cumulative_cost;
        let early = r.best_at_budget(mid).unwrap_or(0.0);
        let late = r.best().unwrap_or(0.0);
        assert!(late >= early);
    }

    #[test]
    fn deterministic() {
        let b = pathfinder::benchmark();
        let a = baseline_search(&b, 8_000_000, quick_cfg());
        let c = baseline_search(&b, 8_000_000, quick_cfg());
        assert_eq!(a.evals.len(), c.evals.len());
        for (x, y) in a.evals.iter().zip(&c.evals) {
            assert_eq!(x.input, y.input);
            assert_eq!(x.sdc_prob, y.sdc_prob);
        }
    }

    #[test]
    fn zero_budget_evaluates_nothing() {
        let b = pathfinder::benchmark();
        let r = baseline_search(&b, 0, quick_cfg());
        assert!(r.evals.is_empty());
    }
}
