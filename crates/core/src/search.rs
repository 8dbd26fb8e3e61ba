//! The PEPPA-X search driver (§4.1, §4.2.4).

use crate::distribution::{derive_sdc_scores, SdcScores};
use crate::fitness::FitnessOracle;
use crate::small_input::{fuzz_small_input, SmallInput, SmallInputConfig};
use peppa_apps::Benchmark;
use peppa_ga::{ArgBounds, GaConfig, GeneticEngine, Individual};
use peppa_inject::{CampaignConfig, CampaignPlan, CampaignResult, DEFAULT_SNAPSHOTS};
use peppa_obs::{Event, NullObserver, Observer};
use peppa_vm::{EngineKind, ExecLimits};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Full PEPPA-X configuration; defaults follow the paper.
#[derive(Debug, Clone, Copy)]
pub struct PeppaConfig {
    pub seed: u64,
    /// GA population size.
    pub population: usize,
    /// §4.2.4: mutation rate 0.4.
    pub mutation_rate: f64,
    /// §4.2.4: crossover rate 0.05.
    pub crossover_rate: f64,
    /// §4.2.3: FI trials per pruned representative (30).
    pub distribution_trials: u32,
    /// Final FI campaign size for the reported SDC-bound input (1,000).
    pub final_fi_trials: u32,
    pub limits: ExecLimits,
    /// Worker threads for FI phases; 0 = all cores.
    pub threads: usize,
    /// Execution backend for the final FI campaigns (outcome-invariant),
    /// which resume their trials from golden-prefix snapshots on either
    /// engine. Preparation (small-input fuzzing, the distribution FI)
    /// and the GA's fitness runs always run on the compiled engine.
    pub engine: EngineKind,
    pub small_input: SmallInputConfig,
}

impl Default for PeppaConfig {
    fn default() -> Self {
        PeppaConfig {
            seed: 0xbeef,
            population: 20,
            mutation_rate: 0.4,
            crossover_rate: 0.05,
            distribution_trials: 30,
            final_fi_trials: 1000,
            limits: ExecLimits::default(),
            threads: 0,
            engine: EngineKind::Interp,
            small_input: SmallInputConfig::default(),
        }
    }
}

/// Errors during the preparation phase.
#[derive(Debug)]
pub enum PrepareError {
    SmallInput(crate::small_input::SmallInputError),
    Distribution(peppa_inject::campaign::CampaignError),
}

impl std::fmt::Display for PrepareError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrepareError::SmallInput(e) => write!(f, "small-input fuzzing failed: {e}"),
            PrepareError::Distribution(e) => write!(f, "distribution analysis failed: {e}"),
        }
    }
}

impl std::error::Error for PrepareError {}

/// The search state at one generation checkpoint, FI-evaluated.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchCheckpoint {
    pub generation: u64,
    /// Best input found so far.
    pub input: Vec<f64>,
    /// Its Eq.-2 fitness.
    pub fitness: f64,
    /// Its measured SDC probability (the checkpoint's FI campaign).
    pub sdc: CampaignResult,
    /// Dynamic-instruction search cost up to this generation (analysis +
    /// GA evaluations, excluding the final FI evaluations).
    pub search_cost_dynamic: u64,
}

/// Outcome of one PEPPA-X search.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchReport {
    pub benchmark: String,
    pub checkpoints: Vec<SearchCheckpoint>,
    /// Fixed cost: small-input fuzzing + distribution analysis (Figure
    /// 8's dark series).
    pub analysis_cost_dynamic: u64,
    /// GA evaluations performed in total.
    pub ga_evaluations: u64,
}

impl SearchReport {
    /// The SDC-bound input: the checkpoint whose FI evaluation is
    /// highest.
    pub fn sdc_bound(&self) -> &SearchCheckpoint {
        self.checkpoints
            .iter()
            .max_by(|a, b| {
                a.sdc
                    .sdc_prob()
                    .partial_cmp(&b.sdc.sdc_prob())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("search produced no checkpoints")
    }
}

/// A prepared PEPPA-X instance: small FI input fuzzed, SDC-sensitivity
/// distribution measured. Reusable across searches with different
/// budgets or seeds.
pub struct PeppaX<'b> {
    pub bench: &'b Benchmark,
    pub cfg: PeppaConfig,
    pub small: SmallInput,
    pub scores: SdcScores,
}

impl<'b> PeppaX<'b> {
    /// Runs steps 1–3 of the pipeline (Figure 3's ❶–❸).
    pub fn prepare(bench: &'b Benchmark, cfg: PeppaConfig) -> Result<Self, PrepareError> {
        let small = fuzz_small_input(bench, cfg.limits, cfg.small_input)
            .map_err(PrepareError::SmallInput)?;
        let scores = derive_sdc_scores(
            bench,
            &small.input,
            cfg.limits,
            cfg.distribution_trials,
            cfg.seed ^ 0xd157,
            true,
            cfg.threads,
        )
        .map_err(PrepareError::Distribution)?;
        Ok(PeppaX {
            bench,
            cfg,
            small,
            scores,
        })
    }

    fn ga_bounds(&self) -> Vec<ArgBounds> {
        self.bench
            .args
            .iter()
            .map(|a| ArgBounds {
                lo: a.lo,
                hi: a.hi,
                integer: a.integer,
            })
            .collect()
    }

    /// Runs the GA search (Figure 3's ❹–❺), recording and FI-evaluating
    /// the best input at each generation checkpoint. `checkpoints` must
    /// be sorted ascending; the search runs to the last one.
    pub fn search(&self, checkpoints: &[u64]) -> SearchReport {
        self.search_observed(checkpoints, &NullObserver)
    }

    /// [`search`](Self::search) with an [`Observer`] attached.
    ///
    /// Emits `SearchStarted`, one `GenerationFinished` per generation
    /// (best/mean Eq.-2 fitness, population diversity, fitness-memo
    /// hits, cumulative evaluations), `SearchFinished`, and — through
    /// the checkpoint FI campaigns — the full campaign event stream of
    /// each checkpoint evaluation.
    pub fn search_observed(&self, checkpoints: &[u64], observer: &dyn Observer) -> SearchReport {
        assert!(!checkpoints.is_empty(), "need at least one checkpoint");
        assert!(
            checkpoints.windows(2).all(|w| w[0] < w[1]),
            "checkpoints must be ascending"
        );
        let start = Instant::now();

        let mut oracle = FitnessOracle::new(self.bench, &self.scores, self.cfg.limits);
        let ga_cfg = GaConfig {
            population: self.cfg.population,
            mutation_rate: self.cfg.mutation_rate,
            crossover_rate: self.cfg.crossover_rate,
            seed: self.cfg.seed,
            bounds: self.ga_bounds(),
        };

        struct OracleAdapter<'x, 'y>(&'x mut FitnessOracle<'y>);
        impl peppa_ga::Fitness for OracleAdapter<'_, '_> {
            fn eval(&mut self, genome: &[f64]) -> Option<f64> {
                self.0.eval(genome)
            }
        }

        let bounds = self.ga_bounds();
        let mut adapter = OracleAdapter(&mut oracle);
        let mut ga = GeneticEngine::new(ga_cfg, &mut adapter);

        let mut pending: Vec<(u64, Vec<f64>, f64, u64)> = Vec::new();
        let last = *checkpoints.last().unwrap();
        observer.on_event(&Event::SearchStarted {
            benchmark: self.bench.name.to_string(),
            generations: last,
            population: self.cfg.population,
            seed: self.cfg.seed,
        });
        let mut next_cp = 0usize;
        for gen in 1..=last {
            ga.step(&mut adapter);
            let (mean, diversity) = population_stats(ga.population(), &bounds);
            observer.on_event(&Event::GenerationFinished {
                generation: gen,
                best: ga.best().fitness,
                mean,
                diversity,
                cache_hits: adapter.0.cache_hits,
                evaluations: ga.evaluations(),
            });
            if next_cp < checkpoints.len() && gen == checkpoints[next_cp] {
                let best = ga.best().clone();
                let cost =
                    self.scores.cost_dynamic + self.small.cost_dynamic + adapter.0.cost_dynamic;
                pending.push((gen, best.genome, best.fitness, cost));
                next_cp += 1;
            }
        }
        let ga_evaluations = ga.evaluations();
        // Free the oracle's memory image before the final FI's golden run
        // and trial arena come on top of it (perfbench `search` peak RSS
        // rose in 16 MiB steps when it was kept).
        drop(oracle);
        observer.on_event(&Event::SearchFinished {
            generations: last,
            evaluations: ga_evaluations,
            wall_ns: start.elapsed().as_nanos() as u64,
        });

        // FI-evaluate each checkpoint's best input (§4.1: FI only at the
        // end of the search), resuming trials from golden-prefix
        // snapshots.
        let mut results = Vec::with_capacity(pending.len());
        for (generation, input, fitness, search_cost_dynamic) in pending {
            let campaign_cfg = CampaignConfig {
                trials: self.cfg.final_fi_trials,
                seed: self.cfg.seed ^ generation,
                hang_factor: 8,
                threads: self.cfg.threads,
                burst: 0,
                engine: self.cfg.engine,
            };
            let sdc = CampaignPlan::new(&self.bench.module, &input, self.cfg.limits, campaign_cfg)
                .snapshots(DEFAULT_SNAPSHOTS)
                .run(observer)
                .expect("GA best input must be valid (oracle rejected invalid genomes)")
                .campaign;
            results.push(SearchCheckpoint {
                generation,
                input,
                fitness,
                sdc,
                search_cost_dynamic,
            });
        }
        observer.flush();

        SearchReport {
            benchmark: self.bench.name.to_string(),
            checkpoints: results,
            analysis_cost_dynamic: self.scores.cost_dynamic + self.small.cost_dynamic,
            ga_evaluations,
        }
    }
}

/// Mean finite fitness and population diversity.
///
/// Diversity is the mean over arguments of the population's standard
/// deviation in that argument, normalized by the argument's search
/// range — 0 when the population has collapsed to one point, ~0.29 for
/// a uniform spread over the range.
fn population_stats(pop: &[Individual], bounds: &[ArgBounds]) -> (f64, f64) {
    let finite: Vec<f64> = pop
        .iter()
        .map(|i| i.fitness)
        .filter(|f| f.is_finite())
        .collect();
    let mean = if finite.is_empty() {
        0.0
    } else {
        finite.iter().sum::<f64>() / finite.len() as f64
    };

    if pop.len() < 2 || bounds.is_empty() {
        return (mean, 0.0);
    }
    let mut acc = 0.0;
    for (d, b) in bounds.iter().enumerate() {
        let vals: Vec<f64> = pop
            .iter()
            .filter_map(|i| i.genome.get(d).copied())
            .collect();
        if vals.len() < 2 {
            continue;
        }
        let m = vals.iter().sum::<f64>() / vals.len() as f64;
        let var = vals.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / vals.len() as f64;
        let range = (b.hi - b.lo).abs().max(f64::MIN_POSITIVE);
        acc += var.sqrt() / range;
    }
    (mean, acc / bounds.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use peppa_apps::pathfinder;

    fn quick_cfg() -> PeppaConfig {
        PeppaConfig {
            seed: 11,
            population: 8,
            distribution_trials: 8,
            final_fi_trials: 80,
            ..Default::default()
        }
    }

    #[test]
    fn end_to_end_search_improves_over_generations() {
        let b = pathfinder::benchmark();
        let px = PeppaX::prepare(&b, quick_cfg()).unwrap();
        let report = px.search(&[2, 10]);
        assert_eq!(report.checkpoints.len(), 2);
        let early = &report.checkpoints[0];
        let late = &report.checkpoints[1];
        assert!(late.fitness >= early.fitness, "fitness regressed");
        assert!(late.search_cost_dynamic > early.search_cost_dynamic);
    }

    #[test]
    fn deterministic_given_seed() {
        let b = pathfinder::benchmark();
        let r1 = PeppaX::prepare(&b, quick_cfg()).unwrap().search(&[5]);
        let r2 = PeppaX::prepare(&b, quick_cfg()).unwrap().search(&[5]);
        assert_eq!(r1.checkpoints[0].input, r2.checkpoints[0].input);
        assert_eq!(r1.checkpoints[0].sdc.sdc, r2.checkpoints[0].sdc.sdc);
    }

    #[test]
    fn sdc_bound_is_max_checkpoint() {
        let b = pathfinder::benchmark();
        let report = PeppaX::prepare(&b, quick_cfg()).unwrap().search(&[2, 5, 8]);
        let best = report.sdc_bound();
        for c in &report.checkpoints {
            assert!(best.sdc.sdc_prob() >= c.sdc.sdc_prob());
        }
    }

    #[test]
    fn observed_search_emits_generation_telemetry() {
        struct Collecting(std::sync::Mutex<Vec<Event>>);
        impl Observer for Collecting {
            fn on_event(&self, event: &Event) {
                self.0.lock().unwrap().push(event.clone());
            }
        }

        let b = pathfinder::benchmark();
        let px = PeppaX::prepare(&b, quick_cfg()).unwrap();
        let obs = Collecting(std::sync::Mutex::new(Vec::new()));
        let report = px.search_observed(&[3], &obs);
        let events = obs.0.into_inner().unwrap();

        let gens: Vec<&Event> = events
            .iter()
            .filter(|e| e.kind() == "generation_finished")
            .collect();
        assert_eq!(gens.len(), 3);
        match gens.last().unwrap() {
            Event::GenerationFinished {
                best,
                mean,
                diversity,
                evaluations,
                ..
            } => {
                assert!(
                    best.is_finite() && *best >= *mean - 1e-12,
                    "best {best} mean {mean}"
                );
                assert!((0.0..=1.0).contains(diversity), "diversity {diversity}");
                assert_eq!(*evaluations, report.ga_evaluations);
            }
            _ => unreachable!(),
        }
        // The checkpoint FI campaign streamed through the same observer.
        let trial_events = events
            .iter()
            .filter(|e| e.kind() == "trial_finished")
            .count();
        assert_eq!(trial_events, quick_cfg().final_fi_trials as usize);
        assert_eq!(
            events
                .iter()
                .filter(|e| e.kind() == "search_finished")
                .count(),
            1
        );

        // Telemetry must not perturb the search itself.
        let plain = PeppaX::prepare(&b, quick_cfg()).unwrap().search(&[3]);
        assert_eq!(plain.checkpoints[0].input, report.checkpoints[0].input);
        assert_eq!(plain.checkpoints[0].sdc.sdc, report.checkpoints[0].sdc.sdc);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn checkpoints_must_ascend() {
        let b = pathfinder::benchmark();
        let px = PeppaX::prepare(&b, quick_cfg()).unwrap();
        px.search(&[5, 5]);
    }
}
