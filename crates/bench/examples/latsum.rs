//! Diagnostic probe: per-engine trial-latency sums for one benchmark,
//! replicating exactly the measurement `repro baseline` folds into its
//! `vm_instrs_per_sec` columns (sum of per-trial latencies around the
//! amortized engine entry point). Useful for separating real engine
//! regressions from host scheduler noise or link-time code-layout
//! swings: this binary and `repro` link the same sources, so a large
//! disagreement between the two on the same machine is layout/noise,
//! not a code change (`cargo run --release -p peppa-bench --example
//! latsum`).

use peppa_apps::all_benchmarks;
use peppa_inject::{CampaignConfig, CampaignPlan};
use peppa_obs::{Event, Observer};
use peppa_vm::{EngineKind, ExecLimits};
use std::sync::Mutex;

struct Lat(Mutex<Vec<u64>>);
impl Observer for Lat {
    fn on_event(&self, event: &Event) {
        if let Event::TrialFinished { latency_ns, .. } = event {
            self.0.lock().unwrap().push(*latency_ns);
        }
    }
}

fn main() {
    let bench = all_benchmarks()
        .into_iter()
        .find(|b| b.name == "Pathfinder")
        .unwrap();
    for engine in [EngineKind::Interp, EngineKind::Compiled] {
        let obs = Lat(Mutex::new(Vec::new()));
        let cfg = CampaignConfig {
            trials: 500,
            seed: 2021,
            hang_factor: 8,
            threads: 1,
            burst: 0,
            engine,
        };
        let t0 = std::time::Instant::now();
        let r = CampaignPlan::new(
            &bench.module,
            &bench.reference_input,
            ExecLimits::default(),
            cfg,
        )
        .run(&obs)
        .unwrap()
        .campaign;
        let wall = t0.elapsed().as_secs_f64();
        let lats = obs.0.lock().unwrap();
        let sum_ns: u64 = lats.iter().sum();
        println!(
            "{engine}: wall {wall:.3}s  lat_sum {:.3}s  mean {:.3}ms  n {}  sdc {}",
            sum_ns as f64 / 1e9,
            sum_ns as f64 / 1e6 / lats.len() as f64,
            lats.len(),
            r.sdc
        );
    }
}
