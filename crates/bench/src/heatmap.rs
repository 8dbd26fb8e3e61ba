//! Figure 6: heat maps of the SDC probability over a 2-D slice of the
//! input space.
//!
//! The paper draws HPCCG (dense-dark: almost any input is SDC-prone, so
//! random sampling works) against Pathfinder (sparse-dark: SDC-bound
//! inputs are rare, so random sampling fails). We sweep the two most
//! influential arguments of each benchmark and measure a small FI
//! campaign per grid cell, normalizing probabilities to [0, 1].

use crate::scale::Ctx;
use peppa_apps::{benchmark_by_name, Benchmark};
use peppa_inject::{run_campaign, CampaignConfig};
use peppa_stats::Summary;
use serde::{Deserialize, Serialize};

/// A rendered heat map.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeatMap {
    pub benchmark: String,
    /// Names of the two swept arguments.
    pub x_arg: String,
    pub y_arg: String,
    pub x_values: Vec<f64>,
    pub y_values: Vec<f64>,
    /// Raw SDC probabilities, row-major `[y][x]`; `NaN` marks invalid
    /// inputs.
    pub sdc: Vec<Vec<f64>>,
    /// Probabilities normalized to [0, 1] over valid cells.
    pub normalized: Vec<Vec<f64>>,
    /// Percentile of a uniformly random cell's SDC probability relative
    /// to the maximum — the paper's "randomly sampled input lands at the
    /// Nth percentile" statistic.
    pub mean_percentile: f64,
}

/// The argument pair swept for each benchmark (chosen as the two most
/// behaviour-shaping dimensions).
fn sweep_args(bench: &Benchmark) -> (usize, usize) {
    match bench.name {
        "Pathfinder" => (0, 3),     // rows × spread
        "Needle" => (0, 2),         // len1 × penalty
        "Particlefilter" => (0, 2), // nparticles × noise
        "CoMD" => (0, 3),           // natoms × cutoff
        "Hpccg" => (0, 4),          // nx × tol
        "Xsbench" => (0, 1),        // nlookups × ngrid
        "FFT" => (0, 2),            // logn × amp
        other => panic!("unknown benchmark {other}"),
    }
}

/// Sweeps one benchmark's 2-D input slice at the context's resolution.
pub fn heatmap_benchmark(bench: &Benchmark, ctx: &Ctx) -> HeatMap {
    heatmap_custom(bench, ctx, ctx.heatmap_resolution(), ctx.heatmap_trials())
}

/// Sweeps with explicit resolution and per-cell trial count.
pub fn heatmap_custom(bench: &Benchmark, ctx: &Ctx, res: usize, trials: u32) -> HeatMap {
    let (xi, yi) = sweep_args(bench);
    let grid_axis = |arg: &peppa_apps::ArgSpec| -> Vec<f64> {
        (0..res)
            .map(|k| {
                let t = k as f64 / (res - 1) as f64;
                arg.clamp(arg.lo + t * (arg.hi - arg.lo))
            })
            .collect()
    };
    let x_values = grid_axis(&bench.args[xi]);
    let y_values = grid_axis(&bench.args[yi]);

    let mut sdc = vec![vec![f64::NAN; res]; res];
    let mut valid: Vec<f64> = Vec::new();
    for (yk, &y) in y_values.iter().enumerate() {
        for (xk, &x) in x_values.iter().enumerate() {
            let mut input = bench.reference_input.clone();
            input[xi] = x;
            input[yi] = y;
            let cfg = CampaignConfig {
                trials,
                seed: ctx.seed ^ ((yk as u64) << 32 | xk as u64),
                hang_factor: 8,
                threads: ctx.threads,
                burst: 0,
                ..Default::default()
            };
            if let Ok(r) = run_campaign(&bench.module, &input, ctx.limits, cfg) {
                sdc[yk][xk] = r.sdc_prob();
                valid.push(r.sdc_prob());
            }
        }
    }

    let max = valid.iter().cloned().fold(0.0f64, f64::max);
    let normalized = sdc
        .iter()
        .map(|row| {
            row.iter()
                .map(|&p| {
                    if p.is_nan() || max == 0.0 {
                        f64::NAN
                    } else {
                        p / max
                    }
                })
                .collect()
        })
        .collect();

    // Mean percentile of a random cell (the Figure 6 discussion's
    // statistic: ~96th for HPCCG, ~2nd for Pathfinder).
    let mean = if valid.is_empty() {
        0.0
    } else {
        valid.iter().sum::<f64>() / valid.len() as f64
    };
    let mean_percentile = Summary::percentile_of(&valid, mean);

    HeatMap {
        benchmark: bench.name.to_string(),
        x_arg: bench.args[xi].name.to_string(),
        y_arg: bench.args[yi].name.to_string(),
        x_values,
        y_values,
        sdc,
        normalized,
        mean_percentile,
    }
}

/// Figure 6: the paper's two illustrative heat maps.
pub fn run_heatmaps(ctx: &Ctx) -> Vec<HeatMap> {
    ["Hpccg", "Pathfinder"]
        .iter()
        .map(|name| heatmap_benchmark(&benchmark_by_name(name).unwrap(), ctx))
        .collect()
}

/// ASCII rendering of a heat map (darker = higher SDC probability).
pub fn render_ascii(map: &HeatMap) -> String {
    const SHADES: &[u8] = b" .:-=+*#%@";
    let mut s = format!(
        "{} — x: {}, y: {} (darker = higher SDC probability)\n",
        map.benchmark, map.x_arg, map.y_arg
    );
    for row in map.normalized.iter().rev() {
        for &v in row {
            let c = if v.is_nan() {
                b'?'
            } else {
                SHADES[((v * (SHADES.len() - 1) as f64).round() as usize).min(SHADES.len() - 1)]
            };
            s.push(c as char);
            s.push(c as char);
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::{Ctx, Scale};

    #[test]
    fn small_heatmap_has_valid_cells() {
        let ctx = Ctx::new(Scale::Quick, 9);
        let b = peppa_apps::pathfinder::benchmark();
        let map = heatmap_custom(&b, &ctx, 4, 30);
        let valid = map.sdc.iter().flatten().filter(|p| !p.is_nan()).count();
        assert!(valid >= 8, "only {valid} valid cells");
        for row in &map.normalized {
            for &v in row {
                assert!(v.is_nan() || (0.0..=1.0).contains(&v));
            }
        }
        let ascii = render_ascii(&map);
        assert!(ascii.contains("Pathfinder"));
    }
}
