//! Static-precision study — `repro precision`.
//!
//! Measures how much the per-bit interprocedural fault-reachability
//! analysis ([`peppa_analysis::BitSummary`] call composition,
//! interprocedural value facts, the live-store channel) tightens the
//! masked-cell table over the retired context-insensitive three-channel
//! pipeline. Per benchmark it reports three masked-cell tables over the
//! same `value sids × 64 bits` fault space:
//!
//! * **coarse** — `FROZEN_COARSE`: every cell the three-channel
//!   pipeline (whole-param call channels, no interprocedural value
//!   facts, liveness-blind callee store channel) proved masked, frozen
//!   as data when that pipeline was deleted.
//! * **fine** — [`FaultReach::analyze`]: the per-bit analysis.
//! * **union** — fine ∪ input-specific deviation analysis on the
//!   benchmark's reference input — the table a `--static-prune`
//!   campaign actually uses
//!   ([`peppa_analysis::deviation::combined_skip_cells`]).
//!
//! Raw masked-cell counts understate what a campaign gains, so each
//! table is also reported as the *exec-weighted predicted skip ratio*
//! ([`StaticPrune::predicted_skip_ratio`]) under the reference input's
//! golden profile — the exact fraction of uniformly-sampled fault
//! trials the table would skip. That profile comes from the one golden
//! run the deviation analysis observes.
//!
//! Two gates make this a regression test rather than a scoreboard:
//!
//! 1. **Containment** — per cell, fine ⊇ the frozen coarse table. A
//!    frozen cell fine no longer masks is a precision regression; a
//!    frozen sid past the module or on a void instruction is a stale
//!    table. Either fails the gate, naming the entry on stderr.
//! 2. **Floor** — the median union skip ratio across benchmarks must
//!    stay ≥ [`SKIP_RATIO_FLOOR`]. The honest measured median is
//!    ~0.017: the bundled benchmarks' live mass is control flow,
//!    addressing, and float accumulation, which no sound analysis may
//!    mask (hpccg is the documented all-live case). The issue's
//!    aspirational 0.10 target is recorded as [`SKIP_RATIO_TARGET`]
//!    and the per-benchmark gap reported, not gated on — `repro
//!    hybrid`'s bit-exact parity check is what keeps these numbers
//!    honest rather than inflatable.

use crate::scale::Ctx;
use peppa_analysis::deviation::DeviationAnalysis;
use peppa_analysis::FaultReach;
use peppa_apps::{all_benchmarks, Benchmark};
use peppa_inject::StaticPrune;
use serde::{Deserialize, Serialize};

/// Regression floor for the median exec-weighted union skip ratio.
/// Slightly below the measured 0.0170 so seed jitter cannot flake CI,
/// but any real precision loss (a summary channel going to ⊤) trips it.
pub const SKIP_RATIO_FLOOR: f64 = 0.015;

/// The aspirational target from the issue; reported, not gated.
pub const SKIP_RATIO_TARGET: f64 = 0.10;

/// The coarse column, frozen: `(benchmark, sid, masked bit positions)`
/// for every sid on which the three-channel pipeline masked any cell at
/// burst 0. Hpccg has none.
const FROZEN_COARSE: [(&str, usize, u64); 11] = [
    ("Pathfinder", 1, 0x7fff_ffff_8000_0000),
    ("Needle", 1, 0x7fff_ffff_8000_0000),
    ("Needle", 5, 0x7fff_ffff_ffff_fffc),
    ("Needle", 7, 0x7fff_ffff_ffff_fffc),
    ("Needle", 14, 0x7fff_ffff_ffff_fffc),
    ("Needle", 16, 0x7fff_ffff_ffff_fffc),
    ("Particlefilter", 1, 0x7fff_ffff_8000_0000),
    ("CoMD", 1, 0x7fff_ffff_8000_0000),
    ("CoMD", 5, 0x7fff_ffff_ffff_fffc),
    ("Xsbench", 1, 0x7fff_ffff_8000_0000),
    ("FFT", 1, 0x7fff_ffff_8000_0000),
];

/// One benchmark's before/after precision row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PrecisionRow {
    pub benchmark: String,
    /// Masked cells of the `value sids × 64 bits` space in the frozen
    /// coarse table.
    pub coarse_masked_cells: u64,
    /// Masked cells under the full per-bit interprocedural analysis.
    pub fine_masked_cells: u64,
    /// Masked cells of fine ∪ deviation on the reference input — the
    /// table `--static-prune` campaigns use.
    pub union_masked_cells: u64,
    pub total_cells: u64,
    /// Exec-weighted predicted skip ratios under the reference input.
    pub coarse_skip_ratio: f64,
    pub fine_skip_ratio: f64,
    pub union_skip_ratio: f64,
    /// Per-cell fine ⊇ frozen coarse containment (must always hold).
    pub monotone: bool,
    /// Shortfall against the aspirational target (0 when met).
    pub gap_to_target: f64,
}

/// `repro precision` report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PrecisionReport {
    pub rows: Vec<PrecisionRow>,
    pub median_union_skip_ratio: f64,
    pub skip_ratio_floor: f64,
    pub skip_ratio_target: f64,
    pub seed: u64,
    pub smoke: bool,
}

impl PrecisionReport {
    /// CI gate: per-cell containment of the frozen coarse table
    /// everywhere and the median exec-weighted union skip ratio at or
    /// above the floor.
    pub fn sound(&self) -> bool {
        self.rows.iter().all(|r| r.monotone)
            && self.median_union_skip_ratio >= self.skip_ratio_floor
    }
}

/// Computes one benchmark's precision row against the `frozen` coarse
/// table. A frozen entry whose sid is past the module or on a void
/// instruction (a stale table), or whose cells fine does not mask,
/// fails containment and is named on stderr.
fn precision_benchmark(
    bench: &Benchmark,
    ctx: &Ctx,
    frozen: &[(&str, usize, u64)],
) -> PrecisionRow {
    let burst = 0u8;
    let fine = FaultReach::analyze(&bench.module);
    let fine_cells = fine.skip_cells(burst);
    let (dev, golden) =
        DeviationAnalysis::from_run(&bench.module, &bench.reference_input, ctx.limits)
            .expect("golden run");
    let union_cells = dev.union_cells(&fine, burst);
    let mut coarse_cells = vec![0u64; fine.widths.len()];
    let mut monotone = true;
    for &(_, sid, mask) in frozen.iter().filter(|e| e.0 == bench.name) {
        let stale = fine.widths.get(sid).is_none_or(|&w| w == 0);
        if stale || mask & !fine_cells[sid] != 0 {
            let why = if stale {
                "is stale: no value instruction has that sid"
            } else {
                "has cells the fine analysis does not mask"
            };
            eprintln!(
                "[precision] frozen coarse entry ({}, sid {sid}, {mask:#x}) {why}",
                bench.name
            );
            monotone = false;
        }
        if !stale {
            coarse_cells[sid] |= mask;
        }
    }

    let exec = &golden.profile.exec_counts;
    let vd = golden.profile.value_dynamic;
    let ratio = |cells: &[u64]| {
        StaticPrune {
            cells: cells.to_vec(),
            burst,
        }
        .predicted_skip_ratio(exec, vd)
    };
    let (coarse_masked_cells, total_cells) = fine.masked_cells(&coarse_cells);
    let union_skip_ratio = ratio(&union_cells);

    PrecisionRow {
        benchmark: bench.name.to_string(),
        coarse_masked_cells,
        fine_masked_cells: fine.masked_cells(&fine_cells).0,
        union_masked_cells: fine.masked_cells(&union_cells).0,
        total_cells,
        coarse_skip_ratio: ratio(&coarse_cells),
        fine_skip_ratio: ratio(&fine_cells),
        union_skip_ratio,
        monotone,
        gap_to_target: (SKIP_RATIO_TARGET - union_skip_ratio).max(0.0),
    }
}

/// Runs the precision study over every bundled benchmark. The study is
/// purely static plus one golden run per benchmark, so `smoke` only
/// tags the report; the full study already fits CI budgets.
pub fn run_precision(ctx: &Ctx, smoke: bool) -> PrecisionReport {
    let rows: Vec<PrecisionRow> = all_benchmarks()
        .iter()
        .map(|b| precision_benchmark(b, ctx, &FROZEN_COARSE))
        .collect();
    let mut ratios: Vec<f64> = rows.iter().map(|r| r.union_skip_ratio).collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median_union_skip_ratio = if ratios.is_empty() {
        0.0
    } else {
        ratios[ratios.len() / 2]
    };
    PrecisionReport {
        rows,
        median_union_skip_ratio,
        skip_ratio_floor: SKIP_RATIO_FLOOR,
        skip_ratio_target: SKIP_RATIO_TARGET,
        seed: ctx.seed,
        smoke,
    }
}

/// Paper-shaped text rendering.
pub fn render_precision(r: &PrecisionReport) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    writeln!(s, "Static-precision study: coarse (frozen context-insensitive table) vs fine (per-bit interprocedural) vs union (+deviation)").unwrap();
    writeln!(
        s,
        "{:<16} {:>14} {:>14} {:>14} {:>8} {:>8} {:>8} {:>9}",
        "benchmark",
        "coarse cells",
        "fine cells",
        "union cells",
        "coarse%",
        "fine%",
        "union%",
        "monotone"
    )
    .unwrap();
    for row in &r.rows {
        writeln!(
            s,
            "{:<16} {:>7}/{:<6} {:>7}/{:<6} {:>7}/{:<6} {:>7.2}% {:>7.2}% {:>7.2}% {:>9}",
            row.benchmark,
            row.coarse_masked_cells,
            row.total_cells,
            row.fine_masked_cells,
            row.total_cells,
            row.union_masked_cells,
            row.total_cells,
            row.coarse_skip_ratio * 100.0,
            row.fine_skip_ratio * 100.0,
            row.union_skip_ratio * 100.0,
            if row.monotone { "ok" } else { "VIOLATED" },
        )
        .unwrap();
    }
    writeln!(
        s,
        "median union skip ratio {:.4} (floor {:.3}, aspirational target {:.2})",
        r.median_union_skip_ratio, r.skip_ratio_floor, r.skip_ratio_target
    )
    .unwrap();
    writeln!(
        s,
        "precision gates: {}",
        if r.sound() {
            "OK — fine ⊇ the frozen coarse table per cell on every benchmark; median skip ratio above floor"
        } else {
            "VIOLATED"
        }
    )
    .unwrap();
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::Scale;

    #[test]
    fn precision_study_is_monotone_and_above_floor() {
        let ctx = Ctx::new(Scale::Quick, 2021);
        let r = run_precision(&ctx, true);
        assert_eq!(r.rows.len(), 7);
        for row in &r.rows {
            assert!(row.monotone, "{}: fine lost a coarse cell", row.benchmark);
            assert!(
                row.fine_masked_cells >= row.coarse_masked_cells,
                "{}: fine masks fewer cells than coarse",
                row.benchmark
            );
            assert!(
                row.union_masked_cells >= row.fine_masked_cells,
                "{}: union dropped a statically-masked cell",
                row.benchmark
            );
        }
        assert!(
            r.sound(),
            "median union skip ratio {} under floor {}",
            r.median_union_skip_ratio,
            r.skip_ratio_floor
        );
    }

    #[test]
    fn lost_or_stale_frozen_cells_fail_the_gate() {
        let ctx = Ctx::new(Scale::Quick, 2021);
        let needle = peppa_apps::benchmark_by_name("needle").unwrap();
        let sound = |frozen: &[(&str, usize, u64)]| {
            let row = precision_benchmark(&needle, &ctx, frozen);
            PrecisionReport {
                median_union_skip_ratio: row.union_skip_ratio,
                rows: vec![row],
                skip_ratio_floor: 0.0,
                skip_ratio_target: SKIP_RATIO_TARGET,
                seed: ctx.seed,
                smoke: true,
            }
            .sound()
        };
        assert!(sound(&FROZEN_COARSE));
        // A frozen cell the fine table lacks: fine masks bits 2..62 of
        // Needle's sid 5, not bit 0.
        let mut lost = FROZEN_COARSE;
        lost[2].2 |= 1;
        assert!(!sound(&lost));
        // A frozen sid past the module, and one on a void instruction.
        let past = needle.module.num_instrs;
        assert!(!sound(&[("Needle", past, 1)]));
        let fr = FaultReach::analyze(&needle.module);
        let void = fr.widths.iter().position(|&w| w == 0).unwrap();
        assert!(!sound(&[("Needle", void, 1)]));
    }
}
