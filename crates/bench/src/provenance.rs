//! Dynamic/static propagation cross-check — `repro provenance`.
//!
//! The shadow-taint engine ([`peppa_vm::TaintHook`]) and the backward
//! fault-reachability analysis ([`peppa_analysis::FaultReach`]) are two
//! over-approximations of the same ground truth, built to satisfy a
//! *containment* contract: the forward taint rules are the adjoint of
//! the backward matter-mask rules, so any fault whose taint dynamically
//! reaches an observable sink must sit in a cell the static analysis
//! does not prove masked. This experiment checks that contract per
//! benchmark with a traced FI campaign:
//!
//! 1. **Containment** — for every seeded trial whose taint reached a
//!    sink, the `(sid, bit)` cell must not be provably masked. A
//!    violation means a soundness bug in one of the two engines; the
//!    `repro` driver exits 1.
//! 2. **Static-precision headroom** — of the not-provably-masked cells
//!    the campaign sampled, the fraction whose taint *never* reached a sink
//!    in any trial: dynamically-dead cells the static analysis failed to
//!    prove masked, i.e. the refinement room left in `reach.rs`.
//! 3. **Propagation telemetry** — propagated / extinguished / dormant
//!    trial counts and the first-sink distribution, the aggregate view
//!    of the per-trial `trial_provenance` journal records.

use crate::scale::Ctx;
use peppa_analysis::FaultReach;
use peppa_apps::all_benchmarks;
use peppa_inject::{CampaignConfig, CampaignPlan};
use peppa_ir::InstrId;
use peppa_obs::Observer;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One containment violation: a dynamically-propagating fault in a
/// statically provably-masked cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Violation {
    pub trial: u32,
    pub sid: u32,
    pub bit: u32,
    /// Sink kind the taint reached.
    pub sink: String,
}

/// One benchmark's provenance cross-check.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProvenanceRow {
    pub benchmark: String,
    pub trials: u32,
    /// Trials whose fault activated (taint was seeded).
    pub seeded: u32,
    /// Seeded trials whose taint reached an observable sink.
    pub propagated: u32,
    /// Seeded trials whose taint died before any sink.
    pub extinguished: u32,
    /// Seeded trials ending with live taint but no sink hit — dormant
    /// corruption that never became observable within the run.
    pub dormant: u32,
    /// Seeded trials sampled in statically provably-masked cells.
    pub masked_sampled: u32,
    /// Containment violations (must be empty for a sound pair of
    /// engines).
    pub violations: Vec<Violation>,
    /// Distinct not-provably-masked `(sid, bit)` cells seeded.
    pub may_cells_sampled: u64,
    /// Of those, cells where no trial's taint ever reached a sink.
    pub may_cells_never_propagated: u64,
    /// `may_cells_never_propagated / may_cells_sampled`: the fraction of
    /// sampled may-propagate cells that are dynamically dead — static
    /// precision left on the table.
    pub headroom: f64,
    /// First-sink distribution over propagated trials, sorted by kind.
    pub sink_counts: Vec<(String, u32)>,
    /// Mean propagation hop count (tainted defs) over seeded trials.
    pub mean_hops: f64,
}

/// `repro provenance` report (checked in as `results/provenance.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProvenanceReport {
    pub rows: Vec<ProvenanceRow>,
    pub seed: u64,
    pub trials: u32,
    pub smoke: bool,
}

impl ProvenanceReport {
    /// The CI gate: no dynamically-propagating fault was statically
    /// classified as provably masked, on any benchmark.
    pub fn sound(&self) -> bool {
        self.rows.iter().all(|r| r.violations.is_empty())
    }
}

/// Cross-checks one benchmark's traced campaign against its static
/// reach analysis.
pub fn provenance_benchmark(
    bench: &peppa_apps::Benchmark,
    ctx: &Ctx,
    trials: u32,
    observer: &dyn Observer,
) -> ProvenanceRow {
    let fr = FaultReach::analyze(&bench.module);
    let cfg = CampaignConfig {
        trials,
        seed: ctx.seed,
        hang_factor: 8,
        threads: ctx.threads,
        burst: 0,
        ..Default::default()
    };
    let traced = CampaignPlan::new(&bench.module, &bench.reference_input, ctx.limits, cfg)
        .trace(true)
        .run(observer)
        .unwrap_or_else(|e| panic!("{}: traced campaign failed: {e}", bench.name));

    let mut seeded = 0u32;
    let mut propagated = 0u32;
    let mut extinguished = 0u32;
    let mut dormant = 0u32;
    let mut masked_sampled = 0u32;
    let mut violations = Vec::new();
    let mut sink_counts: BTreeMap<&'static str, u32> = BTreeMap::new();
    // Per sampled (sid, bit) cell: did any trial's taint reach a sink?
    let mut cell_propagated: BTreeMap<(u32, u32), bool> = BTreeMap::new();
    let mut hops_sum = 0u64;

    for t in &traced.traced {
        let r = &t.report;
        if !r.seeded {
            continue;
        }
        seeded += 1;
        hops_sum += r.tainted_defs;
        let did_propagate = r.propagated();
        if did_propagate {
            propagated += 1;
            let kind = r.first_sink.expect("propagated has a sink").kind;
            *sink_counts.entry(kind.as_str()).or_insert(0) += 1;
        } else if r.extinguished() {
            extinguished += 1;
        } else {
            dormant += 1;
        }

        // The containment check runs on the *seeded* cell — the static
        // instruction actually corrupted and the sampled bit, the same
        // `(sid, bit)` coordinates `StaticPrune` tables index by.
        let statically_masked = fr.is_masked_fault(InstrId(r.seed_sid), t.bit, cfg.burst);
        if statically_masked {
            masked_sampled += 1;
            if did_propagate {
                violations.push(Violation {
                    trial: t.trial,
                    sid: r.seed_sid,
                    bit: t.bit,
                    sink: r
                        .first_sink
                        .map(|s| s.kind.as_str().to_string())
                        .unwrap_or_default(),
                });
            }
        } else {
            let cell = cell_propagated.entry((r.seed_sid, t.bit)).or_insert(false);
            *cell |= did_propagate;
        }
    }

    let may_cells_sampled = cell_propagated.len() as u64;
    let may_cells_never_propagated = cell_propagated.values().filter(|p| !**p).count() as u64;

    ProvenanceRow {
        benchmark: bench.name.to_string(),
        trials,
        seeded,
        propagated,
        extinguished,
        dormant,
        masked_sampled,
        violations,
        may_cells_sampled,
        may_cells_never_propagated,
        headroom: if may_cells_sampled > 0 {
            may_cells_never_propagated as f64 / may_cells_sampled as f64
        } else {
            0.0
        },
        sink_counts: sink_counts
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        mean_hops: if seeded > 0 {
            hops_sum as f64 / seeded as f64
        } else {
            0.0
        },
    }
}

/// Runs the provenance cross-check over every bundled benchmark.
/// `smoke` shrinks the campaign to CI size.
pub fn run_provenance(ctx: &Ctx, smoke: bool, observer: &dyn Observer) -> ProvenanceReport {
    let trials = if smoke { 120 } else { ctx.campaign_trials() };
    let rows = all_benchmarks()
        .iter()
        .map(|b| provenance_benchmark(b, ctx, trials, observer))
        .collect();
    ProvenanceReport {
        rows,
        seed: ctx.seed,
        trials,
        smoke,
    }
}

/// Paper-shaped text rendering.
pub fn render_provenance(r: &ProvenanceReport) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    writeln!(
        s,
        "Fault-provenance cross-check ({} trials/benchmark{})",
        r.trials,
        if r.smoke { ", smoke" } else { "" }
    )
    .unwrap();
    writeln!(
        s,
        "{:<16} {:>7} {:>10} {:>8} {:>8} {:>10} {:>9} {:>10} {:>9}",
        "benchmark",
        "seeded",
        "propagated",
        "extinct",
        "dormant",
        "violations",
        "may cells",
        "dyn-dead",
        "headroom"
    )
    .unwrap();
    for row in &r.rows {
        writeln!(
            s,
            "{:<16} {:>7} {:>10} {:>8} {:>8} {:>10} {:>9} {:>10} {:>8.1}%",
            row.benchmark,
            row.seeded,
            row.propagated,
            row.extinguished,
            row.dormant,
            row.violations.len(),
            row.may_cells_sampled,
            row.may_cells_never_propagated,
            row.headroom * 100.0,
        )
        .unwrap();
    }
    for row in &r.rows {
        let sinks: Vec<String> = row
            .sink_counts
            .iter()
            .map(|(k, v)| format!("{k} {v}"))
            .collect();
        writeln!(
            s,
            "  {:<14} sinks: {}  mean hops {:.1}",
            row.benchmark,
            if sinks.is_empty() {
                "-".to_string()
            } else {
                sinks.join(", ")
            },
            row.mean_hops
        )
        .unwrap();
    }
    writeln!(
        s,
        "containment: {}",
        if r.sound() {
            "OK — no dynamically-propagating fault is statically provably masked"
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
    use peppa_obs::NullObserver;

    #[test]
    fn provenance_smoke_has_zero_violations_on_all_benchmarks() {
        let mut ctx = Ctx::new(Scale::Quick, 2021);
        ctx.threads = 2;
        let r = run_provenance(&ctx, true, &NullObserver);
        assert_eq!(r.rows.len(), 7);
        for row in &r.rows {
            assert!(
                row.violations.is_empty(),
                "{}: containment violated: {:?}",
                row.benchmark,
                row.violations
            );
            assert!(row.seeded > 0, "{}: no seeded trials", row.benchmark);
            assert!(
                row.propagated + row.extinguished + row.dormant == row.seeded,
                "{}: trial accounting leaks",
                row.benchmark
            );
            // Every benchmark outputs something, so some faults must
            // visibly propagate.
            assert!(row.propagated > 0, "{}: nothing propagated", row.benchmark);
        }
        assert!(r.sound());
    }

    #[test]
    fn headroom_is_a_fraction_of_sampled_may_cells() {
        let mut ctx = Ctx::new(Scale::Quick, 7);
        ctx.threads = 2;
        let bench = &all_benchmarks()[0];
        let row = provenance_benchmark(bench, &ctx, 100, &NullObserver);
        assert!(row.may_cells_never_propagated <= row.may_cells_sampled);
        assert!((0.0..=1.0).contains(&row.headroom));
    }
}
