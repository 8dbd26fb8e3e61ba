//! Fault provenance: the per-trial record of a traced campaign.
//!
//! A [`crate::CampaignPlan`] with tracing on runs each faulty execution
//! under [`peppa_vm::TaintHook`], so besides the outcome the campaign
//! records *how* each fault travelled — the seed's static instruction,
//! every sid that touched taint, the first observable sink reached, and
//! where the taint went extinct if it never reached one. Each trial
//! emits an `Event::TrialProvenance` right after its `TrialFinished`,
//! feeding the journal, the Chrome trace exporter, and the propagation
//! heatmap.
//!
//! Tracing never changes what a campaign measures: fault sampling uses
//! the same per-trial RNG streams as the untraced plan, and the shadow
//! engine only observes execution, so outcome counts are identical to
//! [`crate::run_campaign`] at every thread count. With snapshots, each
//! resumed trial's hook is rebuilt for the snapshot's frame stack
//! ([`peppa_vm::TaintHook::resumed`]); the skipped prefix carries no
//! taint (the fault has not been injected yet), so records are
//! bit-identical to a from-entry trace.

use crate::outcome::FaultOutcome;
use peppa_vm::TaintReport;

/// One trial of a traced campaign: the classic outcome plus the taint
/// provenance of the faulty run.
#[derive(Debug, Clone)]
pub struct TracedTrial {
    /// Logical trial index (`0..trials`).
    pub trial: u32,
    pub outcome: FaultOutcome,
    /// Sampled dynamic fault site.
    pub site: u64,
    /// Sampled bit position.
    pub bit: u32,
    /// Static instruction the sampled dynamic site belongs to.
    pub sid: u32,
    /// Shadow-taint provenance of the faulty execution.
    pub report: TaintReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignConfig};
    use crate::plan::CampaignPlan;
    use peppa_ir::Module;
    use peppa_obs::{Event, NullObserver, Observer, PropagationHeatmap};
    use peppa_vm::{EngineKind, ExecLimits};

    const SRC: &str = r#"
        global float buf[64];
        fn main(n: int, s: float) {
            for (i = 0; i < n; i = i + 1) {
                buf[i] = s * i2f(i) + 1.0;
            }
            let acc = 0.0;
            for (i = 0; i < n; i = i + 1) {
                acc = acc + buf[i] * buf[i];
            }
            output acc;
        }
    "#;

    fn module() -> Module {
        peppa_lang::compile(SRC, "traced").unwrap()
    }

    fn cfg(trials: u32, seed: u64, threads: usize) -> CampaignConfig {
        CampaignConfig {
            trials,
            seed,
            hang_factor: 8,
            threads,
            burst: 0,
            engine: EngineKind::Interp,
        }
    }

    /// The traced plan on the default limits.
    fn traced<'a>(m: &'a Module, inputs: &'a [f64], cfg: CampaignConfig) -> CampaignPlan<'a> {
        CampaignPlan::new(m, inputs, ExecLimits::default(), cfg).trace(true)
    }

    #[test]
    fn tracing_does_not_perturb_outcomes() {
        let m = module();
        let inputs = [16.0, 0.5];
        let plain = run_campaign(&m, &inputs, ExecLimits::default(), cfg(150, 7, 2)).unwrap();
        let traced = traced(&m, &inputs, cfg(150, 7, 2))
            .run(&NullObserver)
            .unwrap();
        assert_eq!(
            (plain.sdc, plain.crash, plain.hang, plain.benign),
            (
                traced.campaign.sdc,
                traced.campaign.crash,
                traced.campaign.hang,
                traced.campaign.benign
            )
        );
    }

    #[test]
    fn every_trial_has_a_provenance_record_in_order() {
        let m = module();
        let r = traced(&m, &[12.0, 0.25], cfg(80, 3, 4))
            .run(&NullObserver)
            .unwrap();
        assert_eq!(r.traced.len(), 80);
        for (i, t) in r.traced.iter().enumerate() {
            assert_eq!(t.trial as usize, i);
        }
    }

    #[test]
    fn sdc_trials_always_propagate() {
        // An SDC means the output stream differed, so the shadow taint
        // must have reached a sink — the dynamic half of the containment
        // argument.
        let m = module();
        let r = traced(&m, &[16.0, 0.5], cfg(200, 11, 0))
            .run(&NullObserver)
            .unwrap();
        assert!(r.campaign.sdc > 0, "kernel should produce SDCs");
        for t in &r.traced {
            if t.outcome == FaultOutcome::Sdc {
                assert!(t.report.seeded, "SDC without an applied fault: {t:?}");
                assert!(
                    t.report.propagated(),
                    "SDC whose taint never reached a sink: {t:?}"
                );
            }
            if t.report.seeded && t.outcome == FaultOutcome::Benign {
                // Benign faults either extinguish or reach a sink that
                // happened not to change the outcome (e.g. a branch
                // condition whose decision was unaffected).
                assert!(
                    t.report.extinguished() || t.report.propagated() || t.report.live_at_end > 0,
                    "{t:?}"
                );
            }
        }
    }

    #[test]
    fn traced_records_identical_across_thread_counts() {
        let m = module();
        let inputs = [14.0, 0.75];
        let a = traced(&m, &inputs, cfg(60, 41, 1))
            .run(&NullObserver)
            .unwrap();
        let b = traced(&m, &inputs, cfg(60, 41, 4))
            .run(&NullObserver)
            .unwrap();
        assert_eq!(a.traced.len(), b.traced.len());
        for (x, y) in a.traced.iter().zip(&b.traced) {
            assert_eq!(x.trial, y.trial);
            assert_eq!(x.outcome, y.outcome);
            assert_eq!((x.site, x.bit, x.sid), (y.site, y.bit, y.sid));
            assert_eq!(x.report.seeded, y.report.seeded);
            assert_eq!(x.report.seed_mask, y.report.seed_mask);
            assert_eq!(x.report.tainted_defs, y.report.tainted_defs);
            assert_eq!(x.report.sid_hits, y.report.sid_hits);
            assert_eq!(x.report.first_sink, y.report.first_sink);
            assert_eq!(x.report.extinction_dynamic, y.report.extinction_dynamic);
        }
        assert_eq!(a.propagated(), b.propagated());
        assert_eq!(a.extinguished(), b.extinguished());
    }

    #[test]
    fn snapshotted_traced_records_identical_to_full_traced() {
        let m = module();
        let inputs = [16.0, 0.5];
        let full = traced(&m, &inputs, cfg(120, 29, 2))
            .run(&NullObserver)
            .unwrap();
        for k in [0, 1, 8] {
            for threads in [1, 4] {
                let snap = traced(&m, &inputs, cfg(120, 29, threads))
                    .snapshots(k)
                    .run(&NullObserver)
                    .unwrap();
                assert_eq!(
                    (
                        full.campaign.sdc,
                        full.campaign.crash,
                        full.campaign.hang,
                        full.campaign.benign
                    ),
                    (
                        snap.campaign.sdc,
                        snap.campaign.crash,
                        snap.campaign.hang,
                        snap.campaign.benign
                    ),
                    "k={k} threads={threads}"
                );
                assert_eq!(
                    snap.stats.restores + snap.stats.full_runs,
                    120,
                    "k={k}: every trial is either resumed or full"
                );
                assert_eq!(snap.stats.converged_exits, 0, "tracing never converges-out");
                if k > 0 {
                    assert!(snap.stats.restores > 0, "k={k}");
                }
                for (x, y) in full.traced.iter().zip(&snap.traced) {
                    assert_eq!(x.trial, y.trial);
                    assert_eq!(x.outcome, y.outcome, "trial {}", x.trial);
                    assert_eq!((x.site, x.bit, x.sid), (y.site, y.bit, y.sid));
                    assert_eq!(x.report.seeded, y.report.seeded);
                    assert_eq!(x.report.seed_mask, y.report.seed_mask);
                    assert_eq!(x.report.seed_dynamic, y.report.seed_dynamic);
                    assert_eq!(x.report.tainted_defs, y.report.tainted_defs);
                    assert_eq!(x.report.sid_hits, y.report.sid_hits, "trial {}", x.trial);
                    assert_eq!(x.report.first_sink, y.report.first_sink);
                    assert_eq!(x.report.extinction_dynamic, y.report.extinction_dynamic);
                    assert_eq!(x.report.live_at_end, y.report.live_at_end);
                }
            }
        }
    }

    #[test]
    fn traced_provenance_identical_across_engines() {
        // TaintHook is a shadow engine driven purely by the ExecHook
        // stream, and the compiled backend emits the interpreter's
        // stream bit-for-bit — so every provenance record must match.
        let m = module();
        let inputs = [16.0, 0.5];
        let a = traced(&m, &inputs, cfg(80, 13, 2))
            .run(&NullObserver)
            .unwrap();
        let b = traced(
            &m,
            &inputs,
            CampaignConfig {
                engine: EngineKind::Compiled,
                ..cfg(80, 13, 2)
            },
        )
        .run(&NullObserver)
        .unwrap();
        assert_eq!(
            (
                a.campaign.sdc,
                a.campaign.crash,
                a.campaign.hang,
                a.campaign.benign
            ),
            (
                b.campaign.sdc,
                b.campaign.crash,
                b.campaign.hang,
                b.campaign.benign
            )
        );
        for (x, y) in a.traced.iter().zip(&b.traced) {
            assert_eq!(x.trial, y.trial);
            assert_eq!(x.outcome, y.outcome, "trial {}", x.trial);
            assert_eq!((x.site, x.bit, x.sid), (y.site, y.bit, y.sid));
            assert_eq!(x.report.seeded, y.report.seeded);
            assert_eq!(x.report.seed_mask, y.report.seed_mask);
            assert_eq!(x.report.tainted_defs, y.report.tainted_defs);
            assert_eq!(x.report.sid_hits, y.report.sid_hits, "trial {}", x.trial);
            assert_eq!(x.report.first_sink, y.report.first_sink);
            assert_eq!(x.report.extinction_dynamic, y.report.extinction_dynamic);
            assert_eq!(x.report.live_at_end, y.report.live_at_end);
        }
    }

    #[test]
    fn heatmap_merge_invariant_across_thread_counts() {
        // The per-sid propagation heatmap is an order-invariant fold of
        // the TrialProvenance stream, so 1 worker and 4 workers must
        // produce the identical merged aggregate.
        let m = module();
        let inputs = [16.0, 0.5];
        let h1 = PropagationHeatmap::new();
        let h4 = PropagationHeatmap::new();
        traced(&m, &inputs, cfg(100, 23, 1)).run(&h1).unwrap();
        traced(&m, &inputs, cfg(100, 23, 4)).run(&h4).unwrap();
        assert_eq!(h1.trials(), 100);
        assert_eq!(h1.trials(), h4.trials());
        assert_eq!(h1.snapshot(), h4.snapshot());
        assert!(!h1.snapshot().is_empty(), "some trial must touch taint");
    }

    #[test]
    fn provenance_events_pair_with_trial_events() {
        struct Collecting(std::sync::Mutex<Vec<Event>>);
        impl Observer for Collecting {
            fn on_event(&self, event: &Event) {
                self.0.lock().unwrap().push(event.clone());
            }
        }
        let m = module();
        let obs = Collecting(std::sync::Mutex::new(Vec::new()));
        traced(&m, &[12.0, 0.5], cfg(40, 5, 3)).run(&obs).unwrap();
        let events = obs.0.into_inner().unwrap();
        let finished = events
            .iter()
            .filter(|e| e.kind() == "trial_finished")
            .count();
        let prov = events
            .iter()
            .filter(|e| e.kind() == "trial_provenance")
            .count();
        assert_eq!(finished, 40);
        assert_eq!(prov, 40);
        // Each TrialFinished is immediately followed by its provenance
        // record for the same trial.
        for w in events.windows(2) {
            if let Event::TrialFinished { trial, .. } = &w[0] {
                match &w[1] {
                    Event::TrialProvenance { trial: p, .. } => assert_eq!(trial, p),
                    other => panic!("expected provenance after trial, got {other:?}"),
                }
            }
        }
        // Spans bracket the phases.
        assert!(events.iter().any(|e| e.kind() == "span_begin"));
        assert!(events.iter().any(|e| e.kind() == "span_end"));
    }
}
