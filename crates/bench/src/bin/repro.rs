//! `repro` — regenerate the PEPPA-X paper's tables and figures.
//!
//! ```text
//! repro <experiment> [--scale quick|paper] [--seed N] [--out DIR]
//!       [--threads N] [--engine interp|compiled]
//!       [--trace-out FILE.jsonl] [--metrics-out FILE.json] [--quiet]
//!
//! experiments:
//!   fig1 table2        initial FI study (shared runs)
//!   fig2 table3        per-instruction rankings
//!   table4             pruning ratios (static, fast)
//!   table5             distribution-analysis time
//!   fig5 fig7 fig8     search comparison (shared runs)
//!   fig6               input-space heat maps
//!   table6             per-input evaluation time
//!   fig9               protection stress test
//!   static-rank        static masking predictor vs FI ground truth
//!   hybrid             static prune table vs FI ground truth
//!                      (results/hybrid.json; exits 1 on a soundness
//!                      violation; `--smoke` shrinks it to CI size)
//!   precision          per-bit interprocedural summaries vs the legacy
//!                      context-insensitive pipeline: masked-cell and
//!                      skip-ratio before/after, monotonicity gate,
//!                      median-skip-ratio floor (results/precision.json;
//!                      exits 1 on a gate violation)
//!   provenance         shadow-taint traced campaigns vs static reach:
//!                      containment (exit 1 on violation) + headroom
//!                      (results/provenance.json; `--smoke` for CI size)
//!   snapshot           checkpoint/fork campaign engine: wall-clock
//!                      speedup + bit-identity with the classic runner
//!                      (results/snapshot.json; exits 1 on divergence;
//!                      `--smoke` shrinks it to CI size)
//!   optstudy           optimization-vs-SDC-vulnerability study: -O2
//!                      each benchmark and compare dynamic cost, FI
//!                      outcome distributions, provenance-paired
//!                      per-instruction SDC ranks, and GA worst-case
//!                      input transfer against -O0
//!                      (results/optstudy.json; exits 1 if the geomean
//!                      dynamic-instruction reduction falls below 10%;
//!                      `--smoke` shrinks it to CI size)
//!   baseline           VM + campaign throughput (BENCH_baseline.json)
//!   all                everything above
//! ```
//!
//! Each experiment prints a paper-shaped text rendering and, with
//! `--out`, writes the raw data as JSON for downstream plotting.
//!
//! The observability flags mirror the `peppa` CLI: `--trace-out`
//! appends every pipeline event of instrumented experiments (currently
//! `baseline` and `provenance`) as JSONL, `--metrics-out` writes a
//! metrics snapshot on exit, `--chrome-trace` writes a Chrome
//! trace-event JSON file (loadable in Perfetto / `chrome://tracing`),
//! and `--quiet` suppresses the live progress reporter.
//!
//! `--engine compiled` runs every FI campaign on the register-allocated
//! threaded-bytecode engine instead of the tree-walking interpreter.
//! Outcomes are bit-identical either way (the engine differential test
//! enforces this), so the flag is purely a wall-clock knob — except for
//! `baseline`, whose per-engine columns always measure both.
//! Per-instruction measurements (`fig2`/`table3`, `static-rank`,
//! `table5`, `optstudy`, `fig9`) and the search's preparation and
//! fitness runs always run compiled.

use peppa_bench::{render, scale::Scale, Ctx};
use peppa_obs::{
    ChromeTrace, JsonlJournal, MetricsRegistry, MultiObserver, Observer, ProgressReporter,
};
use peppa_vm::EngineKind;
use std::path::PathBuf;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!(
            "usage: repro <fig1|fig2|fig5|fig6|fig7|fig8|fig9|table2..6|static-rank|hybrid|precision|snapshot|optstudy|baseline|all> \
             [--scale quick|paper] [--seed N] [--out DIR] [--threads N] [--smoke] \
             [--engine interp|compiled] [--trace-out FILE.jsonl] [--metrics-out FILE.json] \
             [--chrome-trace FILE.json] [--quiet]"
        );
        std::process::exit(2);
    }

    let mut experiments: Vec<String> = Vec::new();
    let mut scale = Scale::Quick;
    let mut seed = 2021u64; // the paper's year, why not
    let mut out: Option<PathBuf> = None;
    let mut threads = 0usize;
    let mut trace_out: Option<PathBuf> = None;
    let mut metrics_out: Option<PathBuf> = None;
    let mut chrome_trace: Option<PathBuf> = None;
    let mut quiet = false;
    let mut smoke = false;
    let mut engine = EngineKind::Interp;

    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().expect("--scale needs a value");
                scale = Scale::parse(&v).unwrap_or_else(|| panic!("unknown scale `{v}`"));
            }
            "--seed" => {
                seed = it
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("seed must be u64");
            }
            "--out" => out = Some(PathBuf::from(it.next().expect("--out needs a dir"))),
            "--threads" => {
                threads = it
                    .next()
                    .expect("--threads needs a value")
                    .parse()
                    .expect("threads must be usize");
            }
            "--trace-out" => {
                trace_out = Some(PathBuf::from(it.next().expect("--trace-out needs a file")));
            }
            "--metrics-out" => {
                metrics_out = Some(PathBuf::from(
                    it.next().expect("--metrics-out needs a file"),
                ));
            }
            "--chrome-trace" => {
                chrome_trace = Some(PathBuf::from(
                    it.next().expect("--chrome-trace needs a file"),
                ));
            }
            "--engine" => {
                let v = it.next().expect("--engine needs a value");
                engine = v
                    .parse()
                    .unwrap_or_else(|e: String| panic!("--engine: {e}"));
            }
            "--quiet" => quiet = true,
            "--smoke" => smoke = true,
            other => experiments.push(other.to_string()),
        }
    }
    if experiments.iter().any(|e| e == "all") {
        experiments = [
            "fig1",
            "table2",
            "fig2",
            "table3",
            "table4",
            "table5",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "table6",
            "fig9",
            "static-rank",
            "hybrid",
            "precision",
            "provenance",
            "snapshot",
            "optstudy",
            "faultmodel",
            "ablation",
            "baseline",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    let mut ctx = Ctx::new(scale, seed);
    ctx.threads = threads;
    ctx.engine = engine;
    if let Some(dir) = &out {
        std::fs::create_dir_all(dir).expect("create output dir");
    }

    // Observer stack for instrumented experiments (same sinks the
    // `peppa` CLI wires up): journal + metrics registry + progress line.
    let mut multi = MultiObserver::new();
    if let Some(path) = &trace_out {
        let journal = JsonlJournal::create(path)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
        multi.push(Arc::new(journal));
    }
    let registry: Option<Arc<MetricsRegistry>> = metrics_out.as_ref().map(|_| {
        let reg = Arc::new(MetricsRegistry::new());
        multi.push(Arc::clone(&reg) as Arc<dyn Observer>);
        reg
    });
    if let Some(path) = &chrome_trace {
        multi.push(Arc::new(ChromeTrace::create(path)));
    }
    if !quiet {
        multi.push(Arc::new(ProgressReporter::new(
            std::time::Duration::from_millis(200),
        )));
    }
    let observer: Arc<dyn Observer> = Arc::new(multi);

    let dump = |name: &str, json: String| {
        if let Some(dir) = &out {
            let path = dir.join(format!("{name}.json"));
            std::fs::write(&path, json).expect("write json");
            eprintln!("[repro] wrote {}", path.display());
        }
    };

    // The search experiment feeds several artifacts; compute lazily once.
    let mut failed = false;
    let mut search_report: Option<peppa_bench::search_exp::SearchReportAll> = None;
    let mut study_report: Option<peppa_bench::study::StudyReport> = None;
    let mut rank_report: Option<peppa_bench::ranks::RankReport> = None;

    for exp in &experiments {
        eprintln!("[repro] running {exp} at {scale:?} scale (seed {seed})...");
        let t0 = std::time::Instant::now();
        match exp.as_str() {
            "fig1" | "table2" => {
                if study_report.is_none() {
                    study_report = Some(peppa_bench::study::run_study(&ctx));
                }
                let r = study_report.as_ref().unwrap();
                if exp == "fig1" {
                    println!("{}", render::render_fig1(r));
                } else {
                    println!("{}", render::render_table2(r));
                }
                dump("study", serde_json::to_string_pretty(r).unwrap());
            }
            "fig2" | "table3" => {
                if rank_report.is_none() {
                    rank_report = Some(peppa_bench::ranks::run_ranks(&ctx));
                }
                let r = rank_report.as_ref().unwrap();
                if exp == "fig2" {
                    println!("{}", render::render_fig2(r));
                } else {
                    println!("{}", render::render_table3(r));
                }
                dump("ranks", serde_json::to_string_pretty(r).unwrap());
            }
            "table4" => {
                let r = peppa_bench::pruning_exp::run_pruning_ratios();
                println!("{}", render::render_table4(&r));
                dump("table4", serde_json::to_string_pretty(&r).unwrap());
            }
            "table5" => {
                let r = peppa_bench::pruning_exp::run_analysis_time(&ctx);
                println!("{}", render::render_table5(&r));
                dump("table5", serde_json::to_string_pretty(&r).unwrap());
            }
            "fig5" | "fig7" | "fig8" => {
                if search_report.is_none() {
                    search_report = Some(peppa_bench::search_exp::run_search(&ctx));
                }
                let r = search_report.as_ref().unwrap();
                match exp.as_str() {
                    "fig5" => println!("{}", render::render_fig5(r)),
                    "fig7" => println!("{}", render::render_fig7(r)),
                    _ => println!("{}", render::render_fig8(r)),
                }
                dump("search", serde_json::to_string_pretty(r).unwrap());
            }
            "fig6" => {
                let maps = peppa_bench::heatmap::run_heatmaps(&ctx);
                println!("{}", render::render_fig6(&maps));
                dump("fig6", serde_json::to_string_pretty(&maps).unwrap());
            }
            "table6" => {
                let r = peppa_bench::search_exp::run_per_input_time(&ctx);
                println!("{}", render::render_table6(&r));
                dump("table6", serde_json::to_string_pretty(&r).unwrap());
            }
            "fig9" => {
                // Reuse SDC-bound inputs from a fig5 run when available.
                let bound: Vec<(String, Vec<f64>)> = search_report
                    .as_ref()
                    .map(|r| {
                        r.rows
                            .iter()
                            .map(|row| (row.benchmark.clone(), row.sdc_bound_input.clone()))
                            .collect()
                    })
                    .unwrap_or_default();
                let r = peppa_bench::protect_exp::run_protect(&ctx, &bound);
                println!("{}", render::render_fig9(&r));
                dump("fig9", serde_json::to_string_pretty(&r).unwrap());
            }
            "static-rank" => {
                let r = peppa_bench::static_rank::run_static_rank(&ctx);
                println!("{}", render::render_static_rank(&r));
                dump("static_rank", serde_json::to_string_pretty(&r).unwrap());
            }
            "hybrid" => {
                let r = peppa_bench::hybrid::run_hybrid(&ctx, smoke);
                println!("{}", peppa_bench::hybrid::render_hybrid(&r));
                dump("hybrid", serde_json::to_string_pretty(&r).unwrap());
                if !r.sound() {
                    eprintln!(
                        "[repro] FAIL: static pruning soundness violated (masked cell \
                         produced an SDC, or pruned counts diverged)"
                    );
                    failed = true;
                }
            }
            "precision" => {
                let r = peppa_bench::precision::run_precision(&ctx, smoke);
                println!("{}", peppa_bench::precision::render_precision(&r));
                dump("precision", serde_json::to_string_pretty(&r).unwrap());
                if !r.sound() {
                    eprintln!(
                        "[repro] FAIL: static-precision gate violated (fine analysis \
                         dropped a coarse-masked cell, or the median skip ratio fell \
                         below the floor)"
                    );
                    failed = true;
                }
            }
            "provenance" => {
                let r = peppa_bench::provenance::run_provenance(&ctx, smoke, observer.as_ref());
                println!("{}", peppa_bench::provenance::render_provenance(&r));
                dump("provenance", serde_json::to_string_pretty(&r).unwrap());
                if !r.sound() {
                    eprintln!(
                        "[repro] FAIL: provenance containment violated (a dynamically-\
                         propagating fault was statically classified ProvablyMasked)"
                    );
                    failed = true;
                }
            }
            "snapshot" => {
                let r = peppa_bench::snapshot_exp::run_snapshot_exp(&ctx, smoke, observer.as_ref());
                println!("{}", peppa_bench::snapshot_exp::render_snapshot_exp(&r));
                dump("snapshot", serde_json::to_string_pretty(&r).unwrap());
                if !r.sound() {
                    eprintln!(
                        "[repro] FAIL: snapshot determinism violated (snapshotted outcome \
                         counts diverged from the classic campaign runner)"
                    );
                    failed = true;
                }
            }
            "optstudy" => {
                let r = peppa_bench::optstudy::run_optstudy(&ctx, smoke);
                println!("{}", peppa_bench::optstudy::render_optstudy(&r));
                dump("optstudy", serde_json::to_string_pretty(&r).unwrap());
                if !r.sound() {
                    eprintln!(
                        "[repro] FAIL: optimization gate violated (geomean dynamic-\
                         instruction reduction at O2 fell below 10%)"
                    );
                    failed = true;
                }
            }
            "baseline" => {
                let r = peppa_bench::baseline::run_baseline(&ctx, Arc::clone(&observer));
                println!("{}", peppa_bench::baseline::render_baseline(&r));
                let json = serde_json::to_string_pretty(&r).unwrap();
                // The throughput baseline is a checked-in regression
                // reference, so it keeps a stable name at the top of
                // the output dir (default: working directory).
                let path = out
                    .clone()
                    .unwrap_or_else(|| PathBuf::from("."))
                    .join("BENCH_baseline.json");
                std::fs::write(&path, json).expect("write BENCH_baseline.json");
                eprintln!("[repro] wrote {}", path.display());
            }
            "faultmodel" => {
                let r = peppa_bench::faultmodel::run_fault_models(&ctx);
                println!("{}", render::render_faultmodel(&r));
                dump("faultmodel", serde_json::to_string_pretty(&r).unwrap());
            }
            "ablation" => {
                let bound: Vec<(String, Vec<f64>)> = search_report
                    .as_ref()
                    .map(|r| {
                        r.rows
                            .iter()
                            .map(|row| (row.benchmark.clone(), row.sdc_bound_input.clone()))
                            .collect()
                    })
                    .unwrap_or_default();
                let r = peppa_bench::protect_exp::run_ablation(&ctx, &bound);
                println!("{}", render::render_ablation(&r));
                dump("ablation", serde_json::to_string_pretty(&r).unwrap());
            }
            other => {
                eprintln!("[repro] unknown experiment `{other}` — skipping");
            }
        }
        eprintln!("[repro] {exp} done in {:.1}s\n", t0.elapsed().as_secs_f64());
    }

    observer.flush();
    if let (Some(path), Some(reg)) = (&metrics_out, &registry) {
        std::fs::write(path, reg.snapshot_json())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        eprintln!("[repro] wrote {}", path.display());
    }
    if failed {
        std::process::exit(1);
    }
}
