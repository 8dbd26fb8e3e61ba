//! `repro` — regenerate the PEPPA-X paper's tables and figures.
//!
//! ```text
//! repro <experiment>... [--scale quick|paper] [--seed N] [--out DIR]
//!       [--threads N] [--smoke] [--trace-out FILE.jsonl]
//!       [--metrics-out FILE.json] [--chrome-trace FILE.json] [--quiet]
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
//!   precision          per-bit reach analysis vs the frozen table of
//!                      the retired context-insensitive pipeline: masked
//!                      cells and skip ratios, per-cell containment gate,
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
//!   faultmodel         single- vs multi-bit fault models
//!   ablation           protection ablation on the SDC-bound inputs
//!   baseline           VM + campaign throughput (BENCH_baseline.json)
//!   all                everything above
//! ```
//!
//! Every experiment name and option is checked before anything runs: an
//! unknown one, or a bad or missing value, exits 2 with a `repro:` line
//! on stderr.
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
//! Every FI campaign runs on the compiled engine, resuming from
//! golden-prefix snapshots where an experiment asks for them. Only
//! `baseline` also runs the interpreter, to measure both engines'
//! instruction rates on the same trial plan.

use peppa_bench::{render, scale::Scale, Ctx};
use peppa_obs::{
    ChromeTrace, JsonlJournal, MetricsRegistry, MultiObserver, Observer, ProgressReporter,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

/// Every experiment `repro` runs, in the order `all` runs them.
const EXPERIMENTS: [&str; 21] = [
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
];

struct Args {
    experiments: Vec<String>,
    scale: Scale,
    seed: u64,
    out: Option<PathBuf>,
    threads: usize,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    chrome_trace: Option<PathBuf>,
    quiet: bool,
    smoke: bool,
}

/// Parses and checks the whole command line before anything runs.
fn parse_args(args: Vec<String>) -> Result<Args, String> {
    let mut a = Args {
        experiments: Vec::new(),
        scale: Scale::Quick,
        seed: 2021, // the paper's year, why not
        out: None,
        threads: 0,
        trace_out: None,
        metrics_out: None,
        chrome_trace: None,
        quiet: false,
        smoke: false,
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match arg.as_str() {
            "--scale" => {
                let v = val("--scale")?;
                a.scale = Scale::parse(&v).ok_or_else(|| format!("unknown scale `{v}`"))?;
            }
            "--seed" => a.seed = val("--seed")?.parse().map_err(|_| "bad --seed")?,
            "--out" => a.out = Some(val("--out")?.into()),
            "--threads" => a.threads = val("--threads")?.parse().map_err(|_| "bad --threads")?,
            "--trace-out" => a.trace_out = Some(val("--trace-out")?.into()),
            "--metrics-out" => a.metrics_out = Some(val("--metrics-out")?.into()),
            "--chrome-trace" => a.chrome_trace = Some(val("--chrome-trace")?.into()),
            "--quiet" => a.quiet = true,
            "--smoke" => a.smoke = true,
            name if name == "all" || EXPERIMENTS.contains(&name) => a.experiments.push(arg),
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            other => return Err(format!("unknown experiment `{other}`")),
        }
    }
    if a.experiments.iter().any(|e| e == "all") {
        a.experiments = EXPERIMENTS.map(String::from).to_vec();
    }
    if a.experiments.is_empty() {
        return Err(format!(
            "usage: repro <{}|all>... [--scale quick|paper] [--seed N] [--out DIR] \
             [--threads N] [--smoke] [--trace-out FILE.jsonl] [--metrics-out FILE.json] \
             [--chrome-trace FILE.json] [--quiet]",
            EXPERIMENTS.join("|")
        ));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let a = match parse_args(std::env::args().skip(1).collect()) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("repro: {msg}");
            return ExitCode::from(2);
        }
    };

    let mut ctx = Ctx::new(a.scale, a.seed);
    ctx.threads = a.threads;
    if let Some(dir) = &a.out {
        std::fs::create_dir_all(dir).expect("create output dir");
    }

    // Observer stack for instrumented experiments (same sinks the
    // `peppa` CLI wires up): journal + metrics registry + progress line.
    let mut multi = MultiObserver::new();
    if let Some(path) = &a.trace_out {
        let journal = JsonlJournal::create(path)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
        multi.push(Arc::new(journal));
    }
    let registry: Option<Arc<MetricsRegistry>> = a.metrics_out.as_ref().map(|_| {
        let reg = Arc::new(MetricsRegistry::new());
        multi.push(Arc::clone(&reg) as Arc<dyn Observer>);
        reg
    });
    if let Some(path) = &a.chrome_trace {
        multi.push(Arc::new(ChromeTrace::create(path)));
    }
    if !a.quiet {
        multi.push(Arc::new(ProgressReporter::new(
            std::time::Duration::from_millis(200),
        )));
    }
    let observer: Arc<dyn Observer> = Arc::new(multi);

    let dump = |name: &str, json: String| {
        if let Some(dir) = &a.out {
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

    for exp in &a.experiments {
        eprintln!(
            "[repro] running {exp} at {:?} scale (seed {})...",
            a.scale, a.seed
        );
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
                let r = peppa_bench::hybrid::run_hybrid(&ctx, a.smoke);
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
                let r = peppa_bench::precision::run_precision(&ctx, a.smoke);
                println!("{}", peppa_bench::precision::render_precision(&r));
                dump("precision", serde_json::to_string_pretty(&r).unwrap());
                if !r.sound() {
                    eprintln!(
                        "[repro] FAIL: static-precision gate violated (fine analysis \
                         dropped a cell of the frozen coarse table, the table is stale, \
                         or the median skip ratio fell below the floor)"
                    );
                    failed = true;
                }
            }
            "provenance" => {
                let r = peppa_bench::provenance::run_provenance(&ctx, a.smoke, observer.as_ref());
                println!("{}", peppa_bench::provenance::render_provenance(&r));
                dump("provenance", serde_json::to_string_pretty(&r).unwrap());
                if !r.sound() {
                    eprintln!(
                        "[repro] FAIL: provenance containment violated (a dynamically-\
                         propagating fault was statically provably masked)"
                    );
                    failed = true;
                }
            }
            "snapshot" => {
                let r =
                    peppa_bench::snapshot_exp::run_snapshot_exp(&ctx, a.smoke, observer.as_ref());
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
                let r = peppa_bench::optstudy::run_optstudy(&ctx, a.smoke);
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
                let path = a
                    .out
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
            other => unreachable!("parse_args admits only known experiments, not `{other}`"),
        }
        eprintln!("[repro] {exp} done in {:.1}s\n", t0.elapsed().as_secs_f64());
    }

    observer.flush();
    if let (Some(path), Some(reg)) = (&a.metrics_out, &registry) {
        std::fs::write(path, reg.snapshot_json())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        eprintln!("[repro] wrote {}", path.display());
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
