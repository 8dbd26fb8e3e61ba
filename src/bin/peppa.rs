//! `peppa` — command-line front end to the PEPPA-X toolchain.
//!
//! Operates on MiniC source files (or the built-in benchmarks via
//! `--bench NAME`):
//!
//! ```text
//! peppa compile  prog.mc                          dump the compiled PIR
//! peppa opt      prog.mc [-O0|-O1|-O2] [--print-pipeline]
//!                optimize through the rewrite engine and dump the
//!                optimized PIR (stdout); per-pass statistics go to
//!                stderr. Defaults to -O2; `--print-pipeline` lists the
//!                pass pipeline for the level and exits
//! peppa run      prog.mc --input 8,2.5 [--profile] golden run + profile
//! peppa inject   prog.mc --input 8,2.5 [--trials 1000] [--seed 1]
//!                [--threads N] [--static-prune] [--trace-propagation]
//!                [--trace-out t.jsonl] [--metrics-out m.json] [--quiet]
//!                the golden prefix is captured at up to 16 stratified
//!                fork points and every trial resumes from the latest
//!                snapshot before its fault site;
//!                with --static-prune, trials whose sampled fault cell
//!                the interprocedural reachability analysis proves
//!                masked are counted Benign without executing them
//!                (gated: pruning stays off when the table predicts no
//!                skips at all for this input);
//!                with --trace-propagation, every trial runs under the
//!                shadow-taint engine and the campaign reports how far
//!                each fault travelled (sink reached vs extinguished)
//!                plus a per-instruction propagation heatmap.
//!                Each flag adds one stage to the same campaign plan;
//!                --static-prune --trace-propagation is the one refused
//!                pair (a skipped trial has no execution to trace)
//! peppa analyze  prog.mc                          pruning report
//! peppa lint     prog.mc [--deny-warnings] [--json]
//!                verify + static findings (dead values, unreachable
//!                blocks, always-taken branches, trapping accesses);
//!                exits non-zero on errors, or on warnings with
//!                --deny-warnings
//! peppa trace    prog.mc --input 8,2.5 --site 12 --bit 40
//! peppa corpus   prog.mc --input 8,2.5 --count 200 > corpus.json
//! peppa search   prog.mc --spec "n:int:4:64:4:8,s:float:0.1:9:0.1:1" \
//!                --ref 32,1.0 [--generations 50]  find the SDC-bound input;
//!                both FI stages (distribution and final) resume their
//!                trials from up to 16 golden-prefix snapshots.
//!                --trials (final FI size) and --generations must be
//!                at least 1
//! peppa ci       prog.mc --spec ... --ref ... --budget-sdc 0.25
//!                exits non-zero if the SDC bound exceeds the budget
//!                (the paper's §7.1.2 continuous-integration use case);
//!                runs the search exactly as `peppa search` does
//! ```
//!
//! `--spec` entries are `name:int|float:lo:hi:small_lo:small_hi`, one per
//! program input, defining the search space and the small-FI-input
//! window. `--input` and `--ref` take one value per program input.
//!
//! Every command that executes the program runs on the compiled engine,
//! except `trace` and `corpus`: they diff final memory images, which
//! only the interpreter captures.
//!
//! Observability flags (available on every subcommand that executes the
//! pipeline): `--trace-out FILE.jsonl` writes a replayable JSONL run
//! journal, `--metrics-out FILE.json` writes a metrics snapshot on exit,
//! `--chrome-trace FILE.json` writes a Chrome trace-event file (open it
//! in Perfetto or `chrome://tracing`), `--quiet` suppresses the live
//! progress line, `--threads N` sets the FI worker count (0 = all
//! cores).
//!
//! Every subcommand accepts `--opt-level N` (or `-O0`/`-O1`/`-O2`): the
//! module is run through the analysis-driven rewrite engine before the
//! command executes, so `run`, `inject`, `search`, `ci` and `lint` all
//! operate on the optimized program. The default is `-O0` (no rewriting)
//! everywhere except `peppa opt`, which defaults to `-O2`.

use peppa_x::analysis::FaultReach;
use peppa_x::apps::{ArgSpec, Benchmark};
use peppa_x::core::{PeppaConfig, PeppaX};
use peppa_x::inject::{
    generate_corpus, trace_propagation, CampaignConfig, CampaignPlan, PruneGate, StaticPrune,
    DEFAULT_SNAPSHOTS,
};
use peppa_x::obs::{
    ChromeTrace, JsonlJournal, MetricsRegistry, MultiObserver, ProgressReporter, PropagationHeatmap,
};
use peppa_x::vm::{CompiledModule, Engine, ExecLimits, Injection, InjectionTarget, OpcodeProfile};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("peppa: {msg}");
            ExitCode::from(2)
        }
    }
}

struct Opts {
    input: Option<Vec<f64>>,
    spec: Option<Vec<ArgSpec>>,
    reference: Option<Vec<f64>>,
    trials: u32,
    seed: u64,
    generations: u64,
    site: Option<u64>,
    bit: u32,
    count: usize,
    budget_sdc: f64,
    bench: Option<String>,
    threads: usize,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    chrome_trace: Option<String>,
    quiet: bool,
    profile: bool,
    deny_warnings: bool,
    json: bool,
    static_prune: bool,
    trace_propagation: bool,
    opt_level: Option<peppa_x::analysis::OptLevel>,
    print_pipeline: bool,
}

fn parse_opts(rest: &[String]) -> Result<(Option<String>, Opts), String> {
    let mut file = None;
    let mut o = Opts {
        input: None,
        spec: None,
        reference: None,
        trials: 1000,
        seed: 1,
        generations: 50,
        site: None,
        bit: 0,
        count: 200,
        budget_sdc: 1.0,
        bench: None,
        threads: 0,
        trace_out: None,
        metrics_out: None,
        chrome_trace: None,
        quiet: false,
        profile: false,
        deny_warnings: false,
        json: false,
        static_prune: false,
        trace_propagation: false,
        opt_level: None,
        print_pipeline: false,
    };
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--input" => o.input = Some(parse_floats(&val("--input")?)?),
            "--ref" => o.reference = Some(parse_floats(&val("--ref")?)?),
            "--spec" => o.spec = Some(parse_spec(&val("--spec")?)?),
            // A campaign of no trials measures nothing, and a search of no
            // generations has no input to report.
            "--trials" => o.trials = positive(&val("--trials")?, "--trials")?,
            "--seed" => o.seed = val("--seed")?.parse().map_err(|_| "bad --seed")?,
            "--generations" => o.generations = positive(&val("--generations")?, "--generations")?,
            "--site" => o.site = Some(val("--site")?.parse().map_err(|_| "bad --site")?),
            "--bit" => o.bit = val("--bit")?.parse().map_err(|_| "bad --bit")?,
            "--count" => o.count = val("--count")?.parse().map_err(|_| "bad --count")?,
            "--budget-sdc" => {
                o.budget_sdc = val("--budget-sdc")?
                    .parse()
                    .map_err(|_| "bad --budget-sdc")?
            }
            "--bench" => o.bench = Some(val("--bench")?),
            "--threads" => o.threads = val("--threads")?.parse().map_err(|_| "bad --threads")?,
            "--trace-out" => o.trace_out = Some(val("--trace-out")?),
            "--metrics-out" => o.metrics_out = Some(val("--metrics-out")?),
            "--chrome-trace" => o.chrome_trace = Some(val("--chrome-trace")?),
            "--quiet" => o.quiet = true,
            "--profile" => o.profile = true,
            "--deny-warnings" => o.deny_warnings = true,
            "--json" => o.json = true,
            "--static-prune" => o.static_prune = true,
            "--trace-propagation" => o.trace_propagation = true,
            "--opt-level" => o.opt_level = Some(val("--opt-level")?.parse()?),
            "-O0" | "-O1" | "-O2" => o.opt_level = Some(a.parse()?),
            "--print-pipeline" => o.print_pipeline = true,
            other if !other.starts_with("--") && file.is_none() => {
                file = Some(other.to_string());
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    Ok((file, o))
}

/// Parses a count that must be at least 1.
fn positive<T: std::str::FromStr + Default + PartialEq>(s: &str, name: &str) -> Result<T, String> {
    match s.parse::<T>() {
        Ok(n) if n != T::default() => Ok(n),
        Ok(_) => Err(format!("{name} must be at least 1")),
        Err(_) => Err(format!("bad {name}")),
    }
}

fn parse_floats(s: &str) -> Result<Vec<f64>, String> {
    s.split(',')
        .map(|p| {
            p.trim()
                .parse::<f64>()
                .map_err(|_| format!("bad number `{p}`"))
        })
        .collect()
}

fn parse_spec(s: &str) -> Result<Vec<ArgSpec>, String> {
    s.split(',')
        .map(|entry| {
            let parts: Vec<&str> = entry.trim().split(':').collect();
            if parts.len() != 6 {
                return Err(format!(
                    "spec entry `{entry}` must be name:int|float:lo:hi:small_lo:small_hi"
                ));
            }
            let name: &'static str = Box::leak(parts[0].to_string().into_boxed_str());
            let num = |i: usize| -> Result<f64, String> {
                parts[i]
                    .parse()
                    .map_err(|_| format!("bad number `{}`", parts[i]))
            };
            match parts[1] {
                "int" => Ok(ArgSpec::int(
                    name,
                    num(2)? as i64,
                    num(3)? as i64,
                    (num(4)? as i64, num(5)? as i64),
                )),
                "float" => Ok(ArgSpec::float(name, num(2)?, num(3)?, (num(4)?, num(5)?))),
                t => Err(format!("bad type `{t}` (int or float)")),
            }
        })
        .collect()
}

fn load_program(file: Option<String>, o: &Opts) -> Result<Benchmark, String> {
    if let Some(name) = &o.bench {
        return peppa_x::apps::benchmark_by_name(name)
            .ok_or_else(|| format!("unknown benchmark `{name}`"));
    }
    let file = file.ok_or("no input file (or --bench NAME) given")?;
    let source = std::fs::read_to_string(&file).map_err(|e| format!("{file}: {e}"))?;
    let module = peppa_x::lang::compile(&source, &file).map_err(|e| format!("{file}: {e}"))?;
    let nparams = module.entry_func().params.len();

    let args: Vec<ArgSpec> = match &o.spec {
        Some(spec) => {
            if spec.len() != nparams {
                return Err(format!(
                    "--spec has {} entries, program takes {nparams}",
                    spec.len()
                ));
            }
            spec.clone()
        }
        None => (0..nparams)
            .map(|i| {
                let name: &'static str = Box::leak(format!("arg{i}").into_boxed_str());
                ArgSpec::float(name, -1e6, 1e6, (0.0, 10.0))
            })
            .collect(),
    };
    let reference_input = o
        .reference
        .clone()
        .or_else(|| o.input.clone())
        .unwrap_or_else(|| args.iter().map(|a| a.clamp((a.lo + a.hi) / 2.0)).collect());

    Ok(Benchmark {
        name: Box::leak(file.clone().into_boxed_str()),
        suite: "user",
        description: "user program",
        source: Box::leak(source.into_boxed_str()),
        module,
        args,
        reference_input,
    })
}

/// Builds the observer stack requested by the flags: JSONL journal
/// (`--trace-out`), metrics registry (`--metrics-out`), Chrome trace
/// exporter (`--chrome-trace`), a propagation heatmap when
/// `--trace-propagation` is on, and a live progress line unless
/// `--quiet`. The registry and heatmap handles are returned separately
/// so the snapshot/table can be written on exit.
#[allow(clippy::type_complexity)]
fn build_observer(
    o: &Opts,
) -> Result<
    (
        MultiObserver,
        Option<Arc<MetricsRegistry>>,
        Option<Arc<PropagationHeatmap>>,
    ),
    String,
> {
    let mut multi = MultiObserver::new();
    let mut registry = None;
    let mut heatmap = None;
    if let Some(path) = &o.trace_out {
        let journal = JsonlJournal::create(path).map_err(|e| format!("{path}: {e}"))?;
        multi.push(Arc::new(journal));
    }
    if o.metrics_out.is_some() {
        let reg = Arc::new(MetricsRegistry::new());
        multi.push(Arc::clone(&reg) as Arc<dyn peppa_x::obs::Observer>);
        registry = Some(reg);
    }
    if let Some(path) = &o.chrome_trace {
        multi.push(Arc::new(ChromeTrace::create(path)));
    }
    if o.trace_propagation {
        let heat = Arc::new(PropagationHeatmap::new());
        multi.push(Arc::clone(&heat) as Arc<dyn peppa_x::obs::Observer>);
        heatmap = Some(heat);
    }
    if !o.quiet {
        multi.push(Arc::new(ProgressReporter::default()));
    }
    Ok((multi, registry, heatmap))
}

fn write_metrics(o: &Opts, registry: &Option<Arc<MetricsRegistry>>) -> Result<(), String> {
    if let (Some(path), Some(reg)) = (&o.metrics_out, registry) {
        std::fs::write(path, reg.snapshot_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

fn run(args: Vec<String>) -> Result<ExitCode, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(
            "usage: peppa <compile|opt|run|inject|analyze|lint|trace|corpus|search|ci> ...".into(),
        );
    };
    let (file, o) = parse_opts(rest)?;
    let level = o.opt_level.unwrap_or(if cmd == "opt" {
        peppa_x::analysis::OptLevel::O2
    } else {
        peppa_x::analysis::OptLevel::O0
    });
    if cmd == "opt" && o.print_pipeline {
        println!("{level} pipeline:");
        for p in peppa_x::analysis::rewrite::pipeline(level) {
            println!("  {}", p.name());
        }
        return Ok(ExitCode::SUCCESS);
    }
    let mut bench = load_program(file, &o)?;
    // Rewrite the module up front so every subcommand — run, inject,
    // search, ci, lint, analyze — operates on the optimized program.
    let opt_stats = (level != peppa_x::analysis::OptLevel::O0).then(|| {
        let r = peppa_x::analysis::optimize(&bench.module, level);
        bench.module = r.module;
        r.stats
    });
    let nparams = bench.module.entry_func().params.len();
    for (flag, values) in [("--input", &o.input), ("--ref", &o.reference)] {
        if let Some(v) = values.as_ref().filter(|v| v.len() != nparams) {
            return Err(format!(
                "{flag} has {} value(s), {} takes {nparams}",
                v.len(),
                bench.name
            ));
        }
    }
    let limits = ExecLimits::default();
    let input = o
        .input
        .clone()
        .unwrap_or_else(|| bench.reference_input.clone());
    let (observer, registry, heatmap) = build_observer(&o)?;
    let mut exit = ExitCode::SUCCESS;

    match cmd.as_str() {
        "compile" => {
            print!("{}", bench.module);
        }
        "opt" => {
            // Optimized PIR on stdout (re-parseable), statistics on
            // stderr so redirection keeps the module clean.
            print!("{}", bench.module);
            if let Some(stats) = &opt_stats {
                eprint!("{}", peppa_x::analysis::rewrite::render_stats(stats));
            }
        }
        "run" => {
            let code = CompiledModule::lower(&bench.module);
            let eng = Engine::compiled(&bench.module, &code, limits);
            let out = if o.profile {
                let bits = peppa_x::vm::encode_inputs(bench.module.entry_func(), &input);
                let mut prof = OpcodeProfile::new(64);
                let out = eng.run_with_hook(&bits, None, &mut prof);
                println!("{}", prof.hot_table(&bench.module, 10));
                out
            } else {
                eng.run_numeric(&input, None)
            };
            println!("status: {:?}", out.status);
            for (i, w) in out.output.iter().enumerate() {
                println!(
                    "output[{i}] = {} (as f64: {})",
                    *w as i64,
                    f64::from_bits(*w)
                );
            }
            println!(
                "dynamic instructions: {} ({} fault sites), coverage {:.1}%",
                out.profile.dynamic,
                out.profile.value_dynamic,
                out.profile.coverage() * 100.0
            );
        }
        "inject" => {
            let cfg = CampaignConfig {
                trials: o.trials,
                seed: o.seed,
                threads: o.threads,
                ..Default::default()
            };
            // Each flag adds one stage to the plan; the plan refuses the
            // one combination that does not compose.
            let prune = o.static_prune.then(|| {
                let fr = FaultReach::analyze(&bench.module);
                let table = StaticPrune {
                    cells: fr.skip_cells(cfg.burst),
                    burst: cfg.burst,
                };
                (table, fr.masked_cells(cfg.burst))
            });
            let mut plan = CampaignPlan::new(&bench.module, &input, limits, cfg)
                .snapshots(DEFAULT_SNAPSHOTS)
                .trace(o.trace_propagation);
            if let Some((table, _)) = &prune {
                plan = plan.prune(table, PruneGate::default());
            }
            let result = plan.run(&observer).map_err(|e| e.to_string())?;
            if let (Some((_, (masked, total))), Some(d)) = (&prune, &result.decision) {
                println!(
                    "static prune: {masked}/{total} cells provably masked, gate {} (predicted skip {:.2}%), {} of {} trials skipped ({:.2}%)",
                    if d.applied { "engaged" } else { "disengaged" },
                    d.predicted_skip_ratio * 100.0,
                    result.skipped,
                    result.campaign.trials,
                    result.skip_ratio() * 100.0
                );
            }
            if o.trace_propagation {
                let seeded = result.traced.iter().filter(|t| t.report.seeded).count();
                println!(
                    "propagation: {} seeded faults — {} reached a sink, {} extinguished, {} dormant at exit",
                    seeded,
                    result.propagated(),
                    result.extinguished(),
                    seeded - result.propagated() - result.extinguished()
                );
                if let Some(h) = &heatmap {
                    print!("{}", h.render(10));
                }
            }
            let r = result.campaign;
            println!(
                "trials {}: SDC {:.2}% (CI ±{:.2}pp)  crash {:.2}%  hang {:.2}%  benign {:.2}%",
                r.trials,
                r.sdc_prob() * 100.0,
                r.sdc_ci.half_width * 100.0,
                r.crash_prob() * 100.0,
                r.hang as f64 / r.trials as f64 * 100.0,
                r.benign as f64 / r.trials as f64 * 100.0
            );
        }
        "analyze" => {
            let p = peppa_x::analysis::prune_fi_space(&bench.module);
            println!(
                "{} static instructions, {} injectable, {} dataflow subgroups, pruning ratio {:.1}%",
                bench.module.num_instrs,
                p.injectable,
                p.groups.len(),
                p.pruning_ratio() * 100.0
            );
        }
        "lint" => {
            use peppa_x::obs::{Event, Observer};
            observer.on_event(&Event::AnalysisStarted {
                benchmark: bench.name.to_string(),
                pass: "lint".into(),
            });
            let t0 = std::time::Instant::now();
            let report = peppa_x::analysis::lint_module(&bench.module);
            observer.on_event(&Event::AnalysisFinished {
                pass: "lint".into(),
                findings: report.lints.len() as u64,
                wall_ns: t0.elapsed().as_nanos() as u64,
            });
            if o.json {
                println!("{}", serde_json::to_string_pretty(&report).unwrap());
            } else {
                for l in &report.lints {
                    println!("{l}");
                }
                println!(
                    "{}: {} error(s), {} warning(s)",
                    bench.name,
                    report.errors(),
                    report.warnings()
                );
            }
            let errors = report.errors();
            let warnings = report.warnings();
            if errors > 0 || (o.deny_warnings && warnings > 0) {
                exit = ExitCode::from(1);
            }
        }
        "trace" => {
            let site = o.site.ok_or("trace needs --site <dynamic value index>")?;
            let inj = Injection {
                target: InjectionTarget::DynamicIndex(site),
                bit: o.bit,
                burst: 0,
            };
            let t = trace_propagation(&bench.module, &input, inj, limits, 10);
            println!("outcome: {:?}", t.outcome);
            println!(
                "{:>12} {:>14} {:>10}",
                "dynamic", "corrupt words", "outputs"
            );
            for s in &t.samples {
                println!(
                    "{:>12} {:>14} {:>10}",
                    s.dynamic, s.corrupted_mem_words, s.corrupted_outputs
                );
            }
        }
        "corpus" => {
            let corpus = generate_corpus(&bench.module, &input, limits, o.count, o.seed)
                .map_err(|e| e.to_string())?;
            println!("{}", serde_json_string(&corpus)?);
        }
        "search" | "ci" => {
            let cfg = PeppaConfig {
                seed: o.seed,
                final_fi_trials: o.trials,
                threads: o.threads,
                ..Default::default()
            };
            let px = PeppaX::prepare(&bench, cfg).map_err(|e| e.to_string())?;
            let report = px.search_observed(&[o.generations], &observer);
            let bound = report.sdc_bound();
            println!(
                "SDC-bound input: {:?}\nbounded SDC probability: {:.2}% (CI ±{:.2}pp)",
                bound.input,
                bound.sdc.sdc_prob() * 100.0,
                bound.sdc.sdc_ci.half_width * 100.0
            );
            if cmd == "ci" {
                if bound.sdc.sdc_prob() > o.budget_sdc {
                    eprintln!(
                        "FAIL: SDC bound {:.2}% exceeds budget {:.2}%",
                        bound.sdc.sdc_prob() * 100.0,
                        o.budget_sdc * 100.0
                    );
                    exit = ExitCode::from(1);
                } else {
                    println!("PASS: SDC bound within budget {:.2}%", o.budget_sdc * 100.0);
                }
            }
        }
        other => return Err(format!("unknown command `{other}`")),
    }
    peppa_x::obs::Observer::flush(&observer);
    write_metrics(&o, &registry)?;
    Ok(exit)
}

// Tiny hand-rolled JSON encoding for the corpus (the root crate avoids a
// serde_json dependency; the bench crate uses serde_json for its own
// artifacts).
fn serde_json_string(corpus: &[peppa_x::inject::CorpusEntry]) -> Result<String, String> {
    let mut s = String::from("[\n");
    for (i, e) in corpus.iter().enumerate() {
        s.push_str(&format!(
            "  {{\"dyn_index\": {}, \"bit\": {}, \"outcome\": \"{:?}\", \
             \"corrupted_mem_words\": {}, \"corrupted_outputs\": {}}}{}\n",
            e.dyn_index,
            e.bit,
            e.outcome,
            e.corrupted_mem_words,
            e.corrupted_outputs,
            if i + 1 < corpus.len() { "," } else { "" }
        ));
    }
    s.push(']');
    Ok(s)
}
