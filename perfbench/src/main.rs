//! `perfbench` — time to answer for PEPPA-X's two products: an SDC
//! probability from an FI campaign, and the SDC-bound input from a GA
//! search.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload ship|prune|search --seed N --seconds S --trace 0|1
//! ```
//!
//! A run repeats its workload's operations in passes until `S` seconds
//! have gone by (at least one pass) and reports medians over the passes,
//! with times scaled to the reference host speed (`host.rs`).
//! With `--trace 1` it then makes one traced pass and reports per-layer
//! metrics instead. Every answer is checked against the interpreter
//! reference after the timed passes. The last line of stdout is one JSON
//! object; README.md describes the workloads and metrics.

mod gate;
mod host;
mod inputs;
mod ops;
mod record;

use ops::{Op, Pass, Workload};
use peppa_x::obs::Event;
use record::split;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// The traced pass fails when its layer spans leave more than this share
/// of its wall time unaccounted.
const MAX_UNACCOUNTED: f64 = 0.01;

/// Per-layer metrics, in output order: name and unit.
const PER_LAYER: &[(&str, &str)] = &[
    ("lang.compile_s", "s"),
    ("analysis.opt_s", "s"),
    ("analysis.opt_dyn_saved", "count"),
    ("analysis.reach_s", "s"),
    ("analysis.deviation_s", "s"),
    ("analysis.masked_cells", "count"),
    ("analysis.total_cells", "count"),
    ("vm.golden_s", "s"),
    ("vm.golden_dyn", "count"),
    ("vm.capture_s", "s"),
    ("vm.snapshots", "count"),
    ("vm.snapshot_mb", "MB"),
    ("vm.restores", "count"),
    ("vm.full_runs", "count"),
    ("vm.converged_exits", "count"),
    ("vm.prefix_saved", "count"),
    ("inject.trials", "count"),
    ("inject.trials_s", "s"),
    ("inject.trial_busy_s", "s"),
    ("inject.trial_p50_ms", "ms"),
    ("inject.trial_p99_ms", "ms"),
    ("inject.trial_samples", "count"),
    ("inject.sdc", "count"),
    ("inject.crash", "count"),
    ("inject.hang", "count"),
    ("inject.benign", "count"),
    ("inject.skipped", "count"),
    ("inject.skip_ratio", "ratio"),
    ("inject.gate_engaged", "count"),
    ("core.small_input_s", "s"),
    ("core.small_input_runs", "count"),
    ("core.distribution_s", "s"),
    ("core.distribution_trials", "count"),
    ("core.representatives", "count"),
    ("ga.search_s", "s"),
    ("ga.evaluations", "count"),
    ("ga.cache_hits", "count"),
    ("ga.cost_dyn", "count"),
    ("inject.final_fi_s", "s"),
    ("op.pathfinder_s", "s"),
    ("op.needle_s", "s"),
    ("op.particlefilter_s", "s"),
    ("op.comd_s", "s"),
    ("op.hpccg_s", "s"),
    ("op.xsbench_s", "s"),
    ("op.fft_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
    ("host.speed", "ratio"),
    ("host.raw_wall_s", "s"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad {flag} `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!(
                    "unknown workload `{value}` (ship, prune or search)"
                ))?)
            }
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown option `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted samples.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set of this process so far, in MB (2^20 bytes).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn pass_wall(ops: &[Op]) -> f64 {
    ops.iter().map(Op::wall_s).sum()
}

/// The host's speed during a pass, relative to the reference: the
/// kernel's nominal time over its median time in the pass.
fn speed(p: &Pass) -> f64 {
    host::KERNEL_REF_S / median(&p.kernel_s)
}

fn pass_counts(ops: &[Op]) -> BTreeMap<&'static str, u64> {
    let mut sum = BTreeMap::new();
    for op in ops {
        for (&k, &v) in &op.counts {
            *sum.entry(k).or_insert(0) += v;
        }
    }
    sum
}

/// One span of the traced pass. Spans of one operation share `op`; the
/// operation's root span has no parent.
struct Span {
    parent: Option<usize>,
    op: usize,
    name: String,
    start: Instant,
    end: Instant,
}

fn spans_of(ops: &[Op]) -> Vec<Span> {
    let mut spans = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let root = spans.len();
        spans.push(Span {
            parent: None,
            op: i,
            name: format!("op.{}", op.program),
            start: op.start,
            end: op.end,
        });
        for t in &op.calls {
            for (name, start, end) in split(t, &op.seen) {
                spans.push(Span {
                    parent: Some(root),
                    op: i,
                    name: name.to_string(),
                    start,
                    end,
                });
            }
        }
    }
    spans
}

fn write_spans(spans: &[Span], origin: Instant, path: &str) -> Result<(), String> {
    let ns = |t: Instant| t.saturating_duration_since(origin).as_nanos();
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {id}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.op,
            s.name,
            ns(s.start),
            ns(s.end)
        )
        .expect("writing to a String cannot fail");
    }
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, out).map_err(|e| format!("{path}: {e}"))
}

/// Per-layer metrics of the traced pass. Layers a workload does not
/// run read 0.
fn per_layer(
    traced: &[Op],
    spans: &[Span],
    counts: &BTreeMap<&'static str, u64>,
    untraced_wall: f64,
) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(k, _)| (k, 0.0)).collect();
    for (&k, &v) in counts {
        if let Some(slot) = m.get_mut(k) {
            *slot = v as f64;
        }
    }
    let bytes = counts.get("vm.snapshot_bytes").copied().unwrap_or(0);
    m.insert("vm.snapshot_mb", bytes as f64 / (1u64 << 20) as f64);
    let trials = counts.get("inject.trials").copied().unwrap_or(0);
    let skipped = counts.get("inject.skipped").copied().unwrap_or(0);
    m.insert("inject.skip_ratio", skipped as f64 / trials.max(1) as f64);

    let wall = pass_wall(traced);
    let mut covered = 0.0;
    for s in spans {
        let d = (s.end - s.start).as_secs_f64();
        let key = format!("{}_s", s.name);
        if let Some((k, _)) = PER_LAYER.iter().find(|(k, _)| *k == key) {
            *m.get_mut(k).expect("every per-layer name has a slot") += d;
        }
        if s.parent.is_some() {
            covered += d;
        }
    }
    m.insert("trace.overhead_s", wall - untraced_wall);
    m.insert("trace.coverage", covered / wall);

    // Executed trials only: a statically skipped trial's `TrialFinished`
    // directly follows its `StaticSkip` and reports latency 0.
    let mut latencies = Vec::new();
    for op in traced {
        let mut skipped = false;
        for (_, e) in &op.seen.events {
            match e {
                Event::StaticSkip { .. } => skipped = true,
                Event::TrialFinished { latency_ns, .. } => {
                    if !skipped {
                        latencies.push(*latency_ns);
                    }
                    skipped = false;
                }
                _ => {}
            }
        }
    }
    latencies.sort_unstable();
    m.insert(
        "inject.trial_busy_s",
        latencies.iter().sum::<u64>() as f64 / 1e9,
    );
    m.insert(
        "inject.trial_p50_ms",
        percentile(&latencies, 0.50) as f64 / 1e6,
    );
    m.insert(
        "inject.trial_p99_ms",
        percentile(&latencies, 0.99) as f64 / 1e6,
    );
    m.insert("inject.trial_samples", latencies.len() as f64);
    m
}

fn json(correct: bool, attempted: usize, failed: usize, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, u)| format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: Args) -> Result<bool, String> {
    let w = args.workload;
    let name = w.name();
    let origin = Instant::now();

    let mut passes: Vec<Pass> = Vec::new();
    while passes.is_empty() || origin.elapsed() < Duration::from_secs(args.seconds) {
        passes.push(ops::pass(w, args.seed, false));
    }
    let rss = peak_rss_mb()?;
    let untraced = passes.len();
    if args.trace {
        passes.push(ops::pass(w, args.seed, true));
    }

    // Reference gate, outside every timed region.
    let gate_start = Instant::now();
    let refs: Vec<gate::Reference> = match w {
        Workload::Ship | Workload::Prune => inputs::CASES
            .iter()
            .map(|c| {
                gate::campaign_reference(c, args.seed, inputs::CAMPAIGN_TRIALS, w == Workload::Ship)
            })
            .collect(),
        Workload::Search => passes[0]
            .ops
            .iter()
            .map(|op| match &op.answer {
                Ok(found) => gate::search_reference(op.program, args.seed, found),
                Err(e) => gate::Reference {
                    answer: Err(e.clone()),
                    opt_dyn_saved: 0,
                },
            })
            .collect(),
    };
    let gate_s = gate_start.elapsed().as_secs_f64();
    let attempted: usize = passes.iter().map(|p| p.ops.len()).sum();
    let mut failed = 0;
    for p in &passes {
        for (op, r) in p.ops.iter().zip(&refs) {
            if gate::failed(op, r) {
                failed += 1;
                let why = match (&op.answer, &r.answer) {
                    (Err(e), _) | (_, Err(e)) => e.clone(),
                    (Ok(a), Ok(b)) => format!("answer {a:?} != reference {b:?}"),
                };
                eprintln!("perfbench: {name} {} failed: {why}", op.program);
            }
        }
    }

    // Exact work counters: every pass of one seed must repeat them.
    let mut counts = pass_counts(&passes[0].ops);
    let repeat = passes.iter().all(|p| pass_counts(&p.ops) == counts);
    if !repeat {
        eprintln!("perfbench: {name} work counters differ between passes of one seed");
    }
    let saved: u64 = refs.iter().map(|r| r.opt_dyn_saved).sum();
    if w == Workload::Ship {
        counts.insert("analysis.opt_dyn_saved", saved);
    }

    // End-to-end times are scaled to the reference host speed; the raw
    // wall times stay in the report and in the traced per-layer metrics.
    let plain = &passes[..untraced];
    let raw_walls: Vec<f64> = plain.iter().map(|p| pass_wall(&p.ops)).collect();
    let speeds: Vec<f64> = plain.iter().map(speed).collect();
    let walls: Vec<f64> = raw_walls.iter().zip(&speeds).map(|(w, s)| w * s).collect();
    let setups: Vec<f64> = plain
        .iter()
        .zip(&speeds)
        .map(|(p, s)| p.ops.iter().map(Op::setup_s).sum::<f64>() * s)
        .collect();
    // The paper's answer: per program, the highest SDC probability the
    // workload measured, averaged over the programs.
    let mut worst: BTreeMap<&str, f64> = BTreeMap::new();
    for op in &passes[0].ops {
        if let Ok(a) = &op.answer {
            let p = worst.entry(op.program).or_insert(0.0);
            *p = p.max(a.sdc_prob());
        }
    }
    let sdc_bound = worst.values().sum::<f64>() / worst.len().max(1) as f64;

    let mut out = String::new();
    let o = &mut out;
    let _ = writeln!(
        o,
        "perfbench {name}: seed {}, {untraced} untraced pass(es) of {} operations in {:.1} s, reference gate {:.1} s",
        args.seed,
        passes[0].ops.len(),
        raw_walls.iter().sum::<f64>(),
        gate_s
    );
    let each = |xs: &[f64]| {
        let v: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
        format!("passes: {}", v.join(" "))
    };
    let e2e: Vec<(&str, f64, &str)> = vec![
        ("wall_s", median(&walls), "s"),
        ("setup_s", median(&setups), "s"),
        ("peak_rss_mb", rss, "MB"),
        ("sdc_bound", sdc_bound, "probability"),
    ];
    let _ = writeln!(
        o,
        "end to end (median of the untraced passes, times at the reference host speed):"
    );
    for (k, v, u) in &e2e {
        let range = match *k {
            "wall_s" => each(&walls),
            "setup_s" => each(&setups),
            _ => String::new(),
        };
        let _ = writeln!(o, "  {name}/{k:<22} {v:>14.6} {u:<12} {range}");
    }
    let _ = writeln!(o, "  host speed {}", each(&speeds));
    let _ = writeln!(o, "  raw wall_s {}", each(&raw_walls));
    let _ = writeln!(o, "  {name}/{:<22} {attempted:>14} operations", "attempted");
    let _ = writeln!(o, "  {name}/{:<22} {failed:>14} operations", "failed");
    let _ = writeln!(
        o,
        "counts (exact for a seed; {} in every pass):",
        if repeat { "identical" } else { "NOT identical" }
    );
    for (k, v) in &counts {
        let _ = writeln!(o, "  {name}/{k:<30} {v:>14} count");
    }

    let mut correct = failed == 0 && repeat;
    let metrics = if args.trace {
        let traced = &passes[untraced].ops;
        let spans = spans_of(traced);
        let mut m = per_layer(traced, &spans, &counts, median(&raw_walls));
        m.insert("host.speed", median(&speeds));
        m.insert("host.raw_wall_s", median(&raw_walls));
        let path = format!("perfbench/out/spans-{name}-{}.jsonl", args.seed);
        write_spans(&spans, origin, &path)?;
        let coverage = m["trace.coverage"];
        if coverage < 1.0 - MAX_UNACCOUNTED {
            correct = false;
            eprintln!(
                "perfbench: {name} traced pass leaves {:.2}% of its wall time outside layer spans (limit {:.0}%)",
                (1.0 - coverage) * 100.0,
                MAX_UNACCOUNTED * 100.0
            );
        }
        let _ = writeln!(
            o,
            "traced pass: {} spans written to {path}; per layer:",
            spans.len()
        );
        let metrics: Vec<(&str, f64, &str)> =
            PER_LAYER.iter().map(|&(k, u)| (k, m[k], u)).collect();
        for (k, v, u) in &metrics {
            let _ = writeln!(o, "  {name}/{k:<30} {v:>14.6} {u}");
        }
        metrics
    } else {
        e2e
    };
    print!("{out}");
    println!("{}", json(correct, attempted, failed, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json must declare exactly the metrics a run prints.
    #[test]
    fn benchmark_json_declares_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<String> {
            let start = spec.find(&format!("\"{key}\"")).expect(key);
            let end = spec[start..].find(']').map_or(spec.len(), |e| start + e);
            spec[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("closing quote")].to_string())
                .collect()
        };
        assert_eq!(
            section("end_to_end"),
            ["wall_s", "setup_s", "peak_rss_mb", "sdc_bound"]
        );
        let layers: Vec<&str> = PER_LAYER.iter().map(|(k, _)| *k).collect();
        assert_eq!(section("per_layer"), layers);
        assert_eq!(section("workloads"), ["ship", "prune", "search"]);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted = [3, 10, 100, 1000, 77777];
        assert_eq!(percentile(&sorted, 0.5), 100);
        assert_eq!(percentile(&sorted, 0.99), 77777);
        assert_eq!(percentile(&[], 0.5), 0);
    }
}
