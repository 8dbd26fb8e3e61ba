//! The `peppa` binary rejects options it does not know and option values
//! that would make a command measure nothing or mis-run the program:
//! exit code 2 and a `peppa:` line on stderr, never a panic or a report
//! computed from zero trials. A flagless `peppa inject` runs the one
//! shipping configuration and measures what the interpreter measures
//! from program entry.

use peppa_x::inject::{run_campaign, CampaignConfig};
use peppa_x::vm::{EngineKind, ExecLimits};
use std::process::{Command, Output};

/// Runs `peppa` with `args`.
fn peppa_output(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_peppa"))
        .args(args)
        .output()
        .expect("peppa runs")
}

/// Runs `peppa` with `args`, returning its exit code and stderr.
fn peppa(args: &[&str]) -> (Option<i32>, String) {
    let out = peppa_output(args);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

fn assert_rejected(args: &[&str], option: &str) {
    let (code, stderr) = peppa(args);
    assert_eq!(code, Some(2), "{args:?}: exit code; stderr:\n{stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("peppa:") && l.contains(option)),
        "{args:?}: no `peppa:` line naming {option}; stderr:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{args:?}: panicked:\n{stderr}"
    );
}

#[test]
fn zero_generations_is_rejected() {
    for cmd in ["search", "ci"] {
        assert_rejected(
            &[
                cmd,
                "--bench",
                "pathfinder",
                "--generations",
                "0",
                "--quiet",
            ],
            "--generations",
        );
    }
}

#[test]
fn zero_trials_is_rejected() {
    for cmd in ["inject", "search", "ci"] {
        assert_rejected(
            &[cmd, "--bench", "pathfinder", "--trials", "0", "--quiet"],
            "--trials",
        );
    }
}

#[test]
fn removed_engine_and_snapshot_options_are_unknown() {
    for (cmd, option, value) in [
        ("run", "--engine", "compiled"),
        ("inject", "--engine", "interp"),
        ("search", "--engine", "compiled"),
        ("ci", "--engine", "compiled"),
        ("inject", "--snapshots", "16"),
    ] {
        assert_rejected(
            &[cmd, "--bench", "pathfinder", option, value, "--quiet"],
            &format!("unknown option `{option}`"),
        );
    }
}

#[test]
fn wrong_input_arity_is_rejected() {
    for cmd in ["run", "inject", "trace", "corpus"] {
        assert_rejected(
            &[
                cmd,
                "--bench",
                "pathfinder",
                "--input",
                "1",
                "--site",
                "3",
                "--quiet",
            ],
            "--input has 1 value(s), Pathfinder takes 4",
        );
    }
}

/// The count of each outcome in a `trials N: SDC x% ... benign y%` line.
fn printed_counts(line: &str, trials: u32) -> [u32; 4] {
    ["SDC", "crash", "hang", "benign"].map(|name| {
        let pct = line
            .split(&format!("{name} "))
            .nth(1)
            .and_then(|rest| rest.split('%').next())
            .and_then(|p| p.parse::<f64>().ok())
            .unwrap_or_else(|| panic!("no `{name}` percentage in {line:?}"));
        (pct * trials as f64 / 100.0).round() as u32
    })
}

#[test]
fn flagless_inject_resumes_compiled_and_matches_the_interpreter() {
    const TRIALS: u32 = 40;
    let dir = std::env::temp_dir().join(format!("peppa-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for bench in peppa_x::apps::all_benchmarks() {
        let journal = dir.join(format!("{}.jsonl", bench.name));
        let out = peppa_output(&[
            "inject",
            "--bench",
            bench.name,
            "--trials",
            &TRIALS.to_string(),
            "--seed",
            "7",
            "--trace-out",
            journal.to_str().unwrap(),
            "--quiet",
        ]);
        assert!(out.status.success(), "{}: {out:?}", bench.name);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .find(|l| l.starts_with(&format!("trials {TRIALS}:")))
            .unwrap_or_else(|| panic!("{}: no outcome line in {stdout:?}", bench.name));

        let events: Vec<serde_json::Value> = std::fs::read_to_string(&journal)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        // `field(tag, key)` of the first `tag` event that has one.
        let field = |tag: &str, key: &str| {
            events
                .iter()
                .find_map(|e| e.get(tag)?.get(key))
                .unwrap_or_else(|| panic!("{}: no {tag}.{key} in the journal", bench.name))
        };
        assert_eq!(
            field("CampaignStarted", "engine").as_str(),
            Some("compiled"),
            "{}",
            bench.name
        );
        assert!(
            events.iter().any(
                |e| e.get("SpanBegin").and_then(|s| s.get("name")?.as_str()) == Some("capture")
            ),
            "{}: no capture span",
            bench.name
        );
        let count = |key| field("SnapshotStats", key).as_u64().unwrap();
        assert_eq!(
            count("restores") + count("full_runs"),
            TRIALS as u64,
            "{}",
            bench.name
        );

        let oracle = run_campaign(
            &bench.module,
            &bench.reference_input,
            ExecLimits::default(),
            CampaignConfig {
                trials: TRIALS,
                seed: 7,
                engine: EngineKind::Interp,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(
            printed_counts(line, TRIALS),
            [oracle.sdc, oracle.crash, oracle.hang, oracle.benign],
            "{}: {line}",
            bench.name
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
