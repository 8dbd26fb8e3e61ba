//! The `peppa` binary rejects option values that would make a command
//! measure nothing: exit code 2 and a `peppa:` line on stderr, never a
//! panic or a report computed from zero trials.

use std::process::Command;

/// Runs `peppa` with `args`, returning its exit code and stderr.
fn peppa(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_peppa"))
        .args(args)
        .output()
        .expect("peppa runs");
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
