//! The `repro` binary checks its whole command line before running any
//! experiment: an unknown experiment or option, or a bad or missing
//! value, exits 2 with a `repro:` line on stderr, never a panic and never
//! a silently skipped experiment.

use std::process::Command;

#[test]
fn unknown_arguments_and_bad_values_are_rejected() {
    for (args, message) in [
        (&["nosuchexp"][..], "unknown experiment `nosuchexp`"),
        (
            &["fig1", "--engine", "compiled"],
            "unknown option `--engine`",
        ),
        (&["fig1", "--scale", "huge"], "unknown scale `huge`"),
        (&["fig1", "--seed", "x"], "bad --seed"),
        (&["fig1", "--seed"], "--seed needs a value"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("repro runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: stderr:\n{stderr}");
        assert!(
            stderr
                .lines()
                .any(|l| l.starts_with("repro:") && l.contains(message)),
            "{args:?}: no `repro:` line saying {message}; stderr:\n{stderr}"
        );
        assert!(
            !stderr.contains("[repro] running"),
            "{args:?}: ran an experiment:\n{stderr}"
        );
    }
}
