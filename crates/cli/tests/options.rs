//! The `locmps` binary refuses options its command does not declare and
//! options given twice: a misspelled option is an error, not a silently
//! ignored default, and a repeated one does not silently keep its last
//! value.

use std::process::Command;

use locmps_workloads::synthetic::{synthetic_graph, SyntheticConfig};

/// Runs the `locmps` binary; returns whether it exited 0, its stdout and
/// its stderr.
fn cli(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_locmps"))
        .args(args)
        .output()
        .expect("run the locmps binary");
    (
        out.status.success(),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

fn graph_file(tag: &str) -> std::path::PathBuf {
    let g = synthetic_graph(&SyntheticConfig {
        n_tasks: 8,
        ccr: 0.5,
        seed: 3,
        ..Default::default()
    });
    let path =
        std::env::temp_dir().join(format!("locmps-options-{tag}-{}.json", std::process::id()));
    std::fs::write(&path, g.to_json()).unwrap();
    path
}

#[test]
fn misspelled_options_are_refused() {
    let path = graph_file("misspelled");
    let g = path.to_str().unwrap();
    for (args, bad) in [
        (
            &["schedule", g, "--procs", "16", "--no-overlp"][..],
            "no-overlp",
        ),
        (
            &["schedule", g, "--procs", "16", "--bandwith", "1"],
            "bandwith",
        ),
        (
            &["analyze", g, "--procs", "4", "--algo", "cpa", "--jsn"],
            "jsn",
        ),
    ] {
        let (ok, stdout, stderr) = cli(args);
        assert!(!ok, "{args:?} must exit nonzero");
        assert!(stdout.is_empty(), "{args:?} scheduled anyway:\n{stdout}");
        let want = format!("error: unknown option --{bad} for 'locmps {}'", args[0]);
        assert!(stderr.starts_with(&want), "{args:?}: {stderr}");
    }
    // The correct spellings still run.
    let (ok, stdout, _) = cli(&["schedule", g, "--procs", "16", "--no-overlap"]);
    assert!(ok && stdout.contains("makespan"), "{stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn a_missing_value_is_named() {
    let path = graph_file("missing");
    let g = path.to_str().unwrap();
    let (ok, _, stderr) = cli(&["schedule", g, "--procs", "16", "--bandwidth"]);
    assert!(!ok);
    assert!(
        stderr.starts_with("error: option --bandwidth needs a value"),
        "{stderr}"
    );
    let _ = std::fs::remove_file(path);
}

/// A refused option value prints nothing on stdout: the command checks
/// its options before it reports anything.
#[test]
fn a_refused_option_value_prints_nothing() {
    let path = graph_file("refused");
    let g = path.to_str().unwrap();
    for (args, want) in [
        (
            &["stats", g, "--bandwidth", "0"][..],
            "error: --bandwidth must be finite and > 0",
        ),
        (
            &["stats", g, "--bandwidth", "fast"],
            "error: invalid value \"fast\" for --bandwidth",
        ),
        (
            &["schedule", g, "--procs", "16", "--bandwidth", "0"],
            "error: --bandwidth must be finite and > 0",
        ),
    ] {
        let (ok, stdout, stderr) = cli(args);
        assert!(!ok, "{args:?} must exit nonzero");
        assert!(stdout.is_empty(), "{args:?} printed:\n{stdout}");
        assert!(stderr.starts_with(want), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_file(path);
}

/// An option given twice is refused by name instead of keeping its last
/// value.
#[test]
fn a_repeated_option_is_refused() {
    let path = graph_file("repeated");
    let g = path.to_str().unwrap();
    for (args, key) in [
        (
            &[
                "generate",
                "synthetic",
                "--tasks",
                "3",
                "--seed",
                "1",
                "--tasks",
                "5",
            ][..],
            "tasks",
        ),
        (&["schedule", g, "--procs", "2", "--procs", "4"], "procs"),
    ] {
        let (ok, stdout, stderr) = cli(args);
        assert!(!ok, "{args:?} must exit nonzero");
        assert!(stdout.is_empty(), "{args:?} printed:\n{stdout}");
        let want = format!("error: option --{key} given more than once");
        assert!(stderr.starts_with(&want), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_file(path);
}
