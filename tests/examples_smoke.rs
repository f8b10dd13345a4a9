//! Smoke test: every example in `examples/` must build and run to completion.
//!
//! Each test shells out to `cargo run --example` (reusing the already-warm
//! target directory) with the smallest sensible arguments, so examples cannot
//! silently rot.  Long-running configurations (high associativity, many cache
//! sets) are avoided via the examples' positional arguments; the interactive
//! REPL is driven through a scripted stdin session.

use std::io::Write;
use std::process::{Command, Output, Stdio};

/// Runs one example with the given arguments (and optional stdin script) and
/// returns its exit status and captured output.
fn spawn_example(name: &str, args: &[&str], stdin: Option<&str>) -> Output {
    let cargo = env!("CARGO");
    let mut command = Command::new(cargo);
    command
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["run", "--quiet", "--example", name, "--"])
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .stdin(if stdin.is_some() {
            Stdio::piped()
        } else {
            Stdio::null()
        });

    let mut child = command
        .spawn()
        .unwrap_or_else(|e| panic!("failed to spawn example {name}: {e}"));
    if let Some(script) = stdin {
        child
            .stdin
            .take()
            .expect("stdin was piped")
            .write_all(script.as_bytes())
            .expect("example accepts stdin");
    }
    child
        .wait_with_output()
        .unwrap_or_else(|e| panic!("failed to wait for example {name}: {e}"))
}

/// Runs one example, asserting it exits successfully.  Returns captured
/// stdout for content checks.
fn run_example(name: &str, args: &[&str], stdin: Option<&str>) -> String {
    let output = spawn_example(name, args, stdin);
    assert!(
        output.status.success(),
        "example {name} {args:?} failed with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        output.status,
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    String::from_utf8_lossy(&output.stdout).into_owned()
}

/// The examples this suite knows how to drive.  `every_example_is_covered`
/// derives the actual list from `examples/` and fails when a new example is
/// added without a smoke test here, so examples cannot silently rot.
const COVERED: &[&str] = &[
    "leader_sets",
    "learn_hardware",
    "learn_noisy",
    "learn_over_server",
    "learn_simulated",
    "mbl_repl",
    "quickstart",
    "replay_trace",
    "server_client",
    "synthesize_policy",
];

#[test]
fn every_example_is_covered() {
    let examples_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples");
    let mut found: Vec<String> = std::fs::read_dir(&examples_dir)
        .expect("examples/ exists")
        .filter_map(|entry| {
            let path = entry.expect("readable dir entry").path();
            (path.extension().is_some_and(|e| e == "rs"))
                .then(|| path.file_stem().unwrap().to_string_lossy().into_owned())
        })
        .collect();
    found.sort();
    assert_eq!(
        found, COVERED,
        "examples/ and the smoke-test list diverged: add a run_example test \
         for every new example and list it in COVERED"
    );
}

#[test]
fn quickstart_runs() {
    let stdout = run_example("quickstart", &[], None);
    assert!(stdout.contains("identified as: LRU"), "stdout:\n{stdout}");
}

#[test]
fn learn_simulated_runs() {
    let stdout = run_example("learn_simulated", &["LRU", "2"], None);
    assert!(
        stdout.contains("learned machine is exactly LRU"),
        "stdout:\n{stdout}"
    );
}

#[test]
fn learn_simulated_rejects_a_bad_argument() {
    // A policy name that does not parse must not fall back to the default.
    let output = spawn_example("learn_simulated", &["BOGUS", "2"], None);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "stderr:\n{stderr}");
    assert!(stderr.contains("BOGUS"), "stderr:\n{stderr}");
}

#[test]
fn learn_noisy_runs() {
    let stdout = run_example("learn_noisy", &["LRU", "2", "50"], None);
    assert!(
        stdout.contains("byte-identical to the noise-free automaton"),
        "stdout:\n{stdout}"
    );
    assert!(stdout.contains("zero divergences"), "stdout:\n{stdout}");
}

#[test]
fn learn_hardware_runs() {
    // The L3 leader set with CAT reduced to 2 ways is the fast configuration
    // the example's own documentation recommends.
    let stdout = run_example("learn_hardware", &["skylake", "L3", "33", "2"], None);
    assert!(stdout.contains("identified policy"), "stdout:\n{stdout}");
}

#[test]
fn synthesize_policy_runs() {
    let stdout = run_example("synthesize_policy", &["FIFO", "2"], None);
    assert!(stdout.contains("template program"), "stdout:\n{stdout}");
}

#[test]
fn leader_sets_runs() {
    let stdout = run_example("leader_sets", &["8"], None);
    assert!(stdout.contains("Thrashing"), "stdout:\n{stdout}");
}

#[test]
fn learn_over_server_runs() {
    let stdout = run_example("learn_over_server", &["LRU", "2"], None);
    assert!(
        stdout.contains("byte-identical to the in-process run"),
        "stdout:\n{stdout}"
    );
    assert!(stdout.contains("cached: true"), "stdout:\n{stdout}");
}

#[test]
fn replay_trace_runs() {
    let stdout = run_example("replay_trace", &["2000", "2", "16"], None);
    assert!(stdout.contains("pointer-chase"), "stdout:\n{stdout}");
    assert!(stdout.contains("zero divergences"), "stdout:\n{stdout}");
}

#[test]
fn server_client_runs() {
    let stdout = run_example("server_client", &["FIFO@2"], None);
    assert!(stdout.contains("cached: true"), "stdout:\n{stdout}");
    assert!(stdout.contains("finished: 2 states"), "stdout:\n{stdout}");
    assert!(stdout.contains("daemon stopped"), "stdout:\n{stdout}");
}

#[test]
fn mbl_repl_runs_a_scripted_session() {
    let stdout = run_example(
        "mbl_repl",
        &[],
        Some("help\nlevel L1\nset 3\n@ X A?\nquit\n"),
    );
    assert!(stdout.contains("cachequery>"), "stdout:\n{stdout}");
}
