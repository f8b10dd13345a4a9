//! A `--cat` value the simulated Skylake cannot apply ends `leader_sets` and
//! `cartography` with exit status 2 and a message naming the requested and
//! the available ways, like a flag value that does not parse.

use std::process::Command;

/// Runs `binary` on one Skylake set with `--cat ways` and `extra`, and
/// checks that the run is refused.
fn refuses_cat(binary: &str, ways: usize, extra: &[&str]) {
    let cat = ways.to_string();
    let output = Command::new(binary)
        .args(["--cpu", "skylake", "--sets", "1", "--cat", &cat])
        .args(extra)
        .output()
        .expect("run the bench binary");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(2),
        "{binary} --cat {ways}: {stderr}"
    );
    assert!(
        stderr.contains(&format!(
            "--cat {ways}: cannot restrict to {ways} ways (level has 12)"
        )),
        "{binary} --cat {ways}: {stderr}"
    );
}

#[test]
fn leader_sets_refuses_an_out_of_range_cat() {
    for ways in [0, 13] {
        refuses_cat(env!("CARGO_BIN_EXE_leader_sets"), ways, &[]);
    }
}

#[test]
fn cartography_refuses_an_out_of_range_cat() {
    // The report path keeps a run that got this far away from the
    // committed BENCH_cartography.json.
    let json = std::env::temp_dir().join(format!("cat_flag_{}.json", std::process::id()));
    let json = json.to_str().expect("a UTF-8 temp path");
    for ways in [0, 13] {
        refuses_cat(env!("CARGO_BIN_EXE_cartography"), ways, &["--json", json]);
    }
    assert!(
        !std::path::Path::new(json).exists(),
        "a refused run writes no report"
    );
}
