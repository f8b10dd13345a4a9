//! `bench --bin leader_sets` labels every sampled set with the role that the
//! simulated machine it measured planted, not with another model's roles,
//! and its header names CAT only on a model that applied it.

use std::process::Command;

#[test]
fn haswell_ground_truth_comes_from_the_haswell_model() {
    // The Haswell leaders are sets 512–575 (primary) and 768–831
    // (alternate) of slice 0, so none of the first 34 sets is one.  The
    // Skylake selection formula would make sets 0 and 33 leaders.
    let output = Command::new(env!("CARGO_BIN_EXE_leader_sets"))
        .args(["--cpu", "haswell", "--sets", "34"])
        .output()
        .expect("run leader_sets");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "{stdout}");
    // Every table row ends in its ground-truth cell, `| follower |` or
    // `| leader (…) |`.
    assert_eq!(stdout.matches("| follower ").count(), 34, "{stdout}");
    assert!(!stdout.contains("| leader ("), "{stdout}");
    assert!(
        stdout.contains("plants leaders at sets [] within the sampled range"),
        "{stdout}"
    );
    // The Haswell has no CAT, so the header names none.
    assert!(
        stdout.contains("(thrashing working set = associativity + 1, 34 sampled sets)\n"),
        "{stdout}"
    );
    // Without a primary leader nothing votes the duel between the phases.
    assert!(
        stdout.contains("no sampled set is a primary leader, so the duel cannot move"),
        "{stdout}"
    );
}
