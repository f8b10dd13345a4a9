//! The daemon's configuration, end to end.
//!
//! * `cqd` refuses a command line it cannot use — an unknown flag, a value
//!   that does not parse — with exit status 2 and the usage line, instead
//!   of starting with a default nobody asked for.
//! * A daemon with a capped store answers exactly as an unbounded one while
//!   it clears namespaces to stay under the cap.

use std::process::{Command, Stdio};

use server::{spawn, Client, CqdConfig, SessionSpec};

/// Runs `cqd` with `args` and returns its exit code and standard error.
fn cqd(args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_cqd"))
        .args(["--addr", "127.0.0.1:0", "--until-eof"])
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("run cqd");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn cqd_refuses_flags_and_values_it_cannot_use() {
    for (args, message) in [
        (&["--store-evict", "lru"][..], "unknown flag --store-evict"),
        (&["--workers", "x"][..], "cannot parse --workers `x`"),
        (
            &["--store-max-entries", "2e6"][..],
            "cannot parse --store-max-entries `2e6`",
        ),
        (&["--store-dir"][..], "--store-dir needs a value"),
    ] {
        let (code, stderr) = cqd(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: cqd"), "{args:?}: {stderr}");
    }
    // A command line it can use starts the daemon, which exits cleanly at
    // the end of its (null) stdin.
    let (code, stderr) = cqd(&["--workers", "2", "--store-max-entries", "2000000"]);
    assert_eq!(code, Some(0), "{stderr}");
}

#[test]
fn a_capped_daemon_answers_as_an_unbounded_one() {
    const CAP: u64 = 24;
    let capped = spawn(CqdConfig {
        store_max_entries: Some(CAP),
        ..CqdConfig::default()
    })
    .unwrap();
    let unbounded = spawn(CqdConfig::default()).unwrap();
    let mut on_capped = Client::connect(capped.addr()).unwrap();
    let mut on_unbounded = Client::connect(unbounded.addr()).unwrap();
    let exprs = [
        "A B C D A?",
        "A B C D E A?",
        "A B C D E A? B?",
        "(A B C D E F)2 A? C? F?",
        "A B C D A? E B?",
    ];
    for round in 0..3 {
        for policy in ["LRU@4", "FIFO@4"] {
            let spec = SessionSpec {
                policy: Some(policy.into()),
                ..SessionSpec::default()
            };
            on_capped.target(&spec).unwrap();
            on_unbounded.target(&spec).unwrap();
            for expr in exprs {
                let answers = |client: &mut Client| -> Vec<(String, String, bool)> {
                    let outcomes = client.query(expr).unwrap();
                    outcomes
                        .into_iter()
                        .map(|o| (o.query, o.pattern, o.consistent))
                        .collect()
                };
                assert_eq!(
                    answers(&mut on_capped),
                    answers(&mut on_unbounded),
                    "round {round}, {policy}: {expr}"
                );
                let entries = on_capped.stats().unwrap().global.store_entries;
                assert!(entries <= CAP, "{entries} entries over the cap of {CAP}");
            }
        }
    }
    let capped_stats = on_capped.stats().unwrap().global;
    let unbounded_stats = on_unbounded.stats().unwrap().global;
    assert!(capped_stats.store_evictions > 0);
    assert_eq!(unbounded_stats.store_evictions, 0);
    assert!(unbounded_stats.store_entries > CAP, "the cap binds");
    on_capped.quit().unwrap();
    on_unbounded.quit().unwrap();
    capped.shutdown();
    unbounded.shutdown();
}
