//! The `repl` request is the one interpreter of the CacheQuery shell's
//! command language (§4.2): each test drives a daemon session line by line
//! through `Client::repl`, as the `mbl_repl` example does.

use server::{spawn, Client, CqdConfig, CqdHandle, Response};

/// A daemon and one session on its default target (Skylake L1 set 0).
fn session() -> (CqdHandle, Client) {
    let daemon = spawn(CqdConfig::default()).expect("ephemeral port is always bindable");
    let client = Client::connect(daemon.addr()).expect("daemon accepts connections");
    (daemon, client)
}

/// The message a command line is answered with.
fn done(client: &mut Client, line: &str) -> String {
    match client.repl(line).unwrap() {
        Response::Done { message } => message,
        other => panic!("`{line}` answered {other:?}"),
    }
}

/// The hit/miss pattern of each query a query line expands to.
fn patterns(client: &mut Client, line: &str) -> Vec<String> {
    match client.repl(line).unwrap() {
        Response::Outcomes { results } => results.into_iter().map(|r| r.pattern).collect(),
        other => panic!("`{line}` answered {other:?}"),
    }
}

#[test]
fn configures_target_and_runs_queries() {
    let (_daemon, mut client) = session();
    assert!(done(&mut client, "level L1").contains("L1"));
    assert!(done(&mut client, "set 12").contains("12"));
    assert!(done(&mut client, "assoc").contains('8'));
    assert_eq!(patterns(&mut client, "A B C A?"), ["H"]);
}

#[test]
fn figure_1_trace_via_the_repl() {
    let (_daemon, mut client) = session();
    done(&mut client, "level L2");
    done(&mut client, "set 63");
    // A B C A on a 4-way L2 set: only the re-access of A is profiled, and
    // it hits.
    assert_eq!(patterns(&mut client, "A B C A?"), ["H"]);
}

#[test]
fn unknown_levels_and_malformed_numbers_are_reported() {
    let (_daemon, mut client) = session();
    for line in ["level L9", "set x", "reps"] {
        assert!(done(&mut client, line).starts_with("usage"), "{line}");
    }
}

#[test]
fn stats_and_help_are_available() {
    let (_daemon, mut client) = session();
    assert!(done(&mut client, "help").contains("MBL"));
    patterns(&mut client, "A?");
    assert!(done(&mut client, "stats").contains("queries: 1"));
}

#[test]
fn reset_and_cat_commands() {
    let (_daemon, mut client) = session();
    assert!(done(&mut client, "reset D C B A @").contains("D C B A @"));
    assert!(done(&mut client, "cat 4").contains("4 ways"));
    done(&mut client, "level L3");
    assert!(done(&mut client, "assoc").contains('4'));
}

#[test]
fn bad_mbl_queries_report_errors() {
    let (_daemon, mut client) = session();
    let error = client.repl("A (").unwrap_err().to_string();
    assert!(error.contains("parse error"), "{error}");
}
