//! Hostile request lines must get error responses, never kill or stall `cqd`.
//!
//! Both recursive-descent parsers on the request path — the wire JSON and the
//! MBL expression inside a `query` — used to recurse without a bound, so one
//! line of deep nesting overflowed the session thread's stack and aborted
//! the whole daemon.  And a `reps` count was never bounded: the engine votes
//! that many times per query, so one `target`, `learn` or REPL line asking
//! for 2^53 - 1 repetitions pinned a worker, and with it the machine's pooled
//! backend, for every session.  A `target` naming New1 at one way used to
//! panic the session thread on the first eviction.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use server::{spawn, CqdConfig, Json};

#[test]
fn deeply_nested_lines_get_errors_and_the_session_keeps_serving() {
    let daemon = spawn(CqdConfig::default()).expect("ephemeral port is always bindable");
    let stream = TcpStream::connect(daemon.addr()).expect("daemon accepts connections");
    let mut reader = BufReader::new(stream.try_clone().expect("stream clones"));
    let mut writer = stream;

    let deep = 100_000;
    let json_bomb = "[".repeat(deep);
    let mbl_bomb = format!("{{\"cmd\":\"query\",\"mbl\":\"{}A\"}}", "(".repeat(deep));
    // 2^53 - 1, the largest integer the wire carries exactly.
    let reps = 9_007_199_254_740_991u64;
    let target_reps = format!(
        r#"{{"cmd":"target","model":"skylake","seed":7,"level":"L1","set":0,"slice":0,"cat":null,"reps":{reps},"reset":"F+R","policy":null}}"#
    );
    let policy_reps = format!(
        r#"{{"cmd":"target","model":"skylake","seed":7,"level":"L1","set":0,"slice":0,"reps":3,"reset":"F+R","policy":"LRU@4+noise(flip=0.05,reps={reps})"}}"#
    );
    let learn_reps = format!(r#"{{"cmd":"learn","spec":"LRU@2+noise(reps={reps})"}}"#);
    let repl_reps = format!(r#"{{"cmd":"repl","line":"reps {reps}"}}"#);
    let one_way_new1 = r#"{"cmd":"target","model":"skylake","seed":7,"level":"L1","set":0,"slice":0,"reps":1,"reset":"F+R","policy":"New1@1"}"#;
    let lines = [
        json_bomb.as_str(),
        mbl_bomb.as_str(),
        &target_reps,
        &policy_reps,
        &learn_reps,
        &repl_reps,
        one_way_new1,
        // B evicts A from the one line, so A misses.
        r#"{"cmd":"query","mbl":"B A?"}"#,
        "{\"cmd\":\"hello\"}",
    ];
    for line in lines {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
    }
    writer.flush().unwrap();

    let mut responses = Vec::new();
    let mut one_way_outcome = String::new();
    for _ in 0..lines.len() {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .expect("the daemon is still alive");
        let response = Json::parse(line.trim()).expect("responses are JSON");
        if response.get("results").is_some() {
            one_way_outcome = line;
        }
        responses.push(
            response
                .get("resp")
                .and_then(Json::as_str)
                .expect("every response names its kind")
                .to_string(),
        );
    }
    assert_eq!(
        responses,
        ["error", "error", "error", "error", "error", "error", "done", "outcomes", "hello"]
    );
    assert!(
        one_way_outcome.contains(r#""pattern":"M""#),
        "{one_way_outcome}"
    );
    drop(writer);
    daemon.shutdown();
}
