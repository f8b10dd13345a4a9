//! Hostile request lines must get error responses, never kill `cqd`.
//!
//! Both recursive-descent parsers on the request path — the wire JSON and the
//! MBL expression inside a `query` — used to recurse without a bound, so one
//! line of deep nesting overflowed the session thread's stack and aborted
//! the whole daemon.

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
    for line in [json_bomb.as_str(), mbl_bomb.as_str(), "{\"cmd\":\"hello\"}"] {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
    }
    writer.flush().unwrap();

    let mut responses = Vec::new();
    for _ in 0..3 {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .expect("the daemon is still alive");
        let response = Json::parse(line.trim()).expect("responses are JSON");
        responses.push(
            response
                .get("resp")
                .and_then(Json::as_str)
                .expect("every response names its kind")
                .to_string(),
        );
    }
    assert_eq!(responses, ["error", "error", "hello"]);
    drop(writer);
    daemon.shutdown();
}
