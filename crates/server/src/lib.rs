//! `cqd`: a multi-session CacheQuery server with a shared result cache.
//!
//! The original CacheQuery frontend (§4.2 of the paper) is a *service*: it
//! multiplexes interactive and batch clients over one scarce hardware
//! backend, memoizes every answer in LevelDB, and batches queries.  This
//! crate reproduces that shape at campaign scale on top of the simulated
//! machines:
//!
//! * [`spawn`] starts **`cqd`**, a std-only TCP daemon speaking a
//!   newline-delimited JSON protocol ([`proto`]); each connection is one
//!   session with its own backend/target configuration — a simulated
//!   machine, or a bare simulated replacement policy (`policy: POLICY@ASSOC`);
//! * sessions are multiplexed onto a pool of
//!   [`cachequery::QueryEngine`]-wrapped backends (one per backend identity)
//!   through a bounded worker queue — full queue means blocked senders,
//!   which is the backpressure;
//! * every engine of the pool shares the daemon's one [`QueryStore`] (the
//!   prefix-trie memoization layer of the unified query path), so identical
//!   (or prefix-overlapping) MBL expansions from different clients are
//!   answered from memory instead of the backend — the LevelDB role of the
//!   original, with structural sharing;
//! * `learn POLICY@ASSOC` runs the `polca` pipeline as an asynchronous job
//!   *through the same store*: campaign answers are served to (and from)
//!   interactive sessions, and `job`/`wait` stream live progress;
//! * [`Client`] is the blocking client library, [`RemoteBackend`] turns one
//!   session into a [`cachequery::QueryBackend`] — so `polca::learn_policy`
//!   runs unchanged against a remote daemon — and the `loadgen` binary in
//!   the `bench` crate measures both query throughput and the overhead of
//!   learning over the network.
//!
//! # Quickstart
//!
//! ```
//! use server::{spawn, Client, CqdConfig};
//!
//! // An in-process daemon on an ephemeral port…
//! let daemon = spawn(CqdConfig::default()).unwrap();
//! let mut client = Client::connect(daemon.addr()).unwrap();
//! assert_eq!(client.hello().unwrap().server, "cqd");
//!
//! // …answers MBL queries for the default target (simulated Skylake L1):
//! // fill the set, touch A again, profile it.
//! let results = client.query("A B C A?").unwrap();
//! assert_eq!(results[0].pattern, "H");
//!
//! // A second session asking the same question is served from the shared
//! // store without touching the backend.
//! let mut other = Client::connect(daemon.addr()).unwrap();
//! let again = other.query("A B C A?").unwrap();
//! assert!(again[0].cached);
//! assert_eq!(again[0].pattern, "H");
//!
//! client.quit().unwrap();
//! other.quit().unwrap();
//! daemon.shutdown();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod daemon;
pub mod json;
mod metrics;
pub mod proto;

pub use cachequery::{QueryStore, StoreSpace};
pub use client::{Client, ClientError, RemoteBackend};
pub use daemon::{spawn, CqdConfig, CqdHandle};
pub use json::{Json, JsonError};
pub use metrics::ServerMetrics;
pub use proto::{
    decode_request, decode_response, encode_request, encode_response, ProtoError, Request,
    Response, ServerInfo, ServerStats, SessionSpec, WireCacheMap, WireJobStatus, WireMapGroup,
    WireMapSet, WireMetric, WireNamespace, WireOutcome, WirePhase, WireReplay, WireSessionStats,
    WireStats, PROTOCOL_VERSION,
};
