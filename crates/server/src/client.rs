//! A blocking client library for the `cqd` daemon.
//!
//! [`Client`] wraps one TCP connection and exposes the wire protocol as
//! typed methods.  Every method sends one request line and reads response
//! lines until the request is answered (only [`Client::wait_with`] reads
//! more than one line).  The client is deliberately synchronous — the
//! daemon multiplexes concurrency server-side, so "more parallelism" is
//! spelled "more clients", exactly like the load generator does.

use std::fmt;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};

use cache::HitMiss;
use cachequery::{decode_pattern, BackendError, QueryBackend, QueryConfig};
use mbl::{render_query, Query};

use crate::daemon::{resolve_with_limits, ResolvedSpec};
use crate::proto::{
    decode_response, encode_request, Request, Response, ServerInfo, ServerStats, SessionSpec,
    WireCacheMap, WireJobStatus, WireMetric, WireOutcome, WireReplay,
};

/// Errors surfaced by [`Client`] calls.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed or was closed.
    Io(std::io::Error),
    /// The server sent something the protocol layer cannot decode, or a
    /// response of an unexpected kind.
    Protocol(String),
    /// The server answered with an `error` response.
    Server(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One blocking `cqd` session.
///
/// See the [crate documentation](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// Propagates connection errors.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        let mut line = encode_request(request);
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        Ok(())
    }

    fn read_response(&mut self) -> Result<Response, ClientError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::Protocol(
                "server closed the connection".to_string(),
            ));
        }
        decode_response(&line).map_err(|e| ClientError::Protocol(e.to_string()))
    }

    fn roundtrip(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.send(request)?;
        match self.read_response()? {
            Response::Error { message } => Err(ClientError::Server(message)),
            response => Ok(response),
        }
    }

    fn unexpected<T>(response: Response) -> Result<T, ClientError> {
        Err(ClientError::Protocol(format!(
            "unexpected response: {response:?}"
        )))
    }

    /// Performs the handshake.
    ///
    /// # Errors
    ///
    /// Fails on connection or protocol errors.
    pub fn hello(&mut self) -> Result<ServerInfo, ClientError> {
        match self.roundtrip(&Request::Hello)? {
            Response::Hello(info) => Ok(info),
            other => Self::unexpected(other),
        }
    }

    /// Replaces the session's backend/target configuration.
    ///
    /// # Errors
    ///
    /// Fails if the server rejects the configuration.
    pub fn target(&mut self, spec: &SessionSpec) -> Result<String, ClientError> {
        match self.roundtrip(&Request::Target(spec.clone()))? {
            Response::Done { message } => Ok(message),
            other => Self::unexpected(other),
        }
    }

    /// Expands and runs one MBL expression.
    ///
    /// # Errors
    ///
    /// Fails if the expression is malformed or the backend rejects it.
    pub fn query(&mut self, mbl: &str) -> Result<Vec<WireOutcome>, ClientError> {
        match self.roundtrip(&Request::Query {
            mbl: mbl.to_string(),
        })? {
            Response::Outcomes { results } => Ok(results),
            other => Self::unexpected(other),
        }
    }

    /// Runs several MBL expressions; results are grouped per expression.
    ///
    /// # Errors
    ///
    /// Fails at the first failing expression.
    pub fn batch(&mut self, exprs: &[&str]) -> Result<Vec<Vec<WireOutcome>>, ClientError> {
        match self.roundtrip(&Request::Batch {
            exprs: exprs.iter().map(|e| e.to_string()).collect(),
        })? {
            Response::Batch { groups } => Ok(groups),
            other => Self::unexpected(other),
        }
    }

    /// Sends one line of the REPL command language and returns the raw
    /// response (`Done` for configuration commands, `Outcomes` for queries).
    ///
    /// # Errors
    ///
    /// Fails if the server rejects the command.
    pub fn repl(&mut self, line: &str) -> Result<Response, ClientError> {
        self.roundtrip(&Request::Repl {
            line: line.to_string(),
        })
    }

    /// Starts a `POLICY@ASSOC` learning job; returns its id.
    ///
    /// # Errors
    ///
    /// Fails if the spec is malformed or over the server's limits.
    pub fn learn(&mut self, spec: &str) -> Result<u64, ClientError> {
        match self.roundtrip(&Request::Learn {
            spec: spec.to_string(),
        })? {
            Response::JobStarted { id } => Ok(id),
            other => Self::unexpected(other),
        }
    }

    /// Replays a synthetic trace server-side against a policy simulator —
    /// and, when `job` names a finished `learn` job, differentially against
    /// its learned machine.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a server-side `error` response (bad
    /// spec, unknown generator, unknown or unfinished job).
    pub fn replay(
        &mut self,
        spec: &str,
        generator: &str,
        accesses: u64,
        lines: u64,
        seed: u64,
        job: Option<u64>,
    ) -> Result<WireReplay, ClientError> {
        match self.roundtrip(&Request::Replay {
            spec: spec.to_string(),
            generator: generator.to_string(),
            accesses,
            lines,
            seed,
            job,
        })? {
            Response::Replay(replay) => Ok(replay),
            other => Self::unexpected(other),
        }
    }

    /// Maps the first `sets` sets of a simulated CPU's last-level cache
    /// server-side: leader detection, per-group learning through the
    /// daemon's shared store, follower flip probes.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a server-side `error` response (unknown
    /// model, CAT out of range, associativity over the server's learning
    /// limit).
    pub fn map(
        &mut self,
        model: &str,
        seed: u64,
        cat: Option<u64>,
        slice: u64,
        sets: u64,
    ) -> Result<WireCacheMap, ClientError> {
        match self.roundtrip(&Request::Map {
            model: model.to_string(),
            seed,
            cat,
            slice,
            sets,
        })? {
            Response::Map(map) => Ok(map),
            other => Self::unexpected(other),
        }
    }

    /// Polls a job's status once.
    ///
    /// # Errors
    ///
    /// Fails if the job id is unknown.
    pub fn job(&mut self, id: u64) -> Result<WireJobStatus, ClientError> {
        match self.roundtrip(&Request::Job { id })? {
            Response::JobStatus(status) => Ok(status),
            other => Self::unexpected(other),
        }
    }

    /// Blocks until a job finishes, invoking `on_status` for every streamed
    /// status line (including the final one), and returns the final status.
    ///
    /// # Errors
    ///
    /// Fails if the job id is unknown or the connection drops mid-stream.
    pub fn wait_with(
        &mut self,
        id: u64,
        mut on_status: impl FnMut(&WireJobStatus),
    ) -> Result<WireJobStatus, ClientError> {
        self.send(&Request::Wait { id })?;
        loop {
            match self.read_response()? {
                Response::JobStatus(status) => {
                    on_status(&status);
                    if status.finished {
                        return Ok(status);
                    }
                }
                Response::Error { message } => return Err(ClientError::Server(message)),
                other => return Self::unexpected(other),
            }
        }
    }

    /// Blocks until a job finishes and returns the final status.
    ///
    /// # Errors
    ///
    /// Same as [`Client::wait_with`].
    pub fn wait(&mut self, id: u64) -> Result<WireJobStatus, ClientError> {
        self.wait_with(id, |_| {})
    }

    /// Fetches global metrics, per-session metrics and the query store's
    /// per-namespace breakdown.
    ///
    /// # Errors
    ///
    /// Fails on connection or protocol errors.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        match self.roundtrip(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Self::unexpected(other),
        }
    }

    /// Scrapes the daemon's metrics registry: the Prometheus-style text
    /// exposition plus the same metrics as typed snapshots.
    ///
    /// # Errors
    ///
    /// Fails on connection or protocol errors.
    pub fn metrics(&mut self) -> Result<(String, Vec<WireMetric>), ClientError> {
        match self.roundtrip(&Request::Metrics)? {
            Response::Metrics { text, metrics } => Ok((text, metrics)),
            other => Self::unexpected(other),
        }
    }

    /// Asks the daemon to flush its durable store's record log and write a
    /// compacted snapshot, blocking until both are on disk.  Returns the
    /// daemon's confirmation message (a no-op notice on a memory-only
    /// daemon).
    ///
    /// # Errors
    ///
    /// Fails on connection or protocol errors.
    pub fn persist(&mut self) -> Result<String, ClientError> {
        match self.roundtrip(&Request::Persist)? {
            Response::Done { message } => Ok(message),
            other => Self::unexpected(other),
        }
    }

    /// Closes the session politely.
    ///
    /// # Errors
    ///
    /// Fails on connection or protocol errors.
    pub fn quit(mut self) -> Result<(), ClientError> {
        match self.roundtrip(&Request::Quit)? {
            Response::Bye => Ok(()),
            other => Self::unexpected(other),
        }
    }
}

/// A [`QueryBackend`] over one `cqd` session: the scarce oracle lives on the
/// other end of a TCP connection.
///
/// With a `RemoteBackend` inside a [`QueryEngine`](cachequery::QueryEngine),
/// the *whole* local query path — MBL expansion, the memoizing store, even
/// `polca::learn_policy` — runs unchanged against a remote daemon:
/// distributed learning is just another backend.  Engine batches
/// ([`QueryEngine::run_many`](cachequery::QueryEngine::run_many)) become one
/// `batch` request, so bulk fills cost a single round trip; single probes
/// (the learning path) first consult the client-side store, which absorbs
/// the replay-session blowup before anything touches the network.
///
/// `Clone` produces a *lazily connected* backend for the same daemon and
/// session spec (a protocol stream cannot be shared between workers): the
/// clone opens its own connection on first use, and a daemon that has gone
/// away surfaces as a [`BackendError::Service`] on the next query, never as
/// a panic.  Clones that are only held for their shared counters (e.g. the
/// statistics handle `learn_policy` retains) cost no connection at all.
#[derive(Debug)]
pub struct RemoteBackend {
    /// `None` until the first query after a `Clone` (lazy reconnect).
    client: Option<Client>,
    addr: SocketAddr,
    spec: SessionSpec,
    resolved: ResolvedSpec,
}

impl RemoteBackend {
    /// Connects to a daemon, performs the handshake and configures the
    /// session with `spec`.
    ///
    /// The memoization namespace and the target's associativity are resolved
    /// locally with the same rules the daemon applies, so a remote engine's
    /// store entries are interchangeable with the server's own.
    ///
    /// # Errors
    ///
    /// Fails on connection errors, on an invalid spec (rejected locally or
    /// by the server), and on protocol errors.
    pub fn connect(addr: impl ToSocketAddrs, spec: &SessionSpec) -> Result<Self, ClientError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ClientError::Protocol("address resolves to nothing".to_string()))?;
        // Validate locally first (assoc limits are the server's to enforce).
        let resolved = resolve_with_limits(spec, usize::MAX).map_err(ClientError::Server)?;
        let client = Self::open_session(addr, spec)?;
        Ok(RemoteBackend {
            client: Some(client),
            addr,
            spec: spec.clone(),
            resolved,
        })
    }

    /// The daemon's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn open_session(addr: SocketAddr, spec: &SessionSpec) -> Result<Client, ClientError> {
        let mut client = Client::connect(addr)?;
        client.hello()?;
        client.target(spec)?;
        Ok(client)
    }

    /// The live session, (re)connected on demand — which is how clones made
    /// for worker oracles come online.
    fn session(&mut self) -> Result<&mut Client, BackendError> {
        if self.client.is_none() {
            let client = Self::open_session(self.addr, &self.spec)
                .map_err(|e| BackendError::Service(e.to_string()))?;
            self.client = Some(client);
        }
        Ok(self.client.as_mut().expect("session was just established"))
    }

    fn parse_outcome(outcome: &WireOutcome) -> Result<(Vec<HitMiss>, bool), BackendError> {
        let outcomes = decode_pattern(&outcome.pattern).map_err(|e| {
            BackendError::Service(format!("server answered a malformed pattern: {e}"))
        })?;
        Ok((outcomes, outcome.consistent))
    }
}

impl Clone for RemoteBackend {
    fn clone(&self) -> Self {
        RemoteBackend {
            client: None,
            addr: self.addr,
            spec: self.spec.clone(),
            resolved: self.resolved.clone(),
        }
    }
}

impl QueryBackend for RemoteBackend {
    fn execute(&mut self, query: &Query) -> Result<(Vec<HitMiss>, bool), BackendError> {
        // A rendered concrete query contains no macros, so the server-side
        // expansion is the identity.
        let rendered = render_query(query);
        let results = self
            .session()?
            .query(&rendered)
            .map_err(|e| BackendError::Service(e.to_string()))?;
        match results.as_slice() {
            [outcome] => Self::parse_outcome(outcome),
            other => Err(BackendError::Service(format!(
                "server answered a concrete query with {} results",
                other.len()
            ))),
        }
    }

    fn execute_batch(
        &mut self,
        queries: &[Query],
    ) -> Result<Vec<(Vec<HitMiss>, bool)>, BackendError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let rendered: Vec<String> = queries.iter().map(render_query).collect();
        let exprs: Vec<&str> = rendered.iter().map(String::as_str).collect();
        // One `batch` request answers the whole bulk fill in one round trip.
        let groups = self
            .session()?
            .batch(&exprs)
            .map_err(|e| BackendError::Service(e.to_string()))?;
        if groups.len() != queries.len() {
            return Err(BackendError::Service(format!(
                "server answered a {}-query batch with {} groups",
                queries.len(),
                groups.len()
            )));
        }
        groups
            .iter()
            .map(|group| match group.as_slice() {
                [outcome] => Self::parse_outcome(outcome),
                other => Err(BackendError::Service(format!(
                    "server answered a concrete query with {} results",
                    other.len()
                ))),
            })
            .collect()
    }

    fn config(&self) -> Result<QueryConfig, BackendError> {
        Ok(self.resolved.config())
    }

    fn associativity(&self) -> Result<usize, BackendError> {
        Ok(self.resolved.assoc)
    }

    fn handles_repetitions(&self) -> bool {
        // The daemon's own engine performs the `reps` majority vote; voting
        // again client-side would multiply every novel query's round trips.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(pattern: &str) -> WireOutcome {
        WireOutcome {
            query: "A? B?".to_string(),
            pattern: pattern.to_string(),
            consistent: true,
            cached: false,
        }
    }

    #[test]
    fn malformed_patterns_are_backend_errors() {
        assert_eq!(
            RemoteBackend::parse_outcome(&outcome("HM")).unwrap(),
            (vec![HitMiss::Hit, HitMiss::Miss], true)
        );
        // A letter other than H used to decode as a clean Miss and land in
        // the client engine's store.
        assert!(matches!(
            RemoteBackend::parse_outcome(&outcome("HX")),
            Err(BackendError::Service(_))
        ));
    }
}
