//! The `cqd` wire protocol: newline-delimited JSON requests and responses.
//!
//! Every message is one JSON object on one line.  Requests carry a `"cmd"`
//! discriminator, responses a `"resp"` discriminator; all numbers fit in
//! 2^53 so the hand-rolled [`Json`] layer round-trips them exactly.  The
//! protocol is strictly request→response *except* for `wait`, which streams
//! zero or more non-final `status` lines (`"final": false`) before the
//! terminal one (`"final": true`) — a client must keep reading until the
//! final line.
//!
//! | Request (`cmd`) | Fields | Response (`resp`) |
//! |---|---|---|
//! | `hello` | — | `hello` ([`ServerInfo`]) |
//! | `target` | full [`SessionSpec`] | `done` |
//! | `query` | `mbl` | `outcomes` |
//! | `batch` | `exprs` | `batch` (groups per expression) |
//! | `repl` | `line` (REPL command string) | `done` or `outcomes` |
//! | `learn` | `spec` (`POLICY@ASSOC`) | `job` (id) |
//! | `replay` | `spec`, `generator`, `accesses`, `lines`, `seed`, `job`? | `replay` |
//! | `map` | `model`, `seed`, `cat`?, `slice`, `sets` | `map` (the per-set cache map) |
//! | `job` | `id` | `status` |
//! | `wait` | `id` | `status`* … `status` (`final: true`) |
//! | `stats` | — | `stats` ([`ServerStats`]: global + session + store namespaces) |
//! | `metrics` | — | `metrics` (Prometheus text + typed snapshots) |
//! | `persist` | — | `done` (store flushed and snapshotted) |
//! | `quit` | — | `bye` |
//!
//! Any request can instead produce an `error` response.
//!
//! # One declaration per wire type
//!
//! Each wire struct and each [`Request`]/[`Response`] variant is declared
//! once in this module, with the name, type and wire key of every field, and
//! both codec directions are derived from that one list (by the private
//! `wire_struct!` and `wire_enum!` macros), so encoding and decoding cannot
//! disagree on a field:
//!
//! * declaration order is wire order: a message encodes its tag first, then
//!   its fields as declared (a variant carrying a wire struct, such as
//!   `Target(SessionSpec)`, flattens the struct's fields into the message);
//! * a field's key is its name, unless `= "key"` renames it —
//!   [`WireJobStatus::finished`] travels as `"final"`;
//! * an optional field encodes `None` as `null`, and decodes an absent or
//!   `null` key as `None`;
//! * decoding looks fields up by key, so unknown extra keys are ignored, and
//!   every decoding error names the key it failed on.

use std::fmt;

use crate::json::Json;

/// Version of the wire protocol described by this module.
///
/// Version history: 1 = the original PR 3 protocol; 2 = `policy` session
/// specs, live `hit_rate` in job status, `store_conflicts` + per-namespace
/// entry counts in `stats` (the additions are hard decode errors for a v1
/// client, so the handshake must signal the change); 3 = noise-robustness —
/// `+noise(...)` policy specs and the engine's vote-margin counters
/// (`votes`, `vote_escalations`, `vote_unsettled`,
/// `vote_min_margin_permille`) in `stats`; 4 = trace replay — the `replay`
/// command evaluates a policy (and optionally the learned machine of a
/// finished `learn` job) under synthetic memory traffic server-side; 5 =
/// cartography — the `map` command sweeps the sets of a simulated adaptive
/// last-level cache server-side (leader detection, per-group learning
/// through the shared store, follower flip probes) and returns the per-set
/// policy map; 6 = observability — the `metrics` command exposes the
/// daemon's metrics registry (Prometheus-style text plus typed snapshots),
/// `stats` gains `uptime_ms`, request-latency quantiles and per-namespace
/// store byte estimates, and job status lines carry the campaign's
/// per-phase query/duration profile; 7 = durability — the `persist` command
/// flushes and snapshots the daemon's durable store on demand, `stats`
/// gains store size/eviction and persistence counters (`store_entries`,
/// `store_evictions`, `persist_appended`, `persist_dropped`,
/// `persist_snapshots`, `persist_replayed`, `lock_poisoned`), and
/// per-namespace rows gain lifetime `hits`/`misses`.
pub const PROTOCOL_VERSION: u64 = 7;

/// A malformed protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.0)
    }
}

impl std::error::Error for ProtoError {}

fn err(message: impl Into<String>) -> ProtoError {
    ProtoError(message.into())
}

/// The error for a field `key` that is absent or not of JSON type `kind`.
fn missing(kind: &str, key: &str) -> ProtoError {
    err(format!("missing {kind} field '{key}'"))
}

/// A value with a JSON wire form.
trait Wire: Sized {
    /// The value as JSON.
    fn encode(&self) -> Json;

    /// Decodes the value found under `key` (`None` when the key is absent).
    fn decode(value: Option<&Json>, key: &str) -> Result<Self, ProtoError>;
}

impl Wire for String {
    fn encode(&self) -> Json {
        Json::Str(self.clone())
    }

    fn decode(value: Option<&Json>, key: &str) -> Result<Self, ProtoError> {
        value
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| missing("string", key))
    }
}

impl Wire for u64 {
    fn encode(&self) -> Json {
        Json::num(*self)
    }

    fn decode(value: Option<&Json>, key: &str) -> Result<Self, ProtoError> {
        value
            .and_then(Json::as_u64)
            .ok_or_else(|| missing("integer", key))
    }
}

impl Wire for bool {
    fn encode(&self) -> Json {
        Json::Bool(*self)
    }

    fn decode(value: Option<&Json>, key: &str) -> Result<Self, ProtoError> {
        value
            .and_then(Json::as_bool)
            .ok_or_else(|| missing("boolean", key))
    }
}

impl Wire for f64 {
    fn encode(&self) -> Json {
        Json::Num(*self)
    }

    fn decode(value: Option<&Json>, key: &str) -> Result<Self, ProtoError> {
        value
            .and_then(Json::as_f64)
            .ok_or_else(|| missing("number", key))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::encode)
    }

    fn decode(value: Option<&Json>, key: &str) -> Result<Self, ProtoError> {
        match value {
            None | Some(Json::Null) => Ok(None),
            Some(_) => T::decode(value, key).map(Some),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(T::encode).collect())
    }

    fn decode(value: Option<&Json>, key: &str) -> Result<Self, ProtoError> {
        value
            .and_then(Json::as_arr)
            .ok_or_else(|| missing("array", key))?
            .iter()
            .map(|item| T::decode(Some(item), key))
            .collect()
    }
}

/// A wire struct: a JSON object holding its fields in declaration order.
trait WireObject: Sized {
    /// The number of fields.
    const LEN: usize;

    /// Appends one key/value pair per field to `pairs`.
    fn encode_fields(&self, pairs: &mut Vec<(String, Json)>);

    /// Decodes the fields from the object `value`.
    fn decode_fields(value: &Json) -> Result<Self, ProtoError>;
}

impl<T: WireObject> Wire for T {
    fn encode(&self) -> Json {
        let mut pairs = Vec::with_capacity(T::LEN);
        self.encode_fields(&mut pairs);
        Json::Obj(pairs)
    }

    fn decode(value: Option<&Json>, key: &str) -> Result<Self, ProtoError> {
        T::decode_fields(value.ok_or_else(|| missing("object", key))?)
    }
}

/// Declares a wire struct, each field once with its type and an optional
/// `= "key"` wire name, and derives its [`WireObject`] codec.
macro_rules! wire_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $( $(#[$field_meta:meta])* pub $field:ident: $ty:ty $(= $key:literal)?, )*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$field_meta])* pub $field: $ty, )*
        }

        impl WireObject for $name {
            const LEN: usize = [$(stringify!($field)),*].len();

            fn encode_fields(&self, pairs: &mut Vec<(String, Json)>) {
                $(
                    pairs.push((
                        wire_struct!(@key $field $($key)?).to_string(),
                        self.$field.encode(),
                    ));
                )*
            }

            fn decode_fields(value: &Json) -> Result<Self, ProtoError> {
                Ok($name {
                    $(
                        $field: {
                            let key = wire_struct!(@key $field $($key)?);
                            Wire::decode(value.get(key), key)?
                        },
                    )*
                })
            }
        }
    };
    (@key $field:ident) => { stringify!($field) };
    (@key $field:ident $key:literal) => { $key };
}

/// Declares a message enum whose wire tag is the key `$tag_key`: each
/// variant once, with its tag and a payload of named fields, one flattened
/// wire struct, or nothing.  Derives the codec and a `tag` accessor; an
/// unrecognised tag decodes to `unknown $what '<tag>'`.
macro_rules! wire_enum {
    (
        $(#[$meta:meta])*
        pub enum $name:ident tagged $tag_key:literal, unknown $what:literal {
            $(
                $(#[$variant_meta:meta])*
                $variant:ident
                    $(($payload:ty))?
                    $({ $( $(#[$field_meta:meta])* $field:ident: $ty:ty, )* })?
                    = $tag:literal,
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum $name {
            $(
                $(#[$variant_meta])*
                $variant $(($payload))? $({ $( $(#[$field_meta])* $field: $ty, )* })?,
            )*
        }

        impl $name {
            #[doc = concat!("The message's wire tag (its `\"", $tag_key, "\"` value).")]
            pub fn tag(&self) -> &'static str {
                match self {
                    $( Self::$variant { .. } => $tag, )*
                }
            }

            fn encode(&self) -> Json {
                match self {
                    $(
                        Self::$variant
                            $((wire_enum!(@bind payload $payload)))?
                            $({ $($field),* })? => wire_enum!(
                                @encode $tag_key, $tag
                                $(, payload: $payload)? $(, { $($field),* })?
                            ),
                    )*
                }
            }

            fn decode(value: &Json) -> Result<Self, ProtoError> {
                let tag = value
                    .get($tag_key)
                    .and_then(Json::as_str)
                    .ok_or_else(|| missing("string", $tag_key))?;
                match tag {
                    $(
                        $tag => Ok(Self::$variant
                            $((<$payload as WireObject>::decode_fields(value)?))?
                            $({ $(
                                $field: Wire::decode(
                                    value.get(stringify!($field)),
                                    stringify!($field),
                                )?,
                            )* })?),
                    )*
                    other => Err(err(format!(concat!("unknown ", $what, " '{}'"), other))),
                }
            }
        }
    };
    // Names the payload binding of a flattened variant; `$payload` only
    // makes the optional group that invokes this repeat once.
    (@bind $binding:ident $($payload:tt)*) => { $binding };
    // Each payload shape's object, allocated once at its final size.
    (@encode $tag_key:literal, $tag:literal) => {
        Json::Obj(vec![($tag_key.to_string(), Json::str($tag))])
    };
    (@encode $tag_key:literal, $tag:literal, { $($field:ident),* }) => {
        Json::Obj(vec![
            ($tag_key.to_string(), Json::str($tag)),
            $((stringify!($field).to_string(), $field.encode()),)*
        ])
    };
    (@encode $tag_key:literal, $tag:literal, $payload:ident: $ty:ty) => {{
        let mut pairs = Vec::with_capacity(1 + <$ty as WireObject>::LEN);
        pairs.push(($tag_key.to_string(), Json::str($tag)));
        $payload.encode_fields(&mut pairs);
        Json::Obj(pairs)
    }};
}

wire_struct! {
    /// The complete backend/target configuration of one session, as sent with
    /// the `target` command.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SessionSpec {
        /// CPU model name (`haswell`, `skylake`, `kabylake`).
        pub model: String,
        /// Seed of the simulated machine.  Must stay below 2^53: the JSON wire
        /// format stores numbers as `f64`, so larger seeds would be silently
        /// rounded in transit.
        pub seed: u64,
        /// Target cache level (`L1`, `L2`, `L3`).
        pub level: String,
        /// Target set index within the slice.
        pub set: u64,
        /// Target slice index.
        pub slice: u64,
        /// Intel CAT restriction of the last-level cache, if any.
        pub cat: Option<u64>,
        /// Repetitions of the majority vote (at most 99; the daemon rejects
        /// more).
        pub reps: u64,
        /// Reset sequence (`F+R` or a custom MBL refill).
        pub reset: String,
        /// Target a bare simulated replacement policy (`POLICY@ASSOC`, e.g.
        /// `LRU@4`) instead of a simulated machine.  When set, the hardware
        /// fields above are ignored and the session shares the query-store
        /// namespace that `learn` campaigns for the same policy fill.  An
        /// optional `+noise(flip=R,drop=R,evict=R,seed=N,reps=N)` suffix (rates
        /// as fractions, e.g. `LRU@4+noise(flip=0.05,seed=1)`) injects seeded
        /// faults that the server-side engine absorbs by majority voting.
        pub policy: Option<String>,
    }
}

impl Default for SessionSpec {
    fn default() -> Self {
        SessionSpec {
            model: "skylake".to_string(),
            seed: 7,
            level: "L1".to_string(),
            set: 0,
            slice: 0,
            cat: None,
            reps: 3,
            reset: "F+R".to_string(),
            policy: None,
        }
    }
}

wire_enum! {
    /// A request from a client to the daemon.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request tagged "cmd", unknown "command" {
        /// Handshake: ask for server identity and protocol version.
        Hello = "hello",
        /// Replace the session's backend/target configuration.
        Target(SessionSpec) = "target",
        /// Expand and run one MBL expression.
        Query {
            /// The MBL expression.
            mbl: String,
        } = "query",
        /// Run several MBL expressions (the batch mode of §4.2).
        Batch {
            /// The expressions, answered in order.
            exprs: Vec<String>,
        } = "batch",
        /// One line of the interactive REPL protocol (shared with `mbl_repl`).
        Repl {
            /// The command line.
            line: String,
        } = "repl",
        /// Start an asynchronous learning job.
        Learn {
            /// `POLICY@ASSOC`, e.g. `LRU@2`, with the same optional
            /// `+noise(...)` suffix as [`SessionSpec::policy`] for a
            /// noise-robustness campaign.
            spec: String,
        } = "learn",
        /// Replay a synthetic trace against a policy simulator — and, when
        /// `job` names a finished learning job, differentially against its
        /// learned machine.
        Replay {
            /// `POLICY@ASSOC`, e.g. `LRU@2` (noise suffixes are rejected:
            /// replay needs a deterministic ground truth).
            spec: String,
            /// Trace generator name (`sequential`, `strided`, `zipfian`,
            /// `pointer-chase`).
            generator: String,
            /// Number of accesses to generate (clamped server-side).
            accesses: u64,
            /// Working-set size in cache lines (clamped server-side).
            lines: u64,
            /// Generator seed.
            seed: u64,
            /// Id of a finished `learn` job whose machine should be replayed
            /// differentially against the simulator.
            job: Option<u64>,
        } = "replay",
        /// Map the sets of a simulated adaptive last-level cache server-side:
        /// classify every set (leader detection), learn each leader group's
        /// policy through the shared store, and flip-probe every follower for
        /// statistical evidence of adaptivity.
        ///
        /// The sweep should cover leaders of *both* duel classes (on the
        /// Skylake-like layout, ≥ 34 sets): the disambiguation drives work by
        /// making leaders vote the duel in a known direction, so a sweep that
        /// excludes every leader of one class cannot separate followers from
        /// leaders of the resident polarity — exactly like the published
        /// experiment, which sweeps the whole cache.
        Map {
            /// CPU model name (`haswell`, `skylake`, `kabylake`).
            model: String,
            /// Seed of the simulated machine.
            seed: u64,
            /// Intel CAT restriction of the last-level cache, if any.
            cat: Option<u64>,
            /// The slice whose sets are mapped.
            slice: u64,
            /// Number of sets to map, starting at index 0 (clamped server-side).
            sets: u64,
        } = "map",
        /// Poll the status of a learning job.
        Job {
            /// The job id returned by `learn`.
            id: u64,
        } = "job",
        /// Stream status lines until a learning job finishes.
        Wait {
            /// The job id returned by `learn`.
            id: u64,
        } = "wait",
        /// Global and per-session metrics.
        Stats = "stats",
        /// The daemon's metrics registry: Prometheus-style text plus typed
        /// snapshots of every counter, gauge and latency histogram.
        Metrics = "metrics",
        /// Flush the durable store's record log and write a compacted snapshot.
        /// A no-op (still `done`) on a daemon running without `--store-dir`.
        Persist = "persist",
        /// Close the session.
        Quit = "quit",
    }
}

wire_struct! {
    /// Identity reported by the server's `hello` handshake.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ServerInfo {
        /// Server name (`cqd`).
        pub server: String,
        /// Protocol version.
        pub proto: u64,
        /// How many sessions may execute store misses at once
        /// ([`CqdConfig::workers`](crate::CqdConfig::workers)).
        pub workers: u64,
    }
}

wire_struct! {
    /// One executed concrete query, as sent over the wire.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct WireOutcome {
        /// The rendered concrete query (after MBL expansion).
        pub query: String,
        /// Hit/miss pattern of the profiled accesses (`H` / `M` per access).
        pub pattern: String,
        /// Whether all repetitions agreed.
        pub consistent: bool,
        /// Whether the answer came from the shared cross-session store.
        pub cached: bool,
    }
}

wire_struct! {
    /// One L* phase of a learning campaign, as reported with a terminal job
    /// status: its name, the membership queries it issued, and its wall-clock
    /// share in milliseconds.  The query counts of a status line's phases sum
    /// exactly to its `queries` total (the learner's phase regions partition the
    /// run).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WirePhase {
        /// Phase name (`table_fill`, `closure`, `equivalence`,
        /// `identification`).
        pub name: String,
        /// Membership queries attributed to the phase.
        pub queries: u64,
        /// Wall-clock milliseconds spent in the phase.
        pub millis: u64,
    }
}

wire_struct! {
    /// One metric of the daemon's registry, in flat typed form (the structured
    /// counterpart of the Prometheus text a `metrics` response also carries).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WireMetric {
        /// Metric name (e.g. `cqd_request_ns`).
        pub name: String,
        /// `counter`, `gauge` or `histogram`.
        pub kind: String,
        /// Counter/gauge value; for histograms, the sample count.
        pub value: u64,
        /// Sum of recorded samples (histograms only; 0 otherwise).
        pub sum: u64,
        /// Smallest recorded sample (histograms only; 0 otherwise).
        pub min: u64,
        /// Largest recorded sample (histograms only; 0 otherwise).
        pub max: u64,
        /// Median estimate (histograms only; 0 otherwise).
        pub p50: u64,
        /// 90th-percentile estimate (histograms only; 0 otherwise).
        pub p90: u64,
        /// 99th-percentile estimate (histograms only; 0 otherwise).
        pub p99: u64,
    }
}

wire_struct! {
    /// Status snapshot of a learning job.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireJobStatus {
        /// The job id.
        pub id: u64,
        /// `running`, `done` or `failed`.
        pub state: String,
        /// Human-readable detail (identification result or error).
        pub detail: String,
        /// Whether this is the last status line of a `wait` stream.
        pub finished: bool = "final",
        /// States of the current hypothesis (live while running, final when
        /// done, 0 when failed).
        pub states: u64,
        /// Membership queries issued so far (live while running).
        pub queries: u64,
        /// Memoization hit rate: the campaign's query-store namespace while
        /// running, the learner's prefix-trie cache once done.
        pub hit_rate: f64,
        /// Wall-clock milliseconds since the job started.
        pub millis: u64,
        /// Per-phase query/duration breakdown of the campaign (populated on
        /// `done` status lines; empty while running and on failures).
        pub phases: Vec<WirePhase>,
    }
}

wire_struct! {
    /// Global daemon counters.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct WireStats {
        /// Sessions currently connected.
        pub sessions_active: u64,
        /// Sessions accepted since startup.
        pub sessions_total: u64,
        /// Concrete queries answered (store hits + backend runs).
        pub queries: u64,
        /// Concrete queries served from the shared cross-session store; the
        /// remainder (`queries - store_hits`) missed and ran on the backend.
        pub store_hits: u64,
        /// Queries executed by the backend pool.
        pub backend_queries: u64,
        /// Milliseconds since the daemon started.
        pub uptime_ms: u64,
        /// Median request-handling latency, in nanoseconds (0 until the first
        /// request is served).
        pub request_p50_ns: u64,
        /// 99th-percentile request-handling latency, in nanoseconds.
        pub request_p99_ns: u64,
        /// Worst request-handling latency observed, in nanoseconds.
        pub request_max_ns: u64,
        /// Learning jobs spawned.
        pub jobs_spawned: u64,
        /// Learning jobs in a terminal state.
        pub jobs_finished: u64,
        /// Sessions currently executing store misses on the backend pool
        /// (backend occupancy).
        pub busy_workers: u64,
        /// How many sessions may execute store misses at once.
        pub workers: u64,
        /// Store recordings dropped because they contradicted an earlier answer
        /// or were malformed (the nondeterminism signal of §7.1).
        pub store_conflicts: u64,
        /// Entries (trie nodes) currently held by the shared store.
        pub store_entries: u64,
        /// Namespaces cleared by the store's entry cap since startup (0 when
        /// the store is unbounded).
        pub store_evictions: u64,
        /// Records handed to the store's persistence writer (0 when the daemon
        /// runs without `--store-dir`).
        pub persist_appended: u64,
        /// Records kept out of the log by a write error or a length over a
        /// log frame's limit — durability gaps healed by the next snapshot,
        /// never in-memory data loss.  A busy writer makes recordings wait,
        /// never drop.
        pub persist_dropped: u64,
        /// Compacted snapshots written since startup.
        pub persist_snapshots: u64,
        /// Records replayed from disk when the store opened.
        pub persist_replayed: u64,
        /// Poisoned locks recovered on the request path (a session panicked
        /// mid-operation; the daemon degrades instead of dying).
        pub lock_poisoned: u64,
        /// Queries that went through the engine's repetition/majority vote —
        /// session backends and learning campaigns alike (the tally lives on the
        /// shared store).
        pub votes: u64,
        /// Backend executions those votes consumed (repetitions and escalations
        /// included): `vote_executions / votes` is the effective repetition
        /// count of the voted traffic.
        pub vote_executions: u64,
        /// Voted queries that needed at least one escalation round.
        pub vote_escalations: u64,
        /// Voted queries whose margin never settled (answered but not stored).
        pub vote_unsettled: u64,
        /// Worst final vote margin observed, in permille (1000 until the first
        /// vote).
        pub vote_min_margin_permille: u64,
    }
}

impl WireStats {
    /// Fraction of answered queries served from the shared store.
    pub fn hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.store_hits as f64 / self.queries as f64
        }
    }
}

wire_struct! {
    /// One query-store namespace (a distinct backend configuration) and its
    /// size, as reported by the `stats` command.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WireNamespace {
        /// The rendered backend configuration.
        pub name: String,
        /// Cached access prefixes (trie nodes) in the namespace.
        pub entries: u64,
        /// Estimated heap footprint of the namespace's trie, in bytes.
        pub bytes: u64,
        /// Lifetime lookups served from this namespace (survives eviction).
        pub hits: u64,
        /// Lifetime lookups that missed in this namespace.
        pub misses: u64,
    }
}

wire_struct! {
    /// Counters of one session.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct WireSessionStats {
        /// Concrete queries answered for this session.
        pub queries: u64,
        /// Of those, answers served from the shared store.
        pub store_hits: u64,
    }
}

wire_struct! {
    /// Everything the `stats` command reports.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ServerStats {
        /// Daemon-wide counters.
        pub global: WireStats,
        /// The calling session's counters.
        pub session: WireSessionStats,
        /// Per-namespace entry counts of the shared query store.
        pub namespaces: Vec<WireNamespace>,
    }
}

wire_struct! {
    /// Result of a server-side trace replay.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WireReplay {
        /// The policy spec that was replayed.
        pub spec: String,
        /// The trace generator that produced the traffic.
        pub generator: String,
        /// Accesses replayed through the simulator.
        pub accesses: u64,
        /// Simulator hits.
        pub sim_hits: u64,
        /// Simulator misses.
        pub sim_misses: u64,
        /// Simulator evictions.
        pub sim_evictions: u64,
        /// States of the learned machine replayed differentially (0 when the
        /// request named no job and only the simulator ran).
        pub machine_states: u64,
        /// Learned-machine hits (0 without a machine).
        pub machine_hits: u64,
        /// Learned-machine misses (0 without a machine).
        pub machine_misses: u64,
        /// Whether simulator and machine disagreed on any access.
        pub diverged: bool,
        /// Rendered first divergence (empty when none).
        pub divergence: String,
    }
}

wire_struct! {
    /// One leader group of a `map` response: its class, the set the campaign
    /// learned, and the learning outcome in flat wire form.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WireMapGroup {
        /// Detection class (`thrash-vulnerable` or `thrash-resistant`).
        pub class: String,
        /// Number of sets in the group.
        pub members: u64,
        /// Set index of the learned representative.
        pub representative_set: u64,
        /// Slice index of the learned representative.
        pub representative_slice: u64,
        /// The query-store namespace the campaign filled (the dedupe key).
        pub namespace: String,
        /// Outcome kind (`learned`, `not-deterministic` or `failed`).
        pub outcome: String,
        /// States of the learned automaton (0 unless `learned`).
        pub states: u64,
        /// Membership queries the campaign issued (0 unless `learned`).
        pub queries: u64,
        /// Library policy the automaton was identified as (empty if none).
        pub identified: String,
        /// Statistical disagreement in permille (0 unless `not-deterministic`).
        pub disagreement_permille: u64,
        /// Human-readable detail: the non-determinism evidence or the error.
        pub detail: String,
    }
}

wire_struct! {
    /// One mapped set of a `map` response.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WireMapSet {
        /// Set index within the slice.
        pub set: u64,
        /// Slice index.
        pub slice: u64,
        /// Detection class (`thrash-vulnerable`, `thrash-resistant` or
        /// `adaptive`).
        pub class: String,
        /// Verdict kind (`fixed`, `fixed-nondet`, `adaptive` or `unmapped`).
        pub verdict: String,
        /// Identified policy of a `fixed` set (empty if unidentified).
        pub policy: String,
        /// States of a `fixed` set's learned automaton (0 otherwise).
        pub states: u64,
        /// Statistical evidence in permille: vote disagreement for
        /// `fixed-nondet`, flip-probe disagreement for `adaptive` (0 otherwise).
        pub disagreement_permille: u64,
        /// The rendered error of an `unmapped` set (empty otherwise).
        pub detail: String,
    }
}

wire_struct! {
    /// The complete cache map returned by a `map` request.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WireCacheMap {
        /// Short name of the mapped CPU model.
        pub model: String,
        /// The mapped cache level (`L3`).
        pub level: String,
        /// CAT restriction in effect during the campaign, if any.
        pub cat: Option<u64>,
        /// Per-group learning outcomes.
        pub groups: Vec<WireMapGroup>,
        /// One entry per mapped set.
        pub sets: Vec<WireMapSet>,
    }
}

wire_enum! {
    /// A response from the daemon to a client.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response tagged "resp", unknown "response" {
        /// Handshake reply.
        Hello(ServerInfo) = "hello",
        /// Generic success with a human-readable message.
        Done {
            /// The message.
            message: String,
        } = "done",
        /// Results of one MBL expression.
        Outcomes {
            /// One entry per expanded concrete query.
            results: Vec<WireOutcome>,
        } = "outcomes",
        /// Results of a batch, grouped per expression.
        Batch {
            /// One group per expression, in request order.
            groups: Vec<Vec<WireOutcome>>,
        } = "batch",
        /// A learning job was started.
        JobStarted {
            /// Its id.
            id: u64,
        } = "job",
        /// A learning-job status line.
        JobStatus(WireJobStatus) = "status",
        /// Result of a `replay` request.
        Replay(WireReplay) = "replay",
        /// Result of a `map` request.
        Map(WireCacheMap) = "map",
        /// Metrics reply.
        Stats(ServerStats) = "stats",
        /// The daemon's metrics registry.
        Metrics {
            /// Prometheus-style text exposition of every metric.
            text: String,
            /// Typed snapshots of the same metrics, sorted by name.
            metrics: Vec<WireMetric>,
        } = "metrics",
        /// The request failed.
        Error {
            /// Why.
            message: String,
        } = "error",
        /// Session closed.
        Bye = "bye",
    }
}

fn parse_line(line: &str) -> Result<Json, ProtoError> {
    Json::parse(line.trim()).map_err(|e| err(e.to_string()))
}

/// Encodes a request as one JSON line (without the trailing newline).
pub fn encode_request(request: &Request) -> String {
    request.encode().render()
}

/// Decodes one request line.
///
/// # Errors
///
/// Returns a [`ProtoError`] for malformed JSON, unknown commands, or missing
/// fields.
pub fn decode_request(line: &str) -> Result<Request, ProtoError> {
    Request::decode(&parse_line(line)?)
}

/// Encodes a response as one JSON line (without the trailing newline).
pub fn encode_response(response: &Response) -> String {
    response.encode().render()
}

/// Decodes one response line.
///
/// # Errors
///
/// Returns a [`ProtoError`] for malformed JSON, unknown response kinds, or
/// missing fields.
pub fn decode_response(line: &str) -> Result<Response, ProtoError> {
    Response::decode(&parse_line(line)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every request variant with the exact line it encodes to: the bytes
    /// clients outside this codec read, pinned independently of the codec.
    fn request_vectors() -> Vec<(Request, &'static str)> {
        vec![
            (Request::Hello, r#"{"cmd":"hello"}"#),
            (
                Request::Target(SessionSpec::default()),
                r#"{"cmd":"target","model":"skylake","seed":7,"level":"L1","set":0,"slice":0,"cat":null,"reps":3,"reset":"F+R","policy":null}"#,
            ),
            (
                Request::Target(SessionSpec {
                    model: "kabylake".into(),
                    cat: Some(4),
                    reset: "D C B A @".into(),
                    ..SessionSpec::default()
                }),
                r#"{"cmd":"target","model":"kabylake","seed":7,"level":"L1","set":0,"slice":0,"cat":4,"reps":3,"reset":"D C B A @","policy":null}"#,
            ),
            (
                Request::Target(SessionSpec {
                    policy: Some("LRU@4".into()),
                    ..SessionSpec::default()
                }),
                r#"{"cmd":"target","model":"skylake","seed":7,"level":"L1","set":0,"slice":0,"cat":null,"reps":3,"reset":"F+R","policy":"LRU@4"}"#,
            ),
            (
                Request::Query {
                    mbl: "@ X _?".into(),
                },
                r#"{"cmd":"query","mbl":"@ X _?"}"#,
            ),
            (
                Request::Batch {
                    exprs: vec!["A?".into(), "@ X A?".into()],
                },
                r#"{"cmd":"batch","exprs":["A?","@ X A?"]}"#,
            ),
            (
                Request::Repl {
                    line: "set 12".into(),
                },
                r#"{"cmd":"repl","line":"set 12"}"#,
            ),
            (
                Request::Learn {
                    spec: "LRU@2".into(),
                },
                r#"{"cmd":"learn","spec":"LRU@2"}"#,
            ),
            (
                Request::Replay {
                    spec: "PLRU@4".into(),
                    generator: "zipfian".into(),
                    accesses: 100_000,
                    lines: 256,
                    seed: 7,
                    job: None,
                },
                r#"{"cmd":"replay","spec":"PLRU@4","generator":"zipfian","accesses":100000,"lines":256,"seed":7,"job":null}"#,
            ),
            (
                Request::Replay {
                    spec: "LRU@2".into(),
                    generator: "pointer-chase".into(),
                    accesses: 5000,
                    lines: 64,
                    seed: 1,
                    job: Some(2),
                },
                r#"{"cmd":"replay","spec":"LRU@2","generator":"pointer-chase","accesses":5000,"lines":64,"seed":1,"job":2}"#,
            ),
            (
                Request::Map {
                    model: "skylake".into(),
                    seed: 99,
                    cat: Some(2),
                    slice: 0,
                    sets: 48,
                },
                r#"{"cmd":"map","model":"skylake","seed":99,"cat":2,"slice":0,"sets":48}"#,
            ),
            (
                Request::Map {
                    model: "haswell".into(),
                    seed: 7,
                    cat: None,
                    slice: 1,
                    sets: 8,
                },
                r#"{"cmd":"map","model":"haswell","seed":7,"cat":null,"slice":1,"sets":8}"#,
            ),
            (Request::Job { id: 3 }, r#"{"cmd":"job","id":3}"#),
            (Request::Wait { id: 9 }, r#"{"cmd":"wait","id":9}"#),
            (Request::Stats, r#"{"cmd":"stats"}"#),
            (Request::Metrics, r#"{"cmd":"metrics"}"#),
            (Request::Persist, r#"{"cmd":"persist"}"#),
            (Request::Quit, r#"{"cmd":"quit"}"#),
        ]
    }

    /// Every response variant with the exact line it encodes to.
    fn response_vectors() -> Vec<(Response, &'static str)> {
        vec![
            (
                Response::Hello(ServerInfo {
                    server: "cqd".into(),
                    proto: PROTOCOL_VERSION,
                    workers: 4,
                }),
                r#"{"resp":"hello","server":"cqd","proto":7,"workers":4}"#,
            ),
            (
                Response::Done {
                    message: "target set".into(),
                },
                r#"{"resp":"done","message":"target set"}"#,
            ),
            (
                Response::Outcomes {
                    results: vec![WireOutcome {
                        query: "A B C A?".into(),
                        pattern: "H".into(),
                        consistent: true,
                        cached: false,
                    }],
                },
                r#"{"resp":"outcomes","results":[{"query":"A B C A?","pattern":"H","consistent":true,"cached":false}]}"#,
            ),
            (
                Response::Batch {
                    groups: vec![
                        vec![],
                        vec![WireOutcome {
                            query: "X?".into(),
                            pattern: "M".into(),
                            consistent: true,
                            cached: true,
                        }],
                    ],
                },
                r#"{"resp":"batch","groups":[[],[{"query":"X?","pattern":"M","consistent":true,"cached":true}]]}"#,
            ),
            (Response::JobStarted { id: 1 }, r#"{"resp":"job","id":1}"#),
            (
                Response::JobStatus(WireJobStatus {
                    id: 1,
                    state: "done".into(),
                    detail: "identified as LRU".into(),
                    finished: true,
                    states: 24,
                    queries: 7569,
                    hit_rate: 0.75,
                    millis: 31,
                    phases: vec![
                        WirePhase {
                            name: "table_fill".into(),
                            queries: 5000,
                            millis: 20,
                        },
                        WirePhase {
                            name: "equivalence".into(),
                            queries: 2569,
                            millis: 11,
                        },
                    ],
                }),
                r#"{"resp":"status","id":1,"state":"done","detail":"identified as LRU","final":true,"states":24,"queries":7569,"hit_rate":0.75,"millis":31,"phases":[{"name":"table_fill","queries":5000,"millis":20},{"name":"equivalence","queries":2569,"millis":11}]}"#,
            ),
            (
                Response::JobStatus(WireJobStatus {
                    id: 2,
                    state: "running".into(),
                    detail: "closing table".into(),
                    finished: false,
                    states: 0,
                    queries: 120,
                    hit_rate: 0.0,
                    millis: 2,
                    phases: vec![],
                }),
                r#"{"resp":"status","id":2,"state":"running","detail":"closing table","final":false,"states":0,"queries":120,"hit_rate":0,"millis":2,"phases":[]}"#,
            ),
            (
                Response::Replay(WireReplay {
                    spec: "LRU@2".into(),
                    generator: "strided".into(),
                    accesses: 100_000,
                    sim_hits: 61_000,
                    sim_misses: 39_000,
                    sim_evictions: 39_000,
                    machine_states: 2,
                    machine_hits: 61_000,
                    machine_misses: 39_000,
                    diverged: false,
                    divergence: String::new(),
                }),
                r#"{"resp":"replay","spec":"LRU@2","generator":"strided","accesses":100000,"sim_hits":61000,"sim_misses":39000,"sim_evictions":39000,"machine_states":2,"machine_hits":61000,"machine_misses":39000,"diverged":false,"divergence":""}"#,
            ),
            (
                Response::Replay(WireReplay {
                    spec: "MRU@4".into(),
                    generator: "sequential".into(),
                    accesses: 10,
                    sim_hits: 1,
                    sim_misses: 9,
                    sim_evictions: 9,
                    machine_states: 0,
                    machine_hits: 0,
                    machine_misses: 0,
                    diverged: true,
                    divergence: "access 3 (0xc0 in set 3): simulator Hit, machine Miss".into(),
                }),
                r#"{"resp":"replay","spec":"MRU@4","generator":"sequential","accesses":10,"sim_hits":1,"sim_misses":9,"sim_evictions":9,"machine_states":0,"machine_hits":0,"machine_misses":0,"diverged":true,"divergence":"access 3 (0xc0 in set 3): simulator Hit, machine Miss"}"#,
            ),
            (
                Response::Map(WireCacheMap {
                    model: "skylake".into(),
                    level: "L3".into(),
                    cat: Some(2),
                    groups: vec![WireMapGroup {
                        class: "thrash-vulnerable".into(),
                        members: 2,
                        representative_set: 0,
                        representative_slice: 0,
                        namespace: "skylake seed=99 cat=2 reset=F+R reps=5 L3 set=0 slice=0".into(),
                        outcome: "learned".into(),
                        states: 7,
                        queries: 641,
                        identified: "New2".into(),
                        disagreement_permille: 0,
                        detail: String::new(),
                    }],
                    sets: vec![
                        WireMapSet {
                            set: 0,
                            slice: 0,
                            class: "thrash-vulnerable".into(),
                            verdict: "fixed".into(),
                            policy: "New2".into(),
                            states: 7,
                            disagreement_permille: 0,
                            detail: String::new(),
                        },
                        WireMapSet {
                            set: 5,
                            slice: 0,
                            class: "adaptive".into(),
                            verdict: "adaptive".into(),
                            policy: String::new(),
                            states: 0,
                            disagreement_permille: 333,
                            detail: "flip probe disagreed".into(),
                        },
                    ],
                }),
                r#"{"resp":"map","model":"skylake","level":"L3","cat":2,"groups":[{"class":"thrash-vulnerable","members":2,"representative_set":0,"representative_slice":0,"namespace":"skylake seed=99 cat=2 reset=F+R reps=5 L3 set=0 slice=0","outcome":"learned","states":7,"queries":641,"identified":"New2","disagreement_permille":0,"detail":""}],"sets":[{"set":0,"slice":0,"class":"thrash-vulnerable","verdict":"fixed","policy":"New2","states":7,"disagreement_permille":0,"detail":""},{"set":5,"slice":0,"class":"adaptive","verdict":"adaptive","policy":"","states":0,"disagreement_permille":333,"detail":"flip probe disagreed"}]}"#,
            ),
            (
                Response::Map(WireCacheMap {
                    model: "haswell".into(),
                    level: "L3".into(),
                    cat: None,
                    groups: vec![],
                    sets: vec![],
                }),
                r#"{"resp":"map","model":"haswell","level":"L3","cat":null,"groups":[],"sets":[]}"#,
            ),
            (
                Response::Stats(ServerStats {
                    global: WireStats {
                        sessions_active: 2,
                        sessions_total: 5,
                        queries: 100,
                        store_hits: 60,
                        backend_queries: 40,
                        uptime_ms: 12_345,
                        request_p50_ns: 8_000,
                        request_p99_ns: 95_000,
                        request_max_ns: 120_000,
                        jobs_spawned: 1,
                        jobs_finished: 1,
                        busy_workers: 0,
                        workers: 4,
                        store_conflicts: 2,
                        store_entries: 47,
                        store_evictions: 1,
                        persist_appended: 88,
                        persist_dropped: 2,
                        persist_snapshots: 3,
                        persist_replayed: 41,
                        lock_poisoned: 0,
                        votes: 40,
                        vote_executions: 302,
                        vote_escalations: 3,
                        vote_unsettled: 1,
                        vote_min_margin_permille: 333,
                    },
                    session: WireSessionStats {
                        queries: 10,
                        store_hits: 4,
                    },
                    namespaces: vec![
                        WireNamespace {
                            name: "skylake seed=7 cat=- reset=F+R reps=3 L1 set=0 slice=0".into(),
                            entries: 40,
                            bytes: 2048,
                            hits: 61,
                            misses: 40,
                        },
                        WireNamespace {
                            name: "policy:LRU@4 reset=cc0 reps=1 L1 set=0 slice=0".into(),
                            entries: 7,
                            bytes: 384,
                            hits: 0,
                            misses: 7,
                        },
                    ],
                }),
                r#"{"resp":"stats","global":{"sessions_active":2,"sessions_total":5,"queries":100,"store_hits":60,"backend_queries":40,"uptime_ms":12345,"request_p50_ns":8000,"request_p99_ns":95000,"request_max_ns":120000,"jobs_spawned":1,"jobs_finished":1,"busy_workers":0,"workers":4,"store_conflicts":2,"store_entries":47,"store_evictions":1,"persist_appended":88,"persist_dropped":2,"persist_snapshots":3,"persist_replayed":41,"lock_poisoned":0,"votes":40,"vote_executions":302,"vote_escalations":3,"vote_unsettled":1,"vote_min_margin_permille":333},"session":{"queries":10,"store_hits":4},"namespaces":[{"name":"skylake seed=7 cat=- reset=F+R reps=3 L1 set=0 slice=0","entries":40,"bytes":2048,"hits":61,"misses":40},{"name":"policy:LRU@4 reset=cc0 reps=1 L1 set=0 slice=0","entries":7,"bytes":384,"hits":0,"misses":7}]}"#,
            ),
            (
                Response::Metrics {
                    text: "# TYPE cqd_queries_total counter\ncqd_queries_total 100\n".into(),
                    metrics: vec![
                        WireMetric {
                            name: "cqd_queries_total".into(),
                            kind: "counter".into(),
                            value: 100,
                            sum: 0,
                            min: 0,
                            max: 0,
                            p50: 0,
                            p90: 0,
                            p99: 0,
                        },
                        WireMetric {
                            name: "cqd_request_ns".into(),
                            kind: "histogram".into(),
                            value: 12,
                            sum: 96_000,
                            min: 4_000,
                            max: 20_000,
                            p50: 8_000,
                            p90: 18_000,
                            p99: 20_000,
                        },
                    ],
                },
                r##"{"resp":"metrics","text":"# TYPE cqd_queries_total counter\ncqd_queries_total 100\n","metrics":[{"name":"cqd_queries_total","kind":"counter","value":100,"sum":0,"min":0,"max":0,"p50":0,"p90":0,"p99":0},{"name":"cqd_request_ns","kind":"histogram","value":12,"sum":96000,"min":4000,"max":20000,"p50":8000,"p90":18000,"p99":20000}]}"##,
            ),
            (
                Response::Error {
                    message: "no such job".into(),
                },
                r#"{"resp":"error","message":"no such job"}"#,
            ),
            (Response::Bye, r#"{"resp":"bye"}"#),
        ]
    }

    #[test]
    fn requests_round_trip() {
        for (request, expected) in request_vectors() {
            let line = encode_request(&request);
            assert_eq!(line, expected);
            assert_eq!(decode_request(&line).unwrap(), request, "line: {line}");
        }
    }

    #[test]
    fn responses_round_trip() {
        for (response, expected) in response_vectors() {
            let line = encode_response(&response);
            assert_eq!(line, expected);
            assert_eq!(decode_response(&line).unwrap(), response, "line: {line}");
        }
    }

    #[test]
    fn tags_name_the_wire_discriminator() {
        for (request, line) in request_vectors() {
            assert!(line.starts_with(&format!(r#"{{"cmd":"{}""#, request.tag())));
        }
        for (response, line) in response_vectors() {
            assert!(line.starts_with(&format!(r#"{{"resp":"{}""#, response.tag())));
        }
    }

    /// What decoding rejects and accepts, pinned independently of the codec:
    /// unknown or missing tags, missing, `null` and mistyped fields, and
    /// lists that are not arrays fail with an error naming the key; absent
    /// or `null` optional fields and unknown extra keys are accepted.
    #[test]
    fn unknown_messages_are_rejected() {
        // Lines that must be rejected, each with the text its error names.
        let rejected_requests = [
            (r#"{"cmd":"query"}"#, "'mbl'"),
            (r#"{"cmd":"query","mbl":null}"#, "'mbl'"),
            (
                r#"{"cmd":"map","model":"skylake","cat":null,"slice":0,"sets":8}"#,
                "'seed'",
            ),
            (
                r#"{"cmd":"map","model":"skylake","seed":7,"cat":"x","slice":0,"sets":8}"#,
                "'cat'",
            ),
            (
                r#"{"cmd":"replay","spec":"LRU@2","generator":"zipfian","accesses":10,"lines":4,"seed":1,"job":1.5}"#,
                "'job'",
            ),
            (
                r#"{"cmd":"target","model":"skylake","seed":7,"level":"L1","set":0,"slice":0,"reps":3,"reset":"F+R","policy":7}"#,
                "'policy'",
            ),
            (r#"{"cmd":"batch","exprs":"A?"}"#, "'exprs'"),
            (r#"{"cmd":"batch","exprs":["A?",1]}"#, "'exprs'"),
            (r#"{"cmd":"mystery"}"#, "'mystery'"),
            (r#"{"mbl":"A?"}"#, "'cmd'"),
            ("not json", "JSON"),
        ];
        for (line, names) in rejected_requests {
            let error = decode_request(line).expect_err(line).to_string();
            assert!(error.contains(names), "{line}: {error}");
        }
        let rejected_responses = [
            (
                r#"{"resp":"outcomes","results":[{"query":"A?","pattern":"H","cached":false}]}"#,
                "'consistent'",
            ),
            (
                r#"{"resp":"status","id":2,"state":"running","detail":"","final":false,"states":0,"queries":1,"millis":2,"phases":[]}"#,
                "'hit_rate'",
            ),
            (r#"{"resp":"outcomes","results":{}}"#, "'results'"),
            (
                r#"{"resp":"stats","session":{"queries":0,"store_hits":0},"namespaces":[]}"#,
                "'global'",
            ),
            (r#"{"resp":"mystery"}"#, "'mystery'"),
            ("{}", "'resp'"),
        ];
        for (line, names) in rejected_responses {
            let error = decode_response(line).expect_err(line).to_string();
            assert!(error.contains(names), "{line}: {error}");
        }

        // Absent and `null` optional fields are `None`; unknown keys are
        // ignored.
        let default_target = Request::Target(SessionSpec::default());
        let accepted_requests = [
            (
                r#"{"cmd":"target","model":"skylake","seed":7,"level":"L1","set":0,"slice":0,"reps":3,"reset":"F+R"}"#,
                default_target.clone(),
            ),
            (
                r#"{"cmd":"target","model":"skylake","seed":7,"level":"L1","set":0,"slice":0,"cat":null,"reps":3,"reset":"F+R","policy":null}"#,
                default_target,
            ),
            (
                r#"{"cmd":"replay","spec":"LRU@2","generator":"zipfian","accesses":10,"lines":4,"seed":1}"#,
                Request::Replay {
                    spec: "LRU@2".into(),
                    generator: "zipfian".into(),
                    accesses: 10,
                    lines: 4,
                    seed: 1,
                    job: None,
                },
            ),
            (
                r#"{"cmd":"map","model":"haswell","seed":7,"slice":1,"sets":8}"#,
                Request::Map {
                    model: "haswell".into(),
                    seed: 7,
                    cat: None,
                    slice: 1,
                    sets: 8,
                },
            ),
            (
                r#"{"cmd":"query","mbl":"A?","extra":[1,{"x":null}]}"#,
                Request::Query { mbl: "A?".into() },
            ),
        ];
        for (line, expected) in accepted_requests {
            assert_eq!(decode_request(line).expect(line), expected, "{line}");
        }
        assert_eq!(
            decode_response(r#"{"resp":"job","extra":true,"id":4}"#).unwrap(),
            Response::JobStarted { id: 4 }
        );
    }

    #[test]
    fn hit_rate_is_derived_from_store_counters() {
        assert_eq!(WireStats::default().hit_rate(), 0.0);
        let stats = WireStats {
            queries: 4,
            store_hits: 3,
            ..WireStats::default()
        };
        assert!((stats.hit_rate() - 0.75).abs() < 1e-9);
    }
}
