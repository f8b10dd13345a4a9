//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload learn_direct|learn_durable|serve_mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload in this process and prints, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`.  With `--trace 0` the metrics are the end-to-end ones (see
//! `E2E`); with `--trace 1` the workload runs again with decorators around
//! the public layer boundaries and the metrics are the per-layer ones (see
//! `LAYERS`).  Diagnostics go to standard error.  See `perfbench/README.md`
//! for the workloads and what each metric should move.

mod direct;
mod durable;
mod gen;
mod layers;
mod serve;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use polca::LearnSetup;
use policies::{PolicyKind, PolicyMealy};
use server::Json;

/// End-to-end metrics with their units, in output order.
const E2E: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("learn_s", "s"),
    ("warm_learn_s", "s"),
    ("qps", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("latency_samples", "count"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics with their units, in output order.  A layer a
/// workload does not reach reports zero.
const LAYERS: [(&str, &str); 53] = [
    ("learning.mq", "count"),
    ("learning.mq_oracle", "count"),
    ("learning.eq", "count"),
    ("learning.tests", "count"),
    ("learning.eq_s", "s"),
    ("learning.self_s", "s"),
    ("polca.accesses", "count"),
    ("polca.speculations", "count"),
    ("polca.probes", "count"),
    ("polca.block_accesses", "count"),
    ("polca.replay_factor", "ratio"),
    ("polca.incl_s", "s"),
    ("polca.self_s", "s"),
    ("engine.lookups", "count"),
    ("engine.hits", "count"),
    ("engine.misses", "count"),
    ("engine.config_calls", "count"),
    ("engine.entries", "count"),
    ("engine.self_s", "s"),
    ("backend.executions", "count"),
    ("backend.batches", "count"),
    ("backend.batch_len", "ratio"),
    ("backend.block_accesses", "count"),
    ("backend.s", "s"),
    ("backend.retarget_us", "us"),
    ("persist.appended", "count"),
    ("persist.dropped", "count"),
    ("persist.unlogged_share", "ratio"),
    ("persist.replayed", "count"),
    ("persist.bytes", "bytes"),
    ("persist.open_s", "s"),
    ("server.requests", "count"),
    ("server.bytes_in", "bytes"),
    ("server.bytes_out", "bytes"),
    ("server.hit_us", "us"),
    ("server.miss_us", "us"),
    ("server.handle_p50_us", "us"),
    ("server.handle_p99_us", "us"),
    ("server.codec_us", "us"),
    ("server.miss_share", "ratio"),
    ("server.store_hits", "count"),
    ("server.backend_queries", "count"),
    ("server.votes", "count"),
    ("server.vote_executions", "count"),
    ("client.round_trips", "count"),
    ("client.wire_queries", "count"),
    ("client.store_hit_share", "ratio"),
    ("client.s", "s"),
    ("mbl.expand_us", "us"),
    ("trace.root_s", "s"),
    ("trace.self_sum_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.counts_match", "bool"),
];

/// Command-line arguments.  `--phase`, `--dir` and `--samples` are
/// internal: a workload that runs its phases in child processes passes them
/// to each child.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub phase: Option<String>,
    pub dir: Option<PathBuf>,
    /// Where child phases leave their latency samples for the top-level
    /// process.
    pub samples: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = argv
            .next()
            .ok_or_else(|| format!("--{key} needs a value"))?;
        values.insert(key.to_string(), value);
    }
    let get = |key: &str| {
        values
            .get(key)
            .ok_or_else(|| format!("--{key} is required"))
    };
    let number = |key: &str| -> Result<u64, String> {
        get(key)?
            .parse()
            .map_err(|_| format!("--{key} must be a whole number"))
    };
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: number("seed")?,
        seconds: number("seconds")?.max(1) as f64,
        trace: number("trace")? != 0,
        phase: values.get("phase").cloned(),
        dir: values.get("dir").map(PathBuf::from),
        samples: values.get("samples").map(PathBuf::from),
    })
}

/// What a workload run reports: its operations, its metrics, and the
/// latency samples (nanoseconds) of the query phases it ran itself, with
/// the time those phases took.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    latencies: Vec<u64>,
    latency_busy: Duration,
}

impl Report {
    /// Counts one operation; `ok == false` counts it as failed and logs why.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", what());
        }
    }

    /// Counts `n` operations that all succeeded.
    pub fn passed(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts a failed operation from an error.
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        self.check(false, || what.to_string());
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    fn to_json(&self, metrics: Vec<(&str, Json)>) -> Json {
        Json::obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::num(self.attempted.max(1))),
            ("failed", Json::num(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Per-metric samples gathered over the repeated parts of a run.  Each
/// metric reports its median, except the peak resident set, which reports
/// its largest.
#[derive(Default)]
pub struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    pub fn add(&mut self, name: &str, value: f64) {
        self.0.entry(name.to_string()).or_default().push(value);
    }

    /// Adds the metrics of one part, counting its operations into `report`.
    pub fn absorb(&mut self, report: &mut Report, part: Report) {
        report.attempted += part.attempted;
        report.failed += part.failed;
        for (name, value) in &part.metrics {
            self.add(name, *value);
        }
    }

    /// Removes the samples of `name` and returns their mean.
    pub fn take_mean(&mut self, name: &str) -> Option<f64> {
        let values = self.0.remove(name)?;
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }

    pub fn report_into(self, report: &mut Report) {
        for (name, values) in self.0 {
            let value = if name == "peak_rss_mb" {
                values.iter().copied().fold(0.0, f64::max)
            } else {
                median(&values)
            };
            report.set(&name, value);
        }
    }
}

/// Runs phase `phase` of the current workload in a child process (a fresh
/// heap, and a peak resident set of its own), over `dir` if given, and
/// returns what it reported.  The child leaves its latency samples in the
/// run's samples directory.
pub fn child(args: &Args, phase: &str, dir: Option<&Path>) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = std::process::Command::new(exe);
    command
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &(args.seconds as u64).to_string()])
        .args(["--trace", "0", "--phase", phase]);
    if let Some(dir) = dir {
        command.arg("--dir").arg(dir);
    }
    if let Some(samples) = &args.samples {
        command.arg("--samples").arg(samples);
    }
    let output = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("running phase {phase}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!("phase {phase} exited with {}", output.status));
    }
    let line = stdout.lines().last().unwrap_or_default();
    let json = Json::parse(line).map_err(|e| format!("phase {phase} printed '{line}': {e}"))?;
    let count = |key: &str| json.get(key).and_then(Json::as_u64).unwrap_or(0);
    let mut report = Report {
        attempted: count("attempted"),
        failed: count("failed"),
        ..Report::default()
    };
    if let Some(Json::Obj(metrics)) = json.get("metrics") {
        for (name, metric) in metrics {
            let value = metric.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            report.set(name, value);
        }
    }
    Ok(report)
}

/// Median of a non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The `p`-th percentile (0 < p < 100) by nearest rank, or `None` when
/// fewer than ten samples lie beyond it.  `sorted` must be ascending.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    (rank >= 1 && n - rank >= 10).then(|| sorted[rank - 1])
}

/// Pools a closed-loop phase into `report`: every client's latency samples,
/// and the phase's length as the time each client spent waiting on the
/// system, averaged over the clients.
pub fn pool_latencies(report: &mut Report, clients: Vec<Latencies>) {
    let count = clients.len().max(1) as u32;
    for client in clients {
        report.latency_busy += client.busy / count;
        report.latencies.extend(client.samples);
    }
}

/// Saves this child phase's pooled latencies into the run's samples
/// directory, one file per process: the phase length in nanoseconds, then
/// the samples.
fn save_samples(args: &Args, report: &Report) -> Result<(), String> {
    let dir = args.samples.as_ref().ok_or("a phase needs --samples")?;
    let busy = report.latency_busy.as_nanos() as u64;
    let bytes: Vec<u8> = std::iter::once(busy)
        .chain(report.latencies.iter().copied())
        .flat_map(u64::to_le_bytes)
        .collect();
    let path = dir.join(format!("{}.bin", std::process::id()));
    std::fs::write(path, bytes).map_err(|e| e.to_string())
}

/// Pools every child phase's latencies saved in `dir` into `report`.
fn load_samples(report: &mut Report, dir: &Path) -> Result<(), String> {
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
        let mut words = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("eight bytes")));
        report.latency_busy += Duration::from_nanos(words.next().unwrap_or(0));
        report.latencies.extend(words);
    }
    Ok(())
}

/// Records the run's pooled query phases: `qps` (requests completed per
/// second of the phases), `p50_us` and `p99_us` by nearest rank over every
/// latency sample, and their count as `latency_samples`.
fn latency_metrics(report: &mut Report) {
    let mut samples = std::mem::take(&mut report.latencies);
    samples.sort_unstable();
    report.set(
        "qps",
        samples.len() as f64 / report.latency_busy.as_secs_f64(),
    );
    report.set("latency_samples", samples.len() as f64);
    for (name, p) in [("p50_us", 50.0), ("p99_us", 99.0)] {
        match percentile(&samples, p) {
            Some(ns) => report.set(name, ns as f64 / 1000.0),
            None => report.fail(format!(
                "{name}: {} samples leave fewer than ten beyond it",
                samples.len()
            )),
        }
    }
}

/// Latencies of one closed-loop client: one sample (nanoseconds) per
/// request, and the total time spent waiting on the system.
#[derive(Default)]
pub struct Latencies {
    pub samples: Vec<u64>,
    pub busy: Duration,
}

impl Latencies {
    pub fn record(&mut self, took: Duration) {
        self.busy += took;
        self.samples.push(took.as_nanos() as u64);
    }
}

/// One closed-loop client: for i = 0, 1, … until `seconds` have passed,
/// builds input `i` with `make`, times `op` on it, and hands input and
/// result to `check`.  Only `op` is timed, so input generation and checking
/// cost the measurement nothing.
pub fn closed_loop<I, T>(
    seconds: f64,
    mut make: impl FnMut(u64) -> I,
    mut op: impl FnMut(&I) -> T,
    mut check: impl FnMut(u64, I, T),
) -> Latencies {
    let mut latencies = Latencies::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut index = 0;
    while Instant::now() < deadline {
        let input = make(index);
        let begin = Instant::now();
        let out = op(&input);
        latencies.record(begin.elapsed());
        check(index, input, out);
        index += 1;
    }
    latencies
}

/// Peak resident set of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A scratch directory under `.bench_tmp/` in the working directory,
/// removed when dropped.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(label: &str) -> std::io::Result<TempDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let path =
            PathBuf::from(".bench_tmp").join(format!("{label}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Total size of the files in the directory, in bytes.
    pub fn bytes(&self) -> u64 {
        std::fs::read_dir(&self.0)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either; fails harmlessly while
        // another run still uses it.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// One pinned learning campaign: policy, associativity, and the state and
/// membership-query counts it must reproduce at one worker.
pub type Campaign = (PolicyKind, usize, usize, u64);

/// The Table 2 rows at ways ≤ 4 plus New1/4 and New2/4 (4,970,650 MQ).
pub const SWEEP: [Campaign; 16] = [
    (PolicyKind::Fifo, 2, 2, 43),
    (PolicyKind::Fifo, 4, 4, 211),
    (PolicyKind::Lru, 2, 2, 43),
    (PolicyKind::Lru, 4, 24, 7_569),
    (PolicyKind::Plru, 2, 2, 43),
    (PolicyKind::Plru, 4, 8, 747),
    (PolicyKind::Mru, 2, 2, 43),
    (PolicyKind::Mru, 4, 14, 3_034),
    (PolicyKind::Lip, 2, 2, 43),
    (PolicyKind::Lip, 4, 24, 7_580),
    (PolicyKind::SrripHp, 2, 12, 986),
    (PolicyKind::SrripHp, 4, 178, 256_779),
    (PolicyKind::SrripFp, 2, 16, 2_966),
    (PolicyKind::SrripFp, 4, 256, 3_553_110),
    (PolicyKind::New1, 4, 160, 353_310),
    (PolicyKind::New2, 4, 175, 784_143),
];

/// The policy's ground-truth automaton, against which membership answers
/// are checked.
pub fn ground_truth(kind: PolicyKind, assoc: usize) -> Result<PolicyMealy, String> {
    let policy = kind.build(assoc).map_err(|e| e.to_string())?;
    Ok(policies::policy_to_mealy(policy.as_ref(), 1 << 16))
}

/// The learning configuration every campaign runs with: the defaults at one
/// worker, the only setting whose membership-query counts repeat.
pub fn learn_setup() -> LearnSetup {
    LearnSetup {
        workers: 1,
        ..LearnSetup::default()
    }
}

fn main() {
    let mut args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let run = match args.workload.as_str() {
        "learn_direct" => direct::run,
        "learn_durable" => durable::run,
        "serve_mix" => serve::run,
        other => {
            eprintln!(
                "perfbench: unknown workload '{other}' (learn_direct|learn_durable|serve_mix)"
            );
            std::process::exit(2);
        }
    };
    // The top-level process collects every child phase's latency samples
    // in a scratch directory of its own.
    let samples_dir = match args.phase {
        Some(_) => None,
        None => match TempDir::new("samples") {
            Ok(dir) => Some(dir),
            Err(e) => {
                eprintln!("perfbench: creating the samples directory: {e}");
                std::process::exit(1);
            }
        },
    };
    args.samples = samples_dir
        .as_ref()
        .map(|dir| dir.path().to_path_buf())
        .or(args.samples);
    let outcome = run(&args).and_then(|mut report| {
        // The peak resident set is taken before the pooled samples are
        // loaded, so it stays the workload's own.
        if !args.trace && !report.metrics.contains_key("peak_rss_mb") {
            report.set("peak_rss_mb", peak_rss_mb());
        }
        match &samples_dir {
            None if !report.latencies.is_empty() => save_samples(&args, &report)?,
            None => {}
            Some(dir) => load_samples(&mut report, dir.path())?,
        }
        Ok(report)
    });
    drop(samples_dir);
    let mut report = match outcome {
        Ok(report) => report,
        Err(message) => {
            eprintln!("perfbench: {} aborted: {message}", args.workload);
            std::process::exit(1);
        }
    };
    if args.phase.is_some() {
        // A child phase hands every metric it measured to its parent.
        let metrics = report
            .metrics
            .iter()
            .map(|(name, value)| (name.as_str(), Json::obj(vec![("value", Json::Num(*value))])))
            .collect();
        println!("{}", report.to_json(metrics).render());
        return;
    }
    if !report.latencies.is_empty() {
        latency_metrics(&mut report);
    }
    let names: &[(&str, &str)] = if args.trace { &LAYERS } else { &E2E };
    for (name, _) in names {
        // A layer the workload never reaches reads zero; an end-to-end
        // metric must always be measured.
        if !report.metrics.contains_key(*name) && !args.trace {
            report.fail(format!("metric {name} was not measured"));
        }
    }
    for (name, value) in &report.metrics {
        eprintln!("  {name:<26} {value}");
    }
    let metrics = names
        .iter()
        .map(|(name, unit)| {
            let metric = Json::obj(vec![
                ("value", Json::Num(report.get(name))),
                ("unit", Json::str(*unit)),
            ]);
            (*name, metric)
        })
        .collect();
    println!("{}", report.to_json(metrics).render());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_take_the_nearest_rank_and_need_ten_samples_beyond() {
        let samples: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&samples, 50.0), Some(500));
        assert_eq!(percentile(&samples, 99.0), Some(990));
        // 999 samples leave only nine beyond the 99th percentile.
        assert_eq!(percentile(&samples[..999], 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn medians_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
