//! Job-oriented learning: running the pipeline asynchronously with live
//! status polling.
//!
//! The synchronous entry points ([`learn_policy`] and friends) block for the
//! whole run — fine for a CLI, useless for a server that must keep answering
//! queries while a multi-second learning campaign is in flight.  [`LearnJob`]
//! wraps one pipeline run in a background `std::thread`: the caller gets an
//! immediate handle, polls [`LearnJob::status`] for cheap snapshots (the
//! `cqd` daemon streams these to its clients), and can [`LearnJob::join`]
//! for the final outcome.
//!
//! Running jobs report *live* progress: the hypothesis size and membership
//! queries come from the learner's [`LearnProgress`] counters, and — for
//! engine-backed campaigns — the hit rate of the query-store namespace the
//! campaign fills, so an operator can watch the shared store absorb the run.

use std::io;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use cachequery::StoreSpace;
use learning::LearnProgress;
use policies::PolicyKind;

use crate::cache_oracle::{CacheOracle, SimulatedCacheOracle};
use crate::pipeline::{learn_policy, CampaignProfile, LearnOutcome, LearnSetup};

/// Final result of a finished learning job, reduced to the plain facts a
/// status protocol wants to report.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Number of states of the learned (minimized) machine.
    pub states: usize,
    /// Membership queries issued by the run.
    pub membership_queries: u64,
    /// Fraction of membership queries served by the learner's prefix-trie
    /// cache.
    pub cache_hit_rate: f64,
    /// Name of the reference policy the learned machine was identified as
    /// (up to line renaming), if any.
    pub identified: Option<String>,
    /// Per-phase query/duration breakdown of the campaign (its query counts
    /// sum exactly to [`JobResult::membership_queries`]).
    pub profile: CampaignProfile,
}

/// One point-in-time view of a job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// The pipeline is still running.
    Running {
        /// Time since the job was spawned.
        elapsed: Duration,
        /// States of the current hypothesis (0 until the first closure).
        states: u64,
        /// Membership queries issued so far.
        membership_queries: u64,
        /// Hit rate of the campaign's query-store namespace so far (0.0 for
        /// jobs that do not run through a shared store).
        store_hit_rate: f64,
    },
    /// The pipeline finished successfully.
    Done {
        /// Summary of the outcome.
        result: JobResult,
        /// Total wall-clock time of the run.
        elapsed: Duration,
    },
    /// The pipeline failed (oracle error, state limit, nondeterminism, …).
    Failed {
        /// The rendered error.
        error: String,
        /// Wall-clock time until the failure.
        elapsed: Duration,
    },
}

impl JobStatus {
    /// Whether the job has reached a terminal state.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, JobStatus::Running { .. })
    }
}

/// Shared state between the job thread and its handle.  The terminal
/// duration is frozen when the outcome is stored, so late polls do not
/// inflate a finished job's elapsed time.
#[derive(Debug)]
struct JobState {
    started: Instant,
    progress: Arc<LearnProgress>,
    store: Option<StoreSpace>,
    #[allow(clippy::type_complexity)]
    outcome: Mutex<Option<(Result<(LearnOutcome, JobResult), String>, Duration)>>,
}

/// A learning run executing on a background thread.
///
/// # Example
///
/// ```
/// use polca::{spawn_simulated_learn_job, LearnSetup};
/// use policies::PolicyKind;
///
/// let job = spawn_simulated_learn_job(PolicyKind::Lru, 2, LearnSetup::default());
/// let outcome = job.join().expect("LRU/2 learns in milliseconds");
/// assert_eq!(outcome.machine.num_states(), 2);
/// ```
#[derive(Debug)]
pub struct LearnJob {
    state: Arc<JobState>,
    handle: Option<thread::JoinHandle<()>>,
}

impl LearnJob {
    /// A cheap snapshot of the job's progress.
    pub fn status(&self) -> JobStatus {
        let outcome = self.state.outcome.lock().expect("job state lock poisoned");
        match outcome.as_ref() {
            None => JobStatus::Running {
                elapsed: self.state.started.elapsed(),
                states: self.state.progress.states(),
                membership_queries: self.state.progress.membership_queries(),
                store_hit_rate: self.state.store.as_ref().map_or(0.0, StoreSpace::hit_rate),
            },
            Some((Ok((_, result)), elapsed)) => JobStatus::Done {
                result: result.clone(),
                elapsed: *elapsed,
            },
            Some((Err(error), elapsed)) => JobStatus::Failed {
                error: error.clone(),
                elapsed: *elapsed,
            },
        }
    }

    /// The learned machine, if the job has completed successfully — the
    /// handle trace-replay consumers use to evaluate a finished campaign
    /// without consuming the job.
    ///
    /// Returns `None` while the job is running and after a failure.
    pub fn machine(&self) -> Option<policies::PolicyMealy> {
        let outcome = self.state.outcome.lock().expect("job state lock poisoned");
        match outcome.as_ref() {
            Some((Ok((full, _)), _)) => Some(full.machine.clone()),
            _ => None,
        }
    }

    /// Blocks until the job finishes and returns the full [`LearnOutcome`].
    ///
    /// # Errors
    ///
    /// Returns the rendered pipeline error if the run failed.
    pub fn join(mut self) -> Result<LearnOutcome, String> {
        if let Some(handle) = self.handle.take() {
            handle
                .join()
                .map_err(|_| "learning thread panicked".to_string())?;
        }
        let mut outcome = self.state.outcome.lock().expect("job state lock poisoned");
        match outcome.take() {
            Some((Ok((full, _)), _)) => Ok(full),
            Some((Err(error), _)) => Err(error),
            None => Err("learning thread exited without a result".to_string()),
        }
    }

    /// A job that is already terminal with `error` — what spawners return
    /// when the oracle cannot even be constructed or the job's thread
    /// cannot start.
    fn failed(error: String) -> LearnJob {
        LearnJob {
            state: Arc::new(JobState {
                started: Instant::now(),
                progress: Arc::new(LearnProgress::new()),
                store: None,
                outcome: Mutex::new(Some((Err(error), Duration::ZERO))),
            }),
            handle: None,
        }
    }
}

/// Spawns a background job learning the policy of an arbitrary cache oracle
/// (the asynchronous form of [`learn_policy`]).
///
/// After a successful run the learned machine is matched against
/// `candidates` with [`identify_policy`](crate::identify_policy), so the
/// reported [`JobResult::identified`] confirms (or refutes) what was
/// learned.  For engine-backed oracles, pass the campaign's
/// [`StoreSpace`] as `store` so running status lines can report the
/// namespace's live hit rate.
///
/// # Errors
///
/// Returns the error of starting the job's thread (the process is out of
/// threads or memory).
pub fn spawn_learn_job<C>(
    cache: C,
    candidates: Vec<PolicyKind>,
    setup: LearnSetup,
    store: Option<StoreSpace>,
) -> io::Result<LearnJob>
where
    C: CacheOracle + Clone + Send + 'static,
{
    let builder = thread::Builder::new().name(format!("learn-{}", cache.associativity()));
    spawn_learn_job_on(builder, cache, candidates, setup, store)
}

/// [`spawn_learn_job`] on a thread made by `builder`, which sets its name
/// and stack size.
///
/// # Errors
///
/// Returns the error of `builder`'s spawn.
pub fn spawn_learn_job_on<C>(
    builder: thread::Builder,
    cache: C,
    candidates: Vec<PolicyKind>,
    setup: LearnSetup,
    store: Option<StoreSpace>,
) -> io::Result<LearnJob>
where
    C: CacheOracle + Clone + Send + 'static,
{
    let progress = setup
        .progress
        .clone()
        .unwrap_or_else(|| Arc::new(LearnProgress::new()));
    let setup = LearnSetup {
        progress: Some(Arc::clone(&progress)),
        ..setup
    };
    let state = Arc::new(JobState {
        started: Instant::now(),
        progress,
        store,
        outcome: Mutex::new(None),
    });
    let associativity = cache.associativity();
    let thread_state = Arc::clone(&state);
    let recorder = setup.recorder.clone();
    let handle = builder.spawn(move || {
        let result = learn_policy(cache, &setup)
            .map(|outcome| {
                let identify_span = obs::maybe_span(recorder.as_deref(), "polca.identify");
                let identified =
                    crate::identify_policy(&outcome.machine, associativity, &candidates)
                        .map(|(found, _)| found.to_string());
                drop(identify_span);
                let summary = JobResult {
                    states: outcome.machine.num_states(),
                    membership_queries: outcome.stats.membership_queries,
                    cache_hit_rate: outcome.stats.cache_hit_rate(),
                    identified,
                    profile: outcome.profile.clone(),
                };
                (outcome, summary)
            })
            .map_err(|e| e.to_string());
        let elapsed = thread_state.started.elapsed();
        *thread_state
            .outcome
            .lock()
            .expect("job state lock poisoned") = Some((result, elapsed));
    })?;
    Ok(LearnJob {
        state,
        handle: Some(handle),
    })
}

/// Spawns a background job learning `kind` at `associativity` from a
/// noiseless simulated cache (the asynchronous form of
/// [`learn_simulated_policy`](crate::learn_simulated_policy)).
pub fn spawn_simulated_learn_job(
    kind: PolicyKind,
    associativity: usize,
    setup: LearnSetup,
) -> LearnJob {
    match SimulatedCacheOracle::new(kind, associativity) {
        Ok(cache) => spawn_learn_job(cache, vec![kind], setup, None)
            .unwrap_or_else(|e| LearnJob::failed(format!("cannot start a learning job: {e}"))),
        Err(e) => LearnJob::failed(e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim_backend::PolicySimBackend;
    use crate::CacheQueryOracle;
    use cachequery::QueryEngine;

    #[test]
    fn jobs_run_to_completion_and_identify() {
        let job = spawn_simulated_learn_job(PolicyKind::Fifo, 2, LearnSetup::default());
        // Status polling is non-destructive while the job runs or after it
        // finished.
        let _ = job.status();
        let outcome = job.join().unwrap();
        assert_eq!(outcome.machine.num_states(), 2);
    }

    #[test]
    fn finished_jobs_report_done_with_a_summary() {
        let job = spawn_simulated_learn_job(PolicyKind::Lru, 2, LearnSetup::default());
        // Wait for the terminal state via polling (exercises the status path).
        loop {
            let status = job.status();
            if status.is_terminal() {
                match status {
                    JobStatus::Done { result, .. } => {
                        assert_eq!(result.states, 2);
                        assert!(result.membership_queries > 0);
                        assert_eq!(result.identified.as_deref(), Some("LRU"));
                        assert_eq!(
                            result.profile.total_queries(),
                            result.membership_queries,
                            "the campaign profile partitions the run exactly"
                        );
                    }
                    other => panic!("unexpected terminal status: {other:?}"),
                }
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        // The machine stays retrievable (non-destructively) after completion.
        let machine = job.machine().expect("done jobs expose their machine");
        assert_eq!(machine.num_states(), 2);
        assert!(
            job.machine().is_some(),
            "machine() must not consume the job"
        );
    }

    #[test]
    fn failed_jobs_expose_no_machine() {
        let job = spawn_simulated_learn_job(PolicyKind::Plru, 3, LearnSetup::default());
        assert!(job.status().is_terminal());
        assert!(job.machine().is_none());
    }

    #[test]
    fn failing_jobs_report_the_error() {
        let setup = LearnSetup {
            max_states: 2,
            ..LearnSetup::default()
        };
        let job = spawn_simulated_learn_job(PolicyKind::Lru, 4, setup);
        let error = job.join().unwrap_err();
        assert!(error.contains("state"), "unexpected error: {error}");
    }

    #[test]
    fn a_job_thread_that_cannot_start_is_an_error() {
        let cache = SimulatedCacheOracle::new(PolicyKind::Lru, 2).unwrap();
        // No stack this large can be mapped, so the spawn fails at once
        // without starting a thread.
        let builder = thread::Builder::new().stack_size(1 << 60);
        let spawned = spawn_learn_job_on(
            builder,
            cache,
            vec![PolicyKind::Lru],
            LearnSetup::default(),
            None,
        );
        assert!(spawned.is_err());
    }

    #[test]
    fn unsupported_associativities_fail_immediately() {
        let job = spawn_simulated_learn_job(PolicyKind::Plru, 3, LearnSetup::default());
        assert!(job.status().is_terminal());
        assert!(job.join().is_err());
    }

    #[test]
    fn engine_backed_jobs_report_progress_and_store_hit_rate() {
        let engine = QueryEngine::new(PolicySimBackend::new(PolicyKind::Lru, 2).unwrap());
        let store = engine
            .store()
            .space(&PolicySimBackend::config_for(PolicyKind::Lru, 2).to_string());
        let oracle = CacheQueryOracle::from_engine(engine).unwrap();
        let job = spawn_learn_job(
            oracle,
            vec![PolicyKind::Lru],
            LearnSetup::default(),
            Some(store.clone()),
        )
        .unwrap();
        let outcome = job.join().unwrap();
        assert_eq!(outcome.machine.num_states(), 2);
        // The campaign filled the engine's store namespace, and the replayed
        // probe sessions hit it heavily.
        assert!(store.entries() > 0);
        assert!(store.hit_rate() > 0.0);
    }
}
