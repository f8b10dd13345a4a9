//! `learn_direct`: the pinned Table 2 sweep (ways ≤ 4) plus New1/4 and
//! New2/4 through `polca::learn_simulated_policy`, sequentially in this
//! process.  The learner, Polca and the simulators do all the work; the
//! engine, store, disk and wire do none.

use std::sync::Arc;
use std::time::Instant;

use learning::MembershipOracle;
use polca::{learn_simulated_policy, PolcaOracle, SimulatedCacheOracle};
use policies::{policy_alphabet, PolicyKind};

use crate::layers::{campaign_metrics, traced_campaign, Ledger};
use crate::{
    child, closed_loop, gen, ground_truth, learn_setup, median, peak_rss_mb, pool_latencies, Args,
    Campaign, Report, Samples, SWEEP,
};

/// Probe processes per run: each measures the fixed cost of a campaign and
/// a `1/PROBES` slice of the query phase; the end-to-end figures are the
/// medians over the probes.
const PROBES: usize = 9;
/// Untimed and timed campaigns of the fixed-cost measurement.
const SETUP_WARMUP: usize = 5;
const SETUP_REPS: usize = 51;
/// The policy the query phase asks membership queries of.
const QUERY_KIND: PolicyKind = PolicyKind::New2;
/// Passes of the sweep: `learn_s` is the first in the fresh process,
/// `warm_learn_s` the median of the others.
const PASSES: usize = 2;

/// Counts of one learned campaign, for pin and trace comparisons.
#[derive(Debug, PartialEq, Eq)]
struct Counts {
    states: usize,
    mq: u64,
    probes: u64,
    block_accesses: u64,
}

/// Learns one pinned campaign, checking its pin; returns its wall time and
/// counts.
fn campaign(report: &mut Report, (kind, assoc, states, mq): Campaign) -> (f64, Option<Counts>) {
    let started = Instant::now();
    let outcome = learn_simulated_policy(kind, assoc, &learn_setup());
    let elapsed = started.elapsed().as_secs_f64();
    let counts = match outcome {
        Ok(outcome) => Counts {
            states: outcome.machine.num_states(),
            mq: outcome.stats.membership_queries,
            probes: outcome.cache_probes,
            block_accesses: outcome.block_accesses,
        },
        Err(e) => {
            report.fail(format!("{kind}@{assoc}: {e}"));
            return (elapsed, None);
        }
    };
    report.check(counts.states == states && counts.mq == mq, || {
        format!(
            "{kind}@{assoc}: {}/{} (pinned {states}/{mq})",
            counts.states, counts.mq
        )
    });
    (elapsed, Some(counts))
}

/// Learns the whole sweep once, calling `between` after each campaign;
/// returns the campaigns' total wall time (the calls to `between`
/// excluded).
fn sweep(report: &mut Report, between: &mut dyn FnMut(&mut Report)) -> f64 {
    let mut elapsed = 0.0;
    for pinned in SWEEP {
        elapsed += campaign(report, pinned).0;
        between(report);
    }
    elapsed
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    if args.trace {
        return traced(report);
    }
    if args.phase.as_deref() == Some("probe") {
        return probe(args, report);
    }

    // Probe processes run between campaigns, spread over the run, so their
    // samples see the machine over the whole run rather than over one
    // stretch of it, each on a fresh heap.
    let calls = PASSES * SWEEP.len();
    let mut samples = Samples::default();
    let mut call = 0;
    let mut failure = None;
    let mut between = |report: &mut Report| {
        call += 1;
        if call * PROBES / calls != (call - 1) * PROBES / calls {
            match child(args, "probe", None) {
                Ok(part) => samples.absorb(report, part),
                Err(e) => failure = Some(e),
            }
        }
    };
    let mut passes = Vec::with_capacity(PASSES);
    for _ in 0..PASSES {
        passes.push(sweep(&mut report, &mut between));
    }
    if let Some(e) = failure {
        return Err(e);
    }
    report.set("learn_s", passes[0]);
    samples.add("warm_learn_s", median(&passes[1..]));
    // A probe's set-up figure is the median of set-ups a millisecond long,
    // each seeing the host in one of its speed states; the mean over the
    // probes follows the share of the run spent in each state, where their
    // median would flip between the two.
    if let Some(setup) = samples.take_mean("setup_s") {
        report.set("setup_s", setup);
    }
    samples.add("peak_rss_mb", peak_rss_mb());
    samples.report_into(&mut report);
    Ok(report)
}

/// One probe process: the fixed cost of a campaign, then a slice of the
/// query phase — seeded membership queries straight into the direct oracle
/// stack the campaigns use, checked against the policy's ground-truth
/// automaton.
fn probe(args: &Args, mut report: Report) -> Result<Report, String> {
    let cost = campaign_fixed_cost(&mut report);
    report.set("setup_s", cost);
    let truth = ground_truth(QUERY_KIND, 4)?;
    let alphabet = policy_alphabet(4);
    let mut oracle =
        PolcaOracle::new(SimulatedCacheOracle::new(QUERY_KIND, 4).map_err(|e| e.to_string())?);
    let client = closed_loop(
        args.seconds / PROBES as f64,
        |i| gen::word(args.seed, i, &alphabet, 8, 32),
        |word| oracle.query(word),
        |i, word, answer| {
            let ok = answer.is_ok_and(|a| a == truth.output_word(word.iter()));
            report.check(ok, || format!("membership query {i} disagrees with New2/4"));
        },
    );
    pool_latencies(&mut report, vec![client]);
    Ok(report)
}

/// Median wall time of the smallest campaign (LRU@2, 43 MQ), whose cost is
/// almost all per-campaign set-up, after a few untimed warm-up campaigns.
fn campaign_fixed_cost(report: &mut Report) -> f64 {
    let setup = learn_setup();
    let mut samples = Vec::with_capacity(SETUP_REPS);
    for rep in 0..SETUP_WARMUP + SETUP_REPS {
        let started = Instant::now();
        let outcome = learn_simulated_policy(PolicyKind::Lru, 2, &setup);
        if rep >= SETUP_WARMUP {
            samples.push(started.elapsed().as_secs_f64());
        }
        let ok = outcome.is_ok_and(|o| o.machine.num_states() == 2);
        report.check(ok, || "LRU@2 did not learn 2 states".to_string());
    }
    median(&samples)
}

/// The traced run: each campaign of the sweep untraced, for reference, then
/// composed exactly as `polca::learn_policy` composes it with every boundary
/// decorated.  Alternating per campaign keeps a drift of the machine's speed
/// out of the overhead estimate.
fn traced(mut report: Report) -> Result<Report, String> {
    let ledger = Arc::new(Ledger::default());
    let mut campaigns = Vec::new();
    let mut untraced_s = 0.0;
    let mut mismatches = Vec::new();
    for pinned in SWEEP {
        let (kind, assoc, _, _) = pinned;
        let (elapsed, untraced) = campaign(&mut report, pinned);
        untraced_s += elapsed;
        let cache = SimulatedCacheOracle::new(kind, assoc).map_err(|e| e.to_string())?;
        let traced = traced_campaign(cache, false, &ledger)
            .map_err(|e| format!("traced {kind}@{assoc}: {e}"))?;
        let counts = Counts {
            states: traced.machine.num_states(),
            mq: traced.stats.membership_queries,
            probes: traced.probes,
            block_accesses: traced.block_accesses,
        };
        if untraced.as_ref() != Some(&counts) {
            mismatches.push(format!(
                "{kind}@{assoc}: traced {counts:?}, untraced {untraced:?}"
            ));
        }
        campaigns.push(traced);
    }
    let matched = mismatches.is_empty();
    report.check(matched, || mismatches.join("; "));
    campaign_metrics(&mut report, &ledger, &campaigns);
    let traced_s = report.get("trace.root_s");
    report.set("trace.overhead_share", (traced_s - untraced_s) / untraced_s);
    report.set("trace.counts_match", f64::from(u8::from(matched)));
    Ok(report)
}
