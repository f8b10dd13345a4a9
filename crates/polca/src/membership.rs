//! Algorithm 1: the membership oracle for replacement policies.

use cache::HitMiss;
use learning::{MembershipOracle, OracleError};
use mbl::BlockId;
use policies::{PolicyInput, PolicyOutput};

use crate::cache_oracle::{CacheOracle, CacheSession};

/// Polca as a [`MembershipOracle`] over the policy alphabet.
///
/// For every policy input the oracle maps the symbol to a concrete memory
/// block (`mapInput`), accesses the block through a probe session, and maps
/// the hit/miss answer back to a policy output (`mapOutput`), using
/// speculative probes to locate the evicted line on a miss (`findEvicted`).
/// The paper's Algorithm 1 *checks* a candidate trace; this implementation
/// *produces* the output word for an input word, which is the form the L*
/// loop needs — the two are equivalent because the policy is deterministic.
///
/// On simulated caches the probe session advances one policy step per input
/// symbol, so a query costs `O(|word| + associativity · #evictions)` block
/// accesses; on hardware (whose sessions must replay, see
/// [`ReplaySession`](crate::ReplaySession)) the same code degenerates to the
/// paper's quadratic probe count.
///
/// `PolcaOracle` is `Clone` whenever its cache oracle is: clones answer from
/// the same fixed initial state, which is what makes a
/// `Fn() -> PolcaOracle<C>` closure an
/// [`OracleFactory`](learning::OracleFactory).
#[derive(Debug, Clone)]
pub struct PolcaOracle<C> {
    cache: C,
    queries: u64,
}

impl<C: CacheOracle> PolcaOracle<C> {
    /// Wraps a cache oracle.
    pub fn new(cache: C) -> Self {
        PolcaOracle { cache, queries: 0 }
    }

    /// The wrapped cache oracle (e.g. for probe statistics).
    pub fn cache(&self) -> &C {
        &self.cache
    }
}

/// `findEvicted` (Algorithm 1): speculatively probes every tracked block and
/// returns the line whose block now misses.
fn find_evicted(session: &mut dyn CacheSession, content: &[BlockId]) -> Result<usize, OracleError> {
    for (line, &block) in content.iter().enumerate() {
        if session.speculate(block)? == HitMiss::Miss {
            return Ok(line);
        }
    }
    Err(OracleError::new(
        "no cached block was evicted by a miss: the cache is not behaving \
         like an associativity-consistent deterministic cache",
    ))
}

impl<C: CacheOracle> MembershipOracle<PolicyInput, PolicyOutput> for PolcaOracle<C> {
    fn query(&mut self, word: &[PolicyInput]) -> Result<Vec<PolicyOutput>, OracleError> {
        self.queries += 1;
        let n = self.cache.associativity();
        // cc0: block i occupies line i (established by the cache oracle's
        // fixed initial state / reset sequence).
        let mut content: Vec<BlockId> = (0..n as u32).map(BlockId).collect();
        // Fresh blocks for eviction requests never collide with cc0.
        let mut next_fresh = n as u32;

        let mut session = self.cache.begin();
        let mut outputs = Vec::with_capacity(word.len());
        for input in word {
            let block = match input {
                PolicyInput::Line(i) => {
                    let i = usize::from(*i);
                    if i >= n {
                        return Err(OracleError::new(format!(
                            "input Ln({i}) is out of range for associativity {n}"
                        )));
                    }
                    content[i]
                }
                PolicyInput::Evct => {
                    let b = BlockId(next_fresh);
                    next_fresh += 1;
                    b
                }
            };
            let outcome = session.access(block)?;
            let output = match (input, outcome) {
                (PolicyInput::Line(_), HitMiss::Hit) => PolicyOutput::None,
                (PolicyInput::Evct, HitMiss::Miss) => {
                    let line = find_evicted(session.as_mut(), &content)?;
                    content[line] = block;
                    PolicyOutput::evicted(line)
                }
                (PolicyInput::Line(i), HitMiss::Miss) => {
                    return Err(OracleError::new(format!(
                        "access to the block tracked in line {i} unexpectedly missed: \
                         the cache state drifted (wrong reset sequence, noise, or an \
                         adaptive policy)"
                    )))
                }
                (PolicyInput::Evct, HitMiss::Hit) => {
                    return Err(OracleError::new(
                        "a fresh block unexpectedly hit the cache: measurement noise or \
                         block aliasing",
                    ))
                }
            };
            outputs.push(output);
        }
        Ok(outputs)
    }

    fn queries_answered(&self) -> u64 {
        self.queries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache_oracle::SimulatedCacheOracle;
    use policies::{policy_to_mealy, PolicyKind};

    fn oracle(kind: PolicyKind, assoc: usize) -> PolcaOracle<SimulatedCacheOracle> {
        PolcaOracle::new(SimulatedCacheOracle::new(kind, assoc).unwrap())
    }

    #[test]
    fn figure_1b_translation() {
        // Figure 1b: the policy trace Ln(0) Ln(1) Evct over a 2-way LRU cache
        // produces ⊥ ⊥ 0 (line 0 holds the least recently used block after
        // touching line 1 last... here: touching 0 then 1 makes line 0 LRU).
        let mut polca = oracle(PolicyKind::Lru, 2);
        let out = polca
            .query(&[
                PolicyInput::Line(0),
                PolicyInput::Line(1),
                PolicyInput::Evct,
            ])
            .unwrap();
        assert_eq!(
            out,
            vec![
                PolicyOutput::None,
                PolicyOutput::None,
                PolicyOutput::Evicted(0)
            ]
        );
    }

    #[test]
    fn outputs_match_the_ground_truth_mealy_machine() {
        // Theorem 3.1 in miniature: Polca's answers coincide with the policy
        // semantics for a batch of words.
        for kind in [
            PolicyKind::Fifo,
            PolicyKind::Lru,
            PolicyKind::Plru,
            PolicyKind::Mru,
            PolicyKind::SrripHp,
            PolicyKind::New1,
            PolicyKind::New2,
        ] {
            let assoc = 4;
            let machine = policy_to_mealy(kind.build(assoc).unwrap().as_ref(), 1 << 16);
            let mut polca = oracle(kind, assoc);
            let words: Vec<Vec<PolicyInput>> = vec![
                vec![PolicyInput::Evct; 6],
                vec![
                    PolicyInput::Line(2),
                    PolicyInput::Evct,
                    PolicyInput::Line(0),
                    PolicyInput::Evct,
                    PolicyInput::Evct,
                ],
                vec![
                    PolicyInput::Line(3),
                    PolicyInput::Line(1),
                    PolicyInput::Line(3),
                    PolicyInput::Evct,
                    PolicyInput::Line(0),
                    PolicyInput::Evct,
                ],
            ];
            for word in words {
                assert_eq!(
                    polca.query(&word).unwrap(),
                    machine.output_word(word.iter()),
                    "mismatch for {kind} on {word:?}"
                );
            }
        }
    }

    #[test]
    fn eviction_requests_use_fresh_blocks() {
        let mut polca = oracle(PolicyKind::Fifo, 2);
        // Repeated evictions cycle through the lines under FIFO.
        let out = polca.query(&[PolicyInput::Evct; 4]).unwrap();
        assert_eq!(
            out,
            vec![
                PolicyOutput::Evicted(0),
                PolicyOutput::Evicted(1),
                PolicyOutput::Evicted(0),
                PolicyOutput::Evicted(1)
            ]
        );
    }

    #[test]
    fn out_of_range_lines_are_rejected() {
        let mut polca = oracle(PolicyKind::Lru, 2);
        assert!(polca.query(&[PolicyInput::Line(2)]).is_err());
    }

    #[test]
    fn probe_counts_grow_linearly_with_word_length() {
        // The incremental session costs one probe per hit and at most
        // `1 + associativity` probes per eviction — not the quadratic replay
        // cost of the paper's hardware path.
        let mut polca = oracle(PolicyKind::Lru, 4);
        polca
            .query(&[PolicyInput::Line(0), PolicyInput::Line(1)])
            .unwrap();
        // Two session steps for two hits, no findEvicted probes.
        assert_eq!(polca.cache().probes(), 2);
        assert_eq!(polca.cache().block_accesses(), 2);
        let mut polca = oracle(PolicyKind::Lru, 4);
        polca.query(&[PolicyInput::Evct]).unwrap();
        // One step for the miss plus one speculation (the LRU victim is line
        // 0, found on the first try).
        assert_eq!(polca.cache().probes(), 2);
    }

    #[test]
    fn cloned_polca_oracles_answer_like_the_original() {
        let mut original = oracle(PolicyKind::New2, 4);
        let mut clone = original.clone();
        let word = vec![
            PolicyInput::Evct,
            PolicyInput::Line(2),
            PolicyInput::Evct,
            PolicyInput::Line(0),
            PolicyInput::Evct,
        ];
        assert_eq!(original.query(&word).unwrap(), clone.query(&word).unwrap());
        assert_eq!(original.queries_answered(), 1);
        assert_eq!(clone.queries_answered(), 1);
    }
}
