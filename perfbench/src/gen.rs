//! Seeded input generators.  Every input a workload sends is a pure function
//! of the `--seed` argument (plus a client index and a position), so a run
//! can be repeated exactly and two clients never depend on scheduling.

use policies::PolicyInput;

/// SplitMix64 finalizer: a bijective 64-bit mixer, so distinct inputs give
/// distinct outputs.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The `index`-th draw of stream `stream` under `seed`.
pub fn draw(seed: u64, stream: u64, index: u64) -> u64 {
    mix(mix(mix(seed) ^ stream) ^ index)
}

/// The `i`-th expression of the hot pool: the pool `loadgen`'s default query
/// mode draws from (`crates/bench/src/bin/loadgen.rs`, whose baseline is in
/// `BENCH_server.json`), a three-block fill over six blocks followed by a
/// profiled re-access of the first block.
fn hot_expression(i: u64) -> String {
    let name = |n: u64| mbl::block_name(mbl::BlockId((n % 6) as u32));
    let (a, b, c) = (i % 6, (i / 6) % 6, (i / 36) % 6);
    format!("{} {} {} {}?", name(a), name(b), name(c), name(a))
}

/// Distinct expressions in the hot pool: `loadgen`'s `--distinct` default.
pub const HOT: usize = 128;
/// Novel requests per thousand.  No recorded `cqd` traffic exists to take a
/// share from: a few percent keeps most requests store hits, as for clients
/// that mostly repeat queries, and being above one percent it makes
/// `p99_us` a miss-path latency (and `p50_us` a hit-path one) by design.
pub const NOVEL_PERMILLE: u64 = 50;
/// Fill length of a novel expression: one Skylake L1 set (eight ways), so a
/// novel query runs as long as a set-filling probe.
const NOVEL_FILL: usize = 8;
/// Blocks a novel fill draws from.
const NOVEL_BLOCKS: u64 = 12;

/// A novel expression: the hot pool's shape — a fill, then a profiled
/// re-access of its first block — with the fill spelt by the `NOVEL_FILL`
/// base-`NOVEL_BLOCKS` digits of `code`.  Distinct codes below 12^8 give
/// distinct expressions, and being longer than any hot expression a novel
/// one is never a prefix of (nor answered by) a hot one.
fn novel_expression(mut code: u64) -> String {
    let mut names = Vec::with_capacity(NOVEL_FILL + 1);
    for _ in 0..NOVEL_FILL {
        names.push(mbl::block_name(mbl::BlockId((code % NOVEL_BLOCKS) as u32)));
        code /= NOVEL_BLOCKS;
    }
    names.push(format!("{}?", names[0]));
    names.join(" ")
}

/// The `serve_mix` request stream: the hot pool every client shares and a
/// per-client stream of novel expressions, mixed at a fixed share.
#[derive(Debug, Clone)]
pub struct ServeStream {
    seed: u64,
    hot: Vec<String>,
}

/// One request of the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeRequest {
    /// An expression of the shared hot pool (its pool index).
    Hot(usize),
    /// A novel expression no other request of the run repeats.
    Novel(String),
}

impl ServeStream {
    pub fn new(seed: u64) -> Self {
        ServeStream {
            seed,
            hot: (0..HOT as u64).map(hot_expression).collect(),
        }
    }

    /// The hot pool.
    pub fn hot(&self) -> &[String] {
        &self.hot
    }

    /// The `index`-th request of client `client`.
    pub fn request(&self, client: u64, index: u64) -> ServeRequest {
        let roll = draw(self.seed, 1 + 2 * client, index);
        if roll % 1000 < NOVEL_PERMILLE {
            // Injective in (client, index) below 12^8 / 2 requests per
            // client, so novel expressions never repeat within a run.
            ServeRequest::Novel(novel_expression(index * 2 + client))
        } else {
            ServeRequest::Hot((roll / 1000 % HOT as u64) as usize)
        }
    }

    /// The MBL text of a request.
    pub fn text<'a>(&'a self, request: &'a ServeRequest) -> &'a str {
        match request {
            ServeRequest::Hot(i) => &self.hot[*i],
            ServeRequest::Novel(text) => text,
        }
    }
}

/// The `index`-th membership-query word over `alphabet`, `min..=max` symbols
/// long.
pub fn word(
    seed: u64,
    index: u64,
    alphabet: &[PolicyInput],
    min: usize,
    max: usize,
) -> Vec<PolicyInput> {
    let head = draw(seed, 100, index);
    let len = min + (head % (max - min + 1) as u64) as usize;
    (0..len as u64)
        .map(|i| alphabet[(draw(seed, 101 + index, i) % alphabet.len() as u64) as usize])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_pure_functions_of_the_seed() {
        let a = ServeStream::new(7);
        let b = ServeStream::new(7);
        assert_eq!(a.hot(), b.hot());
        let requests = |s: &ServeStream| -> Vec<ServeRequest> {
            (0..2)
                .flat_map(|client| (0..2000).map(move |i| (client, i)))
                .map(|(client, i)| s.request(client, i))
                .collect()
        };
        assert_eq!(requests(&a), requests(&b));
        assert_ne!(requests(&a), requests(&ServeStream::new(8)));
    }

    #[test]
    fn the_hot_pool_is_loadgens() {
        let stream = ServeStream::new(3);
        assert_eq!(&stream.hot()[..3], ["A A A A?", "B A A B?", "C A A C?"]);
        let mut pool = stream.hot().to_vec();
        pool.sort();
        pool.dedup();
        assert_eq!(pool.len(), HOT);
        for text in stream.hot() {
            let queries = mbl::expand_query(text, 8).unwrap();
            assert_eq!(queries.len(), 1);
            assert_eq!(queries[0].len(), 4);
        }
    }

    #[test]
    fn novel_requests_never_repeat_and_keep_their_share() {
        let stream = ServeStream::new(11);
        let mut novel = Vec::new();
        let draws = 20_000;
        for client in 0..2 {
            for i in 0..draws {
                if let ServeRequest::Novel(text) = stream.request(client, i) {
                    novel.push(text);
                }
            }
        }
        let share = novel.len() as f64 / (2 * draws) as f64;
        assert!((0.04..0.06).contains(&share), "novel share {share}");
        let count = novel.len();
        novel.sort();
        novel.dedup();
        assert_eq!(novel.len(), count, "a novel expression repeated");
        for text in novel.iter().take(50) {
            let queries = mbl::expand_query(text, 8).unwrap();
            assert_eq!(queries.len(), 1);
            assert_eq!(queries[0].len(), NOVEL_FILL + 1);
            assert!(!stream.hot().contains(text));
        }
    }

    #[test]
    fn words_are_reproducible_and_bounded() {
        let alphabet = policies::policy_alphabet(4);
        for i in 0..500 {
            let w = word(5, i, &alphabet, 8, 32);
            assert_eq!(w, word(5, i, &alphabet, 8, 32));
            assert!((8..=32).contains(&w.len()));
        }
        assert_ne!(word(5, 0, &alphabet, 8, 32), word(6, 0, &alphabet, 8, 32));
    }
}
