//! Expansion of MBL expressions into sets of concrete queries (the semantics
//! of Appendix A).

use std::fmt;

use crate::ast::{block_name, BlockId, Expr, MemOp, Query};
use crate::parse::{parse, ParseError};

/// Error raised while expanding an MBL expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExpandError {
    /// The expression could not be parsed in the first place (only returned
    /// by [`expand_query`]).
    Parse(ParseError),
    /// A tag was applied to an expression that already contains tags, which
    /// Appendix A leaves undefined.
    DoubleTag {
        /// The block that already carried a tag.
        block: String,
    },
    /// The expansion would produce more queries than the given limit
    /// (misuse guard for deeply nested sets/powers).
    TooManyQueries {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// The expansion would produce more memory operations, summed over its
    /// queries, than the given limit (misuse guard for long powers such as
    /// `(A)4294967295`).
    TooManyOps {
        /// The limit that was exceeded.
        limit: usize,
    },
}

impl fmt::Display for ExpandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpandError::Parse(e) => write!(f, "{e}"),
            ExpandError::DoubleTag { block } => {
                write!(f, "block {block} is tagged twice")
            }
            ExpandError::TooManyQueries { limit } => {
                write!(f, "expansion exceeds {limit} queries")
            }
            ExpandError::TooManyOps { limit } => {
                write!(f, "expansion exceeds {limit} memory operations")
            }
        }
    }
}

impl std::error::Error for ExpandError {}

impl From<ParseError> for ExpandError {
    fn from(e: ParseError) -> Self {
        ExpandError::Parse(e)
    }
}

/// Upper bound on the number of queries a single expansion may produce.
const MAX_QUERIES: usize = 1 << 16;

/// Upper bound on the number of memory operations, summed over all its
/// queries, that a single expansion may produce (32 MiB of [`MemOp`]s).
const MAX_OPS: usize = 1 << 22;

/// Expands an already-parsed expression for a cache of the given
/// associativity.
///
/// # Errors
///
/// See [`ExpandError`].
pub fn expand(expr: &Expr, associativity: usize) -> Result<Vec<Query>, ExpandError> {
    let queries = expand_inner(expr, associativity)?;
    Ok(queries)
}

/// Parses and expands an MBL expression in one step.
///
/// # Errors
///
/// See [`ExpandError`].
pub fn expand_query(input: &str, associativity: usize) -> Result<Vec<Query>, ExpandError> {
    let expr = parse(input)?;
    expand(&expr, associativity)
}

/// Fails if a result of `len` queries holding `ops` operations in total
/// would exceed the size limits; called before the result is built.
fn guard(len: usize, ops: usize) -> Result<(), ExpandError> {
    if len > MAX_QUERIES {
        Err(ExpandError::TooManyQueries { limit: MAX_QUERIES })
    } else if ops > MAX_OPS {
        Err(ExpandError::TooManyOps { limit: MAX_OPS })
    } else {
        Ok(())
    }
}

/// The number of memory operations in `queries`.
fn ops(queries: &[Query]) -> usize {
    queries.iter().map(Vec::len).sum()
}

/// Concatenates every query of `prefixes` with every query of `suffixes`,
/// prefix-major.  A single suffix is appended to each prefix in place, so a
/// long chain of single-alternative parts costs time linear in its length;
/// a result over the size limits fails before anything is extended or
/// allocated.
fn cross(mut prefixes: Vec<Query>, suffixes: &[Query]) -> Result<Vec<Query>, ExpandError> {
    let total = ops(&prefixes)
        .saturating_mul(suffixes.len())
        .saturating_add(ops(suffixes).saturating_mul(prefixes.len()));
    guard(prefixes.len().saturating_mul(suffixes.len()), total)?;
    if let [suffix] = suffixes {
        for query in &mut prefixes {
            query.extend_from_slice(suffix);
        }
        return Ok(prefixes);
    }
    let mut next = Vec::with_capacity(prefixes.len() * suffixes.len());
    for prefix in &prefixes {
        for suffix in suffixes {
            let mut query = Vec::with_capacity(prefix.len() + suffix.len());
            query.extend_from_slice(prefix);
            query.extend_from_slice(suffix);
            next.push(query);
        }
    }
    Ok(next)
}

fn expand_inner(expr: &Expr, assoc: usize) -> Result<Vec<Query>, ExpandError> {
    match expr {
        Expr::Block(b, tag) => Ok(vec![vec![MemOp {
            block: *b,
            tag: *tag,
        }]]),
        Expr::Expand => Ok(vec![(0..assoc as u32)
            .map(|i| MemOp::access(BlockId(i)))
            .collect()]),
        Expr::Wildcard => Ok((0..assoc as u32)
            .map(|i| vec![MemOp::access(BlockId(i))])
            .collect()),
        Expr::Concat(parts) => {
            // Exact for the commonest concatenation, blocks only.
            let mut result: Vec<Query> = vec![Vec::with_capacity(parts.len())];
            for part in parts {
                if let Expr::Block(block, tag) = *part {
                    // The commonest part needs no expansion of its own.
                    guard(result.len(), ops(&result).saturating_add(result.len()))?;
                    for query in &mut result {
                        query.push(MemOp { block, tag });
                    }
                    continue;
                }
                result = cross(result, &expand_inner(part, assoc)?)?;
            }
            Ok(result)
        }
        Expr::Set(alternatives) => {
            let mut result = Vec::new();
            let mut total = 0;
            for alt in alternatives {
                let queries = expand_inner(alt, assoc)?;
                total += ops(&queries);
                guard(result.len() + queries.len(), total)?;
                result.extend(queries);
            }
            Ok(result)
        }
        Expr::Extension(base, ext) => {
            let bases = expand_inner(base, assoc)?;
            let exts = expand_inner(ext, assoc)?;
            // Collect the distinct blocks occurring anywhere in the extension
            // expansion, in order of first occurrence (Appendix A: s1[s2]
            // extends each query of s1 with each element of s2).
            let mut blocks: Vec<MemOp> = Vec::new();
            for q in &exts {
                for op in q {
                    if !blocks.iter().any(|b| b.block == op.block) {
                        blocks.push(*op);
                    }
                }
            }
            guard(
                bases.len().saturating_mul(blocks.len()),
                (ops(&bases) + bases.len()).saturating_mul(blocks.len()),
            )?;
            let mut result = Vec::with_capacity(bases.len() * blocks.len());
            for base_query in &bases {
                for op in &blocks {
                    let mut q = base_query.clone();
                    q.push(*op);
                    result.push(q);
                }
            }
            Ok(result)
        }
        Expr::Power(base, k) => {
            let bases = expand_inner(base, assoc)?;
            // Every round after the first adds an operation to each query or
            // doubles their number, unless `bases` is no query or one empty
            // one: then the first round already gives the answer.
            let rounds = if bases.len() <= 1 && ops(&bases) == 0 {
                (*k).min(1)
            } else {
                *k
            };
            let mut result: Vec<Query> = vec![Vec::new()];
            for _ in 0..rounds {
                result = cross(result, &bases)?;
            }
            Ok(result)
        }
        Expr::Tagged(inner, tag) => {
            let queries = expand_inner(inner, assoc)?;
            queries
                .into_iter()
                .map(|q| {
                    q.into_iter()
                        .map(|op| {
                            if op.tag.is_some() {
                                Err(ExpandError::DoubleTag {
                                    block: block_name(op.block),
                                })
                            } else {
                                Ok(MemOp {
                                    block: op.block,
                                    tag: Some(*tag),
                                })
                            }
                        })
                        .collect::<Result<Query, _>>()
                })
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render_query;

    fn rendered(input: &str, assoc: usize) -> Vec<String> {
        expand_query(input, assoc)
            .unwrap()
            .iter()
            .map(render_query)
            .collect()
    }

    #[test]
    fn at_macro_expands_to_associativity_blocks() {
        assert_eq!(rendered("@", 8), vec!["A B C D E F G H"]);
        assert_eq!(rendered("@", 2), vec!["A B"]);
    }

    #[test]
    fn wildcard_expands_to_one_query_per_block() {
        assert_eq!(rendered("_", 4), vec!["A", "B", "C", "D"]);
    }

    #[test]
    fn concatenation_is_a_cross_product() {
        // (A B C D) ∘ (E F) from §4.1.
        assert_eq!(rendered("(A B C D) (E F)", 8), vec!["A B C D E F"]);
        // Cross product when both sides are sets.
        assert_eq!(
            rendered("{A, B} {C, D}", 8),
            vec!["A C", "A D", "B C", "B D"]
        );
    }

    #[test]
    fn extension_macro_matches_the_paper_example() {
        // (A B C D)[E F] = {A B C D E, A B C D F}.
        assert_eq!(
            rendered("(A B C D)[E F]", 8),
            vec!["A B C D E", "A B C D F"]
        );
    }

    #[test]
    fn power_repeats_queries() {
        // (A B C)^3 from §4.1.
        assert_eq!(rendered("(A B C)3", 8), vec!["A B C A B C A B C"]);
    }

    #[test]
    fn tag_distribution_applies_to_every_block() {
        assert_eq!(rendered("(A B)?", 8), vec!["A? B?"]);
        assert_eq!(rendered("(A B)!", 8), vec!["A! B!"]);
    }

    #[test]
    fn example_4_1_full_expansion() {
        // '@ X _?' at associativity 4.
        assert_eq!(
            rendered("@ X _?", 4),
            vec![
                "A B C D X A?",
                "A B C D X B?",
                "A B C D X C?",
                "A B C D X D?"
            ]
        );
    }

    #[test]
    fn thrashing_query_from_appendix_b() {
        // '@ M a M?'-style queries: the paper uses `@ M A M?` shapes to test
        // thrash behaviour; check a related form expands as expected.
        assert_eq!(rendered("@ M A M?", 4), vec!["A B C D M A M?"]);
    }

    #[test]
    fn double_tagging_is_rejected() {
        assert!(matches!(
            expand_query("(A? B)?", 4),
            Err(ExpandError::DoubleTag { .. })
        ));
    }

    #[test]
    fn expansion_size_is_bounded() {
        // 16 alternatives raised to the 8th power would be 4 billion queries.
        assert!(matches!(
            expand_query("(_)8", 16),
            Err(ExpandError::TooManyQueries { .. })
        ));
    }

    #[test]
    fn expansion_length_is_bounded() {
        // One query of 2^32 - 1 operations would take 32 GiB.
        assert_eq!(
            expand_query("(A)4294967295", 4),
            Err(ExpandError::TooManyOps { limit: MAX_OPS })
        );
        // 65,536 queries of 16 operations, then one more block each per part.
        let text = format!("({{A, B}})16{}", " C".repeat(64));
        assert_eq!(
            expand_query(&text, 4),
            Err(ExpandError::TooManyOps { limit: MAX_OPS })
        );
        assert_eq!(
            expand_query(&format!("{{{}}}", vec!["(A)70000"; 64].join(", ")), 4),
            Err(ExpandError::TooManyOps { limit: MAX_OPS })
        );
        // Powers of nothing stop after one round.
        assert_eq!(rendered("((A)0)4294967295 B", 4), vec!["B"]);
    }

    #[test]
    fn parse_errors_are_propagated() {
        assert!(matches!(expand_query("(", 4), Err(ExpandError::Parse(_))));
    }

    #[test]
    fn mixed_concatenations_keep_their_queries_and_order() {
        assert_eq!(
            rendered("A @ {B, C AA}? _ (E)2 ZZ!", 2),
            vec![
                "A A B B? A E E ZZ!",
                "A A B B? B E E ZZ!",
                "A A B C? AA? A E E ZZ!",
                "A A B C? AA? B E E ZZ!",
            ]
        );
    }

    #[test]
    fn long_concatenations_expand_in_linear_time() {
        // Copying every prefix once per part made this quadratic: about a
        // minute of CPU for one request line under the daemon's 1 MiB cap.
        let blocks = 500_000;
        let text = (0..blocks)
            .map(|i| block_name(BlockId(i % 30)))
            .collect::<Vec<_>>()
            .join(" ");
        let queries = expand_query(&text, 4).unwrap();
        assert_eq!(queries.len(), 1);
        assert_eq!(queries[0].len(), blocks as usize);
        assert_eq!(
            queries[0][blocks as usize - 1].block,
            BlockId((blocks - 1) % 30)
        );
    }

    #[test]
    fn power_of_a_set_enumerates_combinations() {
        // ({A, B})2 = {AA, AB, BA, BB}.
        assert_eq!(rendered("({A, B})2", 4), vec!["A A", "A B", "B A", "B B"]);
    }
}
