//! MemBlockLang (MBL): the query language of CacheQuery.
//!
//! MBL (§4.1 and Appendix A of the paper) describes *sets of queries*, where a
//! query is a sequence of memory operations on abstract blocks.  Blocks come
//! from an ordered alphabet `A, B, C, …`; each operation may carry a tag:
//! `?` asks the backend to profile the access (report hit or miss) and `!`
//! asks it to invalidate the block (`clflush`) instead of loading it.
//!
//! The macros make common patterns short:
//!
//! | syntax | meaning |
//! |--------|---------|
//! | `@` | one query consisting of associativity-many distinct blocks in order |
//! | `_` | associativity-many queries of one (distinct) block each |
//! | `e1 e2` or `e1 ∘ e2` | concatenate every query of `e1` with every query of `e2` |
//! | `e1[e2]` | extend every query of `e1` with each block occurring in `e2` |
//! | `(e)k` | repeat `e` k times |
//! | `(e)?`, `(e)!` | tag every block of `e` |
//! | `{e1, e2, …}` | explicit set of alternatives |
//!
//! # Example
//!
//! ```
//! use mbl::{expand_query, render_query};
//!
//! // Example 4.1 of the paper: for associativity 4, `@ X _?` expands to four
//! // queries "A B C D X A?", …, "A B C D X D?".
//! let queries = expand_query("@ X _?", 4).unwrap();
//! assert_eq!(queries.len(), 4);
//! assert_eq!(render_query(&queries[0]), "A B C D X A?");
//! assert_eq!(render_query(&queries[3]), "A B C D X D?");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod expand;
mod parse;

pub use ast::{block_name, parse_block_name, BlockId, Expr, MemOp, Query, Tag};
pub use expand::{expand, expand_query, ExpandError};
pub use parse::{parse, ParseError};

/// Renders a query back into MBL surface syntax (blocks separated by spaces,
/// tags attached).
pub fn render_query(query: &Query) -> String {
    let mut out = String::with_capacity(3 * query.len());
    render_query_into(&mut out, query);
    out
}

/// Appends `query` rendered as by [`render_query`] to `out`.
pub fn render_query_into(out: &mut String, query: &[MemOp]) {
    for (index, op) in query.iter().enumerate() {
        if index > 0 {
            out.push(' ');
        }
        ast::push_block_name(out, op.block);
        match op.tag {
            Some(Tag::Profile) => out.push('?'),
            Some(Tag::Invalidate) => out.push('!'),
            None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_round_trips_through_parse_and_expand() {
        let queries = expand_query("A B? C!", 4).unwrap();
        assert_eq!(queries.len(), 1);
        assert_eq!(render_query(&queries[0]), "A B? C!");
    }
}
