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
//!
//! A concrete query's rendered form (blocks separated by single spaces,
//! tags attached) is also what the durable query store writes;
//! [`parse_rendered`] reads it back without the general parser.

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

/// Parses a query rendered by [`render_query_into`] back into `query`,
/// replacing its contents: the exact inverse of rendering, without the
/// general lexer, parser and expander.
///
/// The rendered form is one or more tokens separated by single spaces, each
/// an uppercase block name (at most `MWLQKWV`, the last `u32` block) with an
/// optional `?` or `!`.  Everything else is an error, even where
/// [`expand_query`] would accept it: the empty string, leading, trailing or
/// doubled spaces, other whitespace, macros, groups, sets, powers, lowercase
/// names and doubled tags.
///
/// # Errors
///
/// Returns a [`ParseError`] at the first byte outside the rendered form;
/// `query` then holds the operations before it.
///
/// # Example
///
/// ```
/// use mbl::{parse_rendered, render_query, MemOp, BlockId};
///
/// let mut query = Vec::new();
/// parse_rendered("A B? AA!", &mut query).unwrap();
/// assert_eq!(query[2], MemOp::invalidate(BlockId(26)));
/// assert_eq!(render_query(&query), "A B? AA!");
/// assert!(parse_rendered("A  B", &mut query).is_err());
/// ```
pub fn parse_rendered(text: &str, query: &mut Query) -> Result<(), ParseError> {
    query.clear();
    let bytes = text.as_bytes();
    let mut start = 0;
    loop {
        let Some((block, len)) = ast::read_block_name(&bytes[start..]) else {
            return Err(rendered_error(start, "a block name from A to MWLQKWV"));
        };
        let name_end = start + len;
        let (tag, end) = match bytes.get(name_end) {
            Some(b'?') => (Some(Tag::Profile), name_end + 1),
            Some(b'!') => (Some(Tag::Invalidate), name_end + 1),
            _ => (None, name_end),
        };
        query.push(MemOp { block, tag });
        match bytes.get(end) {
            None => return Ok(()),
            Some(b' ') => start = end + 1,
            Some(_) => return Err(rendered_error(end, "one space or the end of the query")),
        }
    }
}

/// The error of [`parse_rendered`] at byte `position`.
#[cold]
fn rendered_error(position: usize, expected: &str) -> ParseError {
    ParseError {
        position,
        message: format!("not a rendered query: expected {expected}"),
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

    #[test]
    fn rendered_queries_parse_back_exactly() {
        let mut query = vec![MemOp::access(BlockId(9))];
        for text in ["A", "A? B! C", "MWLQKWV? AA ZZ!", "X A B C D X A?"] {
            parse_rendered(text, &mut query).unwrap();
            assert_eq!(render_query(&query), text);
            assert_eq!(expand_query(text, 1).unwrap(), vec![query.clone()]);
        }
    }

    #[test]
    fn anything_but_the_rendered_form_is_rejected() {
        let mut query = Vec::new();
        for (text, position) in [
            ("", 0),
            (" A", 0),
            ("A ", 2),
            ("A  B", 2),
            ("A\tB", 1),
            ("(A B)", 0),
            ("{A}", 0),
            ("(A)2", 0),
            ("A??", 2),
            ("A?!", 2),
            ("a", 0),
            ("MWLQKWW", 0),
            ("@", 0),
            ("_", 0),
            ("A B∘C", 3),
            ("A B2", 3),
        ] {
            let error = parse_rendered(text, &mut query).unwrap_err();
            assert_eq!(error.position, position, "{text:?}: {error}");
        }
    }
}
