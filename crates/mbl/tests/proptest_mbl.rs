//! Property-based tests for MemBlockLang expansion (Appendix A laws).

use mbl::{
    block_name, expand_query, parse_block_name, parse_rendered, render_query, BlockId, MemOp,
    Query, Tag,
};
use proptest::prelude::*;
use proptest::sample::select;

/// A strategy for small, well-formed MBL expressions rendered as strings:
/// one- and multi-letter block names (up to the last `u32` block), tags,
/// the two macros and `{…}` sets of tagged block sequences.
fn mbl_expression() -> impl Strategy<Value = String> {
    let block = prop_oneof![0u32..6, 26u32..=u32::MAX].prop_map(|b| block_name(BlockId(b)));
    let tagged = (block, prop_oneof![Just(""), Just("?"), Just("!")])
        .prop_map(|(block, tag)| format!("{block}{tag}"));
    let alternative =
        proptest::collection::vec(tagged.clone(), 1..3).prop_map(|blocks| blocks.join(" "));
    let set = proptest::collection::vec(alternative, 1..4)
        .prop_map(|alternatives| format!("{{{}}}", alternatives.join(", ")));
    let atom = prop_oneof![tagged, Just("@".to_string()), Just("_".to_string()), set,];
    proptest::collection::vec(atom, 1..6).prop_map(|parts| parts.join(" "))
}

/// A strategy for concrete queries: blocks over all of `u32` (with short
/// names favoured) and every tag.
fn concrete_query() -> impl Strategy<Value = Query> {
    let block = prop_oneof![0u32..30, 0u32..=u32::MAX].prop_map(BlockId);
    let tag = select(vec![None, Some(Tag::Profile), Some(Tag::Invalidate)]);
    proptest::collection::vec(
        (block, tag).prop_map(|(block, tag)| MemOp { block, tag }),
        1..12,
    )
}

/// A strategy for strings near the rendered form: tokens that mostly are
/// block names with a tag, mostly joined by one space, with other MBL,
/// doubled tags and other gaps mixed in.
fn near_rendered() -> impl Strategy<Value = String> {
    let valid_name = select(vec!["A", "Z", "AB", "MWLQKWV"]);
    let other_name = select(vec!["MWLQKWW", "a", "@", "(A)2", "{A, B}", ""]);
    let name = prop_oneof![
        valid_name.clone(),
        valid_name.clone(),
        valid_name,
        other_name
    ];
    let tag = select(vec!["", "?", "!", "", "?", "?!"]);
    let gap = select(vec![" ", " ", " ", " ", "", "  ", "\t"]);
    proptest::collection::vec((gap, name, tag), 1..5).prop_map(|tokens| {
        let mut text = String::new();
        for (index, (gap, name, tag)) in tokens.into_iter().enumerate() {
            if index > 0 {
                text.push_str(gap);
            }
            text.push_str(name);
            text.push_str(tag);
        }
        text
    })
}

proptest! {
    /// Block naming is a bijection between indices and spreadsheet-style
    /// names.
    #[test]
    fn block_names_round_trip(id in 0u32..=u32::MAX) {
        let name = block_name(BlockId(id));
        prop_assert_eq!(parse_block_name(&name), Some(BlockId(id)));
        prop_assert!(name.bytes().all(|b| b.is_ascii_uppercase()));
    }

    /// Every well-formed expression expands, and rendering each expanded
    /// query re-parses and re-expands to exactly itself (idempotence of the
    /// concrete query syntax).
    #[test]
    fn expansion_is_idempotent_on_concrete_queries(expr in mbl_expression(), assoc in 1usize..9) {
        let queries = expand_query(&expr, assoc).expect("well-formed expressions expand");
        prop_assert!(!queries.is_empty());
        for query in &queries {
            let rendered = render_query(query);
            let again = expand_query(&rendered, assoc).expect("rendered queries re-parse");
            prop_assert_eq!(again.len(), 1);
            prop_assert_eq!(&again[0], query);
        }
    }

    /// Concatenation multiplies cardinalities: |e1 e2| = |e1| * |e2| for
    /// tag-free expressions.
    #[test]
    fn concatenation_multiplies_cardinalities(
        left in prop_oneof![Just("@"), Just("_"), Just("A"), Just("{A, B}")],
        right in prop_oneof![Just("@"), Just("_"), Just("B"), Just("{C, D E}")],
        assoc in 1usize..6,
    ) {
        let combined = format!("{left} {right}");
        let l = expand_query(left, assoc).unwrap().len();
        let r = expand_query(right, assoc).unwrap().len();
        let c = expand_query(&combined, assoc).unwrap().len();
        prop_assert_eq!(c, l * r);
    }

    /// The power operator multiplies query lengths accordingly:
    /// every query of (e)^k has length k * (length of the repeated query).
    #[test]
    fn power_scales_query_length(k in 1u32..5, assoc in 1usize..6) {
        let base = expand_query("(A B C)", assoc).unwrap();
        let powered = expand_query(&format!("(A B C){k}"), assoc).unwrap();
        prop_assert_eq!(powered.len(), base.len());
        for q in &powered {
            prop_assert_eq!(q.len(), 3 * k as usize);
        }
    }

    /// The `@` and `_` macros always reflect the associativity.
    #[test]
    fn macros_track_associativity(assoc in 1usize..12) {
        let at = expand_query("@", assoc).unwrap();
        prop_assert_eq!(at.len(), 1);
        prop_assert_eq!(at[0].len(), assoc);
        let wild = expand_query("_", assoc).unwrap();
        prop_assert_eq!(wild.len(), assoc);
        prop_assert!(wild.iter().all(|q| q.len() == 1));
    }

    /// Parsing a rendered query gives back exactly the query.
    #[test]
    fn rendered_queries_parse_back_to_themselves(query in concrete_query()) {
        let mut parsed = vec![MemOp::access(BlockId(7))];
        prop_assert!(parse_rendered(&render_query(&query), &mut parsed).is_ok());
        prop_assert_eq!(parsed, query);
    }

    /// Whatever the rendered-form parser accepts, the general expander
    /// reads as exactly that one query.
    #[test]
    fn accepted_rendered_strings_expand_to_the_same_query(text in near_rendered()) {
        let mut parsed = Vec::new();
        if parse_rendered(&text, &mut parsed).is_ok() {
            prop_assert_eq!(expand_query(&text, 1).unwrap(), vec![parsed]);
        }
    }
}
