//! Abstract syntax of MemBlockLang.

use std::fmt;

/// An abstract memory block, identified by its position in the ordered block
/// alphabet (`A` = 0, `B` = 1, …, `Z` = 25, `AA` = 26, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

/// Tag attached to a memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tag {
    /// `?`: profile the access and report whether it hit or missed.
    Profile,
    /// `!`: invalidate the block (`clflush`) instead of loading it.
    Invalidate,
}

/// One memory operation of a concrete query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemOp {
    /// The block operated on.
    pub block: BlockId,
    /// Optional tag.
    pub tag: Option<Tag>,
}

impl MemOp {
    /// An untagged access to `block`.
    pub fn access(block: BlockId) -> Self {
        MemOp { block, tag: None }
    }

    /// A profiled access to `block`.
    pub fn profiled(block: BlockId) -> Self {
        MemOp {
            block,
            tag: Some(Tag::Profile),
        }
    }

    /// An invalidation of `block`.
    pub fn invalidate(block: BlockId) -> Self {
        MemOp {
            block,
            tag: Some(Tag::Invalidate),
        }
    }
}

/// A concrete query: a sequence of memory operations.
pub type Query = Vec<MemOp>;

/// An MBL expression (Figure 4 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// A single block, optionally tagged.
    Block(BlockId, Option<Tag>),
    /// The expansion macro `@`.
    Expand,
    /// The wildcard macro `_`.
    Wildcard,
    /// Concatenation `e1 ∘ e2 ∘ …` (also written by juxtaposition).
    Concat(Vec<Expr>),
    /// Explicit set `{e1, e2, …}`.
    Set(Vec<Expr>),
    /// Extension macro `e1[e2]`.
    Extension(Box<Expr>, Box<Expr>),
    /// Power `(e)k`.
    Power(Box<Expr>, u32),
    /// Tag distribution `(e)?` / `(e)!`.
    Tagged(Box<Expr>, Tag),
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Block(b, tag) => {
                write!(f, "{}", block_name(*b))?;
                match tag {
                    Some(Tag::Profile) => write!(f, "?"),
                    Some(Tag::Invalidate) => write!(f, "!"),
                    None => Ok(()),
                }
            }
            Expr::Expand => write!(f, "@"),
            Expr::Wildcard => write!(f, "_"),
            Expr::Concat(parts) => {
                let rendered: Vec<String> = parts.iter().map(|p| p.to_string()).collect();
                write!(f, "{}", rendered.join(" "))
            }
            Expr::Set(alternatives) => {
                let rendered: Vec<String> = alternatives.iter().map(|p| p.to_string()).collect();
                write!(f, "{{{}}}", rendered.join(", "))
            }
            Expr::Extension(base, ext) => write!(f, "({base})[{ext}]"),
            Expr::Power(base, k) => write!(f, "({base}){k}"),
            Expr::Tagged(inner, Tag::Profile) => write!(f, "({inner})?"),
            Expr::Tagged(inner, Tag::Invalidate) => write!(f, "({inner})!"),
        }
    }
}

/// Renders a block identifier as its alphabetic name (`A`, `B`, …, `Z`, `AA`,
/// `AB`, …).
pub fn block_name(block: BlockId) -> String {
    let mut name = String::new();
    push_block_name(&mut name, block);
    name
}

/// Appends the alphabetic name of `block` to `out` (bijective base 26: at
/// most seven letters, `MWLQKWV` for `u32::MAX`).  Inlined so that
/// [`render_query_into`](crate::render_query_into), which renders every
/// durable log record, makes no call per block.
#[inline]
pub(crate) fn push_block_name(out: &mut String, block: BlockId) {
    let mut letters = [0u8; 7];
    let mut rest = u64::from(block.0) + 1;
    let mut len = 0;
    while rest > 0 {
        rest -= 1;
        letters[len] = b'A' + (rest % 26) as u8;
        rest /= 26;
        len += 1;
    }
    out.extend(
        letters[..len]
            .iter()
            .rev()
            .map(|&letter| char::from(letter)),
    );
}

/// Parses an alphabetic block name back into its identifier.
///
/// Returns `None` if the string is not a non-empty sequence of ASCII uppercase
/// letters, or names a block past `u32::MAX` (`MWLQKWV`).
pub fn parse_block_name(name: &str) -> Option<BlockId> {
    match read_block_name(name.as_bytes()) {
        Some((block, len)) if len == name.len() => Some(block),
        _ => None,
    }
}

/// Reads the block name at the start of `bytes` (its uppercase letters up
/// to the first other byte): the block and the name's length, or `None`
/// when `bytes` does not start with a letter or the name goes past
/// `u32::MAX` (`MWLQKWV`).
#[inline]
pub(crate) fn read_block_name(bytes: &[u8]) -> Option<(BlockId, usize)> {
    let mut value: u64 = 0;
    let mut len = 0;
    while let Some(&letter) = bytes.get(len).filter(|b| b.is_ascii_uppercase()) {
        value = value * 26 + u64::from(letter - b'A') + 1;
        if value > u64::from(u32::MAX) + 1 {
            return None;
        }
        len += 1;
    }
    (len > 0).then(|| (BlockId((value - 1) as u32), len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_names_follow_spreadsheet_order() {
        assert_eq!(block_name(BlockId(0)), "A");
        assert_eq!(block_name(BlockId(7)), "H");
        assert_eq!(block_name(BlockId(25)), "Z");
        assert_eq!(block_name(BlockId(26)), "AA");
        assert_eq!(block_name(BlockId(27)), "AB");
        assert_eq!(block_name(BlockId(51)), "AZ");
        assert_eq!(block_name(BlockId(52)), "BA");
    }

    #[test]
    fn block_names_round_trip() {
        for id in 0..1000 {
            let name = block_name(BlockId(id));
            assert_eq!(parse_block_name(&name), Some(BlockId(id)), "name {name}");
        }
    }

    #[test]
    fn invalid_names_are_rejected() {
        assert_eq!(parse_block_name(""), None);
        assert_eq!(parse_block_name("a"), None);
        assert_eq!(parse_block_name("A1"), None);
    }

    #[test]
    fn block_names_stop_at_u32_max() {
        // Names past the last `u32` used to wrap (or overflow in debug
        // builds) onto an unrelated block.
        assert_eq!(block_name(BlockId(u32::MAX)), "MWLQKWV");
        assert_eq!(parse_block_name("MWLQKWV"), Some(BlockId(u32::MAX)));
        assert_eq!(parse_block_name("MWLQKWW"), None);
        assert_eq!(parse_block_name("AAAAAAAA"), None);
        assert_eq!(parse_block_name("ABCDEFGHIJKLMNO"), None);
    }

    #[test]
    fn display_of_expressions_is_readable() {
        let e = Expr::Concat(vec![
            Expr::Expand,
            Expr::Block(BlockId(23), None),
            Expr::Tagged(Box::new(Expr::Wildcard), Tag::Profile),
        ]);
        assert_eq!(e.to_string(), "@ X (_)?");
    }
}
