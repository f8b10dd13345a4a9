//! The policy input/output alphabet of Table 1.

use std::fmt;
use std::str::FromStr;

/// Input symbol of a replacement policy (Table 1): an access to a cache line
/// or an eviction request.
///
/// The line index is a `u8` on purpose: the learner stores millions of input
/// words (test-suite dedup sets, the prefix-trie cache, observation-table
/// rows), and a byte-sized payload keeps a whole word in one or two cache
/// lines.  Real associativities are tiny, so nothing is lost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PolicyInput {
    /// `Ln(i)`: the block stored in line `i` was accessed (a cache hit).
    Line(u8),
    /// `Evct`: a line must be freed to make room for a new block (a miss).
    Evct,
}

impl PolicyInput {
    /// The `Ln(i)` symbol for a line index given as a `usize`.
    ///
    /// # Panics
    ///
    /// Panics if `line` exceeds `u8::MAX` (no supported cache comes close).
    #[inline]
    pub fn line(line: usize) -> Self {
        PolicyInput::Line(u8::try_from(line).expect("line index exceeds u8::MAX"))
    }
}

impl fmt::Display for PolicyInput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyInput::Line(i) => write!(f, "Ln({i})"),
            PolicyInput::Evct => write!(f, "Evct"),
        }
    }
}

/// Error returned when parsing a [`PolicyInput`] or [`PolicyOutput`] fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAlphabetError(pub String);

impl fmt::Display for ParseAlphabetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid policy alphabet symbol: {}", self.0)
    }
}

impl std::error::Error for ParseAlphabetError {}

impl FromStr for PolicyInput {
    type Err = ParseAlphabetError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "Evct" {
            return Ok(PolicyInput::Evct);
        }
        if let Some(rest) = s.strip_prefix("Ln(").and_then(|r| r.strip_suffix(')')) {
            if let Ok(i) = rest.parse() {
                return Ok(PolicyInput::Line(i));
            }
        }
        Err(ParseAlphabetError(s.to_string()))
    }
}

/// Output symbol of a replacement policy (Table 1): either nothing (`⊥`, for
/// line accesses) or the index of the evicted line (for `Evct`).
///
/// Byte-sized for the same reason as [`PolicyInput`]: output words are stored
/// per trie node and per observation-table cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PolicyOutput {
    /// `⊥`: no line was freed.
    None,
    /// The index of the line that was freed.
    Evicted(u8),
}

impl PolicyOutput {
    /// The `Evicted(i)` symbol for a victim index given as a `usize`.
    ///
    /// # Panics
    ///
    /// Panics if `line` exceeds `u8::MAX`.
    #[inline]
    pub fn evicted(line: usize) -> Self {
        PolicyOutput::Evicted(u8::try_from(line).expect("victim index exceeds u8::MAX"))
    }
}

impl fmt::Display for PolicyOutput {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyOutput::None => write!(f, "⊥"),
            PolicyOutput::Evicted(i) => write!(f, "{i}"),
        }
    }
}

impl FromStr for PolicyOutput {
    type Err = ParseAlphabetError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "⊥" || s == "none" {
            return Ok(PolicyOutput::None);
        }
        s.parse()
            .map(PolicyOutput::Evicted)
            .map_err(|_| ParseAlphabetError(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips() {
        for input in [
            PolicyInput::Line(0),
            PolicyInput::Line(15),
            PolicyInput::Evct,
        ] {
            assert_eq!(input.to_string().parse::<PolicyInput>().unwrap(), input);
        }
        for output in [PolicyOutput::None, PolicyOutput::Evicted(7)] {
            assert_eq!(output.to_string().parse::<PolicyOutput>().unwrap(), output);
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!("Ln(x)".parse::<PolicyInput>().is_err());
        assert!("evict".parse::<PolicyInput>().is_err());
        assert!("x".parse::<PolicyOutput>().is_err());
    }
}
