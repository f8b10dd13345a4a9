//! The trace container and its text serialization.
//!
//! A [`Trace`] is an ordered sequence of physical addresses — one memory
//! load per entry, no timestamps, no read/write distinction.  That is
//! exactly the information a replacement policy ever sees (the
//! data-independence symmetry of §5), so anything richer would be dead
//! weight for replay.
//!
//! The text form (`.trace`) is one lowercase hex address per line, with `#`
//! comments and blank lines ignored — the format golden fixtures are checked
//! in as, because people can read and edit it.

use std::fmt;

use cache::PhysAddr;

/// A malformed text trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// A text line is not a hex address.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending content.
        content: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::BadLine { line, content } => {
                write!(f, "line {line}: '{content}' is not a hex address")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// An in-memory access trace: the ordered physical addresses of a workload.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    accesses: Vec<PhysAddr>,
}

impl Trace {
    /// Creates a trace from a sequence of addresses.
    pub fn new(accesses: Vec<PhysAddr>) -> Self {
        Trace { accesses }
    }

    /// Number of accesses.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// The accesses, in order.
    pub fn accesses(&self) -> &[PhysAddr] {
        &self.accesses
    }

    /// Appends one access.
    pub fn push(&mut self, addr: PhysAddr) {
        self.accesses.push(addr);
    }

    /// Serializes the trace into the text format (one hex address per line).
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.accesses.len() * 8);
        for addr in &self.accesses {
            out.push_str(&format!("{:x}\n", addr.0));
        }
        out
    }

    /// Parses a text trace: one hex address per line (an optional `0x`
    /// prefix is accepted), `#` comments and blank lines ignored.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::BadLine`] for a line that is not a hex address.
    pub fn from_text(text: &str) -> Result<Trace, TraceError> {
        let mut accesses = Vec::new();
        for (index, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let digits = line.strip_prefix("0x").unwrap_or(line);
            let value = u64::from_str_radix(digits, 16).map_err(|_| TraceError::BadLine {
                line: index + 1,
                content: raw.to_string(),
            })?;
            accesses.push(PhysAddr(value));
        }
        Ok(Trace { accesses })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::new(vec![
            PhysAddr(0),
            PhysAddr(0x40),
            PhysAddr(0xdead_beef),
            PhysAddr(u64::MAX),
        ])
    }

    #[test]
    fn text_round_trips_and_accepts_comments() {
        let trace = sample();
        assert_eq!(Trace::from_text(&trace.to_text()).unwrap(), trace);
        let annotated = "# golden trace\n0x40 # first line\n\nff\n";
        let parsed = Trace::from_text(annotated).unwrap();
        assert_eq!(parsed.accesses(), &[PhysAddr(0x40), PhysAddr(0xff)]);
    }

    #[test]
    fn text_rejects_garbage() {
        assert!(matches!(
            Trace::from_text("0x40\nnot-hex\n"),
            Err(TraceError::BadLine { line: 2, .. })
        ));
    }
}
