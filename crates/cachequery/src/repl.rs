//! The command language of the CacheQuery shell (§4.2): configuration
//! commands that change the target cache set on the fly, and MBL queries.
//!
//! [`parse_command`] turns one command line into a [`Command`] value.  The
//! `cqd` daemon (the `server` crate) interprets those values against a
//! session in its `repl` request, and the interactive `mbl_repl` example
//! sends each line it reads to an in-process daemon as such a request.

use cache::LevelId;

use crate::reset::ResetSequence;

/// One parsed command of the CacheQuery string protocol (§4.2).
///
/// `cqd` sessions speak this language in their `repl` request, and the
/// interactive `mbl_repl` example forwards every line to such a session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `help`: list the available commands.
    Help,
    /// `level <L1|L2|L3>`: stage a new target cache level.
    Level(LevelId),
    /// `set <n>`: stage a new target set index.
    Set(usize),
    /// `slice <n>`: stage a new target slice index.
    Slice(usize),
    /// `assoc`: report the associativity of the (staged) target.
    Assoc,
    /// `reps <n>`: set the repetition count of the majority vote.
    Reps(usize),
    /// `reset <F+R | MBL sequence>`: set the reset sequence.
    Reset(ResetSequence),
    /// `cat <ways>`: restrict the last-level cache with Intel CAT.
    Cat(usize),
    /// `target`: print the staged target selection.
    Target,
    /// `stats`: print the session's work counters.
    Stats,
    /// Anything else: an MBL query to expand and execute.
    Query(String),
    /// A recognized command with malformed arguments; the payload is the
    /// usage string to report.
    Usage(&'static str),
}

/// The `help` response (also the reference list of commands).
pub const HELP_TEXT: &str = "commands: level <L1|L2|L3>, set <n>, slice <n>, assoc, reps <n>, \
                             reset <F+R|sequence>, cat <ways>, target, stats, or an MBL query";

/// Parses one line of the CacheQuery command protocol.
///
/// Returns `None` for blank lines.  Malformed arguments of known commands
/// parse to [`Command::Usage`] (carrying the usage message) rather than an
/// error, mirroring the forgiving behaviour of the original shell; anything
/// that is not a known command word is treated as an MBL query.
pub fn parse_command(line: &str) -> Option<Command> {
    let line = line.trim();
    if line.is_empty() {
        return None;
    }
    let mut parts = line.split_whitespace();
    let command = parts.next().expect("non-empty line");
    let rest: Vec<&str> = parts.collect();

    Some(match command {
        "help" => Command::Help,
        "level" => match rest.first().and_then(|s| LevelId::parse(s)) {
            Some(level) => Command::Level(level),
            None => Command::Usage("usage: level <L1|L2|L3>"),
        },
        "set" => match rest.first().and_then(|s| s.parse().ok()) {
            Some(set) => Command::Set(set),
            None => Command::Usage("usage: set <index>"),
        },
        "slice" => match rest.first().and_then(|s| s.parse().ok()) {
            Some(slice) => Command::Slice(slice),
            None => Command::Usage("usage: slice <index>"),
        },
        "assoc" => Command::Assoc,
        "reps" => match rest.first().and_then(|s| s.parse().ok()) {
            Some(reps) => Command::Reps(reps),
            None => Command::Usage("usage: reps <count>"),
        },
        "reset" => {
            if rest.is_empty() {
                Command::Usage("usage: reset <F+R | MBL sequence>")
            } else {
                let spec = rest.join(" ");
                Command::Reset(if spec.eq_ignore_ascii_case("f+r") {
                    ResetSequence::FlushRefill
                } else {
                    ResetSequence::Custom(spec)
                })
            }
        }
        "cat" => match rest.first().and_then(|s| s.parse().ok()) {
            Some(ways) => Command::Cat(ways),
            None => Command::Usage("usage: cat <ways>"),
        },
        "target" => Command::Target,
        "stats" => Command::Stats,
        _ => Command::Query(line.to_string()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parsing_is_a_pure_function_of_the_line() {
        assert_eq!(parse_command(""), None);
        assert_eq!(parse_command("   "), None);
        assert_eq!(parse_command("help"), Some(Command::Help));
        assert_eq!(parse_command("level L2"), Some(Command::Level(LevelId::L2)));
        assert_eq!(parse_command("set 12"), Some(Command::Set(12)));
        assert_eq!(parse_command("slice 1"), Some(Command::Slice(1)));
        assert_eq!(parse_command("reps 5"), Some(Command::Reps(5)));
        assert_eq!(
            parse_command("reset f+r"),
            Some(Command::Reset(ResetSequence::FlushRefill))
        );
        assert_eq!(
            parse_command("reset D C B A @"),
            Some(Command::Reset(ResetSequence::Custom("D C B A @".into())))
        );
        assert_eq!(parse_command("cat 4"), Some(Command::Cat(4)));
        assert_eq!(
            parse_command("@ X A?"),
            Some(Command::Query("@ X A?".into()))
        );
        assert!(matches!(parse_command("level"), Some(Command::Usage(_))));
    }
}
