//! Command-line handling shared by the examples.

use std::str::FromStr;

/// The positional argument `index` (0 is the first after the program name)
/// parsed, or `default` when it is absent.  An argument that is present but
/// does not parse exits with status 2 and prints `usage`.
pub fn positional<T: FromStr>(index: usize, default: T, usage: &str) -> T {
    let Some(text) = std::env::args().nth(index + 1) else {
        return default;
    };
    text.parse().unwrap_or_else(|_| {
        eprintln!("cannot parse argument {} `{text}`\n{usage}", index + 1);
        std::process::exit(2)
    })
}
