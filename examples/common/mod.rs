//! Command-line handling shared by the examples.

use std::str::FromStr;

/// The positional argument `index` (0 is the first after the program name)
/// parsed, or `default` when it is absent.  An argument that is present but
/// does not parse exits with status 2 and prints `usage`.
pub fn positional<T: FromStr>(index: usize, default: T, usage: &str) -> T {
    positional_with(index, default, usage, |text| text.parse().ok())
}

/// [`positional`] with its own parser: `parse` returns `None` for text it
/// rejects.
pub fn positional_with<T>(
    index: usize,
    default: T,
    usage: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> T {
    let Some(text) = std::env::args().nth(index + 1) else {
        return default;
    };
    parse(&text).unwrap_or_else(|| {
        eprintln!("cannot parse argument {} `{text}`\n{usage}", index + 1);
        std::process::exit(2)
    })
}
