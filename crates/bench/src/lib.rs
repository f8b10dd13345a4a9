//! Shared infrastructure of the benchmark harness.
//!
//! Each table and figure of the paper's evaluation is regenerated by one
//! binary in `src/bin/` (see README.md "Reproducing the paper's tables" for
//! the experiment index); this
//! library provides the pieces they share: duration formatting in the style
//! of Table 2, simple text tables, and a tiny argument parser so the binaries
//! can be driven without external dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

use server::Json;

/// Writes `report` under `key` into the JSON file at `path`, preserving the
/// other *records* (object-valued keys) an earlier run left there.
/// Unparseable files and stale flat-format keys (pre-nesting loadgen wrote
/// metrics at the top level) are dropped with a note, never silently.
pub fn merge_report(path: &str, key: &str, report: Json) {
    let existing = std::fs::read_to_string(path).ok();
    let mut pairs: Vec<(String, Json)> = match existing.as_deref().map(Json::parse) {
        None => Vec::new(),
        Some(Ok(Json::Obj(pairs))) => pairs
            .into_iter()
            .filter(|(k, v)| {
                let keep = k != key && matches!(v, Json::Obj(_));
                if !keep && k != key {
                    println!("note: dropping stale flat-format key '{k}' from {path}");
                }
                keep
            })
            .collect(),
        Some(_) => {
            println!("note: {path} did not parse as a JSON object; starting a fresh report");
            Vec::new()
        }
    };
    pairs.push((key.to_string(), report));
    std::fs::write(path, Json::Obj(pairs).render() + "\n").expect("benchmark report is writable");
    println!("wrote {path}");
}

/// Formats a duration the way the paper's tables do (`0 h 0 m 0.14 s`).
pub fn format_duration(duration: Duration) -> String {
    let total = duration.as_secs_f64();
    let hours = (total / 3600.0).floor() as u64;
    let minutes = ((total - hours as f64 * 3600.0) / 60.0).floor() as u64;
    let seconds = total - hours as f64 * 3600.0 - minutes as f64 * 60.0;
    format!("{hours} h {minutes} m {seconds:.2} s")
}

/// A plain-text table printer with aligned columns.
#[derive(Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given header.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (missing cells are rendered empty).
    pub fn add_row(&mut self, cells: &[String]) {
        self.rows.push(cells.to_vec());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let columns = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(columns) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (i, width) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                line.push_str(&format!(" {cell:<width$} |"));
            }
            line
        };
        out.push_str(&render_row(&self.header, &widths));
        out.push('\n');
        let mut separator = String::from("|");
        for width in &widths {
            separator.push_str(&format!("{}|", "-".repeat(width + 2)));
        }
        out.push_str(&separator);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// A minimal `--flag value` / `--switch` argument parser.
#[derive(Debug)]
pub struct Args {
    raw: Vec<String>,
}

impl Args {
    /// Captures the process arguments (excluding the binary name).
    pub fn from_env() -> Self {
        Args {
            raw: std::env::args().skip(1).collect(),
        }
    }

    /// Creates the parser from explicit arguments (used in tests).
    pub fn from_vec(raw: Vec<String>) -> Self {
        Args { raw }
    }

    /// Whether `--name` is present.
    pub fn has_flag(&self, name: &str) -> bool {
        self.raw.iter().any(|a| a == &format!("--{name}"))
    }

    /// The value following `--name`, if present.
    pub fn value_of(&self, name: &str) -> Option<&str> {
        let key = format!("--{name}");
        self.raw
            .iter()
            .position(|a| a == &key)
            .and_then(|i| self.raw.get(i + 1))
            .map(String::as_str)
    }

    /// The value following `--name` parsed as `T` (`Ok(None)` when the
    /// flag is absent), or a message naming the flag and the text that does
    /// not parse.
    fn try_parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value_of(name)
            .map(|text| {
                text.parse()
                    .map_err(|_| format!("cannot parse --{name} `{text}`"))
            })
            .transpose()
    }

    /// The value following `--name` parsed as `T`, if the flag is present.
    /// A value that does not parse is fatal: the binary prints which flag
    /// and text and exits with status 2, instead of running with a default
    /// the caller did not ask for.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.try_parsed(name).unwrap_or_else(|message| {
            eprintln!("{message}");
            std::process::exit(2)
        })
    }

    /// The value following `--name` parsed as `T`, or `default` when the
    /// flag is absent (a value that does not parse exits, see
    /// [`parsed`](Self::parsed)).
    pub fn value_or<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.parsed(name).unwrap_or(default)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting_matches_table_2_style() {
        assert_eq!(
            format_duration(Duration::from_millis(140)),
            "0 h 0 m 0.14 s"
        );
        assert_eq!(
            format_duration(Duration::from_secs(3600 + 120 + 5)),
            "1 h 2 m 5.00 s"
        );
    }

    #[test]
    fn tables_align_columns() {
        let mut table = TextTable::new(&["Policy", "States"]);
        table.add_row(&["FIFO".to_string(), "16".to_string()]);
        table.add_row(&["SRRIP-HP".to_string(), "178".to_string()]);
        let rendered = table.render();
        assert!(rendered.contains("| FIFO     |"));
        assert!(rendered.contains("| SRRIP-HP |"));
    }

    #[test]
    fn args_parse_flags_and_values() {
        let args = Args::from_vec(vec![
            "--full".to_string(),
            "--max-assoc".to_string(),
            "8".to_string(),
        ]);
        assert!(args.has_flag("full"));
        assert!(!args.has_flag("quick"));
        assert_eq!(args.value_of("max-assoc"), Some("8"));
        assert_eq!(args.value_or("max-assoc", 4usize), 8);
        assert_eq!(args.value_or("missing", 4usize), 4);
    }

    #[test]
    fn values_that_do_not_parse_are_errors_naming_flag_and_text() {
        let args = Args::from_vec(
            ["--policy", "BOGUS", "--max-assoc", "x", "--depth", "2"]
                .map(String::from)
                .to_vec(),
        );
        assert_eq!(
            args.try_parsed::<policies::PolicyKind>("policy"),
            Err("cannot parse --policy `BOGUS`".to_string())
        );
        assert_eq!(
            args.try_parsed::<usize>("max-assoc"),
            Err("cannot parse --max-assoc `x`".to_string())
        );
        assert_eq!(args.try_parsed::<usize>("depth"), Ok(Some(2)));
        assert_eq!(args.try_parsed::<usize>("missing"), Ok(None));
    }
}
