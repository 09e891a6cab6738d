//! # adbt-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (see
//! `DESIGN.md` §5 for the experiment index):
//!
//! | binary | regenerates |
//! |---|---|
//! | `aba_correctness` | §IV-A ABA rates (E1) |
//! | `table2_matrix` | Table II + litmus verdicts (E2, E7) |
//! | `fig10_scalability` | Fig. 10 scalability curves (E3) |
//! | `fig11_htm` | Fig. 11 HTM-scheme comparison (E4) |
//! | `fig12_breakdown` | Fig. 12 overhead breakdown (E5, E9) |
//! | `table1_profile` | Table I instruction profile (E6) |
//! | `speedup_summary` | §IV-B headline speedups (E8) |
//!
//! Every binary prints a human-readable table to stdout and, with
//! `--csv PATH`, machine-readable CSV. Use `--scale` to trade runtime
//! for noise and `--max-threads` to cap the thread ladder.

use std::collections::HashMap;
use std::io::Write as _;
use std::time::Duration;

/// `--key value` / `--flag` argument parsing shared by the harness
/// binaries. Strict: each binary declares the value keys and boolean
/// flags it accepts, and an unknown, repeated or stray argument, a
/// missing value or an unparsable value is an error — a typo must not
/// silently run a different experiment.
#[derive(Clone, Debug, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
    declared: Vec<String>,
}

/// Why a command line was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgError {
    /// `--key` is not one the binary accepts.
    Unknown(String),
    /// `--key` given twice.
    Repeated(String),
    /// A value key at the end of the line or followed by another `--key`.
    MissingValue(String),
    /// A value that does not parse as the key's type.
    Unparsable {
        /// The key.
        key: String,
        /// The value given.
        value: String,
    },
    /// An argument that is neither a `--key` nor a key's value.
    Unexpected(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::Unknown(key) => write!(f, "unknown option --{key}"),
            ArgError::Repeated(key) => write!(f, "--{key} given more than once"),
            ArgError::MissingValue(key) => write!(f, "--{key} needs a value"),
            ArgError::Unparsable { key, value } => {
                write!(f, "--{key}: cannot parse `{value}`")
            }
            ArgError::Unexpected(arg) => write!(f, "unexpected argument `{arg}`"),
        }
    }
}

/// Value keys every binary accepts: [`Table::emit`]'s output paths.
const OUTPUT_KEYS: [&str; 2] = ["csv", "json"];

impl Args {
    /// Parses `std::env::args()` against the binary's `values` keys
    /// (`--key value`, plus `--csv`/`--json`) and boolean `flags`
    /// (`--flag`). Exits with status 2 and a message on a bad command
    /// line.
    pub fn parse(values: &[&str], flags: &[&str]) -> Args {
        Args::try_parse(std::env::args().skip(1), values, flags).unwrap_or_else(|e| {
            let keys = values
                .iter()
                .chain(&OUTPUT_KEYS)
                .map(|k| format!("[--{k} V]"));
            let flags = flags.iter().map(|k| format!("[--{k}]"));
            let usage: Vec<String> = keys.chain(flags).collect();
            exit_bad_args(&format!("{e}\nusage: {}", usage.join(" ")))
        })
    }

    /// [`Args::parse`] over an explicit argument list, reporting the
    /// first error instead of exiting.
    ///
    /// # Errors
    ///
    /// Any [`ArgError`] except [`ArgError::Unparsable`], which
    /// [`Args::try_get`] reports once the key's type is known.
    pub fn try_parse(
        args: impl IntoIterator<Item = String>,
        values: &[&str],
        flags: &[&str],
    ) -> Result<Args, ArgError> {
        let value_keys: Vec<&str> = values.iter().chain(&OUTPUT_KEYS).copied().collect();
        let mut out = Args {
            declared: value_keys
                .iter()
                .chain(flags)
                .map(|k| k.to_string())
                .collect(),
            ..Args::default()
        };
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(ArgError::Unexpected(arg));
            };
            let key = key.to_string();
            if out.values.contains_key(&key) || out.flags.contains(&key) {
                return Err(ArgError::Repeated(key));
            }
            if flags.contains(&key.as_str()) {
                out.flags.push(key);
            } else if value_keys.contains(&key.as_str()) {
                match iter.next() {
                    Some(value) if !value.starts_with("--") => {
                        out.values.insert(key, value);
                    }
                    _ => return Err(ArgError::MissingValue(key)),
                }
            } else {
                return Err(ArgError::Unknown(key));
            }
        }
        Ok(out)
    }

    /// A typed value with a default; exits with status 2 when the value
    /// is present but does not parse.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.try_get(key)
            .unwrap_or_else(|e| exit_bad_args(&e.to_string()))
            .unwrap_or(default)
    }

    /// A typed value, `None` when absent.
    ///
    /// # Errors
    ///
    /// [`ArgError::Unparsable`] when the value does not parse as `T`.
    ///
    /// # Panics
    ///
    /// Panics if the binary did not declare `key` (a bug in the binary).
    pub fn try_get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, ArgError> {
        self.get_str(key).map(|v| parse_value(key, v)).transpose()
    }

    /// A comma-separated list of typed values, `None` when absent; exits
    /// with status 2 when an element does not parse.
    pub fn get_list<T: std::str::FromStr>(&self, key: &str) -> Option<Vec<T>> {
        let list = self.get_str(key)?;
        let parsed = list.split(',').map(|item| parse_value(key, item.trim()));
        Some(
            parsed
                .collect::<Result<_, _>>()
                .unwrap_or_else(|e| exit_bad_args(&e.to_string())),
        )
    }

    /// A string value.
    ///
    /// # Panics
    ///
    /// Panics if the binary did not declare `key` (a bug in the binary).
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.assert_declared(key);
        self.values.get(key).map(String::as_str)
    }

    /// Whether a boolean flag is present.
    ///
    /// # Panics
    ///
    /// Panics if the binary did not declare `key` (a bug in the binary).
    pub fn flag(&self, key: &str) -> bool {
        self.assert_declared(key);
        self.flags.iter().any(|f| f == key)
    }

    fn assert_declared(&self, key: &str) {
        assert!(
            self.declared.iter().any(|k| k == key),
            "--{key} is read but was not declared to Args::parse"
        );
    }
}

/// Parses `key`'s `value` as a `T`.
fn parse_value<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, ArgError> {
    value.parse().map_err(|_| ArgError::Unparsable {
        key: key.to_string(),
        value: value.to_string(),
    })
}

/// Reports a bad command line and exits with status 2.
fn exit_bad_args(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// The thread ladder the paper sweeps (Fig. 10 goes to 64); capped by
/// `max`.
pub fn thread_ladder(max: u32) -> Vec<u32> {
    [1u32, 2, 4, 8, 16, 32, 64]
        .into_iter()
        .filter(|&n| n <= max)
        .collect()
}

/// The default thread cap: the host's available parallelism (the paper
/// oversubscribes beyond physical cores too, so callers may raise it).
pub fn default_max_threads() -> u32 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u32)
        .unwrap_or(8)
        .clamp(4, 64)
}

/// A rectangular result table that renders both human-readable and CSV.
#[derive(Clone, Debug)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column names.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row/header mismatch");
        self.rows.push(cells);
    }

    /// Renders an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (cell, width) in cells.iter().zip(widths) {
                line.push_str(&format!("{cell:>width$}  "));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Renders a JSON array of row objects keyed by column name (numbers
    /// stay numbers where they parse). Hand-rolled — the workspace builds
    /// air-gapped, with no JSON crate available.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  {");
            for (j, (key, cell)) in self.header.iter().zip(row).enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&json_string(key));
                out.push_str(": ");
                out.push_str(&json_cell(cell));
            }
            out.push('}');
        }
        out.push_str("\n]\n");
        out
    }

    /// Prints the table and optionally writes CSV (`--csv PATH`) and/or
    /// JSON (`--json PATH`).
    pub fn emit(&self, args: &Args) {
        println!("{}", self.render());
        if let Some(path) = args.get_str("csv") {
            let mut file =
                std::fs::File::create(path).unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
            file.write_all(self.to_csv().as_bytes())
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("wrote {path}");
        }
        if let Some(path) = args.get_str("json") {
            std::fs::write(path, self.to_json())
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            eprintln!("wrote {path}");
        }
    }

    /// [`emit`](Table::emit) followed by an explanatory footnote on
    /// stdout (the note goes to the human, not into the CSV/JSON).
    pub fn emit_with_note(&self, args: &Args, note: &str) {
        self.emit(args);
        println!("{note}");
    }
}

/// `100 * num / den`, or 0 when `den` is 0 — a raw division would put
/// `NaN`/`inf` into table cells and break downstream CSV consumers.
pub fn pct(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        100.0 * num / den
    }
}

/// A counter ratio as the standard one-decimal percentage cell.
pub fn pct_cell(num: u64, den: u64) -> String {
    format!("{:.1}", pct(num as f64, den as f64))
}

/// Quotes and escapes a JSON string.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A cell as a JSON value: integer, then finite float, then string.
fn json_cell(cell: &str) -> String {
    if let Ok(i) = cell.parse::<i64>() {
        return i.to_string();
    }
    if let Ok(f) = cell.parse::<f64>() {
        if f.is_finite() {
            return format!("{f}");
        }
    }
    json_string(cell)
}

/// Runs `f` `reps` times and returns the minimum duration (the paper
/// averages three runs; minimum-of-N is the standard noise-floor
/// estimator for interpreted workloads).
pub fn time_best<T>(reps: u32, mut f: impl FnMut() -> (Duration, T)) -> (Duration, T) {
    let mut best: Option<(Duration, T)> = None;
    for _ in 0..reps.max(1) {
        let (elapsed, value) = f();
        if best.as_ref().is_none_or(|(b, _)| elapsed < *b) {
            best = Some((elapsed, value));
        }
    }
    best.expect("reps >= 1")
}

/// Formats a float with sensible precision for tables.
pub fn fmt_f64(value: f64) -> String {
    if value >= 100.0 {
        format!("{value:.0}")
    } else if value >= 1.0 {
        format!("{value:.2}")
    } else {
        format!("{value:.3}")
    }
}

/// Geometric mean of a non-empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of empty slice");
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, ArgError> {
        Args::try_parse(
            line.split_whitespace().map(String::from),
            &["scale", "programs"],
            &["traced"],
        )
    }

    #[test]
    fn args_accept_declared_keys() {
        let args = parse("--scale 0.5 --traced --csv out.csv").unwrap();
        assert_eq!(args.get("scale", 1.0), 0.5);
        assert_eq!(args.try_get::<f64>("programs"), Ok(None));
        assert!(args.flag("traced"));
        assert_eq!(args.get_str("csv"), Some("out.csv"));
        assert_eq!(args.get_str("json"), None);
        let none = parse("").unwrap();
        assert_eq!(none.get("scale", 1.0), 1.0);
        assert!(!none.flag("traced"));
    }

    #[test]
    fn args_reject_an_unknown_flag() {
        assert_eq!(
            parse("--scael 0.5").unwrap_err(),
            ArgError::Unknown("scael".into())
        );
    }

    #[test]
    fn args_reject_a_missing_value() {
        assert_eq!(
            parse("--scale").unwrap_err(),
            ArgError::MissingValue("scale".into())
        );
        assert_eq!(
            parse("--scale --traced").unwrap_err(),
            ArgError::MissingValue("scale".into())
        );
    }

    #[test]
    fn args_reject_an_unparsable_value() {
        let args = parse("--scale fast").unwrap();
        let err = args.try_get::<f64>("scale").unwrap_err();
        assert_eq!(
            err,
            ArgError::Unparsable {
                key: "scale".into(),
                value: "fast".into()
            }
        );
        assert_eq!(err.to_string(), "--scale: cannot parse `fast`");
    }

    #[test]
    fn args_reject_repeated_and_stray_arguments() {
        assert_eq!(
            parse("--traced --traced").unwrap_err(),
            ArgError::Repeated("traced".into())
        );
        assert_eq!(
            parse("--scale 1 --scale 2").unwrap_err(),
            ArgError::Repeated("scale".into())
        );
        // A boolean flag takes no value.
        assert_eq!(
            parse("--traced 1").unwrap_err(),
            ArgError::Unexpected("1".into())
        );
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn reading_an_undeclared_key_is_a_bug() {
        let _ = parse("").unwrap().get("threads", 1u32);
    }

    #[test]
    fn ladder_caps() {
        assert_eq!(thread_ladder(8), vec![1, 2, 4, 8]);
        assert_eq!(thread_ladder(1), vec![1]);
        assert_eq!(thread_ladder(64).len(), 7);
    }

    #[test]
    fn table_renders_and_csvs() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        let text = t.render();
        assert!(text.contains("a"));
        assert!(text.contains("bb"));
        assert_eq!(t.to_csv(), "a,bb\n1,2\n");
    }

    #[test]
    fn table_to_json_types_cells() {
        let mut t = Table::new(&["name", "count", "ratio"]);
        t.row(vec!["hst".into(), "42".into(), "2.03".into()]);
        let json = t.to_json();
        assert!(json.contains("\"name\": \"hst\""), "{json}");
        assert!(json.contains("\"count\": 42"), "{json}");
        assert!(json.contains("\"ratio\": 2.03"), "{json}");
    }

    #[test]
    fn json_escapes_and_types() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_cell("-7"), "-7");
        assert_eq!(json_cell("0.5"), "0.5");
        assert_eq!(json_cell("NaN"), "\"NaN\"");
        assert_eq!(json_cell("hst-htm"), "\"hst-htm\"");
    }

    #[test]
    fn pct_guards_zero_denominator() {
        assert_eq!(pct(1.0, 0.0), 0.0);
        assert!((pct(1.0, 4.0) - 25.0).abs() < 1e-12);
        assert_eq!(pct_cell(3, 8), "37.5");
        assert_eq!(pct_cell(3, 0), "0.0");
    }

    #[test]
    fn geomean_matches_hand_computation() {
        let g = geomean(&[1.0, 4.0]);
        assert!((g - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn time_best_takes_minimum() {
        let mut calls = 0;
        let (d, v) = time_best(3, || {
            calls += 1;
            (Duration::from_millis(10 * calls), calls)
        });
        assert_eq!(d, Duration::from_millis(10));
        assert_eq!(v, 1);
    }
}
