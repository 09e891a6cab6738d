//! Strict command-line parsing: an unknown flag, a repeated flag, a
//! missing value, an unparsable number or an unknown workload is an
//! error, never a silent default.

use crate::gen::Workload;

/// The usage text.
pub const USAGE: &str = "usage: perfbench --workload <parsec-compute|parsec-sync|cold-code> \
[--seed N] [--seconds N] [--trace 0|1]";

/// Parsed arguments.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the generated guest programs (default 1).
    pub seed: u64,
    /// Seconds of timed rounds (default 10).
    pub seconds: u64,
    /// Whether to run the traced, per-layer variant (default off).
    pub trace: bool,
}

fn number(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: `{value}` is not a non-negative integer"))
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// A message naming the offending argument.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let value = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                args.next().ok_or_else(|| format!("{flag} needs a value"))?
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        };
        let fresh = match flag.as_str() {
            "--workload" => workload
                .replace(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
                .is_none(),
            "--seed" => seed.replace(number(&flag, &value)?).is_none(),
            "--seconds" => {
                let n = number(&flag, &value)?;
                if !(1..=3600).contains(&n) {
                    return Err(format!("--seconds must be 1..=3600, got {n}"));
                }
                seconds.replace(n).is_none()
            }
            _ => trace
                .replace(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                })
                .is_none(),
        };
        if !fresh {
            return Err(format!("{flag} given twice"));
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Args, String> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn accepts_the_full_form() {
        let a = p(&[
            "--workload",
            "cold-code",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::ColdCode);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        let a = p(&["--workload", "parsec-sync"]).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (1, 10, false));
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            &["--workload", "parsec-compute", "--bogus", "1"][..],
            &["--workload"],
            &["--workload", "parsec-compute", "--seed"],
            &["--workload", "parsec-compute", "--seed", "x1"],
            &["--workload", "parsec-compute", "--seed", "-3"],
            &["--workload", "parsec-compute", "--seconds", "0"],
            &["--workload", "parsec-compute", "--seconds", "2.5"],
            &["--workload", "parsec-compute", "--trace", "2"],
            &["--workload", "fluidanimate"],
            &["--workload", "cold-code", "--workload", "cold-code"],
            &["--seed", "1"],
            &["--workload=cold-code"],
        ] {
            assert!(p(bad).is_err(), "accepted {bad:?}");
        }
    }
}
