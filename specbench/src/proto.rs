//! The line protocol between a measuring child process and the parent
//! that launched it. A child writes tab-separated records on stdout:
//!
//! ```text
//! M <name> <unit> <value>   a metric
//! I <key> <text>            an environment or report line
//! T <attempted> <failed>    the outcome tally
//! ```
//!
//! Anything else is passed through to the parent's stdout as text.

use crate::stats::Tally;
use std::collections::BTreeMap;

/// Prints a metric record.
pub fn metric(name: &str, unit: &str, value: f64) {
    println!("M\t{name}\t{unit}\t{value}");
}

/// Prints an information line.
pub fn info(key: &str, text: impl std::fmt::Display) {
    println!("I\t{key}\t{text}");
}

/// Prints the outcome tally.
pub fn tally(t: Tally) {
    println!("T\t{}\t{}", t.attempted, t.failed);
}

/// Everything one child reported.
#[derive(Debug, Default)]
pub struct ChildReport {
    /// Metrics by name: unit and value.
    pub metrics: BTreeMap<String, (String, f64)>,
    /// Information lines in order.
    pub info: Vec<(String, String)>,
    /// Outcome counts.
    pub tally: Tally,
    /// Whether a tally record arrived (a child that died early sends
    /// none).
    pub finished: bool,
    /// Lines that were not records.
    pub text: Vec<String>,
}

impl ChildReport {
    /// Parses a child's whole stdout.
    pub fn parse(out: &str) -> ChildReport {
        let mut r = ChildReport::default();
        for line in out.lines() {
            let f: Vec<&str> = line.split('\t').collect();
            match f.as_slice() {
                ["M", name, unit, value] => {
                    if let Ok(v) = value.parse() {
                        r.metrics.insert(name.to_string(), (unit.to_string(), v));
                    }
                }
                ["I", key, text] => r.info.push((key.to_string(), text.to_string())),
                ["T", attempted, failed] => {
                    if let (Ok(a), Ok(f)) = (attempted.parse(), failed.parse()) {
                        r.tally.merge(Tally {
                            attempted: a,
                            failed: f,
                        });
                        r.finished = true;
                    }
                }
                _ => r.text.push(line.to_string()),
            }
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip() {
        let out = "M\tsetup_s\ts\t0.125\nI\tbackend\tscalar\nT\t12\t1\nhello\n";
        let r = ChildReport::parse(out);
        assert_eq!(r.metrics["setup_s"], ("s".to_string(), 0.125));
        assert_eq!(r.info, vec![("backend".to_string(), "scalar".to_string())]);
        assert_eq!(
            r.tally,
            Tally {
                attempted: 12,
                failed: 1
            }
        );
        assert!(r.finished);
        assert_eq!(r.text, vec!["hello".to_string()]);
    }

    #[test]
    fn a_child_without_a_tally_did_not_finish() {
        assert!(!ChildReport::parse("M\tx\ts\t1\n").finished);
    }
}
