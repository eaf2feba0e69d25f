//! Sample statistics, metric names and outcome counting shared by the
//! workloads.

/// A tail percentile is reported only when at least this many samples
/// lie beyond it; with fewer, the "percentile" is one or two unlucky
/// samples rather than a property of the run.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the two middle values for an even
/// count), or `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some(0.5 * (s[n / 2 - 1] + s[n / 2])),
    }
}

/// Nearest-rank `p`-quantile (`0 < p < 1`) of `samples`, reported only
/// when at least [`TAIL_MIN_BEYOND`] samples lie strictly above its
/// rank. `tail_percentile(x, 0.9)` therefore needs 100 samples.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    let s = sorted(samples);
    let n = s.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
    (n - 1 - rank >= TAIL_MIN_BEYOND).then(|| s[rank])
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Whether `name` is a valid metric name: it starts with a letter or
/// digit and is at most 64 characters of `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let starts_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    starts_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// How one attempted operation ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Completed, and its output matched the reference.
    Ok,
    /// The server answered with a status other than 200 (a 503 shed
    /// included).
    Status(u16),
    /// Completed, but the output differs from the reference.
    Mismatch(String),
    /// The call returned an error or the transport failed.
    Error(String),
}

/// Attempted and failed operation counts of one run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: u64,
    /// Operations that did not end in [`Verdict::Ok`].
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; every verdict but `Ok` is a failure.
    pub fn record(&mut self, verdict: &Verdict) {
        self.attempted += 1;
        if *verdict != Verdict::Ok {
            self.failed += 1;
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Bitwise equality of two f32 buffers (NaN payloads and signed zeros
/// included), the comparison every determinism check here uses.
pub fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90 of 100: exactly 10 samples (91..=100) lie beyond.
        assert_eq!(tail_percentile(&hundred, 0.9), Some(90.0));
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_percentile(&ninety_nine, 0.9), None);
        // A p50 needs 20 samples, a p99 needs 1000.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&twenty, 0.5), Some(10.0));
        assert_eq!(tail_percentile(&twenty[..19], 0.5), None);
        assert_eq!(tail_percentile(&hundred, 0.99), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (0..200).map(|i| f64::from((i * 37) % 200)).collect();
        let a = tail_percentile(&xs, 0.9);
        xs.reverse();
        assert_eq!(a, tail_percentile(&xs, 0.9));
        assert_eq!(a, Some(179.0));
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for ok in [
            "setup_s",
            "nn.lstm.infer_step_us",
            "tensor.backend.matmul_q8.simd.us",
            "9a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".lead",
            "_lead",
            "-lead",
            "has space",
            "µs",
            "a/b",
            "a:b",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }

    #[test]
    fn failed_share_counts_sheds_and_mismatches() {
        let mut t = Tally::default();
        t.record(&Verdict::Ok);
        t.record(&Verdict::Status(503));
        t.record(&Verdict::Mismatch("byte 7".into()));
        t.record(&Verdict::Error("reset".into()));
        t.record(&Verdict::Ok);
        t.record(&Verdict::Status(404));
        assert_eq!(
            t,
            Tally {
                attempted: 6,
                failed: 4
            }
        );
        assert!((t.failed_share() - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(Tally::default().failed_share(), 0.0);
        let mut all_ok = Tally::default();
        all_ok.record(&Verdict::Ok);
        assert_eq!(all_ok.failed_share(), 0.0);
        all_ok.merge(t);
        assert_eq!(
            all_ok,
            Tally {
                attempted: 7,
                failed: 4
            }
        );
    }

    #[test]
    fn bit_equality_distinguishes_signed_zero() {
        assert!(bits_equal(&[1.0, 0.0], &[1.0, 0.0]));
        assert!(!bits_equal(&[0.0], &[-0.0]));
        assert!(!bits_equal(&[1.0], &[1.0, 2.0]));
    }
}
