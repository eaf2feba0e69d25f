//! Helpers shared by the workload runners.

use spectragan_obs::SpanEvent;
use std::collections::BTreeMap;

/// What the parent asked a measuring child to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Seed every input derives from.
    pub seed: u64,
    /// Measured seconds of the run.
    pub seconds: f64,
    /// Whether this is the traced run, which splits its time between
    /// untraced measurement (the reference for the overhead ratio) and
    /// measurement with tracing on.
    pub trace: bool,
}

/// The process's peak resident set (`VmHWM`) in MiB, read from
/// `/proc/self/status`; `None` where that file does not exist.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Seconds as a compact list of milliseconds, for report lines.
pub fn list_ms(secs: &[f64]) -> String {
    let ms: Vec<String> = secs.iter().map(|s| format!("{:.0}", s * 1e3)).collect();
    ms.join(" ")
}

/// Per span name: number of completed spans and their summed
/// duration in nanoseconds.
pub fn span_sums(events: &[SpanEvent]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut sums: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for e in events {
        let s = sums.entry(e.name).or_default();
        s.0 += 1;
        s.1 += e.dur_ns;
    }
    sums
}

/// Summed duration of the spans named `name`, in milliseconds.
pub fn span_ms(sums: &BTreeMap<&'static str, (u64, u64)>, name: &str) -> f64 {
    sums.get(name).map_or(0.0, |s| s.1 as f64 / 1e6)
}

/// Reads the counter `name` from a Prometheus text snapshot (0 when it
/// was never incremented, which leaves it out of the snapshot).
pub fn prom_counter(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (n, v) = l.split_once(' ')?;
            (n == name).then(|| v.trim().parse().ok()).flatten()
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prometheus_counters_are_read_by_exact_name() {
        let text = "# TYPE a_total counter\na_total 3\na_total_x 9\nb 1.5\n";
        assert_eq!(prom_counter(text, "a_total"), 3.0);
        assert_eq!(prom_counter(text, "b"), 1.5);
        assert_eq!(prom_counter(text, "missing"), 0.0);
    }
}
