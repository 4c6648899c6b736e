//! Order statistics used by every metric.

use crate::json::Json;

/// Nearest-rank percentile (`p` in `[0, 1]`) of unsorted values.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Median over `windows` equal time windows of the `p`-th percentile
/// of each window's values. `samples` are `(time, value)` pairs. A host
/// hiccup that spoils one window moves this far less than it moves the
/// percentile of the whole phase.
pub fn windowed(samples: &[(u64, f64)], windows: usize, p: f64) -> f64 {
    median(&per_window(samples, windows, p))
}

/// The `p`-th percentile of each of `windows` equal time windows.
pub fn per_window(samples: &[(u64, f64)], windows: usize, p: f64) -> Vec<f64> {
    let (Some(lo), Some(hi)) = (
        samples.iter().map(|s| s.0).min(),
        samples.iter().map(|s| s.0).max(),
    ) else {
        return Vec::new();
    };
    let span = (hi - lo).max(1) as f64;
    let mut buckets: Vec<Vec<f64>> = vec![Vec::new(); windows.max(1)];
    for &(t, v) in samples {
        let k = (((t - lo) as f64 / span) * windows as f64) as usize;
        buckets[k.min(windows - 1)].push(v);
    }
    buckets
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| percentile(b, p))
        .collect()
}

/// CPU time stolen by the hypervisor so far (clock ticks), when the
/// platform reports it.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

/// The highest percentile with at least ten samples beyond it: the
/// tail a sample of this size can actually resolve.
pub fn resolvable_percentile(n: usize) -> f64 {
    if n <= 10 {
        0.0
    } else {
        1.0 - 10.0 / n as f64
    }
}

/// Summary of one latency sample for the report.
pub fn summary(values: &[f64]) -> Json {
    Json::obj([
        ("n", Json::Int(values.len() as u64)),
        ("p50", Json::Num(percentile(values, 0.5))),
        ("p90", Json::Num(percentile(values, 0.9))),
        ("p99", Json::Num(percentile(values, 0.99))),
        ("max", Json::Num(percentile(values, 1.0))),
        (
            "resolvable_percentile",
            Json::Num(resolvable_percentile(values.len())),
        ),
    ])
}

/// Peak resident memory of this process so far (kB), when the platform
/// reports it: the benchmark's client, gate and in-process server together.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
