//! Counters, gauges, log-binned histograms, and numeric series.
//!
//! All metrics live in one global registry keyed by name; handles are
//! lightweight name wrappers so call sites read naturally
//! (`counter("sim/measurements").add(30)`). Histograms bin on a
//! logarithmic scale (four bins per doubling) covering `2^-20 .. 2^44`,
//! which spans sub-microsecond to multi-hour values when recording
//! milliseconds; percentile queries return the geometric center of the
//! selected bin.

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Bins per doubling of the recorded value.
const BINS_PER_DOUBLING: f64 = 4.0;
/// Exponent offset: bin 0 corresponds to `2^-20`.
const EXP_OFFSET: f64 = 20.0;
/// Total number of bins (covers `2^-20` through `2^44`).
const NUM_BINS: usize = 256;

/// Number of log bins every histogram uses — cumulative and windowed
/// histograms share one binning scheme so their quantiles agree.
pub const LOG_BINS: usize = NUM_BINS;

/// Bin index for a value under the shared log-binning scheme
/// (non-finite and non-positive values land in bin 0).
pub fn log_bin_index(value: f64) -> usize {
    Histogram::bin_index(value)
}

/// Value at quantile `q` of a merged bin array with `count` total
/// samples. Shared by cumulative and windowed summaries so both report
/// the same approximation: the geometric center of the bin containing
/// the exact order statistic.
pub(crate) fn bins_quantile(bins: &[u64], count: u64, q: f64) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let target = (q.clamp(0.0, 1.0) * count as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (idx, &n) in bins.iter().enumerate() {
        seen += n;
        if seen >= target {
            return Histogram::bin_value(idx);
        }
    }
    Histogram::bin_value(NUM_BINS - 1)
}

#[derive(Debug, Clone)]
struct Histogram {
    bins: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    fn new() -> Self {
        Self {
            bins: vec![0; NUM_BINS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bin_index(value: f64) -> usize {
        if !value.is_finite() || value <= 0.0 {
            return 0;
        }
        let idx = (value.log2() + EXP_OFFSET) * BINS_PER_DOUBLING;
        idx.clamp(0.0, (NUM_BINS - 1) as f64) as usize
    }

    /// Geometric center of a bin, the representative value for quantiles.
    fn bin_value(index: usize) -> f64 {
        let exp = (index as f64 + 0.5) / BINS_PER_DOUBLING - EXP_OFFSET;
        exp.exp2()
    }

    fn record(&mut self, value: f64) {
        self.bins[Self::bin_index(value)] += 1;
        self.count += 1;
        if value.is_finite() {
            self.sum += value;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
    }

    /// Value at quantile `q` in `[0, 1]`, approximated by bin centers.
    fn quantile(&self, q: f64) -> f64 {
        bins_quantile(&self.bins, self.count, q)
    }

    fn summarize(&self, name: &str) -> HistogramSummary {
        HistogramSummary {
            name: name.to_string(),
            count: self.count,
            mean: if self.count == 0 {
                0.0
            } else {
                self.sum / self.count as f64
            },
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            min: if self.min.is_finite() { self.min } else { 0.0 },
            max: if self.max.is_finite() { self.max } else { 0.0 },
        }
    }
}

/// Percentile summary of one histogram, as embedded in run reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Histogram name.
    pub name: String,
    /// Number of recorded values.
    pub count: u64,
    /// Exact arithmetic mean of recorded (finite) values.
    pub mean: f64,
    /// Median, approximated by the log-bin's geometric center.
    pub p50: f64,
    /// 95th percentile (log-bin approximation).
    pub p95: f64,
    /// 99th percentile (log-bin approximation).
    pub p99: f64,
    /// Exact minimum recorded value.
    pub min: f64,
    /// Exact maximum recorded value.
    pub max: f64,
}

#[derive(Debug, Default)]
struct Metrics {
    counters: HashMap<String, u64>,
    gauges: HashMap<String, f64>,
    histograms: HashMap<String, Histogram>,
    series: HashMap<String, Vec<f64>>,
}

static METRICS: RwLock<Option<Metrics>> = RwLock::new(None);

fn with_metrics<R>(f: impl FnOnce(&mut Metrics) -> R) -> R {
    let mut metrics = METRICS.write();
    f(metrics.get_or_insert_with(Metrics::default))
}

/// Handle to a named monotonic counter.
pub struct CounterHandle(String);

impl CounterHandle {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        with_metrics(|m| *m.counters.entry(self.0.clone()).or_insert(0) += n);
    }

    /// Adds 1 to the counter.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (0 if never written).
    pub fn get(&self) -> u64 {
        METRICS
            .read()
            .as_ref()
            .and_then(|m| m.counters.get(&self.0).copied())
            .unwrap_or(0)
    }
}

/// Returns a handle to the named counter.
pub fn counter(name: &str) -> CounterHandle {
    CounterHandle(name.to_string())
}

/// Handle to a named gauge (last-write-wins scalar).
pub struct GaugeHandle(String);

impl GaugeHandle {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        with_metrics(|m| {
            m.gauges.insert(self.0.clone(), value);
        });
    }

    /// Current value, if ever set.
    pub fn get(&self) -> Option<f64> {
        METRICS
            .read()
            .as_ref()
            .and_then(|m| m.gauges.get(&self.0).copied())
    }
}

/// Returns a handle to the named gauge.
pub fn gauge(name: &str) -> GaugeHandle {
    GaugeHandle(name.to_string())
}

/// Handle to a named log-binned histogram.
pub struct HistogramHandle(String);

impl HistogramHandle {
    /// Records one value.
    pub fn record(&self, value: f64) {
        with_metrics(|m| {
            m.histograms
                .entry(self.0.clone())
                .or_insert_with(Histogram::new)
                .record(value)
        });
    }

    /// Percentile summary, if the histogram has any samples.
    pub fn summary(&self) -> Option<HistogramSummary> {
        METRICS
            .read()
            .as_ref()
            .and_then(|m| m.histograms.get(&self.0))
            .map(|h| h.summarize(&self.0))
    }
}

/// Returns a handle to the named histogram.
pub fn histogram(name: &str) -> HistogramHandle {
    HistogramHandle(name.to_string())
}

/// Handle to a named append-only numeric series (e.g. per-round RMSE).
pub struct SeriesHandle(String);

impl SeriesHandle {
    /// Appends one value.
    pub fn push(&self, value: f64) {
        with_metrics(|m| m.series.entry(self.0.clone()).or_default().push(value));
    }

    /// Appends every value in order.
    pub fn extend(&self, values: &[f64]) {
        with_metrics(|m| {
            m.series
                .entry(self.0.clone())
                .or_default()
                .extend_from_slice(values)
        });
    }

    /// Snapshot of the series so far.
    pub fn get(&self) -> Vec<f64> {
        METRICS
            .read()
            .as_ref()
            .and_then(|m| m.series.get(&self.0).cloned())
            .unwrap_or_default()
    }
}

/// Returns a handle to the named series.
pub fn series(name: &str) -> SeriesHandle {
    SeriesHandle(name.to_string())
}

/// All counters, sorted by name.
pub fn counters_snapshot() -> Vec<(String, u64)> {
    let mut out: Vec<_> = METRICS
        .read()
        .as_ref()
        .map(|m| m.counters.iter().map(|(k, v)| (k.clone(), *v)).collect())
        .unwrap_or_default();
    out.sort_by(|a: &(String, u64), b| a.0.cmp(&b.0));
    out
}

/// All gauges, sorted by name.
pub fn gauges_snapshot() -> Vec<(String, f64)> {
    let mut out: Vec<_> = METRICS
        .read()
        .as_ref()
        .map(|m| m.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect())
        .unwrap_or_default();
    out.sort_by(|a: &(String, f64), b| a.0.cmp(&b.0));
    out
}

/// Summaries of all histograms, sorted by name.
pub fn histogram_snapshot() -> Vec<HistogramSummary> {
    let mut out: Vec<_> = METRICS
        .read()
        .as_ref()
        .map(|m| m.histograms.iter().map(|(k, h)| h.summarize(k)).collect())
        .unwrap_or_default();
    out.sort_by(|a: &HistogramSummary, b| a.name.cmp(&b.name));
    out
}

/// All series, sorted by name.
pub fn series_snapshot() -> Vec<(String, Vec<f64>)> {
    let mut out: Vec<_> = METRICS
        .read()
        .as_ref()
        .map(|m| {
            m.series
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect()
        })
        .unwrap_or_default();
    out.sort_by(|a: &(String, Vec<f64>), b| a.0.cmp(&b.0));
    out
}

/// Clears every metric.
pub fn reset() {
    *METRICS.write() = None;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let c = counter("m_test_counter");
        c.add(3);
        c.incr();
        assert_eq!(c.get(), 4);
    }

    #[test]
    fn gauges_take_last_write() {
        let g = gauge("m_test_gauge");
        assert_eq!(g.get(), None);
        g.set(2.0);
        g.set(7.5);
        assert_eq!(g.get(), Some(7.5));
    }

    #[test]
    fn histogram_bins_are_monotone_in_value() {
        // Binning must preserve order: a larger value never lands in a
        // smaller bin.
        let values = [0.001, 0.01, 0.1, 1.0, 2.0, 4.0, 100.0, 1e6];
        for pair in values.windows(2) {
            assert!(
                Histogram::bin_index(pair[0]) <= Histogram::bin_index(pair[1]),
                "{} vs {}",
                pair[0],
                pair[1]
            );
        }
        // Values a doubling apart are BINS_PER_DOUBLING bins apart.
        assert_eq!(
            Histogram::bin_index(8.0) - Histogram::bin_index(4.0),
            BINS_PER_DOUBLING as usize
        );
    }

    #[test]
    fn histogram_percentiles_bracket_the_data() {
        let h = histogram("m_test_hist");
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let s = h.summary().unwrap();
        assert_eq!(s.count, 1000);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 1000.0);
        assert!((s.mean - 500.5).abs() < 1e-9);
        // Log-binned quantiles are approximate: within one quarter-
        // doubling (factor 2^0.25 ≈ 1.19) of the exact answer.
        let tol = 2f64.powf(0.3);
        assert!(s.p50 > 500.0 / tol && s.p50 < 500.0 * tol, "p50={}", s.p50);
        assert!(s.p95 > 950.0 / tol && s.p95 < 950.0 * tol, "p95={}", s.p95);
        assert!(s.p99 > 990.0 / tol && s.p99 < 990.0 * tol, "p99={}", s.p99);
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99);
    }

    #[test]
    fn histogram_handles_degenerate_inputs() {
        let h = histogram("m_test_hist_degenerate");
        h.record(0.0);
        h.record(-5.0);
        h.record(f64::NAN);
        let s = h.summary().unwrap();
        assert_eq!(s.count, 3);
        assert!(s.p50.is_finite());
    }

    #[test]
    fn series_preserve_order() {
        let s = series("m_test_series");
        s.push(3.0);
        s.extend(&[2.0, 1.0]);
        assert_eq!(s.get(), vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn snapshots_are_sorted() {
        counter("m_snap_b").incr();
        counter("m_snap_a").incr();
        let names: Vec<String> = counters_snapshot()
            .into_iter()
            .map(|(n, _)| n)
            .filter(|n| n.starts_with("m_snap_"))
            .collect();
        assert_eq!(names, vec!["m_snap_a".to_string(), "m_snap_b".to_string()]);
    }
}
