//! Mergeable metrics: atomic counters, gauges, and fixed-boundary
//! log₂-bucket histograms.
//!
//! The histogram is the load-bearing piece: bucket boundaries are fixed
//! (log₂ octaves subdivided into 16 linear sub-buckets, values below 32
//! exact), so merging two histograms is element-wise addition and is
//! therefore *exact* — the merged quantile equals the quantile of the union
//! of the underlying samples to within one bucket width (≤ 1/16 of an
//! octave, i.e. ≤ 6.25% relative error). This replaces cross-worker
//! reservoir/quantile blending, which distorts merged tail quantiles.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of linear sub-buckets per octave, as a power of two.
const SUB_BITS: u32 = 4;
/// Sub-buckets per octave (16).
const SUB: u64 = 1 << SUB_BITS;
/// Values below this are stored in exact unit-width buckets.
const EXACT_LIMIT: u64 = 2 * SUB; // 32
/// Total bucket count: 32 exact + 16 per octave for exponents 5..=63.
pub const NUM_BUCKETS: usize = EXACT_LIMIT as usize + (63 - SUB_BITS as usize) * SUB as usize;

/// Bucket index for a value. Fixed boundaries: identical across all
/// histogram instances, which is what makes merges exact.
pub fn bucket_index(v: u64) -> usize {
    if v < EXACT_LIMIT {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // >= SUB_BITS + 1
    let sub = (v >> (exp - SUB_BITS)) & (SUB - 1);
    EXACT_LIMIT as usize + ((exp - SUB_BITS - 1) as usize) * SUB as usize + sub as usize
}

/// Inclusive `(low, high)` value bounds of a bucket.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < EXACT_LIMIT as usize {
        return (index as u64, index as u64);
    }
    let rel = index - EXACT_LIMIT as usize;
    let exp = SUB_BITS + 1 + (rel / SUB as usize) as u32;
    let sub = (rel % SUB as usize) as u64;
    let width = 1u64 << (exp - SUB_BITS);
    let lo = (SUB + sub) << (exp - SUB_BITS);
    (lo, lo + (width - 1))
}

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed gauge with a high-water mark.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
    high_water: AtomicI64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge to `v`, updating the high-water mark.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
        self.high_water.fetch_max(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative), updating the high-water mark.
    pub fn add(&self, delta: i64) -> i64 {
        let now = self.value.fetch_add(delta, Ordering::Relaxed) + delta;
        self.high_water.fetch_max(now, Ordering::Relaxed);
        now
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Highest value ever set/reached.
    pub fn high_water(&self) -> i64 {
        self.high_water.load(Ordering::Relaxed)
    }
}

/// A fixed-boundary log₂-bucket histogram over `u64` samples
/// (conventionally nanoseconds). Thread-safe; recording is one atomic add.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration in seconds (stored as whole nanoseconds).
    pub fn record_secs(&self, secs: f64) {
        self.record((secs.max(0.0) * 1e9).round() as u64);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies the current state into a plain-data snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of a [`LogHistogram`]. Merging two snapshots is exact
/// (element-wise bucket addition); quantiles are bucket-exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts ([`NUM_BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { buckets: vec![0; NUM_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

impl HistogramSnapshot {
    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Records one sample directly into the snapshot — the
    /// single-threaded accumulation path (an owned histogram inside a
    /// `&mut` recorder); the atomic [`LogHistogram`] covers concurrent
    /// recording.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records a duration in seconds (stored as whole nanoseconds).
    pub fn record_secs(&mut self, secs: f64) {
        self.record((secs.max(0.0) * 1e9).round() as u64);
    }

    /// Exact merge: the result is identical to a histogram built from the
    /// union of both sample sets.
    pub fn merged_with(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = self.buckets.clone();
        buckets.resize(NUM_BUCKETS, 0);
        for (b, o) in buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        HistogramSnapshot {
            buckets,
            count: self.count + other.count,
            // Saturate rather than wrap: durations near u64::MAX are
            // nonsense inputs, but they must not panic a debug build.
            sum: self.sum.saturating_add(other.sum),
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// The `q`-quantile (`0.0..=1.0`), bucket-exact: returns the upper bound
    /// of the bucket containing the rank-⌈q·n⌉ sample, clamped to the
    /// observed min/max. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let (lo, hi) = bucket_bounds(i);
                return hi.clamp(lo.max(self.min), self.max);
            }
        }
        self.max
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A named registry of counters, gauges, and histograms.
///
/// Handles are `Arc`s: fetch once on a hot path, then update lock-free.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<LogHistogram>>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The process-global registry.
    pub fn global() -> &'static MetricsRegistry {
        static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
        GLOBAL.get_or_init(MetricsRegistry::new)
    }

    /// Gets or creates the named counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("metrics registry poisoned");
        Arc::clone(map.entry(name.to_owned()).or_default())
    }

    /// Gets or creates the named gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("metrics registry poisoned");
        Arc::clone(map.entry(name.to_owned()).or_default())
    }

    /// Gets or creates the named histogram.
    pub fn histogram(&self, name: &str) -> Arc<LogHistogram> {
        let mut map = self.histograms.lock().expect("metrics registry poisoned");
        Arc::clone(map.entry(name.to_owned()).or_default())
    }

    /// Removes every metric. Intended for tests and examples that want a
    /// clean slate on the global registry.
    pub fn reset(&self) {
        self.counters.lock().expect("metrics registry poisoned").clear();
        self.gauges.lock().expect("metrics registry poisoned").clear();
        self.histograms.lock().expect("metrics registry poisoned").clear();
    }

    /// Renders all metrics as an aligned text table.
    pub fn export_table(&self) -> String {
        let mut out = String::new();
        let counters = self.counters.lock().expect("metrics registry poisoned");
        if !counters.is_empty() {
            out.push_str("counters\n");
            for (name, c) in counters.iter() {
                out.push_str(&format!("  {:<44} {:>14}\n", name, c.get()));
            }
        }
        drop(counters);
        let gauges = self.gauges.lock().expect("metrics registry poisoned");
        if !gauges.is_empty() {
            out.push_str("gauges\n");
            for (name, g) in gauges.iter() {
                out.push_str(&format!(
                    "  {:<44} {:>14}  (high water {})\n",
                    name,
                    g.get(),
                    g.high_water()
                ));
            }
        }
        drop(gauges);
        let histograms = self.histograms.lock().expect("metrics registry poisoned");
        if !histograms.is_empty() {
            out.push_str("histograms (ns)\n");
            for (name, h) in histograms.iter() {
                let s = h.snapshot();
                if s.is_empty() {
                    out.push_str(&format!("  {:<44} (empty)\n", name));
                } else {
                    out.push_str(&format!(
                        "  {:<44} count {:>8}  mean {:>12.0}  p50 {:>12}  p99 {:>12}  max {:>12}\n",
                        name,
                        s.count,
                        s.mean(),
                        s.quantile(0.50),
                        s.quantile(0.99),
                        s.max
                    ));
                }
            }
        }
        out
    }

    /// Renders all metrics as a JSON object. Histograms include their
    /// non-zero buckets as `[index, count]` pairs so external consumers can
    /// merge them exactly.
    pub fn export_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str("\"counters\":{");
        {
            let counters = self.counters.lock().expect("metrics registry poisoned");
            let mut first = true;
            for (name, c) in counters.iter() {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("\"{}\":{}", json_escape(name), c.get()));
            }
        }
        out.push_str("},\"gauges\":{");
        {
            let gauges = self.gauges.lock().expect("metrics registry poisoned");
            let mut first = true;
            for (name, g) in gauges.iter() {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!(
                    "\"{}\":{{\"value\":{},\"high_water\":{}}}",
                    json_escape(name),
                    g.get(),
                    g.high_water()
                ));
            }
        }
        out.push_str("},\"histograms\":{");
        {
            let histograms = self.histograms.lock().expect("metrics registry poisoned");
            let mut first = true;
            for (name, h) in histograms.iter() {
                if !first {
                    out.push(',');
                }
                first = false;
                let s = h.snapshot();
                let buckets: Vec<String> = s
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, &c)| format!("[{i},{c}]"))
                    .collect();
                out.push_str(&format!(
                    "\"{}\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p99\":{},\"buckets\":[{}]}}",
                    json_escape(name),
                    s.count,
                    s.sum,
                    if s.count == 0 { 0 } else { s.min },
                    s.max,
                    s.quantile(0.50),
                    s.quantile(0.99),
                    buckets.join(",")
                ));
            }
        }
        out.push_str("}}");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotonic_and_bounds_are_consistent() {
        let mut prev = 0usize;
        for v in 0..100_000u64 {
            let i = bucket_index(v);
            assert!(i >= prev, "index not monotonic at {v}");
            prev = i;
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "v={v} outside bounds of its bucket");
        }
        for shift in 5..63 {
            let v = 1u64 << shift;
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi);
            assert!(i < NUM_BUCKETS);
        }
        assert!(bucket_index(u64::MAX) < NUM_BUCKETS);
    }

    #[test]
    fn bucket_width_is_within_one_sixteenth_octave() {
        for v in [100u64, 1_000, 50_000, 1_000_000, u64::MAX / 2] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            // Width ≤ lo/16 → worst-case relative quantile error 6.25%.
            assert!(hi - lo <= lo / SUB, "bucket too wide at {v}: [{lo},{hi}]");
        }
    }

    #[test]
    fn quantile_matches_exact_rank_within_one_bucket() {
        let h = LogHistogram::new();
        let mut samples: Vec<u64> = (0..1000).map(|i| (i * i) % 700_000 + 1).collect();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        let snap = h.snapshot();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let rank = ((q * 1000f64).ceil() as usize).clamp(1, 1000) - 1;
            let exact = samples[rank];
            let approx = snap.quantile(q);
            assert_eq!(
                bucket_index(exact),
                bucket_index(approx),
                "q={q}: exact {exact} vs bucket-quantile {approx}"
            );
        }
    }

    #[test]
    fn merge_is_exact() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        let union = LogHistogram::new();
        for i in 0..500u64 {
            let v = i * 37 + 5;
            a.record(v);
            union.record(v);
        }
        for i in 0..300u64 {
            let v = i * 91 + 1_000_000;
            b.record(v);
            union.record(v);
        }
        assert_eq!(a.snapshot().merged_with(&b.snapshot()), union.snapshot());
    }

    #[test]
    fn gauge_tracks_high_water() {
        let g = Gauge::new();
        g.add(5);
        g.add(3);
        g.add(-6);
        assert_eq!(g.get(), 2);
        assert_eq!(g.high_water(), 8);
    }

    #[test]
    fn registry_exports_table_and_json() {
        let r = MetricsRegistry::new();
        r.counter("serve.requests").add(12);
        r.gauge("serve.queue_depth").set(3);
        r.histogram("serve.latency_ns").record(1500);
        let table = r.export_table();
        assert!(table.contains("serve.requests"));
        assert!(table.contains("12"));
        assert!(table.contains("serve.latency_ns"));
        let json = r.export_json();
        assert!(json.contains("\"serve.requests\":12"));
        assert!(json.contains("\"high_water\":3"));
        assert!(json.contains("\"count\":1"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}
