//! Lock-cheap metrics: counters, gauges and log2-bucketed histograms.
//!
//! Handles returned by the [`MetricsRegistry`] are `Arc`-shared atomics:
//! registration and snapshotting take the registry lock, but every update
//! on a handle is a single atomic operation, so instrumented hot paths
//! never contend on the registry itself. All metrics are cumulative over
//! the registry's lifetime; [`MetricsRegistry::snapshot`] freezes them
//! into a serde-serializable [`MetricsSnapshot`].

use dtm_sim::{log2_bucket, Log2Histogram, LOG2_BUCKETS};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Instantaneous signed value (e.g. current live-set size).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Raise the value to at least `v` (peak tracking).
    pub fn record_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Log2-bucketed histogram of `u64` samples.
///
/// Bucketing is exponential, which suits the long-tailed quantities this
/// workspace measures (queue waits, hop counts, live-set sizes): relative
/// resolution is constant across 19 orders of magnitude at the 65
/// buckets of [`dtm_sim::log2_bucket`], and recording is one atomic add
/// plus min/max updates.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; LOG2_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[log2_bucket(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Overwrite with the samples of `src`: the same 65 log2 buckets,
    /// so this equals recording them into an empty histogram (the `u64`
    /// sum wraps as [`Histogram::record`]'s does).
    pub fn store_log2(&self, src: &Log2Histogram) {
        for (bucket, &n) in self.buckets.iter().zip(src.buckets()) {
            bucket.store(n, Ordering::Relaxed);
        }
        let min = Some(src.min()).filter(|_| src.count() > 0);
        self.count.store(src.count(), Ordering::Relaxed);
        self.sum.store(src.sum() as u64, Ordering::Relaxed);
        self.min.store(min.unwrap_or(u64::MAX), Ordering::Relaxed);
        self.max.store(src.max(), Ordering::Relaxed);
    }

    /// Freeze into a serializable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c == 0 {
                continue;
            }
            let (lo, hi) = if i == 0 {
                (0, 0)
            } else {
                (
                    1u64 << (i - 1),
                    (1u64 << (i - 1)).wrapping_mul(2).wrapping_sub(1),
                )
            };
            buckets.push(HistogramBucket { lo, hi, count: c });
        }
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// One non-empty histogram bucket.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Smallest value the bucket holds.
    pub lo: u64,
    /// Largest value the bucket holds (inclusive).
    pub hi: u64,
    /// Samples recorded in `[lo, hi]`.
    pub count: u64,
}

/// Frozen histogram state.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (wrapping at `u64::MAX`).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Non-empty buckets in ascending value order.
    pub buckets: Vec<HistogramBucket>,
}

impl HistogramSnapshot {
    /// Mean sample value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    histograms: BTreeMap<String, Arc<Histogram>>,
}

/// Named metrics, registered on first use.
///
/// The registry is cheap to share (`Arc<MetricsRegistry>`); hot paths
/// should hold on to the `Arc<Counter>` / `Arc<Histogram>` handles rather
/// than re-looking them up by name.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Get or register the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut inner = self.inner.lock();
        Arc::clone(inner.counters.entry(name.to_string()).or_default())
    }

    /// Get or register the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut inner = self.inner.lock();
        Arc::clone(inner.gauges.entry(name.to_string()).or_default())
    }

    /// Get or register the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut inner = self.inner.lock();
        Arc::clone(inner.histograms.entry(name.to_string()).or_default())
    }

    /// Freeze every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Serializable dump of a whole registry at one moment.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Pretty JSON rendering (the sidecar file format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge() {
        let r = MetricsRegistry::new();
        let c = r.counter("commits");
        c.inc();
        c.add(4);
        // Re-registration returns the same handle.
        assert_eq!(r.counter("commits").get(), 5);
        let g = r.gauge("live");
        g.set(7);
        g.add(-3);
        g.record_max(2);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(u64::MAX), 64);

        let h = Histogram::default();
        for v in [0, 1, 2, 3, 900] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 906);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 900);
        // Buckets: {0}, {1}, {2,3}, {512..1023}.
        assert_eq!(s.buckets.len(), 4);
        assert_eq!(
            s.buckets[0],
            HistogramBucket {
                lo: 0,
                hi: 0,
                count: 1
            }
        );
        assert_eq!(
            s.buckets[2],
            HistogramBucket {
                lo: 2,
                hi: 3,
                count: 2
            }
        );
        assert_eq!(
            s.buckets[3],
            HistogramBucket {
                lo: 512,
                hi: 1023,
                count: 1
            }
        );
        assert!((s.mean() - 181.2).abs() < 1e-9);
    }

    #[test]
    fn bucket_index_boundaries() {
        // Zero gets its own bucket; otherwise bucket `1 + floor(log2 v)`.
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        // Every power of two opens a new bucket; its predecessor closes the
        // previous one.
        for shift in 1..64u32 {
            let p = 1u64 << shift;
            assert_eq!(log2_bucket(p), shift as usize + 1, "at 2^{shift}");
            assert_eq!(log2_bucket(p - 1), shift as usize, "at 2^{shift} - 1");
        }
        assert_eq!(log2_bucket(u64::MAX), 64);
        // The largest index fits the fixed bucket array.
        assert!(log2_bucket(u64::MAX) < LOG2_BUCKETS);
    }

    #[test]
    fn concurrent_recording_counts_exactly() {
        use rayon::prelude::*;

        // Hammer one histogram from the real thread pool: every sample must
        // land (count, sum and per-bucket tallies are all atomic adds, so
        // nothing may be lost to a race).
        const WRITERS: u64 = 8;
        const PER_WRITER: u64 = 10_000;
        let h = Histogram::default();
        rayon::with_num_threads(8, || {
            (0..WRITERS).into_par_iter().for_each(|w| {
                for i in 0..PER_WRITER {
                    h.record(w * PER_WRITER + i);
                }
            });
        });
        let s = h.snapshot();
        assert_eq!(s.count, WRITERS * PER_WRITER);
        let n = WRITERS * PER_WRITER;
        assert_eq!(s.sum, n * (n - 1) / 2);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, n - 1);
        assert_eq!(s.buckets.iter().map(|b| b.count).sum::<u64>(), n);
    }

    /// Copying a kernel `Log2Histogram` gives the snapshot that
    /// recording the same samples would, empty or not.
    #[test]
    fn store_log2_equals_recording_the_samples() {
        let samples = [0u64, 1, 2, 3, 7, 8, 1000, u64::MAX];
        for n in [0, 1, samples.len()] {
            let mut src = Log2Histogram::new();
            let recorded = Histogram::default();
            for &v in &samples[..n] {
                src.record(v);
                recorded.record(v);
            }
            let stored = Histogram::default();
            stored.record(5); // overwritten, not added to
            stored.store_log2(&src);
            assert_eq!(stored.snapshot(), recorded.snapshot(), "{n} samples");
        }
    }

    #[test]
    fn empty_histogram_snapshot() {
        let h = Histogram::default();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert!(s.buckets.is_empty());
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let r = MetricsRegistry::new();
        r.counter("a").add(3);
        r.gauge("b").set(-2);
        r.histogram("c").record(17);
        let snap = r.snapshot();
        let json = snap.to_json();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.counters["a"], 3);
        assert_eq!(back.gauges["b"], -2);
        assert_eq!(back.histograms["c"].count, 1);
    }
}
