//! Live exposition: periodic [`MetricsSnapshot`] flushing and a
//! Prometheus text-format writer.
//!
//! The `--telemetry` sidecars write one snapshot at process exit; a
//! 10⁶-step open-system run wants its metrics *while it runs*.
//! [`PeriodicExposer`] re-snapshots a shared [`MetricsRegistry`] every
//! `every` steps and atomically rewrites one or two files: a JSON
//! snapshot (the existing sidecar schema) and/or a Prometheus
//! text-format rendering ([`prometheus_text`]) that a
//! node-exporter-style scrape (or a human with `watch cat`) can follow.
//! It is not an observer: the harness driving the kernel writes the
//! tick's values into the registry first and then asks
//! [`PeriodicExposer::due`] whether to flush, so every flush holds the
//! values as of the end of its step.
//!
//! Flushing overwrites in place via a write-then-rename so a reader
//! never sees a torn file; I/O errors are retained
//! ([`PeriodicExposer::last_error`]) instead of panicking inside the
//! run loop. The exposer does no timing and touches no engine state,
//! so it cannot perturb a run.

use crate::registry::{MetricsRegistry, MetricsSnapshot};
use dtm_model::Time;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Sanitize a metric name for the Prometheus exposition format:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`, everything else becomes `_`.
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Render a snapshot in the Prometheus text exposition format (v0.0.4).
///
/// Counters and gauges map directly. Each log2 histogram becomes a
/// Prometheus histogram with cumulative `_bucket{le="..."}` series (one
/// per non-empty log2 bucket, upper bound inclusive, plus `+Inf`),
/// `_sum` and `_count`. Output order is deterministic: counters, then
/// gauges, then histograms, each alphabetical (inherited from the
/// snapshot's sorted maps).
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, v) in &snap.counters {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} counter");
        let _ = writeln!(out, "{n} {v}");
    }
    for (name, v) in &snap.gauges {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} gauge");
        let _ = writeln!(out, "{n} {v}");
    }
    for (name, h) in &snap.histograms {
        let n = prom_name(name);
        let _ = writeln!(out, "# TYPE {n} histogram");
        let mut cumulative = 0u64;
        for b in &h.buckets {
            cumulative += b.count;
            let _ = writeln!(out, "{n}_bucket{{le=\"{}\"}} {cumulative}", b.hi);
        }
        let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{n}_sum {}", h.sum);
        let _ = writeln!(out, "{n}_count {}", h.count);
    }
    out
}

/// Write `text` to `path` atomically (write a sibling `.tmp`, then
/// rename over the target) so concurrent readers never see a torn file.
fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, path)
}

/// Periodically flushes a registry snapshot to disk. See the module
/// docs.
pub struct PeriodicExposer {
    registry: Arc<MetricsRegistry>,
    every: u64,
    json_path: Option<PathBuf>,
    prom_path: Option<PathBuf>,
    flushes: u64,
    last_error: Option<String>,
}

impl PeriodicExposer {
    /// Exposer flushing `registry` every `every` steps (clamped to ≥ 1).
    /// Add at least one output with [`with_json`](Self::with_json) /
    /// [`with_prom`](Self::with_prom); with none the exposer is inert.
    pub fn new(registry: Arc<MetricsRegistry>, every: u64) -> Self {
        PeriodicExposer {
            registry,
            every: every.max(1),
            json_path: None,
            prom_path: None,
            flushes: 0,
            last_error: None,
        }
    }

    /// Rewrite `path` with the JSON snapshot (sidecar schema) each flush.
    pub fn with_json(mut self, path: PathBuf) -> Self {
        self.json_path = Some(path);
        self
    }

    /// Rewrite `path` in Prometheus text format each flush.
    pub fn with_prom(mut self, path: PathBuf) -> Self {
        self.prom_path = Some(path);
        self
    }

    /// Completed flushes (a flush with both outputs counts once).
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Most recent I/O error, if any flush failed.
    pub fn last_error(&self) -> Option<&str> {
        self.last_error.as_deref()
    }

    /// Whether step `t` closes a cadence window: the last step of each
    /// window, so a run of exactly `every` steps flushes once, at its
    /// end. The harness calls [`flush_now`](Self::flush_now) when it is.
    pub fn due(&self, t: Time) -> bool {
        (t + 1).is_multiple_of(self.every)
    }

    /// Snapshot and write now, regardless of cadence. Harnesses call
    /// this once after the run so the files hold the final state.
    pub fn flush_now(&mut self) {
        let snap = self.registry.snapshot();
        let mut ok = true;
        if let Some(path) = &self.json_path {
            if let Err(e) = write_atomic(path, &snap.to_json()) {
                self.last_error = Some(format!("expose json to {}: {e}", path.display()));
                ok = false;
            }
        }
        if let Some(path) = &self.prom_path {
            if let Err(e) = write_atomic(path, &prometheus_text(&snap)) {
                self.last_error = Some(format!("expose prom to {}: {e}", path.display()));
                ok = false;
            }
        }
        if ok {
            self.flushes += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dtm-expose-{}-{name}", std::process::id()))
    }

    #[test]
    fn prometheus_text_renders_all_kinds() {
        let r = MetricsRegistry::new();
        r.counter("engine_steps").add(10);
        r.gauge("live.now").set(-3);
        let h = r.histogram("sojourn");
        h.record(0);
        h.record(1);
        h.record(5);
        let text = prometheus_text(&r.snapshot());
        assert!(text.contains("# TYPE engine_steps counter\nengine_steps 10\n"));
        // Dots sanitize to underscores.
        assert!(text.contains("# TYPE live_now gauge\nlive_now -3\n"));
        // Cumulative buckets: {0}→1, {1}→2, {4..7}→3, +Inf→3.
        assert!(text.contains("sojourn_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("sojourn_bucket{le=\"1\"} 2\n"));
        assert!(text.contains("sojourn_bucket{le=\"7\"} 3\n"));
        assert!(text.contains("sojourn_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("sojourn_sum 6\n"));
        assert!(text.contains("sojourn_count 3\n"));
    }

    #[test]
    fn prom_name_sanitizes() {
        assert_eq!(prom_name("a.b-c/d"), "a_b_c_d");
        assert_eq!(prom_name("9lives"), "_lives");
        assert_eq!(prom_name("ok_name:x9"), "ok_name:x9");
        assert_eq!(prom_name(""), "_");
    }

    #[test]
    fn flushes_at_cadence_and_rewrites_in_place() {
        let r = Arc::new(MetricsRegistry::new());
        let steps = r.counter("steps");
        let json = tmp("cadence.json");
        let prom = tmp("cadence.prom");
        let mut ex = PeriodicExposer::new(Arc::clone(&r), 10)
            .with_json(json.clone())
            .with_prom(prom.clone());
        for t in 0..25u64 {
            steps.inc();
            if ex.due(t) {
                ex.flush_now();
            }
        }
        // Cadence 10 over t = 0..25 flushes at t = 9 and t = 19.
        assert_eq!(ex.flushes(), 2);
        assert!(ex.last_error().is_none());
        let snap: MetricsSnapshot =
            serde_json::from_str(&std::fs::read_to_string(&json).expect("json readable"))
                .expect("sidecar schema");
        assert_eq!(snap.counters["steps"], 20, "flush at t=19 saw 20 steps");
        let text = std::fs::read_to_string(&prom).expect("prom readable");
        assert!(text.contains("steps 20"));
        ex.flush_now();
        assert_eq!(ex.flushes(), 3);
        let text = std::fs::read_to_string(&prom).expect("prom readable");
        assert!(text.contains("steps 25"), "final flush sees all steps");
        let _ = std::fs::remove_file(&json);
        let _ = std::fs::remove_file(&prom);
    }

    #[test]
    fn io_errors_are_retained_not_panicked() {
        let r = Arc::new(MetricsRegistry::new());
        let mut ex =
            PeriodicExposer::new(r, 1).with_json(PathBuf::from("/nonexistent-dir-dtm/expose.json"));
        ex.flush_now();
        assert_eq!(ex.flushes(), 0);
        let err = ex.last_error().expect("error retained");
        assert!(err.contains("expose json"), "{err}");
    }
}
