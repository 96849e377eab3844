//! Passes: one fixed-size, deterministic simulation of a workload.
//!
//! A run repeats passes until its time is up. Every pass of one workload
//! and seed starts from the same inputs, so its [`Counts`] must be equal
//! to the reference pass's; any difference is a determinism failure.

use crate::probe::{
    allocation_totals, count_allocations, KernelProbe, Shared, TracedObserver, TracedPolicy,
    TracedSource,
};
use crate::workload::{Input, Prepared, Size, SoakPolicy};
use dtm_core::GreedyPolicy;
use dtm_model::{Time, TraceSource, TxnId, WorkloadSource};
use dtm_sim::{
    percentile, validate_events, EngineConfig, SchedulingPolicy, StepEffects, StepKernel,
    ValidationConfig,
};
use dtm_telemetry::{
    flight_recorder, health_monitor, HealthConfig, HealthMonitorHandle, ObservabilityStack,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Flight-recorder ring size of the soak's observability stack.
const FLIGHT_K: usize = 1024;

/// Deterministic outputs of one pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Steps ticked.
    pub steps: u64,
    /// Transactions generated.
    pub arrived: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions aborted.
    pub aborted: u64,
    /// Edge traversals (Σ departed).
    pub hops: u64,
    /// Peak simultaneously live transactions.
    pub peak_live: u64,
    /// Transaction-arena slot high-water mark.
    pub arena_hwm: u64,
    /// Kernel violations.
    pub violations: u64,
    /// Health events, retained plus suppressed (soak only).
    pub health_events: u64,
}

impl Counts {
    fn add(&mut self, fx: &StepEffects) {
        self.steps += 1;
        self.arrived += fx.arrived.len() as u64;
        self.committed += fx.committed.len() as u64;
        self.aborted += fx.aborted.len() as u64;
        self.hops += fx.departed.len() as u64;
    }

    fn gauges<P: SchedulingPolicy, S: WorkloadSource>(&mut self, k: &StepKernel<P, S>) {
        self.peak_live = k.peak_live() as u64;
        self.arena_hwm = k.arena_high_water() as u64;
        self.violations = k.violations().len() as u64;
    }
}

/// The paper-level outputs the correctness gate pins for the default seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Transactions committed in one pass.
    pub committed: u64,
    /// Edge traversals in one pass.
    pub hops: u64,
    /// Median sojourn (commit − generation), in steps.
    pub sojourn_p50: Time,
    /// 99th-percentile sojourn, in steps.
    pub sojourn_p99: Time,
    /// Peak simultaneously live transactions.
    pub peak_live: u64,
}

/// Sojourn percentiles of a pass: nearest rank (pinned by the gate) and
/// grouped (reported as metrics; see [`grouped_percentile`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sojourn {
    /// Nearest-rank median, in steps.
    pub p50: Time,
    /// Nearest-rank 99th percentile, in steps.
    pub p99: Time,
    /// Grouped median, in steps.
    pub grouped_p50: f64,
    /// Grouped 99th percentile, in steps.
    pub grouped_p99: f64,
}

/// What the reference pass establishes for a run.
#[derive(Clone, Copy, Debug)]
pub struct Reference {
    /// Outputs every measured pass must reproduce.
    pub counts: Counts,
    /// Sojourn percentiles.
    pub sojourn: Sojourn,
}

impl Reference {
    fn new(counts: Counts, sojourn: Sojourn) -> Reference {
        Reference { counts, sojourn }
    }

    /// The outputs pinned for the default seed.
    pub fn fingerprint(&self) -> Fingerprint {
        Fingerprint {
            committed: self.counts.committed,
            hops: self.counts.hops,
            sojourn_p50: self.sojourn.p50,
            sojourn_p99: self.sojourn.p99,
            peak_live: self.counts.peak_live,
        }
    }
}

/// A pass's counts and its wall time from first tick to last.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// Deterministic outputs.
    pub counts: Counts,
    /// Wall nanoseconds (batch: including `finish`).
    pub wall_ns: u64,
}

/// Peaks and allocation counts a traced pass samples from outside the
/// kernel (the timing wrappers fill the rest of the [`crate::probe::LayerTrace`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct Sampled {
    /// Largest `map_stats().requester_entries` at a window boundary.
    pub requester_entries: u64,
    /// Largest `map_stats().forwarding_entries` at a window boundary.
    pub forwarding_entries: u64,
    /// Steps ticked while allocations were counted.
    pub alloc_steps: u64,
    /// Allocations counted.
    pub allocs: u64,
    /// Bytes requested by the counted allocations.
    pub alloc_bytes: u64,
}

fn observability() -> (ObservabilityStack, HealthMonitorHandle) {
    let monitor = health_monitor(HealthConfig::default());
    let stack = ObservabilityStack::new(flight_recorder(FLIGHT_K), Arc::clone(&monitor));
    (stack, monitor)
}

fn health_events(monitor: &HealthMonitorHandle) -> u64 {
    let m = monitor.lock();
    m.events().len() as u64 + m.suppressed()
}

/// Where a pass stops: `None` runs a batch until it drains, `Some(n)`
/// runs a stream for `n` steps.
fn ticking<P: SchedulingPolicy, S: WorkloadSource>(
    k: &StepKernel<P, S>,
    end: Option<Time>,
) -> bool {
    end.is_none_or(|e| k.now() < e)
}

/// Drive `k` with only per-window clock reads, pushing each window's
/// wall µs per step onto `windows`.
fn timed<P: SchedulingPolicy, S: WorkloadSource>(
    mut k: StepKernel<P, S>,
    end: Option<Time>,
    window: u64,
    windows: &mut Vec<f64>,
) -> Timed {
    let mut counts = Counts::default();
    let start = Instant::now();
    let mut mark = start;
    let mut in_window = 0u64;
    while ticking(&k, end) {
        let Some(fx) = k.tick() else { break };
        counts.add(fx);
        in_window += 1;
        if in_window == window {
            let now = Instant::now();
            windows.push((now - mark).as_nanos() as f64 / 1e3 / window as f64);
            mark = now;
            in_window = 0;
        }
    }
    counts.gauges(&k);
    // The batch's `finish()` is timed; dropping its result is not.
    let result = end.is_none().then(|| k.finish());
    let wall_ns = start.elapsed().as_nanos() as u64;
    if let Some(result) = result {
        counts.violations = result.violations.len() as u64;
    }
    Timed { counts, wall_ns }
}

/// Drive `k` timing every tick into `trace`, sampling the kernel's map
/// sizes at window boundaries and counting allocations from `warmup` on.
fn traced<P: SchedulingPolicy, S: WorkloadSource>(
    mut k: StepKernel<P, S>,
    end: Option<Time>,
    window: u64,
    warmup: Time,
    trace: &Shared,
    sampled: &mut Sampled,
) -> Timed {
    let mut counts = Counts::default();
    let mut alloc_base = None;
    let start = Instant::now();
    while ticking(&k, end) {
        if k.now() == warmup {
            count_allocations(true);
            alloc_base = Some((k.now(), allocation_totals()));
        }
        let t0 = Instant::now();
        let Some(fx) = k.tick() else { break };
        let tick_ns = t0.elapsed().as_nanos() as u64;
        counts.add(fx);
        trace.borrow_mut().tick_ns += tick_ns;
        if k.now().is_multiple_of(window) {
            let m = k.map_stats();
            sampled.requester_entries = sampled.requester_entries.max(m.requester_entries as u64);
            sampled.forwarding_entries =
                sampled.forwarding_entries.max(m.forwarding_entries as u64);
        }
    }
    count_allocations(false);
    if let Some((from, (allocs, bytes))) = alloc_base {
        let (a, b) = allocation_totals();
        sampled.alloc_steps += k.now() - from;
        sampled.allocs += a - allocs;
        sampled.alloc_bytes += b - bytes;
    }
    counts.gauges(&k);
    if end.is_none() {
        counts.violations = k.finish().violations.len() as u64;
    }
    Timed {
        counts,
        wall_ns: start.elapsed().as_nanos() as u64,
    }
}

/// Exact sojourn samples of the transactions generated at or after
/// `warmup`, folded from the effects each tick returns.
#[derive(Default)]
struct SojournFold {
    born: HashMap<TxnId, Time>,
    samples: Vec<Time>,
}

impl SojournFold {
    fn add(&mut self, fx: &StepEffects, warmup: Time) {
        if fx.t >= warmup {
            for &id in &fx.arrived {
                self.born.insert(id, fx.t);
            }
        }
        for id in &fx.committed {
            if let Some(generated) = self.born.remove(id) {
                self.samples.push(fx.t - generated);
            }
        }
    }
}

/// Percentile `p` of sorted integer samples, interpolated within the
/// run of samples tied at the nearest-rank value `v` (the grouped-data
/// percentile, treating `v` as the unit interval around it). It lies in
/// `(v - 0.5, v + 0.5]`, so it resolves a shift of the distribution that
/// moves the nearest-rank value by less than one step.
pub fn grouped_percentile(sorted: &[Time], p: f64) -> f64 {
    let v = percentile(sorted, p);
    let below = sorted.partition_point(|&x| x < v);
    let tied = sorted.partition_point(|&x| x <= v) - below;
    let position = p * sorted.len() as f64;
    v as f64 - 0.5 + (position - below as f64) / tied as f64
}

/// The sojourn sample's nearest-rank and grouped p50 and p99.
fn sojourn(mut samples: Vec<Time>) -> Result<Sojourn, String> {
    if samples.len() < 1000 {
        return Err(format!(
            "only {} sojourn samples; p99 needs at least 1000",
            samples.len()
        ));
    }
    samples.sort_unstable();
    Ok(Sojourn {
        p50: percentile(&samples, 0.50),
        p99: percentile(&samples, 0.99),
        grouped_p50: grouped_percentile(&samples, 0.50),
        grouped_p99: grouped_percentile(&samples, 0.99),
    })
}

/// Upper bound of the log2 bucket holding `v`, as `Log2Histogram` reports.
fn log2_bucket_upper(v: Time) -> Time {
    match v {
        0 => 0,
        v if v.leading_zeros() == 0 => Time::MAX,
        v => (1 << (Time::BITS - v.leading_zeros())) - 1,
    }
}

/// Untimed stream pass folding exact sojourns, cross-checked against the
/// kernel's own bucketed histogram. The counts are those after
/// `pass_steps`, the length of a timed pass; the sojourn sample runs on to
/// `reference_steps`.
fn stream_reference<P: SchedulingPolicy, S: WorkloadSource>(
    mut k: StepKernel<P, S>,
    pass_steps: Time,
    reference_steps: Time,
    warmup: Time,
) -> Result<Reference, String> {
    let mut counts = Counts::default();
    let mut at_pass_end = None;
    let mut fold = SojournFold::default();
    while k.now() < reference_steps {
        let Some(fx) = k.tick() else { break };
        counts.add(fx);
        fold.add(fx, warmup);
        if k.now() == pass_steps {
            let mut c = counts;
            c.gauges(&k);
            at_pass_end = Some(c);
        }
    }
    let counts = at_pass_end.ok_or("reference pass ended before a timed pass would")?;
    let hist = k.sojourn_latency();
    if hist.count() != fold.samples.len() as u64 {
        return Err(format!(
            "sojourn histogram holds {} samples, effects give {}",
            hist.count(),
            fold.samples.len()
        ));
    }
    let sojourn = sojourn(fold.samples)?;
    for (p, exact) in [(0.50, sojourn.p50), (0.99, sojourn.p99)] {
        let bucketed = log2_bucket_upper(exact).min(hist.max());
        if hist.percentile(p) != bucketed {
            return Err(format!(
                "sojourn p{} is {exact}, but the kernel's histogram reports {} (expected {bucketed})",
                p * 100.0,
                hist.percentile(p)
            ));
        }
    }
    Ok(Reference::new(counts, sojourn))
}

impl Prepared {
    fn end(&self) -> Option<Time> {
        match self.input {
            Input::Batch(_) => None,
            _ => Some(self.size.steps),
        }
    }

    fn batch_source(&self) -> TraceSource {
        match &self.input {
            Input::Batch(instance) => TraceSource::new(instance.clone()),
            _ => unreachable!("batch_source on a stream workload"),
        }
    }

    /// One untimed pass whose outputs every measured pass must reproduce.
    pub fn reference_pass(&self) -> Result<Reference, String> {
        let Size {
            steps,
            warmup,
            reference_steps,
            ..
        } = self.size;
        match &self.input {
            Input::Batch(_) => {
                let mut k = self
                    .engine(GreedyPolicy::new())
                    .into_kernel(self.batch_source());
                let mut counts = Counts::default();
                while let Some(fx) = k.tick() {
                    counts.add(fx);
                }
                counts.gauges(&k);
                let result = k.finish();
                counts.violations = result.violations.len() as u64;
                if result.metrics.hops != counts.hops
                    || result.metrics.committed as u64 != counts.committed
                {
                    return Err(format!(
                        "run result reports {} commits / {} hops, effects give {} / {}",
                        result.metrics.committed,
                        result.metrics.hops,
                        counts.committed,
                        counts.hops
                    ));
                }
                let samples: Vec<Time> = result.latencies().into_iter().map(|(_, l)| l).collect();
                Ok(Reference::new(counts, sojourn(samples)?))
            }
            Input::Stream(source) => stream_reference(
                self.engine(GreedyPolicy::new()).into_kernel(source.clone()),
                steps,
                reference_steps,
                warmup,
            ),
            Input::Soak(source, SoakPolicy::Plain(policy)) => {
                let (stack, monitor) = observability();
                let k = self
                    .engine(policy.clone())
                    .with_observer(stack)
                    .into_kernel(source.clone());
                let mut reference = stream_reference(k, steps, reference_steps, warmup)?;
                reference.counts.health_events = health_events(&monitor);
                Ok(reference)
            }
            Input::Soak(_, SoakPolicy::Traced(_)) => {
                Err("reference pass needs the untraced soak policy".into())
            }
        }
    }

    /// One untraced pass: the library exactly as a user runs it, timed
    /// per window only.
    pub fn timed_pass(&self, windows: &mut Vec<f64>) -> Timed {
        let (end, window) = (self.end(), self.size.window);
        match &self.input {
            Input::Batch(_) => timed(
                self.engine(GreedyPolicy::new())
                    .into_kernel(self.batch_source()),
                end,
                window,
                windows,
            ),
            Input::Stream(source) => timed(
                self.engine(GreedyPolicy::new()).into_kernel(source.clone()),
                end,
                window,
                windows,
            ),
            Input::Soak(source, SoakPolicy::Plain(policy)) => {
                let (stack, monitor) = observability();
                let k = self
                    .engine(policy.clone())
                    .with_observer(stack)
                    .into_kernel(source.clone());
                let mut out = timed(k, end, window, windows);
                out.counts.health_events = health_events(&monitor);
                out
            }
            Input::Soak(_, SoakPolicy::Traced(_)) => {
                unreachable!("timed pass on the traced soak set-up")
            }
        }
    }

    /// One traced pass: every layer wrapped, every tick timed.
    pub fn traced_pass(&self, trace: &Shared, sampled: &mut Sampled) -> Timed {
        let (end, window, warmup) = (self.end(), self.size.window, self.size.warmup);
        let probe = || KernelProbe(trace.clone());
        match &self.input {
            Input::Batch(_) => {
                let k = self
                    .engine(TracedPolicy::new(GreedyPolicy::new(), trace.clone()))
                    .with_observer(probe())
                    .into_kernel(TracedSource::new(self.batch_source(), trace.clone()));
                traced(k, end, window, warmup, trace, sampled)
            }
            Input::Stream(s) => {
                let k = self
                    .engine(TracedPolicy::new(GreedyPolicy::new(), trace.clone()))
                    .with_observer(probe())
                    .into_kernel(TracedSource::new(s.clone(), trace.clone()));
                traced(k, end, window, warmup, trace, sampled)
            }
            Input::Soak(s, SoakPolicy::Traced(p)) => {
                let (stack, monitor) = observability();
                let k = self
                    .engine(TracedPolicy::new(p.clone(), trace.clone()))
                    .with_observer(probe())
                    .with_observer(TracedObserver::new(stack, trace.clone()))
                    .into_kernel(TracedSource::new(s.clone(), trace.clone()));
                let mut out = traced(k, end, window, warmup, trace, sampled);
                out.counts.health_events = health_events(&monitor);
                out
            }
            Input::Soak(_, SoakPolicy::Plain(_)) => {
                unreachable!("traced pass on the untraced soak set-up")
            }
        }
    }

    /// Batch only: replay once with the event log on and check it with
    /// `validate_events` (conflict-freedom and movement consistency).
    pub fn validate_batch(&self, committed: u64) -> Result<(), String> {
        let config = EngineConfig {
            record_events: true,
            ..self.config.clone()
        };
        let result = dtm_sim::Engine::new(self.net.clone(), GreedyPolicy::new(), config)
            .run(self.batch_source());
        match validate_events(&self.net, &result, &ValidationConfig::default()) {
            Ok(n) if n as u64 == committed => Ok(()),
            Ok(n) => Err(format!(
                "validator checked {n} commits, the pass made {committed}"
            )),
            Err(e) => Err(format!("event validation failed: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_sim::Log2Histogram;

    #[test]
    fn grouped_percentile_interpolates_within_ties() {
        let sorted = [1, 2, 2, 2, 3];
        // Nearest rank 3 of 5 is 2; 2.5 of the 5 lie below the median,
        // 1 strictly below 2, so 1.5 of the 3 tied samples: 1.5 + 1.5 / 3.
        assert!((grouped_percentile(&sorted, 0.5) - 2.0).abs() < 1e-12);
        assert!((grouped_percentile(&sorted, 0.99) - 3.45).abs() < 1e-12);
        let distinct = [10, 20, 30, 40];
        assert!((grouped_percentile(&distinct, 0.5) - 20.5).abs() < 1e-12);
    }

    #[test]
    fn bucket_upper_matches_the_kernel_histogram() {
        for v in [0, 1, 2, 3, 4, 7, 8, 100, 1023, 1024, 1 << 40] {
            let mut h = Log2Histogram::new();
            h.record(v);
            h.record(Time::MAX / 2);
            assert_eq!(
                h.percentile(0.5),
                log2_bucket_upper(v).min(h.max()),
                "v={v}"
            );
        }
    }
}
