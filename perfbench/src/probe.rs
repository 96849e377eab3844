//! Timing wrappers around the public entry point of each layer.
//!
//! Every wrapper implements the same public trait as the thing it wraps
//! and forwards each call unchanged, so a traced run makes exactly the
//! decisions of an untraced one. The wrappers share one [`LayerTrace`]
//! through an `Rc<RefCell<_>>`: a run is single-threaded, and no wrapper
//! holds the borrow while it calls into the layer it wraps.

use dtm_graph::Network;
use dtm_model::{ObjectInfo, Schedule, Time, Transaction, TxnId, WorkloadSource};
use dtm_offline::{BatchContext, BatchScheduler};
use dtm_sim::{Phase, SchedulingPolicy, StepEffects, StepObserver, SystemView};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Calls into one entry point: how many, their total wall time, and the
/// items they handled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Span {
    /// Number of calls.
    pub calls: u64,
    /// Total wall-clock nanoseconds inside the calls.
    pub ns: u64,
    /// Items handled, summed over calls (meaning depends on the span).
    pub items: u64,
}

impl Span {
    fn add(&mut self, elapsed: Duration, items: usize) {
        self.calls += 1;
        self.ns += elapsed.as_nanos() as u64;
        self.items += items as u64;
    }
}

/// Everything the wrappers of one traced run accumulate.
#[derive(Clone, Debug, Default)]
pub struct LayerTrace {
    /// Completed kernel steps.
    pub steps: u64,
    /// Kernel phases, indexed by [`Phase::index`]; `items` is the count
    /// the kernel reports for the phase.
    pub phases: [Span; 5],
    /// Wall time of whole ticks, measured around `StepKernel::tick`.
    pub tick_ns: u64,
    /// `SchedulingPolicy::step`; items = fragment entries.
    pub policy: Span,
    /// `SchedulingPolicy::step` calls returning a non-empty fragment.
    pub policy_useful: u64,
    /// `BatchScheduler::schedule`; items = pending transactions.
    pub offline_schedule: Span,
    /// `BatchScheduler::makespan`; items = pending transactions.
    pub offline_makespan: Span,
    /// `WorkloadSource::arrivals_into`; items = transactions produced.
    pub source: Span,
    /// `StepObserver::on_phase` of the telemetry stack.
    pub telemetry_phase: Span,
    /// `StepObserver::on_step_end` of the telemetry stack.
    pub telemetry_end: Span,
}

/// The handle every wrapper of one run shares.
pub type Shared = Rc<RefCell<LayerTrace>>;

/// Fresh shared trace.
pub fn shared() -> Shared {
    Rc::new(RefCell::new(LayerTrace::default()))
}

/// [`StepObserver`] that wants phase timing on every step and folds it
/// into the shared trace.
pub struct KernelProbe(pub Shared);

impl StepObserver for KernelProbe {
    fn on_phase(&mut self, _t: Time, phase: Phase, items: usize, elapsed: Duration) {
        self.0.borrow_mut().phases[phase.index()].add(elapsed, items);
    }

    fn on_step_end(&mut self, _effects: &StepEffects) {
        self.0.borrow_mut().steps += 1;
    }
}

/// [`SchedulingPolicy`] wrapper timing every `step`.
pub struct TracedPolicy<P> {
    inner: P,
    trace: Shared,
}

impl<P> TracedPolicy<P> {
    /// Wrap `inner`.
    pub fn new(inner: P, trace: Shared) -> Self {
        TracedPolicy { inner, trace }
    }
}

impl<P: SchedulingPolicy> SchedulingPolicy for TracedPolicy<P> {
    fn step(&mut self, view: &SystemView<'_>, arrivals: &[TxnId]) -> Schedule {
        let start = Instant::now();
        let fragment = self.inner.step(view, arrivals);
        let elapsed = start.elapsed();
        let mut trace = self.trace.borrow_mut();
        trace.policy.add(elapsed, fragment.len());
        trace.policy_useful += u64::from(!fragment.is_empty());
        fragment
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// [`BatchScheduler`] wrapper timing `schedule` and `makespan`. Cloning
/// shares the trace, so a policy's clones all report into one place.
#[derive(Clone)]
pub struct TracedScheduler<A> {
    inner: A,
    trace: Shared,
}

impl<A> TracedScheduler<A> {
    /// Wrap `inner`.
    pub fn new(inner: A, trace: Shared) -> Self {
        TracedScheduler { inner, trace }
    }
}

impl<A: BatchScheduler> BatchScheduler for TracedScheduler<A> {
    fn schedule(
        &mut self,
        network: &Network,
        pending: &[Transaction],
        ctx: &BatchContext,
    ) -> Schedule {
        let start = Instant::now();
        let s = self.inner.schedule(network, pending, ctx);
        let elapsed = start.elapsed();
        self.trace
            .borrow_mut()
            .offline_schedule
            .add(elapsed, pending.len());
        s
    }

    fn makespan(&mut self, network: &Network, pending: &[Transaction], ctx: &BatchContext) -> Time {
        let start = Instant::now();
        let m = self.inner.makespan(network, pending, ctx);
        let elapsed = start.elapsed();
        self.trace
            .borrow_mut()
            .offline_makespan
            .add(elapsed, pending.len());
        m
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// [`WorkloadSource`] wrapper timing every `arrivals_into`.
pub struct TracedSource<S> {
    inner: S,
    trace: Shared,
}

impl<S> TracedSource<S> {
    /// Wrap `inner`.
    pub fn new(inner: S, trace: Shared) -> Self {
        TracedSource { inner, trace }
    }
}

impl<S: WorkloadSource> WorkloadSource for TracedSource<S> {
    fn arrivals_into(&mut self, t: Time, out: &mut Vec<Transaction>) {
        let before = out.len();
        let start = Instant::now();
        self.inner.arrivals_into(t, out);
        let elapsed = start.elapsed();
        let n = out.len() - before;
        self.trace.borrow_mut().source.add(elapsed, n);
    }

    fn on_commit(&mut self, txn: &Transaction, t: Time) {
        self.inner.on_commit(txn, t);
    }

    fn exhausted(&self) -> bool {
        self.inner.exhausted()
    }

    fn objects(&self) -> &[ObjectInfo] {
        self.inner.objects()
    }
}

/// Delegating [`StepObserver`] timing the telemetry stack's callbacks.
/// It forwards `wants_timing` and `wants_phases` unchanged, so the
/// kernel probes the wrapped stack exactly as it would unwrapped.
pub struct TracedObserver<O> {
    inner: O,
    trace: Shared,
}

impl<O> TracedObserver<O> {
    /// Wrap `inner`.
    pub fn new(inner: O, trace: Shared) -> Self {
        TracedObserver { inner, trace }
    }
}

impl<O: StepObserver> StepObserver for TracedObserver<O> {
    fn on_phase(&mut self, t: Time, phase: Phase, items: usize, elapsed: Duration) {
        let start = Instant::now();
        self.inner.on_phase(t, phase, items, elapsed);
        let spent = start.elapsed();
        self.trace.borrow_mut().telemetry_phase.add(spent, 1);
    }

    fn on_step_end(&mut self, effects: &StepEffects) {
        let start = Instant::now();
        self.inner.on_step_end(effects);
        let spent = start.elapsed();
        self.trace.borrow_mut().telemetry_end.add(spent, 1);
    }

    fn wants_timing(&self, t: Time) -> bool {
        self.inner.wants_timing(t)
    }

    fn wants_phases(&self, t: Time) -> bool {
        self.inner.wants_phases(t)
    }
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus allocation counters that count only while
/// [`count_allocations`] has switched them on. Install it with
/// `#[global_allocator]` in the binary; while counting is off each
/// allocation pays one relaxed load.
pub struct CountingAlloc;

impl CountingAlloc {
    fn note(size: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain statistics and touch no memory the
// allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for
        // `layout`, which is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switch allocation counting on or off (process-wide).
pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations and bytes counted so far.
pub fn allocation_totals() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}
