//! Steady-state allocation discipline: once the kernel's scratch buffers
//! have warmed up, a tick with no arrivals and no live transactions must
//! perform **zero** heap allocations — the open-system loop can idle
//! indefinitely without touching the allocator.
//!
//! Uses a counting wrapper around the system allocator. This is a
//! separate integration-test binary so the `unsafe` allocator shim stays
//! out of every library crate (which all `#![forbid(unsafe_code)]`).
//!
//! The counter is per thread: the test harness runs tests on sibling
//! threads, and a process-wide counter would charge their allocations to
//! whichever test happened to be measuring. Each test drives its kernel
//! on its own thread, so the assertions cover exactly that thread.

use dtm_core::{DistributedBucketPolicy, GreedyPolicy};
use dtm_graph::topology;
use dtm_model::{ArrivalProcess, OpenLoopSource, WorkloadSpec};
use dtm_offline::ListScheduler;
use dtm_sim::{Engine, EngineConfig, Retention};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// System allocator with a per-thread allocation counter.
struct CountingAlloc;

thread_local! {
    // `const` init and a `Drop`-free `Cell`: no lazy registration, so
    // touching it from inside the allocator cannot recurse into it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only during thread teardown; those allocations
    // belong to no measurement.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Drive a bursty stream through its on-window, let the live set drain
/// during the long off-window, then assert the remaining idle ticks are
/// allocation-free.
#[test]
fn empty_arrival_steady_ticks_do_not_allocate() {
    let net = topology::clique(8);
    let spec = WorkloadSpec::batch_uniform(8, 2);
    // 50 busy steps, then 10_000 idle ones: plenty of drain room.
    let source = OpenLoopSource::new(
        net.clone(),
        spec,
        ArrivalProcess::OnOff {
            rate: 2.0,
            on: 50,
            off: 10_000,
        },
        11,
    );
    let config = EngineConfig {
        retention: Retention::Streaming { warmup: 0 },
        record_events: false,
        max_steps: u64::MAX,
        ..EngineConfig::default()
    };
    let mut kernel = Engine::new(net, GreedyPolicy::new(), config).into_kernel(source);

    // Warm up: run through the burst and give the backlog time to drain.
    // This sizes every scratch buffer the kernel reuses.
    kernel.run_for(2_000);
    assert_eq!(
        kernel.live_count(),
        0,
        "burst did not drain; idle-tick premise broken"
    );
    assert!(kernel.commit_count() > 0, "burst produced no work");

    // Idle steady state: no arrivals, no live transactions. Every tick
    // must leave the allocation counter untouched.
    for step in 0..1_000u64 {
        let before = allocations();
        kernel.tick();
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "idle tick {step} (t={}) allocated",
            kernel.now()
        );
        assert_eq!(kernel.live_count(), 0);
    }
}

/// Algorithm 3 idles allocation-free too: once a burst has drained, the
/// distributed bucket policy's step (fixed-cache and conflict-cache
/// refresh, the due-report and activation checks) and the kernel's
/// half-speed object handling touch no allocator on an idle tick.
#[test]
fn distributed_bucket_idle_ticks_do_not_allocate() {
    let net = topology::clique(8);
    let spec = WorkloadSpec::batch_uniform(8, 2);
    let source = OpenLoopSource::new(
        net.clone(),
        spec,
        ArrivalProcess::OnOff {
            rate: 0.3,
            on: 200,
            off: 10_000,
        },
        11,
    );
    let config = EngineConfig {
        retention: Retention::Streaming { warmup: 0 },
        record_events: false,
        max_steps: u64::MAX,
        ..DistributedBucketPolicy::<ListScheduler>::engine_config()
    };
    let policy = DistributedBucketPolicy::new(&net, ListScheduler::fifo(), 31);
    let mut kernel = Engine::new(net, policy, config).into_kernel(source);

    kernel.run_for(2_000);
    assert_eq!(kernel.live_count(), 0, "burst did not drain");
    assert!(kernel.commit_count() > 0, "burst produced no work");

    for step in 0..1_000u64 {
        let before = allocations();
        kernel.tick();
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "idle distributed-bucket tick {step} (t={}) allocated",
            kernel.now()
        );
        assert_eq!(kernel.live_count(), 0);
    }
}

/// The continuous-observability stack must not break the idle-tick
/// guarantee: with a flight recorder (K=256) and the health watchdogs
/// attached, a warmed-up tick with no arrivals and no live transactions
/// still performs zero heap allocations — the recorder overwrites its
/// preallocated ring in place and the monitor's detectors update O(1)
/// scalars and an already-full window.
#[test]
fn idle_ticks_with_recorder_and_monitor_do_not_allocate() {
    use parking_lot::Mutex;
    use std::sync::Arc;

    let net = topology::clique(8);
    let spec = WorkloadSpec::batch_uniform(8, 2);
    let source = OpenLoopSource::new(
        net.clone(),
        spec,
        ArrivalProcess::OnOff {
            rate: 2.0,
            on: 50,
            off: 10_000,
        },
        11,
    );
    let config = EngineConfig {
        retention: Retention::Streaming { warmup: 0 },
        record_events: false,
        max_steps: u64::MAX,
        ..EngineConfig::default()
    };
    let recorder = dtm_telemetry::flight_recorder(256);
    let monitor = Arc::new(Mutex::new(dtm_telemetry::HealthMonitor::new(
        dtm_telemetry::HealthConfig::default(),
    )));
    let mut kernel = Engine::new(net, GreedyPolicy::new(), config)
        .with_observer(Arc::clone(&recorder))
        .with_observer(Arc::clone(&monitor))
        .into_kernel(source);

    // Warm up: fill the ring (> K steps) and the slope window, drain the
    // burst.
    kernel.run_for(2_000);
    assert_eq!(kernel.live_count(), 0, "burst did not drain");
    assert_eq!(recorder.lock().len(), 256, "ring warmed to capacity");

    for step in 0..1_000u64 {
        let before = allocations();
        kernel.tick();
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "idle tick {step} (t={}) allocated with observers attached",
            kernel.now()
        );
    }
    assert_eq!(recorder.lock().steps_seen(), 3_000);
    assert!(
        monitor.lock().is_healthy(),
        "idle stream tripped a watchdog: {:?}",
        monitor.lock().events()
    );
}

/// Snapshots the allocation counter at phase boundaries and pins the
/// schedule phase (policy consultation + fragment application) to zero
/// allocations on warmed-up ticks that have live transactions but no
/// arrivals — the common case in a drained-but-busy stream, and the case
/// the incremental conflict cache exists for.
#[derive(Default)]
struct SchedulePhaseProbe {
    /// Set by the test once warmup is done; assertions fire only then.
    armed: bool,
    /// Completed ticks since the run began (== the policy's refresh
    /// count: the policy is consulted exactly once per tick).
    ticks: u64,
    gen_mark: u64,
    gen_items: usize,
    sched_delta: u64,
    /// Ticks the armed assertion actually covered.
    measured: u64,
}

impl dtm_sim::StepObserver for SchedulePhaseProbe {
    fn on_phase(
        &mut self,
        _t: dtm_model::Time,
        phase: dtm_sim::Phase,
        items: usize,
        _elapsed: std::time::Duration,
    ) {
        match phase {
            dtm_sim::Phase::Generate => {
                self.gen_items = items;
                self.gen_mark = allocations();
            }
            dtm_sim::Phase::Schedule => self.sched_delta = allocations() - self.gen_mark,
            _ => {}
        }
    }

    fn on_step_end(&mut self, effects: &dtm_sim::StepEffects) {
        self.ticks += 1;
        // Every DIVERGENCE_SAMPLE_PERIOD-th refresh the policy's caches
        // run a debug-build divergence check against a full rescan, which
        // legitimately allocates; skip those ticks (debug-only overhead,
        // absent in release builds).
        let divergence_sample = self.ticks.is_multiple_of(64);
        if self.armed && self.gen_items == 0 && effects.live_after > 0 && !divergence_sample {
            assert_eq!(
                self.sched_delta, 0,
                "warmed-up schedule phase allocated at t={} (live={})",
                effects.t, effects.live_after
            );
            self.measured += 1;
        }
    }

    fn wants_timing(&self, _t: dtm_model::Time) -> bool {
        false
    }
}

/// A warmed-up schedule phase with a non-empty live set and no arrivals
/// allocates nothing: the conflict cache folds the window's removals in
/// place and the policy's scratch buffers keep their capacity.
#[test]
fn warmed_schedule_phase_with_live_set_does_not_allocate() {
    use parking_lot::Mutex;
    use std::sync::Arc;

    // A long line keeps colors (and thus drain time) large, so each
    // burst is followed by a long tail of live-but-quiet ticks — the
    // regime under test (live transactions, no arrivals).
    let net = topology::line(16);
    let spec = WorkloadSpec::batch_uniform(8, 2);
    let source = OpenLoopSource::new(
        net.clone(),
        spec,
        ArrivalProcess::OnOff {
            rate: 2.0,
            on: 50,
            off: 2_000,
        },
        11,
    );
    let config = EngineConfig {
        retention: Retention::Streaming { warmup: 0 },
        record_events: false,
        max_steps: u64::MAX,
        ..EngineConfig::default()
    };
    let probe = Arc::new(Mutex::new(SchedulePhaseProbe::default()));
    let mut kernel = Engine::new(net, GreedyPolicy::new(), config)
        .with_observer(Arc::clone(&probe))
        .into_kernel(source);

    // First burst + drain sizes every scratch buffer.
    kernel.run_for(2_050);
    probe.lock().armed = true;
    // Second cycle: quiet in-burst ticks and the whole drain tail are
    // now asserted allocation-free.
    kernel.run_for(2_050);
    let measured = probe.lock().measured;
    assert!(
        measured > 20,
        "only {measured} live-and-quiet ticks measured; premise broken"
    );
}

/// Allocation growth across a long steady run is bounded: after warmup,
/// 10k further steps of a *live* Poisson stream allocate O(arrivals) —
/// not O(steps x live-set) — demonstrating per-tick buffer reuse under
/// load (every transaction still needs its own heap allocations, but the
/// kernel's bookkeeping adds only a constant factor).
#[test]
fn allocation_rate_under_load_tracks_arrivals_not_history() {
    let net = topology::clique(8);
    let spec = WorkloadSpec::batch_uniform(8, 2);
    let source = OpenLoopSource::new(net.clone(), spec, ArrivalProcess::Poisson { rate: 0.4 }, 23);
    let config = EngineConfig {
        retention: Retention::Streaming { warmup: 0 },
        record_events: false,
        max_steps: u64::MAX,
        ..EngineConfig::default()
    };
    let mut kernel = Engine::new(net, GreedyPolicy::new(), config).into_kernel(source);
    kernel.run_for(2_000); // warm up buffers and reach steady state

    let commits_before = kernel.commit_count();
    let before = allocations();
    kernel.run_for(10_000);
    let allocs = allocations() - before;
    let arrivals = (kernel.commit_count() - commits_before).max(1);
    // Generous constant: each arriving transaction costs a bounded
    // number of allocations (its access vec, arena entry, policy maps).
    let per_txn = allocs as f64 / arrivals as f64;
    assert!(
        per_txn < 64.0,
        "{allocs} allocations for {arrivals} txns ({per_txn:.1}/txn): steady state leaks"
    );
}

/// A locality arrival allocates only what it hands out: with
/// `presets::edge_sensors` objects on a landmark-tier geometric graph,
/// each arrival's `Neighborhood` draw counts the local objects and then
/// scans to the picked one, so `arrivals_into` allocates just the picked
/// object set and the transaction's access list (no per-draw list of local
/// objects).
#[test]
fn neighborhood_arrivals_allocate_only_the_transaction() {
    use dtm_model::{presets, WorkloadSource};

    let net = topology::geometric(5_000, 4, 18);
    assert_eq!(net.routing_tier(), "landmark");
    let spec = presets::edge_sensors(5_000, 5, 48 + net.distance_slack(), 0.0, 0);
    let mut source = OpenLoopSource::new(net, spec, ArrivalProcess::Poisson { rate: 0.4 }, 2026);
    let mut out = Vec::with_capacity(64);
    // Warm up: builds the landmark oracle and sizes the source's home
    // buffer.
    for t in 0..200 {
        out.clear();
        source.arrivals_into(t, &mut out);
    }

    let emitted_before = source.emitted();
    let before = allocations();
    for t in 200..1_200 {
        out.clear();
        source.arrivals_into(t, &mut out);
    }
    let allocs = allocations() - before;
    let arrivals = source.emitted() - emitted_before;
    assert!(arrivals > 100, "only {arrivals} arrivals; premise broken");
    assert!(
        allocs <= 2 * arrivals,
        "{allocs} allocations for {arrivals} arrivals: more than the object set and the access list"
    );
}
