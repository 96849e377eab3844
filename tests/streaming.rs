//! Open-system streaming integration tests: a seeded Poisson stream can
//! run for 100k+ steps with bounded memory — the arena's slot high-water
//! mark stays pinned to the peak *live* set, per-transaction history maps
//! stay empty under [`Retention::Streaming`], and everything is
//! deterministic across repeat runs.
//!
//! Also property-tests [`TxnArena`] slot recycling directly: under
//! arbitrary insert/remove churn, slots never outgrow the peak number of
//! simultaneously live transactions.

use dtm_core::{DistributedMsgPolicy, FifoPolicy, GreedyPolicy};
use dtm_graph::{topology, NodeId};
use dtm_model::{ArrivalProcess, ObjectId, OpenLoopSource, Time, Transaction, TxnId, WorkloadSpec};
use dtm_offline::ListScheduler;
use dtm_sim::{Engine, EngineConfig, LiveTxn, Retention, RunStatus, TxnArena};
use proptest::prelude::*;

fn streaming_config(warmup: Time, max_steps: Time) -> EngineConfig {
    EngineConfig {
        retention: Retention::Streaming { warmup },
        record_events: false,
        max_steps,
        ..EngineConfig::default()
    }
}

/// The acceptance-criteria run: 100k steps of seeded Poisson arrivals on
/// a clique, asserting the arena never allocates more slots than the
/// peak live set and the run stays open (never drains, never hits the
/// step limit early).
#[test]
fn poisson_stream_runs_100k_steps_with_bounded_arena() {
    let net = topology::clique(8);
    let spec = WorkloadSpec::batch_uniform(8, 2);
    let source = OpenLoopSource::new(net.clone(), spec, ArrivalProcess::Poisson { rate: 0.5 }, 42);
    let mut kernel = Engine::new(net, GreedyPolicy::new(), streaming_config(1_000, u64::MAX))
        .into_kernel(source);
    let ran = kernel.run_for(100_000);
    assert_eq!(ran, 100_000, "open run must not stop early");
    assert_eq!(kernel.status(), RunStatus::Open);
    assert!(!kernel.drained(), "a Poisson source is never exhausted");

    // Bounded memory: the free-list recycles slots, so the arena high
    // water is exactly the peak live set — independent of the ~50k
    // transactions that streamed through.
    let hwm = kernel.arena_high_water();
    assert_eq!(hwm, kernel.peak_live());
    assert!(
        hwm < 1_000,
        "arena high water {hwm} not O(backlog) after 100k steps"
    );
    assert!(kernel.commit_count() > 40_000, "throughput collapsed");

    // Steady-state latency histogram is populated past the warmup.
    let soj = kernel.sojourn_latency();
    assert!(soj.count() > 0);
    assert!(soj.percentile(0.50) <= soj.percentile(0.95));
}

/// Map-level companion of the arena high-water check: across 100k steps
/// of churn (with link capacity enabled so the edge-load map is live),
/// every kernel bookkeeping map stays bounded by the *current* system
/// shape — live set, object population, graph size — never by the ~50k
/// transactions that streamed through. Pins the invariants documented on
/// [`dtm_sim::KernelMapStats`].
#[test]
fn kernel_maps_stay_bounded_under_100k_step_churn() {
    let net = topology::clique(8);
    let spec = WorkloadSpec::batch_uniform(8, 2); // 8 objects, k = 2
    let source = OpenLoopSource::new(net.clone(), spec, ArrivalProcess::Poisson { rate: 0.5 }, 42);
    let config = EngineConfig {
        link_capacity: Some(4),
        ..streaming_config(1_000, u64::MAX)
    };
    let mut kernel = Engine::new(net, GreedyPolicy::new(), config).into_kernel(source);
    for probe in 0..20 {
        kernel.run_for(5_000);
        let stats = kernel.map_stats();
        let live = kernel.live_count();
        assert!(
            stats.exec_queue <= live,
            "probe {probe}: exec queue {} > live {live}",
            stats.exec_queue
        );
        // Each scheduled transaction holds one requester entry per
        // object it uses (k = 2); entries leave on commit/abort.
        assert!(
            stats.requester_entries <= 2 * stats.exec_queue,
            "probe {probe}: {} requester entries for {} queued txns",
            stats.requester_entries,
            stats.exec_queue
        );
        // Dense per-object structures track the object population.
        assert_eq!(stats.requester_objects, 8);
        assert!(stats.in_transit <= 8);
        // Edge load counts in-flight objects only, and drops entries
        // that reach zero — never an unbounded residue.
        assert!(
            stats.edge_load_entries <= stats.in_transit,
            "probe {probe}: {} loaded edges > {} in-transit objects",
            stats.edge_load_entries,
            stats.in_transit
        );
        // The kernel keeps no forwarding trail; the message-level policy
        // owns it (bounded by `dist_msg_trail_stays_bounded_under_churn`).
        assert_eq!(stats.forwarding_entries, 0);
    }
    assert!(kernel.commit_count() > 40_000, "throughput collapsed");
}

/// The forwarding trail lives in the message-level Algorithm 3 policy,
/// its only reader: under Poisson churn it holds at most one pointer per
/// (object, node) pair, however many departures stream through, and the
/// objects really do move.
#[test]
fn dist_msg_trail_stays_bounded_under_churn() {
    let net = topology::clique(8);
    let nodes = net.n();
    let objects = 8;
    let spec = WorkloadSpec::batch_uniform(objects as u32, 2);
    let source = OpenLoopSource::new(net.clone(), spec, ArrivalProcess::Poisson { rate: 0.3 }, 42);
    let config = EngineConfig {
        retention: Retention::Streaming { warmup: 1_000 },
        record_events: false,
        max_steps: u64::MAX,
        ..DistributedMsgPolicy::<ListScheduler>::engine_config()
    };
    let policy = DistributedMsgPolicy::new(&net, ListScheduler::fifo(), 7);
    let mut kernel = Engine::new(net, policy, config).into_kernel(source);
    let mut departures = 0usize;
    for probe in 0..10 {
        for _ in 0..2_000 {
            departures += kernel.tick().map_or(0, |fx| fx.departed.len());
        }
        let trail = kernel.policy().trail_len();
        assert!(
            trail <= objects * nodes,
            "probe {probe}: {trail} trail pointers > {objects} objects x {nodes} nodes"
        );
    }
    assert!(
        departures > 10 * objects * nodes,
        "only {departures} departures: the bound was never under pressure"
    );
    assert!(kernel.commit_count() > 4_000, "throughput collapsed");
}

/// 50k-step kernel-level churn check on a line (slower topology, deeper
/// backlog): live-slot count tracks the backlog, with no monotonic slot
/// growth between probes taken every 5k steps.
#[test]
fn live_slot_count_tracks_backlog_not_throughput() {
    let net = topology::line(12);
    let spec = WorkloadSpec::batch_uniform(6, 2);
    let source = OpenLoopSource::new(net.clone(), spec, ArrivalProcess::Poisson { rate: 0.3 }, 7);
    let mut kernel =
        Engine::new(net, GreedyPolicy::new(), streaming_config(500, u64::MAX)).into_kernel(source);
    let mut probes = Vec::new();
    for _ in 0..10 {
        kernel.run_for(5_000);
        probes.push((kernel.arena_high_water(), kernel.commit_count()));
    }
    let (final_hwm, final_commits) = *probes.last().unwrap();
    assert!(final_commits > 10_000, "line should still commit steadily");
    assert!(
        final_hwm < 500,
        "slot high water {final_hwm} grew with throughput, not backlog"
    );
    // No monotonic growth: the high-water mark saturates once the
    // steady-state backlog has been reached (first probe window covers
    // the cold start).
    let early_hwm = probes[1].0;
    assert!(
        final_hwm <= early_hwm.saturating_mul(2),
        "slot high water kept climbing: {probes:?}"
    );
}

/// Same seed, same stream: two independent 20k-step streaming runs agree
/// on every observable.
#[test]
fn streaming_runs_are_deterministic() {
    let run = || {
        let net = topology::grid(&[3, 3]);
        let spec = WorkloadSpec::batch_uniform(6, 2);
        let source = OpenLoopSource::new(
            net.clone(),
            spec,
            ArrivalProcess::OnOff {
                rate: 1.0,
                on: 16,
                off: 48,
            },
            99,
        );
        let mut kernel = Engine::new(net, FifoPolicy::new(), streaming_config(1_000, u64::MAX))
            .into_kernel(source);
        kernel.run_for(20_000);
        (
            kernel.commit_count(),
            kernel.last_commit_at(),
            kernel.live_count(),
            kernel.arena_high_water(),
            kernel.sojourn_latency().count(),
            kernel.sojourn_latency().percentile(0.95),
        )
    };
    assert_eq!(run(), run());
}

/// Drained-vs-open semantics: a finite trace drains (status `Drained`);
/// the same engine config on an open source keeps reporting `Open`; an
/// open source truncated by `max_steps` reports `StepLimit`.
#[test]
fn run_status_distinguishes_drained_open_and_limit() {
    let net = topology::clique(4);
    let spec = WorkloadSpec::batch_uniform(4, 2);

    // Finite: a closed batch drains.
    let inst = dtm_model::WorkloadGenerator::new(spec.clone(), 5).generate(&net);
    let mut kernel = Engine::new(net.clone(), GreedyPolicy::new(), EngineConfig::default())
        .into_kernel(dtm_model::TraceSource::new(inst));
    while !kernel.done() {
        kernel.tick();
    }
    assert_eq!(kernel.status(), RunStatus::Drained);
    assert!(kernel.drained());

    // Open: never drains on its own.
    let source = OpenLoopSource::new(
        net.clone(),
        spec.clone(),
        ArrivalProcess::Poisson { rate: 0.2 },
        5,
    );
    let mut kernel = Engine::new(
        net.clone(),
        GreedyPolicy::new(),
        streaming_config(0, u64::MAX),
    )
    .into_kernel(source);
    kernel.run_for(200);
    assert_eq!(kernel.status(), RunStatus::Open);

    // Open + max_steps: the limit, not the source, ends the run.
    let source = OpenLoopSource::new(net.clone(), spec, ArrivalProcess::Poisson { rate: 0.2 }, 5);
    let mut kernel =
        Engine::new(net, GreedyPolicy::new(), streaming_config(0, 100)).into_kernel(source);
    while !kernel.done() {
        kernel.tick();
    }
    assert_eq!(kernel.status(), RunStatus::StepLimit);
    assert!(!kernel.drained());
}

fn txn(id: u64) -> LiveTxn {
    LiveTxn {
        txn: Transaction::new(TxnId(id), NodeId(0), [ObjectId((id % 4) as u32)], 0),
        scheduled: None,
    }
}

proptest! {
    /// Arena churn property: for any interleaving of inserts and removes,
    /// the slot high-water mark equals the peak number of simultaneously
    /// live transactions — removal really recycles slots, and generation
    /// counters keep recycled ids distinct.
    #[test]
    fn arena_slots_never_outgrow_peak_live(ops in proptest::collection::vec(0u16..1024, 1..400)) {
        let mut arena = TxnArena::new();
        let mut live: Vec<u64> = Vec::new();
        let mut next_id = 0u64;
        let mut peak = 0usize;
        for op in ops {
            // Odd byte = insert; even = remove the oldest live (if any).
            if op % 2 == 1 || live.is_empty() {
                arena.insert(txn(next_id));
                live.push(next_id);
                next_id += 1;
            } else {
                let id = live.remove((op as usize / 2) % live.len());
                let removed = arena.remove(TxnId(id));
                prop_assert!(removed.is_some());
            }
            peak = peak.max(arena.len());
            prop_assert_eq!(arena.len(), live.len());
        }
        prop_assert_eq!(arena.peak_live(), peak);
        prop_assert!(arena.slot_high_water() <= peak);
        // Every survivor is still reachable under its own id.
        for &id in &live {
            prop_assert!(arena.get(TxnId(id)).is_some());
        }
        // Compaction truncates past the highest live slot (interior
        // holes may remain) without losing survivors.
        arena.compact();
        prop_assert!(arena.slot_len() >= live.len());
        prop_assert!(arena.slot_len() <= peak);
        for &id in &live {
            prop_assert!(arena.get(TxnId(id)).is_some());
        }
    }
}
