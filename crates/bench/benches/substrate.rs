//! Criterion micro-benchmarks of the substrates: shortest paths, sparse
//! cover construction, weighted coloring, batch scheduling, lower bounds,
//! the runtime-state query layer, open-loop arrival generation, batch
//! instance generation and a full engine run. These dominate each
//! simulated "time step" in practice.
//! One row times the end-of-run seal of a full-retention batch.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dtm_core::{smallest_valid_color, ColorConstraint, GreedyPolicy};
use dtm_graph::{topology, NodeId, ShortestPathTree, SparseCover};
use dtm_model::{
    presets, ArrivalProcess, FiniteArrivals, ObjectChoice, ObjectId, ObjectInfo, OpenLoopSource,
    TraceSource, Transaction, TxnId, WorkloadGenerator, WorkloadSource, WorkloadSpec,
};
use dtm_offline::{batch_lower_bound, BatchContext, BatchScheduler, ListScheduler};
use dtm_sim::{
    run_policy, Engine, EngineConfig, LiveTxn, ObjectPlace, ObjectState, RuntimeState, SystemView,
};
use dtm_telemetry::{MetricsRegistry, TelemetrySink};
use parking_lot::Mutex;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn bench_dijkstra(c: &mut Criterion) {
    let net = topology::grid(&[32, 32]);
    c.bench_function("substrate/dijkstra/grid32x32", |b| {
        b.iter(|| {
            let t = ShortestPathTree::compute(net.graph(), NodeId(0));
            std::hint::black_box(t.eccentricity())
        })
    });
}

fn bench_sparse_cover(c: &mut Criterion) {
    let net = topology::line(64);
    c.bench_function("substrate/sparse-cover/line64", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            let cover = SparseCover::build(&net, seed);
            std::hint::black_box(cover.num_layers())
        })
    });
}

fn bench_coloring(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let constraints: Vec<ColorConstraint> = (0..1000)
        .map(|_| ColorConstraint::new(rng.gen_range(0..5000), rng.gen_range(1..30)))
        .collect();
    c.bench_function("substrate/smallest-valid-color/1000-constraints", |b| {
        b.iter(|| std::hint::black_box(smallest_valid_color(&constraints)))
    });
}

fn batch_instance(
    n: u32,
    txns: usize,
    w: u32,
    k: usize,
    seed: u64,
) -> (Vec<Transaction>, BatchContext) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let ctx = BatchContext::fresh((0..w).map(|i| (ObjectId(i), NodeId(rng.gen_range(0..n)))));
    let pending: Vec<Transaction> = (0..txns)
        .map(|i| {
            let set: Vec<ObjectId> = (0..k).map(|_| ObjectId(rng.gen_range(0..w))).collect();
            Transaction::new(TxnId(i as u64), NodeId(rng.gen_range(0..n)), set, 0)
        })
        .collect();
    (pending, ctx)
}

fn bench_list_scheduler(c: &mut Criterion) {
    let net = topology::grid(&[16, 16]);
    let (pending, ctx) = batch_instance(256, 200, 64, 3, 11);
    c.bench_function("substrate/list-scheduler/200-txns", |b| {
        b.iter(|| {
            let s = ListScheduler::fifo().schedule(&net, &pending, &ctx);
            std::hint::black_box(s.makespan_end())
        })
    });
}

fn bench_lower_bound(c: &mut Criterion) {
    let net = topology::grid(&[16, 16]);
    let (pending, ctx) = batch_instance(256, 200, 64, 3, 12);
    c.bench_function("substrate/lower-bound/200-txns", |b| {
        b.iter(|| std::hint::black_box(batch_lower_bound(&net, &pending, &ctx).combined()))
    });
}

/// One arena-backed live population: 512 transactions over 64 objects on
/// `hypercube(8)`, answered by the requester index.
fn live_population(seed: u64) -> RuntimeState {
    const N_NODES: u32 = 256; // hypercube(8)
    const N_TXNS: u64 = 512;
    const N_OBJS: u32 = 64;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut state = RuntimeState::new();
    for o in 0..N_OBJS {
        let st = ObjectState {
            info: ObjectInfo {
                id: ObjectId(o),
                origin: NodeId(rng.gen_range(0..N_NODES)),
                created_at: 0,
            },
            place: ObjectPlace::At(NodeId(rng.gen_range(0..N_NODES))),
            last_holder: None,
        };
        state.insert_object(st);
    }
    for id in 0..N_TXNS {
        let set: Vec<ObjectId> = (0..2).map(|_| ObjectId(rng.gen_range(0..N_OBJS))).collect();
        let lt = LiveTxn {
            txn: Transaction::new(TxnId(id), NodeId(rng.gen_range(0..N_NODES)), set, 0),
            scheduled: (id % 2 == 0).then_some(id),
        };
        state.insert_txn(lt);
    }
    state
}

fn bench_requesters_of(c: &mut Criterion) {
    let net = topology::hypercube(8);
    let state = live_population(17);
    c.bench_function("substrate/requesters-of/indexed-512txns", |b| {
        let view = SystemView::from_state(0, &net, &state);
        b.iter(|| {
            let mut total = 0usize;
            for o in 0..64u32 {
                total += view.requesters_of(ObjectId(o)).len();
            }
            std::hint::black_box(total)
        })
    });
}

fn bench_engine_run(c: &mut Criterion) {
    let net = topology::hypercube(8);
    let spec = WorkloadSpec {
        num_objects: 32,
        k: 2,
        object_choice: ObjectChoice::Uniform,
        // Bernoulli is per node per step: 256 nodes × 0.004 × 1000 steps
        // ≈ 1000 transactions over the 1000-step arrival window.
        arrival: FiniteArrivals::Bernoulli {
            rate: 0.004,
            horizon: 1000,
        },
    };
    let inst = WorkloadGenerator::new(spec, 23).generate(&net);
    let cfg = EngineConfig {
        record_events: false,
        ..EngineConfig::default()
    };
    c.bench_function("substrate/engine/greedy-hypercube8-1000steps", |b| {
        b.iter(|| {
            let res = run_policy(
                &net,
                TraceSource::new(inst.clone()),
                GreedyPolicy::new(),
                cfg.clone(),
            );
            std::hint::black_box(res.metrics.committed)
        })
    });
    // Same run driven tick-by-tick through the step kernel's public
    // stepping API instead of `finish()`'s internal loop: measures the
    // per-step overhead of the tickable driver (budget: <= 2% of the
    // bare engine row above, which itself runs on the kernel).
    c.bench_function("substrate/engine/kernel-tick-1000steps", |b| {
        b.iter(|| {
            let mut kernel = Engine::new(net.clone(), GreedyPolicy::new(), cfg.clone())
                .into_kernel(TraceSource::new(inst.clone()));
            let mut effects_seen = 0usize;
            while let Some(fx) = kernel.tick() {
                effects_seen += usize::from(!fx.is_empty());
            }
            let res = kernel.finish();
            std::hint::black_box((res.metrics.committed, effects_seen))
        })
    });
    // Same run with a live telemetry sink attached (default timing
    // sampling): the observability overhead budget is <= 2% of the bare
    // engine row above.
    c.bench_function(
        "substrate/engine/greedy-hypercube8-1000steps-telemetry",
        |b| {
            b.iter(|| {
                let registry = Arc::new(MetricsRegistry::new());
                let sink = Arc::new(Mutex::new(TelemetrySink::new(Arc::clone(&registry))));
                let res = Engine::new(net.clone(), GreedyPolicy::new(), cfg.clone())
                    .with_observer(Arc::clone(&sink))
                    .run(TraceSource::new(inst.clone()));
                std::hint::black_box(res.metrics.committed)
            })
        },
    );
    // Same run with the continuous-observability stack attached: flight
    // recorder (default K) + health watchdogs. Budget: <= 2% over the
    // bare engine row — the recorder writes one Copy record per step
    // into a preallocated ring and the watchdogs update O(1) detectors.
    // The recorder/monitor are constructed once outside the timing loop:
    // they are long-run black boxes (built once, then riding 10^6-step
    // runs), so the row measures their per-step cost, not the one-time
    // O(K) ring allocation; reuse across iterations is sound because a
    // finished run retires every live transaction, leaving the monitor's
    // tracking state empty.
    c.bench_function(
        "substrate/engine/greedy-hypercube8-1000steps-flightrec",
        |b| {
            let recorder = dtm_telemetry::flight_recorder(dtm_telemetry::DEFAULT_FLIGHT_K);
            let monitor = dtm_telemetry::health_monitor(dtm_telemetry::HealthConfig::default());
            b.iter(|| {
                let stack = dtm_telemetry::ObservabilityStack::new(
                    Arc::clone(&recorder),
                    Arc::clone(&monitor),
                );
                let res = Engine::new(net.clone(), GreedyPolicy::new(), cfg.clone())
                    .with_observer(stack)
                    .run(TraceSource::new(inst.clone()));
                let seen = recorder.lock().steps_seen();
                std::hint::black_box((res.metrics.committed, seen))
            })
        },
    );
}

/// The spec of `perfbench`'s `batch-hypercube8` instance: 32 uniform
/// objects, k=2, Bernoulli 0.004 per node per step over a 10⁵-step
/// horizon.
fn batch_hypercube8_spec() -> WorkloadSpec {
    WorkloadSpec {
        num_objects: 32,
        k: 2,
        object_choice: ObjectChoice::Uniform,
        arrival: FiniteArrivals::Bernoulli {
            rate: 0.004,
            horizon: 100_000,
        },
    }
}

/// `finish()` alone on the benchmark's closed batch (`perfbench`'s
/// `batch-hypercube8`: Greedy on `hypercube(8)`, seed 23, Bernoulli 0.004
/// per node per step over a 10⁵-step horizon, ~10⁵ transactions): set-up
/// drains the kernel tick by tick, so the timed part is sealing the
/// full-retention logs into the `RunResult` (and dropping it).
fn bench_finish_batch(c: &mut Criterion) {
    let net = topology::hypercube(8);
    let inst = WorkloadGenerator::new(batch_hypercube8_spec(), 23).generate(&net);
    let cfg = EngineConfig {
        record_events: false,
        ..EngineConfig::default()
    };
    c.bench_function("substrate/engine/finish-batch-hypercube8", |b| {
        b.iter_batched(
            || {
                let mut kernel = Engine::new(net.clone(), GreedyPolicy::new(), cfg.clone())
                    .into_kernel(TraceSource::new(inst.clone()));
                while kernel.tick().is_some() {}
                kernel
            },
            |kernel| {
                let res = kernel.finish();
                std::hint::black_box((res.txns.len(), res.metrics.latency.p95))
            },
            BatchSize::LargeInput,
        )
    });
}

/// The perfbench batch-hypercube8 instance generated from scratch: one
/// Bernoulli draw per node per step over the 10⁵-step horizon
/// (2.56·10⁷ draws), then the object sets of ~10⁵ transactions.
fn bench_instance_gen(c: &mut Criterion) {
    let net = topology::hypercube(8);
    let spec = batch_hypercube8_spec();
    c.bench_function("substrate/model/instance-gen-hypercube8", |b| {
        b.iter(|| {
            let inst = WorkloadGenerator::new(spec.clone(), 23).generate(&net);
            std::hint::black_box(inst.txns.len())
        })
    });
}

/// 1000 ticks of an open-loop Poisson source at ρ=0.4 on a 10⁴-node
/// geometric graph: one Bernoulli draw per node per tick, ~400 arrivals.
/// Two rows: uniform objects, and the `stream-geo10k` benchmark's
/// `edge_sensors` objects (2000 objects, `Neighborhood` radius
/// 48 + slack), whose per-arrival draw counts the local objects. Each
/// source runs on across iterations (Poisson is stateless in `t`), so
/// no construction is timed.
fn bench_open_loop_tick(c: &mut Criterion) {
    let net = topology::geometric(10_000, 4, 18);
    let neighborhood = presets::edge_sensors(10_000, 5, 48 + net.distance_slack(), 0.0, 0);
    for (name, spec) in [
        (
            "substrate/model/open-loop-tick-geometric10k",
            WorkloadSpec::batch_uniform(2000, 1),
        ),
        (
            "substrate/model/open-loop-tick-geometric10k-neighborhood",
            neighborhood,
        ),
    ] {
        let mut src = OpenLoopSource::new(
            net.clone(),
            spec,
            ArrivalProcess::Poisson { rate: 0.4 },
            2026,
        );
        let mut out = Vec::new();
        let mut t = 0;
        c.bench_function(name, |b| {
            b.iter(|| {
                out.clear();
                for _ in 0..1000 {
                    src.arrivals_into(t, &mut out);
                    t += 1;
                }
                std::hint::black_box(out.len())
            })
        });
    }
}

/// Scale-decade rows for the CSR spine and the landmark oracle (ledger
/// rows under `substrate/scale/` carry a `nodes` field in
/// BENCH_substrate.json). Measures, per decade: full generator+Network
/// construction, the one-time landmark-oracle build (k shortest-path
/// trees on the CSR graph), steady-state oracle distance queries, and
/// 1024 fixed pairs routed to completion through `hop_toward`.
fn bench_scale(c: &mut Criterion) {
    for &n in &[10_000u32, 100_000] {
        c.bench_function(&format!("substrate/scale/geometric-build-n{n}"), |b| {
            b.iter(|| {
                let net = topology::geometric(n, 4, 18);
                std::hint::black_box(net.graph().edge_count())
            })
        });
        let net = topology::geometric(n, 4, 18);
        c.bench_function(&format!("substrate/scale/landmark-build-n{n}"), |b| {
            b.iter(|| {
                let oracle = dtm_graph::LandmarkOracle::build(net.graph());
                std::hint::black_box(oracle.stretch_radius())
            })
        });
        // Warm the network's own oracle once, then measure query cost.
        let _ = net.distance(NodeId(0), NodeId(n - 1));
        c.bench_function(&format!("substrate/scale/landmark-distance-n{n}"), |b| {
            let stride = (n / 1024).max(1);
            b.iter(|| {
                let mut acc = 0u64;
                let mut u = 0u32;
                for v in (0..n).step_by(stride as usize) {
                    acc = acc.wrapping_add(net.distance(NodeId(u), NodeId(v)));
                    u = u.wrapping_add(stride * 7 + 1) % n;
                }
                std::hint::black_box(acc)
            })
        });
        let pairs: Vec<(NodeId, NodeId)> = (0..1024u32)
            .map(|i| {
                let u = i.wrapping_mul(2_654_435_761) % n;
                let v = (i.wrapping_mul(40_503) + n / 2) % n;
                (NodeId(u), NodeId(v))
            })
            .filter(|(u, v)| u != v)
            .collect();
        c.bench_function(&format!("substrate/scale/landmark-route-n{n}"), |b| {
            b.iter(|| {
                let mut cost = 0u64;
                for &(u, v) in &pairs {
                    let mut cur = u;
                    while cur != v {
                        let (next, w) = net.hop_toward(cur, v);
                        cost += w;
                        cur = next;
                    }
                }
                std::hint::black_box(cost)
            })
        });
    }
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_dijkstra, bench_sparse_cover, bench_coloring, bench_list_scheduler, bench_lower_bound, bench_requesters_of, bench_open_loop_tick, bench_instance_gen, bench_engine_run, bench_finish_batch, bench_scale
}
criterion_main!(benches);
