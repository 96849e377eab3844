//! Flight recorder + health watchdogs on real engine runs: O(K) memory
//! over long streams, deterministic event sequences under deliberate
//! overload, and auto-dumps at failure onset that the run-record reader
//! accepts.

use dtm_core::{FifoPolicy, GreedyPolicy};
use dtm_graph::topology;
use dtm_model::{ArrivalProcess, OpenLoopSource, WorkloadSpec};
use dtm_sim::{Engine, EngineConfig, Retention};
use dtm_telemetry::{flight_recorder, HealthConfig, HealthEvent, HealthMonitor, RunTrace};
use parking_lot::Mutex;
use std::sync::Arc;

fn streaming_config(steps: u64, warmup: u64) -> EngineConfig {
    EngineConfig {
        retention: Retention::Streaming { warmup },
        record_events: false,
        max_steps: steps,
        ..EngineConfig::default()
    }
}

/// A 100k-step streaming run with K=256 leaves the recorder holding
/// exactly K steps — the ring's memory is a function of K and the items
/// per step, not of run length — while having seen every step.
#[test]
fn recorder_memory_is_bounded_by_k_over_100k_steps() {
    const STEPS: u64 = 100_000;
    const K: usize = 256;
    let net = topology::clique(8);
    let source = OpenLoopSource::new(
        net.clone(),
        WorkloadSpec::batch_uniform(8, 2),
        ArrivalProcess::Poisson { rate: 0.2 },
        7,
    );
    let recorder = flight_recorder(K);
    let mut kernel = Engine::new(
        net.clone(),
        GreedyPolicy::new(),
        streaming_config(STEPS, 1_000),
    )
    .with_observer(Arc::clone(&recorder))
    .into_kernel(source);
    kernel.run_for(STEPS);

    let rec = recorder.lock();
    assert_eq!(rec.steps_seen(), STEPS, "recorder saw every step");
    assert_eq!(rec.len(), K, "retains exactly K steps");
    assert_eq!(rec.capacity(), K, "ring never grew past K");
    // The retained window is the *last* K steps, in order.
    let window = rec.trace();
    let steps = &window.steps;
    assert_eq!(steps.first().map(|s| s.t), Some(STEPS - K as u64));
    assert_eq!(steps.last().map(|s| s.t), Some(STEPS - 1));
    assert!(steps.windows(2).all(|w| w[1].t == w[0].t + 1));
    // And the dump of that window reads back as the same record.
    let dump = RunTrace::from_jsonl(&rec.dump()).expect("dump validates");
    assert_eq!(dump, window);
    assert_eq!(dump.steps.len(), K);
    assert_eq!(dump.steps_seen, STEPS);
}

/// Drive fifo on a line into deliberate overload (adversarial arrivals
/// past the knee) with the monitor + recorder attached; returns the
/// events and the auto-dump contents.
fn overloaded_run(dump_path: &std::path::Path) -> (Vec<HealthEvent>, String) {
    const STEPS: u64 = 3_000;
    let net = topology::line(12);
    let source = OpenLoopSource::new(
        net.clone(),
        WorkloadSpec::batch_uniform(6, 2),
        ArrivalProcess::Adversarial { rate: 1.5 },
        1700,
    );
    // Timing sampling off: the sampled phase nanos are real wall-clock
    // measurements and the only nondeterministic field in a dump —
    // with them disabled the whole dump must be byte-identical across
    // reruns. (Counts, gauges and events are deterministic regardless.)
    let recorder = Arc::new(Mutex::new(
        dtm_telemetry::FlightRecorder::new(128).with_timing_sample(0),
    ));
    let monitor = Arc::new(Mutex::new(
        HealthMonitor::new(HealthConfig::default())
            .with_auto_dump(Arc::clone(&recorder), dump_path.to_path_buf()),
    ));
    let mut kernel = Engine::new(net.clone(), FifoPolicy::new(), streaming_config(STEPS, 500))
        .with_observer(Arc::clone(&recorder))
        .with_observer(Arc::clone(&monitor))
        .into_kernel(source);
    assert_eq!(kernel.run_for(STEPS), STEPS);
    let events = monitor.lock().events().to_vec();
    let dump = std::fs::read_to_string(dump_path).expect("auto-dump written at first event");
    (events, dump)
}

/// The `(t, kind tag, starved txn)` sequence [`overloaded_run`] emits:
/// one overload, then one starvation per step from t=2020 until the
/// 64-event cap. Captured when the monitor still kept its own copy of
/// the live set, before it read the kernel's step-end view; any change
/// to the detectors must reproduce it exactly.
#[rustfmt::skip]
const EXPECTED_EVENTS: [(u64, &str, Option<u64>); 64] = [
    (511, "overload", None), (2020, "starvation", Some(1493)), (2022, "starvation", Some(1495)),
    (2023, "starvation", Some(1496)), (2024, "starvation", Some(1497)),
    (2025, "starvation", Some(1498)), (2026, "starvation", Some(1500)),
    (2027, "starvation", Some(1501)), (2028, "starvation", Some(1502)),
    (2029, "starvation", Some(1504)), (2030, "starvation", Some(1505)),
    (2031, "starvation", Some(1507)), (2032, "starvation", Some(1508)),
    (2033, "starvation", Some(1510)), (2034, "starvation", Some(1511)),
    (2035, "starvation", Some(1512)), (2036, "starvation", Some(1513)),
    (2037, "starvation", Some(1514)), (2038, "starvation", Some(1515)),
    (2039, "starvation", Some(1516)), (2040, "starvation", Some(1517)),
    (2041, "starvation", Some(1518)), (2042, "starvation", Some(1519)),
    (2043, "starvation", Some(1520)), (2044, "starvation", Some(1521)),
    (2045, "starvation", Some(1522)), (2046, "starvation", Some(1523)),
    (2047, "starvation", Some(1524)), (2048, "starvation", Some(1525)),
    (2049, "starvation", Some(1526)), (2050, "starvation", Some(1527)),
    (2051, "starvation", Some(1528)), (2052, "starvation", Some(1529)),
    (2053, "starvation", Some(1530)), (2054, "starvation", Some(1531)),
    (2055, "starvation", Some(1532)), (2056, "starvation", Some(1533)),
    (2057, "starvation", Some(1534)), (2058, "starvation", Some(1535)),
    (2059, "starvation", Some(1536)), (2060, "starvation", Some(1537)),
    (2061, "starvation", Some(1538)), (2062, "starvation", Some(1539)),
    (2063, "starvation", Some(1540)), (2064, "starvation", Some(1541)),
    (2065, "starvation", Some(1542)), (2066, "starvation", Some(1543)),
    (2067, "starvation", Some(1544)), (2068, "starvation", Some(1545)),
    (2069, "starvation", Some(1546)), (2070, "starvation", Some(1547)),
    (2071, "starvation", Some(1548)), (2072, "starvation", Some(1549)),
    (2073, "starvation", Some(1550)), (2074, "starvation", Some(1551)),
    (2075, "starvation", Some(1552)), (2076, "starvation", Some(1553)),
    (2077, "starvation", Some(1554)), (2078, "starvation", Some(1555)),
    (2079, "starvation", Some(1556)), (2080, "starvation", Some(1557)),
    (2081, "starvation", Some(1558)), (2082, "starvation", Some(1559)),
    (2083, "starvation", Some(1560)),
];

/// A deliberately overloaded run must produce a deterministic
/// `HealthEvent` sequence — the same events, at the same steps, across
/// repeated runs — and the auto-dump written at the first event must
/// read back as a run record.
#[test]
fn forced_overload_fires_deterministic_events_and_valid_dump() {
    let dir = std::env::temp_dir().join(format!("dtm-flight-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path_a = dir.join("overload-a.flight.jsonl");
    let path_b = dir.join("overload-b.flight.jsonl");
    let _ = std::fs::remove_file(&path_a);
    let _ = std::fs::remove_file(&path_b);

    let (events_a, dump_a) = overloaded_run(&path_a);
    assert!(
        events_a.iter().any(|e| e.kind.tag() == "overload"),
        "adversarial ρ=1.5 on line(12)/fifo must trip the overload alarm; got {events_a:?}"
    );
    // The arena invariant must NOT have fired — recycling holds even
    // under overload.
    assert!(
        events_a.iter().all(|e| e.kind.tag() != "arena-drift"),
        "arena drift under overload: {events_a:?}"
    );

    let got: Vec<(u64, &str, Option<u64>)> = events_a
        .iter()
        .map(|e| {
            let txn = match e.kind {
                dtm_telemetry::HealthEventKind::Starvation { txn, .. } => Some(txn.0),
                _ => None,
            };
            (e.t, e.kind.tag(), txn)
        })
        .collect();
    assert_eq!(got, EXPECTED_EVENTS, "pinned health event sequence");

    // Determinism: byte-identical event stream and auto-dump on rerun.
    let (events_b, dump_b) = overloaded_run(&path_b);
    assert_eq!(events_a, events_b, "health events must be deterministic");
    assert_eq!(dump_a, dump_b, "auto-dump must be byte-identical");

    // The onset dump validates and carries the triggering event, with
    // the window of whole steps leading up to it.
    let onset = RunTrace::from_jsonl(&dump_a).expect("auto-dump schema-valid");
    assert_eq!(onset.health, events_a[..1], "dump carries the first event");
    assert_eq!(onset.steps.last().map(|s| s.t), Some(events_a[0].t));
    assert_eq!(onset.steps.len(), 128);
    let _ = std::fs::remove_file(&path_a);
    let _ = std::fs::remove_file(&path_b);
}

/// Sustained starvation under overload also surfaces per-transaction
/// events, each transaction at most once, oldest first.
#[test]
fn overload_starves_oldest_transactions_first() {
    let dir = std::env::temp_dir().join(format!("dtm-flight-starve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("starve.flight.jsonl");
    let _ = std::fs::remove_file(&path);
    let (events, _) = overloaded_run(&path);
    let starved: Vec<_> = events
        .iter()
        .filter_map(|e| match e.kind {
            dtm_telemetry::HealthEventKind::Starvation { txn, arrived, .. } => Some((txn, arrived)),
            _ => None,
        })
        .collect();
    assert!(
        !starved.is_empty(),
        "a 3000-step overload must starve transactions past age 1024; got {events:?}"
    );
    // Reported in age order and never twice.
    assert!(starved.windows(2).all(|w| w[0].1 <= w[1].1), "{starved:?}");
    let mut txns: Vec<_> = starved.iter().map(|s| s.0).collect();
    txns.sort();
    txns.dedup();
    assert_eq!(txns.len(), starved.len(), "no txn reported twice");
    let _ = std::fs::remove_file(&path);
}
