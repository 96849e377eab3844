//! Shared experiment runner: executes a policy on a workload, validates
//! the event log, and condenses metrics + a conservative competitive-ratio
//! estimate into one [`Summary`] row.
//!
//! Runs are safe to execute concurrently (the [`crate::ParallelGrid`]
//! fan-out): nothing here mutates process-global state, and telemetry
//! sidecars are named by **run identity** — experiment scope, policy,
//! network, seed, and a workload/config fingerprint — never by arrival
//! order, so a suite writes the same file set at any `--jobs` level and
//! across repeated runs.

use dtm_graph::Network;
use dtm_model::{ClosedLoopSource, Instance, Time, TraceSource, WorkloadSource, WorkloadSpec};
use dtm_offline::competitive_ratio;
use dtm_sim::{
    run_policy, validate_events, Engine, EngineConfig, Log2Histogram, Retention, RunResult,
    SchedulingPolicy, StepEffects, ValidationConfig,
};
use dtm_telemetry::{
    steady_names, Counter, FlightRecorderHandle, Gauge, HealthMonitor, HealthMonitorHandle,
    Histogram, MetricsRegistry, ObservabilityStack, PeriodicExposer, TelemetrySink,
};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A workload to run.
#[derive(Clone, Debug)]
pub enum WorkloadKind {
    /// Replay a pre-generated instance at its recorded times.
    Trace(Instance),
    /// Closed loop (Section III-C): every node keeps one transaction
    /// outstanding for `rounds` rounds.
    ClosedLoop {
        /// Workload spec (objects, k, popularity).
        spec: WorkloadSpec,
        /// Rounds per node.
        rounds: u32,
        /// Seed.
        seed: u64,
    },
}

/// One result row.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Policy name.
    pub policy: String,
    /// Nodes in the network.
    pub n: usize,
    /// Committed transactions.
    pub txns: usize,
    /// Total execution time.
    pub makespan: Time,
    /// Worst per-transaction latency.
    pub max_latency: Time,
    /// Mean latency.
    pub mean_latency: f64,
    /// Total weighted distance traveled by objects.
    pub comm_cost: u64,
    /// Conservative competitive-ratio estimate (see `dtm_offline::ratio`).
    pub ratio: f64,
    /// Peak concurrent objects on any single edge (congestion).
    pub peak_edge_load: u32,
}

/// Run `policy` on `workload` over `network`, validate, and summarize.
/// Telemetry sidecars go to the process-wide `--telemetry` directory
/// ([`crate::telemetry_flag`]) when that flag is set.
///
/// # Panics
/// Panics if the run has violations or fails event validation — an
/// experiment on a broken scheduler must fail loudly, not report numbers.
pub fn run_summary<P: SchedulingPolicy>(
    network: &Network,
    workload: WorkloadKind,
    policy: P,
    config: EngineConfig,
) -> Summary {
    run_summary_with(network, workload, policy, config, crate::telemetry_flag())
}

/// [`run_summary`] with an explicit sidecar directory (`None` disables
/// sidecars). Tests use this to exercise the telemetry path without
/// touching process-global flags.
pub fn run_summary_with<P: SchedulingPolicy>(
    network: &Network,
    workload: WorkloadKind,
    policy: P,
    config: EngineConfig,
    telemetry_dir: Option<PathBuf>,
) -> Summary {
    let mut config = config;
    config.record_events = true;
    // Identity is taken before the workload is consumed so the sidecar
    // name never depends on anything the run computed.
    let identity = telemetry_dir
        .is_some()
        .then(|| RunIdentity::of(&workload, &config));
    let result = match workload {
        WorkloadKind::Trace(instance) => {
            instance.validate(network).expect("valid instance");
            run_policy(network, TraceSource::new(instance), policy, config.clone())
        }
        WorkloadKind::ClosedLoop { spec, rounds, seed } => {
            let src = ClosedLoopSource::new(network.clone(), spec, rounds, seed);
            run_policy(network, src, policy, config.clone())
        }
    };
    result.expect_ok();
    let vcfg = ValidationConfig {
        speed_divisor: config.speed_divisor,
        link_capacity: config.link_capacity,
        allow_late_execution: config.allow_late_execution,
        require_all_committed: true,
    };
    validate_events(network, &result, &vcfg)
        .unwrap_or_else(|e| panic!("event validation failed for {}: {e}", result.policy));
    let ratio = competitive_ratio(network, &result);
    let peak_edge_load = dtm_sim::peak_congestion(&result);
    if let Some(dir) = telemetry_dir {
        let identity = identity.expect("identity computed when sidecars are on");
        write_metrics_sidecar(
            &dir,
            &identity.file_stem(&result.policy, network),
            network,
            &result,
        )
        .expect("telemetry sidecar writable");
    }
    Summary {
        policy: result.policy.clone(),
        n: network.n(),
        txns: result.metrics.committed,
        makespan: result.metrics.makespan,
        max_latency: result.metrics.latency.max,
        mean_latency: result.metrics.latency.mean,
        comm_cost: result.metrics.comm_cost,
        ratio: ratio.max_ratio,
        peak_edge_load,
    }
}

/// One open-system (streaming) result row: what a bounded-memory run can
/// report without per-transaction history. Backlog statistics split the
/// post-warmup window in half; a positive [`StreamSummary::backlog_slope`]
/// (live transactions gained per step between the two half-window means)
/// is the overload signature, a slope near zero means the system is
/// stable at this arrival rate.
#[derive(Clone, Debug)]
pub struct StreamSummary {
    /// Policy name.
    pub policy: String,
    /// Nodes in the network.
    pub n: usize,
    /// Steps simulated.
    pub steps: Time,
    /// Committed transactions.
    pub committed: u64,
    /// Aborted transactions (missed executions).
    pub aborted: u64,
    /// Live transactions when the run stopped.
    pub backlog_end: usize,
    /// Peak live transactions.
    pub backlog_peak: usize,
    /// Transaction-arena slot high-water mark (bounded-memory witness:
    /// never exceeds `backlog_peak` however many transactions streamed).
    pub arena_high_water: usize,
    /// Mean backlog over the first post-warmup half-window.
    pub backlog_early_mean: f64,
    /// Mean backlog over the second post-warmup half-window.
    pub backlog_late_mean: f64,
    /// Backlog growth per step between the two half-window means.
    pub backlog_slope: f64,
    /// Steady-state sojourn latency, 50th percentile.
    pub p50_latency: Time,
    /// Steady-state sojourn latency, 95th percentile.
    pub p95_latency: Time,
    /// Steady-state sojourn latency, maximum.
    pub max_latency: Time,
    /// Steady-state sojourn latency, mean.
    pub mean_latency: f64,
}

impl StreamSummary {
    /// Stability verdict: backlog not growing faster than `tol` live
    /// transactions per step between the two post-warmup half-windows.
    pub fn is_stable(&self, tol: f64) -> bool {
        self.backlog_slope <= tol
    }
}

/// What a streaming run should observe and where its artifacts land.
/// Built from the process-wide [`crate::obs_flags`] by [`run_stream`] /
/// [`run_stream_labeled`], or constructed directly (tests, `long_haul`).
#[derive(Clone, Debug)]
pub struct ObserveSpec {
    /// Attach the [`dtm_telemetry::HealthMonitor`] watchdogs.
    pub health: Option<dtm_telemetry::HealthConfig>,
    /// Attach a K-step [`dtm_telemetry::FlightRecorder`]; its dump is
    /// written at the end of the run as `<label>.flight.jsonl` (plus an
    /// onset dump `<label>.onset.flight.jsonl` at the first health
    /// event, when the monitor is also attached).
    pub flight_k: Option<usize>,
    /// Flush live metrics every N steps as `<label>.live.json` +
    /// `<label>.prom`.
    pub expose_every: Option<u64>,
    /// Directory artifacts are written into (created on demand).
    pub dir: PathBuf,
    /// Unique file-stem for this run's artifacts. Callers running many
    /// cells (e.g. a rate sweep) must make this distinguish every cell —
    /// the flight/exposition writers overwrite by name.
    pub label: String,
}

impl ObserveSpec {
    /// Spec from the process-wide flags; `None` when no flag is on.
    /// Artifacts go to the `--telemetry` directory when that flag is
    /// set, else `observability/`.
    pub fn from_flags(label: &str) -> Option<ObserveSpec> {
        let flags = crate::obs_flags();
        if !flags.any() {
            return None;
        }
        Some(ObserveSpec {
            health: flags.health.then(dtm_telemetry::HealthConfig::default),
            flight_k: flags.flight_k,
            expose_every: flags.expose_every,
            dir: crate::telemetry_flag().unwrap_or_else(|| PathBuf::from("observability")),
            label: slug(label),
        })
    }
}

/// What the attached observers saw during one streaming run.
#[derive(Clone, Debug, Default)]
pub struct StreamObservation {
    /// Health events, in emission order (empty when no monitor).
    pub health_events: Vec<dtm_telemetry::HealthEvent>,
    /// Health emissions dropped past the event cap.
    pub health_suppressed: u64,
    /// Final flight dump path, when a recorder was attached and wrote.
    pub flight_dump: Option<PathBuf>,
    /// Onset dump path, when the monitor auto-dumped at its first event.
    pub onset_dump: Option<PathBuf>,
    /// Exposition flushes completed.
    pub expose_flushes: u64,
    /// First I/O error any artifact writer hit (runs never panic on it).
    pub io_error: Option<String>,
}

impl StreamObservation {
    /// True when no watchdog fired and every artifact write succeeded.
    pub fn is_healthy(&self) -> bool {
        self.health_events.is_empty() && self.health_suppressed == 0 && self.io_error.is_none()
    }
}

/// Drive `policy` against a (typically never-exhausting) `source` for
/// exactly `steps` steps under [`Retention::Streaming`] and summarize the
/// steady state. The closed-batch [`run_summary`] panics on violations
/// and insists every transaction commits — meaningless for an open
/// system, which by design stops with transactions still in flight; this
/// helper instead reports backlog trajectory, bounded-memory high-water
/// marks and post-warmup sojourn percentiles. Fully deterministic for a
/// deterministic source/policy, at any `--jobs` level.
///
/// When any [`crate::obs_flags`] switch is on, the continuous-observability
/// stack (recorder / health monitor / exposer) rides along, with artifact
/// names derived from the sidecar scope + policy + network; callers whose
/// cells differ in more than that (e.g. a rate sweep) must use
/// [`run_stream_labeled`] to keep artifact names unique.
pub fn run_stream<P: SchedulingPolicy, S: WorkloadSource>(
    network: &Network,
    source: S,
    policy: P,
    config: EngineConfig,
    steps: Time,
    warmup: Time,
) -> StreamSummary {
    let label = format!(
        "{}-{}-{}",
        current_sidecar_scope(),
        policy.name(),
        network.name()
    );
    run_stream_labeled(&label, network, source, policy, config, steps, warmup)
}

/// [`run_stream`] with an explicit artifact label: `label` (slugged)
/// names every observability artifact this run writes, so sweep callers
/// can encode the full cell identity (rate, source kind, …) and keep
/// parallel cells from colliding. With no observability flag on, the
/// label is unused and this is exactly [`run_stream`].
pub fn run_stream_labeled<P: SchedulingPolicy, S: WorkloadSource>(
    label: &str,
    network: &Network,
    source: S,
    policy: P,
    config: EngineConfig,
    steps: Time,
    warmup: Time,
) -> StreamSummary {
    match ObserveSpec::from_flags(label) {
        Some(spec) => run_stream_observed(network, source, policy, config, steps, warmup, &spec).0,
        None => run_stream_inner(network, source, policy, config, steps, warmup, None).0,
    }
}

/// [`run_stream`] with the continuous-observability stack attached per
/// `spec`, returning what the observers saw alongside the summary.
/// Attaching observers never changes the summary — they are passive —
/// so the table a sweep prints is byte-identical with or without them.
pub fn run_stream_observed<P: SchedulingPolicy, S: WorkloadSource>(
    network: &Network,
    source: S,
    policy: P,
    config: EngineConfig,
    steps: Time,
    warmup: Time,
    spec: &ObserveSpec,
) -> (StreamSummary, StreamObservation) {
    let (summary, obs) =
        run_stream_inner(network, source, policy, config, steps, warmup, Some(spec));
    (summary, obs.unwrap_or_default())
}

/// Observers and writers riding one streaming run.
struct ObserveAttach {
    recorder: Option<FlightRecorderHandle>,
    monitor: Option<HealthMonitorHandle>,
    exposure: Option<Exposure>,
    dir: PathBuf,
    label: String,
}

/// The exposed registry's writers: the periodic flusher, and the
/// `steady_*` entries the drive loop writes from kernel state.
struct Exposure {
    exposer: PeriodicExposer,
    backlog: Arc<Histogram>,
    backlog_now: Arc<Gauge>,
    backlog_peak: Arc<Gauge>,
    sojourn: Arc<Histogram>,
    commits: Arc<Counter>,
    aborts: Arc<Counter>,
}

impl Exposure {
    /// After each tick: the step-end backlog (its peak too, which
    /// `StepKernel::peak_live`, sampled mid-tick, can exceed), and the
    /// tick's aborts if it ran at or after `warmup`. The kernel aborts
    /// only alongside a `MissedExecution` violation, so without
    /// violations these are exactly the post-warmup transactions' aborts.
    fn record_tick(&self, fx: &StepEffects, warmup: Time) {
        let live = fx.live_after;
        self.backlog.record(live as u64);
        self.backlog_now.set(live as i64);
        self.backlog_peak.record_max(live as i64);
        if fx.t >= warmup {
            self.aborts.add(fx.aborted.len() as u64);
        }
    }

    /// Copy the kernel's post-warmup sojourn histogram and its count
    /// (the post-warmup commits) into the registry, then write both files.
    fn flush(&mut self, sojourn: &Log2Histogram) {
        self.sojourn.store_log2(sojourn);
        self.commits.add(sojourn.count() - self.commits.get());
        self.exposer.flush_now();
    }
}

impl ObserveAttach {
    /// The writers `spec` asks for, with its observers attached to
    /// `engine`.
    fn build<P: SchedulingPolicy>(
        spec: &ObserveSpec,
        mut engine: Engine<P>,
    ) -> std::io::Result<(ObserveAttach, Engine<P>)> {
        std::fs::create_dir_all(&spec.dir)?;
        let recorder = spec.flight_k.map(dtm_telemetry::flight_recorder);
        let monitor = spec.health.clone().map(|cfg| {
            let mut m = HealthMonitor::new(cfg);
            if let Some(rec) = &recorder {
                let onset = spec.dir.join(format!("{}.onset.flight.jsonl", spec.label));
                m = m.with_auto_dump(Arc::clone(rec), onset);
            }
            Arc::new(parking_lot::Mutex::new(m))
        });
        match (&recorder, &monitor) {
            // Both on: fuse them so the kernel probes one observer with
            // lock-free answers instead of paying two mutex round-trips
            // per per-tick question.
            (Some(rec), Some(mon)) => {
                engine =
                    engine.with_observer(ObservabilityStack::new(Arc::clone(rec), Arc::clone(mon)));
            }
            (Some(rec), None) => engine = engine.with_observer(Arc::clone(rec)),
            (None, Some(mon)) => engine = engine.with_observer(Arc::clone(mon)),
            (None, None) => {}
        }
        let mut exposure = None;
        if let Some(every) = spec.expose_every {
            // The exposer only snapshots; a telemetry sink and the drive
            // loop's steady-state entries produce the numbers it carries.
            let registry = Arc::new(MetricsRegistry::new());
            engine = engine.with_observer(TelemetrySink::new(Arc::clone(&registry)));
            exposure = Some(Exposure {
                backlog: registry.histogram(steady_names::BACKLOG),
                backlog_now: registry.gauge(steady_names::BACKLOG_NOW),
                backlog_peak: registry.gauge(steady_names::BACKLOG_PEAK),
                sojourn: registry.histogram(steady_names::SOJOURN),
                commits: registry.counter(steady_names::COMMITS),
                aborts: registry.counter(steady_names::ABORTS),
                exposer: PeriodicExposer::new(registry, every)
                    .with_json(spec.dir.join(format!("{}.live.json", spec.label)))
                    .with_prom(spec.dir.join(format!("{}.prom", spec.label))),
            });
        }
        let attach = ObserveAttach {
            recorder,
            monitor,
            exposure,
            dir: spec.dir.clone(),
            label: spec.label.clone(),
        };
        Ok((attach, engine))
    }

    /// Collect results and write the final flight dump and exposition.
    fn finish(self, sojourn: &Log2Histogram) -> StreamObservation {
        let mut out = StreamObservation::default();
        if let Some(monitor) = &self.monitor {
            let m = monitor.lock();
            out.health_events = m.events().to_vec();
            out.health_suppressed = m.suppressed();
            match m.dump_result() {
                Some(Ok(path)) => out.onset_dump = Some(path.clone()),
                Some(Err(e)) => out.io_error = Some(e.clone()),
                None => {}
            }
        }
        if let Some(recorder) = &self.recorder {
            let mut text = recorder.lock().dump();
            if let Some(monitor) = &self.monitor {
                text.push_str(&monitor.lock().events_jsonl());
            }
            let path = self.dir.join(format!("{}.flight.jsonl", self.label));
            match std::fs::write(&path, text) {
                Ok(()) => out.flight_dump = Some(path),
                Err(e) => {
                    out.io_error
                        .get_or_insert(format!("flight dump to {}: {e}", path.display()));
                }
            }
        }
        if let Some(mut exposure) = self.exposure {
            exposure.flush(sojourn);
            out.expose_flushes = exposure.exposer.flushes();
            if let Some(e) = exposure.exposer.last_error() {
                out.io_error.get_or_insert(e.to_string());
            }
        }
        out
    }
}

/// The shared drive loop behind [`run_stream`] and
/// [`run_stream_observed`].
fn run_stream_inner<P: SchedulingPolicy, S: WorkloadSource>(
    network: &Network,
    source: S,
    policy: P,
    config: EngineConfig,
    steps: Time,
    warmup: Time,
    spec: Option<&ObserveSpec>,
) -> (StreamSummary, Option<StreamObservation>) {
    assert!(warmup < steps, "warmup must leave a measurement window");
    let policy_name = policy.name();
    let mut config = config;
    config.retention = Retention::Streaming { warmup };
    config.record_events = false;
    config.max_steps = config.max_steps.max(steps);
    let mut engine = Engine::new(network.clone(), policy, config);
    let mut attach = None;
    if let Some(spec) = spec {
        let built = ObserveAttach::build(spec, engine).expect("observability dir writable");
        attach = Some(built.0);
        engine = built.1;
    }
    let mut kernel = engine.into_kernel(source);
    let mid = warmup + (steps - warmup) / 2;
    let (mut sum_early, mut n_early) = (0u128, 0u64);
    let (mut sum_late, mut n_late) = (0u128, 0u64);
    let mut aborted = 0u64;
    let mut exposure = attach.as_mut().and_then(|a| a.exposure.as_mut());
    while kernel.now() < steps {
        let Some(fx) = kernel.tick() else { break };
        aborted += fx.aborted.len() as u64;
        if fx.t >= warmup {
            if fx.t < mid {
                sum_early += fx.live_after as u128;
                n_early += 1;
            } else {
                sum_late += fx.live_after as u128;
                n_late += 1;
            }
        }
        if let Some(ex) = exposure.as_deref_mut() {
            ex.record_tick(fx, warmup);
            if ex.exposer.due(fx.t) {
                ex.flush(kernel.sojourn_latency());
            }
        }
    }
    let (backlog_early_mean, backlog_late_mean, backlog_slope) = dtm_telemetry::half_window_slope(
        (sum_early, n_early),
        (sum_late, n_late),
        ((steps - warmup) / 2).max(1),
    );
    let soj = kernel.sojourn_latency();
    let summary = StreamSummary {
        policy: policy_name,
        n: network.n(),
        steps: kernel.now(),
        committed: kernel.commit_count(),
        aborted,
        backlog_end: kernel.live_count(),
        backlog_peak: kernel.peak_live(),
        arena_high_water: kernel.arena_high_water(),
        backlog_early_mean,
        backlog_late_mean,
        backlog_slope,
        p50_latency: soj.percentile(0.50),
        p95_latency: soj.percentile(0.95),
        max_latency: soj.max(),
        mean_latency: soj.mean(),
    };
    (summary, attach.map(|a| a.finish(soj)))
}

thread_local! {
    /// Experiment id wrapped around the currently-running grid cell
    /// (see [`with_sidecar_scope`]); names the sidecars written inside.
    static SIDECAR_SCOPE: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Run `f` with `label` (an experiment id like `"E3"`) as the sidecar
/// scope on this thread. [`crate::ParallelGrid`] wraps every cell in
/// this, on whichever pool thread the cell lands on; runs outside any
/// scope fall back to the label `"run"`.
pub fn with_sidecar_scope<R>(label: &str, f: impl FnOnce() -> R) -> R {
    struct Reset(Option<String>);
    impl Drop for Reset {
        fn drop(&mut self) {
            let prev = self.0.take();
            SIDECAR_SCOPE.with(|s| *s.borrow_mut() = prev);
        }
    }
    let prev = SIDECAR_SCOPE.with(|s| s.borrow_mut().replace(label.to_string()));
    let _reset = Reset(prev);
    f()
}

fn current_sidecar_scope() -> String {
    SIDECAR_SCOPE.with(|s| s.borrow().clone().unwrap_or_else(|| "run".to_string()))
}

/// Lowercase a name into a filename-safe slug.
fn slug(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

/// FNV-1a over a byte string; stable across platforms and processes.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What makes one run distinguishable from every other run in a suite:
/// the experiment scope it runs under, its seed (when the workload has
/// one), and a fingerprint of the full workload + engine configuration.
/// Two runs with the same identity produce the same result, so their
/// sidecars may legitimately coincide — byte-identically.
struct RunIdentity {
    scope: String,
    seed: Option<u64>,
    fingerprint: u64,
}

impl RunIdentity {
    fn of(workload: &WorkloadKind, config: &EngineConfig) -> Self {
        use serde::Serialize;
        let (workload_repr, seed) = match workload {
            WorkloadKind::Trace(inst) => {
                let json = serde_json::to_string(&inst.to_value()).expect("instance serializes");
                (format!("trace:{json}"), None)
            }
            WorkloadKind::ClosedLoop { spec, rounds, seed } => {
                let json = serde_json::to_string(&spec.to_value()).expect("spec serializes");
                (format!("closed-loop:{json}:r{rounds}:s{seed}"), Some(*seed))
            }
        };
        let fingerprint = fnv64(format!("{workload_repr}|{config:?}").as_bytes());
        RunIdentity {
            scope: current_sidecar_scope(),
            seed,
            fingerprint,
        }
    }

    /// Deterministic sidecar file stem:
    /// `<scope>-<policy>-<network>[-s<seed>]-<fingerprint>`.
    fn file_stem(&self, policy: &str, network: &Network) -> String {
        let seed_part = self.seed.map(|s| format!("-s{s}")).unwrap_or_default();
        format!(
            "{}-{}-{}{}-{:016x}",
            slug(&self.scope),
            slug(policy),
            slug(network.name()),
            seed_part,
            self.fingerprint
        )
    }
}

/// Write one telemetry sidecar for `result` into `dir` (created on
/// demand) as `<file_stem>.metrics.json`: a pretty-printed
/// [`dtm_telemetry::MetricsSnapshot`] derived from the event log, tagged
/// with the run identity. Returns the path.
///
/// Writes are idempotent: if the file already exists with byte-identical
/// content (the same run re-executed, or a second suite process pointed
/// at the same directory), it is left alone. If it exists with
/// **different** content, the run identity scheme has collided — that is
/// a bug, and the call fails with [`std::io::ErrorKind::AlreadyExists`]
/// instead of silently clobbering another run's data.
pub fn write_metrics_sidecar(
    dir: &Path,
    file_stem: &str,
    network: &Network,
    result: &RunResult,
) -> std::io::Result<PathBuf> {
    use serde::{Serialize, Value};
    std::fs::create_dir_all(dir)?;
    let registry = dtm_telemetry::MetricsRegistry::new();
    dtm_telemetry::record_run(result, &registry);
    let doc = Value::Object(vec![
        ("policy".into(), Value::Str(result.policy.clone())),
        ("network".into(), Value::Str(network.name().to_string())),
        ("n".into(), Value::UInt(network.n() as u64)),
        ("metrics".into(), registry.snapshot().to_value()),
    ]);
    let body = serde_json::to_string_pretty(&doc).expect("sidecar serializes");
    let path = dir.join(format!("{file_stem}.metrics.json"));
    match std::fs::read_to_string(&path) {
        Ok(existing) if existing == body => return Ok(path),
        Ok(_) => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!(
                    "sidecar identity collision: {} exists with different content",
                    path.display()
                ),
            ))
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    std::fs::write(&path, body)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_core::GreedyPolicy;
    use dtm_graph::topology;
    use dtm_model::{ArrivalProcess, OpenLoopSource, WorkloadGenerator, WorkloadSpec};

    /// The `steady_*` entries the drive loop writes agree with the
    /// kernel: the backlog gauges and histogram with the step-end live
    /// set, the sojourn histogram and commit counter with the kernel's
    /// sojourn latency (warmup 0, so every commit counts).
    #[test]
    fn steady_entries_track_kernel_state() {
        let net = topology::clique(8);
        let spec = WorkloadSpec::batch_uniform(8, 2);
        let source =
            OpenLoopSource::new(net.clone(), spec, ArrivalProcess::Poisson { rate: 0.6 }, 17);
        let dir = std::env::temp_dir().join(format!("dtm-steady-{}", std::process::id()));
        let observe = ObserveSpec {
            health: None,
            flight_k: None,
            expose_every: Some(500),
            dir: dir.clone(),
            label: "steady".to_string(),
        };
        let config = EngineConfig::default();
        let (s, obs) = run_stream_observed(
            &net,
            source,
            GreedyPolicy::new(),
            config,
            10_000,
            0,
            &observe,
        );
        assert_eq!(obs.io_error, None);
        assert_eq!(obs.expose_flushes, 21, "20 on cadence, one final");
        let json = std::fs::read_to_string(dir.join("steady.live.json")).expect("exposed");
        let snap: dtm_telemetry::MetricsSnapshot = serde_json::from_str(&json).expect("schema");
        assert_eq!(
            snap.gauges[steady_names::BACKLOG_NOW] as usize,
            s.backlog_end
        );
        let peak = snap.gauges[steady_names::BACKLOG_PEAK] as usize;
        assert!(
            peak > 0 && peak <= s.backlog_peak,
            "{peak} vs {}",
            s.backlog_peak
        );
        assert_eq!(snap.histograms[steady_names::BACKLOG].count, s.steps);
        assert_eq!(snap.counters[steady_names::COMMITS], s.committed);
        assert_eq!(snap.counters[steady_names::ABORTS], s.aborted);
        let sojourn = &snap.histograms[steady_names::SOJOURN];
        assert_eq!(sojourn.count, s.committed);
        assert_eq!(sojourn.max, s.max_latency);
        assert!((sojourn.mean() - s.mean_latency).abs() < 1e-9);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summarizes_clean_run() {
        let net = topology::clique(6);
        let inst = WorkloadGenerator::new(WorkloadSpec::batch_uniform(4, 2), 1).generate(&net);
        let s = run_summary(
            &net,
            WorkloadKind::Trace(inst),
            GreedyPolicy::new(),
            EngineConfig::default(),
        );
        assert_eq!(s.txns, 6);
        assert!(s.ratio >= 0.0);
        assert!(s.makespan >= s.max_latency);
    }

    #[test]
    fn closed_loop_summary() {
        let net = topology::line(5);
        let s = run_summary(
            &net,
            WorkloadKind::ClosedLoop {
                spec: WorkloadSpec::batch_uniform(3, 1),
                rounds: 2,
                seed: 4,
            },
            GreedyPolicy::new(),
            EngineConfig::default(),
        );
        assert_eq!(s.txns, 10);
    }

    #[test]
    fn sidecar_scope_nests_and_restores() {
        assert_eq!(current_sidecar_scope(), "run");
        with_sidecar_scope("E3", || {
            assert_eq!(current_sidecar_scope(), "E3");
            with_sidecar_scope("E4", || assert_eq!(current_sidecar_scope(), "E4"));
            assert_eq!(current_sidecar_scope(), "E3");
        });
        assert_eq!(current_sidecar_scope(), "run");
    }

    #[test]
    fn identity_distinguishes_seed_config_and_workload() {
        let spec = WorkloadSpec::batch_uniform(4, 2);
        let wl = |seed| WorkloadKind::ClosedLoop {
            spec: spec.clone(),
            rounds: 2,
            seed,
        };
        let cfg = EngineConfig::default();
        let a = RunIdentity::of(&wl(1), &cfg);
        let b = RunIdentity::of(&wl(2), &cfg);
        assert_ne!(a.fingerprint, b.fingerprint, "seed must differentiate");
        let capped = EngineConfig {
            link_capacity: Some(1),
            allow_late_execution: true,
            ..EngineConfig::default()
        };
        let c = RunIdentity::of(&wl(1), &capped);
        assert_ne!(a.fingerprint, c.fingerprint, "config must differentiate");
        // Same parameters -> same fingerprint, deterministically.
        let a2 = RunIdentity::of(&wl(1), &cfg);
        assert_eq!(a.fingerprint, a2.fingerprint);
        let net = topology::clique(6);
        let stem = a.file_stem("greedy", &net);
        assert!(stem.starts_with("run-greedy-"), "stem: {stem}");
        assert!(stem.contains("-s1-"), "stem: {stem}");
    }

    #[test]
    fn sidecar_collision_errors_identical_is_idempotent() {
        let net = topology::clique(5);
        let inst = WorkloadGenerator::new(WorkloadSpec::batch_uniform(3, 1), 9).generate(&net);
        let res = dtm_sim::run_policy(
            &net,
            dtm_model::TraceSource::new(inst),
            GreedyPolicy::new(),
            EngineConfig {
                record_events: true,
                ..EngineConfig::default()
            },
        );
        res.expect_ok();
        let dir = std::env::temp_dir().join(format!("dtm-sidecar-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let p1 = write_metrics_sidecar(&dir, "stem", &net, &res).unwrap();
        // Identical rewrite: fine.
        let p2 = write_metrics_sidecar(&dir, "stem", &net, &res).unwrap();
        assert_eq!(p1, p2);
        // Same name, different content: loud failure, original preserved.
        let before = std::fs::read_to_string(&p1).unwrap();
        std::fs::write(&p1, "something else").unwrap();
        let err = write_metrics_sidecar(&dir, "stem", &net, &res).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
        assert_eq!(std::fs::read_to_string(&p1).unwrap(), "something else");
        std::fs::write(&p1, before).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
