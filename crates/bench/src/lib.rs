//! # dtm-bench
//!
//! Experiment harness reproducing, as measurements, every theorem-level
//! claim of Busch et al., IPDPS 2020 (the paper has no empirical section;
//! EXPERIMENTS.md defines the experiment suite E1–E17 and ablations
//! A1–A5 and records the results).
//!
//! Each experiment is a module in [`experiments`] with a binary target
//! (`exp_e1` … `exp_all`); run them in release mode:
//!
//! ```text
//! cargo run -p dtm-bench --release --bin exp_all
//! cargo run -p dtm-bench --release --bin exp_e3 -- --quick --jobs 4
//! ```
//!
//! Experiment grids fan out across a thread pool via [`ParallelGrid`];
//! `--jobs N` pins the pool width (default: all cores). Tables are
//! byte-identical at every jobs level — see EXPERIMENTS.md,
//! "Parallel execution".
//!
//! Criterion micro-benchmarks of the schedulers and substrates live under
//! `benches/` (`cargo bench -p dtm-bench`).

#![forbid(unsafe_code)]

pub mod experiments;
pub mod grid;
pub mod runner;
pub mod table;

pub use grid::ParallelGrid;
pub use runner::{
    run_stream, run_stream_labeled, run_stream_observed, run_summary, run_summary_with,
    ObserveSpec, StreamObservation, StreamSummary, Summary, WorkloadKind,
};
pub use table::Table;

use std::sync::OnceLock;

/// Parse the conventional `--quick` flag used by every experiment binary.
pub fn quick_flag() -> bool {
    std::env::args().any(|a| a == "--quick" || a == "-q")
}

/// The value after the first of `names` in the process arguments (`None`
/// when absent); a flag followed by nothing or by another `--flag` fails
/// through [`fail`].
fn process_flag(names: &[&str]) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let i = args.iter().position(|a| names.contains(&a.as_str()))?;
    match args.get(i + 1) {
        Some(v) if !v.starts_with("--") => Some(v.clone()),
        _ => fail(&format!("{} takes a value", names[0])),
    }
}

/// [`process_flag`] as a positive integer, else [`fail`].
fn positive_flag<T: std::str::FromStr + PartialEq + From<u8>>(names: &[&str]) -> Option<T> {
    let v = process_flag(names)?;
    match v.parse::<T>() {
        Ok(n) if n != T::from(0) => Some(n),
        _ => fail(&format!("{} takes a positive integer, got {v:?}", names[0])),
    }
}

/// Parse the conventional `--jobs <N>` flag (also `-j <N>`): the number
/// of worker threads experiment grids fan out on. Absent flag = `None`
/// (the pool defaults to `RAYON_NUM_THREADS`, then all cores); a
/// missing, non-integer or zero value exits 2 through [`fail`].
pub fn jobs_flag() -> Option<usize> {
    positive_flag(&["--jobs", "-j"])
}

/// Apply `--jobs` to the global thread pool. Every experiment binary
/// calls this once at startup; without the flag it is a no-op and the
/// pool uses its defaults. It parses the other shared flags too, so a bad
/// value exits 2 before any work starts.
pub fn init_jobs() {
    telemetry_flag();
    obs_flags();
    if let Some(n) = jobs_flag() {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .expect("global thread pool configures");
    }
}

/// Value following `flag` in `args`, if present.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Print `msg` to stderr, prefixed with the running binary's name, and
/// exit with code 2. This is the bad-input contract of the trace, report
/// and soak binaries: a missing, truncated or malformed input gets a
/// diagnosis, never a panic.
pub fn fail(msg: &str) -> ! {
    let bin = std::env::args_os()
        .next()
        .map(std::path::PathBuf::from)
        .and_then(|p| Some(p.file_stem()?.to_string_lossy().into_owned()))
        .unwrap_or_default();
    eprintln!("{bin}: {msg}");
    std::process::exit(2);
}

/// The process-wide `--telemetry <dir>` flag used by every experiment
/// binary: when present, [`run_summary`] writes one `MetricsSnapshot`
/// sidecar JSON per run into the directory (created on demand). See
/// EXPERIMENTS.md, "Telemetry sidecars".
///
/// The command line is parsed **once per process** and cached (the flag
/// has process-lifetime semantics): every `run_summary` call — including
/// cells racing on the thread pool — observes the same enabled/disabled
/// state for the life of the process, never a torn mid-suite flip. A
/// `--telemetry` with no directory after it exits 2 through [`fail`].
pub fn telemetry_flag() -> Option<std::path::PathBuf> {
    static TELEMETRY_DIR: OnceLock<Option<std::path::PathBuf>> = OnceLock::new();
    TELEMETRY_DIR
        .get_or_init(|| process_flag(&["--telemetry"]).map(std::path::PathBuf::from))
        .clone()
}

/// The continuous-observability flags shared by the streaming bins
/// (`--health`, `--flight-k <K>`, `--expose-every <N>`); see
/// [`ObsFlags`]. Parsed once per process and cached, exactly like
/// [`telemetry_flag`], so parallel grid cells all observe the same
/// state. A non-positive-integer value exits 2 through [`fail`].
pub fn obs_flags() -> &'static ObsFlags {
    static OBS: OnceLock<ObsFlags> = OnceLock::new();
    OBS.get_or_init(|| ObsFlags {
        health: std::env::args().any(|a| a == "--health"),
        flight_k: positive_flag(&["--flight-k"]),
        expose_every: positive_flag(&["--expose-every"]),
    })
}

/// Process-wide continuous-observability switches for streaming runs
/// (attached by [`run_stream`] when any is on; outputs land in the
/// `--telemetry` directory, defaulting to `observability/`):
///
/// * `--health` — attach the `dtm_telemetry::HealthMonitor` watchdogs
///   and report their events;
/// * `--flight-k <K>` — attach a K-step `dtm_telemetry::FlightRecorder`
///   and dump it at the end of the run (plus an onset dump at the first
///   health event, when `--health` is also on);
/// * `--expose-every <N>` — flush live metrics every N steps as JSON +
///   Prometheus text.
#[derive(Clone, Debug, Default)]
pub struct ObsFlags {
    /// `--health` present.
    pub health: bool,
    /// `--flight-k <K>` value.
    pub flight_k: Option<usize>,
    /// `--expose-every <N>` value.
    pub expose_every: Option<u64>,
}

impl ObsFlags {
    /// True when any observability switch is on.
    pub fn any(&self) -> bool {
        self.health || self.flight_k.is_some() || self.expose_every.is_some()
    }
}
