//! The three workloads and their timed set-up.
//!
//! Each workload is one policy × graph × arrival process. The graph and
//! the policy's sparse cover are the system under test and keep fixed
//! seeds (`geometric` seed 18, cover seed 31). Every generator of the
//! workload's inputs (the batch instance, the open-loop arrival stream
//! and its object placement) is seeded from the run's `--seed`: seed `s`
//! adds `s` to the generator's base seed, so [`DEFAULT_SEED`] reproduces
//! the base seeds (instance 23, stream 2026).

use crate::probe::{Shared, TracedScheduler};
use dtm_core::DistributedBucketPolicy;
use dtm_graph::{topology, Network, NodeId};
use dtm_model::{
    presets, ArrivalProcess, FiniteArrivals, Instance, ObjectChoice, OpenLoopSource, Time,
    WorkloadGenerator, WorkloadSpec,
};
use dtm_offline::ListScheduler;
use dtm_sim::{Engine, EngineConfig, Retention};
use std::time::Instant;

/// The seed whose deterministic outputs are recorded in `expected.txt`.
pub const DEFAULT_SEED: u64 = 0;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Algorithm 1 greedy on `hypercube(8)` over a finite Bernoulli batch
    /// replayed through `TraceSource`, full retention, run until drained.
    BatchHypercube8,
    /// Greedy on `geometric(10^4)` (landmark routing tier) under an
    /// open-loop Poisson edge-sensor stream, streaming retention.
    StreamGeo10k,
    /// Algorithm 3 distributed bucket on `clique(8)` at half speed under
    /// a sub-knee Poisson stream, with a flight recorder and a health
    /// monitor attached.
    SoakClique8Dist,
}

/// How much one pass simulates, and how the timed loop is windowed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Size {
    /// Batch: the instance's arrival horizon (a pass runs until the
    /// batch drains). Streams: steps per pass.
    pub steps: Time,
    /// Streams: leading steps whose arrivals are left out of the sojourn
    /// sample (the cold start); also where allocation counting starts.
    pub warmup: Time,
    /// Streams: steps of the untimed reference pass. Its first `steps`
    /// give the counts every timed pass must reproduce; all of it gives
    /// the sojourn sample, which needs more steps than a timed pass.
    pub reference_steps: Time,
    /// Steps per timing window.
    pub window: u64,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::BatchHypercube8,
        Workload::StreamGeo10k,
        Workload::SoakClique8Dist,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchHypercube8 => "batch-hypercube8",
            Workload::StreamGeo10k => "stream-geo10k",
            Workload::SoakClique8Dist => "soak-clique8-dist",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark's size: passes of a few tenths of a second, so a run
    /// holds dozens of them, each cut into at least 1000 windows so that
    /// every pass has its own p99.
    pub fn size(self) -> Size {
        match self {
            Workload::BatchHypercube8 => Size {
                steps: 100_000,
                warmup: 10_000,
                reference_steps: 100_000,
                window: 100,
            },
            Workload::StreamGeo10k => Size {
                steps: 3_000,
                warmup: 1_000,
                reference_steps: 15_000,
                window: 3,
            },
            Workload::SoakClique8Dist => Size {
                steps: 200_000,
                warmup: 20_000,
                reference_steps: 200_000,
                window: 200,
            },
        }
    }

    /// A size small enough for unit tests, yet with the 1000 sojourn
    /// samples a p99 needs.
    pub fn small_size(self) -> Size {
        match self {
            Workload::BatchHypercube8 => Size {
                steps: 2_000,
                warmup: 200,
                reference_steps: 2_000,
                window: 100,
            },
            Workload::StreamGeo10k => Size {
                steps: 1_000,
                warmup: 300,
                reference_steps: 4_000,
                window: 10,
            },
            Workload::SoakClique8Dist => Size {
                steps: 5_000,
                warmup: 500,
                reference_steps: 5_000,
                window: 100,
            },
        }
    }
}

/// Wall seconds of each set-up stage.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Everything before the first tick.
    pub total: f64,
    /// Building the graph.
    pub graph_build: f64,
    /// Forcing lazily built routing structures: dense table, landmark
    /// oracle, diameter, and the policy's half-speed network.
    pub routing_warm: f64,
    /// `DistributedBucketPolicy::new`: sparse cover plus half-speed copy.
    pub cover_build: f64,
    /// Generating the instance or building the open-loop source.
    pub instance_gen: f64,
}

/// The distributed bucket policy, bare or with a timed offline scheduler.
#[derive(Clone)]
pub enum SoakPolicy {
    /// The library policy as users run it.
    Plain(DistributedBucketPolicy<ListScheduler>),
    /// The same policy around a [`TracedScheduler`].
    Traced(DistributedBucketPolicy<TracedScheduler<ListScheduler>>),
}

/// A workload's inputs, ready to run.
#[allow(clippy::large_enum_variant)] // one value per run; boxing buys nothing
pub enum Input {
    /// The pre-generated batch instance.
    Batch(Instance),
    /// The open-loop source (cloned fresh for every pass).
    Stream(OpenLoopSource),
    /// The open-loop source and the policy prototype.
    Soak(OpenLoopSource, SoakPolicy),
}

/// One set-up's result: everything a pass needs.
pub struct Prepared {
    /// Pass size.
    pub size: Size,
    /// The network, with its lazy routing structures already built.
    pub net: Network,
    /// Engine configuration for timed passes.
    pub config: EngineConfig,
    /// Workload inputs.
    pub input: Input,
    /// Set-up timings.
    pub times: SetupTimes,
}

/// Seed of the `geometric` graph of `stream-geo10k`.
const GEOMETRIC_SEED: u64 = 18;

/// Seed of the soak policy's sparse cover.
const COVER_SEED: u64 = 31;

/// Seed of one input generator: its base seed offset by the run's seed.
fn sub_seed(base: u64, seed: u64) -> u64 {
    base.wrapping_add(seed)
}

/// Steps a clone of the soak policy runs during set-up so that the
/// lazily built routing table of its half-speed network exists before
/// the first timed tick.
const PRIME_STEPS: u64 = 512;

/// Force every lazily built, network-wide routing structure: the
/// diameter, the dense all-pairs table (small unstructured graphs) and
/// the landmark oracle (large ones).
fn warm_routing(net: &Network) {
    std::hint::black_box(net.diameter());
    std::hint::black_box(net.distance_slack());
    if net.n() > 1 {
        std::hint::black_box(net.hop_toward(NodeId(0), NodeId(1)));
    }
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Build `workload`'s network and inputs for `seed`, timing each stage.
/// With `trace`, the soak policy's offline scheduler reports into it.
pub fn prepare(workload: Workload, size: Size, seed: u64, trace: Option<&Shared>) -> Prepared {
    let start = Instant::now();
    let mut times = SetupTimes::default();
    let mut config = EngineConfig {
        record_events: false,
        ..EngineConfig::default()
    };
    let streaming = Retention::Streaming {
        warmup: size.warmup,
    };
    let (net, input) = match workload {
        Workload::BatchHypercube8 => {
            let t = Instant::now();
            let net = topology::hypercube(8);
            times.graph_build = secs(t);
            let t = Instant::now();
            warm_routing(&net);
            times.routing_warm = secs(t);
            let t = Instant::now();
            let spec = WorkloadSpec {
                num_objects: 32,
                k: 2,
                object_choice: ObjectChoice::Uniform,
                arrival: FiniteArrivals::Bernoulli {
                    rate: 0.004,
                    horizon: size.steps,
                },
            };
            let instance = WorkloadGenerator::new(spec, sub_seed(23, seed)).generate(&net);
            times.instance_gen = secs(t);
            (net, Input::Batch(instance))
        }
        Workload::StreamGeo10k => {
            let t = Instant::now();
            let net = topology::geometric(10_000, 4, GEOMETRIC_SEED);
            times.graph_build = secs(t);
            let t = Instant::now();
            warm_routing(&net);
            times.routing_warm = secs(t);
            let t = Instant::now();
            let spec = presets::edge_sensors(10_000, 5, 48 + net.distance_slack(), 0.0, 0);
            let source = OpenLoopSource::new(
                net.clone(),
                spec,
                ArrivalProcess::Poisson { rate: 0.4 },
                sub_seed(2026, seed),
            );
            times.instance_gen = secs(t);
            config.retention = streaming;
            config.max_steps = size.reference_steps;
            (net, Input::Stream(source))
        }
        Workload::SoakClique8Dist => {
            let t = Instant::now();
            let net = topology::clique(8);
            times.graph_build = secs(t);
            let t = Instant::now();
            let source = OpenLoopSource::new(
                net.clone(),
                WorkloadSpec::batch_uniform(8, 2),
                ArrivalProcess::Poisson { rate: 0.3 },
                sub_seed(2026, seed),
            );
            times.instance_gen = secs(t);
            let t = Instant::now();
            let policy = match trace {
                None => SoakPolicy::Plain(DistributedBucketPolicy::new(
                    &net,
                    ListScheduler::fifo(),
                    COVER_SEED,
                )),
                Some(trace) => SoakPolicy::Traced(DistributedBucketPolicy::new(
                    &net,
                    TracedScheduler::new(ListScheduler::fifo(), trace.clone()),
                    COVER_SEED,
                )),
            };
            times.cover_build = secs(t);
            config = EngineConfig {
                record_events: false,
                retention: streaming,
                max_steps: size.reference_steps,
                ..DistributedBucketPolicy::<ListScheduler>::engine_config()
            };
            let t = Instant::now();
            warm_routing(&net);
            // The half-speed network is private to the policy but shared
            // by its clones: a clone driven until the offline scheduler
            // has run builds the routing table the original will use.
            let prime = EngineConfig {
                retention: Retention::Streaming { warmup: 0 },
                max_steps: PRIME_STEPS,
                ..config.clone()
            };
            match &policy {
                SoakPolicy::Plain(p) => {
                    Engine::new(net.clone(), p.clone(), prime)
                        .into_kernel(source.clone())
                        .run_for(PRIME_STEPS);
                }
                SoakPolicy::Traced(p) => {
                    Engine::new(net.clone(), p.clone(), prime)
                        .into_kernel(source.clone())
                        .run_for(PRIME_STEPS);
                }
            }
            times.routing_warm = secs(t);
            (net, Input::Soak(source, policy))
        }
    };
    times.total = secs(start);
    Prepared {
        size,
        net,
        config,
        input,
        times,
    }
}

impl Prepared {
    /// An engine on this set-up's network and timed-pass configuration.
    pub fn engine<P: dtm_sim::SchedulingPolicy>(&self, policy: P) -> Engine<P> {
        Engine::new(self.net.clone(), policy, self.config.clone())
    }
}
