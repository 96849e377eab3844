//! Generate a workload trace as JSON, for sharing and replay.
//!
//! ```text
//! cargo run -p dtm-bench --release --bin gen_trace -- \
//!     [topology] [num_objects] [k] [rate] [horizon] [seed] > trace.json
//! # topology: clique | line | grid | hypercube | star | cluster
//! # defaults: grid 12 2 0.2 30 1
//! ```
//!
//! An unknown topology, a non-numeric argument or a non-finite or
//! negative rate exits 2 with a diagnostic.
//!
//! Replay with `run_trace`.

use dtm_bench::fail;
use dtm_graph::topology;
use dtm_model::{FiniteArrivals, ObjectChoice, WorkloadGenerator, WorkloadSpec};

/// Positional argument `i` parsed as `T`, or `default` when absent.
fn arg<T: std::str::FromStr>(args: &[String], i: usize, name: &str, default: T) -> T {
    match args.get(i) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| fail(&format!("{name} must be a number, got {v:?}"))),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let topo = args.get(1).map_or("grid", String::as_str);
    let net = topology::by_name(topo).unwrap_or_else(|| {
        fail(&format!(
            "unknown topology {topo:?}; expected one of: {}",
            topology::NAMES.join(", ")
        ))
    });
    let num_objects: u32 = arg(&args, 2, "num_objects", 12);
    let k: usize = arg(&args, 3, "k", 2);
    let rate: f64 = arg(&args, 4, "rate", 0.2);
    if !(rate.is_finite() && rate >= 0.0) {
        fail(&format!("rate must be finite and non-negative, got {rate}"));
    }
    let horizon: u64 = arg(&args, 5, "horizon", 30);
    let seed: u64 = arg(&args, 6, "seed", 1);

    let spec = WorkloadSpec {
        num_objects,
        k,
        object_choice: ObjectChoice::Uniform,
        arrival: FiniteArrivals::Bernoulli { rate, horizon },
    };
    let instance = WorkloadGenerator::new(spec, seed).generate(&net);
    instance
        .validate(&net)
        .expect("generated instance is valid");
    eprintln!(
        "generated {} transactions / {} objects on {}",
        instance.num_txns(),
        instance.num_objects(),
        net.name()
    );
    // Emit {topology, instance} so run_trace can rebuild the same network.
    let doc = serde_json::json!({
        "topology": topo,
        "instance": instance,
    });
    println!("{}", serde_json::to_string_pretty(&doc).expect("serialize"));
}
