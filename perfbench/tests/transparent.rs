//! The traced mode must not change what the simulator computes, and every
//! metric the benchmark prints must be declared in `BENCHMARK.json`.

use dtm_perfbench::{per_layer_names, run, RunArgs, Workload, END_TO_END};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn small(workload: Workload, trace: bool) -> RunArgs {
    RunArgs {
        workload,
        seed: 3,
        seconds: 0.01,
        trace,
        size: workload.small_size(),
    }
}

/// A traced run checks each traced pass's deterministic outputs against
/// an untraced reference pass, so `correct` means the wrappers were
/// transparent.
#[test]
fn traced_passes_reproduce_untraced_outputs() {
    for w in Workload::ALL {
        let out = run(&small(w, true));
        assert!(out.correct, "{}: {:?}", w.name(), out.failures);
        assert!(out.passes >= 2, "{}: no traced pass ran", w.name());
    }
}

#[test]
fn plain_runs_pass_their_gates() {
    for w in Workload::ALL {
        let out = run(&small(w, false));
        assert!(out.correct, "{}: {:?}", w.name(), out.failures);
    }
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn printed_metric_names_are_declared() {
    let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    names.extend(per_layer_names().into_iter().map(|(n, _)| n));
    for w in Workload::ALL {
        names.push(w.name().to_string());
    }
    for name in &names {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(
            BENCHMARK_JSON.contains(&format!("\"name\": \"{name}\"")),
            "{name} is not in BENCHMARK.json"
        );
    }
    let declared = BENCHMARK_JSON.matches("\"name\": \"").count();
    assert_eq!(
        declared,
        names.len(),
        "BENCHMARK.json declares names the binary never prints"
    );
}
