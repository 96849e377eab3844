//! Command-line entry point of the benchmark.
//!
//! ```text
//! dtm-perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! dtm-perfbench --print-expected
//! ```
//!
//! Prints a human-readable report, then one JSON line with `correct`,
//! `attempted`, `failed` and `metrics`. Exits 1 when a correctness check
//! fails and 2 on bad arguments.

use dtm_perfbench::{expected, prepare, run, Outcome, RunArgs, Workload, DEFAULT_SEED};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: dtm_perfbench::probe::CountingAlloc = dtm_perfbench::probe::CountingAlloc;

fn usage(msg: &str) -> ExitCode {
    eprintln!("dtm-perfbench: {msg}");
    eprintln!(
        "usage: dtm-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        Workload::ALL.map(Workload::name).join("|")
    );
    eprintln!("       dtm-perfbench --print-expected");
    ExitCode::from(2)
}

/// The result line. Rust prints a finite `f64` as a valid JSON number;
/// `main` drops non-finite values before calling this.
fn json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn print_expected() -> ExitCode {
    println!("# Default-seed (--seed {DEFAULT_SEED}) outputs of one full-size pass per workload.");
    println!("# workload committed hops sojourn_p50 sojourn_p99 peak_live");
    for w in Workload::ALL {
        let p = prepare(w, w.size(), DEFAULT_SEED, None);
        match p.reference_pass() {
            Ok(r) => println!("{}", expected::line(w, &r.fingerprint())),
            Err(e) => {
                eprintln!("dtm-perfbench: {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--print-expected") {
        return print_expected();
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::from_name(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload {value:?}")),
            },
            "--seed" => match value.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage("--seed takes a non-negative integer"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => seconds = s,
                _ => return usage("--seconds takes a positive number"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage("--trace takes 0 or 1"),
            },
            other => return usage(&format!("unknown flag {other:?}")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    // One worker: nothing here fans out, and no library call may either.
    if rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build_global()
        .is_err()
    {
        return usage("cannot pin the rayon pool to one thread");
    }
    let args = RunArgs {
        workload,
        seed,
        seconds,
        trace,
        size: workload.size(),
    };
    let mut out = run(&args);
    if let Some(m) = out.metrics.iter().find(|m| !m.value.is_finite()) {
        out.failures
            .push(format!("{} is not a finite number", m.name));
        out.correct = false;
    }
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "dtm-perfbench workload={} seed={seed} trace={} nproc={nproc} passes={} windows={} window_steps={} pass_steps={}",
        workload.name(),
        u8::from(trace),
        out.passes,
        out.windows,
        args.size.window,
        args.size.steps,
    );
    if let Some(us) = out.first_window_us {
        println!("  first window: {us:.6} us/step");
    }
    if let Some(fp) = &out.fingerprint {
        println!("  deterministic: {}", expected::line(workload, fp));
    }
    for m in &out.metrics {
        println!("  {:<42} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for n in &out.notes {
        println!("  NOTE {n}");
    }
    for f in &out.failures {
        println!("  FAIL {f}");
    }
    out.metrics.retain(|m| m.value.is_finite());
    println!("{}", json(&out));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
