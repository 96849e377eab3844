//! Regression tests for the report and trace binaries' input handling:
//! `trace_report`, `flight_report`, `gen_trace`, `run_trace` and
//! `long_haul` must fail *gracefully* — an error message on stderr and
//! exit code 2, never a panic — on missing, empty, truncated or malformed
//! input, on unknown names and on bad rates, and must process valid input.
//! The experiment binaries hold their shared flags to the same contract.

use dtm_sim::{StepEffects, StepObserver};
use std::path::PathBuf;
use std::process::{Command, Output};

fn run_bin(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .output()
        .expect("report binary spawns")
}

fn tmp_file(name: &str, content: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dtm-report-bins-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, content).expect("fixture writable");
    path
}

/// The failure contract: exit code 2, a diagnostic on stderr, no panic.
fn assert_graceful(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{what}: expected exit 2, got {:?} (stderr: {stderr})",
        out.status.code()
    );
    assert!(!stderr.is_empty(), "{what}: no diagnostic on stderr");
    assert!(
        !stderr.contains("panicked"),
        "{what}: panicked instead of failing gracefully: {stderr}"
    );
}

#[test]
fn trace_report_fails_gracefully_on_bad_input() {
    let exe = env!("CARGO_BIN_EXE_trace_report");
    assert_graceful(&run_bin(exe, &[]), "no args");
    let empty = tmp_file("trace-empty.jsonl", "");
    assert_graceful(&run_bin(exe, &[empty.to_str().unwrap()]), "empty file");
    let blank = tmp_file("trace-blank.jsonl", "\n  \n");
    assert_graceful(&run_bin(exe, &[blank.to_str().unwrap()]), "whitespace file");
    let garbage = tmp_file("trace-garbage.jsonl", "not json at all\n");
    assert_graceful(&run_bin(exe, &[garbage.to_str().unwrap()]), "garbage");
    let truncated = tmp_file(
        "trace-truncated.jsonl",
        "{\"type\":\"meta\",\"data\":{\"pol",
    );
    assert_graceful(&run_bin(exe, &[truncated.to_str().unwrap()]), "truncated");
    assert_graceful(&run_bin(exe, &["/nonexistent/trace.jsonl"]), "missing file");
    let ok_but_bad_flag = tmp_file("trace-flag.jsonl", "{\"type\":\"meta\",\"data\":{}}\n");
    assert_graceful(
        &run_bin(exe, &[ok_but_bad_flag.to_str().unwrap(), "--top", "NaN"]),
        "non-integer --top",
    );
}

#[test]
fn flight_report_fails_gracefully_on_bad_input() {
    let exe = env!("CARGO_BIN_EXE_flight_report");
    assert_graceful(&run_bin(exe, &[]), "no args");
    let empty = tmp_file("flight-empty.jsonl", "");
    assert_graceful(&run_bin(exe, &[empty.to_str().unwrap()]), "empty file");
    let garbage = tmp_file("flight-garbage.jsonl", "not json at all\n");
    assert_graceful(&run_bin(exe, &[garbage.to_str().unwrap()]), "garbage");
    // A dump cut mid-line (what a killed process leaves behind).
    let truncated = tmp_file(
        "flight-truncated.jsonl",
        "{\"type\":\"flight_meta\",\"data\":{\"version\"",
    );
    assert_graceful(&run_bin(exe, &[truncated.to_str().unwrap()]), "truncated");
    // Valid JSON lines that violate the dump schema (no meta first).
    let no_meta = tmp_file(
        "flight-no-meta.jsonl",
        "{\"type\":\"flight_step\",\"data\":{\"t\":1}}\n",
    );
    assert_graceful(
        &run_bin(exe, &[no_meta.to_str().unwrap()]),
        "schema violation",
    );
    assert_graceful(
        &run_bin(exe, &["/nonexistent/run.flight.jsonl"]),
        "missing file",
    );
}

#[test]
fn gen_trace_fails_gracefully_on_bad_input() {
    let exe = env!("CARGO_BIN_EXE_gen_trace");
    assert_graceful(&run_bin(exe, &["torus"]), "unknown topology");
    assert_graceful(
        &run_bin(exe, &["grid", "twelve"]),
        "non-numeric num_objects",
    );
    assert_graceful(
        &run_bin(exe, &["grid", "12", "2", "fast"]),
        "non-numeric rate",
    );
    for rate in ["nan", "inf", "-0.1"] {
        assert_graceful(&run_bin(exe, &["grid", "12", "2", rate]), rate);
    }
}

#[test]
fn long_haul_fails_gracefully_on_bad_rate() {
    let exe = env!("CARGO_BIN_EXE_long_haul");
    let out = std::env::temp_dir().join(format!("dtm-long-haul-{}", std::process::id()));
    for rate in ["nan", "inf", "-1"] {
        let args = [
            "--steps",
            "10",
            "--rate",
            rate,
            "--out",
            out.to_str().unwrap(),
        ];
        assert_graceful(&run_bin(exe, &args), rate);
    }
    assert!(!out.exists(), "a rejected rate still wrote artifacts");
}

/// The shared experiment flags reject bad values at startup instead of
/// running with defaults; valid values still run.
#[test]
fn experiment_flags_fail_gracefully_on_bad_values() {
    let exe = env!("CARGO_BIN_EXE_exp_e3");
    let bad: [&[&str]; 9] = [
        &["--jobs", "abc"],
        &["--jobs", "0"],
        &["--jobs"],
        &["-j", "-1"],
        &["--telemetry"],
        &["--telemetry", "--jobs", "1"],
        &["--flight-k", "abc"],
        &["--flight-k", "0"],
        &["--expose-every", "x"],
    ];
    for flags in bad {
        let mut args = vec!["--quick"];
        args.extend_from_slice(flags);
        assert_graceful(&run_bin(exe, &args), &flags.join(" "));
    }
    let ok = run_bin(exe, &["--quick", "--jobs", "1"]);
    assert!(ok.status.success(), "--jobs 1 must run: {ok:?}");
}

#[test]
fn run_trace_fails_gracefully_on_bad_input() {
    let exe = env!("CARGO_BIN_EXE_run_trace");
    assert_graceful(&run_bin(exe, &[]), "no args");
    assert_graceful(&run_bin(exe, &["/nonexistent/trace.json"]), "missing file");
    let garbage = tmp_file("run-garbage.json", "not json at all");
    assert_graceful(&run_bin(exe, &[garbage.to_str().unwrap()]), "garbage JSON");
    let no_topo = tmp_file("run-no-topo.json", "{\"instance\":{}}");
    assert_graceful(
        &run_bin(exe, &[no_topo.to_str().unwrap()]),
        "missing topology field",
    );
    let no_inst = tmp_file("run-no-inst.json", "{\"topology\":\"grid\"}");
    assert_graceful(
        &run_bin(exe, &[no_inst.to_str().unwrap()]),
        "missing instance field",
    );
    let trace = gen_trace(&["grid", "6", "2", "0.1", "10", "3"]);
    let unknown_topo = tmp_file(
        "run-unknown-topo.json",
        &trace.replace("\"grid\"", "\"torus\""),
    );
    assert_graceful(
        &run_bin(exe, &[unknown_topo.to_str().unwrap()]),
        "unknown topology",
    );
    // A 36-node grid trace replayed on the 33-node star.
    let mismatch = tmp_file("run-mismatch.json", &trace.replace("\"grid\"", "\"star\""));
    assert_graceful(
        &run_bin(exe, &[mismatch.to_str().unwrap()]),
        "trace does not fit topology",
    );
    let ok = tmp_file("run-ok.json", &trace);
    assert_graceful(
        &run_bin(exe, &[ok.to_str().unwrap(), "quantum"]),
        "unknown policy",
    );
}

/// `gen_trace` stdout for `args`, asserting success.
fn gen_trace(args: &[&str]) -> String {
    let out = run_bin(env!("CARGO_BIN_EXE_gen_trace"), args);
    assert!(
        out.status.success(),
        "gen_trace failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("gen_trace writes UTF-8 JSON")
}

#[test]
fn gen_trace_output_replays_under_distributed() {
    // The distributed policy routes on its half-speed copy of the grid,
    // an unstructured graph on the exact lazy-tree routing tier; the run
    // is replayed through `validate_events`.
    let trace = tmp_file(
        "pipeline.json",
        &gen_trace(&["grid", "12", "2", "0.2", "30", "1"]),
    );
    let out = run_bin(
        env!("CARGO_BIN_EXE_run_trace"),
        &[trace.to_str().unwrap(), "distributed"],
    );
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("policy          : distributed-bucket"),
        "{stdout}"
    );
    assert!(
        stdout.contains("topology        : grid([6, 6])"),
        "{stdout}"
    );
}

#[test]
fn flight_report_renders_a_real_dump() {
    // Produce a genuine dump through the recorder, then render it.
    let mut rec = dtm_telemetry::FlightRecorder::new(8);
    for t in 0..20u64 {
        let fx = StepEffects {
            t,
            live_after: (t % 5) as usize,
            ..StepEffects::default()
        };
        rec.on_step_end(&fx);
    }
    let dump = rec.dump();
    dtm_telemetry::validate_flight_dump(&dump).expect("dump validates");
    let path = tmp_file("flight-valid.jsonl", &dump);
    let exe = env!("CARGO_BIN_EXE_flight_report");
    let out = run_bin(exe, &[path.to_str().unwrap(), "--tail", "3"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ring capacity K : 8"), "{stdout}");
    assert!(stdout.contains("steps seen      : 20"), "{stdout}");
    assert!(stdout.contains("newest 3 step records"), "{stdout}");
    assert!(stdout.contains("health events   : none"), "{stdout}");
}
