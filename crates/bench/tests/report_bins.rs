//! Regression tests for the report and trace binaries' input handling:
//! `trace_report`, `gen_trace`, `run_trace` and
//! `long_haul` must fail *gracefully* — an error message on stderr and
//! exit code 2, never a panic — on missing, empty, truncated or malformed
//! input, on unknown names and on bad rates, and must process valid input.
//! The experiment binaries hold their shared flags to the same contract.

use dtm_model::TxnId;
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

/// A real flight dump: 20 steps through a K=8 recorder with three
/// decisions attached, plus one health line through the one writer.
fn flight_dump() -> String {
    let decisions = dtm_telemetry::decision_trace();
    for i in 0..3u64 {
        decisions.lock().push(dtm_telemetry::Decision {
            t: 10 + i,
            txn: TxnId(40 + i),
            exec_at: Some(12 + i),
            kind: dtm_telemetry::DecisionKind::FifoQueue { queue_position: 0 },
        });
    }
    let mut rec = dtm_telemetry::FlightRecorder::new(8).with_decisions(decisions, 2);
    for t in 0..20u64 {
        let fx = StepEffects {
            t,
            arrived: vec![TxnId(t); (t % 3) as usize],
            committed: vec![TxnId(t); (t % 2) as usize],
            live_after: (t % 5) as usize,
            ..StepEffects::default()
        };
        rec.on_step_end(&fx);
    }
    let mut trace = rec.trace();
    trace.health.push(dtm_telemetry::HealthEvent {
        t: 19,
        live: 4,
        oldest: vec![],
        kind: dtm_telemetry::HealthEventKind::CommitStall {
            idle_since: 3,
            window: 16,
        },
    });
    trace.to_jsonl()
}

/// Each damaged record exits 2 with a diagnostic naming the given line.
fn assert_bad_records(exe: &str, cases: &[(&str, &str, &str)]) {
    for &(name, body, line) in cases {
        let path = tmp_file(&format!("trace-{name}.jsonl"), body);
        let out = run_bin(exe, &[path.to_str().unwrap()]);
        assert_graceful(&out, name);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(line), "{name}: line not named: {stderr}");
    }
}

/// Every malformed record exits 2 with a diagnostic, as do missing files
/// and bad flags.
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
    let dump = flight_dump();
    let meta = dump.lines().next().expect("dump has a meta line");
    // Nesting deep enough to overflow the stack of a recursive parser.
    let deep = format!("{meta}\n[{}\n", "[".repeat(1_000_000));
    assert_bad_records(
        exe,
        &[
            (
                "txn-only",
                "{\"type\":\"txn\",\"data\":{\"id\":[0]}}\n",
                "line 1",
            ),
            ("deep-nesting", deep.as_str(), "line 2"),
        ],
    );
    let valid = tmp_file("trace-flag.jsonl", &dump);
    for flag in ["--top", "--tail"] {
        assert_graceful(
            &run_bin(exe, &[valid.to_str().unwrap(), flag, "NaN"]),
            &format!("non-integer {flag}"),
        );
    }
}

/// Flight-recorder dumps are read by `trace_report`: a dump cut mid-line,
/// one whose meta line is missing, misplaced or repeated, and the
/// version-1 `flight_meta`/`flight_step` line types all exit 2 with a
/// diagnostic naming the line.
#[test]
fn flight_report_fails_gracefully_on_bad_input() {
    let exe = env!("CARGO_BIN_EXE_trace_report");
    // A dump cut mid-line (what a killed process leaves behind).
    let dump = flight_dump();
    let cut = tmp_file("flight-cut.jsonl", &dump[..dump.len() / 2]);
    assert_graceful(&run_bin(exe, &[cut.to_str().unwrap()]), "dump cut mid-line");
    assert_graceful(
        &run_bin(exe, &["/nonexistent/run.flight.jsonl"]),
        "missing file",
    );
    let lines: Vec<&str> = dump.lines().collect();
    let join = |ls: &[&str]| ls.iter().map(|l| format!("{l}\n")).collect::<String>();
    let step_only = join(&lines[1..3]);
    let meta_second = join(&[lines[1], lines[0]]);
    let meta_twice = join(&[lines[0], lines[0]]);
    assert_bad_records(
        exe,
        &[
            ("no-meta", step_only.as_str(), "line 1"),
            ("meta-second", meta_second.as_str(), "line 1"),
            ("meta-twice", meta_twice.as_str(), "line 2"),
            (
                "old-step",
                "{\"type\":\"flight_step\",\"data\":{\"t\":1}}\n",
                "line 1",
            ),
            (
                "old-meta",
                "{\"type\":\"flight_meta\",\"data\":{\"version\":1}}\n",
                "line 1",
            ),
        ],
    );
}

#[test]
fn trace_report_renders_a_flight_dump() {
    let path = tmp_file("flight-valid.jsonl", &flight_dump());
    let out = run_bin(
        env!("CARGO_BIN_EXE_trace_report"),
        &[path.to_str().unwrap(), "--tail", "3"],
    );
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("window          : 8 of 20 steps seen, t = [12, 19]"),
        "{stdout}"
    );
    assert!(stdout.contains("newest 3 steps:"), "{stdout}");
    // The --tail rows: t, created, arrived, sched, commit, abort, moved, live.
    for row in [
        "          17       0       2       0       1       0       0        2",
        "          18       0       0       0       0       0       0        3",
        "          19       0       1       0       1       0       0        4",
    ] {
        assert!(
            stdout.contains(&format!("{row}\n")),
            "missing row {row:?}: {stdout}"
        );
    }
    assert!(!stdout.contains("          16 "), "{stdout}");
    // The dump's decision tail: the recorder kept the newest two.
    assert!(stdout.contains("decision tail (2 newest):"), "{stdout}");
    assert!(
        stdout.contains("  t=11       txn=T41      fifo-queue"),
        "{stdout}"
    );
    assert!(
        stdout.contains("  t=12       txn=T42      fifo-queue"),
        "{stdout}"
    );
    assert!(stdout.contains("health events (1):"), "{stdout}");
    assert!(stdout.contains("commit-stall"), "{stdout}");
}

/// A full record from the trace pipeline renders with its headline
/// metrics and a valid Chrome export.
#[test]
fn trace_report_renders_a_full_trace() {
    let trace = tmp_file(
        "full-pipeline.json",
        &gen_trace(&["grid", "6", "2", "0.1", "10", "3"]),
    );
    let record = trace.with_extension("jsonl");
    let out = run_bin(
        env!("CARGO_BIN_EXE_run_trace"),
        &[
            trace.to_str().unwrap(),
            "fifo",
            "--emit-trace",
            record.to_str().unwrap(),
        ],
    );
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let chrome = record.with_extension("chrome.json");
    let out = run_bin(
        env!("CARGO_BIN_EXE_trace_report"),
        &[
            record.to_str().unwrap(),
            "--chrome",
            chrome.to_str().unwrap(),
        ],
    );
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("policy          : fifo"), "{stdout}");
    assert!(stdout.contains("slowest transactions"), "{stdout}");
    assert!(stdout.contains("chrome trace    : "), "{stdout}");
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
