//! CLI tests of the `--topology` run dimension: flag parsing (including
//! the error paths) and torus trace replay through the real binary.

use std::process::Command;

const SAMPLE: &str = "results/traces/sdsc_sample.swf";

fn procsim(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_procsim"))
        .args(args)
        .output()
        .expect("procsim binary runs")
}

/// A tiny deterministic `run` invocation, varying only the topology args.
fn tiny_run(topology_args: &[&str]) -> std::process::Output {
    let mut args = vec![
        "run", "--strategy", "gabl", "--load", "0.002", "--jobs", "30", "--reps", "2", "--seed",
        "9",
    ];
    args.extend_from_slice(topology_args);
    procsim(&args)
}

#[test]
fn run_accepts_both_topologies() {
    let mesh = tiny_run(&["--topology", "mesh"]);
    let torus = tiny_run(&["--topology", "torus"]);
    assert!(mesh.status.success(), "{}", String::from_utf8_lossy(&mesh.stderr));
    assert!(torus.status.success(), "{}", String::from_utf8_lossy(&torus.stderr));
    // same seeds, same workload — only the wraparound links differ, and
    // they must actually change the simulated physics
    assert_ne!(
        mesh.stdout, torus.stdout,
        "topology knob had no effect on the run"
    );
    // defaulting to mesh is part of the CLI contract (paper protocol)
    let default = tiny_run(&[]);
    assert_eq!(default.stdout, mesh.stdout, "default topology must be mesh");
}

#[test]
fn legacy_torus_flag_is_an_unknown_flag() {
    // `--topology torus` is the one spelling; the retired `--torus` alias
    // is refused like any misspelled flag, alone or beside `--topology`
    for args in [&["--torus"][..], &["--topology", "mesh", "--torus"]] {
        let out = tiny_run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag --torus"), "{stderr}");
    }
}

#[test]
fn unknown_topology_is_rejected_with_the_valid_set() {
    let out = tiny_run(&["--topology", "ring"]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown topology 'ring'"),
        "stderr should name the bad value: {stderr}"
    );
    assert!(
        stderr.contains("mesh") && stderr.contains("torus"),
        "stderr should list the valid topologies: {stderr}"
    );
}

#[test]
fn bare_topology_flag_is_rejected() {
    // a missing value must not silently fall back to mesh
    let out = tiny_run(&["--topology"]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--topology needs a value"), "{stderr}");
    // ... including when the next token is another flag
    let out = tiny_run(&["--topology", "--torus"]);
    assert!(!out.status.success(), "--topology --torus must not parse as torus");
}

#[test]
fn trace_replays_the_swf_sample_on_a_torus() {
    let dir = std::env::temp_dir();
    let csv = dir.join("procsim_trace_torus_smoke.csv");
    let out = procsim(&[
        "trace", SAMPLE, "--load", "0.7", "--jobs", "60", "--reps", "2", "--seed", "42",
        "--topology", "torus", "--csv", csv.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("on the torus"),
        "replay banner should name the topology: {stdout}"
    );
    let text = std::fs::read_to_string(&csv).expect("CSV written");
    let mut lines = text.lines();
    let header = lines.next().unwrap();
    assert!(
        header.starts_with("trace,series,topology,"),
        "topology is a CSV column: {header}"
    );
    let rows: Vec<&str> = lines.collect();
    assert!(rows.len() >= 3, "one row per PAPER strategy");
    for row in &rows {
        assert_eq!(row.split(',').nth(2), Some("torus"), "row: {row}");
    }
}

#[test]
fn torus_trace_csv_is_thread_count_invariant() {
    let dir = std::env::temp_dir();
    let run = |threads: &str, name: &str| {
        let csv = dir.join(name);
        let out = procsim(&[
            "trace", SAMPLE, "--load", "0.7", "--jobs", "60", "--reps", "2", "--seed", "42",
            "--topology", "torus", "--threads", threads, "--csv", csv.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        std::fs::read_to_string(&csv).expect("CSV written")
    };
    let a = run("1", "procsim_torus_t1.csv");
    let b = run("4", "procsim_torus_t4.csv");
    assert_eq!(a, b, "torus trace CSV must not depend on worker-pool size");
}
