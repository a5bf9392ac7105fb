//! Integration tests of `procsim campaign`: the checked-in scenario
//! files must reproduce the committed golden CSVs byte-for-byte at
//! worker-pool sizes 1 and 4, a warm cache must execute zero points,
//! and malformed scenarios must die with a structured line-numbered
//! error (exit code 2).
//!
//! These run the real binary from the package root, where the relative
//! `scenarios/` and `results/golden/` paths resolve.

use std::path::PathBuf;
use std::process::Command;

fn tmp(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("procsim_cli_campaign_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    let _ = std::fs::remove_file(&p);
    p
}

struct Run {
    stdout: String,
    stderr: String,
    success: bool,
    code: Option<i32>,
}

fn campaign(args: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_procsim"))
        .arg("campaign")
        .args(args)
        .output()
        .expect("procsim binary runs");
    Run {
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        success: out.status.success(),
        code: out.status.code(),
    }
}

/// Replays a scenario with a cold cache at the given thread count and
/// returns the CSV bytes.
fn replay(scenario: &str, threads: &str, tag: &str) -> String {
    let cache = tmp(&format!("{tag}_cache_t{threads}"));
    let csv = tmp(&format!("{tag}_csv_t{threads}"));
    let r = campaign(&[
        scenario,
        "--threads",
        threads,
        "--cache",
        cache.to_str().unwrap(),
        "--csv",
        csv.to_str().unwrap(),
    ]);
    assert!(r.success, "campaign {scenario} failed: {}", r.stderr);
    let bytes = std::fs::read_to_string(&csv).expect("campaign CSV written");
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_file(&csv);
    bytes
}

#[test]
fn fig09_scenario_reproduces_the_golden_at_1_and_4_threads() {
    let golden = std::fs::read_to_string("results/golden/fig09.csv").expect("golden checked in");
    for threads in ["1", "4"] {
        let got = replay("scenarios/fig09.toml", threads, "fig09");
        assert_eq!(
            got, golden,
            "scenarios/fig09.toml must byte-match the fig09 golden at --threads {threads}"
        );
    }
}

#[test]
#[ignore = "~3 min in debug profile; CI replays it in release at threads 1 and 4"]
fn mesh_vs_torus_scenario_reproduces_the_golden() {
    let golden =
        std::fs::read_to_string("results/golden/mesh_vs_torus.csv").expect("golden checked in");
    for threads in ["1", "4"] {
        let got = replay("scenarios/mesh_vs_torus.toml", threads, "mvt");
        assert_eq!(
            got, golden,
            "scenarios/mesh_vs_torus.toml must byte-match the golden at --threads {threads}"
        );
    }
}

#[test]
fn warm_cache_executes_zero_points() {
    let cache = tmp("smoke_cache");
    let csv_cold = tmp("smoke_cold");
    let csv_warm = tmp("smoke_warm");
    let base = [
        "scenarios/smoke.toml",
        "--threads",
        "2",
        "--cache",
        cache.to_str().unwrap(),
    ];

    let cold = campaign(&[&base[..], &["--csv", csv_cold.to_str().unwrap()]].concat());
    assert!(cold.success, "{}", cold.stderr);
    assert!(cold.stdout.contains("4 points (0 cached, 4 to run)"), "{}", cold.stdout);
    assert!(cold.stdout.contains("(4 executed, 0 cached)"), "{}", cold.stdout);

    let warm = campaign(&[&base[..], &["--csv", csv_warm.to_str().unwrap()]].concat());
    assert!(warm.success, "{}", warm.stderr);
    assert!(warm.stdout.contains("4 points (4 cached, 0 to run)"), "{}", warm.stdout);
    assert!(warm.stdout.contains("(0 executed, 4 cached)"), "{}", warm.stdout);

    let a = std::fs::read_to_string(&csv_cold).unwrap();
    let b = std::fs::read_to_string(&csv_warm).unwrap();
    assert_eq!(a, b, "cold and warm CSVs are byte-identical");
    assert!(a.lines().count() == 5, "header + 4 points:\n{a}");

    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_file(&csv_cold);
    let _ = std::fs::remove_file(&csv_warm);
}

#[test]
fn dry_run_probes_without_executing() {
    let cache = tmp("dry_cache");
    let csv = tmp("dry_csv");
    let r = campaign(&[
        "scenarios/smoke.toml",
        "--dry-run",
        "--cache",
        cache.to_str().unwrap(),
        "--csv",
        csv.to_str().unwrap(),
    ]);
    assert!(r.success, "{}", r.stderr);
    assert!(r.stdout.contains("4 points (0 cached, 4 to run)"), "{}", r.stdout);
    // one listing line per point, with strategy and hash
    assert!(r.stdout.contains("GABL(FCFS)") || r.stdout.contains("GABL"), "{}", r.stdout);
    assert!(!csv.exists(), "--dry-run must not write the CSV");
    let cache_empty = !cache.exists()
        || std::fs::read_dir(&cache).map(|d| d.count() == 0).unwrap_or(true);
    assert!(cache_empty, "--dry-run must not populate the cache");
    let _ = std::fs::remove_dir_all(&cache);
}

#[test]
fn malformed_scenario_dies_with_line_numbered_error() {
    let bad = tmp("bad_scenario");
    std::fs::write(
        &bad,
        "[campaign]\nname = \"bad\"\nseed = 1\n\n[matrix]\nstrategy = [\"warpdrive\"]\n",
    )
    .unwrap();
    let r = campaign(&[bad.to_str().unwrap()]);
    assert!(!r.success, "malformed scenario must fail");
    assert_eq!(r.code, Some(2), "usage errors exit 2");
    assert!(r.stderr.contains("scenario line 6"), "{}", r.stderr);
    assert!(r.stderr.contains("matrix.strategy"), "{}", r.stderr);
    assert!(r.stderr.contains("warpdrive"), "{}", r.stderr);
    let _ = std::fs::remove_file(&bad);

    // a missing file is a whole-file error, still structured
    let r = campaign(&["scenarios/does_not_exist.toml"]);
    assert!(!r.success);
    assert_eq!(r.code, Some(2));
    assert!(r.stderr.contains("cannot read"), "{}", r.stderr);
}

#[test]
fn missing_trace_file_dies_with_scenario_error() {
    let bad = tmp("bad_trace");
    std::fs::write(
        &bad,
        "[campaign]\nname = \"bad\"\nseed = 1\n\n[defaults]\nworkload = \"trace\"\n\
         trace = \"results/traces/does_not_exist.swf\"\n\n[matrix]\nload = [0.7]\n",
    )
    .unwrap();
    let r = campaign(&[bad.to_str().unwrap(), "--dry-run"]);
    assert!(!r.success, "a scenario replaying a missing trace must fail");
    assert_eq!(r.code, Some(2), "usage errors exit 2");
    assert!(r.stderr.contains("[trace]"), "{}", r.stderr);
    assert!(r.stderr.contains("does_not_exist.swf"), "{}", r.stderr);
    let _ = std::fs::remove_file(&bad);
}

#[test]
fn oversized_mesh_dies_with_scenario_error() {
    // a sender rank must fit the packet tag's 20 bits
    let bad = tmp("huge_mesh");
    std::fs::write(
        &bad,
        "[campaign]\nname = \"huge\"\nseed = 1\n\n[defaults]\nmesh_w = 65535\nmesh_l = 65535\n\n\
         [matrix]\nload = [0.001]\n",
    )
    .unwrap();
    let r = campaign(&[bad.to_str().unwrap(), "--dry-run", "--cache", "/nonexistent"]);
    assert!(!r.success, "a mesh of more than 2^20 processors must fail");
    assert_eq!(r.code, Some(2), "usage errors exit 2");
    assert!(r.stderr.contains("mesh_w x mesh_l"), "{}", r.stderr);
    assert!(r.stderr.contains("1048576"), "{}", r.stderr);
    let _ = std::fs::remove_file(&bad);
}

#[test]
fn oversized_pages_die_with_scenario_error() {
    // Paging(3) needs 8 x 8 pages, which a 4 x 4 mesh cannot hold: the
    // dry run must reject it before any worker builds the page grid
    let bad = tmp("big_pages");
    std::fs::write(
        &bad,
        "[campaign]\nname = \"pages\"\nseed = 1\n\n[defaults]\nstrategy = \"paging3\"\n\
         mesh_w = 4\nmesh_l = 4\n\n[matrix]\nload = [0.001]\n",
    )
    .unwrap();
    let r = campaign(&[bad.to_str().unwrap(), "--dry-run", "--cache", "/nonexistent"]);
    assert!(!r.success, "pages larger than the mesh must fail");
    assert_eq!(r.code, Some(2), "usage errors exit 2");
    assert!(r.stderr.contains("scenario"), "{}", r.stderr);
    assert!(r.stderr.contains("pages are 8 x 8"), "{}", r.stderr);
    let _ = std::fs::remove_file(&bad);
}

#[test]
fn every_checked_in_scenario_expands() {
    // the ports of the former figure and ablation binaries are only ever
    // dry-run in CI; a scenario that stops parsing or expanding fails here
    let mut n = 0;
    for entry in std::fs::read_dir("scenarios").expect("scenarios/ checked in") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "toml") {
            let r = campaign(&[path.to_str().unwrap(), "--dry-run", "--cache", "/nonexistent"]);
            assert!(r.success, "{}: {}", path.display(), r.stderr);
            n += 1;
        }
    }
    assert!(n >= 17, "expected every figure and ablation scenario, found {n}");
}
