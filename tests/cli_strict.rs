//! The CLI rejects what it does not understand: a misspelled flag, a
//! value that is not a number, a count too small to mean anything, a
//! missing or repeated value and a stray argument all exit 2 with the
//! subcommand's usage, never 0 (silently ignored or clamped) and never
//! 101 (a panic). Every case fails before simulating or writing anything.

use std::path::Path;
use std::process::{Command, Output, Stdio};

const SAMPLE: &str = "results/traces/sdsc_sample.swf";
const SMOKE: &str = "scenarios/smoke.toml";

fn procsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_procsim"))
        .args(args)
        .output()
        .expect("procsim binary runs")
}

/// Asserts a usage error: exit 2, no panic, stderr naming `needle` and
/// showing the usage of `procsim <cmd>`.
fn assert_usage_error(args: &[&str], needle: &str) {
    let out = procsim(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    assert!(
        stderr.contains(needle),
        "{args:?}: stderr lacks {needle:?}: {stderr}"
    );
    let usage = format!("procsim {}", args[0]);
    assert!(
        stderr.contains("usage:") && stderr.contains(&usage),
        "{args:?}: stderr lacks the usage of {usage}: {stderr}"
    );
}

#[test]
fn unknown_flags_exit_2_with_usage() {
    assert_usage_error(&["run", "--thredas", "1"], "unknown flag --thredas");
    assert_usage_error(&["run", "--jbos", "50"], "unknown flag --jbos");
    assert_usage_error(
        &["sweep", "--loads", "0.001", "--sed", "3"],
        "unknown flag --sed",
    );
    // sweep takes its loads from --loads only; --load would be ignored
    assert_usage_error(
        &["sweep", "--loads", "0.001", "--load", "0.1"],
        "unknown flag --load",
    );
    assert_usage_error(&["trace", SAMPLE, "--lod", "0.7"], "unknown flag --lod");
    assert_usage_error(
        &["gen-trace", "/nonexistent/x.swf", "--modle", "cm5"],
        "unknown flag --modle",
    );
    assert_usage_error(
        &["campaign", "scenarios/smoke.toml", "--dryrun"],
        "unknown flag --dryrun",
    );
    // a flag of another subcommand is unknown here too
    assert_usage_error(&["run", "--dry-run"], "unknown flag --dry-run");
    // retired spellings: --topology torus and trace's --load replace them
    assert_usage_error(&["run", "--torus"], "unknown flag --torus");
    assert_usage_error(&["trace", SAMPLE, "--torus"], "unknown flag --torus");
    assert_usage_error(&["trace", SAMPLE, "--factor", "2"], "unknown flag --factor");
}

#[test]
fn bad_run_values_name_the_flag_typed() {
    // --jobs sets the `measured` knob, but the error names --jobs
    assert_usage_error(&["run", "--jobs", "0"], "--jobs must be at least 1");
    assert_usage_error(&["run", "--jobs", "-5"], "bad --jobs '-5'");
    assert_usage_error(&["sweep", "--loads", "0.001", "--jobs", "0"], "--jobs must be at least 1");
    assert_usage_error(&["run", "--load", "x"], "bad --load 'x'");
    assert_usage_error(&["run", "--load", "-1"], "--load: must be a positive");
    assert_usage_error(&["sweep", "--loads", "0.001,x"], "bad --loads 'x'");
    assert_usage_error(&["sweep", "--loads", "0.001,0"], "--loads: must be a positive");
    assert_usage_error(&["run", "--strategy", "foo"], "--strategy: unknown strategy 'foo'");
    assert_usage_error(&["run", "--scheduler", "foo"], "--scheduler: unknown");
    assert_usage_error(&["run", "--workload", "foo"], "--workload: unknown workload");
    assert_usage_error(&["run", "--workload", "trace"], "use `procsim trace <file.swf>`");
    assert_usage_error(&["trace", SAMPLE, "--strategy", "foo"], "--strategy: unknown strategy");
    assert_usage_error(&["trace", SAMPLE, "--scale", "0"], "--scale: must be a positive");
    assert_usage_error(&["trace"], "trace needs a .swf file path");
}

#[test]
fn one_rep_is_a_single_replication_for_every_subcommand() {
    // never clamped up to two: one replication per point, CIs of 0
    let csv = fresh_path("one_rep.csv");
    let run = ["run", "--reps", "1", "--jobs", "20", "--load", "0.001"];
    let sweep = ["sweep", "--reps", "1", "--jobs", "20", "--loads", "0.001"];
    let trace = [
        "trace", SAMPLE, "--reps", "1", "--jobs", "20", "--strategy", "gabl", "--csv", &csv,
    ];
    for args in [&run[..], &sweep, &trace] {
        let out = procsim(args);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?}: {stderr}");
        assert!(stdout.contains("±    0.0") && stdout.contains("[1 reps]"), "{args:?}: {stdout}");
        assert!(stderr.contains("note: --reps 1"), "{args:?}: {stderr}");
    }
    let _ = std::fs::remove_file(&csv);
}

#[test]
fn a_closed_stdout_exits_2_without_a_panic() {
    // `procsim trace ... | head -n 1`: the reader is gone before the
    // results are printed, so a later write fails with a broken pipe
    let csv = fresh_path("closed_stdout.csv");
    let mut child = Command::new(env!("CARGO_BIN_EXE_procsim"))
        .args(["trace", SAMPLE, "--jobs", "40", "--reps", "2", "--csv", &csv])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("procsim binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("procsim exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(stderr.contains("cannot write to stdout"), "{stderr}");
    let _ = std::fs::remove_file(&csv);
}

#[test]
fn bad_numbers_exit_2_instead_of_panicking() {
    assert_usage_error(&["run", "--jobs", "abc"], "bad --jobs 'abc'");
    assert_usage_error(&["run", "--seed", "-3"], "bad --seed '-3'");
    assert_usage_error(&["run", "--reps", "two"], "bad --reps 'two'");
    assert_usage_error(&["run", "--threads", "1.5"], "bad --threads '1.5'");
    assert_usage_error(
        &["sweep", "--loads", "0.001", "--jobs", "1e3"],
        "bad --jobs '1e3'",
    );
    assert_usage_error(&["trace", SAMPLE, "--load", "x"], "bad --load 'x'");
    assert_usage_error(&["trace", SAMPLE, "--scale", "fast"], "bad --scale 'fast'");
    assert_usage_error(&["trace", SAMPLE, "--jobs", "-1"], "bad --jobs '-1'");
    assert_usage_error(
        &["gen-trace", "/nonexistent/x.swf", "--seed", "s"],
        "bad --seed 's'",
    );
    assert_usage_error(
        &["campaign", "scenarios/smoke.toml", "--threads", "many"],
        "bad --threads 'many'",
    );
}

/// A per-test path under the temp dir that does not exist yet.
fn fresh_path(name: &str) -> String {
    let path = std::env::temp_dir().join(format!("procsim_strict_{}_{name}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path.to_string_lossy().into_owned()
}

#[test]
fn gen_trace_rejects_fewer_than_two_jobs_before_writing() {
    let out = fresh_path("short.swf");
    for jobs in ["0", "1"] {
        let args = ["gen-trace", &out, "--jobs", jobs];
        assert_usage_error(&args, "--jobs must be at least 2");
        assert!(!Path::new(&out).exists(), "--jobs {jobs}: file written");
    }
}

#[test]
fn gen_trace_rejects_an_unknown_model_without_touching_the_file() {
    let out = fresh_path("keep.swf");
    std::fs::write(&out, "; kept\n").expect("scratch file written");
    let res = procsim(&["gen-trace", &out, "--model", "foo"]);
    let stderr = String::from_utf8_lossy(&res.stderr);
    assert_eq!(res.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown model 'foo'"), "{stderr}");
    let kept = std::fs::read_to_string(&out).expect("file still there");
    assert_eq!(kept, "; kept\n", "the output file was overwritten");
    let _ = std::fs::remove_file(&out);
}

#[test]
fn trace_rejects_zero_jobs() {
    // nothing would be measured: every metric in the CSV would be 0
    let csv = fresh_path("zero_jobs.csv");
    let args = ["trace", SAMPLE, "--jobs", "0", "--csv", &csv];
    assert_usage_error(&args, "--jobs must be at least 1");
    assert!(!Path::new(&csv).exists(), "a CSV of zeros was written");
}

#[test]
fn zero_reps_and_zero_threads_exit_2_instead_of_clamping() {
    // small --jobs so that a binary which clamps instead fails fast
    let csv = fresh_path("zero_reps.csv");
    let run = ["run", "--reps", "0", "--jobs", "20"];
    let sweep = ["sweep", "--loads", "0.001", "--reps", "0", "--jobs", "20"];
    let trace = [
        "trace", SAMPLE, "--reps", "0", "--jobs", "20", "--csv", &csv,
    ];
    for args in [&run[..], &sweep, &trace] {
        assert_usage_error(args, "--reps must be at least 1");
    }
    assert!(!Path::new(&csv).exists(), "a CSV was written");
    let run = ["run", "--threads", "0", "--jobs", "20"];
    let campaign = ["campaign", SMOKE, "--dry-run", "--threads", "0"];
    for args in [&run[..], &campaign] {
        assert_usage_error(args, "--threads must be at least 1");
    }
}

#[test]
fn missing_repeated_and_stray_arguments_exit_2() {
    assert_usage_error(&["run", "--jobs"], "--jobs needs a value");
    assert_usage_error(&["run", "--seed", "--jobs", "40"], "--seed needs a value");
    assert_usage_error(
        &["run", "--jobs", "40", "--jobs", "50"],
        "--jobs given twice",
    );
    assert_usage_error(&["run", "stray"], "unexpected argument 'stray'");
    assert_usage_error(&["trace", SAMPLE, SAMPLE], "unexpected argument");
    let out = procsim(&["rnu"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command 'rnu'"));
}

#[test]
fn switches_never_swallow_the_next_word() {
    // `--force` takes no value: the scenario path after it is still the
    // positional argument
    let cache = std::env::temp_dir().join(format!("procsim_cli_strict_{}", std::process::id()));
    let out = procsim(&[
        "campaign",
        "--force",
        "scenarios/smoke.toml",
        "--dry-run",
        "--cache",
        cache.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("campaign 'smoke': 4 points"), "{stdout}");
    assert!(
        stdout.contains("--force"),
        "--force must be honoured: {stdout}"
    );
}

#[test]
fn help_lists_every_subcommand_and_exits_0() {
    for args in [&[][..], &["help"][..], &["--help"][..]] {
        let out = procsim(args);
        assert!(out.status.success(), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        for cmd in ["run", "sweep", "trace", "gen-trace", "campaign"] {
            assert!(
                stdout.contains(&format!("procsim {cmd} ")),
                "{args:?}: {stdout}"
            );
        }
    }
}
