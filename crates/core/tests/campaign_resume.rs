//! Differential tests of the campaign cache/resume protocol:
//!
//! * interrupt-then-resume (half the cache entries deleted) merges to a
//!   CSV byte-identical to an uninterrupted run, rerunning only the
//!   missing points;
//! * a changed fidelity knob re-keys — and so reruns — exactly the
//!   affected points;
//! * an extended matrix runs only the new points;
//! * corrupt or stale-spec entries degrade to misses, never to wrong
//!   merges;
//! * thread count and `--force` never change bytes;
//! * points with different replication bounds run as one batch;
//! * a failed point is an error only after every finished point is
//!   cached, so a rerun resumes past them.

use desim::SimRng;
use procsim_core::{
    expand, run_campaign, run_points, CampaignError, CampaignOptions, CampaignOutcome, Scenario,
    WorkerPool,
};
use std::path::{Path, PathBuf};
use workload::{write_swf, ParagonModel};

/// A 4-point campaign tiny enough for a debug-profile test (8×8 mesh,
/// a handful of measured jobs, two replications pinned).
const TINY: &str = "\
[campaign]
name = \"resume_test\"
seed = 99

[defaults]
mesh_w = 8
mesh_l = 8
warmup = 2
measured = 15
min_reps = 2
max_reps = 2

[matrix]
strategy = [\"gabl\", \"mbs\"]
load = [0.002, 0.003]
";

fn scenario() -> Scenario {
    Scenario::parse(TINY).expect("TINY is valid")
}

/// Fresh per-test cache dir under the target tmpdir.
fn cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("procsim_campaign_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Expands `s` and runs it on a fresh `threads`-worker pool, caching
/// under `dir` (`force` ignores and rewrites existing entries).
fn run(
    s: &Scenario,
    dir: &Path,
    threads: usize,
    force: bool,
) -> Result<CampaignOutcome, CampaignError> {
    let points = expand(s).expect("scenario expands");
    let opts = CampaignOptions {
        cache_dir: dir.to_path_buf(),
        force,
    };
    run_campaign(&WorkerPool::new(threads), s, &points, &opts)
}

fn point_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("cache dir exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "point"))
        .collect();
    files.sort();
    files
}

#[test]
fn interrupted_campaign_resumes_byte_identical() {
    let dir = cache_dir("resume");
    let s = scenario();

    // uninterrupted reference run
    let fresh = run(&s, &dir, 2, false).expect("fresh run");
    assert_eq!((fresh.executed, fresh.cached), (4, 0));
    assert!(fresh.from_cache.iter().all(|&c| !c));
    let files = point_files(&dir);
    assert_eq!(files.len(), 4, "one cache entry per point");
    // no stray .tmp files survive the atomic rename protocol
    assert!(std::fs::read_dir(&dir)
        .unwrap()
        .all(|e| e.unwrap().path().extension().is_some_and(|x| x == "point")));

    // "kill it mid-way": drop half the entries, resume
    for f in files.iter().step_by(2) {
        std::fs::remove_file(f).unwrap();
    }
    let resumed = run(&s, &dir, 2, false).expect("resumed run");
    assert_eq!(
        (resumed.executed, resumed.cached),
        (2, 2),
        "resume reruns exactly the missing points"
    );
    assert_eq!(resumed.csv, fresh.csv, "merged CSV is byte-identical");
    for (a, b) in fresh.points.iter().zip(&resumed.points) {
        assert_eq!(a.means, b.means);
        assert_eq!(a.ci95, b.ci95);
        assert_eq!(a.replications, b.replications);
    }

    // warm: everything cached, nothing executed, same bytes again
    let warm = run(&s, &dir, 2, false).expect("warm run");
    assert_eq!((warm.executed, warm.cached), (0, 4));
    assert!(warm.from_cache.iter().all(|&c| c));
    assert_eq!(warm.csv, fresh.csv);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn thread_count_and_force_never_change_bytes() {
    let dir1 = cache_dir("t1");
    let dir4 = cache_dir("t4");
    let s = scenario();
    let a = run(&s, &dir1, 1, false).expect("1 thread");
    let b = run(&s, &dir4, 4, false).expect("4 threads");
    assert_eq!(a.csv, b.csv, "thread count changes wall-clock only");

    // --force ignores (and rewrites) a warm cache, same bytes
    let forced = run(&s, &dir4, 4, true).expect("forced run");
    assert_eq!((forced.executed, forced.cached), (4, 0));
    assert_eq!(forced.csv, a.csv);

    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir4);
}

#[test]
fn changed_fidelity_knob_reruns_exactly_the_affected_points() {
    let dir = cache_dir("invalidate");
    let s = scenario();
    let base = run(&s, &dir, 2, false).expect("base run");
    assert_eq!((base.executed, base.cached), (4, 0));

    // bump the measured-job budget for MBS points only: their specs (and
    // so cache keys) change; the GABL points must stay cache hits
    let s2 = Scenario::parse(&format!("{TINY}[override.strategy=mbs]\nmeasured = 18\n"))
        .expect("override variant is valid");
    let bumped = run(&s2, &dir, 2, false).expect("bumped run");
    assert_eq!(
        (bumped.executed, bumped.cached),
        (2, 2),
        "exactly the MBS points rerun"
    );
    for (i, p) in bumped.points.iter().enumerate() {
        let is_mbs = p.label.starts_with("MBS");
        assert_eq!(
            bumped.from_cache[i], !is_mbs,
            "point {i} ({}) cache status",
            p.label
        );
    }
    // the untouched points carry identical statistics through the cache
    for (a, b) in base.points.iter().zip(&bumped.points) {
        if a.label.starts_with("GABL") {
            assert_eq!(a.means, b.means);
            assert_eq!(a.ci95, b.ci95);
        }
    }
    // and rerunning the *original* scenario is still fully warm: the
    // bumped entries landed under new keys without evicting the old ones
    let warm = run(&s, &dir, 2, false).expect("original still warm");
    assert_eq!((warm.executed, warm.cached), (0, 4));
    assert_eq!(warm.csv, base.csv);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn extended_matrix_runs_only_the_new_points() {
    let dir = cache_dir("extend");
    let s = scenario();
    let base = run(&s, &dir, 2, false).expect("base run");

    // a third strategy extends the campaign. Appending to the FIRST
    // axis keeps every existing point's seed slot (the slot is the
    // expansion index, later axes fastest), so the old points stay
    // cache hits; appending to a later axis would re-seed the points
    // after the insertion and rerun them — correct either way, cheap
    // only this way (see docs/CAMPAIGNS.md).
    let extended = TINY.replace(
        "strategy = [\"gabl\", \"mbs\"]",
        "strategy = [\"gabl\", \"mbs\", \"ff\"]",
    );
    let s2 = Scenario::parse(&extended).expect("extended scenario is valid");
    let ext = run(&s2, &dir, 2, false).expect("extended run");
    assert_eq!((ext.executed, ext.cached), (2, 4), "only the new strategy runs");

    // the shared points' CSV rows are identical — the new rows interleave
    // per the expansion order, so compare row sets
    let base_rows: Vec<&str> = base.csv.lines().collect();
    let ext_rows: Vec<&str> = ext.csv.lines().collect();
    assert_eq!(ext_rows.len(), base_rows.len() + 2);
    for row in &base_rows {
        assert!(ext_rows.contains(row), "base row {row:?} survives extension");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_or_mismatched_entries_degrade_to_misses() {
    let dir = cache_dir("corrupt");
    let s = scenario();
    let base = run(&s, &dir, 2, false).expect("base run");
    let files = point_files(&dir);

    // truncate one entry mid-file; overwrite another with a wrong spec
    // (simulating a hash collision or a stale format)
    let text = std::fs::read_to_string(&files[0]).unwrap();
    std::fs::write(&files[0], &text[..text.len() / 2]).unwrap();
    let text = std::fs::read_to_string(&files[1]).unwrap();
    let swapped = text.replacen("spec ", "spec STALE|", 1);
    std::fs::write(&files[1], swapped).unwrap();

    let again = run(&s, &dir, 2, false).expect("rerun over damage");
    assert_eq!(
        (again.executed, again.cached),
        (2, 2),
        "damaged entries rerun; intact entries serve"
    );
    assert_eq!(again.csv, base.csv, "damage never corrupts the merge");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mixed_replication_bounds_run_as_one_batch() {
    // MBS points replicate 3 to 5 times, GABL points exactly twice; one
    // batch must give every point what it gets run alone with its bounds
    let s = Scenario::parse(&format!(
        "{TINY}[override.strategy=mbs]\nmin_reps = 3\nmax_reps = 5\n"
    ))
    .expect("override variant is valid");
    let points = expand(&s).expect("scenario expands");
    for threads in [1, 4] {
        let dir = cache_dir(&format!("mixed{threads}"));
        let pool = WorkerPool::new(threads);
        let together = run(&s, &dir, threads, false).expect("mixed campaign");
        assert_eq!((together.executed, together.cached), (4, 0));
        for (point, got) in points.iter().zip(&together.points) {
            let reps = point.settings.min_reps..=point.settings.max_reps;
            assert!(reps.contains(&got.replications), "{}", got.label);
            let alone = run_points(&pool, &[(point.sim_config(), reps)])
                .remove(0)
                .expect("no replication panicked");
            assert_eq!(got.means, alone.means, "{} @ {threads} threads", got.label);
            assert_eq!(got.ci95, alone.ci95);
            assert_eq!(got.replications, alone.replications);
            assert_eq!(got.stop, alone.stop);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn a_failed_point_is_an_error_after_the_others_are_cached() {
    let model = ParagonModel {
        jobs: 200,
        ..ParagonModel::default()
    };
    let text = write_swf(&model.generate(&mut SimRng::new(0xF00D)));
    let swf =
        std::env::temp_dir().join(format!("procsim_campaign_fail_{}.swf", std::process::id()));
    std::fs::write(&swf, &text).expect("trace written");
    let s = Scenario::parse(&format!(
        "[campaign]\nname = \"fail_test\"\nseed = 5\n\n[defaults]\ntrace = {:?}\n\
         warmup = 2\nmeasured = 15\nmin_reps = 2\nmax_reps = 2\n\n[matrix]\n\
         workload = [\"uniform\", \"trace\", \"exponential\"]\n",
        swf.to_string_lossy()
    ))
    .expect("scenario is valid");
    let points = expand(&s).expect("scenario expands");
    // the trace changes after expansion validated it: its replay fails
    std::fs::write(&swf, &text[..text.len() / 20]).expect("trace shortened");
    let dir = cache_dir("fail");
    let opts = CampaignOptions {
        cache_dir: dir.clone(),
        force: false,
    };
    let pool = WorkerPool::new(2);
    match run_campaign(&pool, &s, &points, &opts) {
        Err(CampaignError::Point(error)) => {
            assert!(error.starts_with("point 1: GABL(FCFS) load "), "{error}");
            assert!(error.contains(": replication "), "{error}");
            assert!(error.contains("changed mid-run"), "{error}");
        }
        other => panic!("want the trace point's failure, got {other:?}"),
    }
    assert_eq!(point_files(&dir).len(), 2, "both finished points are cached");

    // with the file restored, a rerun runs only the failed point
    std::fs::write(&swf, &text).expect("trace restored");
    let points = expand(&s).expect("scenario expands");
    let rerun = run_campaign(&pool, &s, &points, &opts).expect("rerun");
    assert_eq!((rerun.executed, rerun.cached), (1, 2));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&swf);
}
