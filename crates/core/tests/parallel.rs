//! Determinism guarantees of the parallel replication engine: results,
//! replication counts, and stop reasons must be bit-identical whatever
//! the worker-pool thread count, and identical to the sequential
//! reference path.

use procsim_core::{
    derive_seed, run_point_seq, run_points, PointResult, SchedulerKind, SideDist, SimConfig,
    StrategyKind, WorkerPool, WorkloadSpec,
};

fn cfg(strategy: StrategyKind, load: f64, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper(
        strategy,
        SchedulerKind::Fcfs,
        WorkloadSpec::Stochastic {
            sides: SideDist::Uniform,
            load,
            num_mes: 5.0,
        },
        seed,
    );
    cfg.warmup_jobs = 10;
    cfg.measured_jobs = 70;
    cfg
}

/// One point on `pool`: a batch of one.
fn one_point(pool: &WorkerPool, cfg: &SimConfig, min_reps: usize, max_reps: usize) -> PointResult {
    run_points(pool, std::slice::from_ref(cfg), min_reps, max_reps).remove(0)
}

#[test]
fn run_point_identical_for_1_2_and_8_threads() {
    let c = cfg(StrategyKind::Gabl, 0.002, 1234);
    let reference = run_point_seq(&c, 3, 8);
    for threads in [1, 2, 8] {
        let pool = WorkerPool::new(threads);
        let p = one_point(&pool, &c, 3, 8);
        assert_eq!(p.means, reference.means, "means @ {threads} threads");
        assert_eq!(p.ci95, reference.ci95, "ci95 @ {threads} threads");
        assert_eq!(
            p.replications, reference.replications,
            "replication count @ {threads} threads"
        );
        assert_eq!(p.stop, reference.stop, "stop reason @ {threads} threads");
        assert_eq!(p.label, reference.label);
        assert_eq!(p.load, reference.load);
    }
}

#[test]
fn stop_reason_unchanged_under_parallel_execution() {
    // Budget stop: max_reps too small for a 5 % CI on a short noisy run.
    // (The converged-stop half needs a looser controller than the paper's
    // and lives in `replicate`'s unit tests.)
    let noisy = cfg(StrategyKind::Mbs, 0.004, 77);
    let seq = run_point_seq(&noisy, 2, 3);
    let par = one_point(&WorkerPool::new(8), &noisy, 2, 3);
    assert_eq!(par.stop, seq.stop);
    assert_eq!(par.replications, seq.replications);
}

#[test]
fn batch_of_points_matches_sequential_at_any_thread_count() {
    // A miniature campaign: 2 strategies × 2 loads, one derived seed per
    // point exactly as campaign expansion derives them (the default seed
    // slot is the expansion index).
    let figure_seed = 0xF16;
    let cfgs: Vec<SimConfig> = [StrategyKind::Gabl, StrategyKind::Mbs]
        .into_iter()
        .flat_map(|s| [0.001, 0.002].into_iter().map(move |l| (s, l)))
        .enumerate()
        .map(|(i, (s, l))| cfg(s, l, derive_seed(figure_seed, i as u64)))
        .collect();
    let reference: Vec<_> = cfgs.iter().map(|c| run_point_seq(c, 2, 4)).collect();
    for threads in [1, 3] {
        let pool = WorkerPool::new(threads);
        let batch = run_points(&pool, &cfgs, 2, 4);
        assert_eq!(batch.len(), reference.len());
        for (b, r) in batch.iter().zip(&reference) {
            assert_eq!(b.means, r.means, "@ {threads} threads");
            assert_eq!(b.ci95, r.ci95);
            assert_eq!(b.replications, r.replications);
            assert_eq!(b.stop, r.stop);
        }
    }
}

#[test]
fn points_with_distinct_derived_seeds_use_distinct_streams() {
    // Two points differing only in their derived seed must not replay the
    // same replication streams (the pre-fix footgun: every point of a
    // figure shared cfg.seed, so rep r was the same random run anywhere).
    let a = run_point_seq(&cfg(StrategyKind::Gabl, 0.002, derive_seed(9, 0)), 2, 2);
    let b = run_point_seq(&cfg(StrategyKind::Gabl, 0.002, derive_seed(9, 1)), 2, 2);
    assert_ne!(
        a.means, b.means,
        "identical streams across points: seeding footgun is back"
    );
}
