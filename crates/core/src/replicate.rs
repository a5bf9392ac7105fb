//! Replication driver: run experimental points to the paper's precision
//! criterion, in parallel over the caller's worker pool.
//!
//! Each *point* (one strategy × scheduler × workload × load combination)
//! is estimated by independent replications until the 95 % CI relative
//! error of the mean turnaround is at most 5 % (the paper's §5 protocol),
//! within the point's own replication bounds. [`run_points`] is the one
//! code path that runs replications. It runs them concurrently on the
//! pool (each is a pure function of `(SimConfig, replication seed)`) and
//! feeds each point's [`Replications`] controller strictly in replication
//! order, so every result is **bit-identical to running its replications
//! one at a time, for any thread count and any batching**. Replications
//! that finish after their controller stopped are discarded — exactly the
//! runs a sequential loop never starts.
//!
//! Replication seeds come from [`derive_seed`]`(point_seed, rep)`, one
//! decorrelated substream per replication, so no two replications — and,
//! because figure runners also derive one seed per point, no two points —
//! ever share a random stream.

use crate::config::SimConfig;
use crate::metrics::RunMetrics;
use crate::pool::WorkerPool;
use crate::simulator::Simulator;
use desim::SimRng;
use simstats::{Replications, StopReason};
use std::ops::RangeInclusive;
use std::sync::{mpsc, Arc};

/// Derives the seed of stream `index` from a master seed: an independent
/// SplitMix64-mixed substream per index (see [`SimRng::substream`]).
///
/// Used at both levels of the experiment hierarchy: a figure derives one
/// *point seed* per (series, load) from the figure seed, and
/// [`run_points`] derives one *replication seed* per replication from the
/// point seed. Deriving rather than offsetting (`seed + index`, or the
/// raw replication counter) guarantees streams never collide across
/// levels.
pub fn derive_seed(master: u64, index: u64) -> u64 {
    SimRng::new(master).substream(index).raw()
}

/// The converged estimate for one experimental point (one strategy ×
/// scheduler × workload × load combination).
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Series label, e.g. `"GABL(SSD)"`.
    pub label: String,
    /// Nominal system load.
    pub load: f64,
    /// Replications executed.
    pub replications: usize,
    /// Why replication stopped.
    pub stop: StopReason,
    /// Means over replications, ordered as
    /// [`RunMetrics::RESPONSE_NAMES`]: turnaround, service, utilization,
    /// blocking, latency, fragments.
    pub means: [f64; 6],
    /// 95 % CI half-widths, same order.
    pub ci95: [f64; 6],
}

impl PointResult {
    /// Mean turnaround time (arrival → departure).
    pub fn turnaround(&self) -> f64 {
        self.means[0]
    }
    /// Mean service time (allocation → departure).
    pub fn service(&self) -> f64 {
        self.means[1]
    }
    /// Mean system utilization over the measurement window.
    pub fn utilization(&self) -> f64 {
        self.means[2]
    }
    /// Mean packet blocking time.
    pub fn blocking(&self) -> f64 {
        self.means[3]
    }
    /// Mean packet network latency.
    pub fn latency(&self) -> f64 {
        self.means[4]
    }
    /// Mean disjoint sub-meshes per allocation (1 = fully contiguous).
    pub fn fragments(&self) -> f64 {
        self.means[5]
    }

    fn from_controller(cfg: &SimConfig, ctl: &Replications) -> PointResult {
        // one replication has no interval: report 0, not infinity
        let ci95 = |i| if ctl.count() < 2 { 0.0 } else { ctl.ci95(i) };
        PointResult {
            label: cfg.series_label(),
            load: cfg.workload.load(),
            replications: ctl.count(),
            stop: ctl.stop_reason(),
            means: std::array::from_fn(|i| ctl.mean(i)),
            ci95: std::array::from_fn(ci95),
        }
    }
}

/// Per-point coordinator state while its replications are in flight.
struct PointState {
    cfg: Arc<SimConfig>,
    ctl: Replications,
    /// Finished replications, indexed by replication number; out-of-order
    /// arrivals wait here until the controller has recorded the ones below.
    results: Vec<Option<Result<RunMetrics, String>>>,
    /// Replications submitted to the pool so far.
    submitted: usize,
    /// The consumed replication that panicked, and its message. A panic
    /// in an over-submitted wave tail is never consumed, like the run a
    /// sequential loop never starts.
    failed: Option<(usize, String)>,
}

/// Runs a batch of experimental points on `pool`, returning one result
/// per input point, in input order.
///
/// Each point is a config and its replication bounds `min..=max`
/// (`min >= 1`): it replicates until the paper's criterion (95 % CI
/// relative error of the mean turnaround at most 5 %) holds, bounded by
/// them. A point with one replication has CI half-widths of 0 and stops
/// on its budget. All points share the pool: their replications
/// interleave freely, so a slow point cannot serialize the batch, and
/// each result is bit-identical to running that point alone, whatever
/// `pool.threads()` is. A point whose replication panics (say, a trace
/// file that changed while it was replayed) is an error naming the
/// point, the replication and the panic message (`<series> load <l>:
/// replication <r>: <message>`); the other points still finish. Must
/// not be called from inside a pool worker (workers are not reentrant);
/// call it from a coordinator thread such as `main`.
pub fn run_points(
    pool: &WorkerPool,
    points: &[(SimConfig, RangeInclusive<usize>)],
) -> Vec<Result<PointResult, String>> {
    run_controlled(pool, points, |min, max| Replications::paper(6, min, max))
}

/// The body of [`run_points`], with each point's controller (over the 6
/// response variables) built by `make_ctl` from its bounds. Tests use it
/// with a precision target that short runs can reach.
fn run_controlled(
    pool: &WorkerPool,
    points: &[(SimConfig, RangeInclusive<usize>)],
    make_ctl: impl Fn(usize, usize) -> Replications,
) -> Vec<Result<PointResult, String>> {
    let (tx, rx) = mpsc::channel::<RepMsg>();
    let mut pending = 0usize;
    let mut states: Vec<PointState> = points
        .iter()
        .map(|(cfg, reps)| PointState {
            cfg: Arc::new(cfg.clone()),
            ctl: make_ctl(*reps.start(), *reps.end()),
            results: Vec::new(),
            submitted: 0,
            failed: None,
        })
        .collect();

    // Wave 1: every point runs at least min_reps.
    for (point, st) in states.iter_mut().enumerate() {
        let first_wave = st.ctl.min_reps();
        submit_wave(pool, &tx, point, st, first_wave, &mut pending);
    }

    while pending > 0 {
        // procsim-lint: allow(D004): invariant: tx is alive in this scope and pending > 0 means a worker still holds a clone
        let (point, rep, result) = rx.recv().expect("invariant: pool worker result");
        pending -= 1;
        let st = &mut states[point];
        st.results[rep] = Some(result);
        // Feed the controller in replication order, exactly as a
        // sequential loop would: record only while it still needs more.
        let running = |st: &PointState| st.failed.is_none() && st.ctl.needs_more();
        while running(st) {
            let next = st.ctl.count();
            let Some(result) = st.results.get_mut(next).and_then(Option::take) else {
                break; // waiting on an earlier replication
            };
            match result {
                Ok(metrics) => st.ctl.record(&metrics.response_vector()),
                Err(message) => st.failed = Some((next, message)),
            }
        }
        if running(st) && st.ctl.count() == st.submitted {
            // Everything submitted is recorded and the CI is still too
            // wide: top up with another wave (bounded by the budget).
            let budget = st.ctl.max_reps().saturating_sub(st.submitted);
            let batch = pool.threads().min(budget).max(1);
            submit_wave(pool, &tx, point, st, batch, &mut pending);
        }
    }

    states
        .into_iter()
        .map(|st| match st.failed {
            None => Ok(PointResult::from_controller(&st.cfg, &st.ctl)),
            Some((rep, message)) => Err(format!(
                "{} load {}: replication {rep}: {message}",
                st.cfg.series_label(),
                st.cfg.workload.load()
            )),
        })
        .collect()
}

/// One replication's outcome: `(point index, replication index, metrics
/// or the message of the panic that ended it)`.
type RepMsg = (usize, usize, Result<RunMetrics, String>);

/// Submits the next `count` replications of one point to the pool.
fn submit_wave(
    pool: &WorkerPool,
    tx: &mpsc::Sender<RepMsg>,
    point: usize,
    st: &mut PointState,
    count: usize,
    pending: &mut usize,
) {
    st.results.resize_with(st.submitted + count, || None);
    for _ in 0..count {
        let rep = st.submitted;
        st.submitted += 1;
        *pending += 1;
        let cfg = st.cfg.clone();
        let tx = tx.clone();
        pool.submit(move || {
            // Catch simulation panics so the coordinator always receives
            // one message per submission (otherwise `pending` never
            // drains and run_points hangs) and can report them.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Simulator::new(&cfg, rep as u64).run()
            }))
            .map_err(panic_message);
            // The receiver hangs up only on coordinator panic.
            let _ = tx.send((point, rep, result));
        });
    }
}

/// The text of a panic payload (`panic!` makes a `&str` or a `String`).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match (
        payload.downcast_ref::<&str>(),
        payload.downcast_ref::<String>(),
    ) {
        (Some(s), _) => s.to_string(),
        (_, Some(s)) => s.clone(),
        _ => "panicked".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadSpec;
    use mesh_alloc::StrategyKind;
    use mesh_sched::SchedulerKind;
    use workload::{SideDist, TraceWorkload};

    /// The sequential reference path: one replication at a time on the
    /// calling thread. The semantic definition the parallel engine must
    /// match bit-for-bit.
    fn run_point_seq(cfg: &SimConfig, min_reps: usize, max_reps: usize) -> PointResult {
        let mut ctl = Replications::paper(6, min_reps, max_reps);
        let mut rep = 0u64;
        while ctl.needs_more() {
            ctl.record(&Simulator::new(cfg, rep).run().response_vector());
            rep += 1;
        }
        PointResult::from_controller(cfg, &ctl)
    }

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

    fn small_cfg(load: f64, seed: u64) -> SimConfig {
        let mut cfg = cfg(StrategyKind::Gabl, load, seed);
        cfg.measured_jobs = 80;
        cfg
    }

    /// One point on `pool`: a batch of one.
    fn one_point(
        pool: &WorkerPool,
        cfg: &SimConfig,
        min_reps: usize,
        max_reps: usize,
    ) -> PointResult {
        run_points(pool, &[(cfg.clone(), min_reps..=max_reps)])
            .remove(0)
            .expect("no replication panics")
    }

    #[test]
    fn point_converges_or_hits_budget() {
        let cfg = small_cfg(0.002, 99);
        let p = one_point(&WorkerPool::new(2), &cfg, 3, 6);
        assert!(p.replications >= 3 && p.replications <= 6);
        assert!(p.turnaround() > 0.0);
        assert!(p.utilization() > 0.0 && p.utilization() <= 1.0);
        assert_eq!(p.label, "GABL(FCFS)");
        assert!((p.load - 0.002).abs() < 1e-12);
        assert!(matches!(p.stop, StopReason::Converged | StopReason::Budget));
    }

    #[test]
    fn derive_seed_is_deterministic_and_spreads() {
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
        assert_ne!(derive_seed(42, 7), derive_seed(42, 8));
        assert_ne!(derive_seed(42, 7), derive_seed(43, 7));
        // no collisions over a figure-sized index range
        let mut seen: Vec<u64> = (0..1000).map(|i| derive_seed(5, i)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 1000);
    }

    #[test]
    fn batch_preserves_input_order() {
        let points: Vec<_> = [
            small_cfg(0.001, 1),
            small_cfg(0.002, 2),
            small_cfg(0.003, 3),
        ]
        .into_iter()
        .map(|cfg| (cfg, 2..=3))
        .collect();
        let ps = run_points(&WorkerPool::new(2), &points);
        assert_eq!(ps.len(), 3);
        for (p, (cfg, _)) in ps.iter().zip(&points) {
            let p = p.as_ref().expect("no replication panics");
            assert!((p.load - cfg.workload.load()).abs() < 1e-12);
        }
    }

    #[test]
    fn converged_stop_unchanged_under_parallel_execution() {
        // A loose precision target the short runs CAN reach, so the
        // CI-width criterion is what stops replication — early stopping
        // must not be washed out by the wave over-submission (extra
        // results are discarded, not recorded). The paper's 5 % target
        // needs 1000-job runs to converge, far too slow for a unit test.
        let steady = cfg(StrategyKind::Gabl, 0.001, 31);
        // sequential reference with the same controller
        let loose = |min, max| Replications::new(6, min, max, 0.5);
        let mut ctl = loose(3, 30);
        let mut rep = 0u64;
        while ctl.needs_more() {
            ctl.record(&Simulator::new(&steady, rep).run().response_vector());
            rep += 1;
        }
        assert_eq!(
            ctl.stop_reason(),
            StopReason::Converged,
            "want an early stop case"
        );
        assert!(ctl.count() < 30, "converged before budget");
        let par = run_controlled(&WorkerPool::new(8), &[(steady, 3..=30)], loose)
            .remove(0)
            .expect("no replication panics");
        assert_eq!(par.stop, StopReason::Converged);
        assert_eq!(par.replications, ctl.count());
        for i in 0..6 {
            assert_eq!(par.means[i], ctl.mean(i));
            assert_eq!(par.ci95[i], ctl.ci95(i));
        }
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
        // Budget stop: max_reps too small for a 5 % CI on a short noisy
        // run. (The converged-stop half needs a looser controller than
        // the paper's: `converged_stop_unchanged_under_parallel_execution`.)
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
        let points: Vec<_> = cfgs.into_iter().map(|c| (c, 2..=4)).collect();
        for threads in [1, 3] {
            let pool = WorkerPool::new(threads);
            let batch = run_points(&pool, &points);
            assert_eq!(batch.len(), reference.len());
            for (b, r) in batch.iter().zip(&reference) {
                let b = b.as_ref().expect("no replication panics");
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

    #[test]
    fn one_replication_is_replication_0_with_zero_cis() {
        let c = cfg(StrategyKind::Mbs, 0.002, 5);
        let p = one_point(&WorkerPool::new(2), &c, 1, 1);
        assert_eq!(p.replications, 1);
        assert_eq!(p.stop, StopReason::Budget);
        assert_eq!(p.means, Simulator::new(&c, 0).run().response_vector());
        assert_eq!(p.ci95, [0.0; 6]);
    }

    #[test]
    fn mixed_bounds_in_one_batch_match_each_point_alone() {
        let a = (cfg(StrategyKind::Gabl, 0.002, 11), 1..=1);
        let b = (cfg(StrategyKind::Mbs, 0.003, 12), 2..=5);
        let c = (cfg(StrategyKind::Gabl, 0.001, 13), 3..=3);
        let batch = [a, b, c];
        for threads in [1, 4] {
            let pool = WorkerPool::new(threads);
            let together = run_points(&pool, &batch);
            for (point, got) in batch.iter().zip(together) {
                let got = got.expect("no replication panics");
                let alone = one_point(&pool, &point.0, *point.1.start(), *point.1.end());
                assert_eq!(got.means, alone.means, "@ {threads} threads");
                assert_eq!(got.ci95, alone.ci95);
                assert_eq!(got.replications, alone.replications);
                assert!(point.1.contains(&got.replications));
            }
        }
    }

    #[test]
    fn a_trace_changed_mid_run_fails_only_its_point() {
        let model = workload::ParagonModel {
            jobs: 200,
            ..Default::default()
        };
        let text = workload::write_swf(&model.generate(&mut SimRng::new(0x5EED)));
        let path = std::env::temp_dir().join(format!("procsim_rep_{}.swf", std::process::id()));
        std::fs::write(&path, &text).expect("trace written");
        let trace = Arc::new(TraceWorkload::open(&path).expect("trace opens"));
        // shorten it after the validating pass: the replay hits a cut line
        std::fs::write(&path, &text[..2000]).expect("trace shortened");

        let stochastic = cfg(StrategyKind::Gabl, 0.002, 7);
        let workload = WorkloadSpec::Trace {
            trace,
            load: 0.7,
            runtime_scale: 360.0,
        };
        let mut replay = SimConfig::paper(StrategyKind::Mbs, SchedulerKind::Fcfs, workload, 8);
        replay.warmup_jobs = 10;
        replay.measured_jobs = 100;
        let pool = WorkerPool::new(2);
        let batch = run_points(&pool, &[(stochastic.clone(), 2..=4), (replay, 2..=4)]);
        let _ = std::fs::remove_file(&path);

        let err = batch[1].as_ref().expect_err("the replay must fail");
        assert!(err.starts_with("MBS(FCFS) load 0.7: replication "), "{err}");
        assert!(
            err.contains(": trace file ") && err.contains("changed mid-run"),
            "{err}"
        );
        let alone = one_point(&pool, &stochastic, 2, 4);
        let together = batch[0].as_ref().expect("the stochastic point finishes");
        assert_eq!(together.means, alone.means);
        assert_eq!(together.ci95, alone.ci95);
        assert_eq!(together.replications, alone.replications);
    }
}
