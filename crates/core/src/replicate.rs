//! Replication driver: run experimental points to the paper's precision
//! criterion, in parallel over the caller's worker pool.
//!
//! Each *point* (one strategy × scheduler × workload × load combination)
//! is estimated by independent replications until the 95 % CI relative
//! error of the mean turnaround is at most 5 % (the paper's §5 protocol).
//! There is one parallel entry point, [`run_points`], which takes the
//! [`WorkerPool`] to run on and a batch of points (one point is a batch
//! of one), and one oracle, [`run_point_seq`], which runs a point's
//! replications one at a time on the calling thread.
//!
//! Replications are pure functions of `(SimConfig, replication seed)`, so
//! they execute concurrently on the pool; the coordinator here re-imposes
//! replication order when feeding the [`Replications`] controller, which
//! makes the result **bit-identical to the sequential path for any thread
//! count**:
//!
//! 1. submit the first `min_reps` replications of every point up front,
//! 2. record finished replications strictly in replication-index order
//!    (out-of-order arrivals are buffered),
//! 3. while a point still [`Replications::needs_more`], top up with
//!    another wave; replications that arrive after the controller stopped
//!    are discarded — exactly the runs the sequential loop never starts.
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
        let mut means = [0.0; 6];
        let mut ci = [0.0; 6];
        for i in 0..6 {
            means[i] = ctl.mean(i);
            ci[i] = ctl.ci95(i);
        }
        PointResult {
            label: cfg.series_label(),
            load: cfg.workload.load(),
            replications: ctl.count(),
            stop: ctl.stop_reason(),
            means,
            ci95: ci,
        }
    }
}

/// Per-point coordinator state while its replications are in flight.
struct PointState {
    cfg: Arc<SimConfig>,
    ctl: Replications,
    /// Finished replications, indexed by replication number; out-of-order
    /// arrivals wait here until the prefix below them is recorded. Kept
    /// as `thread::Result` so a panic from a replication the controller
    /// never consumes (an over-submitted wave tail) is dropped, exactly
    /// like the sequential path that never starts that run.
    results: Vec<Option<std::thread::Result<RunMetrics>>>,
    /// Contiguous replications fed to the controller so far.
    recorded: usize,
    /// Replications submitted to the pool so far.
    submitted: usize,
    done: bool,
}

/// Runs a batch of experimental points on `pool`, returning one
/// [`PointResult`] per input config, in input order.
///
/// All points share the pool: their replications interleave freely, so a
/// slow point cannot serialize the batch. Output is bit-identical to
/// calling [`run_point_seq`] on each config, whatever `pool.threads()`
/// is. Each point replicates until the paper's criterion (95 % CI
/// relative error of the mean turnaround at most 5 %) holds, bounded by
/// `[min_reps, max_reps]`. Must not be called from inside a pool worker
/// (workers are not reentrant); call it from a coordinator thread such
/// as `main`.
pub fn run_points(
    pool: &WorkerPool,
    cfgs: &[SimConfig],
    min_reps: usize,
    max_reps: usize,
) -> Vec<PointResult> {
    assert!(
        (2..=max_reps).contains(&min_reps),
        "need 2 <= min_reps <= max_reps"
    );
    run_controlled(pool, cfgs, || Replications::paper(6, min_reps, max_reps))
}

/// The body of [`run_points`], with the replication controller supplied
/// by `make_ctl` (one fresh controller per point, over the 6 response
/// variables of [`RunMetrics::response_vector`]). Tests use it with a
/// precision target that short runs can reach.
fn run_controlled(
    pool: &WorkerPool,
    cfgs: &[SimConfig],
    make_ctl: impl Fn() -> Replications,
) -> Vec<PointResult> {
    let (tx, rx) = mpsc::channel::<RepMsg>();
    let mut pending = 0usize;
    let mut states: Vec<PointState> = cfgs
        .iter()
        .map(|cfg| {
            let ctl = make_ctl();
            assert_eq!(ctl.stats().len(), 6, "controller must track 6 variables");
            PointState {
                cfg: Arc::new(cfg.clone()),
                ctl,
                results: Vec::new(),
                recorded: 0,
                submitted: 0,
                done: false,
            }
        })
        .collect();

    // Wave 1: the sequential path always runs at least min_reps.
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
        if st.done {
            continue; // over-submitted wave tail; sequential never ran it
        }
        // Feed the controller in replication order, exactly as the
        // sequential loop would: record only while it still needs more.
        // A panic is re-raised only when its replication is actually
        // consumed — precisely when the sequential path would have hit it.
        while st.ctl.needs_more() {
            let Some(result) = st.results.get_mut(st.recorded).and_then(Option::take) else {
                break; // waiting on an earlier replication
            };
            let metrics = result.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            st.ctl.record(&metrics.response_vector());
            st.recorded += 1;
        }
        if !st.ctl.needs_more() {
            st.done = true;
        } else if st.recorded == st.submitted {
            // Everything submitted is recorded and the CI is still too
            // wide: top up with another wave (bounded by the budget).
            let budget = st.ctl.max_reps().saturating_sub(st.submitted);
            let batch = pool.threads().min(budget).max(1);
            submit_wave(pool, &tx, point, st, batch, &mut pending);
        }
    }

    states
        .iter()
        .map(|st| {
            debug_assert!(st.done);
            PointResult::from_controller(&st.cfg, &st.ctl)
        })
        .collect()
}

/// One replication's outcome: `(point index, replication index, metrics
/// or the panic payload of a failed simulation)`.
type RepMsg = (usize, usize, std::thread::Result<RunMetrics>);

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
            // drains and run_points hangs) and can re-raise them.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                Simulator::new(&cfg, rep as u64).run()
            }));
            // The receiver hangs up only on coordinator panic.
            let _ = tx.send((point, rep, result));
        });
    }
}

/// The sequential reference path: one replication at a time on the
/// calling thread. Kept as the semantic definition the parallel engine
/// must match bit-for-bit (and for contexts without a pool).
pub fn run_point_seq(cfg: &SimConfig, min_reps: usize, max_reps: usize) -> PointResult {
    let mut ctl = Replications::paper(6, min_reps, max_reps);
    let mut rep = 0u64;
    while ctl.needs_more() {
        let metrics: RunMetrics = Simulator::new(cfg, rep).run();
        ctl.record(&metrics.response_vector());
        rep += 1;
    }
    PointResult::from_controller(cfg, &ctl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorkloadSpec;
    use mesh_alloc::StrategyKind;
    use mesh_sched::SchedulerKind;
    use workload::SideDist;

    fn small_cfg(load: f64, seed: u64) -> SimConfig {
        let mut cfg = SimConfig::paper(
            StrategyKind::Gabl,
            SchedulerKind::Fcfs,
            WorkloadSpec::Stochastic {
                sides: SideDist::Uniform,
                load,
                num_mes: 5.0,
            },
            seed,
        );
        cfg.warmup_jobs = 10;
        cfg.measured_jobs = 80;
        cfg
    }

    #[test]
    fn point_converges_or_hits_budget() {
        let cfg = small_cfg(0.002, 99);
        let p = run_points(&WorkerPool::new(2), std::slice::from_ref(&cfg), 3, 6)
            .pop()
            .unwrap();
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
        let cfgs = [small_cfg(0.001, 1), small_cfg(0.002, 2), small_cfg(0.003, 3)];
        let ps = run_points(&WorkerPool::new(2), &cfgs, 2, 3);
        assert_eq!(ps.len(), 3);
        for (p, cfg) in ps.iter().zip(&cfgs) {
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
        let mut steady = small_cfg(0.001, 31);
        steady.measured_jobs = 70;
        let make_ctl = || Replications::new(6, 3, 30, 0.5);
        // sequential reference with the same controller
        let mut ctl = make_ctl();
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
        let par = run_controlled(&WorkerPool::new(8), std::slice::from_ref(&steady), make_ctl)
            .pop()
            .unwrap();
        assert_eq!(par.stop, StopReason::Converged);
        assert_eq!(par.replications, ctl.count());
        for i in 0..6 {
            assert_eq!(par.means[i], ctl.mean(i));
            assert_eq!(par.ci95[i], ctl.ci95(i));
        }
    }
}
