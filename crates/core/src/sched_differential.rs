//! Differential battery for the memoized scheduling pass.
//!
//! `Simulator::schedule_pass_fast` (epoch-memoized failure skipping,
//! O(1) watermark feasibility rejection, reused attempt/observation
//! buffers) must make bit-for-bit the same decisions as the
//! pre-memoization `schedule_pass_reference`, which is kept verbatim in
//! the simulator as the oracle and, like this module, compiled only for
//! tests. Both sides run the same configuration under a [`StartLog`]
//! probe, and the full per-job start logs (job id, start time, request
//! shape, granted processors, fragment count) plus the end-of-run
//! metrics are compared for equality.
//!
//! The matrix deliberately crosses every axis that reaches a different
//! code path in the pass:
//!
//! * all 7 allocation strategies (including both contiguous ones, whose
//!   `feasible` is the watermark test, and Random, whose RNG stream
//!   must not be perturbed by skipped attempts);
//! * all 6 scheduling policies (including EASY backfilling, whose
//!   observation snapshot is the cached part, and the window scheduler,
//!   which exercises within-pass same-shape memo hits);
//! * both topologies;
//! * several seeds per cell, giving well over 100 seed-runs total.
//!
//! Runs in the plain and `--features invariants` CI jobs.

// procsim-lint: test-only: included via `#[cfg(test)] mod sched_differential` in lib.rs; the oracle it drives is compiled for tests only

use crate::probe::{Event, Probe};
use crate::{PageIndexing, RunMetrics, SimConfig, Simulator, StrategyKind, WorkloadSpec};
use desim::Time;
use mesh_sched::SchedulerKind;
use wormnet::TopologyKind;
use workload::SideDist;

const STRATEGIES: [StrategyKind; 7] = [
    StrategyKind::Gabl,
    StrategyKind::Mbs,
    StrategyKind::Paging {
        size_index: 0,
        indexing: PageIndexing::RowMajor,
    },
    StrategyKind::FirstFit,
    StrategyKind::BestFit,
    StrategyKind::Random,
    StrategyKind::Mc,
];

const SCHEDULERS: [SchedulerKind; 6] = [
    SchedulerKind::Fcfs,
    SchedulerKind::Ssd,
    SchedulerKind::SjfArea,
    SchedulerKind::LjfArea,
    SchedulerKind::FcfsWindow(4),
    SchedulerKind::EasyBackfill,
];

fn cfg(
    strategy: StrategyKind,
    scheduler: SchedulerKind,
    topology: TopologyKind,
    sides: SideDist,
    load: f64,
    seed: u64,
) -> SimConfig {
    let mut cfg = SimConfig::paper(
        strategy,
        scheduler,
        WorkloadSpec::Stochastic {
            sides,
            load,
            num_mes: 5.0,
        },
        seed,
    );
    cfg.topology = topology;
    // heavy enough load on a small mesh that queues build up and the
    // pass actually re-attempts (and memo-skips) blocked shapes
    cfg.mesh_w = 8;
    cfg.mesh_l = 8;
    cfg.warmup_jobs = 3;
    cfg.measured_jobs = 30;
    cfg
}

/// One job-start decision — the complete observable outcome of a
/// scheduling pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StartDecision {
    /// Internal (arrival-order) job id.
    job_id: u64,
    /// Simulation time the job started service.
    at: Time,
    /// Requested shape `(a, b)`.
    shape: (u16, u16),
    /// Processors granted.
    procs: u32,
    /// Number of disjoint sub-meshes granted.
    fragments: usize,
}

/// Records every start decision: two runs that agree on it and on the
/// metrics made identical scheduling decisions.
#[derive(Default)]
struct StartLog(Vec<StartDecision>);

impl Probe for StartLog {
    fn event(&mut self, event: Event<'_>) {
        if let Event::Start {
            job,
            at,
            shape,
            alloc,
        } = event
        {
            self.0.push(StartDecision {
                job_id: job,
                at,
                shape,
                procs: alloc.size(),
                fragments: alloc.fragments(),
            });
        }
    }
}

/// Asserts two runs' metrics are identical to the bit.
pub(crate) fn assert_same_metrics(fast_m: &RunMetrics, ref_m: &RunMetrics, tag: &str) {
    assert_eq!(fast_m.jobs, ref_m.jobs, "{tag}: job counts diverge");
    assert_eq!(fast_m.packets, ref_m.packets, "{tag}: packet counts diverge");
    assert_eq!(fast_m.end_time, ref_m.end_time, "{tag}: end times diverge");
    let bits = |m: &RunMetrics| {
        [
            m.mean_turnaround,
            m.mean_service,
            m.utilization,
            m.mean_packet_blocking,
            m.mean_packet_latency,
            m.mean_wait,
            m.mean_fragments,
        ]
        .map(f64::to_bits)
    };
    assert_eq!(bits(fast_m), bits(ref_m), "{tag}: metrics diverge");
}

fn assert_identical(c: &SimConfig, rep: u64, tag: &str) {
    let (fast_m, StartLog(fast_log)) = Simulator::new(c, rep).run_with(StartLog::default());
    let (ref_m, StartLog(ref_log)) =
        Simulator::new(c, rep).with_reference_pass().run_with(StartLog::default());
    assert_eq!(
        fast_log.len(),
        ref_log.len(),
        "{tag}: start counts diverge ({} vs {})",
        fast_log.len(),
        ref_log.len()
    );
    for (i, (f, r)) in fast_log.iter().zip(&ref_log).enumerate() {
        assert_eq!(f, r, "{tag}: start decision {i} diverges");
    }
    // bit-level metric comparison (f64::to_bits: "identical" here means
    // identical arithmetic, not approximately equal results)
    assert_same_metrics(&fast_m, &ref_m, tag);
}

/// The full cross: 7 strategies x 6 schedulers x 2 topologies, one
/// moderately loaded run each (84 seed-runs), with each cell's tag.
pub(crate) fn full_matrix() -> Vec<(String, SimConfig)> {
    let mut cells = Vec::new();
    for (si, &strategy) in STRATEGIES.iter().enumerate() {
        for (qi, &scheduler) in SCHEDULERS.iter().enumerate() {
            for (ti, &topology) in [TopologyKind::Mesh, TopologyKind::Torus].iter().enumerate() {
                let seed = 0xD1FF + (si * 100 + qi * 10 + ti) as u64;
                let c = cfg(
                    strategy,
                    scheduler,
                    topology,
                    SideDist::Uniform,
                    0.004,
                    seed,
                );
                cells.push((format!("{strategy:?}/{scheduler:?}/{topology:?}"), c));
            }
        }
    }
    cells
}

#[test]
fn full_matrix_is_bit_identical() {
    for (tag, c) in full_matrix() {
        assert_identical(&c, 0, &tag);
    }
}

/// Seed sweep over the paper's own cells (3 strategies x 2 schedulers),
/// two side distributions, three seeds, two replications: 72 more
/// seed-runs, pushing the battery past 150 total.
#[test]
fn paper_cells_across_seeds_and_reps() {
    for &strategy in &StrategyKind::PAPER {
        for &scheduler in &SchedulerKind::PAPER {
            for &sides in &[SideDist::Uniform, SideDist::Exponential] {
                for seed in [11u64, 12, 13] {
                    for rep in [0u64, 1] {
                        let c = cfg(
                            strategy,
                            scheduler,
                            TopologyKind::Mesh,
                            sides,
                            0.005,
                            seed,
                        );
                        assert_identical(
                            &c,
                            rep,
                            &format!("{strategy:?}/{scheduler:?}/{sides:?}/s{seed}/r{rep}"),
                        );
                    }
                }
            }
        }
    }
}

/// Saturating load: the queue stays deep for long stretches, so almost
/// every pass exercises the memo-skip path (many repeated shapes) and
/// the contiguous strategies reject through the watermarks.
#[test]
fn saturated_queue_stress() {
    for &strategy in &[StrategyKind::FirstFit, StrategyKind::BestFit, StrategyKind::Gabl] {
        for &scheduler in &[
            SchedulerKind::FcfsWindow(8),
            SchedulerKind::EasyBackfill,
            SchedulerKind::SjfArea,
        ] {
            let c = cfg(
                strategy,
                scheduler,
                TopologyKind::Mesh,
                SideDist::Uniform,
                0.02,
                0xBEEF,
            );
            assert_identical(&c, 0, &format!("sat/{strategy:?}/{scheduler:?}"));
        }
    }
}
