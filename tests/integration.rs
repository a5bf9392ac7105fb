//! Cross-crate integration tests: end-to-end simulation scenarios
//! asserting the paper's qualitative results at test-friendly scale.

use procsim::{
    run_points, ParagonModel, PointResult, SchedulerKind, SideDist, SimConfig, Simulator,
    StrategyKind, WorkerPool, WorkloadSpec, PageIndexing,
};

/// One point, replicated on a small pool of its own.
fn one_point(cfg: &SimConfig, min_reps: usize, max_reps: usize) -> PointResult {
    let pool = WorkerPool::new(2);
    run_points(&pool, std::slice::from_ref(cfg), min_reps, max_reps).remove(0)
}

fn stochastic(load: f64) -> WorkloadSpec {
    WorkloadSpec::Stochastic {
        sides: SideDist::Uniform,
        load,
        num_mes: 5.0,
    }
}

fn trace(load: f64) -> WorkloadSpec {
    WorkloadSpec::SyntheticTrace {
        model: ParagonModel::default(),
        load,
        runtime_scale: 360.0,
    }
}

fn quick(strategy: StrategyKind, scheduler: SchedulerKind, wl: WorkloadSpec) -> SimConfig {
    let mut cfg = SimConfig::paper(strategy, scheduler, wl, 2718);
    cfg.warmup_jobs = 30;
    cfg.measured_jobs = 150;
    cfg
}

const PAGING0: StrategyKind = StrategyKind::Paging {
    size_index: 0,
    indexing: PageIndexing::RowMajor,
};

#[test]
fn trace_ranking_gabl_first() {
    // the paper's headline: on the real workload GABL beats the other
    // non-contiguous strategies. Service/latency/blocking are
    // low-variance and asserted under FCFS; FCFS *turnaround* on a
    // heavy-tailed trace needs figure-scale replication (see fig02), so
    // the turnaround ranking is asserted under SSD here.
    let point = |strategy, scheduler| {
        let mut cfg = SimConfig::paper(strategy, scheduler, trace(0.001), 2718);
        cfg.warmup_jobs = 100;
        cfg.measured_jobs = 300;
        one_point(&cfg, 4, 4)
    };
    let g = point(StrategyKind::Gabl, SchedulerKind::Fcfs);
    let p = point(PAGING0, SchedulerKind::Fcfs);
    let m = point(StrategyKind::Mbs, SchedulerKind::Fcfs);
    assert!(g.service() < p.service(), "GABL {} vs Paging {}", g.service(), p.service());
    assert!(g.service() < m.service(), "GABL {} vs MBS {}", g.service(), m.service());
    assert!(g.latency() < p.latency());
    assert!(g.latency() < m.latency());
    assert!(g.blocking() < p.blocking());
    assert!(g.blocking() < m.blocking());

    let gs = point(StrategyKind::Gabl, SchedulerKind::Ssd);
    let ps = point(PAGING0, SchedulerKind::Ssd);
    let ms = point(StrategyKind::Mbs, SchedulerKind::Ssd);
    assert!(gs.turnaround() < ps.turnaround(), "GABL {} vs Paging {}", gs.turnaround(), ps.turnaround());
    assert!(gs.turnaround() < ms.turnaround(), "GABL {} vs MBS {}", gs.turnaround(), ms.turnaround());
}

#[test]
fn gabl_latency_blocking_best_on_trace() {
    // Figs. 11/14 analogue
    let g = Simulator::new(&quick(StrategyKind::Gabl, SchedulerKind::Ssd, trace(0.002)), 1).run();
    let p = Simulator::new(&quick(PAGING0, SchedulerKind::Ssd, trace(0.002)), 1).run();
    assert!(g.mean_packet_blocking < p.mean_packet_blocking);
    assert!(g.mean_packet_latency < p.mean_packet_latency);
}

#[test]
fn ssd_improves_turnaround_at_load() {
    // §4/§6: SSD beats FCFS on turnaround for every strategy once the
    // queue matters
    for strat in [StrategyKind::Gabl, PAGING0, StrategyKind::Mbs] {
        let f = Simulator::new(&quick(strat, SchedulerKind::Fcfs, stochastic(0.0015)), 2).run();
        let s = Simulator::new(&quick(strat, SchedulerKind::Ssd, stochastic(0.0015)), 2).run();
        assert!(
            s.mean_turnaround < f.mean_turnaround,
            "{strat}: SSD {} vs FCFS {}",
            s.mean_turnaround,
            f.mean_turnaround
        );
    }
}

#[test]
fn saturation_utilization_in_paper_band() {
    // Figs. 8-10: at heavy load the non-contiguous strategies reach
    // 72-89% utilization; at small test scale allow a slightly wider
    // band but require the qualitative plateau
    for strat in [StrategyKind::Gabl, PAGING0, StrategyKind::Mbs] {
        let m = Simulator::new(&quick(strat, SchedulerKind::Fcfs, stochastic(0.01)), 3).run();
        assert!(
            m.utilization > 0.55 && m.utilization < 0.95,
            "{strat}: utilization {} out of band",
            m.utilization
        );
    }
}

#[test]
fn utilization_similar_across_noncontiguous() {
    // §5: "the utilization of the three non-contiguous strategies is
    // approximately the same" at saturation
    let us: Vec<f64> = [StrategyKind::Gabl, PAGING0, StrategyKind::Mbs]
        .iter()
        .map(|&s| {
            Simulator::new(&quick(s, SchedulerKind::Fcfs, stochastic(0.01)), 4)
                .run()
                .utilization
        })
        .collect();
    let max = us.iter().cloned().fold(f64::MIN, f64::max);
    let min = us.iter().cloned().fold(f64::MAX, f64::min);
    assert!(max - min < 0.15, "utilizations spread too far: {us:?}");
}

#[test]
fn turnaround_monotone_in_load() {
    let mut last = 0.0;
    for load in [0.0002, 0.0008, 0.0024] {
        let m =
            Simulator::new(&quick(StrategyKind::Gabl, SchedulerKind::Fcfs, stochastic(load)), 5)
                .run();
        assert!(
            m.mean_turnaround > last,
            "turnaround not increasing at load {load}"
        );
        last = m.mean_turnaround;
    }
}

#[test]
fn trace_runtime_scale_drives_service() {
    // DESIGN.md §3: trace runtimes become communication volume via
    // runtime_scale — quartering the scale (4x the messages) must
    // substantially raise observed service times
    let run = |scale: f64| {
        let wl = WorkloadSpec::SyntheticTrace {
            model: ParagonModel::default(),
            load: 0.001,
            runtime_scale: scale,
        };
        Simulator::new(&quick(StrategyKind::Gabl, SchedulerKind::Fcfs, wl), 6)
            .run()
            .mean_service
    };
    let coarse = run(360.0);
    let fine = run(90.0);
    assert!(
        fine > 2.0 * coarse,
        "service with 4x messages ({fine}) should dwarf baseline ({coarse})"
    );
}

#[test]
fn latency_at_least_uncontended_floor() {
    // mean packet latency can never fall below the shortest possible
    // uncontended packet time: (0+1)(ts+1)+Plen
    let m = Simulator::new(&quick(StrategyKind::Gabl, SchedulerKind::Fcfs, stochastic(0.0004)), 7)
        .run();
    assert!(m.mean_packet_latency >= (3 + 1) as f64 + 8.0);
    assert!(m.mean_packet_blocking >= 0.0);
    assert!(m.mean_packet_latency > m.mean_packet_blocking);
}

#[test]
fn run_point_full_pipeline() {
    let mut cfg = SimConfig::paper(StrategyKind::Mbs, SchedulerKind::Ssd, stochastic(0.0006), 11);
    cfg.warmup_jobs = 20;
    cfg.measured_jobs = 100;
    let p = one_point(&cfg, 3, 5);
    assert_eq!(p.label, "MBS(SSD)");
    assert!(p.replications >= 3);
    assert!(p.turnaround() >= p.service());
    for i in 0..6 {
        assert!(p.means[i].is_finite());
        assert!(p.ci95[i] >= 0.0);
    }
}

#[test]
fn contiguous_strategy_blocks_where_noncontiguous_proceeds() {
    // the motivating contrast of §1, end to end: at equal load FF's
    // turnaround exceeds GABL's because fragmented states stall it
    let ff =
        Simulator::new(&quick(StrategyKind::FirstFit, SchedulerKind::Fcfs, stochastic(0.001)), 8)
            .run();
    let g = Simulator::new(&quick(StrategyKind::Gabl, SchedulerKind::Fcfs, stochastic(0.001)), 8)
        .run();
    assert!(
        ff.mean_wait > g.mean_wait,
        "FF wait {} vs GABL wait {}",
        ff.mean_wait,
        g.mean_wait
    );
}

#[test]
fn deterministic_across_identical_configs() {
    let cfg = quick(StrategyKind::Gabl, SchedulerKind::Ssd, trace(0.002));
    let a = Simulator::new(&cfg, 5).run();
    let b = Simulator::new(&cfg, 5).run();
    assert_eq!(a.mean_turnaround, b.mean_turnaround);
    assert_eq!(a.packets, b.packets);
    assert_eq!(a.end_time, b.end_time);
}
