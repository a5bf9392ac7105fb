//! `SimConfig`-level integration tests of the torus scenario (the
//! paper's §6 future work promoted to a first-class run dimension):
//! torus runs are sane, bit-identical at any worker-pool size, and the
//! expected mesh-vs-torus physics holds under paired seeds.

use procsim_core::{
    run_points, MeanHops, PageIndexing, Simulator, SimConfig, StrategyKind, TopologyKind,
    WorkerPool, WorkloadSpec,
};
use mesh_sched::SchedulerKind;
use simstats::StopReason;
use workload::SideDist;

/// A small paired config: identical everything except the topology, so a
/// mesh run and its torus twin consume identical workload streams.
fn cfg(topology: TopologyKind, strategy: StrategyKind, load: f64, seed: u64) -> SimConfig {
    let mut c = SimConfig::paper(
        strategy,
        SchedulerKind::Fcfs,
        WorkloadSpec::Stochastic {
            sides: SideDist::Uniform,
            load,
            num_mes: 5.0,
        },
        seed,
    );
    c.topology = topology;
    c.warmup_jobs = 10;
    c.measured_jobs = 80;
    c
}

#[test]
fn torus_point_metrics_and_stop_reason_are_sane() {
    let pool = WorkerPool::new(2);
    let points = run_points(
        &pool,
        &[cfg(TopologyKind::Torus, StrategyKind::Gabl, 0.002, 77)],
        2,
        4,
    );
    let p = &points[0];
    assert!(matches!(p.stop, StopReason::Converged | StopReason::Budget));
    assert!(p.replications >= 2 && p.replications <= 4);
    assert!(p.turnaround() > 0.0);
    assert!(p.turnaround() >= p.service());
    assert!(p.utilization() > 0.0 && p.utilization() <= 1.0);
    assert!(p.latency() > 0.0, "torus packets must traverse the network");
    assert!(p.fragments() >= 1.0);
}

#[test]
fn torus_replication_completes_all_jobs() {
    let c = cfg(TopologyKind::Torus, StrategyKind::Mbs, 0.005, 3);
    let m = Simulator::new(&c, 0).run();
    assert_eq!(m.jobs, 80);
    assert!(m.packets > 0);
    // reproducible per (seed, rep), distinct across reps — the
    // determinism contract holds on the torus exactly as on the mesh
    let m2 = Simulator::new(&c, 0).run();
    assert_eq!(m.mean_turnaround, m2.mean_turnaround);
    assert_eq!(m.end_time, m2.end_time);
    let m3 = Simulator::new(&c, 1).run();
    assert_ne!(m.end_time, m3.end_time);
}

#[test]
fn torus_batch_is_thread_count_invariant() {
    // a miniature mesh_vs_torus batch: every point's statistics must be
    // byte-identical whatever the worker-pool size
    let cfgs: Vec<SimConfig> = [TopologyKind::Mesh, TopologyKind::Torus]
        .into_iter()
        .flat_map(|t| {
            [0.001, 0.01]
                .into_iter()
                .map(move |load| cfg(t, StrategyKind::Gabl, load, 0xBEEF))
        })
        .collect();
    let p1 = run_points(&WorkerPool::new(1), &cfgs, 2, 3);
    let p4 = run_points(&WorkerPool::new(4), &cfgs, 2, 3);
    assert_eq!(p1.len(), p4.len());
    for (a, b) in p1.iter().zip(&p4) {
        assert_eq!(a.means, b.means, "thread count changed results");
        assert_eq!(a.ci95, b.ci95);
        assert_eq!(a.replications, b.replications);
        assert_eq!(a.stop, b.stop);
    }
}

#[test]
fn torus_shortens_routes_under_paired_seeds() {
    // wraparound links can only shorten minimal routes; with identical
    // workload streams the torus twin must deliver packets over fewer
    // hops on average, for every paper strategy
    for strategy in StrategyKind::PAPER {
        let seed = 0x70125;
        let load = 0.01; // enough concurrency that allocations disperse
        let hops = |t| {
            let (_, hops) =
                Simulator::new(&cfg(t, strategy, load, seed), 0).run_with(MeanHops::default());
            hops.mean()
        };
        let (mesh_hops, torus_hops) = (hops(TopologyKind::Mesh), hops(TopologyKind::Torus));
        assert!(
            torus_hops <= mesh_hops,
            "{strategy}: torus mean hops {torus_hops} > mesh {mesh_hops}"
        );
        assert!(torus_hops > 0.0);
    }
}

/// The `MeanHops` probe reproduces, to the bit, the mean hop counts the
/// simulator's retired built-in hop diagnostic (network counters
/// `total_hops / delivered`, read after the run) gave on the
/// configuration above.
#[test]
fn mean_hops_matches_the_network_counters_it_replaced() {
    let paging = StrategyKind::Paging {
        size_index: 0,
        indexing: PageIndexing::RowMajor,
    };
    let pins = [
        (StrategyKind::Gabl, TopologyKind::Mesh, 0x4020_d145_22c6_c318_u64),
        (StrategyKind::Gabl, TopologyKind::Torus, 0x401c_95c7_ca67_5b35),
        (paging, TopologyKind::Mesh, 0x401f_47f8_a93d_5a27),
        (paging, TopologyKind::Torus, 0x4019_e433_7bc9_d907),
        (StrategyKind::Mbs, TopologyKind::Mesh, 0x4023_0c74_3309_ec99),
        (StrategyKind::Mbs, TopologyKind::Torus, 0x401d_99c1_73d6_8628),
    ];
    for (strategy, topology, bits) in pins {
        let c = cfg(topology, strategy, 0.01, 0x70125);
        let (_, hops) = Simulator::new(&c, 0).run_with(MeanHops::default());
        assert_eq!(
            hops.mean().to_bits(),
            bits,
            "{strategy}/{topology:?}: mean hops {} moved",
            hops.mean()
        );
    }
}

#[test]
fn torus_outperforms_mesh_when_saturated() {
    // the §6 conjecture at a congesting load: shorter routes mean less
    // wormhole blocking, so the torus turns jobs around no slower than
    // the mesh under the non-contiguous strategies (paired seeds; GABL
    // keeps allocations compact so the gap there can be within noise)
    let seed = 11;
    let load = 0.03;
    let run = |t| {
        let pool = WorkerPool::new(2);
        run_points(&pool, &[cfg(t, StrategyKind::Mbs, load, seed)], 3, 3)
            .pop()
            .unwrap()
    };
    let mesh = run(TopologyKind::Mesh);
    let torus = run(TopologyKind::Torus);
    assert!(
        torus.blocking() < mesh.blocking(),
        "torus blocking {} vs mesh {}",
        torus.blocking(),
        mesh.blocking()
    );
    assert!(
        torus.turnaround() < mesh.turnaround(),
        "torus turnaround {} vs mesh {}",
        torus.turnaround(),
        mesh.turnaround()
    );
}
