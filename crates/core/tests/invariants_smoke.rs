//! Smoke test for the `invariants` feature: drive a small end-to-end
//! simulation through every subsystem that carries deep checks — the
//! mesh row free masks, the wormhole network's arbitration and
//! waiter-list bookkeeping, and the event queue's monotone clock.
//!
//! Under `cargo test` this is an ordinary regression test; under
//! `cargo test --features invariants` (the CI invariants job) the same
//! run executes with the always-compiled checked paths, so any
//! bookkeeping drift aborts here rather than silently skewing results.

use mesh_sched::SchedulerKind;
use procsim_core::{SimConfig, Simulator, StrategyKind, WorkloadSpec};
use workload::SideDist;

fn small_cfg(strategy: StrategyKind, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::paper(
        strategy,
        SchedulerKind::Fcfs,
        WorkloadSpec::Stochastic {
            sides: SideDist::Uniform,
            load: 0.003,
            num_mes: 5.0,
        },
        seed,
    );
    cfg.warmup_jobs = 5;
    cfg.measured_jobs = 40;
    cfg
}

#[test]
fn checked_paths_survive_a_small_run() {
    for strategy in StrategyKind::PAPER {
        let m = Simulator::new(&small_cfg(strategy, 99), 0).run();
        assert!(m.jobs >= 40, "{strategy:?}: {m:?}");
        assert!(m.mean_turnaround.is_finite());
    }
}

#[cfg(feature = "invariants")]
#[test]
fn deep_checks_are_callable_directly() {
    use mesh2d::{Coord, Mesh, SubMesh};

    let mut mesh = Mesh::new(8, 8);
    mesh.occupy_submesh(&SubMesh::from_base_size(Coord::new(1, 1), 3, 2));
    mesh.check_index_consistency();
    mesh.release_submesh(&SubMesh::from_base_size(Coord::new(1, 1), 3, 2));
    mesh.check_index_consistency();
}
