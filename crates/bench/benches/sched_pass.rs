//! Criterion benchmark: the scheduling pass, memoized vs reference.
//!
//! `sched_pass/*` measures what the epoch-memoization PR bought: the
//! same deep-queue simulations driven once through the memoized pass
//! (`run_recorded`) and once through the kept pre-memoization oracle
//! (`run_reference_recorded`). The two sides make bit-identical
//! decisions (pinned by `crates/core/tests/sched_differential.rs`), so
//! any wall-clock gap is pure pass overhead: repeated doomed allocator
//! searches, per-iteration attempt-order clones, and per-pass
//! observation snapshot rebuilds.
//!
//! `watermark_reject` isolates the O(1) rejection itself: asking a
//! heavily fragmented mesh whether a too-large sub-mesh could fit, via
//! the watermark test versus the full row-scan search.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mesh2d::{find_free_submesh, Coord, Mesh};
use procsim_core::{
    SchedulerKind, SideDist, SimConfig, Simulator, StrategyKind, WorkloadSpec,
};

/// A deliberately over-loaded, communication-light configuration: the
/// queue stays deep, so most pass iterations are rejections — the case
/// memoization targets — while `num_mes` is kept small so the network
/// does not drown the scheduling cost it took PR 5/7 to tame.
fn deep_queue_cfg(strategy: StrategyKind, scheduler: SchedulerKind) -> SimConfig {
    let mut cfg = SimConfig::paper(
        strategy,
        scheduler,
        WorkloadSpec::Stochastic {
            sides: SideDist::Uniform,
            load: 0.05,
            num_mes: 0.5,
        },
        23,
    );
    cfg.warmup_jobs = 10;
    cfg.measured_jobs = 80;
    cfg
}

fn bench_sched_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("sched_pass");
    group.sample_size(10);
    for (name, strategy, scheduler) in [
        (
            "deep_queue_firstfit_fcfs",
            StrategyKind::FirstFit,
            SchedulerKind::Fcfs,
        ),
        (
            "mixed_shape_churn_bestfit_window",
            StrategyKind::BestFit,
            SchedulerKind::FcfsWindow(8),
        ),
    ] {
        let cfg = deep_queue_cfg(strategy, scheduler);
        group.bench_function(&format!("{name}/memoized"), |b| {
            b.iter(|| black_box(Simulator::new(&cfg, 0).run_recorded()))
        });
        group.bench_function(&format!("{name}/reference"), |b| {
            b.iter(|| black_box(Simulator::new(&cfg, 0).run_reference_recorded()))
        });
    }
    group.finish();
}

/// Checkerboard-fragment a mesh: no free run longer than 1, so a 4×4
/// request is infeasible — the case the watermarks reject in O(1)
/// (before them, the search scanned every row before giving up).
fn checkerboard_mesh() -> Mesh {
    let mut mesh = Mesh::new(16, 22);
    for y in 0..22u16 {
        for x in 0..16u16 {
            if (x + y) % 2 == 0 {
                mesh.occupy(Coord::new(x, y));
            }
        }
    }
    mesh
}

/// Occupy every other full row: long free runs (`max_free_run` = 16)
/// and many free rows, so a 4×4 request passes every watermark — but no
/// two consecutive rows are free, so the full search runs to the end
/// and fails. This is the price a doomed contiguous attempt paid per
/// pass before memoization, and still pays on its *first* attempt.
fn striped_mesh() -> Mesh {
    let mut mesh = Mesh::new(16, 22);
    for y in (0..22u16).step_by(2) {
        for x in 0..16u16 {
            mesh.occupy(Coord::new(x, y));
        }
    }
    mesh
}

fn bench_watermark_reject(c: &mut Criterion) {
    let mut group = c.benchmark_group("sched_pass");
    let checker = checkerboard_mesh();
    let striped = striped_mesh();
    // what an infeasible contiguous request costs now: one O(1) check
    // (find_free_submesh itself leads with could_fit_rect, so the two
    // rows below are equal by construction)
    group.bench_function("watermark_reject/could_fit_rect", |b| {
        b.iter(|| black_box(checker.could_fit_rect(black_box(4), black_box(4))))
    });
    group.bench_function("watermark_reject/rejected_search", |b| {
        b.iter(|| black_box(find_free_submesh(&checker, black_box(4), black_box(4))))
    });
    // what the same rejection costs when the watermarks cannot decide
    // (and, order-of-magnitude, what every doomed attempt cost before):
    // the full row-by-row mask scan, ending in failure
    group.bench_function("watermark_reject/undecided_full_scan", |b| {
        b.iter(|| black_box(find_free_submesh(&striped, black_box(4), black_box(4))))
    });
    group.finish();
}

criterion_group!(benches, bench_sched_pass, bench_watermark_reject);
criterion_main!(benches);
