//! Quickstart: run the paper's three allocation strategies under both
//! schedulers at one load and print the comparison table.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use procsim::{
    pool, run_points, SchedulerKind, SideDist, SimConfig, StrategyKind, WorkerPool, WorkloadSpec,
};

fn main() {
    let load = 0.0008; // jobs per time unit, mid-range of the Fig. 3 sweep
    println!("strategy x scheduler comparison on a 16x22 mesh");
    println!("stochastic workload, uniform side lengths, load {load} jobs/cycle");
    println!("all-to-all pattern, Plen=8 flits, ts=3 cycles, num_mes=5\n");
    println!(
        "{:<16} {:>12} {:>10} {:>8} {:>10} {:>10} {:>6}",
        "series", "turnaround", "service", "util", "latency", "blocking", "reps"
    );

    let mut cfgs = Vec::new();
    for sched in SchedulerKind::PAPER {
        for strat in StrategyKind::PAPER {
            let mut cfg = SimConfig::paper(
                strat,
                sched,
                WorkloadSpec::Stochastic {
                    sides: SideDist::Uniform,
                    load,
                    num_mes: 5.0,
                },
                2024,
            );
            // quick demo settings; the figure scenarios use the paper's
            // full 1000-job runs
            cfg.warmup_jobs = 100;
            cfg.measured_jobs = 400;
            cfgs.push(cfg);
        }
    }
    // one batch: every point's replications share one pool
    let pool = WorkerPool::new(pool::default_threads());
    for p in run_points(&pool, &cfgs, 3, 8) {
        println!(
            "{:<16} {:>12.1} {:>10.1} {:>8.3} {:>10.1} {:>10.1} {:>6}",
            p.label,
            p.turnaround(),
            p.service(),
            p.utilization(),
            p.latency(),
            p.blocking(),
            p.replications
        );
    }
    println!("\nExpected ranking (paper): GABL best on most metrics, MBS worst;");
    println!("for a fixed strategy, SSD improves turnaround over FCFS.");
}
