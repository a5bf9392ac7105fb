//! Diagnostic: mean intra-job packet distance (hops), latency and
//! blocking per strategy at a range of loads. Used while calibrating the
//! reproduction; kept as a worked example of instrumenting the simulator.

use procsim::{
    MeanHops, PageIndexing, SchedulerKind, SideDist, SimConfig, Simulator, StrategyKind,
    WorkloadSpec,
};

fn main() {
    for load in [0.0003, 0.0006, 0.0009, 0.0012] {
        println!("load {load}");
        for strat in [
            StrategyKind::Gabl,
            StrategyKind::Paging {
                size_index: 0,
                indexing: PageIndexing::RowMajor,
            },
            StrategyKind::Mbs,
            StrategyKind::Random,
        ] {
            let mut cfg = SimConfig::paper(
                strat,
                SchedulerKind::Fcfs,
                WorkloadSpec::Stochastic {
                    sides: SideDist::Uniform,
                    load,
                    num_mes: 5.0,
                },
                7,
            );
            cfg.warmup_jobs = 100;
            cfg.measured_jobs = 400;
            let (m, hops) = Simulator::new(&cfg, 0).run_with(MeanHops::default());
            println!(
                "  {:<12} turn {:>9.1} serv {:>7.1} lat {:>6.1} blk {:>6.1} hops {:>5.2} frags {:>5.1} util {:>5.3}",
                format!("{strat}"),
                m.mean_turnaround,
                m.mean_service,
                m.mean_packet_latency,
                m.mean_packet_blocking,
                hops.mean(),
                m.mean_fragments,
                m.utilization,
            );
        }
    }
}
