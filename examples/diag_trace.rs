//! Diagnostic: strategy ordering under the synthetic Paragon trace
//! (small jobs, many concurrent) across loads — the regime where the
//! paper's GABL advantage is largest.

use procsim::{
    MeanHops, PageIndexing, ParagonModel, SchedulerKind, SimConfig, Simulator, StrategyKind,
    WorkloadSpec,
};

fn main() {
    for load in [0.0005, 0.001, 0.0015, 0.002] {
        println!("trace load {load}");
        for strat in [
            StrategyKind::Gabl,
            StrategyKind::Paging {
                size_index: 0,
                indexing: PageIndexing::RowMajor,
            },
            StrategyKind::Mbs,
        ] {
            let mut cfg = SimConfig::paper(
                strat,
                SchedulerKind::Fcfs,
                WorkloadSpec::SyntheticTrace {
                    model: ParagonModel::default(),
                    load,
                    runtime_scale: 360.0,
                },
                7,
            );
            cfg.warmup_jobs = 150;
            cfg.measured_jobs = 500;
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
