//! Experiment configuration.

use mesh_alloc::StrategyKind;
use mesh_sched::SchedulerKind;
use workload::{Cm5Model, JobSpec, ParagonModel, SideDist, TraceWorkload};
use wormnet::{Pattern, TopologyKind};

/// Which job stream drives a run.
#[derive(Debug, Clone)]
pub enum WorkloadSpec {
    /// The paper's stochastic workload at a given system load
    /// (jobs per time unit).
    Stochastic {
        /// Distribution of requested sub-mesh side lengths.
        sides: SideDist,
        /// System load (jobs per time unit) driving the arrival rate.
        load: f64,
        /// Mean per-processor message count (`num_mes`, paper value 5).
        num_mes: f64,
    },
    /// The synthetic SDSC Paragon trace at a given system load; the
    /// arrival-scaling factor `f` is derived as `1 / (mean_ia · load)`.
    /// Each replication draws a fresh trace from the model, one record
    /// per arrival: `min(1.5 × budget + 100, max(model.jobs, budget +
    /// 50))` records, where the budget is `warmup_jobs + measured_jobs`,
    /// replayed in one pass from the model's time 0 and never held in
    /// memory.
    SyntheticTrace {
        /// Statistical model of the SDSC Paragon trace to draw from.
        model: ParagonModel,
        /// System load (jobs per time unit); sets the arrival-scaling
        /// factor `f`.
        load: f64,
        /// Seconds of trace runtime per message (DESIGN.md §3; mean
        /// runtime / runtime_scale becomes the mean per-processor message
        /// count).
        runtime_scale: f64,
    },
    /// The synthetic LANL CM-5 trace (every job size a power of two) at a
    /// given system load, drawn lazily and scaled per replication exactly
    /// like [`WorkloadSpec::SyntheticTrace`] — the paper's §6 future work
    /// on traces from other machines.
    SyntheticCm5 {
        /// Statistical model of the CM-5 trace to draw from.
        model: Cm5Model,
        /// System load (jobs per time unit).
        load: f64,
        /// Seconds of trace runtime per message.
        runtime_scale: f64,
    },
    /// A fixed externally supplied job stream (e.g. parsed from SWF),
    /// rebased so each replication's segment starts at time 0.
    /// Replication `r` replays the stream starting at job offset
    /// `r × (warmup_jobs + measured_jobs)` (mod stream length) so
    /// independent replications see disjoint segments; when the stream is
    /// too short for disjointness the offset degrades to one job per
    /// replication, keeping replications distinct. A replication supplies
    /// at most one full pass over the stream — ask for more jobs than the
    /// trace holds and the run ends early with fewer measured jobs
    /// (front-ends should cap and warn, as `procsim trace` does).
    FixedTrace(std::sync::Arc<Vec<JobSpec>>),
    /// A real trace (e.g. an SWF archive file) replayed at a target
    /// **offered load**: arrivals are rescaled by the factor
    /// [`TraceWorkload::factor_for_offered_load`] derives (via the
    /// paper's `factor_for_load`) so that the trace-domain offered load
    /// on this mesh equals `load`. Replications replay segments offset
    /// exactly like [`WorkloadSpec::FixedTrace`] (disjoint when the trace
    /// is long enough), and the same one-pass length cap applies.
    ///
    /// Replay is **streaming**: records are parsed (for file-backed
    /// workloads from [`TraceWorkload::open`]) and scaled lazily, one
    /// per arrival, so simulator memory is bounded by the live-job count
    /// — a million-job archive log replays without ever being
    /// materialized. Metrics are bit-identical to pre-scaling the whole
    /// stream into a [`WorkloadSpec::FixedTrace`]
    /// (`crates/core/tests/streaming_trace.rs` proves it).
    Trace {
        /// The wrapped trace.
        trace: std::sync::Arc<TraceWorkload>,
        /// Target offered load ρ — the fraction of machine capacity the
        /// scaled trace occupies in its own time domain (0.7 = 70 %).
        /// Unlike the other variants this is *not* jobs per time unit;
        /// the equivalent arrival-rate load is
        /// [`TraceWorkload::arrival_load`]`(W·L, ρ)`.
        load: f64,
        /// Seconds of trace runtime per message (as in
        /// [`WorkloadSpec::SyntheticTrace`]).
        runtime_scale: f64,
    },
}

impl WorkloadSpec {
    /// The nominal load of this workload: jobs per time unit for the
    /// stochastic and synthetic-trace variants, the offered-load fraction
    /// for [`WorkloadSpec::Trace`].
    pub fn load(&self) -> f64 {
        match self {
            WorkloadSpec::Stochastic { load, .. } => *load,
            WorkloadSpec::SyntheticTrace { load, .. } => *load,
            WorkloadSpec::SyntheticCm5 { load, .. } => *load,
            WorkloadSpec::Trace { load, .. } => *load,
            WorkloadSpec::FixedTrace(jobs) => {
                if jobs.len() < 2 {
                    return 0.0;
                }
                // procsim-lint: allow(D004): invariant: the len < 2 guard above means last() is Some
                let span = jobs
                    .last()
                    .expect("invariant: non-empty job list")
                    .arrive
                    .saturating_sub(jobs[0].arrive);
                if span == 0 {
                    0.0
                } else {
                    (jobs.len() - 1) as f64 / span as f64
                }
            }
        }
    }
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Mesh width `W` (paper: 16).
    pub mesh_w: u16,
    /// Mesh length `L` (paper: 22).
    pub mesh_l: u16,
    /// Per-node routing delay `ts` in cycles (paper: 3).
    pub ts: u32,
    /// Packet length in flits `Plen` (paper: 8).
    pub plen: u32,
    /// Communication pattern (paper: all-to-all).
    pub pattern: Pattern,
    /// Network topology (paper: mesh; torus is the paper's §6 future
    /// work, with dateline virtual channels).
    pub topology: TopologyKind,
    /// Allocation strategy under test.
    pub strategy: StrategyKind,
    /// Scheduling strategy under test.
    pub scheduler: SchedulerKind,
    /// Job stream.
    pub workload: WorkloadSpec,
    /// Completed jobs discarded as warmup before measurement starts.
    pub warmup_jobs: usize,
    /// Completed jobs measured per run (paper: 1000).
    pub measured_jobs: usize,
    /// Master seed; replications derive substreams from it.
    pub seed: u64,
}

impl SimConfig {
    /// Paper defaults: 16×22 mesh, ts = 3, Plen = 8, all-to-all,
    /// 1000 measured jobs after a 200-job warmup.
    pub fn paper(
        strategy: StrategyKind,
        scheduler: SchedulerKind,
        workload: WorkloadSpec,
        seed: u64,
    ) -> Self {
        SimConfig {
            mesh_w: 16,
            mesh_l: 22,
            ts: 3,
            plen: 8,
            pattern: Pattern::AllToAll,
            topology: TopologyKind::Mesh,
            strategy,
            scheduler,
            workload,
            warmup_jobs: 200,
            measured_jobs: 1000,
            seed,
        }
    }

    /// Short label like `"GABL(SSD)"`, the paper's series notation.
    pub fn series_label(&self) -> String {
        format!("{}({})", self.strategy, self.scheduler)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = SimConfig::paper(
            StrategyKind::Gabl,
            SchedulerKind::Ssd,
            WorkloadSpec::Stochastic {
                sides: SideDist::Uniform,
                load: 0.01,
                num_mes: 5.0,
            },
            1,
        );
        assert_eq!((c.mesh_w, c.mesh_l), (16, 22));
        assert_eq!(c.ts, 3);
        assert_eq!(c.plen, 8);
        assert_eq!(c.measured_jobs, 1000);
        assert_eq!(c.series_label(), "GABL(SSD)");
    }

    #[test]
    fn fixed_trace_load_estimate() {
        let jobs: Vec<JobSpec> = (0..11)
            .map(|i| JobSpec {
                id: i,
                arrive: i * 100,
                a: 1,
                b: 1,
                msgs_per_node: 1,
                service_demand: 1.0,
            })
            .collect();
        let w = WorkloadSpec::FixedTrace(std::sync::Arc::new(jobs));
        assert!((w.load() - 0.01).abs() < 1e-12);
    }
}
