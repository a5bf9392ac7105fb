//! # procsim-core — the integrated mesh multicomputer simulator
//!
//! Ties the substrates together into the experiment the paper runs
//! (§5): jobs arrive (stochastic generator or trace), wait in a scheduling
//! queue (FCFS / SSD), receive processors from an allocation strategy
//! (GABL / Paging(0) / MBS / baselines), perform their communication on
//! the flit-level wormhole network (all-to-all, `Plen = 8`, `ts = 3`),
//! and depart, freeing their processors.
//!
//! The simulator is a hybrid: job-level events (arrivals, single-processor
//! job completions) live in a discrete-event queue, while the network is
//! stepped cycle-by-cycle whenever packets are in flight. A job's *service
//! time* is an output of the network simulation — the span from allocation
//! to the ejection of its last packet — exactly as in ProcSimity, where
//! "the execution times of jobs are not simulator inputs".
//!
//! Entry points:
//! * [`Simulator::run`] — one replication, returning [`RunMetrics`]
//!   ([`Simulator::run_with`] runs it under a [`Probe`] that observes
//!   every layer call and decision, such as [`MeanHops`]),
//! * [`replicate::run_points`] — the one code path that runs
//!   replications: a batch of points (one point, or every (series ×
//!   load) combination of a figure), each replicated within its own
//!   bounds until the paper's 95 % CI / 5 % relative error criterion is
//!   met, in parallel on the caller's [`WorkerPool`] (bit-identical at
//!   any thread count); a replication that panics fails only its point,
//! * [`campaign::run_campaign`] — the [`campaign::expand`]ed points of a
//!   scenario file, cached per point on disk, run as one `run_points`
//!   batch.
//!
//! The caller owns the only pool and passes it down: the `procsim` CLI
//! builds one in `main`, sized by `--threads N`, else the
//! `PROCSIM_THREADS` environment variable, else the machine's available
//! parallelism ([`pool::default_threads`]).

// Deep invariant check: a `debug_assert!` in ordinary builds, promoted
// to an always-compiled `assert!` under `--features invariants` (see
// docs/LINTS.md). `cfg!` keeps both arms type-checked; the dead branch
// is optimized out.
macro_rules! inv_assert {
    ($($arg:tt)*) => {
        if cfg!(feature = "invariants") {
            assert!($($arg)*);
        } else {
            debug_assert!($($arg)*);
        }
    };
}

pub mod campaign;
pub mod config;
pub mod metrics;
pub mod pool;
pub mod probe;
pub mod replicate;
pub mod scenario;
pub mod simulator;

#[cfg(test)]
mod sched_differential;

pub use campaign::{
    cached_count, expand, run_campaign, CampaignError, CampaignOptions, CampaignOutcome,
    CampaignPoint,
};
pub use config::{SimConfig, WorkloadSpec};
pub use scenario::{PointSettings, Scenario, ScenarioError};
pub use metrics::RunMetrics;
pub use pool::WorkerPool;
pub use probe::{Event, MeanHops, NoProbe, Probe, RejectCause, Span};
pub use replicate::{derive_seed, run_points, PointResult};
pub use simulator::Simulator;

// Re-export the vocabulary types callers configure with.
pub use mesh_alloc::{PageIndexing, StrategyKind};
pub use mesh_sched::SchedulerKind;
pub use workload::{Cm5Model, ParagonModel, SideDist, TraceWorkload};
pub use wormnet::{Pattern, TopologyKind};
