//! # workload — job streams for the mesh simulator
//!
//! The paper drives its experiments with two workload classes (§5):
//!
//! 1. **Stochastic** ([`stochastic`]): exponential inter-arrival times;
//!    request side lengths drawn either uniformly over `[1, W] × [1, L]`
//!    or exponentially with mean half the mesh sides (clamped); per-job
//!    message counts exponential with mean `num_mes = 5`.
//! 2. **Real trace** ([`paragon`], [`swf`]): a stream of 10 658 production
//!    jobs from the 352-node partition of the Intel Paragon at the San
//!    Diego Supercomputer Center, with mean inter-arrival time 1186.7 s,
//!    mean job size 34.5 nodes, and sizes favouring non-powers-of-two.
//!    The original trace is not redistributable; [`paragon`] synthesizes a
//!    statistically matched stand-in (documented in DESIGN.md §3), and
//!    [`swf`] reads any Standard-Workload-Format file so the genuine trace
//!    can be dropped in unchanged.
//!
//! Both classes are normalized into a stream of [`JobSpec`]s; the system
//! load is controlled by the arrival-rate parameter for stochastic
//! workloads and by the paper's arrival-scaling factor `f` for traces
//! (wrapped, for genuine SWF files, by [`TraceWorkload`] which targets an
//! *offered load* — see `docs/WORKLOADS.md`).
//!
//! Trace replay is a **streaming pipeline**: [`swf::SwfRecords`] parses
//! one record at a time from any `BufRead` source,
//! [`TraceWorkload::open`] validates a file and computes scaling
//! statistics in one online pass, and [`trace::ScaledJobs`] applies the
//! offered-load factor lazily — so million-job archive logs replay in
//! memory bounded by the live-job count, not the trace length
//! (`docs/WORKLOADS.md` § Streaming pipeline).

pub mod cm5;
pub mod paragon;
pub mod stats;
pub mod stochastic;
pub mod swf;
pub mod trace;

#[cfg(test)]
mod streaming_equivalence;

use desim::Time;
use serde::{Deserialize, Serialize};

pub use cm5::Cm5Model;
pub use paragon::{
    factor_for_load, load_for_factor, scale_trace_record, trace_to_jobs, ParagonModel, TraceRecord,
};
pub use stats::{summarize_stream, StreamingSummary, TraceSummary};
pub use stochastic::{SideDist, StochasticGen};
pub use swf::{parse_swf, write_swf, write_swf_to, SwfError, SwfErrorKind, SwfRecords};
pub use trace::{RecordIter, ScaledJobs, TraceError, TraceWorkload};

/// One job as consumed by the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Stream-unique id.
    pub id: u64,
    /// Arrival (submission) time in cycles.
    pub arrive: Time,
    /// Requested sub-mesh width.
    pub a: u16,
    /// Requested sub-mesh length.
    pub b: u16,
    /// Messages each allocated processor sends (the paper's `num_mes`
    /// draw for stochastic jobs; scaled runtime for trace jobs).
    pub msgs_per_node: u32,
    /// A-priori service-demand estimate used by the SSD scheduler
    /// (total packet count: `msgs_per_node × a × b`).
    pub service_demand: f64,
}

impl JobSpec {
    /// Requested processor count.
    pub fn size(&self) -> u32 {
        self.a as u32 * self.b as u32
    }
}

/// Chooses a near-square `a × b` request shape for a plain processor
/// count `p` (needed when feeding trace jobs, which carry sizes but not
/// shapes, to shape-based allocators). Guarantees `a·b >= p`, `a <= w`,
/// `b <= l`, and minimal overshoot among near-square options.
pub fn shape_for_size(p: u32, w: u16, l: u16) -> (u16, u16) {
    let cap = w as u32 * l as u32;
    let p = p.clamp(1, cap);
    let mut best: Option<(u32, (u16, u16))> = None;
    // scan widths; the b that pairs with each a is forced
    for a in 1..=w {
        let b = p.div_ceil(a as u32);
        if b > l as u32 {
            continue;
        }
        let over = a as u32 * b - p;
        let squareness = (a as i32 - b as i32).unsigned_abs();
        // prefer minimal overshoot, then squarest
        let key = over * 1000 + squareness;
        if best.is_none_or(|(k, _)| key < k) {
            best = Some((key, (a, b as u16)));
        }
    }
    // procsim-lint: allow(D004): invariant: callers clamp p <= w*l, and shape (w, ceil(p/w)) is always a candidate
    best.expect("invariant: p <= w*l always has a shape").1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_covers_and_fits() {
        for p in 1..=352u32 {
            let (a, b) = shape_for_size(p, 16, 22);
            assert!((1..=16).contains(&a));
            assert!((1..=22).contains(&b));
            assert!(a as u32 * b as u32 >= p, "p={p} got {a}x{b}");
        }
    }

    #[test]
    fn shape_exact_for_perfect_fits() {
        assert_eq!(shape_for_size(16, 16, 22), (4, 4));
        assert_eq!(shape_for_size(352, 16, 22), (16, 22));
        assert_eq!(shape_for_size(1, 16, 22), (1, 1));
        // 35 = 5x7 exactly
        let (a, b) = shape_for_size(35, 16, 22);
        assert_eq!(a as u32 * b as u32, 35);
    }

    #[test]
    fn shape_minimal_overshoot() {
        // 34 = 2x17 exceeds L? 17 <= 22 so exact fit exists
        let (a, b) = shape_for_size(34, 16, 22);
        assert_eq!(a as u32 * b as u32, 34);
        // prime larger than both sides: 37 = 1x37 impossible; minimal
        // overshoot shape must waste at most a couple of processors
        let (a, b) = shape_for_size(37, 16, 22);
        let over = a as u32 * b as u32 - 37;
        assert!(over <= 3, "{a}x{b} overshoots by {over}");
    }

    #[test]
    fn shape_clamps_oversized() {
        assert_eq!(shape_for_size(10_000, 16, 22), (16, 22));
        assert_eq!(shape_for_size(0, 16, 22), (1, 1));
    }

    #[test]
    fn jobspec_size() {
        let j = JobSpec {
            id: 0,
            arrive: 0,
            a: 3,
            b: 7,
            msgs_per_node: 5,
            service_demand: 105.0,
        };
        assert_eq!(j.size(), 21);
    }
}
