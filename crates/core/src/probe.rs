//! One observation hook into the replication loop.
//!
//! [`Simulator::run_with`](crate::Simulator::run_with) calls a [`Probe`]
//! around every layer call the loop makes ([`Span`]) and at every
//! decision that no span shows ([`Event`]). Every default body is empty
//! and inlined, so [`NoProbe`] — what [`Simulator::run`](crate::Simulator::run)
//! passes — compiles to the bare loop. A probe only observes: it gets
//! no handle on the simulator, and a run with any probe returns the same
//! [`RunMetrics`](crate::RunMetrics) bit for bit.

use desim::Time;
use mesh_alloc::Allocation;
use wormnet::Completion;

/// A call into a layer's public API, named `layer.call`. A probe sees
/// `begin` and `end` around each one; spans nest (every call happens
/// inside [`Span::CoreRep`], the allocator and queue calls of a
/// scheduling pass inside [`Span::CorePass`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// `core.rep`: one whole replication.
    CoreRep,
    /// `core.pass`: one scheduling pass.
    CorePass,
    /// `wormnet.step`: `Network::step`.
    WormnetStep,
    /// `wormnet.send`: `Network::send`.
    WormnetSend,
    /// `wormnet.drain`: `Network::drain_completions_into`.
    WormnetDrain,
    /// `wormnet.pattern`: expanding a starting job's pattern (`pattern_ranks`).
    WormnetPattern,
    /// `wormnet.skippable`: `Network::skippable_cycles` and `Network::skip_cycles`.
    WormnetSkippable,
    /// `alloc.allocate`: `AllocationStrategy::allocate`.
    AllocAllocate,
    /// `alloc.feasible`: `AllocationStrategy::feasible`.
    AllocFeasible,
    /// `alloc.release`: `AllocationStrategy::release`.
    AllocRelease,
    /// `sched.attempt_order`: `Scheduler::attempt_order_into`.
    SchedAttemptOrder,
    /// `sched.queue_ops`: `Scheduler::enqueue` and `Scheduler::remove`.
    SchedQueueOps,
    /// `sched.observe`: `Scheduler::wants_observation`, `observe` and
    /// `set_demand_time_factor`.
    SchedObserve,
    /// `desim.pop`: `EventQueue::pop` and `EventQueue::pop_due`.
    DesimPop,
    /// `desim.schedule`: `EventQueue::schedule`.
    DesimSchedule,
    /// `workload.cursor_open`: opening the replication's job source.
    WorkloadCursorOpen,
    /// `workload.next_job`: drawing one job from the source.
    WorkloadNextJob,
}

/// Why the scheduling pass passed over a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCause {
    /// The shape already failed since the last release (the memo hit).
    Memo,
    /// The strategy's O(1) `feasible` bound refused it.
    Feasible,
    /// The allocator searched and found no placement.
    Search,
}

/// Something the loop did that no [`Span`] shows.
#[derive(Debug, Clone, Copy)]
pub enum Event<'a> {
    /// The scheduling pass considered a candidate.
    Attempt,
    /// The network leapt over this many inert cycles.
    Leap(Time),
    /// The network was idle and the clock jumped to the next job-level event.
    IdleJump,
    /// A job-level event was popped (an arrival or a local completion).
    Pop,
    /// A job was drawn from the source.
    JobDrawn,
    /// A job joined the scheduling queue under this internal
    /// (arrival-order) id.
    Arrive(u64),
    /// The pass passed over this queued job, for this reason.
    Reject(u64, RejectCause),
    /// A queued job was granted processors and started service.
    Start {
        /// Internal job id.
        job: u64,
        /// Simulation time of the start.
        at: Time,
        /// Requested shape `(a, b)`.
        shape: (u16, u16),
        /// The granted processors (`size()`, `fragments()`).
        alloc: &'a Allocation,
    },
    /// This job finished and released its processors.
    Depart(u64),
    /// The network delivered a packet.
    Delivered(&'a Completion),
}

/// An observer of one replication. Every method defaults to nothing.
pub trait Probe {
    /// A layer call is about to start.
    #[inline(always)]
    fn begin(&mut self, _span: Span) {}

    /// The layer call last begun with this name has returned.
    #[inline(always)]
    fn end(&mut self, _span: Span) {}

    /// The loop did something no span shows.
    #[inline(always)]
    fn event(&mut self, _event: Event<'_>) {}
}

/// The probe that observes nothing: [`Simulator::run`](crate::Simulator::run).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl Probe for NoProbe {}

/// Mean hop count over every delivered packet — a placement-quality
/// diagnostic (the distance argument of the paper's §6).
#[derive(Debug, Clone, Copy, Default)]
pub struct MeanHops {
    hops: u64,
    packets: u64,
}

impl MeanHops {
    /// Hops per delivered packet; 0 when nothing was delivered.
    pub fn mean(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.hops as f64 / self.packets as f64
        }
    }
}

impl Probe for MeanHops {
    fn event(&mut self, event: Event<'_>) {
        if let Event::Delivered(c) = event {
            self.hops += u64::from(c.hops);
            self.packets += 1;
        }
    }
}
