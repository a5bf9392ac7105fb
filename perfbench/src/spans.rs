//! Span recording for the traced run.
//!
//! A span is one call into a layer's public API, timed from the
//! benchmark's own code. Every span carries its name, start, end and the
//! span that was open when it began. Per-name aggregates are kept for
//! every replication; the full span list only when asked for, because a
//! replication makes hundreds of thousands of calls.

use std::time::Instant;

/// The layer calls the mirror loop wraps. The prefix before the dot is
/// the crate (layer) the call goes into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// One whole replication (the root span).
    CoreRep,
    /// One scheduling pass (a `core` span that parents sched/alloc calls).
    CorePass,
    /// `Network::step`.
    WormnetStep,
    /// `Network::send`.
    WormnetSend,
    /// `Network::drain_completions`.
    WormnetDrain,
    /// `pattern_messages`.
    WormnetPattern,
    /// `Network::skippable_cycles` and `Network::skip_cycles`.
    WormnetSkippable,
    /// `AllocationStrategy::allocate`.
    AllocAllocate,
    /// `AllocationStrategy::feasible`.
    AllocFeasible,
    /// `AllocationStrategy::release`.
    AllocRelease,
    /// `Scheduler::attempt_order_into`.
    SchedAttemptOrder,
    /// `Scheduler::enqueue` and `Scheduler::remove`.
    SchedQueueOps,
    /// `Scheduler::wants_observation`, `observe`, `set_demand_time_factor`.
    SchedObserve,
    /// `EventQueue::pop` and `EventQueue::pop_due`.
    DesimPop,
    /// `EventQueue::schedule`.
    DesimSchedule,
    /// Opening a replication's job source (`TraceWorkload::stream_jobs`
    /// or building the `StochasticGen`).
    WorkloadCursorOpen,
    /// Drawing one job (`ScaledJobs::next` / `StochasticGen::next_job`).
    WorkloadNextJob,
}

impl SpanName {
    /// Every span name, in index order.
    pub const ALL: [SpanName; 17] = [
        SpanName::CoreRep,
        SpanName::CorePass,
        SpanName::WormnetStep,
        SpanName::WormnetSend,
        SpanName::WormnetDrain,
        SpanName::WormnetPattern,
        SpanName::WormnetSkippable,
        SpanName::AllocAllocate,
        SpanName::AllocFeasible,
        SpanName::AllocRelease,
        SpanName::SchedAttemptOrder,
        SpanName::SchedQueueOps,
        SpanName::SchedObserve,
        SpanName::DesimPop,
        SpanName::DesimSchedule,
        SpanName::WorkloadCursorOpen,
        SpanName::WorkloadNextJob,
    ];

    /// The span's printed name, `layer.call`.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::CoreRep => "core.rep",
            SpanName::CorePass => "core.pass",
            SpanName::WormnetStep => "wormnet.step",
            SpanName::WormnetSend => "wormnet.send",
            SpanName::WormnetDrain => "wormnet.drain",
            SpanName::WormnetPattern => "wormnet.pattern",
            SpanName::WormnetSkippable => "wormnet.skippable",
            SpanName::AllocAllocate => "alloc.allocate",
            SpanName::AllocFeasible => "alloc.feasible",
            SpanName::AllocRelease => "alloc.release",
            SpanName::SchedAttemptOrder => "sched.attempt_order",
            SpanName::SchedQueueOps => "sched.queue_ops",
            SpanName::SchedObserve => "sched.observe",
            SpanName::DesimPop => "desim.pop",
            SpanName::DesimSchedule => "desim.schedule",
            SpanName::WorkloadCursorOpen => "workload.cursor_open",
            SpanName::WorkloadNextJob => "workload.next_job",
        }
    }

    /// Whether this span belongs to `core` itself (its time is core's,
    /// not a child layer's).
    #[cfg(test)]
    pub fn is_core(self) -> bool {
        matches!(self, SpanName::CoreRep | SpanName::CorePass)
    }
}

/// Count and total duration of one span name, and of the spans that
/// were directly inside it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Their summed duration, in nanoseconds.
    pub total_ns: u64,
    /// Spans closed whose parent had this name.
    pub child_count: u64,
    /// Their summed duration, in nanoseconds.
    pub child_ns: u64,
}

impl Agg {
    /// Adds another aggregate of the same name.
    pub fn add(&mut self, other: &Agg) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.child_count += other.child_count;
        self.child_ns += other.child_ns;
    }

    /// Time spent in these spans outside their child spans, in
    /// nanoseconds, with the tracer's own cost taken out: the clock reads
    /// inside each span, and each child span's cost outside the child's
    /// own interval.
    pub fn self_ns(&self, cost: &SpanCost) -> f64 {
        self.total_ns as f64
            - self.child_ns as f64
            - self.count as f64 * cost.inside_ns
            - self.child_count as f64 * cost.outside_ns
    }
}

/// What tracing one span costs, measured on empty spans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanCost {
    /// The part a span records as its own duration.
    pub inside_ns: f64,
    /// The rest, which the enclosing span records.
    pub outside_ns: f64,
}

/// One recorded span. Ids are unique within one [`Tracer`]; the root
/// span's parent is [`NO_PARENT`].
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// This span's id.
    pub id: u32,
    /// The id of the span open when this one began.
    pub parent: u32,
    /// What was called.
    pub name: SpanName,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Parent id of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// An open span, returned by [`Tracer::enter`] and consumed by
/// [`Tracer::exit`].
#[must_use]
pub struct Open {
    id: u32,
    name: SpanName,
    start: Instant,
}

/// Records spans: per-name aggregates always, the full list optionally.
pub struct Tracer {
    origin: Instant,
    aggs: [Agg; SpanName::ALL.len()],
    /// The open spans, innermost last.
    stack: Vec<(u32, SpanName)>,
    next_id: u32,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    /// A tracer that keeps the full span list when `keep_spans` is set.
    pub fn new(keep_spans: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            aggs: [Agg::default(); SpanName::ALL.len()],
            stack: Vec::new(),
            next_id: 0,
            spans: keep_spans.then(Vec::new),
        }
    }

    /// Opens a span; the innermost open span becomes its parent.
    #[inline]
    pub fn enter(&mut self, name: SpanName) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push((id, name));
        Open {
            id,
            name,
            start: Instant::now(),
        }
    }

    /// Closes a span opened by [`Tracer::enter`]. Spans close in LIFO order.
    #[inline]
    pub fn exit(&mut self, open: Open) {
        let end = Instant::now();
        let popped = self.stack.pop();
        debug_assert_eq!(
            popped.map(|(id, _)| id),
            Some(open.id),
            "spans must close innermost first"
        );
        let ns = end.duration_since(open.start).as_nanos() as u64;
        let agg = &mut self.aggs[open.name as usize];
        agg.count += 1;
        agg.total_ns += ns;
        let parent = self.stack.last().copied();
        if let Some((_, parent_name)) = parent {
            let p = &mut self.aggs[parent_name as usize];
            p.child_count += 1;
            p.child_ns += ns;
        }
        if let Some(spans) = self.spans.as_mut() {
            let start_ns = open.start.duration_since(self.origin).as_nanos() as u64;
            spans.push(Span {
                id: open.id,
                parent: parent.map_or(NO_PARENT, |(id, _)| id),
                name: open.name,
                start_ns,
                end_ns: start_ns + ns,
            });
        }
    }

    /// Per-name aggregates, indexed by `SpanName as usize`.
    pub fn aggs(&self) -> &[Agg; SpanName::ALL.len()] {
        &self.aggs
    }

    /// The full span list, in closing order, when it was kept.
    pub fn into_spans(self) -> Option<Vec<Span>> {
        self.spans
    }

    /// Measures what one span costs the tracer: many batches of empty
    /// spans inside a root span, the median batch taken. `outside_ns` is
    /// the wall time per span minus what the span recorded itself.
    pub fn calibrate() -> SpanCost {
        const BATCHES: usize = 21;
        const PER_BATCH: u32 = 20_000;
        let mut inside = Vec::with_capacity(BATCHES);
        let mut outside = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let mut t = Tracer::new(false);
            let root = t.enter(SpanName::CoreRep);
            let start = Instant::now();
            for _ in 0..PER_BATCH {
                let s = t.enter(SpanName::WormnetStep);
                t.exit(std::hint::black_box(s));
            }
            let wall_ns = start.elapsed().as_nanos() as f64;
            t.exit(root);
            let recorded = t.aggs[SpanName::WormnetStep as usize].total_ns as f64;
            inside.push(recorded / f64::from(PER_BATCH));
            outside.push((wall_ns - recorded).max(0.0) / f64::from(PER_BATCH));
        }
        SpanCost {
            inside_ns: crate::metrics::median(&inside),
            outside_ns: crate::metrics::median(&outside),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_index_in_order() {
        for (i, n) in SpanName::ALL.iter().enumerate() {
            assert_eq!(*n as usize, i);
        }
    }

    #[test]
    fn parents_follow_nesting() {
        let mut t = Tracer::new(true);
        let rep = t.enter(SpanName::CoreRep);
        let pass = t.enter(SpanName::CorePass);
        let alloc = t.enter(SpanName::AllocAllocate);
        t.exit(alloc);
        t.exit(pass);
        let step = t.enter(SpanName::WormnetStep);
        t.exit(step);
        t.exit(rep);
        assert_eq!(t.aggs()[SpanName::AllocAllocate as usize].count, 1);
        let spans = t.into_spans().expect("spans kept");
        let by_name = |n: SpanName| spans.iter().find(|s| s.name == n).copied().expect("span");
        let (rep, pass) = (by_name(SpanName::CoreRep), by_name(SpanName::CorePass));
        assert_eq!(rep.parent, NO_PARENT);
        assert_eq!(pass.parent, rep.id);
        assert_eq!(by_name(SpanName::AllocAllocate).parent, pass.id);
        assert_eq!(by_name(SpanName::WormnetStep).parent, rep.id);
        assert!(rep.start_ns <= pass.start_ns && pass.end_ns <= rep.end_ns);
    }

    #[test]
    fn parents_count_their_children() {
        let mut t = Tracer::new(false);
        let rep = t.enter(SpanName::CoreRep);
        for _ in 0..3 {
            let step = t.enter(SpanName::WormnetStep);
            t.exit(step);
        }
        t.exit(rep);
        let aggs = t.aggs();
        let (rep, step) = (
            aggs[SpanName::CoreRep as usize],
            aggs[SpanName::WormnetStep as usize],
        );
        assert_eq!((rep.count, rep.child_count), (1, 3));
        assert_eq!(rep.child_ns, step.total_ns);
        assert_eq!((step.child_count, step.child_ns), (0, 0));
    }

    /// With the calibrated cost taken out, a root around nothing but empty
    /// spans has almost no time of its own.
    #[test]
    fn calibration_accounts_for_empty_spans() {
        // a shared host can stall any one attempt; one good attempt shows it
        let leftover = |_| {
            let cost = Tracer::calibrate();
            assert!(cost.inside_ns > 0.0 && cost.outside_ns > 0.0, "{cost:?}");
            let n = 200_000;
            let mut t = Tracer::new(false);
            let rep = t.enter(SpanName::CoreRep);
            for _ in 0..n {
                let s = t.enter(SpanName::WormnetStep);
                t.exit(std::hint::black_box(s));
            }
            t.exit(rep);
            let root = t.aggs()[SpanName::CoreRep as usize];
            let per_span_ns = root.self_ns(&cost) / f64::from(n);
            per_span_ns.abs() / (cost.inside_ns + cost.outside_ns)
        };
        let shares: Vec<f64> = (0..3).map(leftover).collect();
        assert!(
            shares.iter().any(|&s| s < 0.5),
            "share of a span's cost left after calibration: {shares:?}"
        );
    }
}
