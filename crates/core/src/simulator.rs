//! The hybrid job-level / flit-level simulator.

use crate::config::{SimConfig, WorkloadSpec};
use crate::metrics::RunMetrics;
use crate::probe::{Event, NoProbe, Probe, RejectCause, Span};
use desim::{EventQueue, SimRng, Time};
use mesh2d::{Coord, Mesh};
use mesh_alloc::{Allocation, AllocationStrategy};
use mesh_sched::{QueuedJob, RunningJob, Scheduler};
use simstats::{TimeWeighted, Welford};
use std::collections::{BTreeMap, HashMap};
use workload::{
    factor_for_load, scale_trace_record, Cm5Model, JobSpec, ParagonModel, StochasticGen,
    TraceRecord,
};
use wormnet::{pattern_ranks, Completion, Network, Topology, TopologyKind};

/// Job-level events.
#[derive(Debug)]
enum Ev {
    /// A job arrives and joins the scheduling queue.
    Arrival(JobSpec),
    /// A single-processor job finished its local computation.
    LocalDone(u64),
}

/// Packet tags encode (job id, sender rank) so a delivery can trigger the
/// sender's next message: closed-loop (synchronous) sends, one outstanding
/// packet per processor, as in a compute/send/wait application loop.
const RANK_BITS: u32 = 20;

/// The most processors a simulated mesh may have: a sender rank must fit
/// the tag's `RANK_BITS`. [`Simulator::new`] asserts it and scenario
/// validation rejects larger meshes.
pub const MAX_MESH_NODES: u32 = 1 << RANK_BITS;

fn encode_tag(job: u64, rank: usize) -> u64 {
    debug_assert!((rank as u64) < (1 << RANK_BITS));
    (job << RANK_BITS) | rank as u64
}

fn decode_tag(tag: u64) -> (u64, usize) {
    (tag >> RANK_BITS, (tag & ((1 << RANK_BITS) - 1)) as usize)
}

/// Takes a rank's next destination through its `[next, end)` cursor
/// into the job's `dsts`, if it has one left.
fn next_dst(dsts: &[Coord], cursor: &mut (u32, u32)) -> Option<Coord> {
    let (next, end) = *cursor;
    (next < end).then(|| {
        cursor.0 += 1;
        dsts[next as usize]
    })
}

#[derive(Debug)]
struct JobState {
    spec: JobSpec,
    /// Allocation time (service start); `Time::MAX` while queued.
    start: Time,
    alloc: Option<Allocation>,
    /// Every destination of the job's messages, in pattern emission
    /// order; each sender rank's messages are one contiguous run.
    dsts: Vec<Coord>,
    /// Per-rank `[next, end)` cursor into `dsts` (closed loop: rank r's
    /// next message is sent when its previous one is delivered). The
    /// rank → coordinate map itself lives in `alloc` (cached once per
    /// allocation).
    cursors: Vec<(u32, u32)>,
    /// Packets still in flight or unsent.
    outstanding: u32,
    /// Per-job packet accumulators (folded into run metrics at departure
    /// so only measured jobs contribute).
    lat_sum: u64,
    blk_sum: u64,
    pkts: u64,
}

/// The per-replication segment start of a `len`-record trace when a run
/// consumes `needed` jobs: each replication starts `needed` jobs further
/// into the (wrapping) stream so replications see disjoint segments.
/// When the trace is too short for that — `needed` a multiple of its
/// length would leave every replication at offset 0, replaying identical
/// segments — the stride degrades to rotating the stream one job per
/// replication, which keeps replications distinct (the queueing
/// transient differs) even though their job populations overlap.
fn segment_start(len: usize, rep: u64, needed: usize) -> usize {
    let stride = (needed % len).max(1);
    (rep as usize).wrapping_mul(stride) % len
}

/// A replication's job source: its jobs in arrival order (the simulator
/// clamps an arrival that falls behind the clock to the clock).
type JobSource = Box<dyn Iterator<Item = JobSpec> + Send>;

/// One replication's pass over a trace: at most one full wrap of the
/// job stream (whose `id`s are record indexes), with arrivals rebased
/// so the segment starts at time 0.
struct TraceReplay<I> {
    jobs: std::iter::Take<I>,
    /// Record index of the last record (wrap detection: the stream
    /// itself may be endless).
    last_id: u64,
    /// Arrival-time rebase (subtracted), captured from the first job the
    /// stream yields at the start of the segment and after each wrap.
    base: Option<Time>,
    /// Accumulated offset added after a wrap-around, so the wrapped
    /// prefix continues seamlessly after the tail with its original
    /// inter-arrival gaps instead of flooding in at the current clock.
    shift: Time,
}

impl<I: Iterator<Item = JobSpec>> TraceReplay<I> {
    /// Replays `len` jobs of `jobs`, a trace of `len` records.
    fn new(jobs: I, len: usize, base: Option<Time>) -> Self {
        TraceReplay {
            jobs: jobs.take(len),
            last_id: (len - 1) as u64,
            base,
            shift: 0,
        }
    }
}

impl<I: Iterator<Item = JobSpec>> Iterator for TraceReplay<I> {
    type Item = JobSpec;

    fn next(&mut self) -> Option<JobSpec> {
        let mut job = self.jobs.next()?;
        // rebase the segment to start at 0 (saturating: guards against
        // an unsorted stream)
        let b = *self.base.get_or_insert(job.arrive);
        job.arrive = job.arrive.saturating_sub(b) + self.shift;
        if job.id == self.last_id {
            // wrap-around next: the prefix continues right after the
            // tail, preserving its original inter-arrival gaps (rebased
            // to the tail time, not the current clock, so no burst of
            // "past" arrivals floods the queue)
            self.base = None;
            self.shift = job.arrive + 1;
        }
        Some(job)
    }
}

/// A synthetic trace of `n` records, drawn one per arrival and scaled
/// by the arrival factor `f`: the draws a run can consume (plus slack
/// for queue growth), never held in memory.
fn draw_trace(
    cfg: &SimConfig,
    records: impl Iterator<Item = TraceRecord> + Send + 'static,
    n: usize,
    f: f64,
    runtime_scale: f64,
) -> JobSource {
    let (w, l) = (cfg.mesh_w, cfg.mesh_l);
    let jobs = records
        .enumerate()
        .map(move |(i, r)| scale_trace_record(&r, i as u64, w, l, f, runtime_scale));
    Box::new(TraceReplay::new(jobs, n, Some(0)))
}

/// Runs `f` inside `span`.
#[inline(always)]
fn in_span<P: Probe, R>(probe: &mut P, span: Span, f: impl FnOnce() -> R) -> R {
    probe.begin(span);
    let r = f();
    probe.end(span);
    r
}

/// Opens replication `rep`'s job source.
fn open_source(cfg: &SimConfig, rep: u64) -> JobSource {
    // the replication's first substream is the workload's (see Simulator::new)
    let mut wl_rng = SimRng::new(crate::replicate::derive_seed(cfg.seed, rep)).substream(1);
    let needed = cfg.warmup_jobs + cfg.measured_jobs;
    let draws = |model_jobs: usize| (needed * 3 / 2 + 100).min(model_jobs.max(needed + 50));
    match &cfg.workload {
        WorkloadSpec::Stochastic {
            sides,
            load,
            num_mes,
        } => {
            let gen = StochasticGen {
                mesh_w: cfg.mesh_w,
                mesh_l: cfg.mesh_l,
                sides: *sides,
                load: *load,
                num_mes_mean: *num_mes,
            };
            let mut clock = 0;
            Box::new((0..).map(move |id| gen.next_job(id, &mut clock, &mut wl_rng)))
        }
        WorkloadSpec::SyntheticTrace {
            model,
            load,
            runtime_scale,
        } => {
            let n = draws(model.jobs);
            let records = ParagonModel { jobs: n, ..model.clone() }.stream(wl_rng.substream(99));
            let f = factor_for_load(model.mean_interarrival_s, *load);
            draw_trace(cfg, records, n, f, *runtime_scale)
        }
        WorkloadSpec::SyntheticCm5 {
            model,
            load,
            runtime_scale,
        } => {
            let n = draws(model.jobs);
            let records = Cm5Model { jobs: n, ..model.clone() }.stream(wl_rng.substream(99));
            let f = factor_for_load(model.mean_interarrival_s, *load);
            draw_trace(cfg, records, n, f, *runtime_scale)
        }
        WorkloadSpec::FixedTrace(jobs) => {
            assert!(!jobs.is_empty(), "empty fixed trace");
            let len = jobs.len();
            let pos = segment_start(len, rep, needed);
            let jobs = jobs.clone();
            let segment = (pos..len)
                .chain(0..pos)
                .map(move |i| JobSpec { id: i as u64, ..jobs[i] });
            Box::new(TraceReplay::new(segment, len, None))
        }
        WorkloadSpec::Trace {
            trace,
            load,
            runtime_scale,
        } => {
            // streaming replay: the scaled stream is never
            // materialized — each replication opens its own lazy
            // cursor at its segment offset, and concurrent
            // replications of the same (trace, mesh, rho) share only
            // the trace source (no per-point cache to double-fill)
            let len = trace.len();
            let pos = segment_start(len, rep, needed);
            let stream = trace.stream_jobs(cfg.mesh_w, cfg.mesh_l, *load, *runtime_scale, pos);
            Box::new(TraceReplay::new(stream, len, None))
        }
    }
}

/// One simulation replication. Create with [`Simulator::new`], consume
/// with [`Simulator::run`] or, observed by a [`Probe`], with
/// [`Simulator::run_with`].
pub struct Simulator {
    cfg: SimConfig,
    mesh: Mesh,
    strategy: Box<dyn AllocationStrategy>,
    scheduler: Box<dyn Scheduler>,
    net: Network,
    events: EventQueue<Ev>,
    now: Time,
    pat_rng: SimRng,
    rep: u64,
    /// The job source, opened when the run starts (inside its
    /// [`Span::WorkloadCursorOpen`]).
    source: Option<JobSource>,
    /// Live job states keyed by internal id. A BTreeMap, not a HashMap:
    /// `schedule_pass` iterates this map to build the running-job
    /// snapshot for reservation-aware schedulers, and EASY's
    /// reservation sort is stable — HashMap's RandomState order would
    /// escape into backfilling decisions through equal-completion ties.
    /// BTreeMap iterates in internal-id (arrival) order, identically in
    /// every process.
    jobs: BTreeMap<u64, JobState>,
    completed: usize,
    util: TimeWeighted,
    turn: Welford,
    serv: Welford,
    wait: Welford,
    frag: Welford,
    pkt_lat_sum: u64,
    pkt_blk_sum: u64,
    pkt_count: u64,
    /// Monotone internal job-id counter (trace wrap-around can repeat
    /// source ids, so every arrival gets a fresh simulator-side id).
    next_internal_id: u64,
    /// Online EWMA of observed service-time / service-demand, used to
    /// turn demand estimates into time estimates for reservation-aware
    /// schedulers (EASY backfilling).
    demand_time_factor: f64,
    /// Reused scratch buffer for the scheduler's per-pass attempt order
    /// (filled via [`Scheduler::attempt_order_into`], never reallocated
    /// in steady state).
    attempt_buf: Vec<u64>,
    /// Reused buffer for the packets delivered in one network cycle
    /// (filled via [`Network::drain_completions_into`]).
    completion_buf: Vec<Completion>,
    /// Cached running-set snapshot for reservation-aware schedulers,
    /// rebuilt only when a start or departure invalidated it.
    running_snapshot: Vec<RunningJob>,
    /// Set by [`Simulator::start_job`] / [`Simulator::depart`]; cleared
    /// when the snapshot is rebuilt. (`demand_time_factor`, which the
    /// snapshot's completion estimates use, changes only at departures,
    /// so this flag also covers it.)
    snapshot_stale: bool,
    /// Shape-keyed failure memo: `(a, b)` → the mesh release-epoch at
    /// which an `a × b` allocation last failed. While the release epoch
    /// is unchanged the shape is skipped without an allocator call —
    /// exact because every strategy's failure persists until a release
    /// (see [`AllocationStrategy::failure_persists_until_release`]).
    /// Accessed only by key, never iterated, so `HashMap`'s random
    /// bucket order cannot escape into results.
    failed_shapes: HashMap<(u16, u16), u64>,
    /// Whether the active strategy's failures are stable until release
    /// (queried once at construction).
    memo_enabled: bool,
    /// Drive [`Simulator::schedule_pass_reference`] instead of the
    /// memoized pass (the differential oracle; test builds only).
    #[cfg(test)]
    reference_pass: bool,
}

impl Simulator {
    /// Builds replication `rep` of the configured experiment. Different
    /// `rep` values use provably independent random substreams — the
    /// replication seed is [`crate::derive_seed`]`(cfg.seed, rep)`, a
    /// SplitMix64-mixed substream rather than an offset of the raw
    /// replication counter, so replication streams never collide across
    /// points that were themselves given derived seeds. The same
    /// `(seed, rep)` pair is fully reproducible.
    ///
    /// # Panics
    ///
    /// If the mesh has more than [`MAX_MESH_NODES`] processors.
    pub fn new(cfg: &SimConfig, rep: u64) -> Self {
        assert!(
            u32::from(cfg.mesh_w) * u32::from(cfg.mesh_l) <= MAX_MESH_NODES,
            "a {}x{} mesh has more than {MAX_MESH_NODES} processors",
            cfg.mesh_w,
            cfg.mesh_l
        );
        let mut rep_rng = SimRng::new(crate::replicate::derive_seed(cfg.seed, rep));
        rep_rng.substream(1); // the workload's: `open_source` draws it when the run starts
        let pat_rng = rep_rng.substream(2);
        let strat_seed = rep_rng.substream(3).raw();

        let mesh = Mesh::new(cfg.mesh_w, cfg.mesh_l);
        let strategy = cfg.strategy.build(&mesh, strat_seed);
        let scheduler = cfg.scheduler.build();
        let topo = match cfg.topology {
            TopologyKind::Mesh => Topology::new(cfg.mesh_w, cfg.mesh_l),
            TopologyKind::Torus => Topology::new_torus(cfg.mesh_w, cfg.mesh_l),
        };
        let net = Network::with_topology(topo, cfg.ts);

        let memo_enabled = strategy.failure_persists_until_release();
        Simulator {
            cfg: cfg.clone(),
            mesh,
            strategy,
            scheduler,
            net,
            events: EventQueue::new(),
            now: 0,
            pat_rng,
            rep,
            source: None,
            jobs: BTreeMap::new(),
            completed: 0,
            util: TimeWeighted::new(0, 0.0),
            turn: Welford::new(),
            serv: Welford::new(),
            wait: Welford::new(),
            frag: Welford::new(),
            pkt_lat_sum: 0,
            pkt_blk_sum: 0,
            pkt_count: 0,
            next_internal_id: 0,
            demand_time_factor: 1.0,
            attempt_buf: Vec::new(),
            completion_buf: Vec::new(),
            running_snapshot: Vec::new(),
            snapshot_stale: false,
            failed_shapes: HashMap::new(),
            memo_enabled,
            #[cfg(test)]
            reference_pass: false,
        }
    }

    /// Schedules the next arrival from the job source, if any.
    fn schedule_next_arrival<P: Probe>(&mut self, probe: &mut P) {
        let Some(source) = &mut self.source else {
            return;
        };
        if let Some(mut job) = in_span(probe, Span::WorkloadNextJob, || source.next()) {
            probe.event(Event::JobDrawn);
            // a trace job rebased behind the clock arrives now
            job.arrive = job.arrive.max(self.now);
            in_span(probe, Span::DesimSchedule, || {
                self.events.schedule(job.arrive, Ev::Arrival(job))
            });
        }
    }

    fn handle<P: Probe>(&mut self, ev: Ev, probe: &mut P) {
        match ev {
            Ev::Arrival(spec) => {
                let id = self.next_internal_id;
                self.next_internal_id += 1;
                let mut spec = spec;
                spec.id = id;
                let queued = QueuedJob {
                    job_id: id,
                    arrive: spec.arrive,
                    a: spec.a,
                    b: spec.b,
                    service_demand: spec.service_demand,
                };
                in_span(probe, Span::SchedQueueOps, || self.scheduler.enqueue(queued));
                probe.event(Event::Arrive(id));
                self.jobs.insert(
                    id,
                    JobState {
                        spec,
                        start: Time::MAX,
                        alloc: None,
                        dsts: Vec::new(),
                        cursors: Vec::new(),
                        outstanding: 0,
                        lat_sum: 0,
                        blk_sum: 0,
                        pkts: 0,
                    },
                );
                self.schedule_next_arrival(probe);
            }
            Ev::LocalDone(id) => self.depart(id, probe),
        }
    }

    /// One scheduling pass: repeatedly attempt the policy's candidates
    /// until a full pass starts nothing. Test builds can divert it to
    /// the pre-memoization reference for differential runs.
    fn schedule_pass<P: Probe>(&mut self, probe: &mut P) {
        #[cfg(test)]
        if self.reference_pass {
            self.schedule_pass_reference(probe);
            return;
        }
        self.schedule_pass_fast(probe);
    }

    /// The memoized scheduling pass. Identical decisions to the
    /// test-only `schedule_pass_reference` (pinned by the
    /// `sched_differential` battery), reached with O(1) rejections:
    ///
    /// * the running-set snapshot for reservation-aware schedulers is
    ///   rebuilt only when a start/departure invalidated it (the clock
    ///   and free count are still passed fresh every pass — EASY's
    ///   backfill decisions depend on `now` even when nothing ran);
    /// * the attempt order is written into a reused buffer instead of a
    ///   fresh `Vec` per loop iteration;
    /// * a shape that exceeds the strategy's O(1) feasibility bound
    ///   ([`AllocationStrategy::feasible`] — free count or free-space
    ///   watermarks) is rejected without a search;
    /// * a shape that failed at the current mesh release-epoch is
    ///   skipped outright: failures are deterministic functions of the
    ///   mesh/strategy state, mutate nothing, and stay failures until a
    ///   release frees processors (successes only shrink free space) —
    ///   so skipping the doomed search is bit-exact. This also covers
    ///   later same-shape jobs within one pass, since the release epoch
    ///   cannot advance mid-pass.
    fn schedule_pass_fast<P: Probe>(&mut self, probe: &mut P) {
        probe.begin(Span::CorePass);
        if in_span(probe, Span::SchedObserve, || self.scheduler.wants_observation()) {
            if self.snapshot_stale {
                let factor = self.demand_time_factor;
                self.running_snapshot.clear();
                self.running_snapshot.extend(
                    self.jobs
                        .values()
                        .filter(|js| js.start != Time::MAX)
                        .map(|js| RunningJob {
                            procs: js.alloc.as_ref().map_or(0, |a| a.size()),
                            est_completion: js.start
                                + (js.spec.service_demand * factor).round() as Time,
                        }),
                );
                self.snapshot_stale = false;
            }
            in_span(probe, Span::SchedObserve, || {
                self.scheduler
                    .observe(&self.running_snapshot, self.mesh.free_count(), self.now);
                self.scheduler.set_demand_time_factor(self.demand_time_factor);
            });
        }
        let mut order = std::mem::take(&mut self.attempt_buf);
        loop {
            in_span(probe, Span::SchedAttemptOrder, || {
                self.scheduler.attempt_order_into(&mut order)
            });
            if order.is_empty() {
                break;
            }
            let mut started = false;
            for &id in &order {
                probe.event(Event::Attempt);
                let (a, b) = {
                    // procsim-lint: allow(D004): invariant: every id in attempt_order was enqueued with a JobState in Ev::Arrival
                    let js = self.jobs.get(&id).expect("invariant: queued job without state");
                    (js.spec.a, js.spec.b)
                };
                let rel = self.mesh.release_epoch();
                if self.memo_enabled && self.failed_shapes.get(&(a, b)) == Some(&rel) {
                    probe.event(Event::Reject(id, RejectCause::Memo));
                    continue; // this exact shape already failed since the last release
                }
                let feasible = in_span(probe, Span::AllocFeasible, || {
                    self.strategy.feasible(&self.mesh, a, b)
                });
                if !feasible {
                    probe.event(Event::Reject(id, RejectCause::Feasible));
                    if self.memo_enabled {
                        self.failed_shapes.insert((a, b), rel);
                    }
                    continue;
                }
                let granted = in_span(probe, Span::AllocAllocate, || {
                    self.strategy.allocate(&mut self.mesh, a, b)
                });
                if let Some(alloc) = granted {
                    let removed = in_span(probe, Span::SchedQueueOps, || self.scheduler.remove(id));
                    // procsim-lint: allow(D004): invariant: id came from this scheduler's own attempt_order this pass
                    removed.expect("invariant: job vanished from queue");
                    self.start_job(id, alloc, probe);
                    started = true;
                    break;
                }
                probe.event(Event::Reject(id, RejectCause::Search));
                if self.memo_enabled {
                    self.failed_shapes.insert((a, b), rel);
                }
            }
            if !started {
                break;
            }
        }
        self.attempt_buf = order;
        probe.end(Span::CorePass);
    }

    /// The pre-memoization scheduling pass, kept verbatim as the
    /// differential oracle and compiled for tests only: rebuilds the
    /// observation snapshot and clones the attempt order every
    /// iteration, and runs the full allocator search for every
    /// candidate. The `sched_differential` battery pins
    /// [`Simulator::schedule_pass_fast`] to this across strategies,
    /// schedulers, topologies and seeds.
    #[cfg(test)]
    fn schedule_pass_reference<P: Probe>(&mut self, probe: &mut P) {
        if self.scheduler.wants_observation() {
            let running: Vec<RunningJob> = self
                .jobs
                .values()
                .filter(|js| js.start != Time::MAX)
                .map(|js| RunningJob {
                    procs: js.alloc.as_ref().map_or(0, |a| a.size()),
                    est_completion: js.start
                        + (js.spec.service_demand * self.demand_time_factor).round() as Time,
                })
                .collect();
            self.scheduler
                .observe(&running, self.mesh.free_count(), self.now);
            self.scheduler.set_demand_time_factor(self.demand_time_factor);
        }
        loop {
            let order = self.scheduler.attempt_order();
            if order.is_empty() {
                return;
            }
            let mut started = false;
            for id in order {
                let (a, b) = {
                    let js = self.jobs.get(&id).expect("invariant: queued job without state");
                    (js.spec.a, js.spec.b)
                };
                if let Some(alloc) = self.strategy.allocate(&mut self.mesh, a, b) {
                    self.scheduler.remove(id).expect("invariant: job vanished from queue");
                    self.start_job(id, alloc, probe);
                    started = true;
                    break;
                }
            }
            if !started {
                return;
            }
        }
    }

    fn start_job<P: Probe>(&mut self, id: u64, alloc: Allocation, probe: &mut P) {
        self.util.update(self.now, self.mesh.used_count() as f64);
        // a new running job invalidates the cached observation snapshot
        self.snapshot_stale = true;
        // procsim-lint: allow(D004): invariant: start_job is only reached from schedule_pass with a live queued id
        let js = self.jobs.get_mut(&id).expect("invariant: started job without state");
        js.start = self.now;
        let shape = (js.spec.a, js.spec.b);
        probe.event(Event::Start { job: id, at: js.start, shape, alloc: &alloc });
        js.alloc = Some(alloc);
        // the rank → coordinate layout was expanded once when the
        // allocation was built; every use below indexes the cached slice
        // procsim-lint: allow(D004): invariant: js.alloc was assigned Some two lines above
        let nodes = js.alloc.as_ref().expect("invariant: alloc just set").nodes();
        let msgs_per_node = js.spec.msgs_per_node;
        // one pass in rank form: each sender's messages arrive as one
        // contiguous run of `dsts`, so a rank's cursor opens at its first
        // message (an empty cursor ends at 0) and each further message
        // extends it
        let mut dsts = Vec::new();
        // resized, not `vec![(0, 0); n]`: an all-zero `vec!` is a calloc,
        // which glibc serves past its per-thread cache of freed chunks,
        // and the heap grows (deep_queue's peak RSS rose 5 %)
        let mut cursors = Vec::with_capacity(nodes.len());
        cursors.resize(nodes.len(), (0u32, 0u32));
        in_span(probe, Span::WormnetPattern, || {
            pattern_ranks(self.cfg.pattern, nodes, msgs_per_node, &mut self.pat_rng, |src, dst| {
                // procsim-lint: allow(D005): dsts holds the job's messages, whose count `outstanding` keeps as a u32
                let at = dsts.len() as u32;
                let cursor = &mut cursors[src as usize];
                if cursor.1 == 0 {
                    *cursor = (at, at);
                }
                inv_assert!(cursor.1 == at, "rank {src}'s messages restart after another rank's");
                dsts.push(nodes[dst as usize]);
                cursor.1 += 1;
            })
        });
        if dsts.is_empty() {
            // single-processor job (or pattern with a silent role):
            // local-computation proxy with the same per-message cost a
            // network-free send would have
            let local = msgs_per_node as Time * (self.cfg.plen + self.cfg.ts) as Time;
            let at = self.now + local.max(1);
            in_span(probe, Span::DesimSchedule, || self.events.schedule(at, Ev::LocalDone(id)));
            return;
        }
        // procsim-lint: allow(D005): a job sends nodes * msgs_per_node messages, far under u32::MAX for the drawn message counts; outstanding mirrors per-send decrements
        js.outstanding = dsts.len() as u32;
        // closed loop: every rank launches its first message, in
        // ascending rank order (the network's injection order);
        // subsequent messages go out as deliveries come back
        for (rank, cursor) in cursors.iter_mut().enumerate() {
            if let Some(dst) = next_dst(&dsts, cursor) {
                let tag = encode_tag(id, rank);
                in_span(probe, Span::WormnetSend, || {
                    self.net.send(nodes[rank], dst, self.cfg.plen, tag, self.now)
                });
            }
        }
        js.dsts = dsts;
        js.cursors = cursors;
    }

    fn depart<P: Probe>(&mut self, id: u64, probe: &mut P) {
        // a departure invalidates the cached observation snapshot (and,
        // below, possibly the demand->time factor baked into est_completion)
        self.snapshot_stale = true;
        // procsim-lint: allow(D004): invariant: depart is driven by LocalDone/last-packet events of jobs still in the map
        let js = self.jobs.remove(&id).expect("invariant: departure of unknown job");
        debug_assert_eq!(js.outstanding, 0);
        if let Some(alloc) = js.alloc {
            let frags = alloc.fragments();
            in_span(probe, Span::AllocRelease, || self.strategy.release(&mut self.mesh, alloc));
            probe.event(Event::Depart(id));
            self.util.update(self.now, self.mesh.used_count() as f64);
            self.completed += 1;
            if self.completed == self.cfg.warmup_jobs {
                // measurement starts now: discard the warmup transient
                self.util.reset_at(self.now);
            }
            if js.spec.service_demand > 0.0 {
                // calibrate the demand->time factor for reservation-aware
                // scheduling (EWMA, alpha = 0.05)
                let obs = (self.now - js.start) as f64 / js.spec.service_demand;
                self.demand_time_factor = 0.95 * self.demand_time_factor + 0.05 * obs;
            }
            if self.completed > self.cfg.warmup_jobs {
                self.turn.push((self.now - js.spec.arrive) as f64);
                self.serv.push((self.now - js.start) as f64);
                self.wait.push((js.start - js.spec.arrive) as f64);
                self.frag.push(frags as f64);
                self.pkt_lat_sum += js.lat_sum;
                self.pkt_blk_sum += js.blk_sum;
                self.pkt_count += js.pkts;
            }
        }
    }

    /// Collects delivered packets; departs jobs whose last packet landed.
    fn absorb_network_completions<P: Probe>(&mut self, probe: &mut P) -> bool {
        let mut completions = std::mem::take(&mut self.completion_buf);
        in_span(probe, Span::WormnetDrain, || self.net.drain_completions_into(&mut completions));
        if completions.is_empty() {
            self.completion_buf = completions;
            return false;
        }
        let mut done: Vec<u64> = Vec::new();
        for c in completions.drain(..) {
            probe.event(Event::Delivered(&c));
            let (job_id, rank) = decode_tag(c.tag);
            let js = self
                .jobs
                // procsim-lint: allow(D004): invariant: packet tags are minted from live job ids and jobs outlive their outstanding packets
                .get_mut(&job_id)
                .expect("invariant: packet completion for unknown job");
            js.lat_sum += c.latency;
            js.blk_sum += c.blocked;
            js.pkts += 1;
            js.outstanding -= 1;
            // closed loop: the sender's next message goes out now
            if let Some(dst) = next_dst(&js.dsts, &mut js.cursors[rank]) {
                // procsim-lint: allow(D004): invariant: a job with packets in flight was started, so alloc is Some
                let src = js.alloc.as_ref().expect("invariant: send for unallocated job").nodes()[rank];
                let tag = encode_tag(job_id, rank);
                in_span(probe, Span::WormnetSend, || {
                    self.net.send(src, dst, self.cfg.plen, tag, self.now)
                });
            }
            if js.outstanding == 0 {
                done.push(job_id);
            }
        }
        self.completion_buf = completions;
        let any = !done.is_empty();
        for id in done {
            self.depart(id, probe);
        }
        any
    }

    /// Processes all events due at or before the current time. Returns
    /// whether anything was handled.
    fn drain_due<P: Probe>(&mut self, probe: &mut P) -> bool {
        let mut any = false;
        while let Some((_, ev)) = in_span(probe, Span::DesimPop, || self.events.pop_due(self.now)) {
            probe.event(Event::Pop);
            self.handle(ev, probe);
            any = true;
        }
        any
    }

    /// Runs the replication to completion and returns its metrics.
    pub fn run(self) -> RunMetrics {
        self.run_with(NoProbe).0
    }

    /// Runs the replication to completion under `probe`, which sees every
    /// layer call ([`Span`]) and every decision ([`Event`]) of the loop,
    /// and returns the metrics with the probe. A probe only observes:
    /// the metrics equal [`Simulator::run`]'s bit for bit.
    pub fn run_with<P: Probe>(mut self, mut probe: P) -> (RunMetrics, P) {
        let metrics = self.run_inner(&mut probe);
        (metrics, probe)
    }

    /// Drive every pass through the pre-memoization
    /// `schedule_pass_reference` — the oracle side of the differential
    /// battery.
    #[cfg(test)]
    pub(crate) fn with_reference_pass(mut self) -> Self {
        self.reference_pass = true;
        self
    }

    fn run_inner<P: Probe>(&mut self, probe: &mut P) -> RunMetrics {
        probe.begin(Span::CoreRep);
        self.source = Some(in_span(probe, Span::WorkloadCursorOpen, || {
            open_source(&self.cfg, self.rep)
        }));
        self.schedule_next_arrival(probe);
        let target = self.cfg.warmup_jobs + self.cfg.measured_jobs;
        while self.completed < target {
            if self.net.is_idle() {
                // jump straight to the next job-level event
                match in_span(probe, Span::DesimPop, || self.events.pop()) {
                    Some((t, ev)) => {
                        probe.event(Event::Pop);
                        probe.event(Event::IdleJump);
                        debug_assert!(t >= self.now);
                        self.now = t;
                        self.handle(ev, probe);
                        self.drain_due(probe);
                        self.schedule_pass(probe);
                    }
                    None => break, // job source exhausted
                }
            } else if let leap @ 1.. =
                in_span(probe, Span::WormnetSkippable, || self.net.skippable_cycles())
            {
                // Event-compressed advancement: the network has proven
                // that the next `leap` cycles are inert (every worm is in
                // routing delay or blocked on a channel that cannot be
                // released before then, and every queued sender is parked
                // behind its own busy injection channel). Since senders
                // became waiter-driven the proof itself is O(1) — parked
                // nodes need no rescan — so leap to the next job-level
                // event or the network's next possible progress, whichever
                // comes first. The skipped cycles are applied to the
                // network in O(1); nothing observable differs from
                // stepping them one by one.
                let mut stop = self.now + leap;
                if let Some(te) = self.events.peek_time() {
                    stop = stop.min(te);
                }
                let cycles = stop - self.now;
                in_span(probe, Span::WormnetSkippable, || self.net.skip_cycles(cycles));
                probe.event(Event::Leap(cycles));
                self.now = stop;
                if self.drain_due(probe) {
                    self.schedule_pass(probe);
                }
            } else {
                self.now += 1;
                in_span(probe, Span::WormnetStep, || self.net.step(self.now));
                let departed = self.absorb_network_completions(probe);
                let evented = self.drain_due(probe);
                if departed || evented {
                    self.schedule_pass(probe);
                }
            }
        }

        let measured = self.completed.saturating_sub(self.cfg.warmup_jobs) as u64;
        let metrics = RunMetrics {
            jobs: measured,
            mean_turnaround: self.turn.mean(),
            mean_service: self.serv.mean(),
            utilization: self.util.average(self.now) / self.mesh.size() as f64,
            mean_packet_blocking: if self.pkt_count == 0 {
                0.0
            } else {
                self.pkt_blk_sum as f64 / self.pkt_count as f64
            },
            mean_packet_latency: if self.pkt_count == 0 {
                0.0
            } else {
                self.pkt_lat_sum as f64 / self.pkt_count as f64
            },
            mean_wait: self.wait.mean(),
            mean_fragments: self.frag.mean(),
            packets: self.pkt_count,
            end_time: self.now,
            turnaround_stats: self.turn,
        };
        probe.end(Span::CoreRep);
        metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh_alloc::StrategyKind;
    use mesh_sched::SchedulerKind;
    use std::sync::Arc;
    use workload::SideDist;

    fn quick_cfg(strategy: StrategyKind, scheduler: SchedulerKind, load: f64) -> SimConfig {
        let mut c = SimConfig::paper(
            strategy,
            scheduler,
            WorkloadSpec::Stochastic {
                sides: SideDist::Uniform,
                load,
                num_mes: 5.0,
            },
            12345,
        );
        c.warmup_jobs = 20;
        c.measured_jobs = 120;
        c
    }

    #[test]
    fn light_load_completes_all_jobs() {
        let cfg = quick_cfg(StrategyKind::Gabl, SchedulerKind::Fcfs, 0.001);
        let m = Simulator::new(&cfg, 0).run();
        assert_eq!(m.jobs, 120);
        assert!(m.mean_turnaround > 0.0);
        assert!(m.mean_service > 0.0);
        assert!(m.mean_turnaround >= m.mean_service);
        assert!(m.packets > 0);
        assert!(m.utilization > 0.0 && m.utilization <= 1.0);
    }

    #[test]
    fn deterministic_per_seed_and_rep() {
        let cfg = quick_cfg(StrategyKind::Mbs, SchedulerKind::Ssd, 0.005);
        let a = Simulator::new(&cfg, 3).run();
        let b = Simulator::new(&cfg, 3).run();
        assert_eq!(a.mean_turnaround, b.mean_turnaround);
        assert_eq!(a.end_time, b.end_time);
        let c = Simulator::new(&cfg, 4).run();
        assert_ne!(a.end_time, c.end_time, "different reps must differ");
    }

    #[test]
    fn turnaround_grows_with_load() {
        let lo = Simulator::new(&quick_cfg(StrategyKind::Gabl, SchedulerKind::Fcfs, 0.0005), 0)
            .run();
        let hi =
            Simulator::new(&quick_cfg(StrategyKind::Gabl, SchedulerKind::Fcfs, 0.03), 0).run();
        assert!(
            hi.mean_turnaround > lo.mean_turnaround,
            "lo {} hi {}",
            lo.mean_turnaround,
            hi.mean_turnaround
        );
    }

    #[test]
    fn gabl_more_contiguous_than_paging() {
        let g = Simulator::new(&quick_cfg(StrategyKind::Gabl, SchedulerKind::Fcfs, 0.02), 0).run();
        let p = Simulator::new(
            &quick_cfg(
                StrategyKind::Paging {
                    size_index: 0,
                    indexing: mesh_alloc::PageIndexing::RowMajor,
                },
                SchedulerKind::Fcfs,
                0.02,
            ),
            0,
        )
        .run();
        assert!(
            g.mean_fragments < p.mean_fragments,
            "GABL {} vs Paging(0) {}",
            g.mean_fragments,
            p.mean_fragments
        );
    }

    #[test]
    fn service_time_excludes_waiting() {
        // at saturation waiting dominates turnaround but not service
        let cfg = quick_cfg(StrategyKind::Gabl, SchedulerKind::Fcfs, 0.05);
        let m = Simulator::new(&cfg, 0).run();
        assert!(m.mean_wait > 0.0);
        assert!((m.mean_turnaround - (m.mean_service + m.mean_wait)).abs() < 1e-6);
    }

    #[test]
    fn synthetic_trace_runs() {
        let mut cfg = SimConfig::paper(
            StrategyKind::Gabl,
            SchedulerKind::Fcfs,
            WorkloadSpec::SyntheticTrace {
                model: workload::ParagonModel::default(),
                load: 0.002,
                runtime_scale: 60.0,
            },
            7,
        );
        cfg.warmup_jobs = 10;
        cfg.measured_jobs = 60;
        let m = Simulator::new(&cfg, 0).run();
        assert_eq!(m.jobs, 60);
        assert!(m.mean_service > 0.0);
    }

    #[test]
    fn swf_trace_workload_replays_at_offered_load() {
        use workload::TraceWorkload;
        let recs = workload::ParagonModel {
            jobs: 700,
            ..Default::default()
        }
        .generate(&mut desim::SimRng::new(11));
        let trace = Arc::new(TraceWorkload::new(recs).unwrap());
        let run_at = |rho: f64, rep: u64| {
            let mut cfg = SimConfig::paper(
                StrategyKind::Gabl,
                SchedulerKind::Fcfs,
                WorkloadSpec::Trace {
                    trace: trace.clone(),
                    load: rho,
                    runtime_scale: 360.0,
                },
                13,
            );
            cfg.warmup_jobs = 10;
            cfg.measured_jobs = 80;
            assert!((cfg.workload.load() - rho).abs() < 1e-12);
            Simulator::new(&cfg, rep).run()
        };
        let light = run_at(0.3, 0);
        let heavy = run_at(1.5, 0);
        assert_eq!(light.jobs, 80);
        assert_eq!(heavy.jobs, 80);
        assert!(
            heavy.mean_turnaround > light.mean_turnaround,
            "rho=1.5 {} vs rho=0.3 {}",
            heavy.mean_turnaround,
            light.mean_turnaround
        );
        // replications replay disjoint segments
        let rep1 = run_at(0.3, 1);
        assert_ne!(light.end_time, rep1.end_time);
        // same (seed, rep) is reproducible
        let again = run_at(0.3, 0);
        assert_eq!(light.mean_turnaround, again.mean_turnaround);
    }

    #[test]
    fn fixed_trace_replays_segments() {
        let jobs: Vec<JobSpec> = (0..500)
            .map(|i| JobSpec {
                id: i,
                arrive: i * 50,
                a: 1 + (i % 4) as u16,
                b: 1 + (i % 5) as u16,
                msgs_per_node: 3,
                service_demand: 3.0,
            })
            .collect();
        let mut cfg = SimConfig::paper(
            StrategyKind::Mbs,
            SchedulerKind::Fcfs,
            WorkloadSpec::FixedTrace(Arc::new(jobs)),
            7,
        );
        cfg.warmup_jobs = 5;
        cfg.measured_jobs = 50;
        let a = Simulator::new(&cfg, 0).run();
        let b = Simulator::new(&cfg, 1).run();
        assert_eq!(a.jobs, 50);
        assert_eq!(b.jobs, 50);
    }

    #[test]
    fn short_trace_replications_stay_distinct() {
        // needed (warmup + measured) equals the trace length: the naive
        // offset rep*needed % len would be 0 for every replication,
        // making them identical; the stride fallback rotates the stream
        // one job per replication instead
        let jobs: Vec<JobSpec> = (0..60)
            .map(|i| JobSpec {
                id: i,
                arrive: i * 40,
                a: 1 + (i % 5) as u16,
                b: 1 + (i % 7) as u16,
                msgs_per_node: 2,
                service_demand: 2.0,
            })
            .collect();
        let mut cfg = SimConfig::paper(
            StrategyKind::Gabl,
            SchedulerKind::Fcfs,
            WorkloadSpec::FixedTrace(Arc::new(jobs)),
            3,
        );
        cfg.warmup_jobs = 10;
        cfg.measured_jobs = 50;
        let a = Simulator::new(&cfg, 0).run();
        let b = Simulator::new(&cfg, 1).run();
        assert_eq!(a.jobs, 50);
        assert_eq!(b.jobs, 50);
        assert_ne!(
            (a.mean_turnaround, a.end_time),
            (b.mean_turnaround, b.end_time),
            "replications of a short trace must not be identical"
        );
    }

    #[test]
    #[should_panic(expected = "more than 1048576 processors")]
    fn meshes_beyond_the_rank_limit_are_refused() {
        let mut cfg = quick_cfg(StrategyKind::Gabl, SchedulerKind::Fcfs, 0.001);
        cfg.mesh_w = 2048;
        cfg.mesh_l = 1024;
        let _ = Simulator::new(&cfg, 0);
    }

    /// Records every span and event of a run, checking as it goes that
    /// spans nest.
    #[derive(Default)]
    struct Recorder {
        open: Vec<Span>,
        /// Spans closed, by `Span as usize`.
        spans: [u64; 17],
        /// Events, by [`event_kind`].
        events: [u64; 12],
        hops: u64,
    }

    /// An index per `Event` variant, and per `RejectCause` within `Reject`.
    fn event_kind(e: &Event<'_>) -> usize {
        match e {
            Event::Attempt => 0,
            Event::Leap(_) => 1,
            Event::IdleJump => 2,
            Event::Pop => 3,
            Event::JobDrawn => 4,
            Event::Arrive(_) => 5,
            Event::Reject(_, RejectCause::Memo) => 6,
            Event::Reject(_, RejectCause::Feasible) => 7,
            Event::Reject(_, RejectCause::Search) => 8,
            Event::Start { .. } => 9,
            Event::Depart(_) => 10,
            Event::Delivered(_) => 11,
        }
    }

    impl Probe for Recorder {
        fn begin(&mut self, span: Span) {
            self.open.push(span);
        }

        fn end(&mut self, span: Span) {
            assert_eq!(self.open.pop(), Some(span), "spans must nest");
            self.spans[span as usize] += 1;
        }

        fn event(&mut self, event: Event<'_>) {
            if let Event::Delivered(c) = event {
                self.hops += u64::from(c.hops);
            }
            self.events[event_kind(&event)] += 1;
        }
    }

    /// A probe sees the whole run and changes none of it: on every cell
    /// of the scheduling-pass differential matrix, a recording probe
    /// leaves the metrics bit-identical to `run()`, and what it records
    /// agrees with counts kept apart from the probe hooks.
    #[test]
    fn probes_never_change_results() {
        let mut spans = [0u64; 17];
        let mut events = [0u64; 12];
        for (tag, c) in crate::sched_differential::full_matrix() {
            let plain = Simulator::new(&c, 0).run();
            let mut sim = Simulator::new(&c, 0);
            let mut rec = Recorder::default();
            let m = sim.run_inner(&mut rec);
            crate::sched_differential::assert_same_metrics(&m, &plain, &tag);
            assert!(rec.open.is_empty(), "{tag}: spans left open");
            let e = rec.events;
            let net = sim.net.counters();
            assert_eq!(e[11], net.delivered, "{tag}: deliveries");
            assert_eq!(rec.hops, net.total_hops, "{tag}: hops");
            let running = sim.jobs.values().filter(|js| js.start != Time::MAX).count() as u64;
            let won = rec.spans[Span::AllocAllocate as usize] - e[8];
            assert_eq!(won, e[9], "{tag}: allocations won vs starts");
            assert_eq!(e[9], e[10] + running, "{tag}: starts vs departures + running");
            assert_eq!(e[10], (c.warmup_jobs as u64) + m.jobs, "{tag}: departures");
            assert_eq!(
                e[6] + e[7] + rec.spans[Span::AllocAllocate as usize],
                e[0],
                "{tag}: memo hits + feasible rejects + allocate calls vs attempts"
            );
            for (total, n) in spans.iter_mut().zip(rec.spans) {
                *total += n;
            }
            for (total, n) in events.iter_mut().zip(e) {
                *total += n;
            }
        }
        // every span and every event fires somewhere in the matrix
        assert!(spans.iter().all(|&n| n > 0), "spans never fired: {spans:?}");
        assert!(events.iter().all(|&n| n > 0), "events never fired: {events:?}");
    }

    #[test]
    fn ssd_beats_fcfs_on_turnaround_under_load() {
        // the paper's §4 claim, checked at a congesting load
        let f = Simulator::new(&quick_cfg(StrategyKind::Gabl, SchedulerKind::Fcfs, 0.03), 1).run();
        let s = Simulator::new(&quick_cfg(StrategyKind::Gabl, SchedulerKind::Ssd, 0.03), 1).run();
        assert!(
            s.mean_turnaround < f.mean_turnaround,
            "SSD {} vs FCFS {}",
            s.mean_turnaround,
            f.mean_turnaround
        );
    }
}
