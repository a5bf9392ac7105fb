//! A mirror of `Simulator::run`, built only from the layers' public
//! calls, with every call wrapped in a span.
//!
//! The loop below follows `procsim_core::Simulator`'s replication loop
//! step for step (the memoized scheduling pass, event-compressed network
//! advancement, closed-loop sends), so it makes the same calls in the
//! same order and must return bit-identical `RunMetrics`. The traced run
//! checks that on every replication: a divergence means the numbers
//! would describe a different program, and the run fails.
//!
//! Only the job sources the benchmark's workloads use are mirrored: the
//! stochastic generator and streaming trace replay.
//!
//! O(1) state queries (`Network::is_idle`, `EventQueue::peek_time`,
//! `Mesh::release_epoch`, `Mesh::free_count`) and the `simstats`
//! accumulators are not wrapped: they cost a few nanoseconds, close to
//! the cost of reading the clock twice, and are counted in core's self
//! time.

use crate::spans::{SpanName, Tracer};
use desim::{EventQueue, SimRng, Time};
use mesh2d::{Coord, Mesh};
use mesh_alloc::{Allocation, AllocationStrategy};
use mesh_sched::{QueuedJob, RunningJob, Scheduler};
use procsim_core::{derive_seed, RunMetrics, SimConfig, WorkloadSpec};
use simstats::{TimeWeighted, Welford};
use std::collections::{BTreeMap, HashMap, VecDeque};
use workload::{JobSpec, ScaledJobs, StochasticGen};
use wormnet::{pattern_messages, Network, Topology, TopologyKind};

/// Work counts of one mirrored replication (deterministic per seed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Network cycles stepped one at a time.
    pub steps: u64,
    /// Packets handed to the network.
    pub sends: u64,
    /// Inert stretches skipped in O(1).
    pub leaps: u64,
    /// Cycles those leaps covered.
    pub cycles_skipped: u64,
    /// Allocator searches run.
    pub allocate_calls: u64,
    /// Searches that granted processors.
    pub won: u64,
    /// Candidates rejected by the O(1) `feasible` bound.
    pub feasible_rejects: u64,
    /// `attempt_order_into` calls.
    pub attempt_order_calls: u64,
    /// Scheduling passes.
    pub passes: u64,
    /// Candidates the passes considered.
    pub attempts: u64,
    /// Candidates skipped by the failed-shape memo.
    pub memo_hits: u64,
    /// Job-level events popped.
    pub pops: u64,
    /// Jumps over an idle network to the next job-level event.
    pub idle_jumps: u64,
    /// Simulated cycles (the replication's end time).
    pub sim_cycles: u64,
    /// Jobs drawn from the job source.
    pub jobs: u64,
}

impl Counts {
    /// Adds another replication's counts.
    pub fn add(&mut self, o: &Counts) {
        self.steps += o.steps;
        self.sends += o.sends;
        self.leaps += o.leaps;
        self.cycles_skipped += o.cycles_skipped;
        self.allocate_calls += o.allocate_calls;
        self.won += o.won;
        self.feasible_rejects += o.feasible_rejects;
        self.attempt_order_calls += o.attempt_order_calls;
        self.passes += o.passes;
        self.attempts += o.attempts;
        self.memo_hits += o.memo_hits;
        self.pops += o.pops;
        self.idle_jumps += o.idle_jumps;
        self.sim_cycles += o.sim_cycles;
        self.jobs += o.jobs;
    }
}

/// Job-level events (as in the simulator).
enum Ev {
    Arrival(JobSpec),
    LocalDone(u64),
}

/// Bits of a packet tag that hold the sender rank.
const RANK_BITS: u32 = 20;

fn encode_tag(job: u64, rank: usize) -> u64 {
    (job << RANK_BITS) | rank as u64
}

fn decode_tag(tag: u64) -> (u64, usize) {
    (tag >> RANK_BITS, (tag & ((1 << RANK_BITS) - 1)) as usize)
}

struct JobState {
    spec: JobSpec,
    start: Time,
    alloc: Option<Allocation>,
    sends: Vec<VecDeque<Coord>>,
    outstanding: u32,
    lat_sum: u64,
    blk_sum: u64,
    pkts: u64,
}

enum Source {
    Stochastic {
        gen: StochasticGen,
        clock: Time,
        next_id: u64,
    },
    Stream {
        jobs: ScaledJobs,
        last_id: u64,
        base: Option<Time>,
        shift: Time,
        remaining: usize,
    },
}

struct Mirror<'t> {
    cfg: SimConfig,
    mesh: Mesh,
    strategy: Box<dyn AllocationStrategy>,
    scheduler: Box<dyn Scheduler>,
    net: Network,
    events: EventQueue<Ev>,
    now: Time,
    wl_rng: SimRng,
    pat_rng: SimRng,
    source: Source,
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
    next_internal_id: u64,
    demand_time_factor: f64,
    attempt_buf: Vec<u64>,
    running_snapshot: Vec<RunningJob>,
    snapshot_stale: bool,
    failed_shapes: HashMap<(u16, u16), u64>,
    memo_enabled: bool,
    tr: &'t mut Tracer,
    counts: Counts,
}

/// Runs replication `rep` of `cfg` through the mirrored loop, recording
/// spans into `tr`. Panics on a workload the mirror does not cover.
pub fn run(cfg: &SimConfig, rep: u64, tr: &mut Tracer) -> (RunMetrics, Counts) {
    let root = tr.enter(SpanName::CoreRep);
    let mut m = Mirror::new(cfg, rep, tr);
    let metrics = m.run_inner();
    let counts = m.counts;
    tr.exit(root);
    (metrics, counts)
}

impl<'t> Mirror<'t> {
    fn new(cfg: &SimConfig, rep: u64, tr: &'t mut Tracer) -> Self {
        let mut rep_rng = SimRng::new(derive_seed(cfg.seed, rep));
        let wl_rng = rep_rng.substream(1);
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

        let needed = cfg.warmup_jobs + cfg.measured_jobs;
        let open = tr.enter(SpanName::WorkloadCursorOpen);
        let source = match &cfg.workload {
            WorkloadSpec::Stochastic {
                sides,
                load,
                num_mes,
            } => Source::Stochastic {
                gen: StochasticGen {
                    mesh_w: cfg.mesh_w,
                    mesh_l: cfg.mesh_l,
                    sides: *sides,
                    load: *load,
                    num_mes_mean: *num_mes,
                },
                clock: 0,
                next_id: 0,
            },
            WorkloadSpec::Trace {
                trace,
                load,
                runtime_scale,
            } => {
                let len = trace.len();
                let stride = (needed % len).max(1);
                let pos = (rep as usize).wrapping_mul(stride) % len;
                Source::Stream {
                    jobs: trace.stream_jobs(cfg.mesh_w, cfg.mesh_l, *load, *runtime_scale, pos),
                    last_id: (len - 1) as u64,
                    base: None,
                    shift: 0,
                    remaining: len,
                }
            }
            other => panic!("the mirror does not cover workload {other:?}"),
        };
        tr.exit(open);

        let memo_enabled = strategy.failure_persists_until_release();
        Mirror {
            cfg: cfg.clone(),
            mesh,
            strategy,
            scheduler,
            net,
            events: EventQueue::new(),
            now: 0,
            wl_rng,
            pat_rng,
            source,
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
            running_snapshot: Vec::new(),
            snapshot_stale: false,
            failed_shapes: HashMap::new(),
            memo_enabled,
            tr,
            counts: Counts::default(),
        }
    }

    fn schedule(&mut self, at: Time, ev: Ev) {
        let s = self.tr.enter(SpanName::DesimSchedule);
        self.events.schedule(at, ev);
        self.tr.exit(s);
    }

    fn send(&mut self, src: Coord, dst: Coord, tag: u64) {
        let s = self.tr.enter(SpanName::WormnetSend);
        self.net.send(src, dst, self.cfg.plen, tag, self.now);
        self.tr.exit(s);
        self.counts.sends += 1;
    }

    fn schedule_next_arrival(&mut self) {
        let job = match &mut self.source {
            Source::Stochastic {
                gen,
                clock,
                next_id,
            } => {
                let s = self.tr.enter(SpanName::WorkloadNextJob);
                let job = gen.next_job(*next_id, clock, &mut self.wl_rng);
                self.tr.exit(s);
                *next_id += 1;
                job
            }
            Source::Stream {
                jobs,
                last_id,
                base,
                shift,
                remaining,
            } => {
                if *remaining == 0 {
                    return;
                }
                *remaining -= 1;
                let s = self.tr.enter(SpanName::WorkloadNextJob);
                let next = jobs.next();
                self.tr.exit(s);
                let Some(mut job) = next else {
                    return;
                };
                let b = *base.get_or_insert(job.arrive);
                let rebased = job.arrive.saturating_sub(b) + *shift;
                if job.id == *last_id {
                    *base = None;
                    *shift = rebased + 1;
                }
                job.arrive = self.now.max(rebased);
                job
            }
        };
        self.counts.jobs += 1;
        let at = job.arrive.max(self.now);
        self.schedule(at, Ev::Arrival(job));
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Arrival(mut spec) => {
                let id = self.next_internal_id;
                self.next_internal_id += 1;
                spec.id = id;
                let s = self.tr.enter(SpanName::SchedQueueOps);
                self.scheduler.enqueue(QueuedJob {
                    job_id: id,
                    arrive: spec.arrive,
                    a: spec.a,
                    b: spec.b,
                    service_demand: spec.service_demand,
                });
                self.tr.exit(s);
                self.jobs.insert(
                    id,
                    JobState {
                        spec,
                        start: Time::MAX,
                        alloc: None,
                        sends: Vec::new(),
                        outstanding: 0,
                        lat_sum: 0,
                        blk_sum: 0,
                        pkts: 0,
                    },
                );
                self.schedule_next_arrival();
            }
            Ev::LocalDone(id) => self.depart(id),
        }
    }

    fn schedule_pass(&mut self) {
        let pass = self.tr.enter(SpanName::CorePass);
        self.counts.passes += 1;
        let s = self.tr.enter(SpanName::SchedObserve);
        let wants = self.scheduler.wants_observation();
        self.tr.exit(s);
        if wants {
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
            let s = self.tr.enter(SpanName::SchedObserve);
            self.scheduler
                .observe(&self.running_snapshot, self.mesh.free_count(), self.now);
            self.scheduler
                .set_demand_time_factor(self.demand_time_factor);
            self.tr.exit(s);
        }
        let mut order = std::mem::take(&mut self.attempt_buf);
        loop {
            let s = self.tr.enter(SpanName::SchedAttemptOrder);
            self.scheduler.attempt_order_into(&mut order);
            self.tr.exit(s);
            self.counts.attempt_order_calls += 1;
            if order.is_empty() {
                break;
            }
            let mut started = false;
            for &id in &order {
                self.counts.attempts += 1;
                let (a, b) = {
                    let js = self.jobs.get(&id).expect("queued job without state");
                    (js.spec.a, js.spec.b)
                };
                let rel = self.mesh.release_epoch();
                if self.memo_enabled && self.failed_shapes.get(&(a, b)) == Some(&rel) {
                    self.counts.memo_hits += 1;
                    continue;
                }
                let s = self.tr.enter(SpanName::AllocFeasible);
                let feasible = self.strategy.feasible(&self.mesh, a, b);
                self.tr.exit(s);
                if !feasible {
                    self.counts.feasible_rejects += 1;
                    if self.memo_enabled {
                        self.failed_shapes.insert((a, b), rel);
                    }
                    continue;
                }
                let s = self.tr.enter(SpanName::AllocAllocate);
                let granted = self.strategy.allocate(&mut self.mesh, a, b);
                self.tr.exit(s);
                self.counts.allocate_calls += 1;
                if let Some(alloc) = granted {
                    self.counts.won += 1;
                    let s = self.tr.enter(SpanName::SchedQueueOps);
                    let removed = self.scheduler.remove(id);
                    self.tr.exit(s);
                    removed.expect("job vanished from queue");
                    self.start_job(id, alloc);
                    started = true;
                    break;
                }
                if self.memo_enabled {
                    self.failed_shapes.insert((a, b), rel);
                }
            }
            if !started {
                break;
            }
        }
        self.attempt_buf = order;
        self.tr.exit(pass);
    }

    fn start_job(&mut self, id: u64, alloc: Allocation) {
        self.util.update(self.now, self.mesh.used_count() as f64);
        self.snapshot_stale = true;
        let js = self.jobs.get_mut(&id).expect("started job without state");
        js.start = self.now;
        js.alloc = Some(alloc);
        let nodes = js.alloc.as_ref().expect("alloc just set").nodes();
        let msgs_per_node = js.spec.msgs_per_node;
        let s = self.tr.enter(SpanName::WormnetPattern);
        let msgs = pattern_messages(self.cfg.pattern, nodes, msgs_per_node, &mut self.pat_rng);
        self.tr.exit(s);
        if msgs.is_empty() {
            let local = msgs_per_node as Time * (self.cfg.plen + self.cfg.ts) as Time;
            let at = self.now + local.max(1);
            self.schedule(at, Ev::LocalDone(id));
            return;
        }
        let mut rank_index: Vec<(Coord, u32)> = nodes
            .iter()
            .enumerate()
            .map(|(r, &c)| (c, r as u32))
            .collect();
        rank_index.sort_unstable_by_key(|&(c, _)| (c.y, c.x));
        let mut sends: Vec<VecDeque<Coord>> = vec![VecDeque::new(); nodes.len()];
        for (src, dst) in &msgs {
            let i = rank_index
                .binary_search_by_key(&(src.y, src.x), |&(c, _)| (c.y, c.x))
                .expect("pattern message from outside the allocation");
            sends[rank_index[i].1 as usize].push_back(*dst);
        }
        js.outstanding = msgs.len() as u32;
        js.sends = sends;
        let alloc = js.alloc.as_ref().expect("alloc set above");
        let first: Vec<(usize, Coord, Coord)> = js
            .sends
            .iter_mut()
            .enumerate()
            .filter_map(|(r, q)| q.pop_front().map(|d| (r, alloc.nodes()[r], d)))
            .collect();
        for (rank, src, dst) in first {
            self.send(src, dst, encode_tag(id, rank));
        }
    }

    fn depart(&mut self, id: u64) {
        self.snapshot_stale = true;
        let js = self.jobs.remove(&id).expect("departure of unknown job");
        if let Some(alloc) = js.alloc {
            let frags = alloc.fragments();
            let s = self.tr.enter(SpanName::AllocRelease);
            self.strategy.release(&mut self.mesh, alloc);
            self.tr.exit(s);
            self.util.update(self.now, self.mesh.used_count() as f64);
            self.completed += 1;
            if self.completed == self.cfg.warmup_jobs {
                self.util.reset_at(self.now);
            }
            if js.spec.service_demand > 0.0 {
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

    fn absorb_network_completions(&mut self) -> bool {
        let s = self.tr.enter(SpanName::WormnetDrain);
        let completions = self.net.drain_completions();
        self.tr.exit(s);
        if completions.is_empty() {
            return false;
        }
        let mut done: Vec<u64> = Vec::new();
        for c in completions {
            let (job_id, rank) = decode_tag(c.tag);
            let js = self
                .jobs
                .get_mut(&job_id)
                .expect("packet completion for unknown job");
            js.lat_sum += c.latency;
            js.blk_sum += c.blocked;
            js.pkts += 1;
            js.outstanding -= 1;
            let next = js.sends[rank].pop_front().map(|dst| {
                let src = js.alloc.as_ref().expect("send for unallocated job").nodes()[rank];
                (src, dst)
            });
            if js.outstanding == 0 {
                done.push(job_id);
            }
            if let Some((src, dst)) = next {
                self.send(src, dst, encode_tag(job_id, rank));
            }
        }
        let any = !done.is_empty();
        for id in done {
            self.depart(id);
        }
        any
    }

    fn pop_due(&mut self) -> Option<Ev> {
        let s = self.tr.enter(SpanName::DesimPop);
        let ev = self.events.pop_due(self.now);
        self.tr.exit(s);
        ev.map(|(_, ev)| {
            self.counts.pops += 1;
            ev
        })
    }

    fn drain_due(&mut self) -> bool {
        let mut any = false;
        while let Some(ev) = self.pop_due() {
            self.handle(ev);
            any = true;
        }
        any
    }

    fn run_inner(&mut self) -> RunMetrics {
        self.schedule_next_arrival();
        let target = self.cfg.warmup_jobs + self.cfg.measured_jobs;
        while self.completed < target {
            if self.net.is_idle() {
                let s = self.tr.enter(SpanName::DesimPop);
                let next = self.events.pop();
                self.tr.exit(s);
                let Some((t, ev)) = next else {
                    break;
                };
                self.counts.pops += 1;
                self.counts.idle_jumps += 1;
                self.now = t;
                self.handle(ev);
                self.drain_due();
                self.schedule_pass();
                continue;
            }
            let s = self.tr.enter(SpanName::WormnetSkippable);
            let leap = self.net.skippable_cycles();
            self.tr.exit(s);
            if leap >= 1 {
                let mut stop = self.now + leap;
                if let Some(te) = self.events.peek_time() {
                    stop = stop.min(te);
                }
                let s = self.tr.enter(SpanName::WormnetSkippable);
                self.net.skip_cycles(stop - self.now);
                self.tr.exit(s);
                self.counts.leaps += 1;
                self.counts.cycles_skipped += stop - self.now;
                self.now = stop;
                if self.drain_due() {
                    self.schedule_pass();
                }
            } else {
                self.now += 1;
                let s = self.tr.enter(SpanName::WormnetStep);
                self.net.step(self.now);
                self.tr.exit(s);
                self.counts.steps += 1;
                let departed = self.absorb_network_completions();
                let evented = self.drain_due();
                if departed || evented {
                    self.schedule_pass();
                }
            }
        }
        self.counts.sim_cycles = self.now;

        let measured = self.completed.saturating_sub(self.cfg.warmup_jobs) as u64;
        RunMetrics {
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
        }
    }
}
