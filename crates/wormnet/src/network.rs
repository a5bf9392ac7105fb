//! The channel-centric cycle engine: injection, header arbitration, worm
//! advancement, and event-compressed time advancement.
//!
//! # Engine model
//!
//! The original engine (kept as the test oracle in `reference.rs`) visited
//! every active packet on every cycle; blocked headers re-attempted and
//! failed explicitly, so a contended cycle cost O(active packets) even
//! when only a handful of worms could actually move. This engine tracks
//! *why* each packet is waiting and touches per cycle only the packets
//! that can progress:
//!
//! * **Draining** worms (streaming into the destination) act every cycle.
//! * Headers in per-node **routing delay** wait in a FIFO of timers and
//!   are untouched until their acquisition cycle. Every timer is armed
//!   at `stamp + ts + 1` with a fixed `ts` and a stamp that never
//!   decreases, so timers are armed in due order and the FIFO's front
//!   is always the earliest due.
//! * **Blocked** headers sit in the waiter list of the channel they need
//!   and are woken when it is released; the cycles they would have spent
//!   re-attempting are accrued lazily from a timestamp, which is exactly
//!   equivalent to the reference engine's per-cycle increments.
//! * Packets that lost only the physical-link **bandwidth race** (possible
//!   when virtual channels share links, i.e. on the torus) stay *eager*
//!   and re-attempt every cycle, as in the reference engine.
//! * Source nodes with queued packets are waiter-driven too: a node whose
//!   front packet is blocked on its busy injection channel is **parked**
//!   and costs nothing per cycle; releasing the channel (the previous
//!   worm's tail leaving it) marks the node **ready**, and only ready
//!   nodes are visited by the injection phase. Injection channels are
//!   per-node exclusive, so each channel has at most one parked sender.
//!
//! Arbitration fairness is preserved exactly. Each cycle sets one bit
//! per actor (drainer, due timer, wake, eager packet) in a bitmap over
//! active-list positions, then walks the set bits from the rotating
//! head `rr`: positions `[rr, n)` and then `[0, rr)`, which is the
//! reference engine's scan order. A packet's arbitration key is its
//! distance from `rr`, read off the position with no division. This is
//! exact because positions cannot change during the walk: completions
//! are removed only after it, and injections are appended only after
//! it. A channel freed mid-cycle wakes its waiters into the *same*
//! cycle if and only if their key comes later; such a waiter lies ahead
//! of the walk's cursor, so setting its bit is enough for the walk to
//! reach it. The outcomes are byte-identical, checked cycle by cycle
//! against the reference in `differential.rs`.
//!
//! # Event compression
//!
//! Because the engine knows why every packet is waiting, it can also tell
//! when *nothing* in the network can change: no drainer, no eager packet,
//! no pending wake, no injectable packet — only routing-delay timers and
//! blocked headers whose channels cannot be released before the next
//! timer fires. [`Network::skippable_cycles`] reports how many upcoming
//! cycles are provably inert and [`Network::skip_cycles`] applies them in
//! O(1) (counter bumps only), which is what lets the simulator's inner
//! loop jump over idle and fully-blocked stretches instead of stepping
//! them cycle by cycle. See `docs/PERFORMANCE.md` for the argument that
//! this preserves cycle-accurate semantics.

use crate::packet::{PacketId, PacketState};
use crate::routing::route_into;
use crate::topology::{ChannelId, Topology};
use desim::Time;
use mesh2d::Coord;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

const FREE: u32 = u32::MAX;

/// `inj_node_of` entry of a channel that is not an injection channel.
const NOT_INJECTION: u32 = u32::MAX;

/// A delivered packet, reported once its tail flit is consumed by the
/// destination PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Caller tag (job id).
    pub tag: u64,
    /// Cycle the last flit was ejected.
    pub delivered_at: Time,
    /// Network latency: delivery minus injection (excludes source queueing,
    /// per the paper's metric definition).
    pub latency: u64,
    /// Cycles the header spent blocked waiting for busy channels.
    pub blocked: u64,
    /// Cycles spent waiting in the source PE's injection queue.
    pub queue_delay: u64,
    /// Router-to-router hops traversed.
    pub hops: u32,
}

/// Aggregate counters over the life of the network (never reset by
/// draining completions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCounters {
    /// Packets delivered so far.
    pub delivered: u64,
    /// Summed network latency over delivered packets, in cycles.
    pub total_latency: u64,
    /// Summed header blocking time over delivered packets, in cycles.
    pub total_blocked: u64,
    /// Summed router-to-router hop counts over delivered packets.
    pub total_hops: u64,
    /// Cycles the network has been advanced (stepped or skipped).
    pub cycles: u64,
}

/// Why a packet slot is (or is not) eligible to act in upcoming cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sched {
    /// Still in its source PE's injection queue (or slot unused).
    Queued,
    /// Header in per-node routing delay: it attempts its next channel
    /// acquisition in the cycle with this stamp, and is inert until then.
    AttemptAt(u64),
    /// Header blocked on busy channel `ch`; the slot sits in that
    /// channel's waiter list and accrues blocked cycles lazily starting
    /// at stamp `from`.
    Waiting { ch: u32, from: u64 },
    /// The awaited channel was released; the packet re-attempts at its
    /// next arbitration opportunity, accruing `from..attempt` blocked
    /// cycles first.
    Waking { from: u64 },
    /// Re-attempts every cycle: its channel was free but it lost the
    /// physical-link bandwidth race (only possible when virtual channels
    /// share links, i.e. on the torus).
    Eager,
    /// Header reached the ejection port; the worm streams one flit per
    /// cycle into the destination PE.
    Draining,
}

/// Why a source node's injection queue is (or is not) eligible to inject
/// in upcoming cycles — the node-level mirror of [`Sched`]. A node is in
/// exactly one state, and only `Ready` nodes cost anything per cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InjState {
    /// Injection queue empty; the node is not in `pending_nodes`.
    Idle,
    /// Queue non-empty but the node's injection channel is still owned by
    /// an earlier packet from this same node (injection channels are
    /// per-node exclusive). The node is woken by
    /// [`Network::release_channel`] when the owning worm's tail leaves
    /// the channel, and costs nothing until then.
    Parked,
    /// Queue non-empty and the injection channel is free: the front
    /// packet enters at the next injection phase. The node sits in
    /// `inject_ready`.
    Ready,
}

/// The wormhole network simulator. See the crate docs for the model.
#[derive(Debug)]
pub struct Network {
    topo: Topology,
    /// Router delay per node, the paper's `ts`.
    ts: u32,
    /// Channel owner table: packet slot or `FREE`.
    owner: Vec<u32>,
    /// Packet slab.
    packets: Vec<Option<PacketState>>,
    free_slots: Vec<u32>,
    /// Slots of packets currently inside the network.
    active: Vec<u32>,
    /// Position of each slot in `active` (parallel to `packets`).
    pos: Vec<u32>,
    /// Scheduling state per slot (parallel to `packets`).
    sched: Vec<Sched>,
    /// Head of each channel's intrusive waiter list (`NO_WAITER` when
    /// empty); a packet waits on at most one channel, so a single `next`
    /// pointer per slot threads the lists through the slab.
    waiter_head: Vec<u32>,
    /// Next waiter in the same channel's list (parallel to `packets`).
    waiter_next: Vec<u32>,
    /// Routing-delay timers: (attempt stamp, slot) in arming order. Every
    /// timer is armed at `stamp + ts + 1` with a constant `ts` and a
    /// monotone `stamp`, so arming order is due order and a FIFO is a
    /// priority queue here.
    attempts: VecDeque<(u64, u32)>,
    /// Slots woken for the next cycle (their channel was freed by a
    /// packet at an earlier arbitration position this cycle).
    wake_queue: Vec<u32>,
    /// Slots that re-attempt every cycle (bandwidth-starved; torus only).
    eager: Vec<u32>,
    /// Draining slots (act every cycle).
    drainers: Vec<u32>,
    /// Position of each slot in `drainers` (parallel to `packets`).
    drain_pos: Vec<u32>,
    /// One cycle's actors: bit `q` is set when the packet at active-list
    /// position `q` acts this cycle. Set by the gather and by same-cycle
    /// wakes, cleared by the walk, so all zero between cycles. Holds at
    /// least one bit per active position.
    act_bits: Vec<u64>,
    /// Scratch: active-list positions of the packets that completed this
    /// cycle, in walk order.
    done_pos: Vec<u32>,
    /// Path buffers of completed packets, reused by [`Network::send`].
    spare_paths: Vec<Vec<ChannelId>>,
    /// Per-node injection FIFO (packet slots waiting to enter).
    inject_q: Vec<VecDeque<u32>>,
    /// Nodes with non-empty injection queues, in the exact order the
    /// retired scan engine visited them (push on first enqueue,
    /// `swap_remove` on empty) — the order still decides same-cycle
    /// injection sequence and therefore every future arbitration
    /// position, but it is no longer scanned per cycle.
    pending_nodes: Vec<u32>,
    /// Position of each node in `pending_nodes` (parallel to `inject_q`;
    /// meaningful only while the node is pending).
    pending_pos: Vec<u32>,
    /// Injection scheduling state per node (parallel to `inject_q`).
    inj_state: Vec<InjState>,
    /// Nodes in [`InjState::Ready`]: their front packet enters at the
    /// next injection phase. Unordered — the phase orders them by
    /// `pending_pos` to replay the scan order exactly.
    inject_ready: Vec<u32>,
    /// Scratch heap ordering one cycle's ready nodes by scan position.
    inject_heap: BinaryHeap<Reverse<(u32, u32)>>,
    /// Completions not yet drained by the caller.
    completed: Vec<Completion>,
    counters: NetCounters,
    /// Rotating arbitration offset for fairness.
    rr: usize,
    /// Per-physical-resource bandwidth stamp: the last cycle each
    /// physical link/port carried a flit. Virtual channels of one link
    /// share its bandwidth, so at most one worm crossing a physical link
    /// may advance per cycle.
    phys_stamp: Vec<u64>,
    /// Physical resource of each channel (`Topology::physical_of`,
    /// tabulated so the bandwidth claim does no division).
    phys_of: Vec<u32>,
    /// Node whose injection channel each channel is, or `NOT_INJECTION`
    /// (`Topology::injection_node_of`, tabulated likewise).
    inj_node_of: Vec<u32>,
    /// Whether any physical resource is shared (VCs > 1). On the paper's
    /// single-VC mesh every physical resource has exactly one virtual
    /// channel, so a bandwidth claim can never fail and the per-shift
    /// claim walk is skipped entirely.
    shared_bandwidth: bool,
    /// Current cycle stamp (monotone; independent of the caller's clock).
    stamp: u64,
}

/// Sentinel for an empty intrusive waiter list.
const NO_WAITER: u32 = u32::MAX;

/// The live packet in `slot` of the arena. A free function (not a
/// method) so callers keep split borrows on `Network`'s other fields.
#[inline]
fn live(packets: &[Option<PacketState>], slot: usize) -> &PacketState {
    // procsim-lint: allow(D004): invariant: a slot is only vacated at completion, after it has left every active/waiter/injection list that could name it
    packets[slot].as_ref().expect("invariant: empty packet slot")
}

/// Mutable twin of [`live`].
#[inline]
fn live_mut(packets: &mut [Option<PacketState>], slot: usize) -> &mut PacketState {
    // procsim-lint: allow(D004): invariant: a slot is only vacated at completion, after it has left every active/waiter/injection list that could name it
    packets[slot].as_mut().expect("invariant: empty packet slot")
}

impl Network {
    /// Creates an idle network over a `w × l` mesh (single virtual
    /// channel — the paper's configuration) with per-node routing delay
    /// `ts`.
    pub fn new(w: u16, l: u16, ts: u32) -> Self {
        Self::with_topology(Topology::new(w, l), ts)
    }

    /// Creates an idle network over an arbitrary topology (mesh or torus,
    /// any VC count).
    pub fn with_topology(topo: Topology, ts: u32) -> Self {
        let nodes = topo.nodes() as usize;
        let channels = topo.num_channels() as usize;
        let phys = topo.num_physical() as usize;
        let shared_bandwidth = topo.vcs() > 1;
        let phys_of = (0..topo.num_channels())
            .map(|c| topo.physical_of(ChannelId(c)))
            .collect();
        let inj_node_of = (0..topo.num_channels())
            .map(|c| {
                topo.injection_node_of(ChannelId(c))
                    .unwrap_or(NOT_INJECTION)
            })
            .collect();
        Network {
            topo,
            ts,
            owner: vec![FREE; channels],
            packets: Vec::new(),
            free_slots: Vec::new(),
            active: Vec::new(),
            pos: Vec::new(),
            sched: Vec::new(),
            waiter_head: vec![NO_WAITER; channels],
            waiter_next: Vec::new(),
            attempts: VecDeque::new(),
            wake_queue: Vec::new(),
            eager: Vec::new(),
            drainers: Vec::new(),
            drain_pos: Vec::new(),
            act_bits: Vec::new(),
            done_pos: Vec::new(),
            spare_paths: Vec::new(),
            inject_q: vec![VecDeque::new(); nodes],
            pending_nodes: Vec::new(),
            pending_pos: vec![0; nodes],
            inj_state: vec![InjState::Idle; nodes],
            inject_ready: Vec::new(),
            inject_heap: BinaryHeap::new(),
            completed: Vec::new(),
            counters: NetCounters::default(),
            rr: 0,
            phys_stamp: vec![0; phys],
            phys_of,
            inj_node_of,
            shared_bandwidth,
            stamp: 0,
        }
    }

    /// The closed-form uncontended latency of this model: a header that
    /// never blocks crosses `hops + 2` channels at `ts + 1` cycles per
    /// acquisition after the first, then the body drains at one flit per
    /// cycle.
    pub fn uncontended_latency(hops: u32, plen: u32, ts: u32) -> u64 {
        (hops as u64 + 1) * (ts as u64 + 1) + plen as u64
    }

    /// The topology this network was built over.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Packets waiting in source injection queues.
    pub fn queued_count(&self) -> usize {
        self.pending_nodes
            .iter()
            .map(|&n| self.inject_q[n as usize].len())
            .sum()
    }

    /// True when no packet is in flight or queued.
    #[inline]
    pub fn is_idle(&self) -> bool {
        self.active.is_empty() && self.pending_nodes.is_empty()
    }

    /// Lifetime counters.
    #[inline]
    pub fn counters(&self) -> NetCounters {
        self.counters
    }

    /// Hands a packet of `len_flits` flits to `src`'s injection queue at
    /// time `now`. The route is fixed dimension-ordered (XY on mesh;
    /// minimal with dateline VCs on torus). Returns the packet's slab slot.
    pub fn send(&mut self, src: Coord, dst: Coord, len_flits: u32, tag: u64, now: Time) -> PacketId {
        let mut path = self.spare_paths.pop().unwrap_or_default();
        route_into(&self.topo, src, dst, &mut path);
        let inj = path[0];
        let pkt = PacketState::new(path, len_flits, tag, now);
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.packets[s as usize] = Some(pkt);
                self.sched[s as usize] = Sched::Queued;
                s
            }
            None => {
                self.packets.push(Some(pkt));
                self.pos.push(0);
                self.sched.push(Sched::Queued);
                self.drain_pos.push(0);
                self.waiter_next.push(NO_WAITER);
                // procsim-lint: allow(D005): slot count is bounded by concurrent packets in a <= 2^20-node mesh, far under u32::MAX
                (self.packets.len() - 1) as u32
            }
        };
        let node = (src.y as u32 * self.topo.width() as u32 + src.x as u32) as usize;
        if self.inject_q[node].is_empty() {
            // first packet queued at this node: it joins the pending set
            // and is ready (or parked) according to its injection
            // channel, which only a previous packet from this node can
            // hold
            // procsim-lint: allow(D005): pending_nodes length is bounded by the node count, far under u32::MAX
            self.pending_pos[node] = self.pending_nodes.len() as u32;
            self.pending_nodes.push(node as u32);
            if self.owner[inj.index()] == FREE {
                self.inj_state[node] = InjState::Ready;
                self.inject_ready.push(node as u32);
            } else {
                self.inj_state[node] = InjState::Parked;
            }
        }
        self.inject_q[node].push_back(slot);
        PacketId(slot)
    }

    /// Removes and returns all completions recorded so far.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completed)
    }

    /// Moves all completions recorded so far to the end of `out`. Both
    /// buffers keep their capacity, so a caller that reuses `out` drains
    /// without allocating.
    pub fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        out.append(&mut self.completed);
    }

    /// Arbitration key of `slot` for the current cycle: its distance (in
    /// active-list positions) from the rotating round-robin head. Lower
    /// keys act first, exactly as the reference engine's scan order.
    #[inline]
    fn order_key(&self, slot: u32) -> u32 {
        let p = self.pos[slot as usize] as usize;
        (if p >= self.rr {
            p - self.rr
        } else {
            p + self.active.len() - self.rr
        }) as u32
    }

    /// Marks `slot` to act in this cycle's walk.
    #[inline]
    fn mark_actor(&mut self, slot: u32) {
        let q = self.pos[slot as usize] as usize;
        inv_assert!(
            self.act_bits[q >> 6] & 1 << (q & 63) == 0,
            "actor marked twice"
        );
        self.act_bits[q >> 6] |= 1 << (q & 63);
    }

    /// Arms `slot`'s routing-delay timer: it attempts its next channel
    /// acquisition `ts + 1` cycles from now.
    #[inline]
    fn arm_timer(&mut self, slot: usize) {
        let due = self.stamp + self.ts as u64 + 1;
        inv_assert!(
            self.attempts.back().is_none_or(|&(last, _)| last <= due),
            "routing-delay timer armed out of due order"
        );
        self.sched[slot] = Sched::AttemptAt(due);
        self.attempts.push_back((due, slot as u32));
    }

    /// Advances the network one cycle. `now` is the absolute time of the
    /// cycle being simulated (used to stamp injection and delivery times).
    pub fn step(&mut self, now: Time) {
        self.counters.cycles += 1;
        self.stamp += 1;
        let s = self.stamp;

        // --- movement phase -------------------------------------------------
        // Mark the packets that can possibly act this cycle — drainers,
        // expired routing delays, woken waiters, eager re-attempters — in
        // the activation bitmap, then walk it in rotating-arbitration
        // order. Packets blocked on busy channels and unexpired routing
        // delays are untouched.
        let n = self.active.len();
        if n > 0 {
            // rr was below the previous cycle's list length, so one
            // subtraction wraps it unless completions have since shrunk
            // the list below it
            self.rr += 1;
            while self.rr >= n {
                self.rr -= n;
            }
            for i in 0..self.drainers.len() {
                self.mark_actor(self.drainers[i]);
            }
            while let Some(&(due, slot)) = self.attempts.front() {
                if due > s {
                    break;
                }
                inv_assert_eq!(due, s, "missed a routing-delay timer");
                self.attempts.pop_front();
                self.mark_actor(slot);
            }
            for i in 0..self.wake_queue.len() {
                self.mark_actor(self.wake_queue[i]);
            }
            self.wake_queue.clear();
            for i in 0..self.eager.len() {
                self.mark_actor(self.eager[i]);
            }
            self.eager.clear();

            // walk [rr, n) and then [0, rr): keys are distances from rr
            let rr = self.rr;
            self.walk(rr, n, rr.wrapping_neg(), now);
            let wrapped_from = self.done_pos.len();
            self.walk(0, rr, n - rr, now);

            // remove completed packets largest position first, so
            // swap_remove does not disturb smaller positions — the same
            // order as the reference engine. Each segment was walked in
            // ascending position and the first lies wholly above the
            // second, so that is each segment reversed, first segment first
            let walked = self.done_pos.len();
            for i in (0..wrapped_from).rev().chain((wrapped_from..walked).rev()) {
                let p = self.done_pos[i] as usize;
                let slot = self.active.swap_remove(p);
                if p < self.active.len() {
                    self.pos[self.active[p] as usize] = p as u32;
                }
                if let Some(pkt) = self.packets[slot as usize].take() {
                    self.spare_paths.push(pkt.path);
                }
                self.sched[slot as usize] = Sched::Queued;
                self.free_slots.push(slot);
            }
            self.done_pos.clear();
        }

        // --- injection phase -------------------------------------------------
        // A node's next queued packet enters iff its injection channel is
        // free. Only *ready* nodes are visited: parked senders were woken
        // into `inject_ready` by `release_channel` and cost nothing here.
        // Ready nodes are processed in the exact order the retired scan
        // visited them — ascending `pending_nodes` position, with a node
        // whose queue empties `swap_remove`d mid-phase so the tail node
        // is visited at its new (lower) position — because the resulting
        // `active`-list insertion order fixes every future arbitration
        // position. Newly injected packets do not move until the next
        // cycle.
        if !self.inject_ready.is_empty() {
            inv_assert!(self.inject_heap.is_empty());
            for &node in &self.inject_ready {
                self.inject_heap
                    .push(Reverse((self.pending_pos[node as usize], node)));
            }
            self.inject_ready.clear();
            while let Some(Reverse((p, node))) = self.inject_heap.pop() {
                let node = node as usize;
                if self.inj_state[node] != InjState::Ready || self.pending_pos[node] != p {
                    // stale entry: the node moved to a lower position when
                    // another node was swap_remove'd (a fresh entry with
                    // the new position was pushed then)
                    continue;
                }
                inv_assert!(!self.inject_q[node].is_empty());
                // procsim-lint: allow(D004): invariant: a Ready node's inject_q is non-empty (asserted above)
                let front = *self.inject_q[node]
                    .front()
                    .expect("invariant: ready node with empty inject queue")
                    as usize;
                let inj = live(&self.packets, front).path[0];
                inv_assert_eq!(
                    self.owner[inj.index()],
                    FREE,
                    "ready node with busy injection channel"
                );
                self.inject_q[node].pop_front();
                let pkt = live_mut(&mut self.packets, front);
                self.owner[inj.index()] = front as u32;
                pkt.head = 0;
                pkt.tail = 0;
                pkt.injected = 1;
                pkt.injected_at = now;
                self.arm_timer(front);
                // procsim-lint: allow(D005): active list length is bounded by the packet arena, far under u32::MAX
                self.pos[front] = self.active.len() as u32;
                self.active.push(front as u32);
                if self.active.len() > self.act_bits.len() << 6 {
                    self.act_bits.push(0);
                }
                if self.inject_q[node].is_empty() {
                    // replay the scan's mid-phase swap_remove: the tail
                    // node moves to position `p` and is visited there if
                    // it is ready
                    self.inj_state[node] = InjState::Idle;
                    self.pending_nodes.swap_remove(p as usize);
                    if (p as usize) < self.pending_nodes.len() {
                        let moved = self.pending_nodes[p as usize];
                        self.pending_pos[moved as usize] = p;
                        if self.inj_state[moved as usize] == InjState::Ready {
                            self.inject_heap.push(Reverse((p, moved)));
                        }
                    }
                } else {
                    // the packet just injected owns the channel now; the
                    // node parks until the worm's tail releases it
                    self.inj_state[node] = InjState::Parked;
                }
            }
        }

        #[cfg(feature = "invariants")]
        self.check_consistency();
    }

    /// Runs the actors marked at positions `[from, to)` in ascending
    /// order, with key `position + key_offset` (wrapping), clearing each
    /// bit before its visit. The word is re-read before every visit, so
    /// a same-cycle wake ahead of the cursor is run too. No mask above
    /// `to` is needed: no bit lies at or above `n`, and none at or above
    /// `rr` once `[rr, n)` is walked (a wake there keys below any
    /// releaser in `[0, rr)`, so it goes to `wake_queue`).
    fn walk(&mut self, from: usize, to: usize, key_offset: usize, now: Time) {
        let mut w = from >> 6;
        let mut below_from = (1u64 << (from & 63)) - 1;
        while w << 6 < to {
            let bits = self.act_bits[w] & !below_from;
            if bits == 0 {
                w += 1;
                below_from = 0;
                continue;
            }
            let q = w << 6 | bits.trailing_zeros() as usize;
            self.act_bits[w] ^= 1 << (q & 63);
            let slot = self.active[q] as usize;
            if self.advance_packet(slot, now, q.wrapping_add(key_offset) as u32) {
                self.done_pos.push(q as u32);
            }
        }
    }

    /// Cross-validates the arbitration bookkeeping against the packet
    /// slab: the `active`/`pos` and `drainers`/`drain_pos` permutations
    /// must be mutual inverses over live slots, every channel-owner
    /// entry must name a live packet, the intrusive waiter lists must
    /// thread exactly the `Waiting` packets through the channels they
    /// wait on, and the injection layer's parked/ready node states must
    /// exactly partition `pending_nodes` and agree with the channel
    /// owner table. O(channels + packets + nodes) per cycle; compiled
    /// only under `--features invariants`.
    #[cfg(feature = "invariants")]
    pub fn check_consistency(&self) {
        for (i, &slot) in self.active.iter().enumerate() {
            assert!(
                self.packets[slot as usize].is_some(),
                "active list names a vacated slot {slot}"
            );
            assert_eq!(
                self.pos[slot as usize] as usize, i,
                "pos[] out of sync with active list at {i}"
            );
        }
        for (i, &slot) in self.drainers.iter().enumerate() {
            assert!(
                matches!(self.sched[slot as usize], Sched::Draining),
                "drainer slot {slot} is not draining"
            );
            assert_eq!(
                self.drain_pos[slot as usize] as usize, i,
                "drain_pos[] out of sync with drainer list at {i}"
            );
        }
        for (ch, &own) in self.owner.iter().enumerate() {
            assert!(
                own == FREE || self.packets[own as usize].is_some(),
                "channel {ch} owned by vacated slot {own}"
            );
        }
        let mut listed = 0usize;
        for (ch, &head) in self.waiter_head.iter().enumerate() {
            let mut w = head;
            let mut steps = 0usize;
            while w != NO_WAITER {
                assert!(
                    matches!(self.sched[w as usize], Sched::Waiting { ch: c, .. }
                        if c as usize == ch),
                    "slot {w} threaded on channel {ch}'s waiter list but not waiting on it"
                );
                listed += 1;
                steps += 1;
                assert!(steps <= self.packets.len(), "waiter list cycle on channel {ch}");
                w = self.waiter_next[w as usize];
            }
        }
        let waiting = self
            .active
            .iter()
            .filter(|&&slot| matches!(self.sched[slot as usize], Sched::Waiting { .. }))
            .count();
        assert_eq!(listed, waiting, "waiter lists do not cover the Waiting packets");

        // movement layer: the per-cycle scratch is empty between cycles,
        // the bitmap covers every active position, and the timer FIFO is
        // in due order with nothing overdue
        assert!(
            self.act_bits.iter().all(|&bits| bits == 0) && self.done_pos.is_empty(),
            "movement scratch leaked entries across cycles"
        );
        assert!(
            self.act_bits.len() << 6 >= self.active.len(),
            "activation bitmap shorter than the active list"
        );
        let mut earliest = self.stamp + 1;
        for &(due, slot) in &self.attempts {
            assert!(due >= earliest, "timer FIFO out of due order or overdue at slot {slot}");
            assert_eq!(
                self.sched[slot as usize],
                Sched::AttemptAt(due),
                "timer FIFO entry for slot {slot} disagrees with its scheduling state"
            );
            earliest = due;
        }

        // injection layer: the parked/ready node states must exactly
        // partition the pending set, agree with the queue contents and
        // the channel owner table, and the ready list must mirror the
        // Ready states one-to-one
        assert!(
            self.inject_heap.is_empty(),
            "injection scratch heap leaked entries across cycles"
        );
        let mut ready_listed = vec![false; self.inject_q.len()];
        for &node in &self.inject_ready {
            assert!(
                matches!(self.inj_state[node as usize], InjState::Ready),
                "inject_ready lists node {node} that is not Ready"
            );
            assert!(
                !ready_listed[node as usize],
                "node {node} listed twice in inject_ready"
            );
            ready_listed[node as usize] = true;
        }
        for (i, &node) in self.pending_nodes.iter().enumerate() {
            assert!(
                !self.inject_q[node as usize].is_empty(),
                "pending node {node} has an empty inject_q"
            );
            assert_eq!(
                self.pending_pos[node as usize] as usize, i,
                "pending_pos[] out of sync with pending_nodes at {i}"
            );
        }
        let mut parked_or_ready = 0usize;
        for (node, q) in self.inject_q.iter().enumerate() {
            let state = self.inj_state[node];
            if q.is_empty() {
                assert_eq!(state, InjState::Idle, "node {node} idle-state mismatch");
                assert!(!ready_listed[node], "idle node {node} in inject_ready");
                continue;
            }
            parked_or_ready += 1;
            // procsim-lint: allow(D004): invariant: the q.is_empty() arm above continues, so the queue has a front
            let front = *q.front().expect("non-empty queue has a front") as usize;
            assert!(
                self.packets[front].is_some(),
                "node {node} queues a vacated slot {front}"
            );
            assert!(
                matches!(self.sched[front], Sched::Queued),
                "queued slot {front} has in-network scheduling state"
            );
            let inj = live(&self.packets, front).path[0];
            match state {
                InjState::Idle => panic!("node {node} has queued packets but is Idle"),
                InjState::Parked => {
                    assert_ne!(
                        self.owner[inj.index()],
                        FREE,
                        "parked node {node} with a free injection channel"
                    );
                    assert!(
                        !ready_listed[node],
                        "node {node} is both parked and in the ready set"
                    );
                }
                InjState::Ready => {
                    assert_eq!(
                        self.owner[inj.index()],
                        FREE,
                        "ready node {node} with a busy injection channel"
                    );
                    assert!(ready_listed[node], "ready node {node} missing from inject_ready");
                }
            }
        }
        assert_eq!(
            parked_or_ready,
            self.pending_nodes.len(),
            "parked/ready states do not partition the pending set"
        );
    }

    /// Checks and claims physical-link bandwidth for a worm shift whose
    /// flits land in `path[land_from ..= land_to]`. Returns false (and
    /// claims nothing) when any needed physical resource already carried
    /// a flit this cycle — only possible when virtual channels share
    /// links (torus / VC > 1); on the paper's 1-VC mesh each physical
    /// resource has a single owner and this never fails.
    fn claim_bandwidth(&mut self, slot: usize, land_from: usize, land_to: usize) -> bool {
        if !self.shared_bandwidth {
            // 1 VC: virtual channels map 1:1 onto physical resources and
            // channel ownership is exclusive, so two worms can never
            // contend for bandwidth — the claim trivially succeeds
            return true;
        }
        let lands = &live(&self.packets, slot).path[land_from..=land_to];
        let phys_of = &self.phys_of;
        let stamp = self.stamp;
        if lands
            .iter()
            .any(|ch| self.phys_stamp[phys_of[ch.index()] as usize] == stamp)
        {
            return false;
        }
        for ch in lands {
            self.phys_stamp[phys_of[ch.index()] as usize] = stamp;
        }
        true
    }

    /// Releases channel `ch` and wakes its waiters. A waiter whose
    /// arbitration position comes after `key` (the releasing packet's
    /// position) attempts within the *current* cycle — in the reference
    /// engine it would scan the channel after the release. A waiter that
    /// already had its (failed) attempt this cycle is queued for the next.
    ///
    /// Releasing an injection channel instead wakes the (unique) sender
    /// parked on it: the node becomes ready and its front packet enters
    /// at this cycle's injection phase — which runs after the whole
    /// movement phase, so a mid-movement release is always "in time",
    /// exactly as the retired scan saw post-movement channel state.
    fn release_channel(&mut self, ch: usize, key: u32) {
        self.owner[ch] = FREE;
        let node = self.inj_node_of[ch];
        if node != NOT_INJECTION {
            let node = node as usize;
            if self.inj_state[node] == InjState::Parked {
                self.inj_state[node] = InjState::Ready;
                self.inject_ready.push(node as u32);
            }
            // a packet header never waits on an injection channel (only
            // same-node packets route through it, and they enter via the
            // injection phase), so the waiter list below is empty
            inv_assert_eq!(self.waiter_head[ch], NO_WAITER);
            return;
        }
        let mut w = self.waiter_head[ch];
        if w == NO_WAITER {
            return;
        }
        self.waiter_head[ch] = NO_WAITER;
        while w != NO_WAITER {
            let Sched::Waiting { ch: c2, from } = self.sched[w as usize] else {
                unreachable!("waiter list out of sync with scheduling state");
            };
            inv_assert_eq!(c2 as usize, ch);
            self.sched[w as usize] = Sched::Waking { from };
            if self.order_key(w) > key {
                // ahead of the walk's cursor: it acts this cycle
                self.mark_actor(w);
            } else {
                self.wake_queue.push(w);
            }
            let next = self.waiter_next[w as usize];
            self.waiter_next[w as usize] = NO_WAITER;
            w = next;
        }
    }

    /// Advances one eligible packet by one cycle. `key` is its arbitration
    /// position this cycle. Returns true when the packet has fully drained
    /// and its slot should be reclaimed.
    fn advance_packet(&mut self, slot: usize, now: Time, key: u32) -> bool {
        #[cfg(any(debug_assertions, feature = "invariants"))]
        live(&self.packets, slot).check_invariant();
        let s = self.stamp;
        match self.sched[slot] {
            Sched::Draining => {
                let pkt = live(&self.packets, slot);
                // One flit streams into the destination PE per cycle — if
                // the physical links under the worm have bandwidth left.
                let injecting = pkt.injected < pkt.len_flits;
                let land_from = if injecting { pkt.tail } else { pkt.tail + 1 };
                let land_to = pkt.path.len() - 1;
                if land_from <= land_to && !self.claim_bandwidth(slot, land_from, land_to) {
                    live_mut(&mut self.packets, slot).blocked_cycles += 1;
                    return false;
                }
                let pkt = live_mut(&mut self.packets, slot);
                pkt.ejected += 1;
                if pkt.injected < pkt.len_flits {
                    // a fresh flit enters the inject channel in the same shift
                    pkt.injected += 1;
                } else {
                    // tail flit moved forward: release the rearmost channel
                    let freed = pkt.path[pkt.tail].index();
                    pkt.tail += 1;
                    self.release_channel(freed, key);
                }
                let pkt = live(&self.packets, slot);
                if pkt.ejected == pkt.len_flits {
                    let c = Completion {
                        tag: pkt.tag,
                        delivered_at: now,
                        latency: now - pkt.injected_at,
                        blocked: pkt.blocked_cycles,
                        queue_delay: pkt.injected_at - pkt.queued_at,
                        hops: pkt.hops(),
                    };
                    self.counters.delivered += 1;
                    self.counters.total_latency += c.latency;
                    self.counters.total_blocked += c.blocked;
                    self.counters.total_hops += c.hops as u64;
                    self.completed.push(c);
                    // drop out of the per-cycle drainer set
                    let dp = self.drain_pos[slot] as usize;
                    self.drainers.swap_remove(dp);
                    if dp < self.drainers.len() {
                        self.drain_pos[self.drainers[dp] as usize] = dp as u32;
                    }
                    return true;
                }
                false
            }
            Sched::AttemptAt(due) => {
                inv_assert_eq!(due, s, "routing-delay timer fired off-cycle");
                self.try_advance_header(slot, now, key)
            }
            Sched::Waking { from } => {
                // settle the blocked cycles the reference engine would
                // have accrued one by one while the channel stayed busy
                live_mut(&mut self.packets, slot).blocked_cycles += s - from;
                self.try_advance_header(slot, now, key)
            }
            Sched::Eager => self.try_advance_header(slot, now, key),
            Sched::Queued | Sched::Waiting { .. } => {
                unreachable!("inert packet marked in the activation bitmap")
            }
        }
    }

    /// One header acquisition attempt (the reference engine's
    /// countdown-expired path), with waiter-list bookkeeping on failure.
    fn try_advance_header(&mut self, slot: usize, _now: Time, key: u32) -> bool {
        let s = self.stamp;
        let pkt = live(&self.packets, slot);
        inv_assert!(!pkt.draining);
        let next = pkt.head + 1;
        let next_ch = pkt.path[next];
        if self.owner[next_ch.index()] != FREE {
            // wormhole blocking: hold every occupied channel and wait on
            // the busy one; cycles until the wake accrue lazily
            live_mut(&mut self.packets, slot).blocked_cycles += 1;
            self.sched[slot] = Sched::Waiting {
                ch: next_ch.index() as u32,
                from: s + 1,
            };
            self.waiter_next[slot] = self.waiter_head[next_ch.index()];
            self.waiter_head[next_ch.index()] = slot as u32;
            return false;
        }
        // bandwidth: the shift lands flits in [tail(+1) ..= next]
        let injecting = pkt.injected < pkt.len_flits;
        let land_from = if injecting { pkt.tail } else { pkt.tail + 1 };
        if !self.claim_bandwidth(slot, land_from, next) {
            // channel free but the physical link is saturated this cycle:
            // must re-attempt every cycle, like the reference engine
            live_mut(&mut self.packets, slot).blocked_cycles += 1;
            self.sched[slot] = Sched::Eager;
            self.eager.push(slot as u32);
            return false;
        }
        // acquire and shift the worm forward one slot
        let pkt = live_mut(&mut self.packets, slot);
        self.owner[next_ch.index()] = slot as u32;
        pkt.head = next;
        let mut freed: Option<usize> = None;
        if pkt.injected < pkt.len_flits {
            pkt.injected += 1; // new flit enters behind; tail stays
        } else {
            let f = pkt.path[pkt.tail].index();
            pkt.tail += 1;
            freed = Some(f);
        }
        if next == pkt.path.len() - 1 {
            pkt.draining = true; // header reached the ejection port
            self.sched[slot] = Sched::Draining;
            // procsim-lint: allow(D005): drainers length is bounded by the packet arena, far under u32::MAX
            self.drain_pos[slot] = self.drainers.len() as u32;
            self.drainers.push(slot as u32);
        } else {
            // routing delay at the node just entered
            self.arm_timer(slot);
        }
        if let Some(f) = freed {
            self.release_channel(f, key);
        }
        false
    }

    /// Number of upcoming cycles in which provably *nothing* in the
    /// network can change (no packet can move, inject, or complete): the
    /// stretch until the earliest routing-delay timer can fire. Returns 0
    /// when the next cycle must be simulated. The skipped cycles' only
    /// effects — routing-delay countdowns, blocked-cycle accrual, the
    /// arbitration rotation — are applied in O(1) by
    /// [`Network::skip_cycles`].
    ///
    /// O(1): queued senders are accounted for by the ready set without
    /// scanning them — a parked sender's injection channel is owned by an
    /// earlier packet from the same node, and that owner can only release
    /// it by moving, which itself requires a non-inert cycle (see
    /// `docs/PERFORMANCE.md`).
    pub fn skippable_cycles(&self) -> u64 {
        if !self.drainers.is_empty() || !self.eager.is_empty() || !self.wake_queue.is_empty() {
            return 0;
        }
        // a ready node's front packet enters next cycle
        if !self.inject_ready.is_empty() {
            return 0;
        }
        // every active packet is now Waiting or AttemptAt and every
        // queued sender is parked; nothing can happen before the earliest
        // timer fires
        match self.attempts.front() {
            Some(&(due, _)) => due - self.stamp - 1,
            None => 0,
        }
    }

    /// Applies `k` provably inert cycles at once: bumps the cycle
    /// counters and the arbitration rotation. Callers must not pass more
    /// than [`Network::skippable_cycles`] reported.
    pub fn skip_cycles(&mut self, k: u64) {
        self.counters.cycles += k;
        self.stamp += k;
        let n = self.active.len();
        if n > 0 {
            self.rr = (self.rr + (k % n as u64) as usize) % n;
        }
    }

    /// The earliest absolute cycle at or after which the network state can
    /// change, given the current time `now` — `None` when the network is
    /// idle (it then changes only through [`Network::send`]). The gap to
    /// `now` is computed in O(1), not by stepping: queued senders are
    /// accounted for by the parked/ready states without scanning them.
    /// Compiled for tests only.
    #[cfg(test)]
    pub(crate) fn next_progress_time(&self, now: Time) -> Option<Time> {
        if self.is_idle() {
            None
        } else {
            Some(now + 1 + self.skippable_cycles())
        }
    }

    /// Advances the network from `now` to at most `until`, compressing
    /// inert stretches, and stopping early at the end of any cycle that
    /// delivered a packet (so the caller can react to completions).
    /// Returns the time reached. Callers should have drained pending
    /// completions first — the early stop checks the completion buffer.
    /// Compiled for tests only: it drives the reference equivalence
    /// tests and the differential battery's compressed checkpoints.
    #[cfg(test)]
    pub(crate) fn advance_until(&mut self, mut now: Time, until: Time) -> Time {
        while now < until {
            if self.is_idle() {
                return until;
            }
            let k = self.skippable_cycles().min(until - now);
            if k > 0 {
                self.skip_cycles(k);
                now += k;
                continue;
            }
            now += 1;
            self.step(now);
            if !self.completed.is_empty() {
                break;
            }
        }
        now
    }

    /// Runs the network until idle, starting at `start`; returns the first
    /// idle cycle. Intended for tests and standalone experiments — the full
    /// simulator interleaves compressed advancement with job-level events
    /// instead.
    pub fn run_until_idle(&mut self, start: Time) -> Time {
        let mut t = start;
        while !self.is_idle() {
            let k = self.skippable_cycles();
            if k > 0 {
                self.skip_cycles(k);
                t += k;
            }
            self.step(t);
            t += 1;
        }
        t
    }
}

/// Test-only projection of everything that decides *future* behaviour of
/// an engine: the rotating arbitration state, the channel ownership, and
/// the injection queues in visit order. Two engines whose snapshots are
/// equal at a cycle boundary — and stay equal at every later boundary —
/// are observationally identical. Compared cycle-by-cycle by the
/// differential battery in `crate::differential`.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArbSnapshot {
    /// Active packet slots in arbitration (position) order.
    pub active: Vec<u32>,
    /// Rotating arbitration offset.
    pub rr: usize,
    /// Channel owner table (slot or `u32::MAX` for free).
    pub owner: Vec<u32>,
    /// Nodes with queued packets, in injection-phase visit order.
    pub pending_nodes: Vec<u32>,
    /// Per-node injection FIFO contents (packet slots, front first).
    pub inject_q: Vec<Vec<u32>>,
    /// Lifetime counters.
    pub counters: NetCounters,
}

#[cfg(test)]
impl Network {
    /// Captures this engine's [`ArbSnapshot`].
    pub fn arb_snapshot(&self) -> ArbSnapshot {
        ArbSnapshot {
            active: self.active.clone(),
            rr: self.rr,
            owner: self.owner.clone(),
            pending_nodes: self.pending_nodes.clone(),
            inject_q: self
                .inject_q
                .iter()
                .map(|q| q.iter().copied().collect())
                .collect(),
            counters: self.counters,
        }
    }

    /// Number of sender nodes parked on a busy injection channel
    /// (test-only: lets the battery assert a scenario actually exercised
    /// the parked path).
    pub fn parked_nodes(&self) -> usize {
        self.inj_state
            .iter()
            .filter(|&&s| s == InjState::Parked)
            .count()
    }

    /// Number of sender nodes whose front packet enters at the next
    /// injection phase.
    pub fn ready_nodes(&self) -> usize {
        self.inject_ready.len()
    }

    /// The channel each active packet's header waits on, in active-list
    /// order (test-only: lets the battery spot same-cycle wakes).
    pub fn awaited_channels(&self) -> Vec<Option<u32>> {
        self.active
            .iter()
            .map(|&slot| match self.sched[slot as usize] {
                Sched::Waiting { ch, .. } => Some(ch),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLEN: u32 = 8;
    const TS: u32 = 3;

    fn net(w: u16, l: u16) -> Network {
        Network::new(w, l, TS)
    }

    #[test]
    fn channel_tables_agree_with_topology() {
        use crate::topology::TopologyKind;
        for topo in [
            Topology::new(16, 22),
            Topology::new_torus(16, 22),
            Topology::with_kind(4, 3, TopologyKind::Mesh, 3),
        ] {
            let n = Network::with_topology(topo.clone(), TS);
            assert_eq!(n.shared_bandwidth, topo.vcs() > 1);
            assert_eq!(n.phys_of.len(), topo.num_channels() as usize);
            assert_eq!(n.inj_node_of.len(), topo.num_channels() as usize);
            for c in 0..topo.num_channels() {
                let ch = ChannelId(c);
                assert_eq!(
                    n.phys_of[ch.index()],
                    topo.physical_of(ch),
                    "{topo:?} {ch:?}"
                );
                let node = n.inj_node_of[ch.index()];
                let node = (node != NOT_INJECTION).then_some(node);
                assert_eq!(node, topo.injection_node_of(ch), "{topo:?} {ch:?}");
            }
        }
    }

    #[test]
    fn single_packet_uncontended_latency() {
        for (src, dst) in [
            (Coord::new(0, 0), Coord::new(5, 0)),
            (Coord::new(0, 0), Coord::new(0, 7)),
            (Coord::new(2, 3), Coord::new(6, 9)),
            (Coord::new(4, 4), Coord::new(4, 4)),
        ] {
            let mut n = net(16, 22);
            n.send(src, dst, PLEN, 1, 0);
            n.run_until_idle(0);
            let c = n.drain_completions();
            assert_eq!(c.len(), 1);
            let hops = src.manhattan(&dst);
            assert_eq!(
                c[0].latency,
                Network::uncontended_latency(hops, PLEN, TS),
                "{src} -> {dst}"
            );
            assert_eq!(c[0].blocked, 0);
            assert_eq!(c[0].hops, hops);
        }
    }

    #[test]
    fn latency_grows_with_distance() {
        let mut lat = Vec::new();
        for d in [1u16, 4, 8, 12] {
            let mut n = net(16, 22);
            n.send(Coord::new(0, 0), Coord::new(d, 0), PLEN, 0, 0);
            n.run_until_idle(0);
            lat.push(n.drain_completions()[0].latency);
        }
        assert!(lat.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn disjoint_packets_do_not_interact() {
        let mut n = net(16, 22);
        n.send(Coord::new(0, 0), Coord::new(5, 0), PLEN, 0, 0);
        n.send(Coord::new(0, 5), Coord::new(5, 5), PLEN, 1, 0);
        n.run_until_idle(0);
        for c in n.drain_completions() {
            assert_eq!(c.latency, Network::uncontended_latency(5, PLEN, TS));
            assert_eq!(c.blocked, 0);
        }
    }

    #[test]
    fn same_source_serializes_through_injection() {
        // Two packets from one node: the second waits in the source queue
        // until the first's tail clears the injection channel, and its
        // queue_delay (not its latency) reflects that wait.
        let mut n = net(16, 22);
        n.send(Coord::new(0, 0), Coord::new(8, 0), PLEN, 0, 0);
        n.send(Coord::new(0, 0), Coord::new(8, 0), PLEN, 1, 0);
        n.run_until_idle(0);
        let cs = n.drain_completions();
        assert_eq!(cs.len(), 2);
        let first = cs.iter().find(|c| c.tag == 0).unwrap();
        let second = cs.iter().find(|c| c.tag == 1).unwrap();
        assert_eq!(first.queue_delay, 0);
        assert!(second.queue_delay > 0, "second must queue at the source");
        assert!(second.delivered_at > first.delivered_at);
    }

    #[test]
    fn head_on_contention_blocks_exactly_one_packet() {
        // Two packets cross the same link in the same direction; one blocks.
        let mut n = net(16, 22);
        n.send(Coord::new(0, 0), Coord::new(6, 0), PLEN, 0, 0);
        n.send(Coord::new(1, 0), Coord::new(6, 0), PLEN, 1, 0);
        n.run_until_idle(0);
        let cs = n.drain_completions();
        let blocked: Vec<_> = cs.iter().filter(|c| c.blocked > 0).collect();
        assert_eq!(blocked.len(), 1, "exactly one of the two packets blocks: {cs:?}");
    }

    #[test]
    fn ejection_contention_serializes_delivery() {
        // Many packets to one destination: ejection channel is the
        // bottleneck; all must still be delivered (no deadlock).
        let mut n = net(8, 8);
        for i in 0..8u16 {
            if i != 4 {
                n.send(Coord::new(i, 0), Coord::new(4, 4), PLEN, i as u64, 0);
            }
        }
        let end = n.run_until_idle(0);
        let cs = n.drain_completions();
        assert_eq!(cs.len(), 7);
        assert!(cs.iter().any(|c| c.blocked > 0), "hotspot must cause blocking");
        assert!(end > 0);
    }

    #[test]
    fn all_to_all_delivers_everything() {
        // 4x4 sub-population all-to-all: heavy contention, conservation of
        // packets, no deadlock (XY routing).
        let mut n = net(16, 22);
        let nodes: Vec<Coord> = (0..4u16)
            .flat_map(|y| (0..4u16).map(move |x| Coord::new(x, y)))
            .collect();
        let mut sent = 0u64;
        for (i, &s) in nodes.iter().enumerate() {
            for (j, &d) in nodes.iter().enumerate() {
                if i != j {
                    n.send(s, d, PLEN, (i * 16 + j) as u64, 0);
                    sent += 1;
                }
            }
        }
        n.run_until_idle(0);
        let cs = n.drain_completions();
        assert_eq!(cs.len() as u64, sent);
        assert_eq!(n.counters().delivered, sent);
        assert!(n.is_idle());
        // all channels released
        assert!(n.owner.iter().all(|&o| o == FREE));
        // and no stale scheduling state survives
        assert!(n.waiter_head.iter().all(|&w| w == NO_WAITER));
        assert!(n.drainers.is_empty() && n.eager.is_empty() && n.wake_queue.is_empty());
        assert!(n.attempts.is_empty());
        // the injection layer is clean too: no parked or ready senders
        assert!(n.inj_state.iter().all(|&st| st == InjState::Idle));
        assert!(n.inject_ready.is_empty() && n.inject_heap.is_empty());
        assert!(n.pending_nodes.is_empty());
        assert!(n.act_bits.iter().all(|&bits| bits == 0) && n.done_pos.is_empty());
    }

    #[test]
    fn contended_latency_exceeds_uncontended() {
        let mut quiet = net(16, 22);
        quiet.send(Coord::new(0, 0), Coord::new(7, 0), PLEN, 0, 0);
        quiet.run_until_idle(0);
        let base = quiet.drain_completions()[0].latency;

        let mut busy = net(16, 22);
        // cross traffic along the same row
        for y in 0..1u16 {
            for x in 0..6u16 {
                busy.send(Coord::new(x, y), Coord::new(7, y), PLEN, 99, 0);
            }
        }
        busy.send(Coord::new(0, 0), Coord::new(7, 0), PLEN, 0, 0);
        busy.run_until_idle(0);
        let cs = busy.drain_completions();
        let mine = cs.iter().find(|c| c.tag == 0).unwrap();
        assert!(
            mine.latency >= base,
            "contended {} < uncontended {base}",
            mine.latency
        );
        assert!(cs.iter().map(|c| c.blocked).sum::<u64>() > 0);
    }

    #[test]
    fn counters_accumulate() {
        let mut n = net(8, 8);
        n.send(Coord::new(0, 0), Coord::new(3, 3), PLEN, 0, 0);
        n.run_until_idle(0);
        n.send(Coord::new(1, 1), Coord::new(2, 2), PLEN, 1, 100);
        let mut t = 100;
        while !n.is_idle() {
            n.step(t);
            t += 1;
        }
        let c = n.counters();
        assert_eq!(c.delivered, 2);
        assert!(c.total_latency > 0);
        assert_eq!(c.total_hops, 6 + 2);
    }

    #[test]
    fn single_flit_packets_work() {
        let mut n = net(8, 8);
        n.send(Coord::new(0, 0), Coord::new(4, 0), 1, 0, 0);
        n.run_until_idle(0);
        let c = n.drain_completions();
        assert_eq!(c[0].latency, Network::uncontended_latency(4, 1, TS));
    }

    #[test]
    fn is_idle_transitions() {
        let mut n = net(4, 4);
        assert!(n.is_idle());
        n.send(Coord::new(0, 0), Coord::new(1, 0), PLEN, 0, 0);
        assert!(!n.is_idle());
        n.run_until_idle(0);
        assert!(n.is_idle());
    }

    #[test]
    fn skip_is_equivalent_to_stepping() {
        // the compressed and cycle-by-cycle advancement of the *same*
        // engine must agree exactly (this is the core event-compression
        // invariant: skipped cycles change nothing)
        let traffic: Vec<(Coord, Coord)> = vec![
            (Coord::new(0, 0), Coord::new(7, 5)),
            (Coord::new(1, 0), Coord::new(7, 5)),
            (Coord::new(3, 3), Coord::new(0, 0)),
            (Coord::new(7, 7), Coord::new(0, 7)),
            (Coord::new(2, 2), Coord::new(2, 6)),
        ];
        let mut stepped = net(8, 8);
        let mut skipped = net(8, 8);
        for (i, &(s, d)) in traffic.iter().enumerate() {
            stepped.send(s, d, PLEN, i as u64, 0);
            skipped.send(s, d, PLEN, i as u64, 0);
        }
        let mut t = 0;
        while !stepped.is_idle() {
            stepped.step(t);
            t += 1;
        }
        let end = skipped.run_until_idle(0);
        assert_eq!(end, t);
        assert_eq!(stepped.drain_completions(), skipped.drain_completions());
        assert_eq!(stepped.counters(), skipped.counters());
    }

    #[test]
    fn skippable_cycles_reports_routing_delay_stretches() {
        // one packet alternates acquisition cycles with ts routing-delay
        // cycles; while it counts down, the network must report the
        // remaining stretch as skippable
        let mut n = net(8, 8);
        n.send(Coord::new(0, 0), Coord::new(4, 0), PLEN, 0, 0);
        let mut t = 0;
        n.step(t); // injection
        let mut saw_skip = false;
        while !n.is_idle() {
            let k = n.skippable_cycles();
            assert!(k <= TS as u64, "stretch cannot exceed the routing delay");
            if k > 0 {
                saw_skip = true;
                n.skip_cycles(k);
                t += k;
            }
            t += 1;
            n.step(t);
        }
        assert!(saw_skip, "an uncontended worm must expose skippable stretches");
    }

    #[test]
    fn next_progress_time_matches_skippable_and_idleness() {
        let mut n = net(8, 8);
        assert_eq!(n.next_progress_time(5), None, "idle network never progresses");
        n.send(Coord::new(0, 0), Coord::new(4, 0), PLEN, 0, 0);
        let mut t = 0;
        while !n.is_idle() {
            // the reported time is exactly the first non-inert cycle
            let np = n.next_progress_time(t).unwrap();
            assert_eq!(np, t + 1 + n.skippable_cycles());
            assert!(np > t);
            t = n.advance_until(t, np);
            assert_eq!(t, np, "advance_until must reach the progress cycle");
        }
        assert_eq!(n.next_progress_time(t), None);
        assert_eq!(n.drain_completions().len(), 1);
    }

    #[test]
    fn advance_until_stops_at_completions_and_bound() {
        let mut n = net(8, 8);
        n.send(Coord::new(0, 0), Coord::new(3, 0), PLEN, 7, 0);
        // far bound: must stop right when the packet completes
        let t = n.advance_until(0, 1_000_000);
        let cs = n.drain_completions();
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].delivered_at, t);
        assert!(n.is_idle());
        // idle network: jumps straight to the bound
        assert_eq!(n.advance_until(t, t + 500), t + 500);
        // tight bound: never advances past it
        n.send(Coord::new(0, 0), Coord::new(7, 7), PLEN, 8, t + 500);
        let t2 = n.advance_until(t + 500, t + 503);
        assert_eq!(t2, t + 503);
        assert!(n.drain_completions().is_empty());
    }
}
