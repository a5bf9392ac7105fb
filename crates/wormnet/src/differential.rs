//! Differential battery: the waiter-driven engine vs the reference
//! cycle-stepper, compared at **every cycle boundary**.
//!
//! The equivalence tests in [`crate::reference`] compare end-of-run
//! completion streams and counters. This module is stricter: it runs both
//! engines in lockstep and asserts equality of the full [`ArbSnapshot`]
//! (active list in arbitration order, rotating offset, channel owner
//! table, pending nodes in visit order, injection FIFOs, counters) at
//! every checkpoint, plus the drained completions and `queued_count`.
//! Because the snapshot captures everything that decides future behaviour,
//! snapshot equality at every boundary proves the engines observationally
//! identical — not just "same answers on this script" but "same machine".
//!
//! Checkpoints come in three drive modes (see [`Drive`]): single-stepped,
//! compressed via `advance_until`, and a seeded mix of the two. Comparing
//! at compressed checkpoints is sound because every skipped cycle is
//! provably inert (see `docs/PERFORMANCE.md`): an inert cycle changes
//! nothing but `rr` and `counters.cycles`, both of which `skip_cycles`
//! replays in closed form.

// procsim-lint: test-only: included via `#[cfg(test)] mod differential` in lib.rs; never compiled into shipping simulators

use crate::network::{ArbSnapshot, Completion, Network};
use crate::pattern::{pattern_messages, Pattern};
use crate::reference::ReferenceNetwork;
use crate::topology::{Topology, TopologyKind};
use desim::{SimRng, Time};
use mesh2d::Coord;
use proptest::prelude::*;

/// A deterministic traffic script: (send time, src, dst, flits, tag),
/// sorted by send time.
type Script = Vec<(Time, Coord, Coord, u32, u64)>;

/// How the *subject* (optimized) engine is advanced between checkpoints.
/// The reference engine always steps one cycle at a time; the subject's
/// checkpoints define where the two are compared.
#[derive(Debug, Clone, Copy)]
enum Drive {
    /// One cycle per checkpoint: the strongest comparison — every single
    /// cycle boundary is checked.
    Stepped,
    /// `advance_until` toward `now + 1 + skippable_cycles()`, capped at
    /// the next send time: the production access pattern.
    Compressed,
    /// Seeded interleaving of single steps and bounded `advance_until`
    /// chunks, so compression starts and stops at arbitrary points.
    Mixed(u64),
}

/// Both engines plus the script cursor; drives them to completion while
/// checking agreement at every subject checkpoint.
struct DualEngine {
    reference: ReferenceNetwork,
    subject: Network,
    script: Script,
    next: usize,
    now: Time,
    label: String,
    /// Optional record of the subject's same-cycle wakes.
    watch: Option<WakeWatch>,
}

/// The subject's same-cycle wakes, spotted from its state at successive
/// checkpoints. Only exact when checkpoints are one cycle apart
/// ([`Drive::Stepped`]).
#[derive(Default)]
struct WakeWatch {
    /// Each wake seen so far, as (rr, releaser position, waiter position).
    wakes: Vec<(usize, usize, usize)>,
    /// Largest active-list length seen at a checkpoint.
    peak_active: usize,
    /// Active list, channel owners and awaited channels at the last
    /// checkpoint.
    last: (Vec<u32>, Vec<u32>, Vec<Option<u32>>),
}

impl DualEngine {
    fn new(mk_topo: impl Fn() -> Topology, ts: u32, script: Script, label: String) -> Self {
        DualEngine {
            reference: ReferenceNetwork::with_topology(mk_topo(), ts),
            subject: Network::with_topology(mk_topo(), ts),
            script,
            next: 0,
            now: 0,
            label,
            watch: None,
        }
    }

    /// Feeds every script entry due at `self.now` to both engines.
    fn send_due(&mut self) {
        while self.next < self.script.len() && self.script[self.next].0 == self.now {
            let (_, s, d, f, tag) = self.script[self.next];
            self.reference.send(s, d, f, tag, self.now);
            self.subject.send(s, d, f, tag, self.now);
            self.next += 1;
        }
    }

    /// Compares the engines at the current boundary; appends drained
    /// completions (already asserted identical) to `out`.
    fn check(&mut self, out: &mut Vec<Completion>) {
        let a: ArbSnapshot = self.reference.arb_snapshot();
        let b: ArbSnapshot = self.subject.arb_snapshot();
        assert_eq!(a, b, "{}: snapshots diverge at cycle {}", self.label, self.now);
        if let Some(watch) = &mut self.watch {
            // a header that waited on a channel at the last boundary and
            // owns it now was woken by the channel's owner then, and took
            // it in the same cycle
            let (active, owner, awaited) = &watch.last;
            for (p, ch) in awaited.iter().enumerate() {
                let Some(ch) = ch.map(|c| c as usize) else {
                    continue;
                };
                if b.owner[ch] == active[p] {
                    let by = active.iter().position(|&s| s == owner[ch]);
                    let by = by.expect("the releaser was active");
                    watch.wakes.push((b.rr, by, p));
                }
            }
            watch.peak_active = watch.peak_active.max(b.active.len());
            watch.last = (b.active, b.owner, self.subject.awaited_channels());
        }
        assert_eq!(
            self.reference.queued_count(),
            self.subject.queued_count(),
            "{}: queued_count diverges at cycle {}",
            self.label,
            self.now
        );
        assert_eq!(
            self.reference.is_idle(),
            self.subject.is_idle(),
            "{}: idleness diverges at cycle {}",
            self.label,
            self.now
        );
        let done_a = self.reference.drain_completions();
        let done_b = self.subject.drain_completions();
        assert_eq!(
            done_a, done_b,
            "{}: completions diverge at cycle {}",
            self.label, self.now
        );
        out.extend(done_a);
    }

    /// Runs the script to quiescence under `drive`; returns the (verified
    /// identical) completion stream.
    fn run(mut self, drive: Drive) -> Vec<Completion> {
        self.run_in_place(drive)
    }

    /// [`DualEngine::run`] that keeps the engines for inspection.
    fn run_in_place(&mut self, drive: Drive) -> Vec<Completion> {
        let mut out = Vec::new();
        let mut rng = SimRng::new(match drive {
            Drive::Mixed(seed) => seed,
            _ => 0,
        });
        loop {
            self.send_due();
            if self.subject.is_idle() {
                self.check(&mut out);
                if self.next == self.script.len() {
                    break;
                }
                // jump both clocks to the next send without stepping;
                // counters stay untouched across the idle gap
                self.now = self.script[self.next].0;
                continue;
            }
            // strictly in the future: entries at `now` were consumed above
            let next_send = self
                .script
                .get(self.next)
                .map(|e| e.0)
                .unwrap_or(Time::MAX);
            let target = match drive {
                Drive::Stepped => self.now + 1,
                Drive::Compressed => {
                    (self.now + 1 + self.subject.skippable_cycles()).min(next_send)
                }
                Drive::Mixed(_) => {
                    if rng.index(2) == 0 {
                        self.now + 1
                    } else {
                        (self.now + 1 + rng.index(40) as Time).min(next_send)
                    }
                }
            };
            // the subject may stop early (a delivery ends the chunk); the
            // reference replays exactly the cycles the subject covered
            let reached = self.subject.advance_until(self.now, target);
            for t in self.now + 1..=reached {
                self.reference.step(t);
            }
            self.now = reached;
            self.check(&mut out);
        }
        out
    }
}

/// Job-churn traffic tuned to stress the injection layer: pattern waves
/// (as in the equivalence tests) interleaved with deep per-node bursts
/// (many packets serialized through one injection channel — the parked
/// path) and hotspot pulses (waiter churn in the fabric while senders
/// queue behind wedged worms).
fn churn_script(topo: &Topology, seed: u64, jobs: usize) -> Script {
    let mut rng = SimRng::new(seed);
    let (w, l) = (topo.width(), topo.length());
    let mut script: Script = Vec::new();
    let mut t: Time = 0;
    for job in 0..jobs {
        let base = (job * 10_000) as u64;
        match rng.index(3) {
            0 => {
                // a job-like rectangular population under a random pattern
                let pat = Pattern::ALL[rng.index(Pattern::ALL.len())];
                let bw = 2 + rng.index(3) as u16;
                let bl = 2 + rng.index(3) as u16;
                let bx = rng.index((w - bw + 1) as usize) as u16;
                let by = rng.index((l - bl + 1) as usize) as u16;
                let nodes: Vec<Coord> = (by..by + bl)
                    .flat_map(|y| (bx..bx + bw).map(move |x| Coord::new(x, y)))
                    .collect();
                let msgs = pattern_messages(pat, &nodes, 1 + rng.index(3) as u32, &mut rng);
                for (k, (s, d)) in msgs.into_iter().enumerate() {
                    let flits = 1 + rng.index(8) as u32;
                    script.push((t, s, d, flits, base + k as u64));
                }
            }
            1 => {
                // a deep burst from one source: packets serialize through
                // its injection channel, keeping the node parked for long
                let s = Coord::new(rng.index(w as usize) as u16, rng.index(l as usize) as u16);
                let burst = 3 + rng.index(6);
                for k in 0..burst {
                    let d = Coord::new(rng.index(w as usize) as u16, rng.index(l as usize) as u16);
                    let flits = 2 + rng.index(8) as u32;
                    script.push((t, s, d, flits, base + k as u64));
                }
            }
            _ => {
                // a hotspot pulse: many sources target one sink
                let d = Coord::new(rng.index(w as usize) as u16, rng.index(l as usize) as u16);
                let pulse = 4 + rng.index(8);
                for k in 0..pulse {
                    let s = Coord::new(rng.index(w as usize) as u16, rng.index(l as usize) as u16);
                    let flits = 2 + rng.index(6) as u32;
                    script.push((t, s, d, flits, base + k as u64));
                }
            }
        }
        // gaps from 0 (same-wave pile-ups, sends landing on just-freed
        // channels) to long idle stretches (compressed-leap regime)
        t += rng.index(90) as Time;
    }
    script.sort_by_key(|e| e.0);
    script
}

fn drive_for(sel: u64, seed: u64) -> Drive {
    match sel % 3 {
        0 => Drive::Stepped,
        1 => Drive::Compressed,
        _ => Drive::Mixed(seed ^ 0xD1FF_C0DE),
    }
}

/// The acceptance battery: 100 seeds on the mesh plus 100 on the torus,
/// spread across all three drive modes, each run checked snapshot-for-
/// snapshot at every subject checkpoint — at four routing delays, since
/// `ts` sets how routing-delay timers interleave with drainers and wakes
/// in one cycle's walk (`ts = 0` fires a header's timer on
/// the very next cycle).
#[test]
fn battery_200_seeds_mesh_and_torus() {
    for ts in [0u32, 1, 3, 7] {
        for torus in [false, true] {
            for seed in 0..100u64 {
                let mk = move || {
                    if torus {
                        Topology::new_torus(6, 6)
                    } else {
                        Topology::new(6, 6)
                    }
                };
                let script = churn_script(&mk(), seed * 2 + torus as u64, 5);
                let drive = drive_for(seed, seed);
                let label = format!("battery ts={ts} torus={torus} seed={seed} drive={drive:?}");
                DualEngine::new(mk, ts, script, label).run(drive);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized (topology kind, VC count, ts, churn schedule, drive
    /// mode): the engines must agree at every checkpoint. The label baked
    /// into every assert reproduces the failing case without shrinking.
    #[test]
    fn engines_agree_under_random_churn(
        seed in any::<u64>(),
        torus in any::<bool>(),
        extra_vc in 0u32..2,
        ts in 0u32..4,
        jobs in 4usize..9,
        drive_sel in 0u64..3,
    ) {
        let kind = if torus { TopologyKind::Torus } else { TopologyKind::Mesh };
        // torus routing needs >= 2 VCs (dateline); mesh runs on 1
        let vcs = if torus { 2 + extra_vc } else { 1 + extra_vc };
        let mk = move || Topology::with_kind(8, 10, kind, vcs);
        let script = churn_script(&mk(), seed, jobs);
        let drive = drive_for(drive_sel, seed);
        let label = format!(
            "prop seed={seed} torus={torus} vcs={vcs} ts={ts} jobs={jobs} drive={drive:?}"
        );
        DualEngine::new(mk, ts, script, label).run(drive);
    }
}

// --- exact-replay regressions: the hairy orderings named in the issue ---

/// Mid-cycle release waking the queued sender into the *same* cycle: an
/// uncontended worm of `plen` flits frees its injection channel at cycle
/// `1 + plen·(ts+1)` (inject at 1, then the tail leaves `plen` header
/// advances later, each `ts+1` cycles apart); the second packet queued at
/// the same node must inject in exactly that cycle, not the next one.
#[test]
fn same_cycle_release_injects_queued_sender() {
    let ts = 1u32;
    let plen = 2u32;
    let release = 1 + (plen as u64) * (ts as u64 + 1);
    for drive in [Drive::Stepped, Drive::Compressed, Drive::Mixed(11)] {
        let script: Script = vec![
            (0, Coord::new(0, 0), Coord::new(5, 0), plen, 0),
            (0, Coord::new(0, 0), Coord::new(5, 0), plen, 1),
        ];
        let label = format!("same-cycle release drive={drive:?}");
        let done = DualEngine::new(|| Topology::new(6, 6), ts, script, label).run(drive);
        let p2 = done.iter().find(|c| c.tag == 1).expect("second packet delivered");
        // injected_at = delivered_at - latency; queued at cycle 0
        assert_eq!(p2.delivered_at - p2.latency, release);
        assert_eq!(p2.queue_delay, release);
    }
}

/// Two nodes parked on their (distinct) injection channels, both freed in
/// the same cycle: both queued packets inject that cycle, and the
/// snapshot comparison inside the harness pins the rotating-arbitration
/// order (pending order) of the two wakes.
#[test]
fn two_parked_nodes_wake_same_cycle_in_pending_order() {
    let ts = 1u32;
    let plen = 3u32;
    let release = 1 + (plen as u64) * (ts as u64 + 1);
    for drive in [Drive::Stepped, Drive::Compressed] {
        // disjoint east-bound rows: no fabric contention, identical timing
        let script: Script = vec![
            (0, Coord::new(0, 0), Coord::new(5, 0), plen, 0),
            (0, Coord::new(0, 0), Coord::new(5, 0), plen, 1),
            (0, Coord::new(0, 5), Coord::new(5, 5), plen, 2),
            (0, Coord::new(0, 5), Coord::new(5, 5), plen, 3),
        ];
        let label = format!("two parked wakes drive={drive:?}");
        let done = DualEngine::new(|| Topology::new(6, 6), ts, script, label).run(drive);
        for tag in [1u64, 3] {
            let p = done.iter().find(|c| c.tag == tag).unwrap();
            assert_eq!(p.delivered_at - p.latency, release, "tag {tag}");
        }
    }
}

/// First-wave scan-order replay with a mid-phase `swap_remove`: three
/// nodes inject in the same cycle; the first empties its queue, so the
/// *tail* pending node is moved into its slot and must be visited at the
/// new (earlier) position — before the untouched middle node — exactly as
/// the reference scan does via `continue` without advancing its index.
#[test]
fn mid_phase_swap_remove_replays_scan_order() {
    let topo = Topology::new(6, 6);
    let ts = 3u32;
    let mut subject = Network::with_topology(topo, ts);
    // send order fixes slots: A=0, D=1,2, C=3,4; pending order [A, D, C]
    subject.send(Coord::new(0, 0), Coord::new(0, 5), 4, 0, 0); // A, 1 pkt
    subject.send(Coord::new(3, 0), Coord::new(3, 5), 4, 1, 0); // D, 2 pkts
    subject.send(Coord::new(3, 0), Coord::new(3, 5), 4, 2, 0);
    subject.send(Coord::new(5, 0), Coord::new(5, 5), 4, 3, 0); // C, 2 pkts
    subject.send(Coord::new(5, 0), Coord::new(5, 5), 4, 4, 0);
    subject.step(1);
    let snap = subject.arb_snapshot();
    // A injects and empties -> C's tail entry swaps into position 0 and is
    // visited there, before D: active order is [A, C1, D1], not [A, D1, C1]
    assert_eq!(snap.active, vec![0, 3, 1]);
    // the harness cross-checks the same script against the reference
    let script: Script = vec![
        (0, Coord::new(0, 0), Coord::new(0, 5), 4, 0),
        (0, Coord::new(3, 0), Coord::new(3, 5), 4, 1),
        (0, Coord::new(3, 0), Coord::new(3, 5), 4, 2),
        (0, Coord::new(5, 0), Coord::new(5, 5), 4, 3),
        (0, Coord::new(5, 0), Coord::new(5, 5), 4, 4),
    ];
    DualEngine::new(|| Topology::new(6, 6), ts, script, "swap_remove order".into())
        .run(Drive::Stepped);
}

/// A send that lands on a node whose injection channel was freed long ago
/// (node back to idle): it must become ready immediately and inject on
/// the very next cycle — one cycle of queue delay, even when the engine
/// leapt over the idle gap with `advance_until`.
#[test]
fn enqueue_onto_freed_channel_injects_next_cycle() {
    for drive in [Drive::Stepped, Drive::Compressed, Drive::Mixed(7)] {
        let script: Script = vec![
            (0, Coord::new(1, 1), Coord::new(4, 4), 3, 0),
            // long after the first worm drained and the network idled
            (400, Coord::new(1, 1), Coord::new(4, 4), 3, 1),
        ];
        let label = format!("enqueue on freed channel drive={drive:?}");
        let done = DualEngine::new(|| Topology::new(6, 6), 3, script, label).run(drive);
        let p2 = done.iter().find(|c| c.tag == 1).unwrap();
        assert_eq!(p2.queue_delay, 1);
        assert_eq!(p2.delivered_at - p2.latency, 401);
    }
}

/// Parked senders are provably inert: with every in-flight header in
/// routing delay and all queued senders parked, `skippable_cycles` must
/// report a non-zero leap (the old engine had to rescan `pending_nodes`
/// to know this; the new one knows from `inject_ready` alone).
#[test]
fn parked_senders_do_not_block_compression() {
    let ts = 3u32;
    let mut n = Network::with_topology(Topology::new(6, 6), ts);
    n.send(Coord::new(0, 0), Coord::new(5, 5), 8, 0, 0);
    n.send(Coord::new(0, 0), Coord::new(5, 5), 8, 1, 0);
    // cycle 1: first worm injects, second parks behind it
    n.step(1);
    assert_eq!(n.parked_nodes(), 1);
    assert_eq!(n.ready_nodes(), 0);
    // the lone header sits in routing delay until cycle 1 + ts + 1; the
    // parked sender must not force stepping through the gap
    assert_eq!(n.skippable_cycles(), ts as u64);
    // a fresh send on a *free* channel ends the inert stretch at once
    n.send(Coord::new(3, 3), Coord::new(0, 0), 2, 2, 1);
    assert_eq!(n.ready_nodes(), 1);
    assert_eq!(n.skippable_cycles(), 0);
    n.run_until_idle(1);
    assert_eq!(n.counters().delivered, 3);
}

/// A wake that lands *between* two actors marked at the start of the
/// cycle. At cycle 15 (`rr` 0, active order [P0, P2, P1], so keys 0, 1,
/// 2) P0's tail frees the west link out of (4,4). P2 has been waiting
/// on that link, and its key 1 is above P0's, so it wakes into this
/// same cycle. P1's routing-delay timer also fires this cycle, for the
/// same link, with key 2. The engine must run P2 before P1 (the
/// reference's scan order), so P2 takes the link and P1 blocks.
/// Running the mid-cycle wakes only after the rest of the walk would
/// hand the link to P1.
#[test]
fn mid_cycle_wake_between_sorted_actors_acts_in_key_order() {
    let ts = 1u32;
    // slots follow send order: P0 = 0, P1 = 1, P2 = 2
    let script: Script = vec![
        (6, Coord::new(4, 4), Coord::new(1, 1), 3, 0), // P0, westward
        (7, Coord::new(4, 4), Coord::new(3, 5), 5, 1), // P1, queued behind P0
        (7, Coord::new(5, 4), Coord::new(3, 4), 1, 2), // P2, waits on P0
    ];
    let topo = Topology::new(6, 6);
    let west = topo.link(Coord::new(4, 4), crate::topology::Direction::West).index();
    let mut subject = Network::with_topology(topo, ts);
    let mut sent = 0;
    for t in 0..15 {
        while sent < script.len() && script[sent].0 == t {
            let (_, s, d, f, tag) = script[sent];
            subject.send(s, d, f, tag, t);
            sent += 1;
        }
        subject.step(t + 1);
        if t + 1 == 14 {
            let snap = subject.arb_snapshot();
            assert_eq!(snap.active, vec![0, 2, 1]);
            assert_eq!(snap.owner[west], 0, "P0 still holds the link before cycle 15");
        }
    }
    let snap = subject.arb_snapshot();
    assert_eq!(snap.rr, 0);
    assert_eq!(snap.owner[west], 2, "the woken P2 must win the link over P1");

    for drive in [Drive::Stepped, Drive::Compressed, Drive::Mixed(5)] {
        let label = format!("wake between sorted actors drive={drive:?}");
        let done = DualEngine::new(|| Topology::new(6, 6), ts, script.clone(), label).run(drive);
        let p2 = done.iter().find(|c| c.tag == 2).expect("P2 delivered");
        let p1 = done.iter().find(|c| c.tag == 1).expect("P1 delivered");
        assert_eq!((p2.delivered_at, p2.blocked), (18, 3));
        assert_eq!((p1.delivered_at, p1.blocked), (27, 3));
    }
}

/// The activation bitmap at three words and more. Every node of a 12×12
/// mesh sends long worms at once, in three waves, so that 144 packets
/// are in flight together. Compared with the reference at every cycle,
/// the walk must visit same-cycle wakes that lie in a later bitmap word
/// than their releaser and wakes that land in the wrapped segment
/// `[0, rr)`. The test asserts that both kinds of wake happened.
#[test]
fn bitmap_walk_spans_words_and_wraps() {
    let mk = || Topology::new(12, 12);
    let mut rng = SimRng::new(0xB17_5CA9);
    let mut script: Script = Vec::new();
    for wave in 0..3u64 {
        for y in 0..12u16 {
            for x in 0..12u16 {
                let d = Coord::new(rng.index(12) as u16, rng.index(12) as u16);
                let flits = 8 + rng.index(17) as u32;
                let tag = wave << 16 | (y * 12 + x) as u64;
                script.push((wave * 60, Coord::new(x, y), d, flits, tag));
            }
        }
    }
    for ts in [0u32, 3] {
        let label = format!("bitmap walk ts={ts}");
        let mut engines = DualEngine::new(mk, ts, script.clone(), label);
        engines.watch = Some(WakeWatch::default());
        let done = engines.run_in_place(Drive::Stepped);
        assert_eq!(done.len(), script.len());
        let watch = engines.watch.expect("watched");
        let (wakes, peak) = (watch.wakes, watch.peak_active);
        assert!(peak >= 130, "ts={ts}: peak {peak}");
        assert!(
            wakes
                .iter()
                .any(|&(rr, by, p)| p >> 6 > by >> 6 && (p < rr) == (by < rr)),
            "ts={ts}: no wake reached a later bitmap word in the releaser's segment"
        );
        assert!(
            wakes.iter().any(|&(rr, _, p)| p < rr),
            "ts={ts}: no wake landed in [0, rr)"
        );
    }
}
