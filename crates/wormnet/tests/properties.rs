//! Property-based tests: conservation, deadlock-freedom, latency bounds.

use desim::SimRng;
use mesh2d::Coord;
use proptest::prelude::*;
use wormnet::{pattern_messages, pattern_ranks, Network, Pattern};

const TS: u32 = 3;
const PLEN: u32 = 8;

/// Random (src, dst) message sets on a 16x22 mesh.
fn arb_messages() -> impl Strategy<Value = Vec<(Coord, Coord)>> {
    proptest::collection::vec(
        ((0u16..16, 0u16..22), (0u16..16, 0u16..22)),
        1..120,
    )
    .prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|((sx, sy), (dx, dy))| (Coord::new(sx, sy), Coord::new(dx, dy)))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every packet sent is delivered exactly once, every channel is
    /// released, and the network never wedges (XY routing is deadlock-free).
    #[test]
    fn conservation_and_progress(msgs in arb_messages()) {
        let mut net = Network::new(16, 22, TS);
        for (i, &(s, d)) in msgs.iter().enumerate() {
            net.send(s, d, PLEN, i as u64, 0);
        }
        // progress bound: generous ceiling on cycles
        let mut t = 0u64;
        let ceiling = 1_000_000;
        while !net.is_idle() {
            net.step(t);
            t += 1;
            prop_assert!(t < ceiling, "network wedged after {} cycles", t);
        }
        let cs = net.drain_completions();
        prop_assert_eq!(cs.len(), msgs.len());
        // each tag delivered exactly once
        let mut tags: Vec<u64> = cs.iter().map(|c| c.tag).collect();
        tags.sort_unstable();
        tags.dedup();
        prop_assert_eq!(tags.len(), msgs.len());
    }

    /// Latency of every packet is at least the uncontended minimum for its
    /// hop count, and equals it plus its blocking-induced delay lower bound.
    #[test]
    fn latency_bounded_below(msgs in arb_messages()) {
        let mut net = Network::new(16, 22, TS);
        for (i, &(s, d)) in msgs.iter().enumerate() {
            net.send(s, d, PLEN, i as u64, 0);
        }
        net.run_until_idle(0);
        for c in net.drain_completions() {
            let base = Network::uncontended_latency(c.hops, PLEN, TS);
            prop_assert!(c.latency >= base, "latency {} below floor {}", c.latency, base);
            prop_assert!(c.latency >= base + c.blocked,
                "latency {} < floor {} + blocked {}", c.latency, base, c.blocked);
        }
    }

    /// An isolated packet's latency matches the closed form exactly,
    /// for arbitrary packet lengths and ts.
    #[test]
    fn closed_form_latency(sx in 0u16..16, sy in 0u16..22, dx in 0u16..16, dy in 0u16..22,
                           plen in 1u32..32, ts in 0u32..6) {
        let (s, d) = (Coord::new(sx, sy), Coord::new(dx, dy));
        let mut net = Network::new(16, 22, ts);
        net.send(s, d, plen, 0, 0);
        net.run_until_idle(0);
        let c = net.drain_completions();
        prop_assert_eq!(c[0].latency, Network::uncontended_latency(s.manhattan(&d), plen, ts));
    }

    /// The rank form is the pattern: mapping `pattern_ranks` through
    /// `nodes` gives exactly `pattern_messages`, both leave the RNG in
    /// the same state, and every sender's messages form one contiguous
    /// run (no sender's run restarts after another sender's).
    #[test]
    fn rank_form_is_the_pattern(
        n in 1usize..=64,
        order_seed in any::<u64>(),
        m in 0u32..=9,
        pat_i in 0usize..5,
        rng_seed in any::<u64>(),
    ) {
        // n distinct coordinates of a 16x22 mesh, in a shuffled
        // (allocation-like, not row-major) order
        let mut all: Vec<Coord> =
            (0..22u16).flat_map(|y| (0..16u16).map(move |x| Coord::new(x, y))).collect();
        let mut shuffle = SimRng::new(order_seed);
        for i in (1..all.len()).rev() {
            all.swap(i, shuffle.index(i + 1));
        }
        let nodes = &all[..n];
        let pat = Pattern::ALL[pat_i];

        let mut rng_msgs = SimRng::new(rng_seed);
        let msgs = pattern_messages(pat, nodes, m, &mut rng_msgs);
        let mut rng_ranks = SimRng::new(rng_seed);
        let mut ranks = Vec::new();
        pattern_ranks(pat, nodes, m, &mut rng_ranks, |s, d| ranks.push((s, d)));

        let mapped: Vec<(Coord, Coord)> =
            ranks.iter().map(|&(s, d)| (nodes[s as usize], nodes[d as usize])).collect();
        prop_assert_eq!(mapped, msgs);
        prop_assert_eq!(rng_msgs.raw(), rng_ranks.raw());

        let mut finished = vec![false; n];
        for w in ranks.windows(2) {
            if w[0].0 != w[1].0 {
                finished[w[0].0 as usize] = true;
                prop_assert!(!finished[w[1].0 as usize], "sender {} restarts", w[1].0);
            }
        }
    }

    /// Pattern expansion never self-sends and produces the expected volume
    /// for deterministic patterns.
    #[test]
    fn pattern_volume(k in 2usize..40, m in 1u32..12, pat_i in 0usize..5) {
        let nodes: Vec<Coord> = (0..k as u16).map(|i| Coord::new(i % 16, i / 16)).collect();
        let mut rng = SimRng::new(99);
        let pat = Pattern::ALL[pat_i];
        let msgs = pattern_messages(pat, &nodes, m, &mut rng);
        for &(s, d) in &msgs {
            prop_assert_ne!(s, d);
        }
        let expect = match pat {
            Pattern::AllToAll | Pattern::Ring | Pattern::RandomPairs | Pattern::NearNeighbour =>
                k * m as usize,
            Pattern::OneToAll => m as usize,
        };
        prop_assert_eq!(msgs.len(), expect);
    }
}
