//! # wormnet — a flit-level wormhole-switched 2D mesh network simulator
//!
//! Reimplements the network model of the ProcSimity simulator the paper
//! builds on (paper §5):
//!
//! * **Wormhole switching.** A packet is a worm of `Plen` flits. The header
//!   flit carves the route; body flits follow in pipeline fashion. When the
//!   header blocks on a busy channel, the whole worm stalls in place and
//!   keeps every channel it occupies — this is the mechanism behind the
//!   paper's *packet blocking time* metric and the contention penalty of
//!   non-contiguous allocation.
//! * **XY (dimension-ordered) routing**, deadlock-free on the mesh.
//! * **Timing.** A flit takes 1 cycle to cross a link and the header takes
//!   `ts` cycles to be routed through each node (`ts = 3` in the paper).
//!   With single-flit channel buffers the worm advances in lock-step with
//!   its header, so the uncontended latency of a packet over `h` hops is
//!   `(h + 1)·(ts + 1) + Plen` cycles counting injection and ejection
//!   ports (see [`Network::uncontended_latency`]).
//! * **Injection/ejection channels.** Each node has one injection and one
//!   ejection port; a node's outgoing packets serialize through its
//!   injection port (time spent queued at the source is *not* part of
//!   packet latency, matching the paper's definition: "the average time for
//!   message packets to reach their destination **once they are injected
//!   into the network**").
//!
//! The cycle engine is *worm-based* rather than per-flit: because buffers
//! hold one flit and a worm always occupies a contiguous window of its
//! path, each packet's full flit state is four integers. A cycle costs
//! O(active packets), which is what makes the paper-scale parameter sweeps
//! (hundreds of millions of cycles) tractable.
//!
//! The network is topology-generic: [`Topology`] names the channels of a
//! mesh **or** a torus (wraparound links, two virtual channels with a
//! dateline switch — see `docs/TOPOLOGIES.md`), and [`route`] picks the
//! matching deadlock-free dimension-ordered route.

// Deep invariant checks: `debug_assert!` in ordinary builds, promoted
// to always-compiled `assert!` under `--features invariants` (see
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
macro_rules! inv_assert_eq {
    ($($arg:tt)*) => {
        if cfg!(feature = "invariants") {
            assert_eq!($($arg)*);
        } else {
            debug_assert_eq!($($arg)*);
        }
    };
}

#[cfg(test)]
mod differential;
pub mod network;
pub mod packet;
pub mod pattern;
#[cfg(test)]
pub mod reference;
pub mod routing;
pub mod topology;

pub use network::{Completion, Network};
pub use packet::PacketId;
pub use pattern::{pattern_messages, pattern_ranks, Pattern};
pub use routing::{route, route_into, xy_route};
pub use topology::{ChannelId, Direction, Topology, TopologyKind};
