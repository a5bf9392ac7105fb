//! Per-packet worm state.

use crate::topology::ChannelId;
use desim::Time;

/// Dense identifier of an in-flight packet (slot in the network's slab).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketId(pub u32);

/// The state of one wormhole packet.
///
/// Because channel buffers hold a single flit and body flits advance in
/// lock-step with the header, a worm always occupies the contiguous channel
/// window `path[tail ..= head]`, with exactly one flit per channel. The
/// whole flit-level state therefore reduces to four counters.
#[derive(Debug, Clone)]
pub struct PacketState {
    /// Full channel path `[inject, links..., eject]`.
    pub(crate) path: Vec<ChannelId>,
    /// Packet length in flits (`Plen`).
    pub(crate) len_flits: u32,
    /// Caller tag (the owning job id in the full simulator).
    pub(crate) tag: u64,
    /// Cycle the packet was handed to the source PE's injection queue.
    pub(crate) queued_at: Time,
    /// Cycle the header acquired the injection channel.
    pub(crate) injected_at: Time,
    /// Cycles the header spent waiting on busy channels ("packet blocking
    /// time", paper §5).
    pub(crate) blocked_cycles: u64,
    /// Index into `path` of the foremost acquired channel.
    pub(crate) head: usize,
    /// Index into `path` of the rearmost channel still held.
    pub(crate) tail: usize,
    /// Flits that have entered the network.
    pub(crate) injected: u32,
    /// Flits consumed by the destination PE.
    pub(crate) ejected: u32,
    /// Remaining routing-delay cycles before the header may attempt its
    /// next channel acquisition. Only the test-gated reference engine
    /// counts delay down cycle by cycle; the compressed engine schedules
    /// acquisition attempts on a timer queue instead.
    #[cfg(test)]
    pub(crate) countdown: u32,
    /// Header has reached the ejection channel; the worm is streaming into
    /// the destination PE at one flit per cycle.
    pub(crate) draining: bool,
}

impl PacketState {
    pub(crate) fn new(path: Vec<ChannelId>, len_flits: u32, tag: u64, queued_at: Time) -> Self {
        debug_assert!(path.len() >= 2, "path must include inject and eject ports");
        debug_assert!(len_flits >= 1);
        PacketState {
            path,
            len_flits,
            tag,
            queued_at,
            injected_at: 0,
            blocked_cycles: 0,
            head: 0,
            tail: 0,
            injected: 0,
            ejected: 0,
            #[cfg(test)]
            countdown: 0,
            draining: false,
        }
    }

    /// Number of router-to-router hops (path minus the two ports).
    #[inline]
    pub fn hops(&self) -> u32 {
        // procsim-lint: allow(D005): a route visits each mesh node at most once, so path length fits u32
        (self.path.len() - 2) as u32
    }

    /// Flits currently inside the network.
    #[inline]
    pub fn flits_in_network(&self) -> u32 {
        self.injected - self.ejected
    }

    /// Debug invariant: window length equals flits in network.
    #[cfg(any(debug_assertions, feature = "invariants"))]
    pub(crate) fn check_invariant(&self) {
        if self.injected > self.ejected {
            debug_assert_eq!(
                (self.head - self.tail + 1) as u32,
                self.flits_in_network(),
                "worm window/flit mismatch"
            );
        }
    }
}
