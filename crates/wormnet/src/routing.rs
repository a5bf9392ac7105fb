//! Dimension-ordered (XY) routing on mesh and torus.
//!
//! A packet first travels along x to the destination column, then along y
//! to the destination row. On a mesh this is minimal and deadlock-free
//! (the channel dependency graph is acyclic), which is why ProcSimity and
//! the paper assume it for wormhole switching.
//!
//! On a **torus** (the paper's §6 future work) each dimension is a ring:
//! the route takes the shorter way around, and the intra-ring cyclic
//! channel dependency is broken with the classic *dateline* scheme —
//! packets start on virtual channel 0 and switch to virtual channel 1
//! after crossing the dimension's wraparound link, so no cycle of waits
//! can close.

use crate::topology::{ChannelId, Direction, Topology, TopologyKind};
use mesh2d::Coord;

/// Chooses the travel direction and hop count along one ring dimension:
/// shorter way around, ties towards the positive direction.
fn ring_leg(from: u16, to: u16, extent: u16, pos: Direction, neg: Direction) -> (Direction, u16) {
    if from == to {
        return (pos, 0);
    }
    let fwd = (to + extent - from) % extent; // hops going positive
    let bwd = extent - fwd;
    if fwd <= bwd {
        (pos, fwd)
    } else {
        (neg, bwd)
    }
}

/// Computes the full channel path of a packet from `src` to `dst` under
/// `topo`'s kind: `[inject(src), links..., eject(dst)]`.
///
/// Mesh paths use `manhattan(src, dst)` link hops on VC 0. Torus paths
/// use the shortest way around each ring and the dateline VC discipline.
/// A self-message routes through the node's ports only.
pub fn route(topo: &Topology, src: Coord, dst: Coord) -> Vec<ChannelId> {
    let mut path = Vec::with_capacity(topo.distance(src, dst) as usize + 2);
    route_into(topo, src, dst, &mut path);
    path
}

/// [`route`] into a caller-owned buffer: `path` is cleared and refilled,
/// so a recycled buffer makes routing allocation-free.
pub fn route_into(topo: &Topology, src: Coord, dst: Coord, path: &mut Vec<ChannelId>) {
    path.clear();
    match topo.kind() {
        TopologyKind::Mesh => xy_route_into(topo, src, dst, path),
        TopologyKind::Torus => torus_route_into(topo, src, dst, path),
    }
}

/// Mesh XY route (the paper's configuration). See [`route`].
pub fn xy_route(topo: &Topology, src: Coord, dst: Coord) -> Vec<ChannelId> {
    let mut path = Vec::with_capacity(src.manhattan(&dst) as usize + 2);
    xy_route_into(topo, src, dst, &mut path);
    path
}

/// Appends the mesh XY route to `path`.
fn xy_route_into(topo: &Topology, src: Coord, dst: Coord, path: &mut Vec<ChannelId>) {
    debug_assert_eq!(topo.kind(), TopologyKind::Mesh);
    path.push(topo.inject(src));
    let mut cur = src;
    while cur.x != dst.x {
        let d = if dst.x > cur.x {
            Direction::East
        } else {
            Direction::West
        };
        path.push(topo.link(cur, d));
        cur = topo.neighbour(cur, d);
    }
    while cur.y != dst.y {
        let d = if dst.y > cur.y {
            Direction::North
        } else {
            Direction::South
        };
        path.push(topo.link(cur, d));
        cur = topo.neighbour(cur, d);
    }
    path.push(topo.eject(dst));
}

/// Appends the torus minimal dimension-ordered route, with dateline VC
/// switching, to `path`.
fn torus_route_into(topo: &Topology, src: Coord, dst: Coord, path: &mut Vec<ChannelId>) {
    path.push(topo.inject(src));
    let mut cur = src;

    let (dx_dir, dx_hops) = ring_leg(src.x, dst.x, topo.width(), Direction::East, Direction::West);
    let mut vc = 0;
    for _ in 0..dx_hops {
        path.push(topo.link_vc(cur, dx_dir, vc));
        if topo.is_wrap_link(cur, dx_dir) {
            vc = 1; // crossed the x dateline
        }
        cur = topo.neighbour(cur, dx_dir);
    }

    let (dy_dir, dy_hops) = ring_leg(src.y, dst.y, topo.length(), Direction::North, Direction::South);
    let mut vc = 0; // y rings have their own dateline discipline
    for _ in 0..dy_hops {
        path.push(topo.link_vc(cur, dy_dir, vc));
        if topo.is_wrap_link(cur, dy_dir) {
            vc = 1;
        }
        cur = topo.neighbour(cur, dy_dir);
    }

    debug_assert_eq!(cur, dst);
    path.push(topo.eject(dst));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_length_is_manhattan_plus_ports() {
        let t = Topology::new(16, 22);
        let cases = [
            ((0u16, 0u16), (15u16, 21u16)),
            ((3, 4), (3, 4)),
            ((5, 5), (5, 9)),
            ((9, 2), (1, 2)),
            ((15, 21), (0, 0)),
        ];
        for ((sx, sy), (dx, dy)) in cases {
            let s = Coord::new(sx, sy);
            let d = Coord::new(dx, dy);
            let p = xy_route(&t, s, d);
            assert_eq!(p.len() as u32, s.manhattan(&d) + 2, "{s} -> {d}");
            assert_eq!(p[0], t.inject(s));
            assert_eq!(*p.last().unwrap(), t.eject(d));
        }
    }

    #[test]
    fn x_before_y() {
        let t = Topology::new(8, 8);
        let p = xy_route(&t, Coord::new(1, 1), Coord::new(3, 3));
        // inject, E from (1,1), E from (2,1), N from (3,1), N from (3,2), eject
        assert_eq!(p.len(), 6);
        assert_eq!(p[1], t.link(Coord::new(1, 1), Direction::East));
        assert_eq!(p[2], t.link(Coord::new(2, 1), Direction::East));
        assert_eq!(p[3], t.link(Coord::new(3, 1), Direction::North));
        assert_eq!(p[4], t.link(Coord::new(3, 2), Direction::North));
    }

    #[test]
    fn channels_on_path_are_distinct() {
        let t = Topology::new(16, 22);
        for (s, d) in [
            (Coord::new(0, 0), Coord::new(15, 21)),
            (Coord::new(12, 20), Coord::new(2, 3)),
            (Coord::new(7, 0), Coord::new(7, 21)),
        ] {
            let p = xy_route(&t, s, d);
            let mut u: Vec<_> = p.clone();
            u.sort();
            u.dedup();
            assert_eq!(u.len(), p.len());
        }
    }

    #[test]
    fn opposing_routes_share_no_channels() {
        // bidirectional links are two independent channels
        let t = Topology::new(8, 8);
        let a = xy_route(&t, Coord::new(0, 0), Coord::new(5, 0));
        let b = xy_route(&t, Coord::new(5, 0), Coord::new(0, 0));
        for c in &a {
            assert!(!b.contains(c));
        }
    }

    #[test]
    fn torus_takes_shorter_way_around() {
        let t = Topology::new_torus(16, 22);
        // (0,0) -> (15,0): one wrap hop west... east wrap is 1 hop, direct
        // west would be 15
        let p = route(&t, Coord::new(0, 0), Coord::new(15, 0));
        assert_eq!(p.len(), 1 + 2, "one link hop plus two ports: {p:?}");
        // (0,0) -> (8,0): equidistant (8 both ways), tie goes east
        let p = route(&t, Coord::new(0, 0), Coord::new(8, 0));
        assert_eq!(p.len(), 8 + 2);
        assert_eq!(p[1], t.link_vc(Coord::new(0, 0), Direction::East, 0));
    }

    #[test]
    fn torus_path_length_is_ring_distance() {
        let t = Topology::new_torus(16, 22);
        for (s, d) in [
            (Coord::new(0, 0), Coord::new(15, 21)),
            (Coord::new(2, 2), Coord::new(14, 20)),
            (Coord::new(5, 5), Coord::new(5, 5)),
        ] {
            let p = route(&t, s, d);
            assert_eq!(p.len() as u32, t.distance(s, d) + 2, "{s} -> {d}");
        }
    }

    #[test]
    fn torus_dateline_switches_vc() {
        let t = Topology::new_torus(8, 8);
        // (6,0) -> (1,0): east through the wrap at x=7
        let p = route(&t, Coord::new(6, 0), Coord::new(1, 0));
        // hops: (6,0)E vc0, (7,0)E vc0 [wrap], (0,0)E vc1
        assert_eq!(p[1], t.link_vc(Coord::new(6, 0), Direction::East, 0));
        assert_eq!(p[2], t.link_vc(Coord::new(7, 0), Direction::East, 0));
        assert_eq!(p[3], t.link_vc(Coord::new(0, 0), Direction::East, 1));
    }

    #[test]
    fn torus_non_wrap_route_stays_on_vc0() {
        let t = Topology::new_torus(8, 8);
        let p = route(&t, Coord::new(1, 1), Coord::new(3, 3));
        for &ch in &p[1..p.len() - 1] {
            // reconstruct: all these channels must be vc0 variants; vc0
            // channels of (node,dir) have (id - node*per_node) % vcs == 0
            let per_node = t.num_channels() / t.nodes();
            let slot = ch.0 % per_node;
            assert_eq!(slot % 2, 0, "non-wrap route must stay on vc0");
        }
    }

    #[test]
    fn torus_distance_never_exceeds_mesh_distance() {
        let tt = Topology::new_torus(16, 22);
        let tm = Topology::new(16, 22);
        for (s, d) in [
            (Coord::new(0, 0), Coord::new(15, 21)),
            (Coord::new(1, 20), Coord::new(14, 2)),
            (Coord::new(8, 11), Coord::new(7, 10)),
        ] {
            assert!(tt.distance(s, d) <= tm.distance(s, d));
            let p = route(&tt, s, d);
            assert_eq!(p.len() as u32, tt.distance(s, d) + 2);
        }
    }
}
