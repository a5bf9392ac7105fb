//! MC — contention-minimizing shell allocation (Mache, Lo & Windisch,
//! PDCS 1997; reference \[7\] of the paper, the same work the paper's
//! trace-scaling methodology comes from).
//!
//! MC is non-contiguous but *shape-aware*: a request is granted the
//! `p` free processors forming the tightest cluster available. For each
//! candidate centre, free processors are collected in expanding
//! "shells" (rings of growing Chebyshev radius); the candidate whose
//! cluster has the smallest final radius — i.e. the allocation closest
//! to a square — wins. This minimizes the spatial extent messages cross
//! and hence inter-job message-passing contention, at a higher
//! allocation cost than GABL (a scan per candidate centre).
//!
//! Like the paper's three strategies, MC always succeeds when at least
//! `p` processors are free (growing the shell from any free centre
//! eventually collects all of them), so the default area-bound
//! `feasible` is exact. The cluster search is a pure function of the
//! occupancy, and `p > free_count` is monotone under further occupies,
//! so a failure persists until a release.

use crate::{Allocation, AllocationStrategy};
use mesh2d::{Coord, Mesh, SubMesh};

/// The MC shell allocator.
#[derive(Debug, Default)]
pub struct Mc;

impl Mc {
    /// An MC allocator.
    pub fn new() -> Self {
        Mc
    }

    /// Collects up to `p` free processors around `centre` in expanding
    /// Chebyshev shells; returns (radius used, chosen cells) or `None`
    /// if fewer than `p` free processors exist in the whole mesh
    /// (caller pre-checks, so shells eventually cover everything).
    fn cluster_from(mesh: &Mesh, centre: Coord, p: u32) -> (u32, Vec<Coord>) {
        let (w, l) = (mesh.width() as i32, mesh.length() as i32);
        let (cx, cy) = (centre.x as i32, centre.y as i32);
        let mut cells = Vec::with_capacity(p as usize);
        let max_r = w.max(l);
        for r in 0..=max_r {
            // ring of Chebyshev radius r around the centre, clipped
            let (x0, x1) = ((cx - r).max(0), (cx + r).min(w - 1));
            let (y0, y1) = ((cy - r).max(0), (cy + r).min(l - 1));
            for y in y0..=y1 {
                for x in x0..=x1 {
                    let on_ring = x == cx - r || x == cx + r || y == cy - r || y == cy + r;
                    if !on_ring {
                        continue;
                    }
                    let c = Coord::new(x as u16, y as u16);
                    if mesh.is_free(c) {
                        cells.push(c);
                        // procsim-lint: allow(D005): cells never exceeds p, a job size bounded by the u32 mesh size
                        if cells.len() as u32 == p {
                            return (r as u32, cells);
                        }
                    }
                }
            }
        }
        (max_r as u32, cells)
    }
}

impl AllocationStrategy for Mc {
    fn allocate(&mut self, mesh: &mut Mesh, a: u16, b: u16) -> Option<Allocation> {
        let p = a as u32 * b as u32;
        if p == 0 || p > mesh.free_count() {
            return None;
        }
        // score every free processor as a candidate centre; keep the
        // tightest cluster (smallest radius, ties to the earliest centre
        // in row-major order for determinism)
        let mut best: Option<(u32, Vec<Coord>)> = None;
        for centre in mesh.iter_free().collect::<Vec<_>>() {
            let (r, cells) = Self::cluster_from(mesh, centre, p);
            // procsim-lint: allow(D005): cluster_from caps cells at p, a job size bounded by the u32 mesh size
            if cells.len() as u32 != p {
                continue;
            }
            if best.as_ref().is_none_or(|(br, _)| r < *br) {
                let done = r == 0;
                best = Some((r, cells));
                if done {
                    break; // can't beat radius 0
                }
            }
        }
        let (_, cells) = best?;
        let mut submeshes = Vec::with_capacity(cells.len());
        for &c in &cells {
            mesh.occupy(c);
            submeshes.push(SubMesh::from_base_size(c, 1, 1));
        }
        Some(Allocation::new(submeshes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimRng;

    #[test]
    fn empty_mesh_allocation_is_compact() {
        let mut mesh = Mesh::new(16, 22);
        let mut mc = Mc::new();
        let al = mc.allocate(&mut mesh, 3, 3).unwrap();
        assert_eq!(al.size(), 9);
        // 9 cells around some centre: all within Chebyshev radius <= 2
        let nodes = al.nodes();
        let min_x = nodes.iter().map(|c| c.x).min().unwrap();
        let max_x = nodes.iter().map(|c| c.x).max().unwrap();
        let min_y = nodes.iter().map(|c| c.y).min().unwrap();
        let max_y = nodes.iter().map(|c| c.y).max().unwrap();
        assert!(max_x - min_x <= 4 && max_y - min_y <= 4, "{nodes:?}");
    }

    #[test]
    fn succeeds_iff_enough_free() {
        let mut mesh = Mesh::new(6, 6);
        let mut mc = Mc::new();
        let a = mc.allocate(&mut mesh, 5, 5).unwrap();
        assert_eq!(mesh.used_count(), 25);
        assert!(mc.allocate(&mut mesh, 4, 3).is_none()); // 12 > 11 free
        assert!(mc.allocate(&mut mesh, 11, 1).is_some()); // exactly 11
        assert_eq!(mesh.free_count(), 0);
        mc.release(&mut mesh, a);
        assert_eq!(mesh.free_count(), 25);
    }

    #[test]
    fn clusters_tighter_than_random_scatter() {
        // fragment the mesh, then compare MC's allocation spread to a
        // random strategy's on the same state
        let mut mesh = Mesh::new(16, 22);
        let mut rng = SimRng::new(8);
        for y in 0..22u16 {
            for x in 0..16u16 {
                if rng.chance(0.5) {
                    mesh.occupy(Coord::new(x, y));
                }
            }
        }
        let spread = |nodes: &[Coord]| {
            let n = nodes.len() as f64;
            let mx = nodes.iter().map(|c| c.x as f64).sum::<f64>() / n;
            let my = nodes.iter().map(|c| c.y as f64).sum::<f64>() / n;
            nodes
                .iter()
                .map(|c| (c.x as f64 - mx).abs() + (c.y as f64 - my).abs())
                .sum::<f64>()
                / n
        };
        let mut mc = Mc::new();
        let mc_alloc = mc.allocate(&mut mesh.clone(), 5, 5).unwrap();
        let mut rnd = crate::RandomNc::new(1);
        let rnd_alloc = rnd.allocate(&mut mesh.clone(), 5, 5).unwrap();
        assert!(
            spread(mc_alloc.nodes()) < spread(rnd_alloc.nodes()),
            "MC {} vs Random {}",
            spread(mc_alloc.nodes()),
            spread(rnd_alloc.nodes())
        );
    }

    #[test]
    fn deterministic() {
        let build = || {
            let mut mesh = Mesh::new(8, 8);
            mesh.occupy(Coord::new(3, 3));
            let mut mc = Mc::new();
            mc.allocate(&mut mesh, 3, 2).unwrap().nodes().to_vec()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn churn_consistency() {
        let mut mesh = Mesh::new(12, 12);
        let mut mc = Mc::new();
        let mut rng = SimRng::new(77);
        let mut live = Vec::new();
        for _ in 0..400 {
            if rng.chance(0.6) || live.is_empty() {
                let a = rng.uniform_incl(1, 5) as u16;
                let b = rng.uniform_incl(1, 5) as u16;
                let free = mesh.free_count();
                match mc.allocate(&mut mesh, a, b) {
                    Some(al) => {
                        assert_eq!(al.size(), a as u32 * b as u32);
                        live.push(al);
                    }
                    None => assert!(a as u32 * b as u32 > free),
                }
            } else {
                let al = live.swap_remove(rng.index(live.len()));
                mc.release(&mut mesh, al);
            }
        }
        let total: u32 = live.iter().map(|a| a.size()).sum();
        assert_eq!(mesh.used_count(), total);
    }
}
