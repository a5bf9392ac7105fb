//! Contiguous baselines: First-Fit and Best-Fit sub-mesh allocation.
//!
//! These are the classic strategies (Zhu 1992, ref. \[19\] of the paper)
//! whose external fragmentation motivates non-contiguous allocation: a job
//! waits until a single free `a × b` sub-mesh exists, even when enough
//! scattered processors are free. They are included as baselines for the
//! `scenarios/ablation_contiguity.toml` study, not as paper figures.

use crate::{AllocId, Allocation, AllocationStrategy};
use mesh2d::{Coord, Mesh, SubMesh};

/// Contiguous first-fit: the first free `a × b` (or `b × a`) sub-mesh in
/// row-major base order.
#[derive(Debug, Default)]
pub struct FirstFit {
    next_id: u64,
}

impl FirstFit {
    /// A fresh first-fit allocator.
    pub fn new() -> Self {
        FirstFit::default()
    }
}

impl AllocationStrategy for FirstFit {
    fn name(&self) -> String {
        "FF".to_string()
    }

    fn allocate(&mut self, mesh: &mut Mesh, a: u16, b: u16) -> Option<Allocation> {
        if a == 0 || b == 0 {
            return None;
        }
        let s = mesh2d::find_free_submesh(mesh, a, b)
            .or_else(|| if a != b { mesh2d::find_free_submesh(mesh, b, a) } else { None })?;
        mesh.occupy_submesh(&s);
        let id = AllocId(self.next_id);
        self.next_id += 1;
        Some(Allocation::new(id, vec![s]))
    }

    fn release(&mut self, mesh: &mut Mesh, alloc: Allocation) {
        for s in alloc.submeshes() {
            mesh.release_submesh(s);
        }
    }

    fn reset(&mut self, _mesh: &Mesh) {
        self.next_id = 0;
    }

    fn always_succeeds_when_free(&self) -> bool {
        false
    }

    fn feasible(&self, mesh: &Mesh, a: u16, b: u16) -> bool {
        // exact mirror of allocate's failure condition: a contiguous
        // placement exists only if one orientation passes the free-space
        // watermarks (could_fit_rect == false proves no free a×b
        // sub-mesh exists; == true defers to the search)
        mesh.could_fit_rect(a, b) || (a != b && mesh.could_fit_rect(b, a))
    }

    // failure_persists_until_release: allocate is a pure function of the
    // occupancy (no RNG, no internal state beyond the id counter, which
    // a failed call never touches), and occupying more processors can
    // only destroy free placements, never create them.
}

/// Contiguous best-fit: among all free placements (both orientations),
/// pick the one bordered by the fewest free processors — the placement
/// that "fits most snugly" against allocated regions and mesh edges,
/// preserving large free areas for later jobs.
#[derive(Debug, Default)]
pub struct BestFit {
    next_id: u64,
}

impl BestFit {
    /// A fresh best-fit allocator.
    pub fn new() -> Self {
        BestFit::default()
    }

    /// Number of *free* processors adjacent to the perimeter of `s`
    /// (processors outside `s` sharing a link with it). Lower is snugger.
    /// Row segments are counted through the mesh's free-interval index;
    /// the two flanking columns walk the occupancy bits directly.
    fn boundary_freeness(mesh: &Mesh, s: &SubMesh) -> u32 {
        let mut free_neighbors = 0u32;
        let (bx, by) = (s.base.x, s.base.y);
        let (ex, ey) = (s.end.x, s.end.y);
        // left and right columns
        for y in by..=ey {
            if bx > 0 && mesh.is_free(Coord::new(bx - 1, y)) {
                free_neighbors += 1;
            }
            if ex + 1 < mesh.width() && mesh.is_free(Coord::new(ex + 1, y)) {
                free_neighbors += 1;
            }
        }
        // bottom and top rows
        if by > 0 {
            free_neighbors += mesh.free_in_row_span(by - 1, bx, ex);
        }
        if ey + 1 < mesh.length() {
            free_neighbors += mesh.free_in_row_span(ey + 1, bx, ex);
        }
        free_neighbors
    }

    fn best_placement(mesh: &Mesh, w: u16, l: u16) -> Option<(u32, SubMesh)> {
        if w > mesh.width() || l > mesh.length() {
            return None;
        }
        // enumerate candidate bases from the free-interval index: a free
        // w × l placement at row y lies inside an intersection of the
        // free runs of rows y..y+l-1, so only those spans are scanned
        // (same base order as a full row-major sweep)
        let mut best: Option<(u32, SubMesh)> = None;
        let mut acc: Vec<(u16, u16)> = Vec::new();
        let mut next: Vec<(u16, u16)> = Vec::new();
        for y in 0..=(mesh.length() - l) {
            acc.clear();
            acc.extend_from_slice(mesh.row_free_intervals(y));
            for r in (y + 1)..(y + l) {
                if acc.is_empty() {
                    break;
                }
                mesh2d::rect::intersect_intervals(&acc, mesh.row_free_intervals(r), &mut next);
                std::mem::swap(&mut acc, &mut next);
            }
            for &(a, b) in acc.iter().filter(|&&(a, b)| b - a + 1 >= w) {
                for x in a..=(b + 1 - w) {
                    let s = SubMesh::from_base_size(Coord::new(x, y), w, l);
                    let score = Self::boundary_freeness(mesh, &s);
                    if best.is_none_or(|(bs, _)| score < bs) {
                        best = Some((score, s));
                    }
                }
            }
        }
        best
    }
}

impl AllocationStrategy for BestFit {
    fn name(&self) -> String {
        "BF".to_string()
    }

    fn allocate(&mut self, mesh: &mut Mesh, a: u16, b: u16) -> Option<Allocation> {
        if a == 0 || b == 0 {
            return None;
        }
        let c1 = Self::best_placement(mesh, a, b);
        let c2 = if a != b {
            Self::best_placement(mesh, b, a)
        } else {
            None
        };
        let s = match (c1, c2) {
            (Some((s1, r1)), Some((s2, r2))) => {
                if s1 <= s2 {
                    r1
                } else {
                    r2
                }
            }
            (Some((_, r)), None) | (None, Some((_, r))) => r,
            (None, None) => return None,
        };
        mesh.occupy_submesh(&s);
        let id = AllocId(self.next_id);
        self.next_id += 1;
        Some(Allocation::new(id, vec![s]))
    }

    fn release(&mut self, mesh: &mut Mesh, alloc: Allocation) {
        for s in alloc.submeshes() {
            mesh.release_submesh(s);
        }
    }

    fn reset(&mut self, _mesh: &Mesh) {
        self.next_id = 0;
    }

    fn always_succeeds_when_free(&self) -> bool {
        false
    }

    fn feasible(&self, mesh: &Mesh, a: u16, b: u16) -> bool {
        // exact mirror of allocate's failure condition: a contiguous
        // placement exists only if one orientation passes the free-space
        // watermarks (could_fit_rect == false proves no free a×b
        // sub-mesh exists; == true defers to the search)
        mesh.could_fit_rect(a, b) || (a != b && mesh.could_fit_rect(b, a))
    }

    // failure_persists_until_release: allocate is a pure function of the
    // occupancy (no RNG, no internal state beyond the id counter, which
    // a failed call never touches), and occupying more processors can
    // only destroy free placements, never create them.
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_fit_allocates_origin_first() {
        let mut mesh = Mesh::new(8, 8);
        let mut ff = FirstFit::new();
        let a = ff.allocate(&mut mesh, 3, 3).unwrap();
        assert_eq!(a.submeshes()[0].base, Coord::new(0, 0));
        assert_eq!(a.fragments(), 1);
    }

    #[test]
    fn first_fit_fails_on_fragmentation() {
        // Fig. 1: 4 free corner processors, request 2x2 -> FF fails while
        // 4 processors are free. This is the motivating example.
        let mut mesh = Mesh::new(4, 4);
        for y in 0..4u16 {
            for x in 0..4u16 {
                let corner = (x == 0 || x == 3) && (y == 0 || y == 3);
                if !corner {
                    mesh.occupy(Coord::new(x, y));
                }
            }
        }
        let mut ff = FirstFit::new();
        assert_eq!(mesh.free_count(), 4);
        assert!(ff.allocate(&mut mesh, 2, 2).is_none());
    }

    #[test]
    fn first_fit_rotates() {
        let mut mesh = Mesh::new(10, 4);
        let mut ff = FirstFit::new();
        let a = ff.allocate(&mut mesh, 2, 7).unwrap();
        assert_eq!(a.size(), 14);
    }

    #[test]
    fn best_fit_prefers_snug_corner() {
        // occupy left half; BF for a 2x2 should nestle against the
        // boundary, not float in the middle of the free half
        let mut mesh = Mesh::new(8, 8);
        mesh.occupy_submesh(&SubMesh::from_base_size(Coord::new(0, 0), 4, 8));
        let mut bf = BestFit::new();
        let a = bf.allocate(&mut mesh, 2, 2).unwrap();
        let s = a.submeshes()[0];
        // snug: touches either the occupied wall (x=4) or a mesh corner
        let touches_wall = s.base.x == 4;
        let touches_corner = (s.base.x == 6 || s.base.x == 4) && (s.base.y == 0 || s.end.y == 7);
        assert!(
            touches_wall || touches_corner,
            "BF placed {s} away from boundaries"
        );
    }

    #[test]
    fn best_fit_release_restores() {
        let mut mesh = Mesh::new(6, 6);
        let mut bf = BestFit::new();
        let a = bf.allocate(&mut mesh, 4, 4).unwrap();
        assert_eq!(mesh.used_count(), 16);
        bf.release(&mut mesh, a);
        assert_eq!(mesh.used_count(), 0);
    }

    #[test]
    fn both_reject_oversized() {
        let mut mesh = Mesh::new(4, 4);
        assert!(FirstFit::new().allocate(&mut mesh, 5, 5).is_none());
        assert!(BestFit::new().allocate(&mut mesh, 5, 5).is_none());
    }
}
