//! Contiguous baselines: First-Fit and Best-Fit sub-mesh allocation.
//!
//! These are the classic strategies (Zhu 1992, ref. \[19\] of the paper)
//! whose external fragmentation motivates non-contiguous allocation: a job
//! waits until a single free `a × b` sub-mesh exists, even when enough
//! scattered processors are free. They are included as baselines for the
//! `scenarios/ablation_contiguity.toml` study, not as paper figures.
//!
//! They are the only strategies that override
//! [`AllocationStrategy::feasible`]: both share `could_fit`, the exact
//! mirror of their failure condition. Their `allocate` is a pure function
//! of the occupancy, and occupying more processors can only destroy free
//! placements, so a failure persists until a release.

use std::ops::ControlFlow;

use crate::{Allocation, AllocationStrategy};
use mesh2d::{Mesh, SubMesh};

/// Whether a free `a × b` or `b × a` sub-mesh may exist: `false` proves
/// that neither orientation passes the mesh's free-space watermarks,
/// `true` defers to the search.
fn could_fit(mesh: &Mesh, a: u16, b: u16) -> bool {
    mesh.could_fit_rect(a, b) || (a != b && mesh.could_fit_rect(b, a))
}

/// Occupies the single sub-mesh `s` and grants it as an allocation.
fn grant(mesh: &mut Mesh, s: SubMesh) -> Allocation {
    mesh.occupy_submesh(&s);
    Allocation::new(vec![s])
}

/// Contiguous first-fit: the first free `a × b` (or `b × a`) sub-mesh in
/// row-major base order.
#[derive(Debug, Default)]
pub struct FirstFit;

impl FirstFit {
    /// A first-fit allocator.
    pub fn new() -> Self {
        FirstFit
    }
}

impl AllocationStrategy for FirstFit {
    fn allocate(&mut self, mesh: &mut Mesh, a: u16, b: u16) -> Option<Allocation> {
        if a == 0 || b == 0 {
            return None;
        }
        let s = mesh2d::find_free_submesh(mesh, a, b)
            .or_else(|| if a != b { mesh2d::find_free_submesh(mesh, b, a) } else { None })?;
        Some(grant(mesh, s))
    }

    fn feasible(&self, mesh: &Mesh, a: u16, b: u16) -> bool {
        could_fit(mesh, a, b)
    }
}

/// Contiguous best-fit: among all free placements (both orientations),
/// pick the one bordered by the fewest free processors — the placement
/// that "fits most snugly" against allocated regions and mesh edges,
/// preserving large free areas for later jobs.
#[derive(Debug, Default)]
pub struct BestFit;

impl BestFit {
    /// A best-fit allocator.
    pub fn new() -> Self {
        BestFit
    }

    /// Number of *free* processors adjacent to the perimeter of `s`
    /// (processors outside `s` sharing a link with it). Lower is snugger.
    /// The rows below and above are masked popcounts of the mesh's row
    /// free masks; the two flanking columns are one bit test per row.
    fn boundary_freeness(mesh: &Mesh, s: &SubMesh) -> u32 {
        let mut free_neighbors = 0u32;
        let (bx, by) = (s.base.x, s.base.y);
        let (ex, ey) = (s.end.x, s.end.y);
        // left and right columns
        if bx > 0 {
            free_neighbors += mesh.free_in_col_span(bx - 1, by, ey);
        }
        if ex + 1 < mesh.width() {
            free_neighbors += mesh.free_in_col_span(ex + 1, by, ey);
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

    /// The snuggest free `w × l` placement and its score: the first, in
    /// row-major base order, with the fewest free neighbours.
    fn best_placement(mesh: &Mesh, w: u16, l: u16) -> Option<(u32, SubMesh)> {
        let mut best: Option<(u32, SubMesh)> = None;
        mesh2d::try_free_submeshes(mesh, w, l, |s| {
            let score = Self::boundary_freeness(mesh, &s);
            if best.is_none_or(|(bs, _)| score < bs) {
                best = Some((score, s));
            }
            ControlFlow::<()>::Continue(())
        });
        best
    }
}

impl AllocationStrategy for BestFit {
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
        // the snugger orientation; min_by_key keeps the first on a tie
        let (_, s) = c1.into_iter().chain(c2).min_by_key(|&(score, _)| score)?;
        Some(grant(mesh, s))
    }

    fn feasible(&self, mesh: &Mesh, a: u16, b: u16) -> bool {
        could_fit(mesh, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh2d::Coord;

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

    /// Exhaustive reference for Best-Fit on a plain occupancy grid: for
    /// each orientation, the first base (row-major) with the fewest free
    /// cells adjacent to its perimeter, counted cell by cell; the first
    /// orientation wins ties.
    fn oracle_best_fit(free: &[bool], mw: usize, ml: usize, a: usize, b: usize) -> Option<SubMesh> {
        let is_free = |x: usize, y: usize| free[y * mw + x];
        let best_of = |w: usize, l: usize| {
            let mut best: Option<(u32, SubMesh)> = None;
            for y in 0..ml.saturating_sub(l - 1) {
                for x in 0..mw.saturating_sub(w - 1) {
                    if !(y..y + l).all(|yy| (x..x + w).all(|xx| is_free(xx, yy))) {
                        continue;
                    }
                    let mut score = 0u32;
                    for yy in y..y + l {
                        score += u32::from(x > 0 && is_free(x - 1, yy));
                        score += u32::from(x + w < mw && is_free(x + w, yy));
                    }
                    for xx in x..x + w {
                        score += u32::from(y > 0 && is_free(xx, y - 1));
                        score += u32::from(y + l < ml && is_free(xx, y + l));
                    }
                    if best.is_none_or(|(bs, _)| score < bs) {
                        let base = Coord::new(x as u16, y as u16);
                        best = Some((score, SubMesh::from_base_size(base, w as u16, l as u16)));
                    }
                }
            }
            best
        };
        let c2 = if a != b { best_of(b, a) } else { None };
        match (best_of(a, b), c2) {
            (Some((s1, r1)), Some((s2, r2))) => Some(if s1 <= s2 { r1 } else { r2 }),
            (x, y) => x.or(y).map(|(_, r)| r),
        }
    }

    #[test]
    fn best_fit_matches_exhaustive_oracle_on_random_meshes() {
        // no golden covers Best-Fit, so this pins its placement and
        // tie-breaks, on rows of one, two and three mask words
        let mut seed = 0xB357u64;
        for (mw, ml) in [(16u16, 22u16), (63, 5), (64, 5), (65, 5), (128, 9), (130, 9)] {
            for case in 0..8u64 {
                let mut mesh = Mesh::new(mw, ml);
                let mut free = vec![true; mw as usize * ml as usize];
                for y in 0..ml {
                    for x in 0..mw {
                        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        if (seed >> 33) % 100 < 25 + 10 * (case % 5) {
                            mesh.occupy(Coord::new(x, y));
                            free[y as usize * mw as usize + x as usize] = false;
                        }
                    }
                }
                for (a, b) in [(1u16, 1u16), (2, 2), (3, 1), (2, 4), (5, 3), (30, 2), (mw, 1)] {
                    let expected = oracle_best_fit(&free, mw as usize, ml as usize, a as usize, b as usize);
                    let got = BestFit::new().allocate(&mut mesh.clone(), a, b).map(|al| al.submeshes()[0]);
                    assert_eq!(got, expected, "{mw}x{ml} case {case} request {a}x{b}");
                }
            }
        }
    }

    #[test]
    fn both_reject_oversized() {
        let mut mesh = Mesh::new(4, 4);
        assert!(FirstFit::new().allocate(&mut mesh, 5, 5).is_none());
        assert!(BestFit::new().allocate(&mut mesh, 5, 5).is_none());
    }
}
