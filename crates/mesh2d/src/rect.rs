//! Free-rectangle searches over the mesh's row free masks.
//!
//! Three queries drive the allocation strategies:
//!
//! * [`find_free_submesh`] — the first (row-major base order) entirely free
//!   `w × l` sub-mesh, used by contiguous allocation and by GABL's initial
//!   "suitable sub-mesh" test (paper Definition 4).
//! * [`try_free_submeshes`] — every entirely free `w × l` sub-mesh in the
//!   same base order, for strategies that score placements (contiguous
//!   Best-Fit).
//! * [`largest_free_rect`] — the largest entirely free rectangle whose
//!   sides are capped, used by GABL's greedy partitioning ("the largest
//!   free sub-mesh whose side lengths do not exceed the corresponding side
//!   lengths of the previously allocated sub-mesh", paper §3).
//!
//! All of them read [`Mesh`]'s row free masks (`ceil(W / 64)` `u64` words
//! per row, set bit = free): stacking rows is a word-wise AND, and the
//! free runs of a row are found with `trailing_zeros` on the mask and on
//! its complement. Scratch buffers live on the stack for meshes up to
//! `64 × STACK_WORDS` = 256 wide, so those searches allocate nothing.

use std::ops::ControlFlow;

use crate::coord::Coord;
use crate::mesh::{runs, Mesh, WORD};
use crate::submesh::SubMesh;

/// Row-mask words a search keeps on the stack.
const STACK_WORDS: usize = 4;

/// Runs `f` on a zeroed scratch slice of `n` elements: on the stack when
/// `n <= N`, on the heap otherwise.
fn with_scratch<T: Copy + Default, const N: usize, R>(n: usize, f: impl FnOnce(&mut [T]) -> R) -> R {
    if n <= N {
        f(&mut [T::default(); N][..n])
    } else {
        f(&mut vec![T::default(); n])
    }
}

/// Finds the first entirely free `w × l` sub-mesh, scanning candidate bases
/// in row-major order. Returns `None` when no such sub-mesh exists (the
/// external-fragmentation case motivating the paper).
pub fn find_free_submesh(mesh: &Mesh, w: u16, l: u16) -> Option<SubMesh> {
    try_free_submeshes(mesh, w, l, ControlFlow::Break)
}

/// Calls `visit` on every entirely free `w × l` sub-mesh in row-major
/// base order (base rows bottom-up, then columns left to right) until it
/// returns `Break`, and returns the break value; `None` when every free
/// sub-mesh was visited.
///
/// Requests that exceed a free-space watermark ([`Mesh::could_fit_rect`])
/// are rejected in O(1) without reading a mask — the saturated-queue hot
/// case. Otherwise, per base row `y`, the masks of rows `y..y+l` are
/// ANDed (stopping as soon as the result is zero), and every maximal run
/// of the result at least `w` wide yields its bases.
pub fn try_free_submeshes<B>(
    mesh: &Mesh,
    w: u16,
    l: u16,
    mut visit: impl FnMut(SubMesh) -> ControlFlow<B>,
) -> Option<B> {
    if !mesh.could_fit_rect(w, l) {
        return None;
    }
    let w_cols = w as usize;
    with_scratch::<u64, STACK_WORDS, _>(mesh.row(0).len(), |acc| {
        for y in 0..=(mesh.length() - l) {
            acc.copy_from_slice(mesh.row(y));
            for r in (y + 1)..(y + l) {
                let mut any = 0;
                for (a, &b) in acc.iter_mut().zip(mesh.row(r)) {
                    *a &= b;
                    any |= *a;
                }
                if any == 0 {
                    break;
                }
            }
            for (a, b) in runs(acc).filter(|&(a, b)| b + 1 - a >= w_cols) {
                for x in a..=(b + 1 - w_cols) {
                    // procsim-lint: allow(D005): x is a column of the mesh, whose width is a u16
                    let s = SubMesh::from_base_size(Coord::new(x as u16, y), w, l);
                    if let ControlFlow::Break(v) = visit(s) {
                        return Some(v);
                    }
                }
            }
        }
        None
    })
}

/// Finds the largest entirely free rectangle with `width <= cap_w` and
/// `length <= cap_l`, maximizing processor count. Ties are broken towards
/// the rectangle found first scanning rows bottom-up then columns
/// left-to-right, making the search deterministic.
///
/// Returns `None` only when no processor is free (any free processor is a
/// 1×1 free rectangle).
pub fn largest_free_rect(mesh: &Mesh, cap_w: u16, cap_l: u16) -> Option<SubMesh> {
    largest_free_rect_near(mesh, cap_w, cap_l, None)
}

/// As [`largest_free_rect`], but among all rectangles achieving the
/// maximal processor count, prefers the one whose centre is closest
/// (Manhattan) to `anchor`. Used by GABL to keep the pieces of one job's
/// allocation near each other: the published algorithm specifies only
/// "the largest free sub-mesh", leaving ties free — breaking them towards
/// the job's existing pieces is what "maintaining a high degree of
/// contiguity" requires.
///
/// The scan is a histogram-of-heights sweep: for each top row `y`, the
/// free column heights are bumped inside the row's free runs and reset
/// elsewhere, and each window start `x0` inside a run extends right (never
/// past the run) while tracking the minimum height. The winner is the
/// first candidate, in (`y`, `x0`, `x1`) order, with the largest area and
/// then the smallest anchor distance.
pub fn largest_free_rect_near(
    mesh: &Mesh,
    cap_w: u16,
    cap_l: u16,
    anchor: Option<Coord>,
) -> Option<SubMesh> {
    let w = mesh.width() as usize;
    let cap_w = cap_w.min(mesh.width()) as usize;
    let cap_l = cap_l.min(mesh.length()) as usize;
    if cap_w == 0 || cap_l == 0 {
        return None;
    }
    let dist_to_anchor = |s: &SubMesh| -> u32 {
        match anchor {
            None => 0,
            Some(a) => {
                let cx = (s.base.x as u32 + s.end.x as u32) / 2;
                let cy = (s.base.y as u32 + s.end.y as u32) / 2;
                cx.abs_diff(a.x as u32) + cy.abs_diff(a.y as u32)
            }
        }
    };
    with_scratch::<u16, { STACK_WORDS * WORD }, _>(w, |heights| {
        // lexicographic objective: maximize area, then minimize distance of
        // the rectangle centre to the anchor (0 when no anchor)
        let mut best: Option<(u32, u32, SubMesh)> = None;
        for y in 0..mesh.length() {
            let row = mesh.row(y);
            let mut edge = 0usize; // first column not yet reset/bumped
            for (a, b) in runs(row) {
                heights[edge..a].fill(0);
                for h in &mut heights[a..=b] {
                    *h += 1;
                }
                edge = b + 1;
            }
            heights[edge..w].fill(0);
            for (ia, ib) in runs(row) {
                let run_h = heights[ia..=ib].iter().copied().max().unwrap_or(0) as usize;
                for x0 in ia..=ib {
                    // No window from x0 on is wider than the rest of the run
                    // or taller than its tallest column. The bound only
                    // shrinks as x0 moves right, and a strictly smaller
                    // area never replaces `best`, so the scan of this run
                    // can stop: the result is the unpruned scan's.
                    let bound = (cap_w.min(ib - x0 + 1) * run_h.min(cap_l)) as u32;
                    if best.as_ref().is_some_and(|(a, _, _)| bound < *a) {
                        break;
                    }
                    let mut min_h = usize::MAX;
                    for (x1, &h1) in heights.iter().enumerate().take((x0 + cap_w).min(ib + 1)).skip(x0) {
                        min_h = min_h.min(h1 as usize);
                        let h = min_h.min(cap_l);
                        let area = ((x1 - x0 + 1) * h) as u32;
                        let improves_area = best.as_ref().is_none_or(|(a, _, _)| area > *a);
                        let ties_area = best.as_ref().is_some_and(|(a, _, _)| area == *a);
                        if improves_area || (ties_area && anchor.is_some()) {
                            // procsim-lint: allow(D005): x0/x1/y/h index the histogram of a mesh whose dimensions are u16
                            let s = SubMesh::from_base_size(
                                Coord::new(x0 as u16, y + 1 - h as u16),
                                (x1 - x0 + 1) as u16,
                                h as u16,
                            );
                            let d = dist_to_anchor(&s);
                            if improves_area || best.as_ref().is_some_and(|(_, bd, _)| d < *bd) {
                                best = Some((area, d, s));
                            }
                        }
                    }
                }
            }
        }
        best.map(|(_, _, s)| s)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_in_empty_mesh_is_origin() {
        let m = Mesh::new(16, 22);
        let s = find_free_submesh(&m, 5, 7).unwrap();
        assert_eq!(s.base, Coord::new(0, 0));
        assert_eq!((s.width(), s.length()), (5, 7));
    }

    #[test]
    fn find_respects_occupancy() {
        // occupy column x=0 fully: a 4x4 must start at x>=1
        let mut m = Mesh::new(8, 4);
        for y in 0..4 {
            m.occupy(Coord::new(0, y));
        }
        let s = find_free_submesh(&m, 4, 4).unwrap();
        assert_eq!(s.base, Coord::new(1, 0));
    }

    #[test]
    fn find_detects_external_fragmentation() {
        // Fig. 1 scenario: 4 free corners of a 4x4, no free 2x2.
        let mut m = Mesh::new(4, 4);
        let free = [(0u16, 0u16), (3, 0), (0, 3), (3, 3)];
        for y in 0..4 {
            for x in 0..4 {
                if !free.contains(&(x, y)) {
                    m.occupy(Coord::new(x, y));
                }
            }
        }
        assert_eq!(m.free_count(), 4);
        assert!(find_free_submesh(&m, 2, 2).is_none());
        assert!(find_free_submesh(&m, 1, 1).is_some());
    }

    #[test]
    fn find_rejects_oversized() {
        let m = Mesh::new(4, 4);
        assert!(find_free_submesh(&m, 5, 1).is_none());
        assert!(find_free_submesh(&m, 1, 5).is_none());
        assert!(find_free_submesh(&m, 0, 1).is_none());
    }

    #[test]
    fn largest_rect_empty_mesh_is_capped_full() {
        let m = Mesh::new(16, 22);
        let s = largest_free_rect(&m, 16, 22).unwrap();
        assert_eq!(s.size(), 352);
        let s = largest_free_rect(&m, 4, 6).unwrap();
        assert_eq!((s.width(), s.length()), (4, 6));
    }

    #[test]
    fn largest_rect_none_when_full() {
        let mut m = Mesh::new(3, 3);
        m.occupy_submesh(&m.full_submesh().clone());
        assert!(largest_free_rect(&m, 3, 3).is_none());
    }

    #[test]
    fn largest_rect_finds_l_shape_arm() {
        // Occupy a block leaving an L-shape; the largest free rect in
        //   . . . . .
        //   . . . . .
        //   X X X . .
        //   X X X . .
        // (5 wide, 4 tall, 3x2 occupied at bottom-left) is 5x2 (top) = 10.
        let mut m = Mesh::new(5, 4);
        m.occupy_submesh(&SubMesh::from_base_size(Coord::new(0, 0), 3, 2));
        let s = largest_free_rect(&m, 5, 4).unwrap();
        assert_eq!(s.size(), 10);
        assert_eq!((s.width(), s.length()), (5, 2));
        assert!(m.submesh_free(&s));
    }

    #[test]
    fn largest_rect_respects_caps() {
        let m = Mesh::new(10, 10);
        let s = largest_free_rect(&m, 3, 10).unwrap();
        assert!(s.width() <= 3);
        assert_eq!(s.size(), 30);
        let s = largest_free_rect(&m, 10, 2).unwrap();
        assert!(s.length() <= 2);
        assert_eq!(s.size(), 20);
    }

    #[test]
    fn largest_rect_single_free_node() {
        let mut m = Mesh::new(3, 3);
        for c in m.full_submesh().iter().collect::<Vec<_>>() {
            if c != Coord::new(2, 2) {
                m.occupy(c);
            }
        }
        let s = largest_free_rect(&m, 3, 3).unwrap();
        assert_eq!(s.size(), 1);
        assert_eq!(s.base, Coord::new(2, 2));
    }

    /// Widths covering rows of one, two and three words, with and without
    /// a partial last word.
    const ORACLE_DIMS: [(u16, u16); 6] = [(16, 22), (63, 5), (64, 5), (65, 5), (128, 9), (130, 9)];

    /// A test oracle independent of the row masks: a 2D prefix sum of the
    /// free cells, for O(1) "is this rectangle free".
    struct Grid {
        w: usize,
        l: usize,
        /// `sum[y][x]` = free cells in columns `< x` of rows `< y`.
        sum: Vec<u32>,
    }

    impl Grid {
        /// A random occupancy (roughly `percent` % busy) on a fresh mesh and
        /// its oracle.
        fn random(w: u16, l: u16, percent: u64, seed: &mut u64) -> (Mesh, Grid) {
            let mut m = Mesh::new(w, l);
            let (wu, lu) = (w as usize, l as usize);
            let mut free = vec![true; wu * lu];
            for y in 0..l {
                for x in 0..w {
                    *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    if (*seed >> 33) % 100 < percent {
                        m.occupy(Coord::new(x, y));
                        free[y as usize * wu + x as usize] = false;
                    }
                }
            }
            let mut sum = vec![0u32; (wu + 1) * (lu + 1)];
            for y in 0..lu {
                for x in 0..wu {
                    sum[(y + 1) * (wu + 1) + x + 1] = u32::from(free[y * wu + x])
                        + sum[y * (wu + 1) + x + 1]
                        + sum[(y + 1) * (wu + 1) + x]
                        - sum[y * (wu + 1) + x];
                }
            }
            (m, Grid { w: wu, l: lu, sum })
        }

        /// Whether the `w × l` rectangle based at `(x, y)` lies in the mesh
        /// and is entirely free.
        fn rect_free(&self, x: usize, y: usize, w: usize, l: usize) -> bool {
            if x + w > self.w || y + l > self.l {
                return false;
            }
            let s = |x: usize, y: usize| self.sum[y * (self.w + 1) + x];
            s(x + w, y + l) + s(x, y) - s(x, y + l) - s(x + w, y) == (w * l) as u32
        }
    }

    #[test]
    fn find_matches_naive_scan_on_random_meshes() {
        // the mask-driven search must return exactly what a full
        // row-major probe over the occupancy grid returns (same first
        // base), on many random occupancy patterns
        let mut seed = 99u64;
        let dims = [(10u16, 8u16)].into_iter().chain(ORACLE_DIMS);
        for (mw, ml) in dims {
            for case in 0..30u64 {
                let (m, g) = Grid::random(mw, ml, 30 + 10 * (case % 5), &mut seed);
                for (w, l) in [(1u16, 1u16), (2, 2), (3, 2), (2, 5), (4, 4), (mw, ml), (mw, 1), (40, 2)] {
                    let naive = (0..ml as usize)
                        .flat_map(|y| (0..mw as usize).map(move |x| (x, y)))
                        .find(|&(x, y)| g.rect_free(x, y, w as usize, l as usize))
                        .map(|(x, y)| SubMesh::from_base_size(Coord::new(x as u16, y as u16), w, l));
                    assert_eq!(find_free_submesh(&m, w, l), naive, "{mw}x{ml} case {case} shape {w}x{l}");
                }
            }
        }
    }

    /// Exhaustive reference for [`largest_free_rect_near`]: over every
    /// free rectangle within the caps, the minimum of (−area, anchor
    /// distance, top row, left column, right column) — the largest area,
    /// then the nearest centre, then the first in the sweep's scan order.
    fn oracle_largest(g: &Grid, cap_w: usize, cap_l: usize, anchor: Option<Coord>) -> Option<SubMesh> {
        let mut free_rects = Vec::new();
        for y in 0..g.l {
            for x in 0..g.w {
                for l in 1..=cap_l.min(g.l - y) {
                    for w in (1..=cap_w.min(g.w - x)).take_while(|&w| g.rect_free(x, y, w, l)) {
                        let base = Coord::new(x as u16, y as u16);
                        free_rects.push(SubMesh::from_base_size(base, w as u16, l as u16));
                    }
                }
            }
        }
        let dist = |s: &SubMesh| {
            anchor.map_or(0, |a| {
                let cx = (s.base.x as u32 + s.end.x as u32) / 2;
                let cy = (s.base.y as u32 + s.end.y as u32) / 2;
                cx.abs_diff(a.x as u32) + cy.abs_diff(a.y as u32)
            })
        };
        free_rects
            .into_iter()
            .min_by_key(|s| (std::cmp::Reverse(s.size()), dist(s), s.end.y, s.base.x, s.end.x))
    }

    #[test]
    fn largest_rect_matches_exhaustive_oracle_on_random_meshes() {
        let mut seed = 7u64;
        for (mw, ml) in ORACLE_DIMS {
            for case in 0..6u64 {
                let (m, g) = Grid::random(mw, ml, 40 + 10 * (case % 5), &mut seed);
                let caps = [(mw, ml), (4, 4), (2, 7), (70, 2), (3, 1)];
                let anchors = [None, Some(Coord::new(mw / 2, ml / 2)), Some(Coord::new(mw - 1, 0))];
                for (cw, cl) in caps {
                    for anchor in anchors {
                        assert_eq!(
                            largest_free_rect_near(&m, cw, cl, anchor),
                            oracle_largest(&g, cw.min(mw) as usize, cl.min(ml) as usize, anchor),
                            "{mw}x{ml} case {case} caps {cw}x{cl} anchor {anchor:?}"
                        );
                    }
                }
            }
        }
    }
}
