//! The Paging strategy (Lo et al. 1997; paper §3).
//!
//! The mesh is divided into pages — square sub-meshes of side
//! `2^size_index` — and the page is the allocation unit. A request for
//! `a × b` processors receives the first free pages in index order until
//! at least `a·b` processors have been granted. Larger pages give more
//! contiguity but more internal fragmentation; `Paging(0)` (the paper's
//! configuration) has neither, allocating individual processors in index
//! order.
//!
//! The strategy holds only its page grid. Pages are occupied and
//! released whole, so a page is free exactly when its base processor is,
//! and the pages cover the mesh, so the free page capacity is the mesh's
//! free count: the default area-bound `feasible` is exact, and a release
//! is the default one, sub-mesh by sub-mesh. A failed `allocate` marks
//! nothing, and `a·b > free_count` is monotone under further occupies,
//! so a failure persists until a release.

use crate::{Allocation, AllocationStrategy};
use mesh2d::{Mesh, PageGrid, PageIndexing};

/// Paging(`size_index`) under a chosen page indexing scheme.
#[derive(Debug)]
pub struct Paging {
    grid: PageGrid,
}

impl Paging {
    /// Builds the page grid for `mesh` with pages of side `2^size_index`.
    ///
    /// # Panics
    /// Panics if the page side exceeds either mesh dimension.
    pub fn new(mesh: &Mesh, size_index: u8, indexing: PageIndexing) -> Self {
        Paging {
            grid: PageGrid::new(mesh.width(), mesh.length(), size_index, indexing),
        }
    }

    /// The page side `2^size_index`.
    pub fn page_side(&self) -> u16 {
        self.grid.page_side()
    }
}

impl AllocationStrategy for Paging {
    fn allocate(&mut self, mesh: &mut Mesh, a: u16, b: u16) -> Option<Allocation> {
        let need = a as u32 * b as u32;
        if need == 0 || need > mesh.free_count() {
            return None;
        }
        let mut pages = Vec::new();
        let mut granted = 0u32;
        for page in self.grid.pages() {
            if !mesh.is_free(page.base) {
                continue;
            }
            pages.push(*page);
            granted += page.size();
            if granted >= need {
                break;
            }
        }
        debug_assert!(granted >= need, "free pages hold fewer than the free count");
        for page in &pages {
            mesh.occupy_submesh(page);
        }
        Some(Allocation::new(pages))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh2d::{Coord, SubMesh};

    fn paging0(mesh: &Mesh) -> Paging {
        Paging::new(mesh, 0, PageIndexing::RowMajor)
    }

    #[test]
    fn paging0_allocates_exactly_and_in_index_order() {
        let mut mesh = Mesh::new(16, 22);
        let mut p = paging0(&mesh);
        let a = p.allocate(&mut mesh, 3, 2).unwrap();
        assert_eq!(a.size(), 6);
        // first six processors in row-major order
        let nodes = a.nodes();
        assert_eq!(nodes[0], Coord::new(0, 0));
        assert_eq!(nodes[5], Coord::new(5, 0));
        assert_eq!(mesh.used_count(), 6);
    }

    #[test]
    fn paging0_succeeds_iff_enough_free() {
        let mut mesh = Mesh::new(4, 4);
        let mut p = paging0(&mesh);
        let a = p.allocate(&mut mesh, 4, 3).unwrap(); // 12 of 16
        assert!(p.allocate(&mut mesh, 5, 1).is_none()); // 5 > 4 free
        let b = p.allocate(&mut mesh, 2, 2).unwrap(); // exactly 4
        assert_eq!(mesh.free_count(), 0);
        p.release(&mut mesh, a);
        p.release(&mut mesh, b);
        assert_eq!(mesh.free_count(), 16);
    }

    #[test]
    fn paging0_fills_holes_left_by_departures() {
        let mut mesh = Mesh::new(4, 4);
        let mut p = paging0(&mesh);
        let a = p.allocate(&mut mesh, 4, 1).unwrap(); // row 0
        let _b = p.allocate(&mut mesh, 4, 1).unwrap(); // row 1
        p.release(&mut mesh, a);
        let c = p.allocate(&mut mesh, 2, 1).unwrap();
        // reuses the lowest-index pages (row 0), not fresh ones
        assert_eq!(c.nodes()[0], Coord::new(0, 0));
    }

    #[test]
    fn paging2_internal_fragmentation() {
        // Paging(2) = 4x4 pages: a 1x1 request occupies a whole page.
        let mut mesh = Mesh::new(16, 16);
        let mut p = Paging::new(&mesh, 2, PageIndexing::RowMajor);
        assert_eq!(p.page_side(), 4);
        let a = p.allocate(&mut mesh, 1, 1).unwrap();
        assert_eq!(a.size(), 16, "whole page granted");
        assert_eq!(mesh.used_count(), 16);
        p.release(&mut mesh, a);
        assert_eq!(mesh.used_count(), 0);
    }

    #[test]
    fn paging1_multiple_pages_until_covered() {
        let mut mesh = Mesh::new(8, 8);
        let mut p = Paging::new(&mesh, 1, PageIndexing::RowMajor); // 2x2 pages
        let a = p.allocate(&mut mesh, 3, 3).unwrap(); // 9 procs -> 3 pages = 12
        assert_eq!(a.fragments(), 3);
        assert_eq!(a.size(), 12);
    }

    #[test]
    fn release_unknown_panics() {
        let mut mesh = Mesh::new(4, 4);
        let mut p = paging0(&mesh);
        let _held = p.allocate(&mut mesh, 2, 1).unwrap();
        // a 1x1 page that was never granted: the mesh refuses to free it
        let bogus = Allocation::new(vec![SubMesh::from_base_size(Coord::new(3, 3), 1, 1)]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.release(&mut mesh, bogus);
        }));
        assert!(r.is_err());
    }

    #[test]
    fn snake_indexing_changes_order_not_capacity() {
        let mut mesh = Mesh::new(4, 4);
        let mut p = Paging::new(&mesh, 0, PageIndexing::SnakeLike);
        let a = p.allocate(&mut mesh, 4, 2).unwrap();
        assert_eq!(a.size(), 8);
        // snake order: row 0 L->R then row 1 R->L
        let nodes = a.nodes();
        assert_eq!(nodes[3], Coord::new(3, 0));
        assert_eq!(nodes[4], Coord::new(3, 1));
    }
}
