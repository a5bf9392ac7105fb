//! # mesh2d — 2D mesh topology and sub-mesh algebra
//!
//! Geometric substrate for processor allocation in 2D mesh multicomputers.
//! Provides:
//!
//! * [`Coord`] / [`NodeId`] — processor coordinates and linear ids,
//! * [`SubMesh`] — inclusive rectangular regions (the paper's
//!   `S(x, y, x', y')` notation, Definition 1),
//! * [`Mesh`] — an occupancy grid (one free-bit mask per row) with
//!   allocation bookkeeping,
//! * [`rect`] — free-rectangle searches over the row masks (first-fit
//!   suitable sub-mesh, every free placement, largest free sub-mesh under
//!   side caps) used by contiguous allocation and by GABL,
//! * [`buddy`] — decomposition of an arbitrary `W × L` mesh into
//!   power-of-two squares and quadrant splitting, used by MBS,
//! * [`pages`] — page grids and the four page indexing schemes of the
//!   Paging strategy (row-major, shuffled row-major, snake-like, shuffled
//!   snake-like).
//!
//! The target system of the reproduced paper is a `16 × 22` mesh (352
//! processors, matching the SDSC Intel Paragon partition), but everything
//! here is generic over mesh dimensions.

// Deep invariant check: a `debug_assert!` in ordinary builds, promoted
// to an always-compiled `assert!` under `--features invariants` (see
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

pub mod buddy;
pub mod coord;
pub mod mesh;
pub mod pages;
pub mod rect;
pub mod submesh;

pub use buddy::{decompose_pow2_squares, split_square};
pub use coord::{Coord, NodeId};
pub use mesh::Mesh;
pub use pages::{PageGrid, PageIndexing};
pub use rect::{
    find_free_submesh, largest_free_rect, largest_free_rect_near, try_free_submeshes,
};
pub use submesh::SubMesh;
