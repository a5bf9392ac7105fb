//! The Multiple Buddy Strategy (Lo et al. 1997; paper §3).
//!
//! On initialization the mesh is divided into non-overlapping square
//! blocks with power-of-two sides (for non-power-of-two meshes such as the
//! paper's 16 × 22 this produces a forest: one 16×16, four 4×4, eight
//! 2×2). A request for `p` processors is factorized into base-4 digits
//! `p = Σ d_i · 4^i` and served with `d_i` blocks of side `2^i`, splitting
//! larger blocks into four buddies on demand; if a required size is
//! unavailable even by splitting, the request digit is broken into four
//! requests one level down. Released blocks re-merge with their buddies.
//!
//! The paper's key observation about MBS is that it seeks contiguity
//! *only* for requests of size `2^2n`; the real workload's preference for
//! non-power-of-two sizes is exactly what makes MBS rank below Paging(0)
//! on the trace-driven experiments.
//!
//! The forest serves any request while `p` processors are free, so the
//! default area-bound `feasible` is exact. A failed `allocate` takes no
//! block, and `p > free_count` is monotone under further occupies, so a
//! failure persists until a release.

use crate::{Allocation, AllocationStrategy};
use mesh2d::{buddy, Coord, Mesh, SubMesh};
use std::collections::HashMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlockState {
    /// Available for allocation (in the free list at its level).
    Free,
    /// Granted to a job.
    Allocated,
    /// Split into four live buddies.
    Split,
    /// Children of a merged parent; not individually available.
    Absorbed,
}

#[derive(Debug)]
struct BlockNode {
    sub: SubMesh,
    level: u8,
    parent: Option<u32>,
    children: Option<[u32; 4]>,
    state: BlockState,
    /// Bumped on every state change; stale free-list entries are detected
    /// by epoch mismatch.
    epoch: u32,
}

/// Multiple Buddy Strategy allocator.
#[derive(Debug)]
pub struct Mbs {
    nodes: Vec<BlockNode>,
    /// Free lists per level, entries are (node index, epoch at push).
    free_lists: Vec<Vec<(u32, u32)>>,
    /// Block indices granted to each live allocation, keyed by the base
    /// of its first sub-mesh (unique: live allocations are disjoint).
    /// Accessed only by key (insert/remove), never iterated, so the
    /// RandomState hash order cannot leak into results (D001-audited).
    live: HashMap<Coord, Vec<u32>>,
}

impl Mbs {
    /// Builds the buddy forest for `mesh`.
    pub fn new(mesh: &Mesh) -> Self {
        let roots = buddy::decompose_pow2_squares(mesh.width(), mesh.length());
        let max_level = roots
            .iter()
            // procsim-lint: allow(D005): trailing_zeros of a u16 is at most 16, which fits u8
            .map(|s| s.width().trailing_zeros() as u8)
            .max()
            // decompose_pow2_squares of a non-empty mesh yields at least one
            // square; an empty mesh degenerates to a single empty free list
            .unwrap_or(0);
        let mut mbs = Mbs {
            nodes: Vec::new(),
            free_lists: vec![Vec::new(); max_level as usize + 1],
            live: HashMap::new(),
        };
        for sub in roots {
            // procsim-lint: allow(D005): trailing_zeros of a u16 is at most 16, which fits u8
            let level = sub.width().trailing_zeros() as u8;
            // procsim-lint: allow(D005): the block tree holds at most ~4/3 * mesh size nodes, which fits u32
            let idx = mbs.nodes.len() as u32;
            mbs.nodes.push(BlockNode {
                sub,
                level,
                parent: None,
                children: None,
                state: BlockState::Free,
                epoch: 0,
            });
            mbs.free_lists[level as usize].push((idx, 0));
        }
        mbs
    }

    fn set_state(&mut self, idx: u32, state: BlockState) {
        let n = &mut self.nodes[idx as usize];
        n.state = state;
        n.epoch += 1;
    }

    fn push_free(&mut self, idx: u32) {
        self.set_state(idx, BlockState::Free);
        let epoch = self.nodes[idx as usize].epoch;
        let level = self.nodes[idx as usize].level as usize;
        self.free_lists[level].push((idx, epoch));
    }

    /// Pops a valid free block at exactly `level`, skipping stale entries.
    fn pop_free(&mut self, level: usize) -> Option<u32> {
        while let Some((idx, epoch)) = self.free_lists[level].pop() {
            let n = &self.nodes[idx as usize];
            if n.epoch == epoch && n.state == BlockState::Free {
                return Some(idx);
            }
        }
        None
    }

    /// Ensures `idx`'s children exist, creating them on first split.
    fn ensure_children(&mut self, idx: u32) -> [u32; 4] {
        if let Some(c) = self.nodes[idx as usize].children {
            return c;
        }
        let quads = buddy::split_square(&self.nodes[idx as usize].sub);
        let level = self.nodes[idx as usize].level - 1;
        let mut ids = [0u32; 4];
        for (k, q) in quads.into_iter().enumerate() {
            // procsim-lint: allow(D005): the block tree holds at most ~4/3 * mesh size nodes, which fits u32
            let cid = self.nodes.len() as u32;
            self.nodes.push(BlockNode {
                sub: q,
                level,
                parent: Some(idx),
                children: None,
                state: BlockState::Absorbed,
                epoch: 0,
            });
            ids[k] = cid;
        }
        self.nodes[idx as usize].children = Some(ids);
        ids
    }

    /// Obtains a free block of exactly `level`, splitting a larger free
    /// block if necessary. Marks the returned block `Allocated`.
    fn take_block(&mut self, level: usize) -> Option<u32> {
        if let Some(idx) = self.pop_free(level) {
            self.set_state(idx, BlockState::Allocated);
            return Some(idx);
        }
        // find the smallest larger free block and split it down
        let mut donor = None;
        for l in (level + 1)..self.free_lists.len() {
            if let Some(idx) = self.pop_free(l) {
                donor = Some((idx, l));
                break;
            }
        }
        let (mut idx, mut l) = donor?;
        while l > level {
            self.set_state(idx, BlockState::Split);
            let kids = self.ensure_children(idx);
            // keep the first child on the split path, free the other three
            for &k in &kids[1..] {
                self.push_free(k);
            }
            idx = kids[0];
            l -= 1;
        }
        self.set_state(idx, BlockState::Allocated);
        Some(idx)
    }

    /// Frees a block and greedily merges complete buddy sets upward.
    fn free_and_merge(&mut self, idx: u32) {
        self.push_free(idx);
        let mut cur = idx;
        while let Some(parent) = self.nodes[cur as usize].parent {
            // procsim-lint: allow(D004): invariant: a node only gains a parent via split_block, which records all four children
            let kids = self.nodes[parent as usize]
                .children
                .expect("invariant: parent block without children");
            let all_free = kids
                .iter()
                .all(|&k| self.nodes[k as usize].state == BlockState::Free);
            if !all_free {
                break;
            }
            for &k in &kids {
                self.set_state(k, BlockState::Absorbed);
            }
            self.push_free(parent);
            cur = parent;
        }
    }
}

impl AllocationStrategy for Mbs {
    fn allocate(&mut self, mesh: &mut Mesh, a: u16, b: u16) -> Option<Allocation> {
        let p = a as u32 * b as u32;
        if p == 0 || p > mesh.free_count() {
            return None;
        }
        // demand per level from the base-4 factorization
        let digits = buddy::base4_digits(p);
        let mut needed = vec![0u32; self.free_lists.len().max(digits.len())];
        for (i, &d) in digits.iter().enumerate() {
            needed[i] = d as u32;
        }
        // levels above the largest block can never be served directly
        let top = self.free_lists.len() - 1;
        for i in ((top + 1)..needed.len()).rev() {
            needed[i - 1] += needed[i] * 4;
            needed[i] = 0;
        }

        let mut taken: Vec<u32> = Vec::new();
        let mut level = top as isize;
        while level >= 0 {
            let l = level as usize;
            while needed[l] > 0 {
                match self.take_block(l) {
                    Some(idx) => {
                        needed[l] -= 1;
                        taken.push(idx);
                    }
                    None => {
                        if l == 0 {
                            // cannot happen while free_count >= p; undo
                            for idx in taken {
                                self.free_and_merge(idx);
                            }
                            return None;
                        }
                        // break the demand into four buddies one level down
                        needed[l - 1] += needed[l] * 4;
                        needed[l] = 0;
                    }
                }
            }
            level -= 1;
        }

        let submeshes: Vec<SubMesh> = taken.iter().map(|&i| self.nodes[i as usize].sub).collect();
        for s in &submeshes {
            mesh.occupy_submesh(s);
        }
        debug_assert_eq!(submeshes.iter().map(|s| s.size()).sum::<u32>(), p);
        self.live.insert(submeshes[0].base, taken);
        Some(Allocation::new(submeshes))
    }

    fn release(&mut self, mesh: &mut Mesh, alloc: Allocation) {
        let blocks = alloc
            .submeshes()
            .first()
            .and_then(|s| self.live.remove(&s.base))
            // procsim-lint: allow(D004): invariant: the simulator only releases allocations this allocator granted, exactly once
            .expect("invariant: release of unknown allocation");
        for idx in blocks {
            let sub = self.nodes[idx as usize].sub;
            debug_assert_eq!(self.nodes[idx as usize].state, BlockState::Allocated);
            mesh.release_submesh(&sub);
            self.free_and_merge(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimRng;

    #[test]
    fn power_of_four_request_is_one_block() {
        let mut mesh = Mesh::new(16, 16);
        let mut mbs = Mbs::new(&mesh);
        let a = mbs.allocate(&mut mesh, 4, 4).unwrap();
        assert_eq!(a.fragments(), 1, "16 = 4^2 processors -> one 4x4 block");
        assert_eq!(a.submeshes()[0].width(), 4);
    }

    #[test]
    fn factorized_request_block_sizes() {
        let mut mesh = Mesh::new(16, 16);
        let mut mbs = Mbs::new(&mesh);
        // 13 = 1*1 + 3*4: one 1x1 + three 2x2
        let a = mbs.allocate(&mut mesh, 13, 1).unwrap();
        assert_eq!(a.size(), 13);
        let mut sides: Vec<u16> = a.submeshes().iter().map(|s| s.width()).collect();
        sides.sort_unstable();
        assert_eq!(sides, vec![1, 2, 2, 2]);
    }

    #[test]
    fn succeeds_exactly_when_enough_free() {
        let mut mesh = Mesh::new(16, 22);
        let mut mbs = Mbs::new(&mesh);
        let a = mbs.allocate(&mut mesh, 16, 20).unwrap(); // 320 of 352
        assert_eq!(mesh.used_count(), 320);
        assert!(mbs.allocate(&mut mesh, 11, 3).is_none()); // 33 > 32
        let b = mbs.allocate(&mut mesh, 8, 4).unwrap(); // exactly 32
        assert_eq!(mesh.free_count(), 0);
        mbs.release(&mut mesh, b);
        mbs.release(&mut mesh, a);
        assert_eq!(mesh.free_count(), 352);
    }

    #[test]
    fn merge_restores_large_blocks() {
        let mut mesh = Mesh::new(16, 16);
        let mut mbs = Mbs::new(&mesh);
        // fragment the mesh with many small allocations
        let mut allocs = Vec::new();
        for _ in 0..64 {
            allocs.push(mbs.allocate(&mut mesh, 2, 2).unwrap());
        }
        assert_eq!(mesh.free_count(), 0);
        for a in allocs {
            mbs.release(&mut mesh, a);
        }
        // after all releases the full 16x16 block must be mergeable again:
        // a 256-processor request must come back as a single block
        let big = mbs.allocate(&mut mesh, 16, 16).unwrap();
        assert_eq!(big.fragments(), 1);
    }

    #[test]
    fn paper_mesh_nonpow2_requests() {
        // On 16x22 the forest is 16x16 + 4x(4x4) + 8x(2x2). A 5x7=35
        // request (non-power-of-two, like the trace jobs) must still be
        // served exactly: 35 = 3 + 0*4 + 2*16 -> 2 blocks 4x4 + 3 blocks 1x1.
        let mut mesh = Mesh::new(16, 22);
        let mut mbs = Mbs::new(&mesh);
        let a = mbs.allocate(&mut mesh, 5, 7).unwrap();
        assert_eq!(a.size(), 35);
        let mut sides: Vec<u16> = a.submeshes().iter().map(|s| s.width()).collect();
        sides.sort_unstable();
        assert_eq!(sides, vec![1, 1, 1, 4, 4]);
        mbs.release(&mut mesh, a);
        assert_eq!(mesh.free_count(), 352);
    }

    #[test]
    fn breaks_demand_down_when_large_blocks_exhausted() {
        let mut mesh = Mesh::new(8, 8);
        let mut mbs = Mbs::new(&mesh);
        // carve the single 8x8 root into pieces so no 4x4 block survives
        let hold: Vec<_> = (0..3).map(|_| mbs.allocate(&mut mesh, 4, 4).unwrap()).collect();
        let small = mbs.allocate(&mut mesh, 3, 3).unwrap(); // 9 procs of last 16
        // now request 4 more processors: must be served from fragments
        let four = mbs.allocate(&mut mesh, 2, 2).unwrap();
        assert_eq!(four.size(), 4);
        drop(hold);
        drop(small);
    }

    #[test]
    fn random_churn_preserves_consistency() {
        let mut mesh = Mesh::new(16, 22);
        let mut mbs = Mbs::new(&mesh);
        let mut rng = SimRng::new(404);
        let mut live = Vec::new();
        for _ in 0..2000 {
            if rng.chance(0.6) || live.is_empty() {
                let a = rng.uniform_incl(1, 16) as u16;
                let b = rng.uniform_incl(1, 22) as u16;
                let before = mesh.free_count();
                match mbs.allocate(&mut mesh, a, b) {
                    Some(al) => {
                        assert_eq!(al.size(), a as u32 * b as u32);
                        assert_eq!(mesh.free_count(), before - al.size());
                        live.push(al);
                    }
                    None => {
                        assert!(
                            (a as u32 * b as u32) > before,
                            "MBS refused {}x{} with {} free",
                            a,
                            b,
                            before
                        );
                    }
                }
            } else {
                let i = rng.index(live.len());
                let al = live.swap_remove(i);
                mbs.release(&mut mesh, al);
            }
        }
        let total_live: u32 = live.iter().map(|a| a.size()).sum();
        assert_eq!(mesh.used_count(), total_live);
    }
}
