//! Random non-contiguous scatter allocation (ProcSimity's `Random`).
//!
//! Grants a request any `a·b` free processors chosen uniformly at random.
//! It is the zero-contiguity extreme: like Paging(0) and MBS it never
//! fails while enough processors are free, but its jobs are maximally
//! dispersed, maximizing communication distance and contention. Used by
//! the ablation scenarios as a lower bound on contiguity.
//!
//! The default area-bound `feasible` is exact, and `allocate` checks it
//! before any random draw, so a skipped doomed attempt leaves the stream
//! exactly where a failed attempt would have. The failure path consumes
//! no randomness and mutates nothing, and `p > free_count` is monotone
//! under further occupies, so a failure persists until a release.

use crate::{Allocation, AllocationStrategy};
use desim::SimRng;
use mesh2d::{Mesh, SubMesh};

/// Random scatter allocator.
#[derive(Debug)]
pub struct RandomNc {
    rng: SimRng,
}

impl RandomNc {
    /// A scatter allocator drawing from the given seed's stream.
    pub fn new(seed: u64) -> Self {
        RandomNc {
            rng: SimRng::new(seed),
        }
    }
}

impl AllocationStrategy for RandomNc {
    fn allocate(&mut self, mesh: &mut Mesh, a: u16, b: u16) -> Option<Allocation> {
        let p = a as u32 * b as u32;
        if p == 0 || p > mesh.free_count() {
            return None;
        }
        // reservoir-free approach: collect free nodes, partial shuffle
        let mut free: Vec<_> = mesh.iter_free().collect();
        for i in 0..p as usize {
            let j = i + self.rng.index(free.len() - i);
            free.swap(i, j);
        }
        let chosen = &free[..p as usize];
        let mut submeshes = Vec::with_capacity(p as usize);
        for &c in chosen {
            mesh.occupy(c);
            submeshes.push(SubMesh::from_base_size(c, 1, 1));
        }
        Some(Allocation::new(submeshes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_exact_count_of_singletons() {
        let mut mesh = Mesh::new(8, 8);
        let mut r = RandomNc::new(1);
        let a = r.allocate(&mut mesh, 3, 4).unwrap();
        assert_eq!(a.size(), 12);
        assert_eq!(a.fragments(), 12);
        assert_eq!(mesh.used_count(), 12);
    }

    #[test]
    fn succeeds_iff_enough_free() {
        let mut mesh = Mesh::new(4, 4);
        let mut r = RandomNc::new(2);
        let a = r.allocate(&mut mesh, 4, 3).unwrap();
        assert!(r.allocate(&mut mesh, 5, 1).is_none());
        assert!(r.allocate(&mut mesh, 4, 1).is_some());
        r.release(&mut mesh, a);
        assert_eq!(mesh.free_count(), 12);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed| {
            let mut mesh = Mesh::new(8, 8);
            let mut r = RandomNc::new(seed);
            r.allocate(&mut mesh, 4, 4).unwrap().nodes().to_vec()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
