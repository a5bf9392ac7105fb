//! Cross-strategy invariants, property-tested against random churn.
//!
//! These are the load-bearing guarantees of the paper's §5 analysis:
//! 1. non-contiguous strategies (GABL, Paging(0), MBS, Random, MC)
//!    succeed exactly when enough processors are free;
//! 2. allocations are disjoint and tracked exactly by the mesh;
//! 3. release fully restores state (no leaks over arbitrary schedules);
//! 4. allocated processor counts match the request (no over/under grant,
//!    Paging(k>0) internal fragmentation excepted);
//! 5. `feasible` never rejects a request `allocate` would grant, and is
//!    exact for the strategies that succeed whenever enough is free.

use mesh2d::{Mesh, PageIndexing};
use mesh_alloc::StrategyKind;
use proptest::prelude::*;

/// The strategies that succeed whenever `a·b` processors are free.
fn kinds() -> Vec<StrategyKind> {
    vec![
        StrategyKind::Gabl,
        StrategyKind::Paging {
            size_index: 0,
            indexing: PageIndexing::RowMajor,
        },
        StrategyKind::Mbs,
        StrategyKind::Random,
        StrategyKind::Mc,
    ]
}

/// Every strategy kind, plus Paging with pages larger than one
/// processor (it over-grants, so `kinds` leaves it out).
fn all_kinds() -> Vec<StrategyKind> {
    let mut all = kinds();
    all.extend([
        StrategyKind::FirstFit,
        StrategyKind::BestFit,
        StrategyKind::Paging {
            size_index: 2,
            indexing: PageIndexing::SnakeLike,
        },
    ]);
    all
}

/// The paper's 16 × 22 mesh, except for MC, whose search is
/// O(free × mesh): an 8 × 8 mesh keeps its churn cheap.
fn mesh_for(kind: StrategyKind) -> Mesh {
    match kind {
        StrategyKind::Mc => Mesh::new(8, 8),
        _ => Mesh::new(16, 22),
    }
}

/// Folds a generated request into the mesh's sides (the identity on
/// the 16 × 22 mesh).
fn fit(mesh: &Mesh, a: u16, b: u16) -> (u16, u16) {
    (1 + (a - 1) % mesh.width(), 1 + (b - 1) % mesh.length())
}

/// A random schedule of allocate/release operations.
#[derive(Debug, Clone)]
enum Op {
    Alloc(u16, u16),
    /// Release the i-th (mod len) live allocation.
    Release(usize),
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (1u16..=16, 1u16..=22).prop_map(|(a, b)| Op::Alloc(a, b)),
            2 => (0usize..64).prop_map(Op::Release),
        ],
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn noncontiguous_succeed_iff_free(ops in arb_ops(), kind_i in 0usize..5) {
        let kind = kinds()[kind_i];
        let mut mesh = mesh_for(kind);
        let mut strat = kind.build(&mesh, 42);
        let mut live = Vec::new();
        for op in ops {
            match op {
                Op::Alloc(a, b) => {
                    let (a, b) = fit(&mesh, a, b);
                    let p = a as u32 * b as u32;
                    let free = mesh.free_count();
                    match strat.allocate(&mut mesh, a, b) {
                        Some(al) => {
                            // granted at least the request (Paging(0)/MBS/
                            // GABL/Random grant exactly)
                            prop_assert_eq!(al.size(), p);
                            prop_assert_eq!(mesh.free_count(), free - p);
                            live.push(al);
                        }
                        None => {
                            prop_assert!(p > free,
                                "{} failed with {} free for request {}",
                                kind, free, p);
                        }
                    }
                }
                Op::Release(i) => {
                    if !live.is_empty() {
                        let al = live.swap_remove(i % live.len());
                        let free = mesh.free_count();
                        let sz = al.size();
                        strat.release(&mut mesh, al);
                        prop_assert_eq!(mesh.free_count(), free + sz);
                    }
                }
            }
        }
        // drain: releasing everything restores the empty mesh
        for al in live {
            strat.release(&mut mesh, al);
        }
        prop_assert_eq!(mesh.free_count(), mesh.size());
    }

    #[test]
    fn allocations_are_disjoint(ops in arb_ops(), kind_i in 0usize..5) {
        let kind = kinds()[kind_i];
        let mut mesh = mesh_for(kind);
        let mut strat = kind.build(&mesh, 7);
        let mut live: Vec<mesh_alloc::Allocation> = Vec::new();
        for op in ops {
            match op {
                Op::Alloc(a, b) => {
                    let (a, b) = fit(&mesh, a, b);
                    if let Some(al) = strat.allocate(&mut mesh, a, b) {
                        live.push(al);
                    }
                }
                Op::Release(i) => {
                    if !live.is_empty() {
                        let al = live.swap_remove(i % live.len());
                        strat.release(&mut mesh, al);
                    }
                }
            }
        }
        // pairwise disjoint across all live allocations
        let mut seen = std::collections::HashSet::new();
        for al in &live {
            for &c in al.nodes() {
                prop_assert!(seen.insert(c), "{} double-allocated {}", kind, c);
                prop_assert!(mesh.is_occupied(c));
            }
        }
        prop_assert_eq!(seen.len() as u32, mesh.used_count());
    }

    /// `feasible` is a safe pre-check for every strategy: when it says
    /// no, `allocate` fails and leaves the mesh untouched. For all but
    /// the contiguous strategies it is exact.
    #[test]
    fn feasible_never_rejects_a_grant(ops in arb_ops(), kind_i in 0usize..8) {
        let kind = all_kinds()[kind_i];
        let exact = !matches!(kind, StrategyKind::FirstFit | StrategyKind::BestFit);
        let mut mesh = mesh_for(kind);
        let mut strat = kind.build(&mesh, 3);
        let mut live = Vec::new();
        for op in ops {
            match op {
                Op::Alloc(a, b) => {
                    let (a, b) = fit(&mesh, a, b);
                    let feasible = strat.feasible(&mesh, a, b);
                    let (epoch, free) = (mesh.epoch(), mesh.free_count());
                    let granted = strat.allocate(&mut mesh, a, b);
                    if !feasible {
                        prop_assert!(granted.is_none(), "{} granted infeasible {}x{}", kind, a, b);
                        prop_assert_eq!(mesh.epoch(), epoch, "{} touched the mesh", kind);
                    }
                    if exact {
                        prop_assert_eq!(granted.is_some(), feasible,
                            "{} feasible {} for {}x{} with {} free", kind, feasible, a, b, free);
                    }
                    live.extend(granted);
                }
                Op::Release(i) => {
                    if !live.is_empty() {
                        let al = live.swap_remove(i % live.len());
                        strat.release(&mut mesh, al);
                    }
                }
            }
        }
    }

    #[test]
    fn contiguous_never_splits(ops in arb_ops(), use_bf in any::<bool>()) {
        let kind = if use_bf { StrategyKind::BestFit } else { StrategyKind::FirstFit };
        let mut mesh = Mesh::new(16, 22);
        let mut strat = kind.build(&mesh, 0);
        let mut live = Vec::new();
        for op in ops {
            match op {
                Op::Alloc(a, b) => {
                    if let Some(al) = strat.allocate(&mut mesh, a, b) {
                        prop_assert_eq!(al.fragments(), 1);
                        prop_assert_eq!(al.size(), a as u32 * b as u32);
                        live.push(al);
                    }
                }
                Op::Release(i) => {
                    if !live.is_empty() {
                        let al = live.swap_remove(i % live.len());
                        strat.release(&mut mesh, al);
                    }
                }
            }
        }
    }

    /// GABL produces no more fragments than Random would (sanity of the
    /// contiguity-greedy claim) and at least as few as possible (1 when a
    /// suitable sub-mesh exists is covered in unit tests).
    #[test]
    fn gabl_fragments_bounded_by_request(a in 1u16..=16, b in 1u16..=22, churn in arb_ops()) {
        let mut mesh = Mesh::new(16, 22);
        let mut strat = StrategyKind::Gabl.build(&mesh, 0);
        let mut live = Vec::new();
        for op in churn {
            match op {
                Op::Alloc(x, y) => {
                    if let Some(al) = strat.allocate(&mut mesh, x, y) {
                        live.push(al);
                    }
                }
                Op::Release(i) => {
                    if !live.is_empty() {
                        let al = live.swap_remove(i % live.len());
                        strat.release(&mut mesh, al);
                    }
                }
            }
        }
        if let Some(al) = strat.allocate(&mut mesh, a, b) {
            prop_assert!(al.fragments() as u32 <= al.size());
            // greedy: piece sizes (max side) never increase
            let sides: Vec<u16> = al.submeshes().iter().map(|s| s.width().max(s.length())).collect();
            for w in sides.windows(2) {
                prop_assert!(w[0] >= w[1]);
            }
        }
    }
}
