//! The paper's §6 claim about GABL: it "achieves this by using a busy
//! list whose length is often small even when the size of the mesh
//! scales up". Synthetic allocate/release churn holds each mesh at about
//! 70 % occupancy, and the busy list's high-water mark must grow no
//! faster than the square root of the processor count.

use desim::SimRng;
use mesh2d::Mesh;
use mesh_alloc::{AllocationStrategy, Gabl};

/// Peak busy-list length of GABL under 5000 churn steps on a `w × l`
/// mesh: allocate a random request of up to half of each side while
/// occupancy is below 70 %, otherwise release a random live job.
fn peak_busy_len(w: u16, l: u16) -> usize {
    let mut mesh = Mesh::new(w, l);
    let mut gabl = Gabl::new();
    let mut rng = SimRng::new(999);
    let mut live = Vec::new();
    let target = mesh.size() * 7 / 10;
    for _ in 0..5000 {
        if mesh.used_count() < target || live.is_empty() {
            let a = rng.uniform_incl(1, u64::from(w / 2)) as u16;
            let b = rng.uniform_incl(1, u64::from(l / 2)) as u16;
            if let Some(al) = gabl.allocate(&mut mesh, a, b) {
                live.push(al);
            }
        } else {
            let al = live.swap_remove(rng.index(live.len()));
            gabl.release(&mut mesh, al);
        }
    }
    gabl.peak_busy_len()
}

#[test]
fn busy_list_stays_short_as_the_mesh_grows() {
    // Observed peak and peak/sqrt(P):
    //   8x8 → 18 (2.25), 16x16 → 31 (1.94), 16x22 → 46 (2.45),
    //   32x32 → 54 (1.69), 64x64 → 48 (0.75), 128x128 → 51 (0.40).
    // The peak levels off near 50 while P grows 256-fold, so the ratio
    // falls: the list grows more slowly than sqrt(P).
    let mut ratios = Vec::new();
    for (w, l) in [(8u16, 8u16), (16, 16), (16, 22), (32, 32), (64, 64), (128, 128)] {
        let peak = peak_busy_len(w, l);
        let ratio = peak as f64 / (f64::from(w) * f64::from(l)).sqrt();
        assert!(ratio <= 3.0, "{w}x{l}: peak {peak}, peak/sqrt(P) = {ratio:.2}");
        ratios.push(ratio);
    }
    // sub-sqrt growth: the largest mesh's ratio is well below the smallest's
    assert!(
        ratios[ratios.len() - 1] < 0.25 * ratios[0],
        "peak/sqrt(P) does not fall with mesh size: {ratios:?}"
    );
}

