//! The host-speed probe: a fixed piece of work, independent of procsim,
//! timed between replications so that the timed metrics can be given at
//! one reference host speed.
//!
//! A shared host's speed swings by a third or more within minutes (other
//! tenants' load on the same caches and cores). A run's raw times follow
//! that swing and the probe's times follow it too, so a replication's
//! time scaled by a power of the probe's time measured beside it stays
//! put while the program stays put (the power is the workload's
//! `host_exponent`). The probe builds nothing from the library, so a
//! change to the program cannot move it.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// `u32` entries in the probe's table: 256 KiB, about the size of a
/// replication's hot state, so it runs from the same cache levels.
const TABLE: usize = 1 << 16;
/// Iterations of one probe slice (about a millisecond).
const ITERS: u32 = 100_000;
/// The reference host speed: one probe slice takes this long. A timed
/// metric is reported as `raw seconds × (REFERENCE_SLICE_S / probe slice
/// seconds)^k`, the seconds it would have taken on a host of that speed
/// (the host the README's baseline was measured on runs a slice in
/// 0.9–1.3 ms).
pub const REFERENCE_SLICE_S: f64 = 1.0e-3;

/// The probe's table and generator state, one for the process (the
/// main thread probes between passes, the pool's worker during them), so
/// the probe adds one table to peak memory.
static STATE: Mutex<(Vec<u32>, u64)> = Mutex::new((Vec::new(), 1));

/// Runs one probe slice on this thread and returns its seconds.
///
/// The slice mixes what a replication's inner loop does: a pseudo-random
/// walk through a cache-sized table (each read's address depends on the
/// one before), read-modify-write updates, and a branch that cannot be
/// predicted.
pub fn slice() -> f64 {
    let mut state = STATE.lock().unwrap_or_else(|e| e.into_inner());
    let (table, x) = &mut *state;
    if table.is_empty() {
        *table = (0..TABLE as u32)
            .map(|i| i.wrapping_mul(0x9E37_79B9))
            .collect();
    }
    // bring the table back into cache untimed: what the replication before
    // evicted must not count, or a program with a bigger footprint would
    // slow the probe and read faster for it
    black_box(table.iter().fold(0u32, |a, &v| a ^ v));
    let start = Instant::now();
    let mut j = 0usize;
    for _ in 0..ITERS {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        let v = table[(j ^ *x as usize) & (TABLE - 1)];
        j = v as usize & (TABLE - 1);
        if *x & 0x100 != 0 {
            table[j] = v.wrapping_add(*x as u32);
        } else {
            table[j] ^= v >> 3;
        }
    }
    black_box(j);
    start.elapsed().as_secs_f64()
}

/// The centred moving median of `probe` over `half` neighbours on each
/// side (fewer at the ends): the host speed around each sample.
pub fn local(probe: &[f64], half: usize) -> Vec<f64> {
    (0..probe.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(probe.len());
            crate::metrics::median(&probe[lo..hi])
        })
        .collect()
}

/// How strongly replication times follow the probe: the slope of
/// `ln(seconds)` on `ln(local probe)`, each replication compared with the
/// same replication in the run's other passes (`per_pass` replications a
/// pass, every pass complete). 1 means the program slows exactly as the
/// probe does.
pub fn elasticity(secs: &[f64], local: &[f64], per_pass: usize) -> f64 {
    let centred = |v: &[f64]| -> Vec<f64> {
        let logs: Vec<f64> = v.iter().map(|x| x.ln()).collect();
        let passes = logs.len() / per_pass;
        let means: Vec<f64> = (0..per_pass)
            .map(|i| (0..passes).map(|p| logs[p * per_pass + i]).sum::<f64>() / passes as f64)
            .collect();
        logs.iter()
            .enumerate()
            .map(|(j, x)| x - means[j % per_pass])
            .collect()
    };
    let (x, y) = (centred(local), centred(secs));
    let sxy: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
    let sxx: f64 = x.iter().map(|a| a * a).sum();
    sxy / sxx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slice_takes_time() {
        slice();
        assert!(slice() > 0.0);
    }

    #[test]
    fn elasticity_recovers_a_power_law() {
        // two replications a pass, three passes, host speed varying by pass
        let probe = [1.0, 1.0, 2.0, 2.0, 1.5, 1.5];
        let base = [3.0, 5.0];
        let secs: Vec<f64> = probe
            .iter()
            .enumerate()
            .map(|(j, p)| base[j % 2] * f64::powf(*p, 1.5))
            .collect();
        assert!((elasticity(&secs, &probe, 2) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn local_medians() {
        let v = [1.0, 9.0, 2.0, 3.0, 100.0, 4.0];
        assert_eq!(local(&v, 1), vec![5.0, 2.0, 3.0, 3.0, 4.0, 52.0]);
        assert_eq!(local(&v, 0), v.to_vec());
    }
}
