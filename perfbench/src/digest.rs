//! Output digests and the reference digests stored with the benchmark.
//!
//! A replication is correct when the digest of its `RunMetrics` — the
//! measured job and packet counts, the simulated end time and the six
//! response means as exact bits — equals the reference recorded for the
//! same workload, seed, cell and replication. References live in
//! `references/<workload>.txt`, one line per seed:
//! `<seed> <digest of replication 0> <digest of replication 1> …` in
//! pass order. Regenerate them with the `record` mode (see README.md)
//! only when the simulated behaviour is meant to change.

use crate::workloads::Workload;
use procsim_core::RunMetrics;

/// FNV-1a over the outputs that define a replication's result.
pub fn digest(m: &RunMetrics) -> u64 {
    let mut words = vec![m.jobs, m.packets, m.end_time];
    words.extend(m.response_vector().map(f64::to_bits));
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn reference_text(w: Workload) -> &'static str {
    match w {
        Workload::PaperMesh => include_str!("../references/paper_mesh.txt"),
        Workload::PaperTorus => include_str!("../references/paper_torus.txt"),
        Workload::SwfTorus => include_str!("../references/swf_torus.txt"),
        Workload::DeepQueue => include_str!("../references/deep_queue.txt"),
    }
}

/// The stored digests of every replication of a pass for `seed`, or
/// `None` when no reference was recorded for that seed.
pub fn reference(w: Workload, seed: u64) -> Result<Option<Vec<u64>>, String> {
    for (i, line) in reference_text(w).lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || format!("references/{}.txt line {}: malformed", w.name(), i + 1);
        let mut fields = line.split_whitespace();
        let s: u64 = fields.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        if s != seed {
            continue;
        }
        return fields
            .map(|f| u64::from_str_radix(f, 16).map_err(|_| bad()))
            .collect::<Result<Vec<u64>, String>>()
            .map(Some);
    }
    Ok(None)
}

/// One reference line for `seed`.
pub fn reference_line(seed: u64, digests: &[u64]) -> String {
    let mut line = seed.to_string();
    for d in digests {
        line.push_str(&format!(" {d:016x}"));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_lines_round_trip() {
        let line = reference_line(7, &[1, u64::MAX]);
        assert_eq!(line, "7 0000000000000001 ffffffffffffffff");
    }

    #[test]
    fn every_workload_has_references_for_the_default_and_held_out_seeds() {
        for w in Workload::ALL {
            for seed in [crate::DEFAULT_SEED, crate::HELD_OUT_SEED] {
                let r = reference(w, seed).expect("well formed").expect("recorded");
                assert_eq!(r.len(), w.cells().len() * w.full_size().reps as usize);
            }
        }
    }
}
