//! Synthetic LANL CM-5 style trace model.
//!
//! The paper's future work proposes evaluating "the allocation strategies
//! based on other real workload traces from different parallel machines".
//! Its reference \[9\] (Windisch et al., Frontiers '96) compares the SDSC
//! Paragon trace against a LANL CM-5 trace whose defining property is the
//! opposite of the Paragon's: the CM-5 scheduler only offered
//! **power-of-two partition sizes** (32, 64, 128, 256, ...), so every job
//! size is a power of two.
//!
//! That property is exactly the one the paper blames for MBS's demotion
//! on the Paragon trace ("contiguous allocation is explicitly sought in
//! MBS only for requests with sizes of the form 2^2n"), so a CM-5-style
//! workload is the natural counterfactual: under it MBS's buddy blocks
//! align perfectly with requests. `scenarios/futurework_cm5.toml` runs the
//! comparison.

use crate::TraceRecord;
use desim::SimRng;
use std::borrow::BorrowMut;

/// Parameters of the synthetic CM-5-like model.
#[derive(Debug, Clone)]
pub struct Cm5Model {
    /// Number of jobs.
    pub jobs: usize,
    /// Mean inter-arrival time in seconds.
    pub mean_interarrival_s: f64,
    /// Power-of-two size menu with selection weights (size, weight).
    /// Defaults follow the CM-5 shape reported by Windisch et al.:
    /// small partitions dominate, with a tail of machine-scale jobs.
    pub size_menu: Vec<(u32, f64)>,
    /// Lognormal median runtime in seconds.
    pub runtime_median_s: f64,
    /// Lognormal sigma of runtimes.
    pub runtime_sigma: f64,
}

impl Default for Cm5Model {
    fn default() -> Self {
        Cm5Model {
            jobs: 10_658,
            mean_interarrival_s: 1186.7,
            size_menu: vec![
                (32, 0.48),
                (64, 0.27),
                (128, 0.16),
                (256, 0.09),
            ],
            runtime_median_s: 600.0,
            runtime_sigma: 1.6,
        }
    }
}

impl Cm5Model {
    /// Lazily generates the synthetic trace, one record per `next()`
    /// (draw order identical to [`generate`](Self::generate) for the
    /// same seed — see [`crate::ParagonModel::stream`]).
    pub fn stream(self, mut rng: impl BorrowMut<SimRng>) -> impl Iterator<Item = TraceRecord> {
        assert!(!self.size_menu.is_empty());
        let total_w: f64 = self.size_menu.iter().map(|(_, w)| w).sum();
        let mu_rt = self.runtime_median_s.ln();
        let mut t = 0.0f64;
        (0..self.jobs).map(move |_| {
            let rng = rng.borrow_mut();
            t += rng.exp(self.mean_interarrival_s);
            let mut pick = rng.uniform01() * total_w;
            let mut size = self.size_menu[0].0;
            for &(s, w) in &self.size_menu {
                if pick < w {
                    size = s;
                    break;
                }
                pick -= w;
            }
            TraceRecord {
                submit_s: t,
                size,
                runtime_s: rng.lognormal(mu_rt, self.runtime_sigma).max(1.0),
            }
        })
    }

    /// Generates the synthetic trace (a `collect()` of
    /// [`stream`](Self::stream)).
    pub fn generate(&self, rng: &mut SimRng) -> Vec<TraceRecord> {
        self.clone().stream(rng).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_sizes_are_powers_of_two() {
        let recs = Cm5Model::default().generate(&mut SimRng::new(4));
        assert_eq!(recs.len(), 10_658);
        assert!(recs.iter().all(|r| r.size.is_power_of_two()));
        assert!(recs.iter().all(|r| r.size >= 32));
    }

    #[test]
    fn size_mix_follows_menu() {
        let recs = Cm5Model::default().generate(&mut SimRng::new(5));
        let frac32 =
            recs.iter().filter(|r| r.size == 32).count() as f64 / recs.len() as f64;
        assert!((frac32 - 0.48).abs() < 0.03, "32-node fraction {frac32}");
    }

    #[test]
    fn arrivals_poissonian() {
        let recs = Cm5Model::default().generate(&mut SimRng::new(6));
        let mean = recs.last().unwrap().submit_s / recs.len() as f64;
        assert!((mean - 1186.7).abs() / 1186.7 < 0.05);
    }

    #[test]
    fn deterministic() {
        let m = Cm5Model::default();
        assert_eq!(m.generate(&mut SimRng::new(9)), m.generate(&mut SimRng::new(9)));
    }

    #[test]
    fn stream_matches_generate() {
        let m = Cm5Model {
            jobs: 500,
            ..Default::default()
        };
        let batch = m.generate(&mut SimRng::new(13));
        let mut rng = SimRng::new(13);
        let streamed: Vec<_> = m.stream(&mut rng).collect();
        assert_eq!(streamed, batch);
    }
}
