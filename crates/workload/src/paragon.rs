//! Synthetic SDSC Intel Paragon trace model.
//!
//! The paper drives its "real workload" experiments with a trace of 10 658
//! production jobs from the 352-node partition of the SDSC Paragon
//! (obtained privately from the Feitelson archive). That trace cannot be
//! redistributed, so this module synthesizes a statistically matched
//! stand-in that preserves the properties the paper's conclusions rest on
//! (see DESIGN.md §3):
//!
//! * mean inter-arrival time 1186.7 s, with super-Poissonian burstiness
//!   (hyperexponential mixture, CV ≈ 2) typical of production arrivals;
//! * mean job size ≈ 34.5 nodes with a long tail and a distribution
//!   *favouring non-powers-of-two* — the property that demotes MBS in the
//!   trace-driven figures;
//! * heavy-tailed (lognormal) runtimes, which become per-job communication
//!   demand.
//!
//! A genuine SWF trace can replace this model at any time via
//! [`crate::swf::parse_swf`] + [`trace_to_jobs`].

use crate::{shape_for_size, JobSpec};
use desim::{SimRng, Time};
use serde::{Deserialize, Serialize};
use std::borrow::BorrowMut;

/// One raw trace record (times in seconds, as in workload archives).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Submission time, seconds from trace start.
    pub submit_s: f64,
    /// Processors used.
    pub size: u32,
    /// Runtime in seconds.
    pub runtime_s: f64,
}

/// Parameters of the synthetic Paragon model (defaults reproduce the
/// statistics quoted in the paper §5).
#[derive(Debug, Clone)]
pub struct ParagonModel {
    /// Number of jobs (paper: 10 658).
    pub jobs: usize,
    /// Mean inter-arrival time in seconds (paper: 1186.7).
    pub mean_interarrival_s: f64,
    /// Probability of a "burst" (short-gap) arrival in the
    /// hyperexponential mixture.
    pub burst_prob: f64,
    /// Mean of the short gap, as a fraction of the overall mean.
    pub burst_frac: f64,
    /// Target mean job size in nodes (paper: 34.5).
    pub mean_size: f64,
    /// Lognormal sigma of the size distribution (controls the tail).
    pub size_sigma: f64,
    /// Machine size: sizes are clamped to this (paper: 352).
    pub max_size: u32,
    /// Lognormal median runtime in seconds.
    pub runtime_median_s: f64,
    /// Lognormal sigma of runtimes.
    pub runtime_sigma: f64,
}

impl Default for ParagonModel {
    fn default() -> Self {
        ParagonModel {
            jobs: 10_658,
            mean_interarrival_s: 1186.7,
            burst_prob: 0.65,
            burst_frac: 0.25,
            mean_size: 34.5,
            size_sigma: 1.05,
            max_size: 352,
            runtime_median_s: 600.0,
            runtime_sigma: 1.6,
        }
    }
}

impl ParagonModel {
    /// Draws one job size. Lognormal body tuned to the target mean, with
    /// a nudge off powers of two: production Paragon jobs mostly asked for
    /// "however many nodes the problem needed", and the paper highlights
    /// that the distribution favours non-powers-of-two.
    fn draw_size(&self, rng: &mut SimRng) -> u32 {
        // lognormal mean = exp(mu + sigma^2/2) => mu from target mean
        let mu = self.mean_size.ln() - self.size_sigma * self.size_sigma / 2.0;
        let mut size = rng.lognormal(mu, self.size_sigma).round() as u32;
        size = size.clamp(1, self.max_size);
        // push most power-of-two draws off the power (asymmetric to keep
        // non-power-of-two dominance without shifting the mean much)
        if size.is_power_of_two() && size > 1 && rng.chance(0.7) {
            size = if rng.chance(0.5) && size < self.max_size {
                size + 1 + rng.uniform_incl(0, 2) as u32
            } else {
                size - 1 - (rng.uniform_incl(0, 2) as u32).min(size - 2)
            };
            size = size.clamp(1, self.max_size);
        }
        size
    }

    /// Draws one inter-arrival gap in seconds (hyperexponential, mean
    /// `mean_interarrival_s`).
    fn draw_gap(&self, rng: &mut SimRng) -> f64 {
        let short_mean = self.mean_interarrival_s * self.burst_frac;
        let long_mean = (self.mean_interarrival_s - self.burst_prob * short_mean)
            / (1.0 - self.burst_prob);
        if rng.chance(self.burst_prob) {
            rng.exp(short_mean)
        } else {
            rng.exp(long_mean)
        }
    }

    /// Lazily generates the synthetic trace, one record per `next()`.
    ///
    /// Draw order per job (gap, size, runtime) is identical to
    /// [`generate`](Self::generate), so for the same seed the stream and
    /// the batch are record-for-record equal — `gen-trace` pipes this
    /// straight into [`crate::swf::write_swf_to`] to write million-job
    /// fixtures in O(1) memory. Given an owned `rng` the stream owns all
    /// its state, as a replication's synthetic job source does.
    pub fn stream(self, mut rng: impl BorrowMut<SimRng>) -> impl Iterator<Item = TraceRecord> {
        let mu_rt = self.runtime_median_s.ln();
        let mut t = 0.0f64;
        (0..self.jobs).map(move |_| {
            let rng = rng.borrow_mut();
            t += self.draw_gap(rng);
            TraceRecord {
                submit_s: t,
                size: self.draw_size(rng),
                runtime_s: rng.lognormal(mu_rt, self.runtime_sigma).max(1.0),
            }
        })
    }

    /// Generates the full synthetic trace (a `collect()` of
    /// [`stream`](Self::stream)).
    pub fn generate(&self, rng: &mut SimRng) -> Vec<TraceRecord> {
        self.clone().stream(rng).collect()
    }
}

/// Converts trace records into simulator jobs.
///
/// * Arrival times are multiplied by the paper's scaling factor `f`
///   (`f < 1` compresses the trace, increasing system load) and mapped
///   1 s → 1 cycle.
/// * Sizes become near-square `a × b` requests via
///   [`shape_for_size`].
/// * Runtimes become per-processor message counts
///   `max(1, runtime / runtime_scale)` — the communication volume the
///   simulator turns back into an *observed* service time (the paper's
///   service times are simulator outputs even for the trace workload).
pub fn trace_to_jobs(
    records: &[TraceRecord],
    mesh_w: u16,
    mesh_l: u16,
    f: f64,
    runtime_scale: f64,
) -> Vec<JobSpec> {
    assert!(f > 0.0 && runtime_scale > 0.0);
    records
        .iter()
        .enumerate()
        .map(|(i, r)| scale_trace_record(r, i as u64, mesh_w, mesh_l, f, runtime_scale))
        .collect()
}

/// Scales one trace record into the simulator job [`trace_to_jobs`]
/// would emit at stream index `i`.
///
/// The per-record arithmetic lives here so the batch converter and the
/// lazy replays (the [`crate::trace::ScaledJobs`] cursor and the
/// simulator's synthetic draws) are bit-identical by construction.
pub fn scale_trace_record(
    r: &TraceRecord,
    i: u64,
    mesh_w: u16,
    mesh_l: u16,
    f: f64,
    runtime_scale: f64,
) -> JobSpec {
    let (a, b) = shape_for_size(r.size, mesh_w, mesh_l);
    let msgs = ((r.runtime_s / runtime_scale).round() as u32).max(1);
    JobSpec {
        id: i,
        arrive: (r.submit_s * f).round().max(0.0) as Time,
        a,
        b,
        msgs_per_node: msgs,
        service_demand: msgs as f64 * a as f64 * b as f64,
    }
}

/// The system load corresponding to a scaling factor `f` for a trace with
/// the given mean inter-arrival time: `load = 1 / (mean · f)` jobs per
/// time unit (the x-axis of the paper's trace figures).
pub fn load_for_factor(mean_interarrival_s: f64, f: f64) -> f64 {
    1.0 / (mean_interarrival_s * f)
}

/// Inverse of [`load_for_factor`].
pub fn factor_for_load(mean_interarrival_s: f64, load: f64) -> f64 {
    1.0 / (mean_interarrival_s * load)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceRecord> {
        let m = ParagonModel::default();
        m.generate(&mut SimRng::new(42))
    }

    #[test]
    fn job_count_matches_paper() {
        assert_eq!(sample().len(), 10_658);
    }

    #[test]
    fn mean_interarrival_matches() {
        let t = sample();
        let span = t.last().unwrap().submit_s;
        let mean = span / t.len() as f64;
        assert!(
            (mean - 1186.7).abs() < 1186.7 * 0.05,
            "mean inter-arrival {mean}"
        );
    }

    #[test]
    fn arrivals_bursty() {
        // hyperexponential: coefficient of variation of gaps > 1.3
        let t = sample();
        let gaps: Vec<f64> = t.windows(2).map(|w| w[1].submit_s - w[0].submit_s).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!(cv > 1.3, "CV {cv} not bursty");
    }

    #[test]
    fn mean_size_near_paper_value() {
        let t = sample();
        let mean = t.iter().map(|r| r.size as f64).sum::<f64>() / t.len() as f64;
        assert!(
            (mean - 34.5).abs() < 6.0,
            "mean size {mean} too far from 34.5"
        );
    }

    #[test]
    fn sizes_favour_non_powers_of_two() {
        let t = sample();
        let pow2 = t.iter().filter(|r| r.size.is_power_of_two()).count();
        let frac = pow2 as f64 / t.len() as f64;
        assert!(frac < 0.25, "power-of-two fraction {frac}");
    }

    #[test]
    fn sizes_within_machine() {
        for r in sample() {
            assert!((1..=352).contains(&r.size));
            assert!(r.runtime_s >= 1.0);
        }
    }

    #[test]
    fn trace_to_jobs_scaling() {
        let recs = vec![
            TraceRecord {
                submit_s: 100.0,
                size: 35,
                runtime_s: 500.0,
            },
            TraceRecord {
                submit_s: 300.0,
                size: 4,
                runtime_s: 50.0,
            },
        ];
        let jobs = trace_to_jobs(&recs, 16, 22, 0.5, 50.0);
        assert_eq!(jobs[0].arrive, 50);
        assert_eq!(jobs[1].arrive, 150);
        assert_eq!(jobs[0].size(), 35); // 5x7 exact
        assert_eq!(jobs[0].msgs_per_node, 10);
        assert_eq!(jobs[1].msgs_per_node, 1);
        assert!(jobs[0].service_demand > jobs[1].service_demand);
    }

    #[test]
    fn load_factor_round_trip() {
        let mean = 1186.7;
        for load in [0.001, 0.0025, 0.02] {
            let f = factor_for_load(mean, load);
            assert!((load_for_factor(mean, f) - load).abs() < 1e-12);
        }
        // f < 1 means higher-than-native load
        assert!(factor_for_load(mean, 0.004) < 1.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let m = ParagonModel::default();
        let a = m.generate(&mut SimRng::new(5));
        let b = m.generate(&mut SimRng::new(5));
        assert_eq!(a, b);
    }

    #[test]
    fn stream_matches_generate() {
        let m = ParagonModel {
            jobs: 500,
            ..Default::default()
        };
        let batch = m.generate(&mut SimRng::new(11));
        let mut rng = SimRng::new(11);
        let streamed: Vec<_> = m.stream(&mut rng).collect();
        assert_eq!(streamed, batch);
    }
}
