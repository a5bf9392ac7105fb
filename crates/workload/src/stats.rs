//! Trace summary statistics — the quantities the paper quotes when
//! characterizing the SDSC workload (§5) and the quantities our synthetic
//! models are validated against.

use crate::TraceRecord;

/// Summary statistics of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Number of jobs in the trace.
    pub jobs: usize,
    /// Mean inter-arrival time (seconds).
    pub mean_interarrival_s: f64,
    /// Coefficient of variation of inter-arrival gaps (1 = Poisson,
    /// > 1 = bursty).
    pub interarrival_cv: f64,
    /// Mean job size (nodes).
    pub mean_size: f64,
    /// Largest job size (nodes).
    pub max_size: u32,
    /// Fraction of jobs whose size is a power of two.
    pub pow2_fraction: f64,
    /// Mean runtime (seconds).
    pub mean_runtime_s: f64,
    /// Median runtime (seconds).
    pub median_runtime_s: f64,
}

/// Online (single-pass, O(1)-memory) summary builder for streamed traces.
///
/// Push records in submit order, then [`finish`](Self::finish). Every
/// statistic matches an exact two-pass computation up to floating-point
/// associativity except the runtime median, which is estimated from a fixed
/// 64-bucket log₂ histogram (reported as the geometric midpoint of the
/// bucket holding the median — within a factor of √2 of the exact
/// value, documented in `docs/WORKLOADS.md`). Means use Welford-style
/// running updates, so a million-job stream summarizes without being
/// retained.
#[derive(Debug, Clone)]
pub struct StreamingSummary {
    jobs: usize,
    prev_submit: f64,
    gap_mean: f64,
    gap_m2: f64,
    size_sum: f64,
    max_size: u32,
    pow2: usize,
    runtime_sum: f64,
    runtime_buckets: [u64; 64],
}

impl StreamingSummary {
    /// An empty builder.
    pub fn new() -> Self {
        StreamingSummary {
            jobs: 0,
            prev_submit: 0.0,
            gap_mean: 0.0,
            gap_m2: 0.0,
            size_sum: 0.0,
            max_size: 0,
            pow2: 0,
            runtime_sum: 0.0,
            runtime_buckets: [0u64; 64],
        }
    }

    /// Folds one record in (records must arrive in submit order, as they
    /// do from a validated trace stream).
    pub fn push(&mut self, r: &TraceRecord) {
        if self.jobs > 0 {
            // Welford update over inter-arrival gaps
            let gap = (r.submit_s - self.prev_submit).max(0.0);
            let k = self.jobs as f64; // gap count after this one
            let delta = gap - self.gap_mean;
            self.gap_mean += delta / k;
            self.gap_m2 += delta * (gap - self.gap_mean);
        }
        self.prev_submit = r.submit_s;
        self.jobs += 1;
        self.size_sum += r.size as f64;
        self.max_size = self.max_size.max(r.size);
        if r.size.is_power_of_two() {
            self.pow2 += 1;
        }
        self.runtime_sum += r.runtime_s;
        let bucket = (r.runtime_s.max(1.0).log2() as usize).min(63);
        self.runtime_buckets[bucket] += 1;
    }

    /// The summary, or `None` for fewer than two records (no gaps).
    pub fn finish(&self) -> Option<TraceSummary> {
        if self.jobs < 2 {
            return None;
        }
        let n = self.jobs as f64;
        let gaps = (self.jobs - 1) as f64;
        let gap_var = self.gap_m2 / gaps; // population variance
        let cv = if self.gap_mean > 0.0 {
            gap_var.sqrt() / self.gap_mean
        } else {
            0.0
        };
        // median estimate: the bucket containing the (n/2)-th runtime,
        // reported at its geometric midpoint 2^(b + 0.5)
        let target = self.jobs / 2;
        let mut seen = 0u64;
        let mut median = 1.0f64;
        for (b, &count) in self.runtime_buckets.iter().enumerate() {
            seen += count;
            if seen > target as u64 {
                median = 2f64.powf(b as f64 + 0.5);
                break;
            }
        }
        Some(TraceSummary {
            jobs: self.jobs,
            mean_interarrival_s: self.gap_mean,
            interarrival_cv: cv,
            mean_size: self.size_sum / n,
            max_size: self.max_size,
            pow2_fraction: self.pow2 as f64 / n,
            mean_runtime_s: self.runtime_sum / n,
            median_runtime_s: median,
        })
    }
}

impl Default for StreamingSummary {
    fn default() -> Self {
        Self::new()
    }
}

/// Summarizes a record stream in one pass with O(1) memory (see
/// [`StreamingSummary`] for the median caveat).
pub fn summarize_stream(records: impl IntoIterator<Item = TraceRecord>) -> Option<TraceSummary> {
    let mut s = StreamingSummary::new();
    for r in records {
        s.push(&r);
    }
    s.finish()
}

impl core::fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "jobs:                {}", self.jobs)?;
        writeln!(f, "mean inter-arrival:  {:.1} s (CV {:.2})", self.mean_interarrival_s, self.interarrival_cv)?;
        writeln!(f, "mean size:           {:.1} nodes (max {})", self.mean_size, self.max_size)?;
        writeln!(f, "power-of-two sizes:  {:.1}%", self.pow2_fraction * 100.0)?;
        write!(
            f,
            "runtime:             mean {:.0} s, median {:.0} s",
            self.mean_runtime_s, self.median_runtime_s
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cm5Model, ParagonModel};
    use desim::SimRng;

    /// The exact two-pass summary: the oracle [`StreamingSummary`] is
    /// checked against.
    fn summarize(records: &[TraceRecord]) -> TraceSummary {
        assert!(records.len() >= 2);
        let n = records.len() as f64;
        let gaps: Vec<f64> = records
            .windows(2)
            .map(|w| (w[1].submit_s - w[0].submit_s).max(0.0))
            .collect();
        let gap_mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let gap_var = gaps
            .iter()
            .map(|g| (g - gap_mean) * (g - gap_mean))
            .sum::<f64>()
            / gaps.len() as f64;
        let cv = if gap_mean > 0.0 {
            gap_var.sqrt() / gap_mean
        } else {
            0.0
        };
        let mean_size = records.iter().map(|r| r.size as f64).sum::<f64>() / n;
        let pow2 = records.iter().filter(|r| r.size.is_power_of_two()).count() as f64 / n;
        let mean_rt = records.iter().map(|r| r.runtime_s).sum::<f64>() / n;
        let mut rts: Vec<f64> = records.iter().map(|r| r.runtime_s).collect();
        rts.sort_by(f64::total_cmp);
        TraceSummary {
            jobs: records.len(),
            mean_interarrival_s: gap_mean,
            interarrival_cv: cv,
            mean_size,
            max_size: records.iter().map(|r| r.size).max().unwrap_or(0),
            pow2_fraction: pow2,
            mean_runtime_s: mean_rt,
            median_runtime_s: rts[rts.len() / 2],
        }
    }

    #[test]
    fn hand_built_trace() {
        let recs = vec![
            TraceRecord { submit_s: 0.0, size: 4, runtime_s: 10.0 },
            TraceRecord { submit_s: 100.0, size: 7, runtime_s: 30.0 },
            TraceRecord { submit_s: 200.0, size: 8, runtime_s: 20.0 },
        ];
        let s = summarize(&recs);
        assert_eq!(s.jobs, 3);
        assert!((s.mean_interarrival_s - 100.0).abs() < 1e-9);
        assert!(s.interarrival_cv.abs() < 1e-9, "constant gaps -> CV 0");
        assert!((s.mean_size - 19.0 / 3.0).abs() < 1e-9);
        assert!((s.pow2_fraction - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(s.max_size, 8);
        assert_eq!(s.median_runtime_s, 20.0);
    }

    #[test]
    fn paragon_vs_cm5_signatures() {
        // the two models must differ exactly where the machines did:
        // power-of-two fraction and arrival burstiness
        let mut rng = SimRng::new(12);
        let p = summarize_stream(ParagonModel::default().stream(&mut rng)).unwrap();
        let c = summarize_stream(Cm5Model::default().stream(&mut rng)).unwrap();
        assert!(p.pow2_fraction < 0.25, "Paragon {}", p.pow2_fraction);
        assert!((c.pow2_fraction - 1.0).abs() < 1e-9, "CM-5 all pow2");
        assert!(p.interarrival_cv > 1.3, "Paragon bursty");
        assert!(c.interarrival_cv < 1.2, "CM-5 model Poissonian");
        assert!(c.mean_size > p.mean_size, "CM-5 partitions larger");
    }

    #[test]
    fn streaming_summary_matches_batch() {
        let recs = ParagonModel { jobs: 2_000, ..Default::default() }
            .generate(&mut SimRng::new(7));
        let batch = summarize(&recs);
        let stream = summarize_stream(recs.iter().copied()).unwrap();
        assert_eq!(stream.jobs, batch.jobs);
        assert_eq!(stream.max_size, batch.max_size);
        assert!((stream.pow2_fraction - batch.pow2_fraction).abs() < 1e-12);
        // Welford vs two-pass: equal up to float associativity
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
        assert!(close(stream.mean_interarrival_s, batch.mean_interarrival_s));
        assert!(close(stream.interarrival_cv, batch.interarrival_cv));
        assert!(close(stream.mean_size, batch.mean_size));
        assert!(close(stream.mean_runtime_s, batch.mean_runtime_s));
        // histogram median: within the documented factor-sqrt(2) band
        let ratio = stream.median_runtime_s / batch.median_runtime_s;
        assert!(
            (ratio - 1.0).abs() < 0.5,
            "median estimate {} vs exact {}",
            stream.median_runtime_s,
            batch.median_runtime_s
        );
    }

    #[test]
    fn streaming_summary_too_short() {
        assert!(summarize_stream(std::iter::empty()).is_none());
        assert!(summarize_stream(std::iter::once(TraceRecord {
            submit_s: 0.0,
            size: 1,
            runtime_s: 1.0
        }))
        .is_none());
    }

    #[test]
    fn display_renders() {
        let recs = ParagonModel { jobs: 100, ..Default::default() }
            .generate(&mut SimRng::new(3));
        let text = summarize_stream(recs).unwrap().to_string();
        assert!(text.contains("mean size"));
        assert!(text.contains("power-of-two"));
    }
}
