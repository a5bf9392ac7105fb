//! Independent-replications controller.
//!
//! Drives the paper's stopping rule: keep running independent replications
//! (each a fresh simulation of 1000 completed jobs with its own RNG
//! substream) until the 95 % confidence interval's relative error drops
//! to 5 %, bounded by a minimum (statistical validity of the t interval)
//! and a maximum (runaway protection at saturation, where turnaround
//! variance grows without bound).

use crate::welford::Welford;

/// Why the controller stopped requesting replications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Target relative error reached.
    Converged,
    /// Replication budget exhausted before convergence.
    Budget,
    /// Still running.
    NotStopped,
}

/// Controller for one experimental point, possibly tracking several
/// response variables at once (turnaround, utilization, latency, ...);
/// the stopping rule applies to the *primary* variable (index 0), which
/// matches the paper's practice of controlling precision on the headline
/// metric.
#[derive(Debug, Clone)]
pub struct Replications {
    stats: Vec<Welford>,
    min_reps: usize,
    max_reps: usize,
    target_rel_err: f64,
}

impl Replications {
    /// `vars` response variables; stop when variable 0's 95 % CI relative
    /// error is at most `target_rel_err`, after at least `min_reps` and at
    /// most `max_reps` replications. `min_reps` may be 1: one sample has
    /// an infinite interval, so it never converges and stops on its budget.
    pub fn new(vars: usize, min_reps: usize, max_reps: usize, target_rel_err: f64) -> Self {
        assert!(vars >= 1);
        assert!(min_reps >= 1 && max_reps >= min_reps);
        assert!(target_rel_err > 0.0);
        Replications {
            stats: vec![Welford::new(); vars],
            min_reps,
            max_reps,
            target_rel_err,
        }
    }

    /// Paper configuration: 95 % CI, 5 % relative error.
    pub fn paper(vars: usize, min_reps: usize, max_reps: usize) -> Self {
        Self::new(vars, min_reps, max_reps, 0.05)
    }

    /// Records one replication's means (one value per response variable).
    ///
    /// # Panics
    /// Panics if the number of values differs from `vars`.
    pub fn record(&mut self, values: &[f64]) {
        assert_eq!(values.len(), self.stats.len(), "response variable count");
        for (w, &v) in self.stats.iter_mut().zip(values) {
            w.push(v);
        }
    }

    /// Replications recorded so far.
    pub fn count(&self) -> usize {
        self.stats[0].count() as usize
    }

    /// Minimum replications before the precision test applies.
    pub fn min_reps(&self) -> usize {
        self.min_reps
    }

    /// Replication budget (hard cap).
    pub fn max_reps(&self) -> usize {
        self.max_reps
    }

    /// Whether another replication is needed.
    pub fn needs_more(&self) -> bool {
        self.stop_reason() == StopReason::NotStopped
    }

    /// Current stopping state.
    pub fn stop_reason(&self) -> StopReason {
        let n = self.count();
        if n < self.min_reps {
            return StopReason::NotStopped;
        }
        if self.stats[0].relative_error() <= self.target_rel_err {
            return StopReason::Converged;
        }
        if n >= self.max_reps {
            return StopReason::Budget;
        }
        StopReason::NotStopped
    }

    /// Mean of variable `i` over replications.
    pub fn mean(&self, i: usize) -> f64 {
        self.stats[i].mean()
    }

    /// 95 % CI half-width of variable `i`.
    pub fn ci95(&self, i: usize) -> f64 {
        self.stats[i].ci95_half_width()
    }

    /// Relative error of the primary variable.
    pub fn relative_error(&self) -> f64 {
        self.stats[0].relative_error()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requires_min_reps() {
        let mut r = Replications::paper(1, 3, 10);
        r.record(&[100.0]);
        r.record(&[100.0]);
        assert!(r.needs_more(), "only 2 of min 3 reps");
        r.record(&[100.0]);
        // identical values: zero variance -> converged
        assert_eq!(r.stop_reason(), StopReason::Converged);
    }

    #[test]
    fn converges_on_tight_data() {
        let mut r = Replications::paper(1, 3, 50);
        let mut n = 0;
        let vals = [100.0, 101.0, 99.5, 100.2, 99.8, 100.1];
        while r.needs_more() {
            r.record(&[vals[n % vals.len()]]);
            n += 1;
            assert!(n < 100);
        }
        assert_eq!(r.stop_reason(), StopReason::Converged);
        assert!(n <= 10, "tight data should converge fast, took {n}");
        assert!((r.mean(0) - 100.0).abs() < 1.0);
    }

    #[test]
    fn budget_stops_noisy_data() {
        let mut r = Replications::paper(1, 3, 8);
        let mut x = 1.0;
        while r.needs_more() {
            x *= -2.1; // wildly oscillating: never converges
            r.record(&[x]);
        }
        assert_eq!(r.stop_reason(), StopReason::Budget);
        assert_eq!(r.count(), 8);
    }

    #[test]
    fn tracks_multiple_variables() {
        let mut r = Replications::paper(3, 2, 10);
        r.record(&[10.0, 0.5, 700.0]);
        r.record(&[12.0, 0.6, 710.0]);
        assert!((r.mean(0) - 11.0).abs() < 1e-12);
        assert!((r.mean(1) - 0.55).abs() < 1e-12);
        assert!((r.mean(2) - 705.0).abs() < 1e-12);
    }

    #[test]
    fn one_replication_stops_on_its_budget() {
        // one sample has an infinite CI: never Converged, even at zero spread
        let mut r = Replications::paper(1, 1, 1);
        assert!(r.needs_more());
        r.record(&[100.0]);
        assert_eq!(r.stop_reason(), StopReason::Budget);
        assert_eq!(r.mean(0), 100.0);
        assert_eq!(r.ci95(0), f64::INFINITY);
    }

    #[test]
    #[should_panic]
    fn wrong_arity_panics() {
        let mut r = Replications::paper(2, 2, 5);
        r.record(&[1.0]);
    }
}
