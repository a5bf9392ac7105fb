//! Metric definitions, the layer → end-to-end map, and the statistics
//! the report uses.

/// An end-to-end metric: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("rep_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// A per-layer metric and the end-to-end metrics it should move, as
/// `(end-to-end metric, workload)` pairs.
pub struct LayerMetric {
    /// Metric name, `layer.quantity`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Which end-to-end metric, on which workload, a change here moves.
    pub moves: &'static [(&'static str, &'static str)],
}

const NET: &[(&str, &str)] = &[
    ("wall_s", "paper_mesh"),
    ("rep_p90_ms", "paper_mesh"),
    ("wall_s", "paper_torus"),
    ("rep_p90_ms", "paper_torus"),
    ("wall_s", "swf_torus"),
    ("rep_p90_ms", "swf_torus"),
];
const ALLOC: &[(&str, &str)] = &[("wall_s", "deep_queue"), ("rep_p90_ms", "deep_queue")];
const PASS: &[(&str, &str)] = &[("wall_s", "deep_queue")];
const LOOP: &[(&str, &str)] = &[("wall_s", "paper_mesh")];
const SOURCE: &[(&str, &str)] = &[
    ("setup_s", "swf_torus"),
    ("wall_s", "swf_torus"),
    ("peak_rss_mib", "swf_torus"),
];
const ALL_WALL: &[(&str, &str)] = &[
    ("wall_s", "paper_mesh"),
    ("wall_s", "paper_torus"),
    ("wall_s", "swf_torus"),
    ("wall_s", "deep_queue"),
];

const fn m(
    name: &'static str,
    unit: &'static str,
    moves: &'static [(&'static str, &'static str)],
) -> LayerMetric {
    LayerMetric { name, unit, moves }
}

/// Every per-layer metric the traced run reports. Times and counts are
/// per pass (the median over the run's traced passes).
pub const PER_LAYER: [LayerMetric; 38] = [
    m("wormnet.step_s", "s", NET),
    m("wormnet.steps", "count", NET),
    m("wormnet.step_ns", "ns", NET),
    m("wormnet.send_s", "s", NET),
    m("wormnet.sends", "count", NET),
    m("wormnet.drain_s", "s", NET),
    m("wormnet.pattern_s", "s", NET),
    m("wormnet.skippable_s", "s", NET),
    m("wormnet.leaps", "count", NET),
    m("wormnet.cycles_skipped", "count", NET),
    m("wormnet.skip_share", "ratio", NET),
    m("alloc.allocate_s", "s", ALLOC),
    m("alloc.allocate_calls", "count", ALLOC),
    m("alloc.won", "count", ALLOC),
    m("alloc.win_ratio", "ratio", ALLOC),
    m("alloc.feasible_s", "s", ALLOC),
    m("alloc.feasible_rejects", "count", ALLOC),
    m("alloc.release_s", "s", ALLOC),
    m("sched.attempt_order_s", "s", PASS),
    m("sched.attempt_order_calls", "count", PASS),
    m("sched.queue_ops_s", "s", PASS),
    m("sched.observe_s", "s", PASS),
    m("core.passes", "count", PASS),
    m("core.attempts", "count", PASS),
    m("core.memo_hits", "count", PASS),
    m("core.memo_hit_ratio", "ratio", PASS),
    m("core.pass_self_s", "s", PASS),
    m("desim.pop_s", "s", LOOP),
    m("desim.pops", "count", LOOP),
    m("desim.schedule_s", "s", LOOP),
    m("core.self_s", "s", LOOP),
    m("core.idle_jumps", "count", LOOP),
    m("core.sim_cycles", "count", LOOP),
    m("workload.open_s", "s", SOURCE),
    m("workload.cursor_open_s", "s", SOURCE),
    m("workload.next_job_s", "s", SOURCE),
    m("workload.jobs", "count", SOURCE),
    m("trace.overhead", "ratio", ALL_WALL),
];

/// Median of `v` (mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The `q` quantile of `v` by linear interpolation between order
/// statistics (`q` in `[0, 1]`).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn names_match_the_allowed_pattern_and_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
    }

    #[test]
    fn every_layer_metric_names_what_it_should_move() {
        let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        for m in &PER_LAYER {
            assert!(!m.moves.is_empty(), "{} moves nothing", m.name);
            for (e2e, w) in m.moves {
                assert!(
                    END_TO_END.iter().any(|(n, _)| n == e2e),
                    "{}: {e2e}",
                    m.name
                );
                assert!(workloads.contains(w), "{}: {w}", m.name);
            }
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let quoted = |s: &str| format!("\"name\": \"{s}\"");
        for (n, _) in END_TO_END {
            assert!(json.contains(&quoted(n)), "{n} missing from BENCHMARK.json");
        }
        for m in &PER_LAYER {
            assert!(
                json.contains(&quoted(m.name)),
                "{} missing from BENCHMARK.json",
                m.name
            );
        }
        for w in Workload::ALL {
            assert!(json.contains(&quoted(w.name())), "{} missing", w.name());
        }
        let listed = json.matches("\"name\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
        );
    }

    #[test]
    fn statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (0..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.9), 9.0);
        assert_eq!(quantile(&v, 0.0), 0.0);
        assert!((quantile(&[1.0, 2.0], 0.5) - 1.5).abs() < 1e-12);
    }
}
