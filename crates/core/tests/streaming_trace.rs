//! End-to-end equivalence of the streaming trace replay
//! (`WorkloadSpec::Trace`: the lazy `ScaledJobs` cursor under the
//! simulator's segment replay) against the materialized oracle
//! (`WorkloadSpec::FixedTrace`: the same replay over a job list
//! pre-scaled by `TraceWorkload::jobs_at_load`): for the same config
//! and seeds the two must produce **bit-identical** metrics, per
//! replication, including the segment-offset and wrap-around regimes —
//! and a file-backed workload from [`TraceWorkload::open`] must match a
//! memory-backed one from the same bytes.

use procsim_core::{RunMetrics, SchedulerKind, SimConfig, Simulator, StrategyKind, WorkloadSpec};
use std::sync::Arc;
use workload::{write_swf, ParagonModel, TraceWorkload};

const RUNTIME_SCALE: f64 = 360.0;
const RHO: f64 = 0.7;

/// A ~300-job synthetic Paragon trace, round-tripped through SWF so the
/// memory- and file-backed workloads are built from identical bytes
/// (the writer emits whole seconds).
fn sample_text(jobs: usize) -> String {
    let model = ParagonModel {
        jobs,
        ..ParagonModel::default()
    };
    write_swf(&model.generate(&mut desim::SimRng::new(0x57AE)))
}

fn cfg_with(workload: WorkloadSpec, warmup: usize, measured: usize) -> SimConfig {
    let mut cfg = SimConfig::paper(StrategyKind::Gabl, SchedulerKind::Fcfs, workload, 2024);
    cfg.warmup_jobs = warmup;
    cfg.measured_jobs = measured;
    cfg
}

fn bits(m: &RunMetrics) -> [u64; 6] {
    m.response_vector().map(f64::to_bits)
}

/// Runs replication `rep` of the streaming spec and of the fixed oracle
/// built by materializing the same trace, and asserts exact equality.
fn assert_rep_equivalent(trace: &Arc<TraceWorkload>, warmup: usize, measured: usize, rep: u64) {
    let streaming = cfg_with(
        WorkloadSpec::Trace {
            trace: trace.clone(),
            load: RHO,
            runtime_scale: RUNTIME_SCALE,
        },
        warmup,
        measured,
    );
    let fixed = cfg_with(
        WorkloadSpec::FixedTrace(Arc::new(trace.jobs_at_load(16, 22, RHO, RUNTIME_SCALE))),
        warmup,
        measured,
    );
    let m_stream = Simulator::new(&streaming, rep).run();
    let m_fixed = Simulator::new(&fixed, rep).run();
    assert_eq!(m_stream.jobs, m_fixed.jobs, "rep {rep}: measured job count");
    assert_eq!(
        bits(&m_stream),
        bits(&m_fixed),
        "rep {rep}: streaming replay must be bit-identical to the \
         materialized oracle (stream {:?} vs fixed {:?})",
        m_stream.response_vector(),
        m_fixed.response_vector()
    );
}

#[test]
fn streaming_replay_matches_materialized_oracle() {
    let trace = Arc::new(TraceWorkload::from_swf(&sample_text(300)).unwrap());
    // reps 0..3 exercise segment offset 0 and mid-trace starts; the
    // budget (40 + 160 = 200 of 300) keeps offset reps crossing the
    // trace end, so the lazy wrap rebase runs too
    for rep in 0..3 {
        assert_rep_equivalent(&trace, 40, 160, rep);
    }
}

#[test]
fn streaming_replay_matches_oracle_through_wraparound() {
    // a short trace with a budget near its length: every offset
    // replication wraps past the end and continues into the prefix —
    // the regime where the streamed wrap must reproduce the fixed
    // list's rebase exactly
    let trace = Arc::new(TraceWorkload::from_swf(&sample_text(80)).unwrap());
    for rep in 0..4 {
        assert_rep_equivalent(&trace, 10, 45, rep);
    }
}

#[test]
fn file_backed_workload_matches_memory_backed() {
    let text = sample_text(250);
    let dir = std::env::temp_dir();
    let path = dir.join(format!("procsim_streaming_trace_{}.swf", std::process::id()));
    std::fs::write(&path, &text).unwrap();

    let memory = Arc::new(TraceWorkload::from_swf(&text).unwrap());
    let file = Arc::new(TraceWorkload::open(&path).unwrap());
    assert!(file.is_streaming(), "sorted SWF file must stream");

    for rep in 0..2 {
        let run = |trace: &Arc<TraceWorkload>| {
            let cfg = cfg_with(
                WorkloadSpec::Trace {
                    trace: trace.clone(),
                    load: RHO,
                    runtime_scale: RUNTIME_SCALE,
                },
                30,
                120,
            );
            Simulator::new(&cfg, rep).run()
        };
        let m_mem = run(&memory);
        let m_file = run(&file);
        assert_eq!(
            bits(&m_mem),
            bits(&m_file),
            "rep {rep}: file-backed streaming replay must match memory-backed"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn concurrent_replications_share_one_workload() {
    // several replications replaying the same Arc'd workload from
    // different threads must reproduce the sequential metrics exactly —
    // there is no per-(mesh, load) cache left to race on, only the
    // shared record source
    let trace = Arc::new(TraceWorkload::from_swf(&sample_text(200)).unwrap());
    let cfg = |trace: &Arc<TraceWorkload>| {
        cfg_with(
            WorkloadSpec::Trace {
                trace: trace.clone(),
                load: RHO,
                runtime_scale: RUNTIME_SCALE,
            },
            20,
            80,
        )
    };
    let sequential: Vec<[u64; 6]> = (0..4)
        .map(|rep| bits(&Simulator::new(&cfg(&trace), rep).run()))
        .collect();
    let handles: Vec<_> = (0..4)
        .map(|rep| {
            let trace = trace.clone();
            let cfg = cfg(&trace);
            std::thread::spawn(move || bits(&Simulator::new(&cfg, rep).run()))
        })
        .collect();
    let concurrent: Vec<[u64; 6]> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert_eq!(concurrent, sequential);
}
