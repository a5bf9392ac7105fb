//! Every job source's simulator output, pinned bit for bit.
//!
//! The campaign goldens run the stochastic workloads only, so a change
//! to how a synthetic draw, a fixed job list or an SWF trace reaches the
//! event queue could shift their results unseen. Each row below is one
//! replication of a short GABL + FCFS run (10 warmup + 40 measured jobs)
//! per source, every `RunMetrics` field stored exactly
//! (`f64::to_bits`). The rows were recorded from the per-source replay
//! paths that preceded the single job iterator: the synthetic draws
//! materialized a record vector per replication, and fixed and
//! streamed traces ran through separate cursors.

use mesh_sched::SchedulerKind;
use procsim_core::{RunMetrics, SimConfig, Simulator, StrategyKind, WorkloadSpec};
use std::sync::Arc;
use workload::{
    factor_for_load, trace_to_jobs, write_swf, Cm5Model, ParagonModel, TraceRecord, TraceWorkload,
};

/// One replication's metrics as exact bits:
/// `[jobs, turnaround, service, utilization, blocking, latency, wait,
/// fragments, packets, end_time, turnaround count, turnaround variance]`.
type Row = [u64; 12];

fn bits(m: &RunMetrics) -> Row {
    [
        m.jobs,
        m.mean_turnaround.to_bits(),
        m.mean_service.to_bits(),
        m.utilization.to_bits(),
        m.mean_packet_blocking.to_bits(),
        m.mean_packet_latency.to_bits(),
        m.mean_wait.to_bits(),
        m.mean_fragments.to_bits(),
        m.packets,
        m.end_time,
        m.turnaround_stats.count(),
        m.turnaround_stats.variance().to_bits(),
    ]
}

const WARMUP: usize = 10;
const MEASURED: usize = 40;
const LOAD: f64 = 0.005;
const RUNTIME_SCALE: f64 = 360.0;

fn cfg(workload: WorkloadSpec) -> SimConfig {
    let mut c = SimConfig::paper(StrategyKind::Gabl, SchedulerKind::Fcfs, workload, 2026);
    c.warmup_jobs = WARMUP;
    c.measured_jobs = MEASURED;
    c
}

fn records(jobs: usize) -> Vec<TraceRecord> {
    ParagonModel {
        jobs,
        ..ParagonModel::default()
    }
    .generate(&mut desim::SimRng::new(0x5EED))
}

/// A pre-scaled job list of `jobs` Paragon records at [`LOAD`].
fn fixed(jobs: usize) -> WorkloadSpec {
    let f = factor_for_load(ParagonModel::default().mean_interarrival_s, LOAD);
    WorkloadSpec::FixedTrace(Arc::new(trace_to_jobs(&records(jobs), 16, 22, f, RUNTIME_SCALE)))
}

fn swf(trace: TraceWorkload) -> WorkloadSpec {
    WorkloadSpec::Trace {
        trace: Arc::new(trace),
        load: 1.5,
        runtime_scale: RUNTIME_SCALE,
    }
}

/// The sources, by name. The fixed list of exactly the job budget takes
/// the one-job stride rotation; the 80-job list and the 90-record SWF
/// trace wrap in replication 1 (it starts at job 50). The SWF trace is
/// replayed from memory and from a file of the same bytes.
fn sources(swf_path: &std::path::Path) -> Vec<(&'static str, WorkloadSpec)> {
    let text = write_swf(&records(90));
    std::fs::write(swf_path, &text).unwrap();
    vec![
        (
            "paragon",
            WorkloadSpec::SyntheticTrace {
                model: ParagonModel::default(),
                load: LOAD,
                runtime_scale: RUNTIME_SCALE,
            },
        ),
        (
            "cm5",
            WorkloadSpec::SyntheticCm5 {
                model: Cm5Model::default(),
                load: LOAD,
                runtime_scale: RUNTIME_SCALE,
            },
        ),
        ("fixed_exact", fixed(WARMUP + MEASURED)),
        ("fixed_wrap", fixed(80)),
        ("swf_memory", swf(TraceWorkload::from_swf(&text).unwrap())),
        ("swf_file", swf(TraceWorkload::open(swf_path).unwrap())),
    ]
}

const PINS: &[(&str, u64, Row)] = &[
    ("paragon", 0, [40, 4643976036107262362, 4641693010163348276, 4598716996287102261, 4633705402845958166, 4636327665040627216, 4635796109401260034, 4607520188772070197, 4456, 12323, 40, 4685942047178195449]),
    ("paragon", 1, [40, 4655999085805830144, 4653203577492209663, 4605932454793981200, 4635293439174688237, 4638241735016850821, 4648802232446222336, 4614388178203810201, 9198, 11830, 40, 4703235043695962795]),
    ("cm5", 0, [40, 4653497696852639745, 4649751550785644134, 4603725205895283966, 4634260890057816548, 4636880702344294009, 4648236643664894360, 4608195728716175770, 15424, 16375, 40, 4700674314338922393]),
    ("cm5", 1, [40, 4661276356790085223, 4649677663604257587, 4605073105456603655, 4634238428306536725, 4636908307701664217, 4659710487305388034, 4608646088678912819, 15392, 15063, 40, 4700764408516077159]),
    ("fixed_exact", 0, [40, 4647211678925481576, 4646259501855827558, 4599423477782995292, 4633869397304211062, 4636665227876995393, 4632814233866731518, 4609884578576439707, 6602, 12634, 40, 4693743359632153490]),
    ("fixed_exact", 1, [40, 4646657085260431358, 4645704908190777344, 4599432863496761493, 4634298646856005780, 4637004863518732086, 4632814233866731517, 4609884578576439706, 6175, 12685, 40, 4693785338592947279]),
    ("fixed_wrap", 0, [40, 4644970434423422977, 4644018257353768959, 4600057726223577326, 4631406975887308439, 4635232214787044695, 4632814233866731518, 4609884578576439707, 4665, 8601, 40, 4686576551749303060]),
    ("fixed_wrap", 1, [40, 4642176795279569714, 4642176795279569714, 4592007220219962007, 4624366381224805788, 4630820050164397638, 0, 4607407598781385935, 3481, 10884, 40, 4681037216749866021]),
    ("swf_memory", 0, [40, 4656005462973271245, 4647908329492840448, 4606204553520573769, 4634410930496540480, 4637193830036374303, 4653656906136341707, 4613825228250388891, 5002, 5129, 40, 4693906590233164647]),
    ("swf_memory", 1, [40, 4641438803075006465, 4641435284637797581, 4595807935730638906, 4624956388119460312, 4630886932448177967, 4591870180066957725, 4608533498688228557, 2215, 4223, 40, 4679193394161640894]),
    ("swf_file", 0, [40, 4656005462973271245, 4647908329492840448, 4606204553520573769, 4634410930496540480, 4637193830036374303, 4653656906136341707, 4613825228250388891, 5002, 5129, 40, 4693906590233164647]),
    ("swf_file", 1, [40, 4641438803075006465, 4641435284637797581, 4595807935730638906, 4624956388119460312, 4630886932448177967, 4591870180066957725, 4608533498688228557, 2215, 4223, 40, 4679193394161640894]),
];

#[test]
fn every_job_source_matches_its_pinned_metrics() {
    let path = std::env::temp_dir().join(format!("procsim_source_pins_{}.swf", std::process::id()));
    let sources = sources(&path);
    assert_eq!(PINS.len(), sources.len() * 2, "one row per source and replication");
    for &(name, rep, want) in PINS {
        let (_, workload) = sources.iter().find(|(n, _)| *n == name).unwrap();
        let got = bits(&Simulator::new(&cfg(workload.clone()), rep).run());
        assert_eq!(got, want, "{name}, replication {rep}");
    }
    std::fs::remove_file(&path).ok();
}

