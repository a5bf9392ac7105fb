//! Memory-budget regression test for the streaming trace pipeline: a
//! counting global allocator proves that opening and replaying a
//! generated trace keeps **peak live heap** under a fixed budget that is
//! independent of trace length — the property the streaming refactor
//! exists to provide — and that a synthetic trace's heap does not grow
//! with the job budget. A retained pipeline (or a reintroduced per-point
//! scaled-job cache) fails this immediately: just the `TraceRecord`s of
//! the long trace exceed the whole-pipeline budget asserted here.
//!
//! Everything runs inside ONE `#[test]` so the allocator counters are
//! never raced by the harness's parallel tests (this file is its own
//! test binary, and the counting allocator is scoped to it).

use procsim::{
    expand, write_swf_to, ParagonModel, Scenario, SchedulerKind, SimConfig, SimRng, Simulator,
    StrategyKind, TraceWorkload, WorkloadSpec,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// `System`, with live/peak byte counters.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        unsafe { System.dealloc(p, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = unsafe { System.realloc(p, layout, new_size) };
        if !q.is_null() {
            let old = layout.size();
            if new_size >= old {
                let live = LIVE.fetch_add(new_size - old, Relaxed) + (new_size - old);
                PEAK.fetch_max(live, Relaxed);
            } else {
                LIVE.fetch_sub(old - new_size, Relaxed);
            }
        }
        q
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns (peak live-heap growth in bytes, result):
/// the high-water mark above the heap level at entry.
fn peak_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let baseline = LIVE.load(Relaxed);
    PEAK.store(baseline, Relaxed);
    let r = f();
    (PEAK.load(Relaxed).saturating_sub(baseline), r)
}

/// Streams a `jobs`-long synthetic Paragon trace to `path` (O(1) memory:
/// lazy model generator into a buffered writer, nothing materialized).
fn gen_trace(path: &Path, jobs: usize) {
    let model = ParagonModel {
        jobs,
        ..ParagonModel::default()
    };
    let mut w = BufWriter::new(std::fs::File::create(path).expect("create trace file"));
    let mut rng = SimRng::new(0xB0D6E7);
    let written = write_swf_to(&mut w, model.stream(&mut rng)).expect("write trace");
    w.flush().expect("flush trace");
    assert_eq!(written, jobs);
}

/// Opens `path` as a streaming workload and replays a fixed 300-job
/// budget through the full simulator; returns the run's peak heap
/// growth. The budget is fixed so the only thing that varies between
/// calls is the trace length — which a streaming pipeline must not see.
fn replay_peak(path: &Path, rep: u64) -> usize {
    let (peak, _) = peak_during(|| {
        let trace =
            Arc::new(TraceWorkload::open(path).expect("generated trace must open"));
        assert!(trace.is_streaming(), "generated trace must stream");
        let mut cfg = SimConfig::paper(
            StrategyKind::Gabl,
            SchedulerKind::Fcfs,
            WorkloadSpec::Trace {
                trace,
                load: 0.7,
                runtime_scale: 360.0,
            },
            77,
        );
        cfg.warmup_jobs = 50;
        cfg.measured_jobs = 250;
        Simulator::new(&cfg, rep).run()
    });
    peak
}

const MIB: usize = 1 << 20;

/// Runs one replication of the synthetic Paragon workload with a
/// `jobs`-job budget and returns its peak heap growth. A 4x4 mesh and a
/// runtime scale that rounds every job to one message per node keep the
/// simulator's own live set small and flat in the budget, so what grows
/// with the budget is whatever the job source holds.
fn paragon_peak(jobs: usize) -> usize {
    let (peak, m) = peak_during(|| {
        let mut cfg = SimConfig::paper(
            StrategyKind::Gabl,
            SchedulerKind::Fcfs,
            WorkloadSpec::SyntheticTrace {
                model: ParagonModel::default(),
                load: 0.002,
                runtime_scale: 1e9,
            },
            5,
        );
        (cfg.mesh_w, cfg.mesh_l) = (4, 4);
        cfg.warmup_jobs = jobs / 5;
        cfg.measured_jobs = jobs - jobs / 5;
        Simulator::new(&cfg, 0).run()
    });
    assert_eq!(m.jobs as usize, jobs - jobs / 5);
    peak
}

#[test]
fn streaming_replay_peak_heap_is_bounded_and_length_independent() {
    let dir = std::env::temp_dir();
    let short_path: PathBuf = dir.join(format!("procsim_membudget_20k_{}.swf", std::process::id()));
    let long_path: PathBuf = dir.join(format!("procsim_membudget_100k_{}.swf", std::process::id()));
    gen_trace(&short_path, 20_000);
    gen_trace(&long_path, 100_000);

    // --- workload layer: open + one full scaled pass, no simulator ---
    // open() makes a validating statistics pass and ScaledJobs re-reads
    // the file record by record; neither may retain the trace. 256 KiB
    // covers line buffers and workload bookkeeping with an order of
    // magnitude of headroom — while just the TraceRecords of the 100k
    // trace (24 B each) would need ~2.3 MiB, and scaled JobSpecs more.
    let (peak_open, trace) = peak_during(|| {
        TraceWorkload::open(&long_path).expect("generated trace must open")
    });
    assert!(
        peak_open < 256 * 1024,
        "TraceWorkload::open peak heap {peak_open} B exceeds 256 KiB: \
         the validating pass is retaining records"
    );
    let (peak_scan, n) = peak_during(|| {
        trace
            .stream_jobs(16, 22, 0.7, 360.0, 0)
            .take(trace.len())
            .count()
    });
    assert_eq!(n, 100_000);
    assert!(
        peak_scan < 256 * 1024,
        "full scaled pass peak heap {peak_scan} B exceeds 256 KiB: \
         the cursor is materializing jobs"
    );
    drop(trace);

    // --- full simulator replay: fixed job budget, varying trace length ---
    let peak_short = replay_peak(&short_path, 0);
    let peak_long = replay_peak(&long_path, 0);
    eprintln!(
        "peaks: open {peak_open} B, scaled pass {peak_scan} B, \
         replay 20k {peak_short} B, replay 100k {peak_long} B"
    );
    // absolute budget: the live set is the simulator (mesh, network,
    // queues, in-flight packets for <= 300 jobs), not the trace. The
    // observed peak is ~325 KiB; 2 MiB gives 6x headroom yet still trips
    // if even the raw 100k TraceRecords (~2.3 MiB) were materialized,
    // let alone the scaled JobSpecs (~4.6 MiB).
    assert!(
        peak_long < 2 * MIB,
        "replay of the 100k-job trace peaked at {peak_long} B (> 2 MiB budget)"
    );
    // length-independence: 5x the records may cost (almost) nothing; the
    // tolerance absorbs allocator and queueing noise only. A pipeline
    // that materializes records or scaled jobs adds >= ~2 MiB to the
    // long trace and trips this ratio.
    assert!(
        (peak_long as f64) < peak_short as f64 * 1.3 + 512.0 * 1024.0,
        "peak heap grew with trace length: 20k-job replay peaked at \
         {peak_short} B, 100k-job at {peak_long} B — replay is not streaming"
    );

    // --- no double-materialization across concurrent replications ---
    // two cursors over one shared workload may at most double the
    // simulator live-set — never add a per-replication copy of the trace
    let trace = Arc::new(TraceWorkload::open(&long_path).expect("open"));
    let (peak_pair, ()) = peak_during(|| {
        let handles: Vec<_> = (0..2)
            .map(|rep| {
                let trace = trace.clone();
                std::thread::spawn(move || {
                    let mut cfg = SimConfig::paper(
                        StrategyKind::Gabl,
                        SchedulerKind::Fcfs,
                        WorkloadSpec::Trace {
                            trace,
                            load: 0.7,
                            runtime_scale: 360.0,
                        },
                        77,
                    );
                    cfg.warmup_jobs = 50;
                    cfg.measured_jobs = 250;
                    Simulator::new(&cfg, rep).run();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
    assert!(
        peak_pair < 2 * 2 * MIB,
        "two concurrent replications peaked at {peak_pair} B: \
         something is materializing per replication"
    );

    std::fs::remove_file(&short_path).ok();
    std::fs::remove_file(&long_path).ok();

    // --- synthetic replay: the draws are not held per replication ---
    // a synthetic trace is drawn one record per arrival, so ten times
    // the job budget may not cost more heap. A source that materialized
    // its draws would hold a 24 B record and a 32 B job for each of
    // min(1.5 x budget + 100, 10,658) records: about 90 KiB at 1,000
    // jobs and 580 KiB at 10,000, 490 KiB apart.
    let peak_small = paragon_peak(1_000);
    let peak_large = paragon_peak(10_000);
    eprintln!("peaks: paragon 1k jobs {peak_small} B, 10k jobs {peak_large} B");
    assert!(
        peak_large < peak_small + 64 * 1024,
        "synthetic replay heap grew with the job budget: {peak_small} B at \
         1,000 jobs, {peak_large} B at 10,000 — the draws are being kept"
    );

    // --- campaign matrix expansion: 1000 points stay lightweight ---
    // expand() materializes one CampaignPoint (settings + versioned spec
    // string + hash) per cross-product element and nothing else — no
    // simulator state, no per-point caches. 1000 points of ~0.5 KiB
    // bookkeeping fit comfortably in 2 MiB; an expansion that clones the
    // scenario per point or pre-builds run state trips this immediately.
    let mut text = String::from(
        "[campaign]\nname = \"expansion_budget\"\nseed = 7\n\n[matrix]\n\
         strategy = [\"gabl\", \"paging0\", \"paging1\", \"paging2\", \"paging3\", \
         \"mbs\", \"ff\", \"bf\", \"random\", \"mc\"]\n\
         scheduler = [\"fcfs\", \"ssd\", \"sjf\", \"ljf\", \"easy\"]\n",
    );
    text.push_str("load = [");
    for i in 1..=20u32 {
        if i > 1 {
            text.push_str(", ");
        }
        text.push_str(&format!("0.{i:04}"));
    }
    text.push_str("]\n");
    let scenario = Scenario::parse(&text).expect("expansion-budget scenario parses");
    let (peak_expand, n_points) = peak_during(|| {
        let points = expand(&scenario).expect("expansion-budget scenario expands");
        points.len()
    });
    eprintln!("peak: 1000-point matrix expansion {peak_expand} B");
    assert_eq!(n_points, 1000, "10 strategies x 5 schedulers x 20 loads");
    assert!(
        peak_expand < 2 * MIB,
        "expanding a 1000-point matrix peaked at {peak_expand} B (> 2 MiB \
         budget): expansion is carrying more than per-point bookkeeping"
    );
}
