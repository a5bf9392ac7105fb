//! Running passes: untimed-layer passes through `Simulator::run` on a
//! one-thread worker pool, and traced passes through the mirror.

use crate::digest::digest;
use crate::hostspeed;
use crate::mirror::{self, Counts};
use crate::spans::{Agg, Span, SpanName, Tracer};
use crate::workloads::Plan;
use procsim_core::{RunMetrics, Simulator, WorkerPool};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Instant;

/// One untraced replication: its host seconds, the seconds of the
/// host-speed probe slice run right after it, and its output.
pub struct Rep {
    pub secs: f64,
    pub probe_s: f64,
    pub metrics: RunMetrics,
}

/// One replication's outcome, or the panic message.
pub type RepResult = Result<Rep, String>;

/// Runs `jobs` on `pool` and returns their results in submission order,
/// with the pass's host wall time. A panicking job yields `Err`.
fn run_all<T: Send + 'static>(
    pool: &WorkerPool,
    jobs: Vec<Box<dyn FnOnce() -> T + Send>>,
) -> (Vec<Result<T, String>>, f64) {
    let n = jobs.len();
    let (tx, rx) = mpsc::channel();
    let start = Instant::now();
    for (i, job) in jobs.into_iter().enumerate() {
        let tx = tx.clone();
        pool.submit(move || {
            let out = catch_unwind(AssertUnwindSafe(job)).map_err(|p| {
                p.downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "panic".to_string())
            });
            // the receiver outlives every job: run_all waits for all n
            let _ = tx.send((i, out));
        });
    }
    drop(tx);
    let mut results: Vec<Option<Result<T, String>>> = (0..n).map(|_| None).collect();
    for _ in 0..n {
        let (i, out) = rx.recv().expect("a pool job ended without reporting");
        results[i] = Some(out);
    }
    let secs = start.elapsed().as_secs_f64();
    (
        results
            .into_iter()
            .map(|r| r.expect("every job reported"))
            .collect(),
        secs,
    )
}

/// One pass through `Simulator::run`: per-replication results in pass
/// order, and the pass's host wall time (probe slices included).
pub fn untraced_pass(pool: &WorkerPool, plan: &Plan) -> (Vec<RepResult>, f64) {
    let jobs: Vec<Box<dyn FnOnce() -> Rep + Send>> = plan
        .replications()
        .map(|(c, r)| {
            let cfg = plan.cfgs[c].clone();
            Box::new(move || {
                let t = Instant::now();
                let metrics = Simulator::new(&cfg, r).run();
                let secs = t.elapsed().as_secs_f64();
                Rep {
                    secs,
                    probe_s: hostspeed::slice(),
                    metrics,
                }
            }) as Box<dyn FnOnce() -> Rep + Send>
        })
        .collect();
    run_all(pool, jobs)
}

/// What a traced pass measured, summed over its replications.
#[derive(Default)]
pub struct TracedPass {
    /// Host seconds of the traced replications (tracer included).
    pub secs: f64,
    /// Span aggregates, indexed by `SpanName as usize`.
    pub aggs: Vec<Agg>,
    /// Work counts.
    pub counts: Counts,
    /// Digests of each replication's mirrored metrics (`None` on panic).
    pub digests: Vec<Option<u64>>,
    /// The full span list of the pass's first replication, when asked.
    pub spans: Option<Vec<Span>>,
}

type TracedRep = (f64, RunMetrics, Counts, Tracer);

/// One pass through the mirror loop with every layer call traced.
/// `keep_spans` keeps the full span list of the first replication.
pub fn traced_pass(pool: &WorkerPool, plan: &Plan, keep_spans: bool) -> TracedPass {
    let jobs: Vec<Box<dyn FnOnce() -> TracedRep + Send>> = plan
        .replications()
        .enumerate()
        .map(|(i, (c, r))| {
            let cfg = plan.cfgs[c].clone();
            let keep = keep_spans && i == 0;
            Box::new(move || {
                let mut tr = Tracer::new(keep);
                let t = Instant::now();
                let (m, counts) = mirror::run(&cfg, r, &mut tr);
                (t.elapsed().as_secs_f64(), m, counts, tr)
            }) as Box<dyn FnOnce() -> TracedRep + Send>
        })
        .collect();
    let (results, _) = run_all(pool, jobs);
    let mut pass = TracedPass {
        aggs: vec![Agg::default(); SpanName::ALL.len()],
        ..TracedPass::default()
    };
    for res in results {
        match res {
            Ok((secs, m, counts, tr)) => {
                pass.secs += secs;
                pass.counts.add(&counts);
                for (sum, a) in pass.aggs.iter_mut().zip(tr.aggs()) {
                    sum.add(a);
                }
                pass.digests.push(Some(digest(&m)));
                if let Some(spans) = tr.into_spans() {
                    pass.spans = Some(spans);
                }
            }
            Err(msg) => {
                eprintln!("traced replication panicked: {msg}");
                pass.digests.push(None);
            }
        }
    }
    pass
}
