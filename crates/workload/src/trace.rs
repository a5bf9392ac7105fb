//! Trace-driven job source: replay an archive trace at a controllable
//! offered load.
//!
//! [`TraceWorkload`] wraps a trace — either retained records (e.g. from
//! [`crate::swf::parse_swf`]) or a **file-backed streaming source**
//! ([`TraceWorkload::open`]) that is never materialized — together with
//! the two statistics that the load-scaling math needs: the mean
//! inter-arrival time and the mean *work* per job (processor-seconds).
//! It converts a target **offered load** into the paper's
//! arrival-scaling factor `f`:
//!
//! A trace's native offered load on a `P`-processor machine is
//!
//! ```text
//! rho = E[size x runtime] / (P x mean_interarrival)
//! ```
//!
//! — the fraction of machine capacity the jobs would occupy if each ran
//! for its recorded runtime. Multiplying every submit time by `f`
//! stretches (`f > 1`) or compresses (`f < 1`) the arrival process, so
//! `rho(f) = rho_native / f`. Hitting a target `rho*` therefore needs
//!
//! ```text
//! f = rho_native / rho*
//!   = E[work] / (P x mean_interarrival x rho*)
//!   = factor_for_load(mean_interarrival, rho* x P / E[work])
//! ```
//!
//! i.e. the offered-load target is the paper's job-arrival-rate load
//! `lambda = rho* x P / E[work]` fed to [`factor_for_load`]. The full
//! derivation, worked against the checked-in sample trace, is in
//! `docs/WORKLOADS.md`.
//!
//! ## Streaming pipeline
//!
//! Replay is an iterator chain with memory bounded by the number of
//! *live* jobs, not the trace length:
//!
//! ```text
//! File ──SwfRecords──▶ TraceRecord ──ScaledJobs──▶ JobSpec ──▶ EventQueue
//!        (one line            (offered-load factor       (one in-flight
//!         at a time)           applied on the fly)         arrival)
//! ```
//!
//! [`TraceWorkload::open`] makes one validating pass (computing the
//! scaling statistics online, retaining nothing); replay then re-reads
//! the file through the one record cursor ([`RecordIter`], which also
//! serves [`TraceWorkload::summary`] and [`TraceWorkload::jobs_at_load`])
//! under [`ScaledJobs`], which applies the scaling factor per record.
//! The scaling arithmetic is shared with the batch converter
//! [`trace_to_jobs`] ([`crate::paragon::scale_trace_record`]), so the
//! lazy and materialized paths are bit-identical by construction — and
//! the golden CSVs plus the test-only `streaming_equivalence` battery
//! pin it down empirically. See docs/WORKLOADS.md § Streaming pipeline.

use crate::swf::{SwfError, SwfRecords};
use crate::{factor_for_load, trace_to_jobs, JobSpec, TraceRecord};
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Error constructing a [`TraceWorkload`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceError {
    /// The SWF text failed to parse (carries the offending line).
    Swf(SwfError),
    /// The trace has fewer than two usable jobs, so it has no
    /// inter-arrival process to scale.
    TooShort(usize),
    /// Every job in the trace carries the same submit time, so the
    /// arrival span is zero and load scaling is undefined.
    ZeroSpan,
    /// The trace file could not be opened or read.
    Io {
        /// The offending path, rendered.
        path: String,
        /// The I/O error, rendered.
        message: String,
    },
}

impl core::fmt::Display for TraceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TraceError::Swf(e) => e.fmt(f),
            TraceError::TooShort(n) => {
                write!(f, "trace has {n} usable jobs; need at least 2")
            }
            TraceError::ZeroSpan => {
                write!(f, "all jobs share one submit time; cannot scale arrivals")
            }
            TraceError::Io { path, message } => {
                write!(f, "{path}: {message}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

impl From<SwfError> for TraceError {
    fn from(e: SwfError) -> Self {
        TraceError::Swf(e)
    }
}

/// Where the records come from.
#[derive(Debug, Clone)]
enum TraceSource {
    /// Retained, submit-sorted records ([`TraceWorkload::new`] /
    /// [`TraceWorkload::from_swf`]).
    Memory(Arc<Vec<TraceRecord>>),
    /// A validated SWF file re-read on demand ([`TraceWorkload::open`]):
    /// O(1) memory regardless of trace length.
    File(Arc<PathBuf>),
}

/// A trace ready for replay at a controllable offered load.
///
/// Construct from records ([`TraceWorkload::new`]), from SWF text
/// ([`TraceWorkload::from_swf`]), or — for traces too large to retain —
/// straight from an SWF file ([`TraceWorkload::open`]), which streams.
/// Then either ask for the scaling factor
/// ([`TraceWorkload::factor_for_offered_load`]), for a lazy scaled job
/// stream ([`TraceWorkload::stream_jobs`]), or for a materialized batch
/// ([`TraceWorkload::jobs_at_load`], the equivalence oracle for the
/// streaming path).
///
/// Cloning is cheap (the source is behind an `Arc`), and concurrent
/// replications sharing one workload share the source without any
/// per-(mesh, load) caching — each replication's [`ScaledJobs`] cursor
/// scales records on the fly, so nothing is ever double-materialized.
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    source: TraceSource,
    len: usize,
    mean_interarrival_s: f64,
    mean_work: f64,
}

/// Equality is over the record stream itself.
impl PartialEq for TraceWorkload {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter_records().eq(other.iter_records())
    }
}

/// A streaming parser over an SWF file.
type FileRecords = SwfRecords<BufReader<std::fs::File>>;

/// Opens an SWF file as a streaming record parser.
fn open_records(path: &Path) -> Result<FileRecords, TraceError> {
    let file = std::fs::File::open(path).map_err(|e| TraceError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    })?;
    Ok(SwfRecords::new(BufReader::new(file)))
}

impl TraceWorkload {
    /// Wraps a record stream. Records are (stably) sorted by submit time
    /// — SWF files are normally ordered already, but real archive logs
    /// occasionally are not, and an unsorted stream would corrupt the
    /// span-based statistics below. Fails if fewer than two jobs remain
    /// (no inter-arrival process to scale).
    pub fn new(mut records: Vec<TraceRecord>) -> Result<Self, TraceError> {
        if records.len() < 2 {
            return Err(TraceError::TooShort(records.len()));
        }
        records.sort_by(|a, b| a.submit_s.total_cmp(&b.submit_s));
        let n = records.len() as f64;
        // procsim-lint: allow(D004): invariant: the len < 2 guard above means last() is Some
        let span = (records.last().expect("invariant: non-empty records").submit_s
            - records[0].submit_s)
            .max(0.0);
        let mean_interarrival_s = span / (n - 1.0);
        if mean_interarrival_s <= 0.0 {
            return Err(TraceError::ZeroSpan);
        }
        let mean_work = records
            .iter()
            .map(|r| r.size as f64 * r.runtime_s)
            // procsim-lint: allow(D003): slice iteration in index order over the just-sorted records; deterministic for a given trace
            .sum::<f64>()
            / n;
        Ok(TraceWorkload {
            len: records.len(),
            source: TraceSource::Memory(Arc::new(records)),
            mean_interarrival_s,
            mean_work,
        })
    }

    /// Parses SWF text and wraps the result (retained in memory).
    pub fn from_swf(text: &str) -> Result<Self, TraceError> {
        let records = crate::swf::parse_swf(text)?;
        TraceWorkload::new(records)
    }

    /// Opens an SWF file as a **streaming** workload: one validating
    /// pass computes the job count and scaling statistics online (O(1)
    /// memory), and replay re-reads the file on demand — the records are
    /// never materialized, so million-job archive logs replay in bounded
    /// memory.
    ///
    /// The streaming path requires submit-sorted records (the SWF
    /// convention). If the validation pass finds out-of-order submits it
    /// falls back to the retained path ([`TraceWorkload::from_swf`]) —
    /// correctness over footprint for that rare shape of input.
    ///
    /// For a sorted file, every statistic (and hence every scaling
    /// factor and every simulator result) is bit-identical to
    /// `from_swf(&read_to_string(path))`: the sums accumulate in the
    /// same record order.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceError> {
        let path = path.as_ref();
        let mut n = 0usize;
        let mut first = 0.0f64;
        let mut last = 0.0f64;
        let mut work_sum = 0.0f64;
        let mut sorted = true;
        for rec in open_records(path)? {
            let r = rec?;
            if n == 0 {
                first = r.submit_s;
            } else if r.submit_s < last {
                sorted = false;
            }
            last = r.submit_s;
            work_sum += r.size as f64 * r.runtime_s;
            n += 1;
        }
        if !sorted {
            let text = std::fs::read_to_string(path).map_err(|e| TraceError::Io {
                path: path.display().to_string(),
                message: e.to_string(),
            })?;
            return TraceWorkload::from_swf(&text);
        }
        if n < 2 {
            return Err(TraceError::TooShort(n));
        }
        let span = (last - first).max(0.0);
        let mean_interarrival_s = span / (n as f64 - 1.0);
        if mean_interarrival_s <= 0.0 {
            return Err(TraceError::ZeroSpan);
        }
        Ok(TraceWorkload {
            source: TraceSource::File(Arc::new(path.to_path_buf())),
            len: n,
            mean_interarrival_s,
            mean_work: work_sum / n as f64,
        })
    }

    /// `true` when replay streams from a file instead of retained
    /// records (i.e. the workload was built by [`TraceWorkload::open`]
    /// on a sorted file).
    pub fn is_streaming(&self) -> bool {
        matches!(self.source, TraceSource::File(_))
    }

    /// The retained records when this workload is memory-backed
    /// ([`TraceWorkload::new`] / [`TraceWorkload::from_swf`]); `None`
    /// for file-backed streaming workloads — use
    /// [`TraceWorkload::iter_records`] instead, which works for both.
    pub fn records(&self) -> Option<&[TraceRecord]> {
        match &self.source {
            TraceSource::Memory(recs) => Some(recs),
            TraceSource::File(_) => None,
        }
    }

    /// Streams the records in submit order, one at a time (O(1) memory
    /// for file-backed workloads).
    ///
    /// # Panics
    ///
    /// A file-backed iterator panics if the file no longer holds the
    /// records [`TraceWorkload::open`] validated: it was modified
    /// mid-run.
    pub fn iter_records(&self) -> RecordIter {
        let backing = match &self.source {
            TraceSource::Memory(recs) => Backing::Memory(recs.clone()),
            TraceSource::File(path) => Backing::File {
                parser: open_records(path),
                path: path.clone(),
            },
        };
        RecordIter {
            backing,
            pos: 0,
            len: self.len,
        }
    }

    /// Summary statistics, computed online in one pass over
    /// [`TraceWorkload::iter_records`] whatever the backing, so the same
    /// records always give the same summary (the runtime median is a
    /// log₂-histogram estimate — see [`crate::stats::StreamingSummary`]).
    pub fn summary(&self) -> crate::stats::TraceSummary {
        crate::stats::summarize_stream(self.iter_records())
            // procsim-lint: allow(D004): invariant: construction rejects traces of fewer than 2 jobs
            .expect("invariant: a trace workload holds at least 2 jobs")
    }

    /// Number of usable jobs (always >= 2).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always `false` (construction requires >= 2 jobs); present because
    /// clippy expects it next to [`TraceWorkload::len`].
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mean inter-arrival time in seconds, measured over the trace span.
    pub fn mean_interarrival_s(&self) -> f64 {
        self.mean_interarrival_s
    }

    /// Mean work per job in processor-seconds: `E[size x runtime]`.
    pub fn mean_work(&self) -> f64 {
        self.mean_work
    }

    /// The trace's native offered load on a machine of `machine_size`
    /// processors: `E[work] / (P x mean_interarrival)` — the fraction of
    /// machine capacity occupied if every job ran for its recorded
    /// runtime. Can exceed 1 for traces logged on a bigger machine.
    pub fn offered_load(&self, machine_size: u32) -> f64 {
        assert!(machine_size > 0);
        self.mean_work / (machine_size as f64 * self.mean_interarrival_s)
    }

    /// The job-arrival-rate load (jobs per second) equivalent to offered
    /// load `rho` on `machine_size` processors: `rho x P / E[work]`.
    /// This is the `load` argument [`factor_for_load`] expects.
    pub fn arrival_load(&self, machine_size: u32, rho: f64) -> f64 {
        assert!(rho > 0.0, "offered load must be positive");
        rho * machine_size as f64 / self.mean_work
    }

    /// The arrival-scaling factor `f` that makes this trace's offered
    /// load on `machine_size` processors equal `rho` (`f < 1` compresses
    /// arrivals — higher load; `f > 1` stretches them). Built on
    /// [`factor_for_load`]: `f = factor_for_load(mean_ia, arrival_load)`.
    pub fn factor_for_offered_load(&self, machine_size: u32, rho: f64) -> f64 {
        factor_for_load(self.mean_interarrival_s, self.arrival_load(machine_size, rho))
    }

    /// Converts the trace into simulator jobs at offered load `rho` on a
    /// `mesh_w x mesh_l` mesh, mapping runtimes to per-processor message
    /// counts via `runtime_scale` (seconds per message) as in
    /// [`trace_to_jobs`].
    ///
    /// This **materializes** the whole scaled stream — it is the batch
    /// oracle the streaming [`TraceWorkload::stream_jobs`] cursor is
    /// tested against, and stays useful for small pre-scaled fixtures
    /// (the simulator's `FixedTrace` runs). Production replay uses
    /// [`TraceWorkload::stream_jobs`].
    pub fn jobs_at_load(
        &self,
        mesh_w: u16,
        mesh_l: u16,
        rho: f64,
        runtime_scale: f64,
    ) -> Vec<JobSpec> {
        let machine = mesh_w as u32 * mesh_l as u32;
        let f = self.factor_for_offered_load(machine, rho);
        let recs: Vec<TraceRecord> = self.iter_records().collect();
        trace_to_jobs(&recs, mesh_w, mesh_l, f, runtime_scale)
    }

    /// A lazy, endlessly wrapping stream of scaled simulator jobs
    /// starting at record index `start` — the streaming replacement for
    /// materializing [`TraceWorkload::jobs_at_load`] and indexing into
    /// it.
    ///
    /// Job `id`s are the record indexes (`start`, `start+1`, …,
    /// `len-1`, `0`, `1`, …), and every `JobSpec` field is bit-identical
    /// to `jobs_at_load(..)[id]` (the per-record arithmetic is shared:
    /// [`crate::paragon::scale_trace_record`]). The iterator never ends;
    /// the simulator's replication budget decides how much of it to
    /// consume. Memory is O(1) per cursor for file-backed workloads.
    pub fn stream_jobs(
        &self,
        mesh_w: u16,
        mesh_l: u16,
        rho: f64,
        runtime_scale: f64,
        start: usize,
    ) -> ScaledJobs {
        assert!(start < self.len, "start {start} out of range {}", self.len);
        let machine = mesh_w as u32 * mesh_l as u32;
        let f = self.factor_for_offered_load(machine, rho);
        assert!(f > 0.0 && runtime_scale > 0.0);
        let mut records = self.iter_records();
        // a skipped record is parsed and dropped: never scaled or kept
        for _ in 0..start {
            records.next();
        }
        ScaledJobs {
            records,
            mesh_w,
            mesh_l,
            f,
            runtime_scale,
        }
    }

    /// Caps a per-replication `(warmup, measured)` job budget to one
    /// pass over this trace (a replication replays the stream at most
    /// once). Returns the budget unchanged when it fits; otherwise
    /// shrinks it to a 1:4 warmup:measured split of the trace length.
    /// Front-ends share this policy (and should warn when the result
    /// differs from what was asked).
    pub fn capped_budget(&self, warmup: usize, measured: usize) -> (usize, usize) {
        if warmup + measured <= self.len() {
            (warmup, measured)
        } else {
            let w = (self.len() / 5).max(1);
            (w, self.len() - w)
        }
    }
}

/// What a [`RecordIter`] reads.
enum Backing {
    /// The workload's retained records, shared.
    Memory(Arc<Vec<TraceRecord>>),
    /// The validated file, re-read from its start (or the error that
    /// reopening it gave).
    File {
        path: Arc<PathBuf>,
        parser: Result<FileRecords, TraceError>,
    },
}

/// An owned cursor over one pass of a workload's records in submit
/// order (see [`TraceWorkload::iter_records`]); [`ScaledJobs`] rewinds
/// it at every wrap. A file-backed cursor holds only its line buffer.
pub struct RecordIter {
    backing: Backing,
    /// Index of the next record.
    pos: usize,
    /// The validated record count.
    len: usize,
}

impl RecordIter {
    /// Back to record 0 (a file is reopened).
    fn rewind(&mut self) {
        self.pos = 0;
        if let Backing::File { path, parser } = &mut self.backing {
            *parser = open_records(path);
        }
    }
}

impl Iterator for RecordIter {
    type Item = TraceRecord;

    fn next(&mut self) -> Option<TraceRecord> {
        let (path, got) = match &mut self.backing {
            Backing::Memory(recs) => {
                let r = recs.get(self.pos).copied();
                self.pos += usize::from(r.is_some());
                return r;
            }
            Backing::File { path, parser } => (
                path,
                match parser {
                    Ok(p) => p.next().map(|r| r.map_err(TraceError::from)),
                    Err(e) => Some(Err(e.clone())),
                },
            ),
        };
        // the file was validated by TraceWorkload::open: it must hold
        // exactly `len` well-formed records, or it changed while the
        // simulation ran — there is no sensible recovery, and silently
        // continuing would corrupt results
        match (got, self.pos < self.len) {
            (Some(Ok(r)), true) => {
                self.pos += 1;
                Some(r)
            }
            (None, false) => None,
            (got, _) => {
                let why = match got {
                    Some(Err(e)) => e.to_string(),
                    Some(Ok(_)) => format!("it holds more than the {} records validated", self.len),
                    None => format!("it ended at record {} of {}", self.pos, self.len),
                };
                panic!("trace file {} changed mid-run: {why}", path.display())
            }
        }
    }
}

/// An endless, lazily scaled job stream over a [`TraceWorkload`] — see
/// [`TraceWorkload::stream_jobs`]. Yields `jobs_at_load(..)[start]`,
/// `[start+1]`, …, `[len-1]`, `[0]`, … without ever materializing the
/// scaled vector; file-backed cursors hold only a line buffer.
pub struct ScaledJobs {
    records: RecordIter,
    mesh_w: u16,
    mesh_l: u16,
    f: f64,
    runtime_scale: f64,
}

impl Iterator for ScaledJobs {
    type Item = JobSpec;

    fn next(&mut self) -> Option<JobSpec> {
        let rec = match self.records.next() {
            Some(r) => r,
            None => {
                self.records.rewind();
                self.records.next()?
            }
        };
        Some(crate::paragon::scale_trace_record(
            &rec,
            self.records.pos as u64 - 1,
            self.mesh_w,
            self.mesh_l,
            self.f,
            self.runtime_scale,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load_for_factor;

    fn flat_trace(n: usize, gap: f64, size: u32, runtime: f64) -> Vec<TraceRecord> {
        (0..n)
            .map(|i| TraceRecord {
                submit_s: i as f64 * gap,
                size,
                runtime_s: runtime,
            })
            .collect()
    }

    #[test]
    fn rejects_degenerate_traces() {
        assert_eq!(TraceWorkload::new(vec![]), Err(TraceError::TooShort(0)));
        assert_eq!(
            TraceWorkload::new(flat_trace(1, 10.0, 4, 5.0)),
            Err(TraceError::TooShort(1))
        );
        // simultaneous arrivals: no inter-arrival process
        assert_eq!(
            TraceWorkload::new(flat_trace(5, 0.0, 4, 5.0)),
            Err(TraceError::ZeroSpan)
        );
    }

    #[test]
    fn from_swf_propagates_position() {
        let err = TraceWorkload::from_swf("1 bad 3 100 32 -1 -1 32\n").unwrap_err();
        match err {
            TraceError::Swf(e) => assert_eq!(e.line, 1),
            other => panic!("expected Swf error, got {other:?}"),
        }
    }

    #[test]
    fn open_missing_file_is_io_error() {
        let err = TraceWorkload::open("/nonexistent/procsim-no-such-trace.swf").unwrap_err();
        assert!(matches!(err, TraceError::Io { .. }), "{err}");
        assert!(err.to_string().contains("no-such-trace"));
    }

    #[test]
    fn unsorted_records_are_normalized() {
        let mut recs = flat_trace(10, 50.0, 10, 100.0);
        recs.reverse();
        let unsorted = TraceWorkload::new(recs).unwrap();
        let sorted = TraceWorkload::new(flat_trace(10, 50.0, 10, 100.0)).unwrap();
        assert_eq!(unsorted, sorted);
        assert!((unsorted.mean_interarrival_s() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn offered_load_hand_computed() {
        // 100 jobs, one every 50 s, 10 procs x 100 s each => work 1000
        // proc-s per job; on 100 procs: rho = 1000 / (100 * 50) = 0.2
        let w = TraceWorkload::new(flat_trace(100, 50.0, 10, 100.0)).unwrap();
        assert!((w.mean_interarrival_s() - 50.0).abs() < 1e-9);
        assert!((w.mean_work() - 1000.0).abs() < 1e-9);
        assert!((w.offered_load(100) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn factor_round_trips_through_load_for_factor() {
        let w = TraceWorkload::new(flat_trace(100, 50.0, 10, 100.0)).unwrap();
        for rho in [0.2, 0.5, 0.7, 1.0] {
            let f = w.factor_for_offered_load(100, rho);
            // factor_for_load and load_for_factor are inverses...
            let lambda = w.arrival_load(100, rho);
            assert!((load_for_factor(w.mean_interarrival_s(), f) - lambda).abs() < 1e-12);
            // ...and scaling submit times by f realizes the target rho
            let scaled: Vec<TraceRecord> = w
                .iter_records()
                .map(|r| TraceRecord {
                    submit_s: r.submit_s * f,
                    ..r
                })
                .collect();
            let rescaled = TraceWorkload::new(scaled).unwrap();
            assert!(
                (rescaled.offered_load(100) - rho).abs() < 1e-9,
                "target {rho} realized {}",
                rescaled.offered_load(100)
            );
        }
    }

    #[test]
    fn native_load_means_factor_one() {
        let w = TraceWorkload::new(flat_trace(60, 30.0, 7, 90.0)).unwrap();
        let native = w.offered_load(352);
        assert!((w.factor_for_offered_load(352, native) - 1.0).abs() < 1e-12);
        // halving the load doubles the factor (stretches arrivals)
        assert!((w.factor_for_offered_load(352, native / 2.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn capped_budget_limits_to_one_pass() {
        let w = TraceWorkload::new(flat_trace(100, 10.0, 4, 20.0)).unwrap();
        // fits: unchanged
        assert_eq!(w.capped_budget(20, 80), (20, 80));
        assert_eq!(w.capped_budget(10, 40), (10, 40));
        // does not fit: 1:4 split of the trace length
        assert_eq!(w.capped_budget(100, 400), (20, 80));
        assert_eq!(w.capped_budget(1, 100), (20, 80));
        // tiny trace: warmup never reaches 0
        let tiny = TraceWorkload::new(flat_trace(3, 10.0, 4, 20.0)).unwrap();
        assert_eq!(tiny.capped_budget(10, 400), (1, 2));
    }

    #[test]
    fn stream_jobs_matches_batch_oracle() {
        let w = TraceWorkload::new(flat_trace(40, 80.0, 5, 200.0)).unwrap();
        let batch = w.jobs_at_load(16, 22, 0.7, 360.0);
        // from the start: one full wrap replays the batch twice
        let streamed: Vec<JobSpec> = w.stream_jobs(16, 22, 0.7, 360.0, 0).take(80).collect();
        assert_eq!(&streamed[..40], &batch[..]);
        assert_eq!(&streamed[40..], &batch[..]);
        // from an offset: tail first, then wraps to the front
        let offset: Vec<JobSpec> = w.stream_jobs(16, 22, 0.7, 360.0, 25).take(40).collect();
        assert_eq!(&offset[..15], &batch[25..]);
        assert_eq!(&offset[15..], &batch[..25]);
    }

    #[test]
    fn concurrent_cursors_share_the_source() {
        // two replications of the same (trace, mesh, rho) must not
        // double-materialize: memory cursors borrow the same Arc'd
        // records, and nothing else is allocated per cursor
        let w = TraceWorkload::new(flat_trace(40, 80.0, 5, 200.0)).unwrap();
        let base = match &w.source {
            TraceSource::Memory(recs) => Arc::strong_count(recs),
            TraceSource::File(_) => unreachable!(),
        };
        let a = w.stream_jobs(16, 22, 0.7, 360.0, 0);
        let b = w.stream_jobs(16, 22, 0.7, 360.0, 0);
        match &w.source {
            TraceSource::Memory(recs) => {
                assert_eq!(Arc::strong_count(recs), base + 2, "cursors share the Arc")
            }
            TraceSource::File(_) => unreachable!(),
        }
        assert_eq!(a.take(40).collect::<Vec<_>>(), b.take(40).collect::<Vec<_>>());
    }

    #[test]
    fn summary_is_the_same_for_both_backings() {
        let sample = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/traces/sdsc_sample.swf"
        );
        let memory = TraceWorkload::from_swf(&std::fs::read_to_string(sample).unwrap()).unwrap();
        let file = TraceWorkload::open(sample).unwrap();
        assert!(file.is_streaming() && !memory.is_streaming());
        assert_eq!(memory.summary(), file.summary());
    }

    #[test]
    #[should_panic(expected = "changed mid-run")]
    fn a_file_that_grows_mid_run_is_caught_at_the_wrap() {
        let path =
            std::env::temp_dir().join(format!("procsim_growing_trace_{}.swf", std::process::id()));
        std::fs::write(&path, crate::write_swf(&flat_trace(5, 10.0, 4, 20.0))).unwrap();
        let w = TraceWorkload::open(&path).unwrap();
        let mut jobs = w.stream_jobs(16, 22, 0.7, 360.0, 0);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("6 60 0 20 4 -1 -1 4\n");
        std::fs::write(&path, text).unwrap();
        let drawn = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            jobs.by_ref().take(w.len() + 1).count()
        }));
        std::fs::remove_file(&path).ok();
        // at the wrap the cursor finds a record past the validated length
        if let Err(panic) = drawn {
            std::panic::resume_unwind(panic);
        }
    }

    #[test]
    fn jobs_at_load_scales_arrivals() {
        let w = TraceWorkload::new(flat_trace(50, 100.0, 6, 360.0)).unwrap();
        let native = w.offered_load(352);
        let jobs_native = w.jobs_at_load(16, 22, native, 360.0);
        let jobs_double = w.jobs_at_load(16, 22, native * 2.0, 360.0);
        assert_eq!(jobs_native.len(), 50);
        // doubling the load halves every arrival time
        let last_n = jobs_native.last().unwrap().arrive;
        let last_d = jobs_double.last().unwrap().arrive;
        assert!(
            (last_n as f64 / last_d as f64 - 2.0).abs() < 0.01,
            "native {last_n} double {last_d}"
        );
        // shapes and message counts are untouched by load scaling
        for (a, b) in jobs_native.iter().zip(&jobs_double) {
            assert_eq!((a.a, a.b), (b.a, b.b));
            assert_eq!(a.msgs_per_node, b.msgs_per_node);
        }
    }
}
