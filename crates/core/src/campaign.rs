//! Resumable campaign runner: [`expand`] turns a [`Scenario`] into its
//! full cross-product of experimental points; [`run_campaign`] runs the
//! missing ones as one batch on the caller's worker pool
//! ([`crate::replicate::run_points`], each point within its own
//! replication bounds) and caches each completed point on disk under a
//! content hash of its spec — so an extended campaign, or a rerun after
//! a failed point, runs only points whose results are not already cached.
//!
//! Determinism contract (pinned by `crates/core/tests/campaign_resume.rs`
//! and the CI golden steps):
//!
//! * Each point's seed derives from the campaign seed and its *seed
//!   slot* ([`derive_seed`]), never from execution order, and each point
//!   is an independent batch of replications — so running any subset of
//!   points produces bit-identical per-point results to running them
//!   all, at any thread count.
//! * Cache keys are FNV-1a content hashes of the canonical *spec string*
//!   (every code-relevant knob: mesh geometry, network constants,
//!   topology, strategy, scheduler, workload + load, fidelity and
//!   stopping knobs, seed, and a format version). Any fidelity change
//!   re-keys exactly the affected points; cosmetic scenario edits
//!   (comments, output columns) change nothing.
//! * Expansion order is the declared matrix order (later axes fastest);
//!   all internal maps are `BTreeMap`s, so the merged CSV is identical
//!   however the campaign was sliced across runs (D001).
//!
//! Cache entries are written when the batch returns, each to a temp file
//! renamed into place, so a campaign killed mid-run never leaves a torn
//! entry; it keeps only the entries earlier runs wrote.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use simstats::StopReason;
use workload::TraceWorkload;

use crate::pool::WorkerPool;
use crate::replicate::{derive_seed, run_points, PointResult};
use crate::scenario::{OutputSpec, PointSettings, Scenario, ScenarioError, WorkloadName};

/// Bump when the cache entry format or the spec string changes meaning:
/// stale-format entries then miss instead of corrupting a merge.
const CACHE_FORMAT: &str = "v1";

/// One expanded experimental point of a campaign.
#[derive(Debug, Clone)]
pub struct CampaignPoint {
    /// Position in expansion order (matrix order, later axes fastest).
    pub index: usize,
    /// Seed slot (over the `[seed]` axes; equals `index` by default).
    pub slot: u64,
    /// Fully resolved knobs.
    pub settings: PointSettings,
    /// The derived per-point seed ([`derive_seed`] of campaign seed and
    /// slot).
    pub seed: u64,
    /// Canonical spec string — the cache key preimage.
    pub spec: String,
    /// FNV-1a 64 hash of [`CampaignPoint::spec`], as 16 hex digits.
    pub hash: String,
    /// The opened SWF file of a `trace`-workload point.
    pub trace: Option<Arc<TraceWorkload>>,
}

impl CampaignPoint {
    /// The [`crate::SimConfig`] this point runs.
    pub fn sim_config(&self) -> crate::SimConfig {
        self.settings.sim_config(self.seed, self.trace.as_ref())
    }
}

/// FNV-1a 64-bit over a byte string: the cache key of a point's spec
/// string, and the per-strategy seed stream of `procsim trace`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Builds the canonical spec string of a point: every knob that can
/// change simulation output, in fixed order, plus the cache format
/// version. Cosmetic scenario properties (name, output layout) are
/// deliberately absent. A replayed trace enters by its validated
/// summary — job count, mean inter-arrival time and mean work, as exact
/// bits — not by path, so an edited file re-keys its points.
fn spec_string(s: &PointSettings, seed: u64, trace: Option<&TraceWorkload>) -> String {
    let workload = match trace {
        None => s.workload.name().to_string(),
        Some(t) => format!(
            "{}(jobs={},mean_ia={:#x},mean_work={:#x})",
            s.workload.name(),
            t.len(),
            t.mean_interarrival_s().to_bits(),
            t.mean_work().to_bits()
        ),
    };
    format!(
        "{CACHE_FORMAT}|mesh={}x{}|ts={}|plen={}|pattern={}|topology={}|strategy={}|\
         scheduler={}|workload={}|load={}|num_mes={}|runtime_scale={}|warmup={}|measured={}|\
         min_reps={}|max_reps={}|precision=paper95-5|seed={}",
        s.mesh_w,
        s.mesh_l,
        s.ts,
        s.plen,
        s.pattern,
        s.topology,
        s.strategy,
        s.scheduler,
        workload,
        s.load,
        s.num_mes,
        s.runtime_scale,
        s.warmup,
        s.measured,
        s.min_reps,
        s.max_reps,
        seed,
    )
}

/// Expands a scenario into its full cross-product of points, applying
/// knob precedence (builtin < defaults < matrix < override) and deriving
/// per-point seeds from the seed slot. Each trace file is opened (and
/// validated) once, however many points replay it. An unknown `[output]`
/// column is refused here, before any point runs.
pub fn expand(s: &Scenario) -> Result<Vec<CampaignPoint>, ScenarioError> {
    render_csv(&s.output, [])?;
    let mut traces: BTreeMap<String, Arc<TraceWorkload>> = BTreeMap::new();
    // sizes of each axis, and which axes advance the seed slot
    let sizes: Vec<usize> = s.matrix.iter().map(|(_, vs)| vs.len()).collect();
    let total: usize = sizes.iter().product();
    let seed_axis: Vec<bool> = match &s.seed_axes {
        None => vec![true; s.matrix.len()],
        Some(axes) => s
            .matrix
            .iter()
            .map(|(k, _)| axes.iter().any(|a| a == k))
            .collect(),
    };

    let mut points = Vec::with_capacity(total);
    // odometer over the axes: later axes vary fastest
    let mut idx = vec![0usize; s.matrix.len()];
    for index in 0..total {
        let mut settings = PointSettings::default();
        for (k, v) in &s.defaults {
            settings.apply(k, v, 0, &format!("defaults.{k}"))?;
        }
        for (axis, &i) in s.matrix.iter().zip(&idx) {
            let (k, vs) = axis;
            settings.apply(k, &vs[i], 0, &format!("matrix.{k}"))?;
        }
        for rule in &s.overrides {
            // match on the bare rendering of the point's current setting
            // (matrix axes and defaults knobs both work)
            let Some(current) = settings.knob_value(&rule.axis) else {
                return Err(ScenarioError::new(
                    rule.line,
                    format!("override.{}={}", rule.axis, rule.value),
                    "unknown axis",
                ));
            };
            if current == rule.value {
                for (k, v) in &rule.set {
                    settings.apply(
                        k,
                        v,
                        rule.line,
                        &format!("override.{}={}.{k}", rule.axis, rule.value),
                    )?;
                }
            }
        }
        settings.validate(&format!("matrix point {index}"))?;

        // seed slot: odometer restricted to the seed axes, later fastest
        let mut slot = 0u64;
        for ((&i, &size), &counts) in idx.iter().zip(&sizes).zip(&seed_axis) {
            if counts {
                slot = slot * size as u64 + i as u64;
            }
        }
        let seed = derive_seed(s.seed, slot);
        let trace = match (settings.workload, &settings.trace) {
            (WorkloadName::Trace, Some(path)) => {
                if !traces.contains_key(path) {
                    let t = TraceWorkload::open(path).map_err(|e| {
                        ScenarioError::new(0, "trace", format!("cannot replay {path:?}: {e}"))
                    })?;
                    traces.insert(path.clone(), Arc::new(t));
                }
                traces.get(path).cloned()
            }
            _ => None,
        };
        let spec = spec_string(&settings, seed, trace.as_deref());
        let hash = format!("{:016x}", fnv1a(spec.as_bytes()));
        points.push(CampaignPoint {
            index,
            slot,
            settings,
            seed,
            spec,
            hash,
            trace,
        });

        // advance the odometer
        for a in (0..idx.len()).rev() {
            idx[a] += 1;
            if idx[a] < sizes[a] {
                break;
            }
            idx[a] = 0;
        }
    }
    Ok(points)
}

// ---------------------------------------------------------------------------
// the on-disk point cache
// ---------------------------------------------------------------------------

/// A campaign-runner failure: cache I/O, a failed point, or a scenario
/// validation error surfaced at run time.
#[derive(Debug)]
pub enum CampaignError {
    /// The scenario's `[output]` layout names an unknown column.
    Scenario(ScenarioError),
    /// A point's replication panicked: `point <index>: <series> load <l>:
    /// replication <r>: <panic message>`.
    Point(String),
    /// Cache directory or CSV I/O failed.
    Io {
        /// What the runner was doing.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
}

impl core::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CampaignError::Scenario(e) => write!(f, "{e}"),
            CampaignError::Point(e) => f.write_str(e),
            CampaignError::Io { context, source } => write!(f, "{context}: {source}"),
        }
    }
}

impl std::error::Error for CampaignError {}

fn io_err(context: impl Into<String>) -> impl FnOnce(std::io::Error) -> CampaignError {
    let context = context.into();
    move |source| CampaignError::Io { context, source }
}

/// Serializes a completed point for the cache: the spec string (verified
/// on load, so a hash collision degrades to a rerun, never a wrong
/// merge) and the full-precision result.
fn render_entry(spec: &str, p: &PointResult) -> String {
    use core::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(out, "procsim-campaign-point {CACHE_FORMAT}");
    let _ = writeln!(out, "spec {spec}");
    let _ = writeln!(out, "label {}", p.label);
    let _ = writeln!(out, "load {}", p.load);
    let _ = writeln!(out, "replications {}", p.replications);
    let stop = match p.stop {
        StopReason::Converged => "converged",
        StopReason::Budget => "budget",
        StopReason::NotStopped => "not-stopped",
    };
    let _ = writeln!(out, "stop {stop}");
    let means: Vec<String> = p.means.iter().map(|m| format!("{m}")).collect();
    let _ = writeln!(out, "means {}", means.join(" "));
    let cis: Vec<String> = p.ci95.iter().map(|c| format!("{c}")).collect();
    let _ = writeln!(out, "ci95 {}", cis.join(" "));
    out
}

/// Parses a cache entry back. `None` = unusable (wrong version, spec
/// mismatch, or corruption) — the caller treats it as a miss and reruns.
fn parse_entry(text: &str, want_spec: &str) -> Option<PointResult> {
    let mut lines = text.lines();
    if lines.next()? != format!("procsim-campaign-point {CACHE_FORMAT}") {
        return None;
    }
    let spec = lines.next()?.strip_prefix("spec ")?;
    if spec != want_spec {
        return None;
    }
    let label = lines.next()?.strip_prefix("label ")?.to_string();
    let load: f64 = lines.next()?.strip_prefix("load ")?.parse().ok()?;
    let replications: usize = lines.next()?.strip_prefix("replications ")?.parse().ok()?;
    let stop = match lines.next()?.strip_prefix("stop ")? {
        "converged" => StopReason::Converged,
        "budget" => StopReason::Budget,
        "not-stopped" => StopReason::NotStopped,
        _ => return None,
    };
    let mut means = [0.0f64; 6];
    for (slot, tok) in means
        .iter_mut()
        .zip(lines.next()?.strip_prefix("means ")?.split(' '))
    {
        *slot = tok.parse().ok()?;
    }
    let mut ci95 = [0.0f64; 6];
    for (slot, tok) in ci95
        .iter_mut()
        .zip(lines.next()?.strip_prefix("ci95 ")?.split(' '))
    {
        *slot = tok.parse().ok()?;
    }
    Some(PointResult {
        label,
        load,
        replications,
        stop,
        means,
        ci95,
    })
}

/// Atomically persists one completed point: write to a `.tmp` sibling,
/// then rename into place.
fn write_entry(dir: &Path, point: &CampaignPoint, p: &PointResult) -> Result<(), CampaignError> {
    let path = dir.join(format!("{}.point", point.hash));
    let tmp = dir.join(format!("{}.tmp", point.hash));
    std::fs::write(&tmp, render_entry(&point.spec, p)).map_err(io_err(format!(
        "cannot write cache entry {}",
        tmp.display()
    )))?;
    std::fs::rename(&tmp, &path).map_err(io_err(format!(
        "cannot commit cache entry {}",
        path.display()
    )))
}

/// Loads a cached result for `point`, or `None` on any miss.
fn load_entry(dir: &Path, point: &CampaignPoint) -> Option<PointResult> {
    let path = dir.join(format!("{}.point", point.hash));
    let text = std::fs::read_to_string(path).ok()?;
    parse_entry(&text, &point.spec)
}

/// How many of `points` already have a usable cache entry in `dir`
/// (spec-verified, not just file-present) — the read-only probe behind
/// `procsim campaign --dry-run` and the pre-run status line.
pub fn cached_count(points: &[CampaignPoint], dir: &Path) -> usize {
    points
        .iter()
        .filter(|p| load_entry(dir, p).is_some())
        .count()
}

// ---------------------------------------------------------------------------
// the runner
// ---------------------------------------------------------------------------

/// Cache knobs of one `run_campaign` invocation (orthogonal to the
/// results, like the pool's thread count: they change wall-clock only).
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Cache directory for completed points.
    pub cache_dir: PathBuf,
    /// Ignore (and overwrite) existing cache entries.
    pub force: bool,
}

/// The outcome of a campaign run.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// One result per point, in expansion order.
    pub points: Vec<PointResult>,
    /// Which points were served from the cache (parallel to `points`).
    pub from_cache: Vec<bool>,
    /// Points executed this run.
    pub executed: usize,
    /// Points served from the cache.
    pub cached: usize,
    /// The merged CSV (header + one row per point, expansion order).
    pub csv: String,
}

/// Loads every cached point of `points` (the [`expand`]ed `scenario`),
/// runs the missing ones as one batch on `pool`, persists them, and
/// merges everything into the scenario's CSV layout. The merged CSV is
/// byte-identical to an uninterrupted fresh run at any thread count,
/// however the campaign was previously sliced. A point whose replication
/// panics is [`CampaignError::Point`], returned once every point that
/// finished is cached.
pub fn run_campaign(
    pool: &WorkerPool,
    scenario: &Scenario,
    points: &[CampaignPoint],
    opts: &CampaignOptions,
) -> Result<CampaignOutcome, CampaignError> {
    std::fs::create_dir_all(&opts.cache_dir).map_err(io_err(format!(
        "cannot create cache dir {}",
        opts.cache_dir.display()
    )))?;

    let mut results: Vec<Option<PointResult>> = points
        .iter()
        .map(|point| {
            if opts.force {
                None
            } else {
                load_entry(&opts.cache_dir, point)
            }
        })
        .collect();
    let from_cache: Vec<bool> = results.iter().map(Option::is_some).collect();
    let cached = from_cache.iter().filter(|&&c| c).count();

    // Every missing point runs in one batch, each within its own
    // replication bounds; per-point results do not depend on batching.
    // A failed point is reported after every finished one is cached, so
    // a rerun resumes past them.
    let missing: Vec<usize> = (0..points.len()).filter(|&i| !from_cache[i]).collect();
    let batch: Vec<_> = missing
        .iter()
        .map(|&i| {
            let s = &points[i].settings;
            (points[i].sim_config(), s.min_reps..=s.max_reps)
        })
        .collect();
    let mut failed = Ok(());
    for (&i, fresh) in missing.iter().zip(run_points(pool, &batch)) {
        match fresh {
            Ok(p) => {
                write_entry(&opts.cache_dir, &points[i], &p)?;
                results[i] = Some(p);
            }
            Err(e) => failed = failed.and(Err(CampaignError::Point(format!("point {i}: {e}")))),
        }
    }
    failed?;

    // every point is now either cached or just executed
    let merged: Vec<PointResult> = results.into_iter().flatten().collect();
    debug_assert_eq!(merged.len(), points.len());
    let settings = points.iter().map(|p| &p.settings);
    let csv =
        render_csv(&scenario.output, settings.zip(&merged)).map_err(CampaignError::Scenario)?;

    Ok(CampaignOutcome {
        points: merged,
        from_cache,
        executed: points.len() - cached,
        cached,
        csv,
    })
}

/// The six response metric names, in `PointResult::means` order.
const METRICS: [&str; 6] = [
    "turnaround",
    "service",
    "utilization",
    "blocking",
    "latency",
    "fragments",
];

/// Renders one CSV in the `spec` layout: a header, then one row per
/// (point settings, result) pair, floats at full precision (shortest
/// round-trip form), so files diff cleanly across runs and thread counts.
/// A column that is no built-in (`series`, `topology`, `load`, `reps`,
/// `means`, `cis`) is an `[output.values]` constant, else a knob name;
/// any other name is refused, rows or no rows.
pub fn render_csv<'a>(
    spec: &OutputSpec,
    rows: impl IntoIterator<Item = (&'a PointSettings, &'a PointResult)>,
) -> Result<String, ScenarioError> {
    let named = |column: &str, settings: &PointSettings| {
        let constant = spec.values.iter().find(|(k, _)| k == column);
        constant
            .map(|(_, v)| v.clone())
            .or_else(|| settings.knob_value(column))
    };
    let mut header: Vec<String> = Vec::new();
    for col in &spec.columns {
        match col.as_str() {
            "means" => header.extend(METRICS.iter().map(|m| m.to_string())),
            "cis" => header.extend(METRICS.iter().map(|m| format!("ci_{m}"))),
            "series" | "topology" | "load" | "reps" => header.push(col.clone()),
            // every knob renders at every point, so the defaults decide
            other if named(other, &PointSettings::default()).is_some() => header.push(col.clone()),
            other => {
                return Err(ScenarioError::new(
                    0,
                    format!("output.columns.{other}"),
                    "unknown column (built-ins: series, topology, load, reps, means, \
                     cis; or an [output.values] constant or knob name)",
                ))
            }
        }
    }
    let mut csv = header.join(",");
    csv.push('\n');

    for (settings, r) in rows {
        let mut row: Vec<String> = Vec::new();
        for col in &spec.columns {
            match col.as_str() {
                "series" => row.push(r.label.clone()),
                "topology" => row.push(settings.topology.to_string()),
                "load" => row.push(format!("{}", r.load)),
                "reps" => row.push(r.replications.to_string()),
                "means" => row.extend(r.means.iter().map(|m| format!("{m}"))),
                "cis" => row.extend(r.ci95.iter().map(|c| format!("{c}"))),
                // the header refused unknown columns
                other => row.push(named(other, settings).unwrap_or_default()),
            }
        }
        csv.push_str(&row.join(","));
        csv.push('\n');
    }
    Ok(csv)
}
