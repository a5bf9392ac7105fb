//! The procsim benchmark: end-to-end metrics from untraced passes, and
//! per-layer metrics from a traced mirror of the replication loop.
//!
//! ```text
//! procsim_perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! procsim_perfbench --workload <name> --record A-B
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod bench;
mod digest;
mod hostspeed;
mod metrics;
mod mirror;
mod spans;
mod workloads;

use metrics::{median, quantile, END_TO_END, PER_LAYER};
use procsim_core::WorkerPool;
use spans::{SpanCost, SpanName, Tracer, NO_PARENT};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{setup, Plan, Workload};

/// The seed the recorded runs use.
pub const DEFAULT_SEED: u64 = 1;
/// A second seed, never used while tuning, that must pass the same checks.
pub const HELD_OUT_SEED: u64 = 7;
/// A set-up batch holds enough set-ups to last this long, so that a
/// set-up of a microsecond is not timed at the clock's resolution.
const SETUP_BATCH_S: f64 = 0.001;
/// Seconds of set-up batches timed before the first pass and after each
/// pass. Spread over the run like the passes, the median set-up sees the
/// same host as they do, not only its first moments.
const SETUP_SLICE_S: f64 = 0.02;
/// Probe slices on each side of a replication whose median is the host
/// speed it ran at.
const PROBE_HALF_WINDOW: usize = 8;
/// Fewest timed passes per run, whatever `--seconds` says.
const MIN_PASSES: usize = 3;
/// Fewest traced passes per traced run.
const MIN_TRACED: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    record: Option<(u64, u64)>,
}

const USAGE: &str =
    "usage: procsim_perfbench --workload <paper_mesh|paper_torus|swf_torus|deep_queue> \
[--seed N] [--seconds S] [--trace 0|1] [--record A-B]";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mut workload = None;
    let mut args = Args {
        workload: Workload::PaperMesh,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        work_dir: PathBuf::from(
            std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string()),
        )
        .join("perfbench-work"),
        record: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::from_name(&v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                }
            }
            "--record" => {
                let v = value()?;
                let (a, b) = v.split_once('-').ok_or("--record takes A-B")?;
                let a: u64 = a.parse().map_err(|e| format!("--record: {e}"))?;
                let b: u64 = b.parse().map_err(|e| format!("--record: {e}"))?;
                args.record = Some((a, b));
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.record {
        Some((a, b)) => record(&args, a, b),
        None if args.trace => traced_run(&args),
        None => timed_run(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Times the workload's set-up in batches and keeps every batch's
/// seconds per set-up; `setup_s` is their median.
struct SetupTimer<'a> {
    args: &'a Args,
    trace: Option<PathBuf>,
    batch: usize,
    samples: Vec<f64>,
}

impl<'a> SetupTimer<'a> {
    /// Writes the workload's inputs and sizes the batch.
    fn new(args: &'a Args) -> Result<Self, String> {
        let trace = args
            .workload
            .generate_inputs(args.seed, &args.work_dir)
            .map_err(|e| format!("writing inputs under {}: {e}", args.work_dir.display()))?;
        let mut t = SetupTimer {
            args,
            trace,
            batch: 1,
            samples: Vec::new(),
        };
        while t.run_batch()? < SETUP_BATCH_S {
            t.batch *= 2;
        }
        Ok(t)
    }

    fn setup(&self) -> Result<Plan, String> {
        let w = self.args.workload;
        setup(w, self.args.seed, self.trace.as_deref(), w.full_size())
    }

    fn run_batch(&self) -> Result<f64, String> {
        let t = Instant::now();
        for _ in 0..self.batch {
            self.setup()?;
        }
        Ok(t.elapsed().as_secs_f64())
    }

    /// Times batches for `SETUP_SLICE_S` seconds, at least one batch,
    /// each at the reference host speed by a probe slice run before it.
    fn time_slice(&mut self) -> Result<(), String> {
        let start = Instant::now();
        loop {
            let speed = hostspeed::REFERENCE_SLICE_S / hostspeed::slice();
            self.samples
                .push(self.run_batch()? / self.batch as f64 * speed);
            if start.elapsed().as_secs_f64() >= SETUP_SLICE_S {
                return Ok(());
            }
        }
    }

    fn median(&self) -> f64 {
        median(&self.samples)
    }
}

/// What each replication of a pass must produce.
struct Expected {
    digests: Option<Vec<u64>>,
    from_reference: bool,
}

impl Expected {
    fn load(w: Workload, seed: u64, plan: &Plan) -> Result<Expected, String> {
        let digests = digest::reference(w, seed)?;
        if let Some(d) = &digests {
            if d.len() != plan.len() {
                return Err(format!(
                    "references/{}.txt: seed {seed} lists {} replications, a pass has {}",
                    w.name(),
                    d.len(),
                    plan.len()
                ));
            }
        } else {
            eprintln!(
                "note: no stored reference for {} seed {seed}; checking every pass against \
                 the first and the first against the mirror",
                w.name()
            );
        }
        Ok(Expected {
            from_reference: digests.is_some(),
            digests,
        })
    }

    /// Counts the replications of a pass that fail: panicked, or a digest
    /// other than expected. Without a reference the first pass becomes
    /// the expectation.
    fn failures(&mut self, got: &[Option<u64>]) -> u64 {
        let expected = self
            .digests
            .get_or_insert_with(|| got.iter().map(|d| d.unwrap_or(0)).collect());
        got.iter()
            .zip(expected.iter())
            .filter(|(g, e)| g.as_ref() != Some(e))
            .count() as u64
    }
}

fn digests_of(results: &[bench::RepResult]) -> Vec<Option<u64>> {
    results
        .iter()
        .map(|r| match r {
            Ok(r) => Some(digest::digest(&r.metrics)),
            Err(msg) => {
                eprintln!("replication panicked: {msg}");
                None
            }
        })
        .collect()
}

fn timed_run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let mut setups = SetupTimer::new(args)?;
    setups.time_slice()?;
    let plan = setups.setup()?;
    let mut expected = Expected::load(w, args.seed, &plan)?;
    let pool = WorkerPool::new(1);
    let start = Instant::now();
    let mut pass_s = Vec::new();
    // every replication of the run in order: (pass, seconds, probe seconds)
    let mut reps: Vec<(usize, f64, f64)> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    loop {
        let (results, secs) = bench::untraced_pass(&pool, &plan);
        attempted += results.len() as u64;
        failed += expected.failures(&digests_of(&results));
        let pass = pass_s.len();
        reps.extend(results.iter().flatten().map(|r| (pass, r.secs, r.probe_s)));
        pass_s.push(secs);
        setups.time_slice()?;
        let elapsed = start.elapsed().as_secs_f64();
        if pass_s.len() >= MIN_PASSES && elapsed + median(&pass_s) > args.seconds {
            break;
        }
    }
    // read before the untimed mirror check below can raise it
    let peak_rss_mib = peak_rss_kib()? as f64 / 1024.0;
    if !expected.from_reference {
        let mirrored = bench::traced_pass(&pool, &plan, false);
        attempted += mirrored.digests.len() as u64;
        failed += expected.failures(&mirrored.digests);
    }
    drop(pool);

    // each replication at the reference host speed, by the probe around it
    let probes: Vec<f64> = reps.iter().map(|r| r.2).collect();
    let local = hostspeed::local(&probes, PROBE_HALF_WINDOW);
    let k = w.host_exponent();
    let rep_ref_s: Vec<f64> = reps
        .iter()
        .zip(&local)
        .map(|(r, p)| r.1 * (hostspeed::REFERENCE_SLICE_S / p).powf(k))
        .collect();
    let mut pass_ref_s = vec![0.0; pass_s.len()];
    for (r, s) in reps.iter().zip(&rep_ref_s) {
        pass_ref_s[r.0] += s;
    }
    let rep_ms: Vec<f64> = rep_ref_s.iter().map(|s| s * 1e3).collect();
    let (wall_s, p90, setup_s) = (median(&pass_ref_s), quantile(&rep_ms, 0.9), setups.median());
    let secs: Vec<f64> = reps.iter().map(|r| r.1).collect();
    let fitted = (failed == 0).then(|| hostspeed::elasticity(&secs, &local, plan.len()));

    println!(
        "{} seed {}: {} passes of {} replications ({} cells x {} reps)",
        w.name(),
        args.seed,
        pass_s.len(),
        plan.len(),
        plan.cfgs.len(),
        plan.reps
    );
    println!(
        "  host speed   probe slice median {:.1} us (q1 {:.1}, q3 {:.1}), reference {:.1} us: \
         timed metrics below are at the reference speed",
        median(&probes) * 1e6,
        quantile(&probes, 0.25) * 1e6,
        quantile(&probes, 0.75) * 1e6,
        hostspeed::REFERENCE_SLICE_S * 1e6
    );
    if let Some(e) = fitted {
        println!("  host exponent {k} used, {e:.2} fitted on this run's replications");
    }
    println!(
        "  wall_s       {wall_s:.4} s    median pass (q1 {:.4}, q3 {:.4})",
        quantile(&pass_ref_s, 0.25),
        quantile(&pass_ref_s, 0.75)
    );
    println!(
        "  rep_p90_ms   {p90:.2} ms   p90 of {} replications (median {:.2} ms)",
        rep_ms.len(),
        median(&rep_ms)
    );
    let passes: Vec<String> = pass_ref_s.iter().map(|s| format!("{s:.3}")).collect();
    println!("  passes       {} s", passes.join(" "));
    let raw: Vec<String> = pass_s.iter().map(|s| format!("{s:.3}")).collect();
    println!(
        "  raw passes   {} s host wall time, probe slices included",
        raw.join(" ")
    );
    println!("  peak_rss_mib {peak_rss_mib:.2} MiB");
    println!(
        "  setup_s      {setup_s:.4e} s median of {} batches of {} set-ups",
        setups.samples.len(),
        setups.batch
    );
    println!("  reps         {attempted} count");
    println!("  reps_failed  {failed} count");
    let values = [wall_s, p90, peak_rss_mib, setup_s];
    let metrics: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, v, u))
        .collect();
    print_result(failed == 0, attempted, failed, &metrics);
    Ok(failed == 0)
}

fn traced_run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let mut setups = SetupTimer::new(args)?;
    setups.time_slice()?;
    let (plan, open_s) = (setups.setup()?, setups.median());
    let mut expected = Expected::load(w, args.seed, &plan)?;
    let cost = Tracer::calibrate();
    let pool = WorkerPool::new(1);
    let start = Instant::now();
    let mut per_pass: Vec<Vec<f64>> = Vec::new();
    let mut cycle_s = Vec::new();
    let (mut traced_s, mut tracer_s) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    loop {
        let t = Instant::now();
        let (results, _) = bench::untraced_pass(&pool, &plan);
        let plain = digests_of(&results);
        let traced = bench::traced_pass(&pool, &plan, per_pass.is_empty());
        cycle_s.push(t.elapsed().as_secs_f64());
        attempted += 2 * plan.len() as u64;
        failed += expected.failures(&plain);
        // the mirror must reproduce Simulator::run bit for bit
        let diverged = traced
            .digests
            .iter()
            .zip(&plain)
            .filter(|(t, p)| t.is_none() || t != p)
            .count() as u64;
        if diverged > 0 {
            eprintln!(
                "error: the traced mirror diverged from Simulator::run on {diverged} replications"
            );
        }
        failed += diverged;
        if let Some(spans) = &traced.spans {
            write_spans(&args.work_dir, w, args.seed, spans)?;
        }
        let untraced_s: f64 = results.iter().flatten().map(|r| r.secs).sum();
        let spans: u64 = traced.aggs.iter().map(|a| a.count).sum();
        tracer_s.push(spans as f64 * (cost.inside_ns + cost.outside_ns) * 1e-9);
        traced_s.push(traced.secs);
        per_pass.push(layer_values(&traced, untraced_s, open_s, &cost));
        let elapsed = start.elapsed().as_secs_f64();
        if per_pass.len() >= MIN_TRACED && elapsed + median(&cycle_s) > args.seconds {
            break;
        }
    }
    drop(pool);
    println!(
        "{} seed {} traced: {} traced passes of {} replications, every one checked against Simulator::run",
        w.name(),
        args.seed,
        per_pass.len(),
        plan.len()
    );
    let metrics: Vec<(&str, f64, &str)> = PER_LAYER
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let v = median(&per_pass.iter().map(|p| p[i]).collect::<Vec<_>>());
            let moves: Vec<String> = m.moves.iter().map(|(e, w)| format!("{e}@{w}")).collect();
            println!(
                "  {:<26} {v:>16.6} {:<5} moves {}",
                m.name,
                m.unit,
                moves.join(" ")
            );
            (m.name, v, m.unit)
        })
        .collect();
    println!(
        "  tracer cost  {:.1} ns inside + {:.1} ns outside each span (calibrated), \
         about {:.3} s of {:.3} s traced per pass; taken out of core.self_s and core.pass_self_s",
        cost.inside_ns,
        cost.outside_ns,
        median(&tracer_s),
        median(&traced_s)
    );
    println!("  reps         {attempted} count");
    println!("  reps_failed  {failed} count");
    print_result(failed == 0, attempted, failed, &metrics);
    Ok(failed == 0)
}

/// The per-layer values of one traced pass, in `PER_LAYER` order.
fn layer_values(p: &bench::TracedPass, untraced_s: f64, open_s: f64, cost: &SpanCost) -> Vec<f64> {
    let s = |n: SpanName| p.aggs[n as usize].total_ns as f64 * 1e-9;
    let self_s = |n: SpanName| p.aggs[n as usize].self_ns(cost) * 1e-9;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let c = &p.counts;
    let values: [f64; PER_LAYER.len()] = [
        s(SpanName::WormnetStep),
        c.steps as f64,
        s(SpanName::WormnetStep) * 1e9 / c.steps.max(1) as f64,
        s(SpanName::WormnetSend),
        c.sends as f64,
        s(SpanName::WormnetDrain),
        s(SpanName::WormnetPattern),
        s(SpanName::WormnetSkippable),
        c.leaps as f64,
        c.cycles_skipped as f64,
        ratio(c.cycles_skipped, c.cycles_skipped + c.steps),
        s(SpanName::AllocAllocate),
        c.allocate_calls as f64,
        c.won as f64,
        ratio(c.won, c.allocate_calls),
        s(SpanName::AllocFeasible),
        c.feasible_rejects as f64,
        s(SpanName::AllocRelease),
        s(SpanName::SchedAttemptOrder),
        c.attempt_order_calls as f64,
        s(SpanName::SchedQueueOps),
        s(SpanName::SchedObserve),
        c.passes as f64,
        c.attempts as f64,
        c.memo_hits as f64,
        ratio(c.memo_hits, c.attempts),
        self_s(SpanName::CorePass),
        s(SpanName::DesimPop),
        c.pops as f64,
        s(SpanName::DesimSchedule),
        self_s(SpanName::CoreRep) + self_s(SpanName::CorePass),
        c.idle_jumps as f64,
        c.sim_cycles as f64,
        open_s,
        s(SpanName::WorkloadCursorOpen),
        s(SpanName::WorkloadNextJob),
        c.jobs as f64,
        p.secs / untraced_s,
    ];
    values.to_vec()
}

/// Writes the full span list of one replication as tab-separated text.
fn write_spans(dir: &Path, w: Workload, seed: u64, spans: &[spans::Span]) -> Result<(), String> {
    let path = dir.join(format!("spans_{}_seed{seed}.tsv", w.name()));
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    std::fs::create_dir_all(dir).map_err(io)?;
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path).map_err(io)?);
    writeln!(out, "id\tparent\tname\tstart_ns\tend_ns").map_err(io)?;
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{}\t{parent}\t{}\t{}\t{}",
            s.id,
            s.name.as_str(),
            s.start_ns,
            s.end_ns
        )
        .map_err(io)?;
    }
    out.flush().map_err(io)?;
    eprintln!(
        "wrote {} spans of replication 0 to {}",
        spans.len(),
        path.display()
    );
    Ok(())
}

/// Records reference digests for seeds `a..=b`, checking each pass
/// against the mirror before printing it.
fn record(args: &Args, a: u64, b: u64) -> Result<bool, String> {
    let w = args.workload;
    let pool = WorkerPool::new(1);
    println!(
        "# reference digests for {}: seed, then one digest per replication in pass order",
        w.name()
    );
    for seed in a..=b {
        let trace = w
            .generate_inputs(seed, &args.work_dir)
            .map_err(|e| format!("writing inputs: {e}"))?;
        let plan = setup(w, seed, trace.as_deref(), w.full_size())?;
        let (results, _) = bench::untraced_pass(&pool, &plan);
        let plain = digests_of(&results);
        let mirrored = bench::traced_pass(&pool, &plan, false);
        if plain.iter().any(Option::is_none) || mirrored.digests != plain {
            eprintln!("error: seed {seed}: a replication panicked or the mirror diverged");
            return Ok(false);
        }
        let d: Vec<u64> = plain.into_iter().flatten().collect();
        println!("{}", digest::reference_line(seed, &d));
    }
    Ok(true)
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Prints the result object as the last line of standard output.
fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// A finite JSON number with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::Size;

    fn work_dir() -> PathBuf {
        let exe = std::env::current_exe().expect("test binary path");
        exe.parent()
            .expect("test binary directory")
            .join("perfbench-test")
    }

    fn plan(w: Workload, seed: u64, size: Size) -> Plan {
        let trace = w
            .generate_inputs(seed, &work_dir())
            .expect("inputs written");
        setup(w, seed, trace.as_deref(), size).expect("set-up")
    }

    /// Short versions of every workload: the traced mirror reproduces
    /// Simulator::run bit for bit, on the default and the held-out seed.
    #[test]
    fn short_workloads_pass_the_mirror_check() {
        let pool = WorkerPool::new(1);
        let size = Size {
            warmup: 5,
            measured: 25,
            reps: 2,
        };
        for w in Workload::ALL {
            for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
                let p = plan(w, seed, size);
                let (results, _) = bench::untraced_pass(&pool, &p);
                let plain = digests_of(&results);
                assert!(
                    plain.iter().all(Option::is_some),
                    "{} seed {seed} panicked",
                    w.name()
                );
                let traced = bench::traced_pass(&pool, &p, true);
                assert_eq!(
                    traced.digests,
                    plain,
                    "{} seed {seed}: mirror diverged",
                    w.name()
                );
                assert!(traced.counts.jobs > 0 && traced.counts.passes > 0);
                let spans = traced.spans.expect("first replication's spans kept");
                assert_eq!(spans.iter().filter(|s| s.parent == NO_PARENT).count(), 1);
                // core.self_s adds up core's own spans only if no other
                // layer's span encloses a span
                let names: std::collections::HashMap<u32, SpanName> =
                    spans.iter().map(|s| (s.id, s.name)).collect();
                for s in spans.iter().filter(|s| !s.name.is_core()) {
                    assert!(names[&s.parent].is_core(), "{:?} nests", s.name);
                }
            }
        }
    }

    /// Full passes on the default and held-out seeds match the stored
    /// reference digests.
    #[test]
    fn full_passes_match_the_references() {
        let pool = WorkerPool::new(1);
        for w in Workload::ALL {
            for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
                let p = plan(w, seed, w.full_size());
                let mut expected = Expected::load(w, seed, &p).expect("reference readable");
                assert!(
                    expected.from_reference,
                    "{} seed {seed} has no reference",
                    w.name()
                );
                let (results, _) = bench::untraced_pass(&pool, &p);
                assert_eq!(
                    expected.failures(&digests_of(&results)),
                    0,
                    "{} seed {seed}",
                    w.name()
                );
            }
        }
    }

    /// A wrong digest or a panicked replication counts as a failure.
    #[test]
    fn mismatches_count_as_failures() {
        let mut e = Expected {
            digests: Some(vec![1, 2, 3]),
            from_reference: true,
        };
        assert_eq!(e.failures(&[Some(1), Some(2), Some(3)]), 0);
        assert_eq!(e.failures(&[Some(1), None, Some(4)]), 2);
    }

    #[test]
    fn json_numbers_keep_every_digit() {
        assert_eq!(json_number(1.0 / 3.0), "0.3333333333333333");
        assert_eq!(json_number(f64::NAN), "null");
    }
}
