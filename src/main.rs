//! `procsim` CLI — run a single configuration, a load sweep, or a trace
//! replay from the command line.
//!
//! ```text
//! procsim run   [--strategy gabl|paging0|mbs|ff|bf|random|mc]
//!               [--scheduler fcfs|ssd|sjf|ljf|easy|fcfs-window<N>]
//!               [--workload uniform|exponential|paragon|cm5]
//!               [--topology mesh|torus]
//!               [--load 0.0008] [--jobs 400] [--seed 42]
//!               [--reps N] [--threads N]
//! procsim sweep [same flags] --loads 0.0002,0.0004,0.0008
//! procsim trace <file.swf> [--load 0.7] [--strategy S|all] [--scheduler P]
//!               [--topology mesh|torus] [--scale 360] [--jobs N] [--reps R]
//!               [--seed K] [--csv PATH]
//! procsim gen-trace <out.swf> [--model paragon|cm5] [--jobs N] [--seed K]
//! procsim campaign <scenario.toml> [--cache DIR] [--csv PATH] [--force]
//!               [--dry-run] [--threads N]
//! ```
//!
//! Every simulating subcommand takes `--topology {mesh,torus}` (`--torus`
//! is a legacy alias for `--topology torus`): the same workload, strategy,
//! and seeds drive either network, so a mesh run and a torus run differ
//! only in the wraparound links and the dateline virtual channels — see
//! `docs/TOPOLOGIES.md`.
//!
//! `trace` replays an SWF archive file at a target **offered load**
//! (`--load 0.7` = the scaled trace occupies 70 % of machine capacity in
//! its own time domain; see `docs/WORKLOADS.md` for the math) and writes
//! one CSV row per (strategy, load) point.
//!
//! `main` builds the process's one worker pool and passes it to the
//! subcommand: `--threads N` sets its size, else the `PROCSIM_THREADS`
//! environment variable, else the machine's available parallelism. The
//! thread count never changes results, only wall-clock time.

use procsim::{
    cached_count, derive_seed, expand, pool, run_campaign, run_points, write_swf_to,
    CampaignOptions, Cm5Model, ParagonModel, PointResult, PointSettings, Scenario, SchedulerKind,
    SimConfig, SimRng, StopReason, StrategyKind, TopologyKind, TraceWorkload, WorkerPool,
    WorkloadSpec,
};
use procsim_core::scenario::{Value, WorkloadName};
use std::io::Write;
use std::sync::Arc;

/// One subcommand's command line: the flags that take a value, the
/// switches that take none, how many positional arguments it takes, and
/// the usage text printed by `procsim help` and with every usage error.
struct Cmd {
    name: &'static str,
    usage: &'static str,
    values: &'static [&'static str],
    switches: &'static [&'static str],
    positional: usize,
}

const COMMANDS: [Cmd; 5] = [
    Cmd {
        name: "run",
        usage: "procsim run   [--strategy S] [--scheduler P] [--workload W] [--load L]\n\
                \x20               [--topology T] [--jobs N] [--seed K] [--reps R] [--threads T]",
        values: &[
            "strategy", "scheduler", "workload", "topology", "load", "jobs", "seed", "reps",
            "threads",
        ],
        switches: &["torus"],
        positional: 0,
    },
    Cmd {
        name: "sweep",
        usage: "procsim sweep --loads a,b,c [run's flags except --load]",
        values: &[
            "loads", "strategy", "scheduler", "workload", "topology", "jobs", "seed", "reps",
            "threads",
        ],
        switches: &["torus"],
        positional: 0,
    },
    Cmd {
        name: "trace",
        usage: "procsim trace <file.swf> [--load RHO] [--strategy S|all] [--scheduler P]\n\
                \x20               [--topology T] [--scale S] [--jobs N] [--reps R] [--seed K]\n\
                \x20               [--csv PATH] [--threads T]",
        // `factor` is the retired spelling of `load`: accepted here only
        // so `run_trace` can say what replaced it
        values: &[
            "load", "strategy", "scheduler", "topology", "scale", "jobs", "reps", "seed", "csv",
            "threads", "factor",
        ],
        switches: &["torus"],
        positional: 1,
    },
    Cmd {
        name: "gen-trace",
        usage: "procsim gen-trace <out.swf> [--model paragon|cm5] [--jobs N] [--seed K]",
        values: &["model", "jobs", "seed"],
        switches: &[],
        positional: 1,
    },
    Cmd {
        name: "campaign",
        usage: "procsim campaign <scenario.toml> [--cache DIR] [--csv PATH] [--force]\n\
                \x20               [--dry-run] [--threads T]",
        values: &["cache", "csv", "threads"],
        switches: &["force", "dry-run"],
        positional: 1,
    },
];

/// A parsed command line, checked against its subcommand's [`Cmd`].
struct Args {
    cmd: &'static Cmd,
    map: std::collections::HashMap<String, String>,
    flags: Vec<String>,
    positional: Vec<String>,
}

impl Args {
    /// Exits 2 with `msg` and the subcommand's usage.
    fn usage_error(&self, msg: &str) -> ! {
        eprintln!("error: {msg}");
        eprintln!("usage:\n  {}", self.cmd.usage);
        eprintln!("run `procsim help` for the accepted values");
        std::process::exit(2)
    }

    /// The value of `--key` parsed as a number, or `default` when the
    /// flag is absent. A value that does not parse is a usage error.
    fn num<T>(&self, key: &str, default: T) -> T
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        match self.map.get(key) {
            None => default,
            Some(s) => s
                .parse()
                .unwrap_or_else(|e| self.usage_error(&format!("bad --{key} '{s}': {e}"))),
        }
    }

    /// [`Args::num`] for a count: one below `min` is a usage error, never
    /// silently clamped.
    fn count(&self, key: &str, default: usize, min: usize) -> usize {
        let n = self.num(key, default);
        if n < min {
            self.usage_error(&format!("--{key} must be at least {min}"));
        }
        n
    }
}

/// Parses `args` (the words after the subcommand) against `cmd`: a value
/// flag takes the next word, a switch takes none, and an unknown flag, a
/// missing or repeated value, or a stray positional word is a usage
/// error (exit 2), so a misspelled flag is never silently ignored.
fn parse_args(cmd: &'static Cmd, args: &[String]) -> Args {
    let mut a = Args {
        cmd,
        map: std::collections::HashMap::new(),
        flags: Vec::new(),
        positional: Vec::new(),
    };
    let mut words = args.iter();
    while let Some(word) = words.next() {
        let Some(key) = word.strip_prefix("--") else {
            if a.positional.len() == cmd.positional {
                a.usage_error(&format!("unexpected argument '{word}'"));
            }
            a.positional.push(word.clone());
            continue;
        };
        if cmd.switches.contains(&key) {
            a.flags.push(key.to_string());
        } else if cmd.values.contains(&key) {
            let value = match words.as_slice().first() {
                Some(v) if !v.starts_with("--") => v.clone(),
                _ => a.usage_error(&format!("--{key} needs a value")),
            };
            words.next();
            if a.map.insert(key.to_string(), value).is_some() {
                a.usage_error(&format!("--{key} given twice"));
            }
        } else {
            a.usage_error(&format!("unknown flag --{key} for `procsim {}`", cmd.name));
        }
    }
    a
}

fn strategy_of(name: &str) -> StrategyKind {
    // the scenario format and the CLI share one spelling (FromStr)
    name.parse().unwrap_or_else(|e: String| die(&e))
}

fn scheduler_of(name: &str) -> SchedulerKind {
    name.parse().unwrap_or_else(|e: String| die(&e))
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run `procsim help` for usage");
    std::process::exit(2)
}

/// Reads the run topology from `--topology mesh|torus` (or the legacy
/// `--torus` flag). The two spellings must agree if both appear.
fn topology_of(a: &Args) -> TopologyKind {
    let named = a
        .map
        .get("topology")
        .map(|s| s.parse::<TopologyKind>().unwrap_or_else(|e| die(&e)));
    let legacy_torus = a.flags.iter().any(|f| f == "torus");
    match (named, legacy_torus) {
        (Some(TopologyKind::Mesh), true) => {
            die("--topology mesh contradicts --torus (drop one)")
        }
        (Some(t), _) => t,
        (None, true) => TopologyKind::Torus,
        (None, false) => TopologyKind::Mesh,
    }
}

/// The `run` / `sweep` point at `load` (the built-in default load when
/// `None`): the CLI flags applied as scenario knobs onto the built-in
/// defaults, so the CLI and scenario files share one vocabulary and one
/// workload mapping.
fn point_config(a: &Args, load: Option<&str>) -> SimConfig {
    let mut settings = PointSettings::default();
    let mut set = |key: &str, v: Value| {
        settings
            .apply(key, &v, 0, &format!("--{key}"))
            .unwrap_or_else(|e| die(&format!("--{key}: {}", e.msg)))
    };
    for key in ["strategy", "scheduler", "workload"] {
        if let Some(name) = a.map.get(key) {
            set(key, Value::Str(name.clone()));
        }
    }
    if let Some(load) = load {
        let load = load.trim();
        set("load", Value::Float(load.parse().unwrap_or_else(|_| die(&format!("bad load '{load}'")))));
    }
    let jobs: i64 = a.num("jobs", 400);
    set("measured", Value::Int(jobs));
    set("warmup", Value::Int((jobs / 4).max(10)));
    if settings.workload == WorkloadName::Trace {
        die("--workload trace replays a file: use `procsim trace <file.swf>`");
    }
    settings.topology = topology_of(a);
    settings.sim_config(a.num("seed", 42), None)
}

fn print_result(p: &procsim::PointResult) {
    println!(
        "{:<18} load {:<9.5} turnaround {:>10.1} ±{:>7.1}  service {:>8.1}  util {:>5.3}  latency {:>7.1}  blocking {:>7.1}  [{} reps]",
        p.label,
        p.load,
        p.turnaround(),
        p.ci95[0],
        p.service(),
        p.utilization(),
        p.latency(),
        p.blocking(),
        p.replications
    );
}

/// Stable per-strategy substream index for [`derive_seed`] (FNV-1a over
/// the series label): a strategy's random streams are identical whether
/// it runs alone (`--strategy mbs`) or inside `--strategy all`, so
/// single-strategy runs reproduce the matching row of an all-strategies
/// CSV.
fn strategy_stream(label: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in label.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// `procsim trace <file.swf>`: replay an SWF trace at a target offered
/// load. Every (strategy) series is one experimental point; all points'
/// replications run as a single batch on `pool`, so the CSV is
/// bit-identical at any thread count.
///
/// The trace is opened **streaming** ([`TraceWorkload::open`]): one
/// validating pass computes the scaling statistics, and replay re-reads
/// the file lazily — memory stays bounded however long the trace is, so
/// `gen-trace`-produced million-job fixtures replay without swapping.
/// `--reps 1` runs a single replication per strategy (no confidence
/// intervals) — the stress-replay mode CI's smoke step uses.
fn run_trace(a: &Args, pool: &WorkerPool, reps: usize) {
    let path = a
        .positional
        .first()
        .unwrap_or_else(|| die("trace needs a .swf file path"));
    if a.map.contains_key("factor") {
        // the pre-offered-load flag; ignoring it silently would replay at
        // a different load than the caller asked for
        die(
            "--factor was replaced by --load (target offered load, e.g. 0.7); \
             a factor f corresponds to --load <native_load / f> — see docs/WORKLOADS.md",
        );
    }
    let load: f64 = a.num("load", 0.7);
    // `!(x > 0.0)` also rejects NaN, which `x <= 0.0` would let through
    if !(load > 0.0 && load.is_finite()) {
        die("--load must be a positive number (offered-load fraction, e.g. 0.7)");
    }
    let scale: f64 = a.num("scale", 360.0);
    if !(scale > 0.0 && scale.is_finite()) {
        die("--scale must be a positive number (seconds of runtime per message)");
    }
    let topology = topology_of(a);
    let strategies: Vec<StrategyKind> = match a.map.get("strategy").map(|s| s.as_str()) {
        None | Some("all") => StrategyKind::PAPER.to_vec(),
        Some(name) => vec![strategy_of(name)],
    };
    let scheduler = scheduler_of(a.map.get("scheduler").map(|s| s.as_str()).unwrap_or("fcfs"));
    let seed: u64 = a.num("seed", 42);
    let req_jobs = a.count("jobs", 400, 1);
    let trace = TraceWorkload::open(path).unwrap_or_else(|e| die(&e.to_string()));
    let (mesh_w, mesh_l) = procsim::PAPER_MESH;
    let machine = mesh_w as u32 * mesh_l as u32;
    println!("{}", trace.summary());
    println!(
        "native offered load: {:.3} (on {} processors)\n",
        trace.offered_load(machine),
        machine
    );

    let factor = trace.factor_for_offered_load(machine, load);
    println!(
        "replaying at offered load {load} on the {topology} \
         (arrival-scaling factor f = {factor:.4}, f < 1 compresses)\n"
    );

    // a replication only sees trace.len() arrivals (the segment wraps the
    // stream exactly once), so cap warmup + measurement to what the trace
    // can feed
    let req_warmup = (req_jobs / 4).max(10);
    let (warmup, jobs) = trace.capped_budget(req_warmup, req_jobs);
    if (warmup, jobs) != (req_warmup, req_jobs) {
        eprintln!(
            "warning: trace has only {} jobs; measuring {jobs} after {warmup} warmup",
            trace.len()
        );
    }

    let trace = Arc::new(trace);
    let cfgs: Vec<SimConfig> = strategies
        .iter()
        .map(|&strategy| {
            let mut cfg = SimConfig::paper(
                strategy,
                scheduler,
                WorkloadSpec::Trace {
                    trace: trace.clone(),
                    load,
                    runtime_scale: scale,
                },
                derive_seed(seed, strategy_stream(&strategy.to_string())),
            );
            // same seed on either topology: a mesh and a torus replay of
            // one strategy see identical job streams (paired comparison)
            cfg.topology = topology;
            cfg.measured_jobs = jobs;
            cfg.warmup_jobs = warmup;
            cfg
        })
        .collect();
    // one batch: every strategy's replications share the worker pool
    let points: Vec<PointResult> = if reps == 1 {
        eprintln!("note: --reps 1 runs one replication per strategy (no confidence intervals)");
        cfgs.iter()
            .map(|cfg| {
                let m = procsim::Simulator::new(cfg, 0).run();
                PointResult {
                    label: cfg.series_label(),
                    load: cfg.workload.load(),
                    replications: 1,
                    stop: StopReason::Budget,
                    means: m.response_vector(),
                    ci95: [0.0; 6],
                }
            })
            .collect()
    } else {
        run_points(pool, &cfgs, reps, reps * 2)
    };
    for p in &points {
        print_result(p);
    }

    let stem = std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "trace".into());
    let csv_path = a
        .map
        .get("csv")
        .cloned()
        .unwrap_or_else(|| format!("results/trace_{stem}.csv"));
    match write_trace_csv(&csv_path, &stem, topology, factor, &points) {
        Ok(()) => eprintln!("wrote {csv_path}"),
        Err(e) => die(&format!("cannot write {csv_path}: {e}")),
    }
}

/// Writes the trace-replay CSV: one row per (series, load) point, full
/// float precision (shortest round-trip representation), so files diff
/// cleanly across runs and thread counts.
fn write_trace_csv(
    path: &str,
    trace_name: &str,
    topology: TopologyKind,
    factor: f64,
    points: &[PointResult],
) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(
        f,
        "trace,series,topology,load,factor,reps,turnaround,service,utilization,blocking,latency,\
         fragments,ci_turnaround,ci_service,ci_utilization,ci_blocking,ci_latency,ci_fragments"
    )?;
    for p in points {
        write!(
            f,
            "{},{},{},{},{},{}",
            trace_name, p.label, topology, p.load, factor, p.replications
        )?;
        for m in p.means {
            write!(f, ",{m}")?;
        }
        for c in p.ci95 {
            write!(f, ",{c}")?;
        }
        writeln!(f)?;
    }
    Ok(())
}

/// `procsim gen-trace <out.swf>`: write a synthetic SWF fixture (the
/// generator behind the checked-in sample; use larger `--jobs` for
/// stress fixtures — the model streams straight to the file, so a
/// million-job fixture is generated in O(1) memory).
fn run_gen_trace(a: &Args) {
    let out = a
        .positional
        .first()
        .unwrap_or_else(|| die("gen-trace needs an output .swf path"));
    let model = a.map.get("model").map(|s| s.as_str()).unwrap_or("paragon");
    // checked before the output file is created, so a bad model leaves it intact
    let paragon = match model {
        "paragon" => true,
        "cm5" => false,
        other => die(&format!("unknown model '{other}' (paragon or cm5)")),
    };
    // a trace needs at least one inter-arrival time
    let jobs = a.count("jobs", 600, 2);
    let seed: u64 = a.num("seed", 2008);
    if let Some(dir) = std::path::Path::new(out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).unwrap_or_else(|e| die(&format!("mkdir: {e}")));
        }
    }
    let mut rng = SimRng::new(seed);
    let file =
        std::fs::File::create(out).unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
    let mut w = std::io::BufWriter::new(file);
    let written = (|| -> std::io::Result<usize> {
        write!(
            w,
            "; procsim synthetic SWF fixture (public domain: generated data, no production-log content)\n\
             ; regenerate with: procsim gen-trace {out} --model {model} --jobs {jobs} --seed {seed}\n"
        )?;
        let n = if paragon {
            write_swf_to(&mut w, ParagonModel { jobs, ..Default::default() }.stream(&mut rng))?
        } else {
            write_swf_to(&mut w, Cm5Model { jobs, ..Default::default() }.stream(&mut rng))?
        };
        w.flush()?;
        Ok(n)
    })()
    .unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
    assert_eq!(written, jobs);
    // re-open streaming: validates the file end-to-end and reports the
    // native load without holding the records
    let trace = TraceWorkload::open(out).expect("generated trace must parse");
    let (mesh_w, mesh_l) = procsim::PAPER_MESH;
    println!(
        "wrote {out}: {} jobs ({model} model, seed {seed}), native offered load {:.3} on {mesh_w}x{mesh_l}",
        trace.len(),
        trace.offered_load(mesh_w as u32 * mesh_l as u32)
    );
}

/// `procsim campaign <scenario.toml>`: expand a declarative scenario
/// into its cross-product of points, serve what the on-disk cache
/// already has, run the rest on `pool`, and merge everything into one
/// CSV. Interrupt it freely: a rerun resumes from the cache and the
/// merged CSV is byte-identical to an uninterrupted run at any thread
/// count (see `docs/CAMPAIGNS.md`).
fn run_campaign_cmd(a: &Args, pool: &WorkerPool) {
    let path = a
        .positional
        .first()
        .unwrap_or_else(|| die("campaign needs a scenario file path"));
    let scenario =
        Scenario::load(std::path::Path::new(path)).unwrap_or_else(|e| die(&e.to_string()));
    let points = expand(&scenario).unwrap_or_else(|e| die(&e.to_string()));
    let force = a.flags.iter().any(|f| f == "force");
    let dry_run = a.flags.iter().any(|f| f == "dry-run");
    let cache_dir = std::path::PathBuf::from(
        a.map
            .get("cache")
            .cloned()
            .unwrap_or_else(|| format!("results/campaign_cache/{}", scenario.name)),
    );
    let csv_path = a
        .map
        .get("csv")
        .cloned()
        .or_else(|| scenario.output.csv.clone())
        .unwrap_or_else(|| format!("results/campaign_{}.csv", scenario.name));

    let cached = if force {
        0
    } else {
        cached_count(&points, &cache_dir)
    };
    println!(
        "campaign '{}': {} points ({} cached, {} to run{})",
        scenario.name,
        points.len(),
        cached,
        points.len() - cached,
        if force { ", --force" } else { "" }
    );

    if dry_run {
        for p in &points {
            println!(
                "  [{:>3}] {}({}) {} load {} seed {:#x} hash {}",
                p.index,
                p.settings.strategy,
                p.settings.scheduler,
                p.settings.workload.name(),
                p.settings.load,
                p.seed,
                p.hash
            );
        }
        return;
    }

    let opts = CampaignOptions { cache_dir, force };
    let outcome =
        run_campaign(pool, &scenario, &points, &opts).unwrap_or_else(|e| die(&e.to_string()));
    if let Some(dir) = std::path::Path::new(&csv_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| die(&format!("cannot create {}: {e}", dir.display())));
        }
    }
    std::fs::write(&csv_path, &outcome.csv)
        .unwrap_or_else(|e| die(&format!("cannot write {csv_path}: {e}")));
    println!(
        "wrote {csv_path} ({} executed, {} cached)",
        outcome.executed, outcome.cached
    );
}

fn print_help() {
    println!("procsim — 2D mesh processor allocation & scheduling simulator");
    println!("(IPDPS 2008 reproduction; see README.md)\n");
    println!("usage:");
    for cmd in &COMMANDS {
        println!("  {}", cmd.usage);
    }
    println!();
    println!("campaign runs a declarative scenario file (see docs/CAMPAIGNS.md and");
    println!("scenarios/): the cross-product of its matrix, cached per point on disk,");
    println!("so interrupted or extended campaigns resume by rerunning only what's");
    println!("missing — output is byte-identical at any thread count.");
    println!();
    println!("strategies: gabl paging0..paging3 mbs ff bf random mc");
    println!("            (paging<k>-shuffled, -snake, -shuffled-snake: page indexing)");
    println!("schedulers: fcfs ssd sjf ljf easy fcfs-window<N>");
    println!("workloads:  uniform exponential paragon cm5");
    println!("topologies: mesh torus   (--torus = legacy alias; docs/TOPOLOGIES.md)");
    println!();
    println!("trace --load is the target offered load (fraction of machine capacity");
    println!("in trace time, e.g. 0.7); see docs/WORKLOADS.md for the scaling math.");
    println!("traces replay as a streaming pipeline (bounded memory, any length);");
    println!("--reps 1 runs one replication per strategy (stress mode, no CIs)");
    println!();
    println!("replications run on one worker pool; size it with --threads N");
    println!("or PROCSIM_THREADS=N (results are identical for any thread count)");
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let name = argv.first().map(|s| s.as_str()).unwrap_or("help");
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        if matches!(name, "help" | "--help" | "-h") {
            print_help();
            return;
        }
        die(&format!("unknown command '{name}'"));
    };
    let a = parse_args(cmd, &argv[1..]);
    if cmd.name == "gen-trace" {
        return run_gen_trace(&a); // writes a file; simulates nothing
    }
    let reps = a.count("reps", 3, 1);
    let pool = WorkerPool::new(a.count("threads", pool::default_threads(), 1));

    match cmd.name {
        "run" | "sweep" => {
            // `run` has no --loads flag; `sweep` has no --load flag
            let loads: Vec<Option<&str>> = match a.map.get("loads") {
                Some(loads) => loads.split(',').map(Some).collect(),
                None if cmd.name == "run" => vec![a.map.get("load").map(String::as_str)],
                None => a.usage_error("sweep needs --loads a,b,c"),
            };
            // one batch: every load's replications share the worker pool
            let cfgs: Vec<SimConfig> = loads.into_iter().map(|l| point_config(&a, l)).collect();
            let reps = reps.max(2);
            for p in run_points(&pool, &cfgs, reps, reps * 2) {
                print_result(&p);
            }
        }
        "trace" => run_trace(&a, &pool, reps),
        _ => run_campaign_cmd(&a, &pool),
    }
}
