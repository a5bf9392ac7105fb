//! `procsim` CLI — run a single configuration, a load sweep, or a trace
//! replay from the command line.
//!
//! `procsim help` prints every subcommand's flags (the `COMMANDS` table).
//!
//! Every simulating subcommand takes `--topology {mesh,torus}`: the same
//! workload, strategy, and seeds drive either network, so a mesh run and
//! a torus run differ only in the wraparound links and the dateline
//! virtual channels — see `docs/TOPOLOGIES.md`.
//!
//! `run`, `sweep` and `trace` apply their flags as scenario knobs
//! ([`PointSettings`], the vocabulary of scenario files) and run their
//! points as one batch on the worker pool; `--reps 1` runs a single
//! replication per point, with no confidence intervals.
//!
//! `trace` replays an SWF archive file at a target **offered load**
//! (`--load 0.7` = the scaled trace occupies 70 % of machine capacity in
//! its own time domain; see `docs/WORKLOADS.md` for the math) and writes
//! one CSV row per (strategy, load) point through the campaign's CSV
//! renderer.
//!
//! `main` builds the process's one worker pool and passes it to the
//! subcommand: `--threads N` sets its size, else the `PROCSIM_THREADS`
//! environment variable, else the machine's available parallelism. The
//! thread count never changes results, only wall-clock time.

use procsim::{
    cached_count, derive_seed, expand, pool, run_campaign, run_points, write_swf_to,
    CampaignOptions, Cm5Model, ParagonModel, PointResult, PointSettings, Scenario, SimConfig,
    SimRng, StrategyKind, TraceWorkload, WorkerPool,
};
use procsim_core::campaign::{fnv1a, render_csv};
use procsim_core::scenario::{OutputSpec, Value, WorkloadName};
use std::io::Write;
use std::sync::Arc;

/// Writes one line to stdout (`out!`) or stderr (`err!`). A failed write
/// (say, a reader that closed the pipe early) ends the process with exit
/// 2, never a panic; a failed stderr write leaves nowhere to report it.
macro_rules! out {
    ($($arg:tt)*) => {
        if let Err(e) = writeln!(std::io::stdout(), $($arg)*) {
            die(&format!("cannot write to stdout: {e}"))
        }
    };
}
macro_rules! err {
    ($($arg:tt)*) => {
        if writeln!(std::io::stderr(), $($arg)*).is_err() {
            std::process::exit(2)
        }
    };
}

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
            "strategy",
            "scheduler",
            "workload",
            "topology",
            "load",
            "jobs",
            "seed",
            "reps",
            "threads",
        ],
        switches: &[],
        positional: 0,
    },
    Cmd {
        name: "sweep",
        usage: "procsim sweep --loads a,b,c [run's flags except --load]",
        values: &[
            "loads",
            "strategy",
            "scheduler",
            "workload",
            "topology",
            "jobs",
            "seed",
            "reps",
            "threads",
        ],
        switches: &[],
        positional: 0,
    },
    Cmd {
        name: "trace",
        usage: "procsim trace <file.swf> [--load RHO] [--strategy S|all] [--scheduler P]\n\
                \x20               [--topology T] [--scale S] [--jobs N] [--reps R] [--seed K]\n\
                \x20               [--csv PATH] [--threads T]",
        values: &[
            "load",
            "strategy",
            "scheduler",
            "topology",
            "scale",
            "jobs",
            "reps",
            "seed",
            "csv",
            "threads",
        ],
        switches: &[],
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
        let hint = "run `procsim help` for the accepted values";
        die(&format!("{msg}\nusage:\n  {}\n{hint}", self.cmd.usage))
    }

    /// The positional file argument; its absence is a usage error.
    fn file(&self, what: &str) -> &String {
        let missing = || self.usage_error(&format!("{} needs {what}", self.cmd.name));
        self.positional.first().unwrap_or_else(missing)
    }

    /// `s`, the value of `--key`, parsed as a number; a value that does
    /// not parse is a usage error.
    fn parse<T>(&self, key: &str, s: &str) -> T
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        s.parse()
            .unwrap_or_else(|e| self.usage_error(&format!("bad --{key} '{s}': {e}")))
    }

    /// The value of `--key` parsed as a number, or `default` when the
    /// flag is absent.
    fn num<T>(&self, key: &str, default: T) -> T
    where
        T: std::str::FromStr,
        T::Err: std::fmt::Display,
    {
        self.map.get(key).map_or(default, |s| self.parse(key, s))
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

    /// Applies `value` to the scenario knob `key` of `point`; a value the
    /// knob refuses is a usage error naming `--{flag}`, the flag typed.
    fn set(&self, point: &mut PointSettings, flag: &str, key: &str, value: Value) {
        if let Err(e) = point.apply(key, &value, 0, key) {
            self.usage_error(&format!("--{flag}: {}", e.msg));
        }
    }

    /// One point per value of the knob `key` (typed as `--{flag}`): each
    /// `base` with that value, as a scenario's matrix axis would make.
    fn axis(
        &self,
        base: &PointSettings,
        flag: &str,
        key: &str,
        values: Vec<Value>,
    ) -> Vec<PointSettings> {
        let point = |value| {
            let mut point = base.clone();
            self.set(&mut point, flag, key, value);
            point
        };
        values.into_iter().map(point).collect()
    }

    /// The built-in point with the `knobs` flags given applied as the
    /// scenario knobs of the same name (so the CLI and scenario files
    /// share one vocabulary and one workload mapping), measuring
    /// `--jobs N` jobs after `max(N/4, 10)` warmup.
    fn point(&self, knobs: &[&str]) -> PointSettings {
        let mut point = PointSettings::default();
        for &key in knobs {
            if let Some(name) = self.map.get(key) {
                self.set(&mut point, key, key, Value::Str(name.clone()));
            }
        }
        point.measured = self.count("jobs", 400, 1);
        point.warmup = (point.measured / 4).max(10);
        point
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

/// Exits 2 with `error: msg`; only [`Args::usage_error`] adds the usage.
fn die(msg: &str) -> ! {
    err!("error: {msg}");
    std::process::exit(2)
}

/// Writes `text` to the file `path`, creating its directory first.
fn write_csv(path: &str, text: &str) {
    create_parent(path)
        .and_then(|()| std::fs::write(path, text))
        .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
}

/// Creates the directory `path` is in, if it names one.
fn create_parent(path: &str) -> std::io::Result<()> {
    match std::path::Path::new(path).parent() {
        Some(dir) if !dir.as_os_str().is_empty() => std::fs::create_dir_all(dir),
        _ => Ok(()),
    }
}

fn print_result(p: &PointResult) {
    out!(
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

/// Runs every point's replications as one batch on `pool` and prints one
/// line per point: `reps` to `2 × reps` replications each, until the
/// paper's precision holds, or with `--reps 1` a single replication per
/// point and no confidence intervals. A failed replication exits 2
/// before anything is printed or written.
fn run_batch(pool: &WorkerPool, cfgs: Vec<SimConfig>, reps: usize) -> Vec<PointResult> {
    let reps = if reps == 1 {
        err!("note: --reps 1 runs one replication per point (no confidence intervals)");
        1..=1
    } else {
        reps..=reps * 2
    };
    let batch: Vec<_> = cfgs.into_iter().map(|cfg| (cfg, reps.clone())).collect();
    let points: Vec<PointResult> = run_points(pool, &batch)
        .into_iter()
        .map(|p| p.unwrap_or_else(|e| die(&e)))
        .collect();
    for p in &points {
        print_result(p);
    }
    points
}

/// `procsim run` / `procsim sweep`: one point per load, each the
/// command line's knobs at that load.
fn run_sweep(a: &Args, pool: &WorkerPool, reps: usize) {
    let base = a.point(&["strategy", "scheduler", "workload", "topology"]);
    if base.workload == WorkloadName::Trace {
        a.usage_error("--workload trace replays a file: use `procsim trace <file.swf>`");
    }
    // `run` has no --loads flag; `sweep` has no --load flag
    let (flag, loads): (&str, Vec<f64>) = match a.map.get("loads") {
        Some(l) => (
            "loads",
            l.split(',').map(|l| a.parse("loads", l.trim())).collect(),
        ),
        None if a.cmd.name == "run" => ("load", vec![a.num("load", base.load)]),
        None => a.usage_error("sweep needs --loads a,b,c"),
    };
    let loads = loads.into_iter().map(Value::Float).collect();
    let points = a.axis(&base, flag, "load", loads);
    let seed = a.num("seed", 42);
    let cfgs = points.iter().map(|p| p.sim_config(seed, None)).collect();
    run_batch(pool, cfgs, reps);
}

/// `procsim trace <file.swf>`: replay an SWF trace at a target offered
/// load. Every strategy is one point of the `trace` workload; all points'
/// replications run as a single batch on `pool`, so the CSV is
/// bit-identical at any thread count. Each strategy's seed derives from
/// its name, so its random streams are identical whether it runs alone
/// (`--strategy mbs`) or inside `--strategy all`.
///
/// The trace is opened **streaming** ([`TraceWorkload::open`]): one
/// validating pass computes the scaling statistics, and replay re-reads
/// the file lazily — memory stays bounded however long the trace is, so
/// `gen-trace`-produced million-job fixtures replay without swapping.
fn run_trace(a: &Args, pool: &WorkerPool, reps: usize) {
    let path = a.file("a .swf file path");
    let mut base = a.point(&["scheduler", "topology"]);
    base.workload = WorkloadName::Trace;
    base.trace = Some(path.clone());
    a.set(&mut base, "load", "load", Value::Float(a.num("load", 0.7)));
    let scale = a.num("scale", base.runtime_scale);
    a.set(&mut base, "scale", "runtime_scale", Value::Float(scale));
    let strategies = match a.map.get("strategy") {
        Some(name) if name != "all" => vec![Value::Str(name.clone())],
        _ => StrategyKind::PAPER
            .iter()
            .map(|s| Value::Str(s.spelling()))
            .collect(),
    };
    let points = a.axis(&base, "strategy", "strategy", strategies);
    let seed: u64 = a.num("seed", 42);

    let trace = TraceWorkload::open(path).unwrap_or_else(|e| die(&e.to_string()));
    let machine = u32::from(base.mesh_w) * u32::from(base.mesh_l);
    out!("{}", trace.summary());
    out!(
        "native offered load: {:.3} (on {machine} processors)\n",
        trace.offered_load(machine)
    );
    let factor = trace.factor_for_offered_load(machine, base.load);
    out!(
        "replaying at offered load {} on the {} \
         (arrival-scaling factor f = {factor:.4}, f < 1 compresses)\n",
        base.load,
        base.topology
    );

    // same seed on either topology: a mesh and a torus replay of one
    // strategy see identical job streams (paired comparison)
    let trace = Arc::new(trace);
    let cfgs: Vec<SimConfig> = points
        .iter()
        .map(|p| {
            let stream = fnv1a(p.strategy.to_string().as_bytes());
            p.sim_config(derive_seed(seed, stream), Some(&trace))
        })
        .collect();
    // a replication only sees trace.len() arrivals, so sim_config caps
    // warmup + measurement to what the trace can feed
    let (warmup, jobs) = (cfgs[0].warmup_jobs, cfgs[0].measured_jobs);
    if (warmup, jobs) != (base.warmup, base.measured) {
        err!(
            "warning: trace has only {} jobs; measuring {jobs} after {warmup} warmup",
            trace.len()
        );
    }
    let results = run_batch(pool, cfgs, reps);

    let stem = std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "trace".into());
    let columns = [
        "trace", "series", "topology", "load", "factor", "reps", "means", "cis",
    ];
    let layout = OutputSpec {
        columns: columns.map(String::from).to_vec(),
        values: vec![
            ("trace".into(), stem.clone()),
            ("factor".into(), factor.to_string()),
        ],
        csv: None,
    };
    let csv =
        render_csv(&layout, points.iter().zip(&results)).unwrap_or_else(|e| die(&e.to_string()));
    let csv_path = a
        .map
        .get("csv")
        .cloned()
        .unwrap_or_else(|| format!("results/trace_{stem}.csv"));
    write_csv(&csv_path, &csv);
    err!("wrote {csv_path}");
}

/// `procsim gen-trace <out.swf>`: write a synthetic SWF fixture (the
/// generator behind the checked-in sample; use larger `--jobs` for
/// stress fixtures — the model streams straight to the file, so a
/// million-job fixture is generated in O(1) memory).
fn run_gen_trace(a: &Args) {
    let out = a.file("an output .swf path");
    let model = a.map.get("model").map(|s| s.as_str()).unwrap_or("paragon");
    // checked before the output file is created, so a bad model leaves it intact
    let paragon = match model {
        "paragon" => true,
        "cm5" => false,
        other => a.usage_error(&format!("unknown model '{other}' (paragon or cm5)")),
    };
    // a trace needs at least one inter-arrival time
    let jobs = a.count("jobs", 600, 2);
    let seed: u64 = a.num("seed", 2008);
    create_parent(out).unwrap_or_else(|e| die(&format!("mkdir: {e}")));
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
    out!(
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
    let path = a.file("a scenario file path");
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
    out!(
        "campaign '{}': {} points ({} cached, {} to run{})",
        scenario.name,
        points.len(),
        cached,
        points.len() - cached,
        if force { ", --force" } else { "" }
    );

    if dry_run {
        for p in &points {
            out!(
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
    write_csv(&csv_path, &outcome.csv);
    out!(
        "wrote {csv_path} ({} executed, {} cached)",
        outcome.executed,
        outcome.cached
    );
}

fn print_help() {
    out!("procsim — 2D mesh processor allocation & scheduling simulator");
    out!("(IPDPS 2008 reproduction; see README.md)\n");
    out!("usage:");
    for cmd in &COMMANDS {
        out!("  {}", cmd.usage);
    }
    out!();
    out!("campaign runs a declarative scenario file (see docs/CAMPAIGNS.md and");
    out!("scenarios/): the cross-product of its matrix, cached per point on disk,");
    out!("so interrupted or extended campaigns resume by rerunning only what's");
    out!("missing — output is byte-identical at any thread count.");
    out!();
    out!("strategies: gabl paging0..paging3 mbs ff bf random mc");
    out!("            (paging<k>-shuffled, -snake, -shuffled-snake: page indexing)");
    out!("schedulers: fcfs ssd sjf ljf easy fcfs-window<N>");
    out!("workloads:  uniform exponential paragon cm5");
    out!("topologies: mesh torus   (docs/TOPOLOGIES.md)");
    out!();
    out!("trace --load is the target offered load (fraction of machine capacity");
    out!("in trace time, e.g. 0.7); see docs/WORKLOADS.md for the scaling math.");
    out!("traces replay as a streaming pipeline (bounded memory, any length).");
    out!("run, sweep and trace: --reps 1 runs one replication per point");
    out!("(stress mode, no confidence intervals)");
    out!();
    out!("replications run on one worker pool; size it with --threads N");
    out!("or PROCSIM_THREADS=N (results are identical for any thread count)");
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let name = argv.first().map(|s| s.as_str()).unwrap_or("help");
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        if matches!(name, "help" | "--help" | "-h") {
            print_help();
            return;
        }
        die(&format!("unknown command '{name}' (see `procsim help`)"));
    };
    let a = parse_args(cmd, &argv[1..]);
    if cmd.name == "gen-trace" {
        return run_gen_trace(&a); // writes a file; simulates nothing
    }
    // pool workers (`procsim-worker-<i>`) run only replications, whose
    // panics come back from `run_points` as their point's error and are
    // reported as one; a panic anywhere else keeps its report
    let report = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| match std::thread::current().name() {
        Some(name) if name.starts_with("procsim-worker") => {}
        _ => report(info),
    }));
    let reps = a.count("reps", 3, 1);
    let pool = WorkerPool::new(a.count("threads", pool::default_threads(), 1));

    match cmd.name {
        "run" | "sweep" => run_sweep(&a, &pool, reps),
        "trace" => run_trace(&a, &pool, reps),
        _ => run_campaign_cmd(&a, &pool),
    }
}
