//! The benchmark's workloads: what one pass simulates, and the set-up a
//! user pays before the first pass.
//!
//! A pass is a workload's fixed simulated work: every cell (strategy ×
//! scheduler) × every replication. Inputs derive from the workload seed
//! only; the library receives the generated configs and trace.

use desim::SimRng;
use procsim_core::{
    derive_seed, ParagonModel, SchedulerKind, SideDist, SimConfig, StrategyKind, TraceWorkload,
    WorkloadSpec,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use wormnet::{Pattern, TopologyKind};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's §5 stochastic workload on the 16×22 mesh.
    PaperMesh,
    /// The same stochastic workload on the 16×22 torus.
    PaperTorus,
    /// Streaming replay of a Paragon-model SWF trace on the 16×22 torus.
    SwfTorus,
    /// Communication-light overload with a deep queue.
    DeepQueue,
}

/// How big a pass is: jobs per replication and replications per cell.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Warmup jobs per replication.
    pub warmup: usize,
    /// Measured jobs per replication.
    pub measured: usize,
    /// Replications per cell.
    pub reps: u64,
}

/// Jobs in the generated SWF trace: the length of the SDSC Paragon log
/// the model reproduces.
const TRACE_JOBS: usize = 10_658;

/// Seconds of trace runtime per message: ten times the program's 360
/// (`figures::TRACE_RUNTIME_SCALE`). At 360 the log's runtime tail
/// (lognormal, sigma 1.6) makes one job per trace hold hundreds of
/// thousands of messages, which all exist at once when it starts: peak
/// memory then follows the seed's largest job (4.2 to 5.4 MiB over seeds
/// 1–7, a spread wider than any bound the benchmark could keep).
/// paper_torus weights the torus network at the paper's message rate.
const RUNTIME_SCALE: f64 = 3600.0;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::PaperMesh,
        Workload::PaperTorus,
        Workload::SwfTorus,
        Workload::DeepQueue,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMesh => "paper_mesh",
            Workload::PaperTorus => "paper_torus",
            Workload::SwfTorus => "swf_torus",
            Workload::DeepQueue => "deep_queue",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The size of a timed pass.
    pub fn full_size(self) -> Size {
        match self {
            Workload::PaperMesh => Size {
                warmup: 10,
                measured: 30,
                reps: 16,
            },
            Workload::PaperTorus => Size {
                warmup: 10,
                measured: 30,
                reps: 24,
            },
            // 3 × 47 segments of 75 jobs: 10,575 of the trace's 10,658
            Workload::SwfTorus => Size {
                warmup: 15,
                measured: 60,
                reps: 47,
            },
            Workload::DeepQueue => Size {
                warmup: 50,
                measured: 700,
                reps: 32,
            },
        }
    }

    /// How strongly this workload's replication times follow the host-speed
    /// probe: a replication's time is scaled by `(reference / probe)^k`.
    /// The probe is one small loop; when the host is busy, a workload that
    /// runs through more of the program's code slows more than it does.
    /// Fitted on the baseline host (README, "Host-speed correction").
    pub fn host_exponent(self) -> f64 {
        match self {
            Workload::PaperMesh => 1.2,
            Workload::PaperTorus => 1.1,
            Workload::SwfTorus => 1.3,
            Workload::DeepQueue => 1.6,
        }
    }

    /// The cells of a pass, in pass order: `(strategy, scheduler)`.
    pub fn cells(self) -> Vec<(StrategyKind, SchedulerKind)> {
        let paper = StrategyKind::PAPER;
        match self {
            Workload::PaperMesh => SchedulerKind::PAPER
                .iter()
                .flat_map(|&sc| paper.iter().map(move |&st| (st, sc)))
                .collect(),
            Workload::PaperTorus | Workload::SwfTorus => {
                paper.iter().map(|&st| (st, SchedulerKind::Fcfs)).collect()
            }
            Workload::DeepQueue => vec![
                (StrategyKind::FirstFit, SchedulerKind::Fcfs),
                (StrategyKind::BestFit, SchedulerKind::FcfsWindow(8)),
                (StrategyKind::FirstFit, SchedulerKind::EasyBackfill),
                (StrategyKind::Gabl, SchedulerKind::Ssd),
            ],
        }
    }

    /// Writes the workload's input files (only swf_torus has one) under
    /// `work_dir` and returns the trace path. Not part of set-up time:
    /// a user brings the trace, the benchmark has to make one.
    pub fn generate_inputs(self, seed: u64, work_dir: &Path) -> std::io::Result<Option<PathBuf>> {
        if self != Workload::SwfTorus {
            return Ok(None);
        }
        std::fs::create_dir_all(work_dir)?;
        let path = work_dir.join(format!("paragon_seed{seed}.swf"));
        let model = ParagonModel {
            jobs: TRACE_JOBS,
            ..ParagonModel::default()
        };
        let mut rng = SimRng::new(seed);
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        workload::write_swf_to(&mut out, model.stream(&mut rng))?;
        std::io::Write::flush(&mut out)?;
        Ok(Some(path))
    }
}

/// Everything a pass needs, made by [`setup`].
pub struct Plan {
    /// One config per cell, in pass order.
    pub cfgs: Vec<SimConfig>,
    /// Replications per cell.
    pub reps: u64,
}

impl Plan {
    /// `(cell, rep)` for every replication of a pass, in pass order.
    /// Replication numbers are unique across the pass: a trace replay
    /// starts at a segment chosen by the replication number, so on
    /// swf_torus no two replications replay the same jobs.
    pub fn replications(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        (0..self.cfgs.len()).flat_map(move |c| {
            let first = c as u64 * self.reps;
            (first..first + self.reps).map(move |r| (c, r))
        })
    }

    /// Replications per pass.
    pub fn len(&self) -> usize {
        self.cfgs.len() * self.reps as usize
    }
}

/// The set-up a user pays on every run before the first replication:
/// open and validate the trace, if any, and build every cell's config.
/// Each replication builds its own simulator, so that cost is in the
/// passes.
pub fn setup(w: Workload, seed: u64, trace: Option<&Path>, size: Size) -> Result<Plan, String> {
    let opened = match trace {
        Some(p) => Some(Arc::new(
            TraceWorkload::open(p).map_err(|e| format!("{}: {e}", p.display()))?,
        )),
        None => None,
    };
    let cfgs: Vec<SimConfig> = w
        .cells()
        .into_iter()
        .enumerate()
        .map(|(i, (strategy, scheduler))| {
            let spec = match w {
                Workload::PaperMesh | Workload::PaperTorus => WorkloadSpec::Stochastic {
                    sides: SideDist::Uniform,
                    load: 0.004,
                    num_mes: 5.0,
                },
                Workload::SwfTorus => WorkloadSpec::Trace {
                    trace: opened.clone().expect("swf_torus has a trace"),
                    load: 0.7,
                    runtime_scale: RUNTIME_SCALE,
                },
                Workload::DeepQueue => WorkloadSpec::Stochastic {
                    sides: SideDist::Uniform,
                    load: 0.05,
                    num_mes: 0.5,
                },
            };
            let mut cfg = SimConfig::paper(strategy, scheduler, spec, derive_seed(seed, i as u64));
            if matches!(w, Workload::PaperTorus | Workload::SwfTorus) {
                cfg.topology = TopologyKind::Torus;
            }
            if w == Workload::DeepQueue {
                cfg.pattern = Pattern::OneToAll;
            }
            cfg.warmup_jobs = size.warmup;
            cfg.measured_jobs = size.measured;
            cfg
        })
        .collect();
    Ok(Plan {
        cfgs,
        reps: size.reps,
    })
}
