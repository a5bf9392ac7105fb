//! Test battery of the scenario format (`procsim campaign` config
//! files): per-field malformed-input coverage with structured errors
//! (line + dotted place, mirroring `SwfError`'s style), the
//! defaults/override precedence table, expansion order and seed-slot
//! semantics, and a property test pinning the canonical-render round
//! trip `parse(render(s)) == s`.

use procsim_core::scenario::{Scenario, ScenarioError, Value};
use procsim_core::{expand, PointSettings};
use proptest::prelude::*;

/// A minimal valid scenario to splice malformed fragments into.
const MINIMAL: &str = "[campaign]\nname = \"t\"\nseed = 1\n\n[matrix]\nload = [0.001]\n";

fn parse_err(text: &str) -> ScenarioError {
    match Scenario::parse(text) {
        Err(e) => e,
        Ok(s) => panic!("expected a parse error, got {s:?}"),
    }
}

/// Asserts one malformed input: the error's line, and substrings of its
/// dotted place and message.
fn assert_err(text: &str, line: usize, place: &str, msg: &str) {
    let e = parse_err(text);
    assert_eq!(e.line, line, "line of {text:?}: got {e}");
    assert!(
        e.place.contains(place),
        "place of {text:?}: want {place:?} in {e}"
    );
    assert!(e.msg.contains(msg), "msg of {text:?}: want {msg:?} in {e}");
}

#[test]
fn minimal_scenario_parses() {
    let s = Scenario::parse(MINIMAL).expect("minimal scenario is valid");
    assert_eq!(s.name, "t");
    assert_eq!(s.seed, 1);
    assert_eq!(s.matrix.len(), 1);
    assert_eq!(s.matrix[0].0, "load");
}

#[test]
fn hex_seed_parses() {
    let s = Scenario::parse(&MINIMAL.replace("seed = 1", "seed = 0xF1F")).unwrap();
    assert_eq!(s.seed, 0xF1F);
}

// ---------------------------------------------------------------------------
// the malformed-input battery: every field, structured errors
// ---------------------------------------------------------------------------

#[test]
fn campaign_section_errors() {
    // missing required fields are whole-file errors (line 0)
    assert_err("[matrix]\nload = [0.001]\n", 0, "campaign.name", "missing");
    assert_err(
        "[campaign]\nname = \"t\"\n[matrix]\nload = [0.001]\n",
        0,
        "campaign.seed",
        "missing",
    );
    assert_err("[campaign]\nname = \"\"\nseed = 1\n", 2, "campaign.name", "non-empty");
    assert_err("[campaign]\nname = 3\nseed = 1\n", 2, "campaign.name", "must be a string");
    assert_err("[campaign]\nname = \"t\"\nseed = -4\n", 3, "campaign.seed", "non-negative");
    assert_err("[campaign]\nname = \"t\"\nseed = 1.5\n", 3, "campaign.seed", "integer");
    assert_err("[campaign]\nname = \"t\"\nseed = 0xZZ\n", 3, "campaign.seed", "invalid hex");
    assert_err("[campaign]\nname = \"t\"\nseed = 1\ncolor = \"red\"\n", 4, "campaign.color", "unknown key");
}

#[test]
fn structural_errors() {
    assert_err("[campaign\nname = \"t\"\n", 1, "section", "unterminated section header");
    assert_err("[frobnicate]\n", 1, "section", "unknown section");
    assert_err("name = \"t\"\n", 1, "line", "before any [section]");
    assert_err("[campaign]\nname \"t\"\n", 2, "line", "expected `key = value`");
    assert_err(
        &format!("{MINIMAL}[matrix]\nts = [3]\n"),
        7,
        "section",
        "duplicate section",
    );
    // a required section missing entirely
    assert_err("[campaign]\nname = \"t\"\nseed = 1\n", 0, "matrix", "at least one axis");
}

#[test]
fn value_literal_errors() {
    assert_err(&MINIMAL.replace("\"t\"", "\"t"), 2, "campaign.name", "unterminated string");
    assert_err(
        &MINIMAL.replace("[0.001]", "[0.001"),
        6,
        "matrix.load",
        "unterminated array",
    );
    assert_err(&MINIMAL.replace("[0.001]", "@bad"), 6, "matrix.load", "invalid value");
    assert_err(&MINIMAL.replace("[0.001]", "[]"), 6, "matrix.load", "at least one value");
    assert_err(&MINIMAL.replace("[0.001]", "0.001"), 6, "matrix.load", "expected an array");
    assert_err(&MINIMAL.replace("seed = 1", "seed = [1]"), 3, "campaign.seed", "single value");
}

#[test]
fn matrix_knob_errors() {
    // every error points at the exact defining line (line 6 of MINIMAL+1 fragment)
    let with = |axis: &str| format!("{MINIMAL}{axis}\n");
    assert_err(&with("load = [0.002]").replace("load = [0.001]", "load = [0.001]\nload = [0.002]"),
        7, "matrix.load", "duplicate matrix axis");
    assert_err(&with("frobnicate = [1]"), 7, "matrix.frobnicate", "unknown knob");
    assert_err(&with("strategy = [\"warpdrive\"]"), 7, "matrix.strategy", "unknown strategy");
    assert_err(&with("strategy = [3]"), 7, "matrix.strategy", "expected a quoted string");
    assert_err(&with("scheduler = [\"lifo\"]"), 7, "matrix.scheduler", "unknown scheduler");
    assert_err(&with("topology = [\"hypercube\"]"), 7, "matrix.topology", "");
    assert_err(&with("workload = [\"netflix\"]"), 7, "matrix.workload", "unknown workload");
    assert_err(&with("pattern = [\"gossip\"]"), 7, "matrix.pattern", "unknown pattern");
    assert_err(&with("trace = [\"\"]"), 7, "matrix.trace", "non-empty");
    assert_err(&with("strategy = [\"paging0-zigzag\"]"), 7, "matrix.strategy", "unknown paging variant");
    assert_err(&with("scheduler = [\"fcfs-window0\"]"), 7, "matrix.scheduler", "unknown scheduler");
    assert_err(&with("mesh_w = [0]"), 7, "matrix.mesh_w", "non-zero");
    assert_err(&with("mesh_w = [-3]"), 7, "matrix.mesh_w", "out of range");
    assert_err(&with("mesh_w = [70000]"), 7, "matrix.mesh_w", "out of range");
    assert_err(&with("min_reps = [1]"), 7, "matrix.min_reps", ">= 2");
    assert_err(&with("num_mes = [0.0]"), 7, "matrix.num_mes", "positive finite");
    assert_err(&with("num_mes = [\"five\"]"), 7, "matrix.num_mes", "expected a number");
    assert_err(&with("measured = [0]"), 7, "matrix.measured", "non-zero");
    assert_err(&with("warmup = [2.5]"), 7, "matrix.warmup", "expected an integer");
}

#[test]
fn defaults_knob_errors() {
    let text = "[campaign]\nname = \"t\"\nseed = 1\n[defaults]\nload = -1.0\n[matrix]\nts = [3]\n".to_string();
    assert_err(&text, 5, "defaults.load", "positive finite");
}

#[test]
fn seed_section_errors() {
    let base = |frag: &str| format!("{MINIMAL}[seed]\n{frag}\n");
    assert_err(&base("axis = [\"load\"]"), 8, "seed.axis", "unknown key");
    assert_err(&base("axes = [\"strategy\"]"), 0, "seed.axes", "not a matrix axis");
    assert_err(
        &base("axes = [\"load\", \"load\"]"),
        0,
        "seed.axes",
        "duplicate axis",
    );
    assert_err(&base("axes = [3]"), 8, "seed.axes", "must be strings");
}

#[test]
fn override_errors() {
    assert_err(
        &format!("{MINIMAL}[override.load]\nwarmup = 1\n"),
        7,
        "override",
        "must be [override.axis=value]",
    );
    assert_err(
        &format!("{MINIMAL}[override.strategy=mbs]\nwarmup = 1\n"),
        7,
        "override.strategy=mbs",
        "neither a matrix axis nor a defaults knob",
    );
    assert_err(
        &format!("{MINIMAL}[override.load=0.001]\nmin_reps = 0\n"),
        8,
        "override.load=0.001.min_reps",
        ">= 2",
    );
}

#[test]
fn output_section_errors() {
    assert_err(&format!("{MINIMAL}[output]\ncolumns = []\n"), 8, "output.columns", "at least one");
    assert_err(&format!("{MINIMAL}[output]\ncolumns = [9]\n"), 8, "output.columns", "must be strings");
    assert_err(&format!("{MINIMAL}[output]\ncsv = 9\n"), 8, "output.csv", "string path");
    assert_err(&format!("{MINIMAL}[output]\nshape = \"wide\"\n"), 8, "output.shape", "unknown key");
}

#[test]
fn error_display_carries_line_and_place() {
    let e = parse_err(&MINIMAL.replace("[0.001]", "[0.0]"));
    let shown = e.to_string();
    assert!(shown.contains("line 6"), "{shown}");
    assert!(shown.contains("[matrix.load]"), "{shown}");
}

// ---------------------------------------------------------------------------
// precedence and expansion semantics
// ---------------------------------------------------------------------------

#[test]
fn precedence_table() {
    // built-in < [defaults] < matrix < [override]; each point witnesses
    // one rung of the ladder
    let s = Scenario::parse(
        "[campaign]\nname = \"prec\"\nseed = 7\n\
         [defaults]\nwarmup = 7\nts = 4\n\
         [matrix]\nmeasured = [50, 60]\n\
         [override.measured=60]\nwarmup = 9\n",
    )
    .unwrap();
    let points = expand(&s).unwrap();
    assert_eq!(points.len(), 2);

    let builtin = PointSettings::default();
    let p0 = &points[0].settings;
    let p1 = &points[1].settings;
    // untouched knobs keep the built-in paper defaults
    assert_eq!(p0.mesh_w, builtin.mesh_w);
    assert_eq!(p0.plen, builtin.plen);
    // [defaults] overrides built-ins
    assert_eq!(p0.ts, 4);
    assert_ne!(builtin.ts, 4);
    // matrix value overrides defaults (and the axis varies per point)
    assert_eq!((p0.measured, p1.measured), (50, 60));
    // the override fires only on the matching point and beats [defaults]
    assert_eq!((p0.warmup, p1.warmup), (7, 9));
}

#[test]
fn expansion_is_later_axes_fastest() {
    let s = Scenario::parse(
        "[campaign]\nname = \"order\"\nseed = 7\n\
         [matrix]\nstrategy = [\"gabl\", \"mbs\"]\nload = [0.001, 0.002, 0.003]\n",
    )
    .unwrap();
    let points = expand(&s).unwrap();
    assert_eq!(points.len(), 6);
    let got: Vec<(String, f64)> = points
        .iter()
        .map(|p| (p.settings.knob_value("strategy").unwrap(), p.settings.load))
        .collect();
    // strategy outer, load fastest — matrix file order
    assert_eq!(got[0], ("gabl".into(), 0.001));
    assert_eq!(got[1], ("gabl".into(), 0.002));
    assert_eq!(got[2], ("gabl".into(), 0.003));
    assert_eq!(got[3], ("mbs".into(), 0.001));
    // default seed slot = expansion index
    for (i, p) in points.iter().enumerate() {
        assert_eq!(p.slot, i as u64);
        assert_eq!(p.index, i);
        assert_eq!(p.seed, procsim_core::derive_seed(7, i as u64));
    }
    // all six points get distinct seeds
    let mut seeds: Vec<u64> = points.iter().map(|p| p.seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), 6);
}

#[test]
fn seed_axes_pair_excluded_axes() {
    // the mesh_vs_torus pattern: topology excluded from the slot, so a
    // mesh point and its torus twin share the derived seed
    let s = Scenario::parse(
        "[campaign]\nname = \"pair\"\nseed = 7\n\
         [matrix]\ntopology = [\"mesh\", \"torus\"]\nload = [0.001, 0.002]\n\
         [seed]\naxes = [\"load\"]\n",
    )
    .unwrap();
    let points = expand(&s).unwrap();
    assert_eq!(points.len(), 4);
    assert_eq!(points[0].seed, points[2].seed, "mesh/torus twins share streams");
    assert_eq!(points[1].seed, points[3].seed);
    assert_ne!(points[0].seed, points[1].seed, "different loads differ");
    // specs (and so cache keys) still differ: topology is in the spec
    assert_ne!(points[0].hash, points[2].hash);
}

#[test]
fn expand_rejects_contradictory_reps() {
    let s = Scenario::parse(
        "[campaign]\nname = \"bad\"\nseed = 1\n\
         [defaults]\nmax_reps = 3\n\
         [matrix]\nmin_reps = [4]\n",
    )
    .unwrap();
    let e = expand(&s).unwrap_err();
    assert!(e.msg.contains("max_reps"), "{e}");
}

#[test]
fn expand_rejects_unknown_output_columns() {
    // refused at expansion, so `campaign --dry-run` catches it before
    // any point runs
    let with_columns = |columns: &str| {
        Scenario::parse(&format!(
            "{MINIMAL}[output]\ncolumns = [{columns}]\n\n[output.values]\nfigure = \"9\"\n"
        ))
        .unwrap()
    };
    let e = expand(&with_columns(r#""series", "lod", "means""#)).unwrap_err();
    assert_eq!(e.place, "output.columns.lod", "{e}");
    assert!(e.msg.contains("unknown column"), "{e}");
    // built-ins, [output.values] constants and knob names all resolve
    let ok = r#""figure", "series", "scheduler", "load", "reps", "means", "cis""#;
    assert_eq!(expand(&with_columns(ok)).unwrap().len(), 1);
}

#[test]
fn expand_rejects_meshes_beyond_the_rank_limit() {
    // a packet tag holds the sender rank in 20 bits: 1024 x 1024 is the
    // largest square mesh that fits
    let with_mesh = |w: u32, l: u32| {
        Scenario::parse(&format!(
            "[campaign]\nname = \"big\"\nseed = 1\n\
             [defaults]\nmesh_w = {w}\nmesh_l = {l}\n\
             [matrix]\nload = [0.001]\n"
        ))
        .unwrap()
    };
    assert_eq!(expand(&with_mesh(1024, 1024)).unwrap().len(), 1);
    let e = expand(&with_mesh(2048, 1024)).unwrap_err();
    assert!(e.msg.contains("mesh_w x mesh_l"), "{e}");
    assert!(e.msg.contains("2048 x 1024"), "{e}");
    assert!(e.msg.contains("1048576"), "{e}");
}

#[test]
fn expand_rejects_pages_larger_than_the_mesh() {
    // Paging(k) divides the mesh into 2^k x 2^k pages: a page must fit
    let with = |strategy: &str, w: u32, l: u32| {
        Scenario::parse(&format!(
            "[campaign]\nname = \"pages\"\nseed = 1\n\
             [defaults]\nmesh_w = {w}\nmesh_l = {l}\n\
             [matrix]\nstrategy = [\"{strategy}\"]\n"
        ))
        .unwrap()
    };
    assert_eq!(expand(&with("paging2", 4, 4)).unwrap().len(), 1);
    assert_eq!(expand(&with("paging3", 8, 9)).unwrap().len(), 1);
    let e = expand(&with("paging3", 4, 4)).unwrap_err();
    assert!(e.msg.contains("\"paging3\" pages are 8 x 8"), "{e}");
    assert!(e.msg.contains("4 x 4 mesh"), "{e}");
    let e = expand(&with("paging1-snake", 16, 1)).unwrap_err();
    assert!(e.msg.contains("paging1-snake"), "{e}");
}

#[test]
fn cache_keys_of_existing_points_are_unchanged() {
    // recorded from fig09.toml before the pattern knob and paging
    // indexing entered the spec string: every all-to-all, row-major
    // point must keep its key, so warm caches stay warm
    let s = Scenario::parse(include_str!("../../../scenarios/fig09.toml")).unwrap();
    let hashes: Vec<String> = expand(&s).unwrap().into_iter().map(|p| p.hash).collect();
    assert_eq!(
        hashes,
        [
            "bc9e9b4f0d89e855",
            "5b1690b676f12c32",
            "903159ece8ac33c1",
            "0087b12ad1616355",
            "fb9ea57466d96aae",
            "1a06d11d4657bc76",
        ]
    );
}

#[test]
fn new_spellings_reach_the_sim_config() {
    use procsim_core::{PageIndexing, Pattern, SchedulerKind, StrategyKind, WorkloadSpec};
    let s = Scenario::parse(
        "[campaign]\nname = \"spell\"\nseed = 1\n\
         [defaults]\npattern = \"ring\"\nscheduler = \"fcfs-window4\"\nworkload = \"cm5\"\n\
         [matrix]\nstrategy = [\"paging1-snake\"]\n",
    )
    .unwrap();
    let points = expand(&s).unwrap();
    let cfg = points[0].sim_config();
    assert_eq!(cfg.pattern, Pattern::Ring);
    assert_eq!(cfg.scheduler, SchedulerKind::FcfsWindow(4));
    assert_eq!(
        cfg.strategy,
        StrategyKind::Paging {
            size_index: 1,
            indexing: PageIndexing::SnakeLike
        }
    );
    assert!(matches!(cfg.workload, WorkloadSpec::SyntheticCm5 { .. }));
    assert!(points[0].spec.contains("|pattern=ring|"), "{}", points[0].spec);
    assert!(points[0].spec.contains("Paging(1,snake)"), "{}", points[0].spec);
}

/// A scenario replaying `path` at offered load 0.7.
fn trace_scenario(path: &std::path::Path) -> Scenario {
    Scenario::parse(&format!(
        "[campaign]\nname = \"tr\"\nseed = 1\n\
         [defaults]\nworkload = \"trace\"\ntrace = {:?}\nwarmup = 200\nmeasured = 1000\n\
         [matrix]\nload = [0.7]\n",
        path.display().to_string()
    ))
    .unwrap()
}

#[test]
fn trace_points_replay_at_offered_load_and_key_on_content() {
    use procsim_core::WorkloadSpec;
    let dir = std::env::temp_dir().join(format!("procsim_scenario_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sample.swf");
    let sample = include_str!("../../../results/traces/sdsc_sample.swf");
    std::fs::write(&path, sample).unwrap();

    let point = expand(&trace_scenario(&path)).unwrap().remove(0);
    let cfg = point.sim_config();
    match &cfg.workload {
        WorkloadSpec::Trace { trace, load, .. } => {
            assert_eq!(trace.len(), 600);
            assert_eq!(*load, 0.7, "load is the offered load, as for procsim trace");
        }
        other => panic!("expected a trace workload, got {other:?}"),
    }
    // one pass over the 600-job sample caps the 200 + 1000 budget
    assert_eq!((cfg.warmup_jobs, cfg.measured_jobs), (120, 480));
    assert!(point.spec.contains("workload=trace(jobs=600,"), "{}", point.spec);

    // an edited file re-keys the point instead of serving a stale result
    let last_job = sample.trim_end().rfind('\n').unwrap();
    std::fs::write(&path, &sample[..last_job]).unwrap();
    let edited = expand(&trace_scenario(&path)).unwrap().remove(0);
    assert_ne!(edited.hash, point.hash);

    // a missing or malformed file is a structured scenario error
    std::fs::write(&path, "1 2 3\n").unwrap();
    let e = expand(&trace_scenario(&path)).unwrap_err();
    assert_eq!(e.place, "trace", "{e}");
    std::fs::remove_dir_all(&dir).unwrap();
    let e = expand(&trace_scenario(&path)).unwrap_err();
    assert!(e.msg.contains("cannot replay"), "{e}");

    // and a trace workload without a file is refused
    let s = Scenario::parse(
        "[campaign]\nname = \"t\"\nseed = 1\n[defaults]\nworkload = \"trace\"\n[matrix]\nload = [0.7]\n",
    )
    .unwrap();
    assert!(expand(&s).unwrap_err().msg.contains("`trace` knob"));
}

// ---------------------------------------------------------------------------
// canonical-render round trip (property)
// ---------------------------------------------------------------------------

/// Distinct load values (duplicates within an axis would make two
/// expansion points genuinely identical, which is valid but defeats the
/// hash-uniqueness property below).
fn arb_floats() -> impl Strategy<Value = Vec<Value>> {
    collection::vec(1u32..100_000, 1..4).prop_map(|mut ns| {
        ns.sort_unstable();
        ns.dedup();
        ns.into_iter()
            .map(|n| Value::Float(n as f64 / 1000.0))
            .collect()
    })
}

/// A non-empty subset of `names` (bitmask => no dups).
fn arb_subset(names: &'static [&'static str]) -> impl Strategy<Value = Vec<Value>> {
    (1u32..(1 << names.len())).prop_map(move |mask| {
        names
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, s)| Value::Str((*s).into()))
            .collect()
    })
}

/// A non-empty subset of the strategy spellings, paging indexing
/// variants included.
fn arb_strategy_axis() -> impl Strategy<Value = Vec<Value>> {
    arb_subset(&[
        "gabl",
        "paging0",
        "paging0-snake",
        "paging0-shuffled",
        "paging2",
        "paging3-shuffled-snake",
        "mbs",
        "ff",
        "bf",
        "random",
        "mc",
    ])
}

/// A non-empty subset of the scheduler spellings, with window
/// schedulers of random width.
fn arb_scheduler_axis() -> impl Strategy<Value = Vec<Value>> {
    (arb_subset(&["fcfs", "ssd", "sjf", "ljf", "easy"]), 0u32..3, 1u32..64).prop_map(
        |(mut names, windows, width)| {
            for w in 0..windows {
                names.push(Value::Str(format!("fcfs-window{}", width + w)));
            }
            names
        },
    )
}

/// A non-empty subset of the communication-pattern spellings.
fn arb_pattern_axis() -> impl Strategy<Value = Vec<Value>> {
    arb_subset(&["all-to-all", "one-to-all", "ring", "random-pairs", "near-neighbour"])
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        (
            // name, seed, defaults knobs (warmup, optional num_mes)
            (0u32..1000).prop_map(|n| format!("camp{n}")),
            0u64..(1 << 62),
            0u64..300,
            prop_oneof![
                Just(None),
                (1u32..10_000).prop_map(|n| Some(Value::Float(n as f64 / 100.0))),
            ],
        ),
        (
            // matrix: always a load axis; optional strategy / scheduler /
            // topology / pattern axes
            arb_floats(),
            prop_oneof![Just(None), arb_strategy_axis().prop_map(Some)],
            prop_oneof![Just(None), arb_scheduler_axis().prop_map(Some)],
            any::<bool>(),
            prop_oneof![Just(None), arb_pattern_axis().prop_map(Some)],
        ),
        // seed axes bitmask, override toggle, output toggles
        (0u8..32, any::<bool>(), any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |((name, seed, warmup, num_mes), (loads, strategies, scheds, topos, patterns), knobs)| {
                let (seed_mask, with_override, with_columns, with_csv) = knobs;
                let mut defaults: Vec<(String, Value)> =
                    vec![("warmup".into(), Value::Int(warmup as i64))];
                if let Some(v) = num_mes {
                    defaults.push(("num_mes".into(), v));
                }
                let mut matrix: Vec<(String, Vec<Value>)> = vec![("load".into(), loads)];
                if let Some(vs) = strategies {
                    matrix.push(("strategy".into(), vs));
                }
                if let Some(vs) = scheds {
                    matrix.push(("scheduler".into(), vs));
                }
                if topos {
                    matrix.push((
                        "topology".into(),
                        vec![Value::Str("mesh".into()), Value::Str("torus".into())],
                    ));
                }
                if let Some(vs) = patterns {
                    matrix.push(("pattern".into(), vs));
                }
                let seed_axes = if seed_mask == 0 {
                    None
                } else {
                    Some(
                        matrix
                            .iter()
                            .enumerate()
                            .filter(|(i, _)| seed_mask & (1 << i) != 0)
                            .map(|(_, (k, _))| k.clone())
                            .collect(),
                    )
                };
                let overrides = if with_override {
                    vec![procsim_core::scenario::OverrideRule {
                        axis: "load".into(),
                        value: matrix[0].1[0].render_bare(),
                        set: vec![("measured".into(), Value::Int(33))],
                        line: 0,
                    }]
                } else {
                    Vec::new()
                };
                let mut output = procsim_core::scenario::OutputSpec::default();
                if with_columns {
                    output.columns = vec!["series".into(), "load".into(), "means".into()];
                    output.values = vec![("figure".into(), "9".into())];
                }
                if with_csv {
                    output.csv = Some(format!("results/{name}.csv"));
                }
                Scenario {
                    name,
                    seed,
                    defaults,
                    matrix,
                    seed_axes,
                    overrides,
                    output,
                }
            },
        )
}

/// `OverrideRule::line` is provenance (where the section header sat in
/// the file), not content — zero it before comparing a constructed
/// scenario with its re-parse.
fn strip_lines(mut s: Scenario) -> Scenario {
    for r in &mut s.overrides {
        r.line = 0;
    }
    s
}

proptest! {
    #[test]
    fn render_parse_round_trip(s in arb_scenario()) {
        let rendered = s.render();
        let back = Scenario::parse(&rendered)
            .unwrap_or_else(|e| panic!("render produced unparseable text: {e}\n{rendered}"));
        prop_assert_eq!(strip_lines(back.clone()), strip_lines(s));
        // and render∘parse is a fixed point (canonical form is stable)
        prop_assert_eq!(back.render(), rendered);
    }

    #[test]
    fn expansion_size_is_the_axis_product(s in arb_scenario()) {
        let want: usize = s.matrix.iter().map(|(_, vs)| vs.len()).product();
        let points = expand(&s).unwrap();
        prop_assert_eq!(points.len(), want);
        // hashes are unique across the expansion: every point caches
        // under its own key (seed or knobs must differ somewhere). Axes
        // left out of the seed slot share seeds, so points that differ
        // only in such an axis — pattern, or paging indexing within the
        // strategy axis — must still hash apart on their knobs.
        let mut hashes: Vec<&str> = points.iter().map(|p| p.hash.as_str()).collect();
        hashes.sort_unstable();
        hashes.dedup();
        prop_assert_eq!(hashes.len(), points.len());
    }
}
