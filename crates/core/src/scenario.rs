//! Declarative scenario configs — the file format behind
//! `procsim campaign`.
//!
//! A scenario file declares a *matrix* of experimental points (workloads ×
//! strategies × schedulers × topologies × loads × fidelity knobs) plus
//! defaults and targeted overrides, in a small TOML subset that the
//! in-repo parser below reads without any external dependency (the build
//! environment has no registry access, so serde/toml stay out — see
//! `docs/CAMPAIGNS.md` for the format reference):
//!
//! ```toml
//! [campaign]
//! name = "fig09"
//! seed = 0xF1F
//!
//! [defaults]
//! warmup = 30
//! measured = 120
//! min_reps = 2
//! max_reps = 2
//!
//! [matrix]
//! scheduler = ["fcfs", "ssd"]
//! strategy = ["gabl", "paging0", "mbs"]
//! load = [0.004]
//!
//! [output]
//! columns = ["figure", "series", "load", "reps", "means", "cis"]
//! [output.values]
//! figure = "9"
//! ```
//!
//! The TOML subset: `[section]` / `[section.sub]` headers, `key = value`
//! pairs where a value is a quoted string, an integer (decimal or `0x`
//! hex), a float, or a flat array of those; `#` comments. Parse errors
//! are structured ([`ScenarioError`]: 1-based line, dotted place, and
//! message), mirroring the SWF parser's `SwfError` style.
//!
//! **Precedence** (later wins): built-in paper defaults < `[defaults]` <
//! matrix axis value < matching `[override.axis=value]` sections in file
//! order. Every knob is validated as it is applied, so a malformed value
//! is reported against the exact line that set it.
//!
//! [`render`](Scenario::render) writes a scenario back out in canonical
//! form; `parse(render(s)) == s` is pinned by a property test.

use std::sync::Arc;

use mesh_alloc::StrategyKind;
use mesh_sched::SchedulerKind;
use workload::{Cm5Model, ParagonModel, SideDist, TraceWorkload};
use wormnet::{Pattern, TopologyKind};

use crate::config::{SimConfig, WorkloadSpec};
use crate::simulator::MAX_MESH_NODES;

/// A parse or validation error, pointing at the offending line and the
/// dotted `section.key` place, in the style of `workload::SwfError`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// 1-based line number in the scenario text (0 = whole-file error,
    /// e.g. a missing required section).
    pub line: usize,
    /// Dotted location, e.g. `"matrix.strategy"` or `"campaign.seed"`.
    pub place: String,
    /// What went wrong, human-readable.
    pub msg: String,
}

impl core::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.line == 0 {
            write!(f, "scenario: [{}]: {}", self.place, self.msg)
        } else {
            write!(f, "scenario line {}: [{}]: {}", self.line, self.place, self.msg)
        }
    }
}

impl std::error::Error for ScenarioError {}

impl ScenarioError {
    /// Builds an error at `line` (0 = whole-file) about `place`.
    pub fn new(line: usize, place: impl Into<String>, msg: impl Into<String>) -> ScenarioError {
        ScenarioError {
            line,
            place: place.into(),
            msg: msg.into(),
        }
    }
}

/// A scalar value of the scenario format: the three literal kinds the
/// TOML subset distinguishes.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A quoted string, e.g. `"gabl"`.
    Str(String),
    /// An integer literal (decimal or `0x` hex).
    Int(i64),
    /// A float literal (contains `.` or an exponent).
    Float(f64),
}

impl Value {
    /// Canonical rendering as a TOML literal (strings quoted; floats
    /// always carry a decimal point so they re-parse as floats).
    pub fn render(&self) -> String {
        match self {
            Value::Str(s) => format!("{s:?}"),
            Value::Int(i) => format!("{i}"),
            Value::Float(v) => render_float(*v),
        }
    }

    /// Bare rendering without string quotes — the spelling used in
    /// `[override.axis=value]` section names and output columns.
    pub fn render_bare(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            Value::Int(i) => format!("{i}"),
            Value::Float(v) => render_float(*v),
        }
    }

    fn type_name(&self) -> &'static str {
        match self {
            Value::Str(_) => "string",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
        }
    }
}

/// Shortest round-trip float rendering that always re-parses as a float
/// (Rust's `Display` drops the `.0` on integral values).
fn render_float(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains('E') || s.contains("inf") || s.contains("NaN")
    {
        s
    } else {
        format!("{s}.0")
    }
}

/// One `[override.axis=value]` rule: extra knob assignments applied to
/// every matrix point whose `axis` equals `value` (compared on the bare
/// rendering, so `strategy=mbs` matches the string `"mbs"`).
#[derive(Debug, Clone, PartialEq)]
pub struct OverrideRule {
    /// The matrix axis (or defaults knob) the rule matches on.
    pub axis: String,
    /// Bare-rendered value the axis must equal for the rule to apply.
    pub value: String,
    /// Knob assignments applied to matching points, in file order.
    pub set: Vec<(String, Value)>,
    /// Line of the `[override...]` header, for match-time errors.
    pub line: usize,
}

/// The CSV layout a campaign writes: a column list drawn from the
/// built-ins (`series`, `topology`, `load`, `reps`, `means`, `cis`), the
/// literal `[output.values]` constants, and knob names (rendered from
/// the point's settings).
#[derive(Debug, Clone, PartialEq)]
pub struct OutputSpec {
    /// Column names, in CSV order. `means` and `cis` expand to the six
    /// response metrics (`turnaround..fragments`, `ci_*`).
    pub columns: Vec<String>,
    /// Literal per-campaign constants usable as columns (name, value).
    pub values: Vec<(String, String)>,
    /// Default CSV path (CLI `--csv` overrides;
    /// `results/campaign_<name>.csv` when absent).
    pub csv: Option<String>,
}

impl OutputSpec {
    /// The default column set when a scenario has no `[output]` section.
    pub fn default_columns() -> Vec<String> {
        ["series", "topology", "load", "reps", "means", "cis"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    }
}

impl Default for OutputSpec {
    fn default() -> Self {
        OutputSpec {
            columns: Self::default_columns(),
            values: Vec::new(),
            csv: None,
        }
    }
}

/// A parsed scenario file: the declarative description `procsim
/// campaign` expands into experimental points (see
/// [`crate::campaign::expand`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Campaign name (cache directory and default CSV name stem).
    pub name: String,
    /// Master seed; point seeds derive from it by slot (see `[seed]`
    /// axes and [`crate::replicate::derive_seed`]).
    pub seed: u64,
    /// `[defaults]` assignments, in file order.
    pub defaults: Vec<(String, Value)>,
    /// `[matrix]` axes in file order; the cross-product is expanded with
    /// **later axes varying fastest**.
    pub matrix: Vec<(String, Vec<Value>)>,
    /// `[seed] axes = [...]`: the matrix axes that advance the seed slot
    /// (`None` = all axes, i.e. slot = expansion index). Axes listed here
    /// are taken in **matrix order**; excluded axes produce *paired*
    /// points that share workload streams (e.g. a mesh/torus twin).
    pub seed_axes: Option<Vec<String>>,
    /// `[override.axis=value]` rules, in file order.
    pub overrides: Vec<OverrideRule>,
    /// CSV layout.
    pub output: OutputSpec,
}

// ---------------------------------------------------------------------------
// parsing
// ---------------------------------------------------------------------------

/// Splits `line` at the first `#` that is not inside a quoted string.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escape = false;
    for (i, c) in line.char_indices() {
        if escape {
            escape = false;
            continue;
        }
        match c {
            '\\' if in_str => escape = true,
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses one scalar literal (string, hex/decimal integer, or float).
fn parse_scalar(tok: &str, line: usize, place: &str) -> Result<Value, ScenarioError> {
    let tok = tok.trim();
    if tok.is_empty() {
        return Err(ScenarioError::new(line, place, "missing value"));
    }
    if let Some(body) = tok.strip_prefix('"') {
        let Some(body) = body.strip_suffix('"') else {
            return Err(ScenarioError::new(
                line,
                place,
                format!("unterminated string {tok:?}"),
            ));
        };
        if body.contains('"') {
            return Err(ScenarioError::new(
                line,
                place,
                format!("stray quote inside string {tok:?}"),
            ));
        }
        // the only escape the renderer emits is none (plain names); keep
        // backslashes verbatim so render/parse stay inverse on plain text
        return Ok(Value::Str(body.to_string()));
    }
    if let Some(hex) = tok.strip_prefix("0x").or_else(|| tok.strip_prefix("0X")) {
        return i64::from_str_radix(hex, 16)
            .map(Value::Int)
            .map_err(|_| ScenarioError::new(line, place, format!("invalid hex integer {tok:?}")));
    }
    if !tok.contains('.') && !tok.contains('e') && !tok.contains('E') {
        if let Ok(i) = tok.parse::<i64>() {
            return Ok(Value::Int(i));
        }
    }
    if let Ok(v) = tok.parse::<f64>() {
        if tok.contains('.') || tok.contains('e') || tok.contains('E') {
            return Ok(Value::Float(v));
        }
    }
    Err(ScenarioError::new(
        line,
        place,
        format!("invalid value {tok:?} (expected a quoted string, integer, float, or [array])"),
    ))
}

/// Parses a value: a flat array `[a, b, c]` or one scalar.
fn parse_value(tok: &str, line: usize, place: &str) -> Result<ParsedValue, ScenarioError> {
    let tok = tok.trim();
    if let Some(body) = tok.strip_prefix('[') {
        let Some(body) = body.strip_suffix(']') else {
            return Err(ScenarioError::new(
                line,
                place,
                format!("unterminated array {tok:?}"),
            ));
        };
        let body = body.trim();
        if body.is_empty() {
            return Ok(ParsedValue::List(Vec::new()));
        }
        // split on commas outside quotes (scalars contain no brackets)
        let mut items = Vec::new();
        let mut depth_str = false;
        let mut start = 0usize;
        for (i, c) in body.char_indices() {
            match c {
                '"' => depth_str = !depth_str,
                ',' if !depth_str => {
                    items.push(parse_scalar(&body[start..i], line, place)?);
                    start = i + 1;
                }
                _ => {}
            }
        }
        items.push(parse_scalar(&body[start..], line, place)?);
        Ok(ParsedValue::List(items))
    } else {
        Ok(ParsedValue::Scalar(parse_scalar(tok, line, place)?))
    }
}

enum ParsedValue {
    Scalar(Value),
    List(Vec<Value>),
}

impl ParsedValue {
    fn scalar(self, line: usize, place: &str) -> Result<Value, ScenarioError> {
        match self {
            ParsedValue::Scalar(v) => Ok(v),
            ParsedValue::List(_) => Err(ScenarioError::new(
                line,
                place,
                "expected a single value, got an array",
            )),
        }
    }

    fn list(self, line: usize, place: &str) -> Result<Vec<Value>, ScenarioError> {
        match self {
            ParsedValue::List(v) => Ok(v),
            ParsedValue::Scalar(v) => Err(ScenarioError::new(
                line,
                place,
                format!("expected an array, got {}", v.type_name()),
            )),
        }
    }
}

/// Validates a section/key name token: bare identifiers only.
fn check_name(tok: &str, line: usize, place: &str) -> Result<(), ScenarioError> {
    if !tok.is_empty()
        && tok
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        Ok(())
    } else {
        Err(ScenarioError::new(
            line,
            place,
            format!("invalid name {tok:?} (letters, digits, '_', '-')"),
        ))
    }
}

impl Scenario {
    /// Parses a scenario from its TOML-subset text. Errors carry the
    /// 1-based line and the dotted place of the offending token.
    pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
        #[derive(PartialEq)]
        enum Section {
            None,
            Campaign,
            Defaults,
            Matrix,
            Seed,
            Override(usize),
            Output,
            OutputValues,
        }

        let mut name: Option<String> = None;
        let mut seed: Option<u64> = None;
        let mut defaults: Vec<(String, Value)> = Vec::new();
        let mut matrix: Vec<(String, Vec<Value>)> = Vec::new();
        let mut seed_axes: Option<Vec<String>> = None;
        let mut overrides: Vec<OverrideRule> = Vec::new();
        let mut out_columns: Option<Vec<String>> = None;
        let mut out_values: Vec<(String, String)> = Vec::new();
        let mut out_csv: Option<String> = None;
        let mut section = Section::None;
        let mut seen_sections: Vec<String> = Vec::new();

        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }

            if let Some(header) = line.strip_prefix('[') {
                let Some(header) = header.strip_suffix(']') else {
                    return Err(ScenarioError::new(
                        lineno,
                        "section",
                        format!("unterminated section header {line:?}"),
                    ));
                };
                let header = header.trim();
                section = match header {
                    "campaign" => Section::Campaign,
                    "defaults" => Section::Defaults,
                    "matrix" => Section::Matrix,
                    "seed" => Section::Seed,
                    "output" => Section::Output,
                    "output.values" => Section::OutputValues,
                    other => {
                        if let Some(rule) = other.strip_prefix("override.") {
                            let Some((axis, value)) = rule.split_once('=') else {
                                return Err(ScenarioError::new(
                                    lineno,
                                    "override",
                                    format!(
                                        "override section must be [override.axis=value], got {other:?}"
                                    ),
                                ));
                            };
                            check_name(axis.trim(), lineno, "override")?;
                            overrides.push(OverrideRule {
                                axis: axis.trim().to_string(),
                                value: value.trim().to_string(),
                                set: Vec::new(),
                                line: lineno,
                            });
                            section = Section::Override(overrides.len() - 1);
                            continue;
                        }
                        return Err(ScenarioError::new(
                            lineno,
                            "section",
                            format!(
                                "unknown section [{other}] (campaign, defaults, matrix, seed, \
                                 override.axis=value, output, output.values)"
                            ),
                        ));
                    }
                };
                // a duplicate plain section would silently merge; refuse
                if seen_sections.iter().any(|s| s == header) {
                    return Err(ScenarioError::new(
                        lineno,
                        "section",
                        format!("duplicate section [{header}]"),
                    ));
                }
                seen_sections.push(header.to_string());
                continue;
            }

            let Some((key, rawval)) = line.split_once('=') else {
                return Err(ScenarioError::new(
                    lineno,
                    "line",
                    format!("expected `key = value` or a [section] header, got {line:?}"),
                ));
            };
            let key = key.trim();

            match section {
                Section::None => {
                    return Err(ScenarioError::new(
                        lineno,
                        "line",
                        "key/value pair before any [section] header",
                    ));
                }
                Section::Campaign => {
                    let place = format!("campaign.{key}");
                    match key {
                        "name" => {
                            let v = parse_value(rawval, lineno, &place)?.scalar(lineno, &place)?;
                            match v {
                                Value::Str(s) if !s.trim().is_empty() => name = Some(s),
                                Value::Str(_) => {
                                    return Err(ScenarioError::new(
                                        lineno,
                                        place,
                                        "campaign name must be non-empty",
                                    ))
                                }
                                other => {
                                    return Err(ScenarioError::new(
                                        lineno,
                                        place,
                                        format!("name must be a string, got {}", other.type_name()),
                                    ))
                                }
                            }
                        }
                        "seed" => {
                            let v = parse_value(rawval, lineno, &place)?.scalar(lineno, &place)?;
                            match v {
                                Value::Int(i) if i >= 0 => {
                                    // i64 -> u64 is lossless for non-negative values
                                    seed = Some(i.unsigned_abs());
                                }
                                Value::Int(_) => {
                                    return Err(ScenarioError::new(
                                        lineno,
                                        place,
                                        "seed must be non-negative",
                                    ))
                                }
                                other => {
                                    return Err(ScenarioError::new(
                                        lineno,
                                        place,
                                        format!("seed must be an integer, got {}", other.type_name()),
                                    ))
                                }
                            }
                        }
                        other => {
                            return Err(ScenarioError::new(
                                lineno,
                                format!("campaign.{other}"),
                                "unknown key (campaign takes: name, seed)",
                            ))
                        }
                    }
                }
                Section::Defaults => {
                    check_name(key, lineno, "defaults")?;
                    let place = format!("defaults.{key}");
                    let v = parse_value(rawval, lineno, &place)?.scalar(lineno, &place)?;
                    // validate eagerly so the error points at this line
                    PointSettings::check_knob(key, &v, lineno, &place)?;
                    defaults.push((key.to_string(), v));
                }
                Section::Matrix => {
                    check_name(key, lineno, "matrix")?;
                    let place = format!("matrix.{key}");
                    if matrix.iter().any(|(k, _)| k == key) {
                        return Err(ScenarioError::new(lineno, place, "duplicate matrix axis"));
                    }
                    let vs = parse_value(rawval, lineno, &place)?.list(lineno, &place)?;
                    if vs.is_empty() {
                        return Err(ScenarioError::new(
                            lineno,
                            place,
                            "matrix axis needs at least one value",
                        ));
                    }
                    for v in &vs {
                        PointSettings::check_knob(key, v, lineno, &place)?;
                    }
                    matrix.push((key.to_string(), vs));
                }
                Section::Seed => {
                    let place = format!("seed.{key}");
                    if key != "axes" {
                        return Err(ScenarioError::new(lineno, place, "unknown key (seed takes: axes)"));
                    }
                    let vs = parse_value(rawval, lineno, &place)?.list(lineno, &place)?;
                    let mut axes = Vec::new();
                    for v in vs {
                        match v {
                            Value::Str(s) => axes.push(s),
                            other => {
                                return Err(ScenarioError::new(
                                    lineno,
                                    place,
                                    format!("axis names must be strings, got {}", other.type_name()),
                                ))
                            }
                        }
                    }
                    seed_axes = Some(axes);
                }
                Section::Override(idx) => {
                    check_name(key, lineno, "override")?;
                    let rule = &overrides[idx];
                    let place = format!("override.{}={}.{key}", rule.axis, rule.value);
                    let v = parse_value(rawval, lineno, &place)?.scalar(lineno, &place)?;
                    PointSettings::check_knob(key, &v, lineno, &place)?;
                    overrides[idx].set.push((key.to_string(), v));
                }
                Section::Output => {
                    let place = format!("output.{key}");
                    match key {
                        "columns" => {
                            let vs = parse_value(rawval, lineno, &place)?.list(lineno, &place)?;
                            let mut cols = Vec::new();
                            for v in vs {
                                match v {
                                    Value::Str(s) => cols.push(s),
                                    other => {
                                        return Err(ScenarioError::new(
                                            lineno,
                                            place,
                                            format!(
                                                "column names must be strings, got {}",
                                                other.type_name()
                                            ),
                                        ))
                                    }
                                }
                            }
                            if cols.is_empty() {
                                return Err(ScenarioError::new(
                                    lineno,
                                    place,
                                    "columns needs at least one name",
                                ));
                            }
                            out_columns = Some(cols);
                        }
                        "csv" => {
                            match parse_value(rawval, lineno, &place)?.scalar(lineno, &place)? {
                                Value::Str(s) => out_csv = Some(s),
                                other => {
                                    return Err(ScenarioError::new(
                                        lineno,
                                        place,
                                        format!("csv must be a string path, got {}", other.type_name()),
                                    ))
                                }
                            }
                        }
                        other => {
                            return Err(ScenarioError::new(
                                lineno,
                                format!("output.{other}"),
                                "unknown key (output takes: columns, csv)",
                            ))
                        }
                    }
                }
                Section::OutputValues => {
                    check_name(key, lineno, "output.values")?;
                    let place = format!("output.values.{key}");
                    let v = parse_value(rawval, lineno, &place)?.scalar(lineno, &place)?;
                    out_values.push((key.to_string(), v.render_bare()));
                }
            }
        }

        let name = name.ok_or_else(|| {
            ScenarioError::new(0, "campaign.name", "missing (every scenario needs a name)")
        })?;
        let seed =
            seed.ok_or_else(|| ScenarioError::new(0, "campaign.seed", "missing (master seed)"))?;
        if matrix.is_empty() {
            return Err(ScenarioError::new(
                0,
                "matrix",
                "missing or empty (a campaign needs at least one axis)",
            ));
        }
        if let Some(axes) = &seed_axes {
            for a in axes {
                if !matrix.iter().any(|(k, _)| k == a) {
                    return Err(ScenarioError::new(
                        0,
                        "seed.axes",
                        format!("{a:?} is not a matrix axis"),
                    ));
                }
            }
            let mut dedup = axes.clone();
            dedup.sort();
            dedup.dedup();
            if dedup.len() != axes.len() {
                return Err(ScenarioError::new(0, "seed.axes", "duplicate axis name"));
            }
        }
        for rule in &overrides {
            if !matrix.iter().any(|(k, _)| k == &rule.axis)
                && !defaults.iter().any(|(k, _)| k == &rule.axis)
            {
                return Err(ScenarioError::new(
                    rule.line,
                    format!("override.{}={}", rule.axis, rule.value),
                    "axis is neither a matrix axis nor a defaults knob",
                ));
            }
        }

        Ok(Scenario {
            name,
            seed,
            defaults,
            matrix,
            seed_axes,
            overrides,
            output: OutputSpec {
                columns: out_columns.unwrap_or_else(OutputSpec::default_columns),
                values: out_values,
                csv: out_csv,
            },
        })
    }

    /// Reads and parses a scenario file. I/O failures are reported as a
    /// whole-file [`ScenarioError`].
    pub fn load(path: &std::path::Path) -> Result<Scenario, ScenarioError> {
        let text = std::fs::read_to_string(path).map_err(|e| {
            ScenarioError::new(0, "file", format!("cannot read {}: {e}", path.display()))
        })?;
        Scenario::parse(&text)
    }

    /// Renders the scenario in canonical form: fixed section order,
    /// assignments in stored order. `Scenario::parse(s.render()) == s`
    /// for every valid scenario (property-tested).
    pub fn render(&self) -> String {
        use core::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "[campaign]");
        let _ = writeln!(out, "name = {:?}", self.name);
        let _ = writeln!(out, "seed = {}", self.seed);
        if !self.defaults.is_empty() {
            let _ = writeln!(out, "\n[defaults]");
            for (k, v) in &self.defaults {
                let _ = writeln!(out, "{k} = {}", v.render());
            }
        }
        let _ = writeln!(out, "\n[matrix]");
        for (k, vs) in &self.matrix {
            let items: Vec<String> = vs.iter().map(Value::render).collect();
            let _ = writeln!(out, "{k} = [{}]", items.join(", "));
        }
        if let Some(axes) = &self.seed_axes {
            let items: Vec<String> = axes.iter().map(|a| format!("{a:?}")).collect();
            let _ = writeln!(out, "\n[seed]\naxes = [{}]", items.join(", "));
        }
        for rule in &self.overrides {
            let _ = writeln!(out, "\n[override.{}={}]", rule.axis, rule.value);
            for (k, v) in &rule.set {
                let _ = writeln!(out, "{k} = {}", v.render());
            }
        }
        let _ = writeln!(out, "\n[output]");
        let items: Vec<String> = self.output.columns.iter().map(|c| format!("{c:?}")).collect();
        let _ = writeln!(out, "columns = [{}]", items.join(", "));
        if let Some(csv) = &self.output.csv {
            let _ = writeln!(out, "csv = {csv:?}");
        }
        if !self.output.values.is_empty() {
            let _ = writeln!(out, "\n[output.values]");
            for (k, v) in &self.output.values {
                let _ = writeln!(out, "{k} = {v:?}");
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// point settings: the knob vocabulary and its precedence
// ---------------------------------------------------------------------------

/// Which job-stream generator a point uses (the subset of
/// [`WorkloadSpec`] that is expressible declaratively).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    /// Stochastic, uniform side lengths (the paper's default).
    Uniform,
    /// Stochastic, exponential side lengths.
    Exponential,
    /// Synthetic SDSC Paragon trace model, drawn per replication.
    Paragon,
    /// Synthetic LANL CM-5 trace model (power-of-two sizes), drawn per
    /// replication.
    Cm5,
    /// Replay of the SWF file named by the `trace` knob; `load` is the
    /// target offered load, as for `procsim trace --load`.
    Trace,
}

impl WorkloadName {
    /// Every workload: the `workload` knob's value set.
    const ALL: [WorkloadName; 5] = [
        WorkloadName::Uniform,
        WorkloadName::Exponential,
        WorkloadName::Paragon,
        WorkloadName::Cm5,
        WorkloadName::Trace,
    ];

    /// Scenario-file spelling.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadName::Uniform => "uniform",
            WorkloadName::Exponential => "exponential",
            WorkloadName::Paragon => "paragon",
            WorkloadName::Cm5 => "cm5",
            WorkloadName::Trace => "trace",
        }
    }
}

/// The fully resolved knob set of one experimental point, after
/// precedence (builtin < defaults < matrix < override) has been applied.
#[derive(Debug, Clone, PartialEq)]
pub struct PointSettings {
    /// Mesh width `W`.
    pub mesh_w: u16,
    /// Mesh length `L`.
    pub mesh_l: u16,
    /// Per-node routing delay in cycles.
    pub ts: u32,
    /// Packet length in flits.
    pub plen: u32,
    /// Communication pattern of every job.
    pub pattern: Pattern,
    /// Network topology.
    pub topology: TopologyKind,
    /// Allocation strategy.
    pub strategy: StrategyKind,
    /// Scheduling policy.
    pub scheduler: SchedulerKind,
    /// Job-stream generator.
    pub workload: WorkloadName,
    /// SWF file replayed by the `trace` workload (relative paths resolve
    /// against the working directory).
    pub trace: Option<String>,
    /// System load: jobs per time unit, or the offered-load fraction for
    /// the `trace` workload.
    pub load: f64,
    /// Mean per-processor message count (stochastic workloads).
    pub num_mes: f64,
    /// Seconds of trace runtime per message (trace workloads).
    pub runtime_scale: f64,
    /// Warmup jobs discarded per replication.
    pub warmup: usize,
    /// Measured jobs per replication.
    pub measured: usize,
    /// Minimum replications per point (>= 2).
    pub min_reps: usize,
    /// Replication budget per point.
    pub max_reps: usize,
}

/// Every knob name, in the canonical spec-string order.
pub const KNOBS: [&str; 18] = [
    "mesh_w", "mesh_l", "ts", "plen", "pattern", "topology", "strategy", "scheduler", "workload",
    "trace", "load", "num_mes", "runtime_scale", "warmup", "measured", "min_reps", "max_reps",
    "seed",
];

impl Default for PointSettings {
    /// Built-in paper defaults: 16×22 mesh, ts 3, Plen 8, all-to-all, mesh topology,
    /// GABL under FCFS, uniform stochastic workload at the CLI's default
    /// light load, quick fidelity.
    fn default() -> Self {
        PointSettings {
            mesh_w: 16,
            mesh_l: 22,
            ts: 3,
            plen: 8,
            pattern: Pattern::AllToAll,
            topology: TopologyKind::Mesh,
            strategy: StrategyKind::Gabl,
            scheduler: SchedulerKind::Fcfs,
            workload: WorkloadName::Uniform,
            trace: None,
            load: 0.0008,
            num_mes: 5.0,
            runtime_scale: 360.0,
            warmup: 100,
            measured: 400,
            min_reps: 3,
            max_reps: 5,
        }
    }
}

fn knob_str<'v>(v: &'v Value, line: usize, place: &str) -> Result<&'v str, ScenarioError> {
    match v {
        Value::Str(s) => Ok(s),
        other => Err(ScenarioError::new(
            line,
            place,
            format!("expected a quoted string, got {}", other.type_name()),
        )),
    }
}

/// Picks the option of `options` whose `spelling` is the knob's string.
fn knob_choice<T: Copy, const N: usize>(
    v: &Value,
    line: usize,
    place: &str,
    kind: &str,
    options: [T; N],
    spelling: impl Fn(T) -> String,
) -> Result<T, ScenarioError> {
    let name = knob_str(v, line, place)?;
    options.into_iter().find(|&o| spelling(o) == name).ok_or_else(|| {
        let known: Vec<String> = options.into_iter().map(spelling).collect();
        ScenarioError::new(line, place, format!("unknown {kind} {name:?} ({})", known.join(", ")))
    })
}

fn knob_pos_float(v: &Value, line: usize, place: &str) -> Result<f64, ScenarioError> {
    let x = match v {
        Value::Float(f) => *f,
        Value::Int(i) => *i as f64,
        Value::Str(_) => {
            return Err(ScenarioError::new(line, place, "expected a number, got string"))
        }
    };
    // `!(x > 0.0)` also rejects NaN
    if x > 0.0 && x.is_finite() {
        Ok(x)
    } else {
        Err(ScenarioError::new(
            line,
            place,
            format!("must be a positive finite number, got {}", v.render_bare()),
        ))
    }
}

fn knob_uint<T: TryFrom<i64>>(v: &Value, line: usize, place: &str) -> Result<T, ScenarioError> {
    match v {
        Value::Int(i) => T::try_from(*i).map_err(|_| {
            ScenarioError::new(line, place, format!("integer {i} out of range for this knob"))
        }),
        other => Err(ScenarioError::new(
            line,
            place,
            format!("expected an integer, got {}", other.type_name()),
        )),
    }
}

impl PointSettings {
    /// Validates one knob assignment without mutating anything — used by
    /// the parser so errors carry the defining line. (`seed` is listed in
    /// [`KNOBS`] for the spec string but is campaign-level, not a point
    /// knob.)
    pub fn check_knob(key: &str, v: &Value, line: usize, place: &str) -> Result<(), ScenarioError> {
        // apply onto a scratch copy: same validation, result discarded
        let mut scratch = PointSettings::default();
        scratch.apply(key, v, line, place)
    }

    /// Applies one knob assignment with validation.
    pub fn apply(&mut self, key: &str, v: &Value, line: usize, place: &str) -> Result<(), ScenarioError> {
        match key {
            "mesh_w" => self.mesh_w = nonzero(knob_uint::<u16>(v, line, place)?, line, place)?,
            "mesh_l" => self.mesh_l = nonzero(knob_uint::<u16>(v, line, place)?, line, place)?,
            "ts" => self.ts = knob_uint::<u32>(v, line, place)?,
            "plen" => self.plen = nonzero(knob_uint::<u32>(v, line, place)?, line, place)?,
            "pattern" => {
                self.pattern =
                    knob_choice(v, line, place, "pattern", Pattern::ALL, |p| p.to_string())?;
            }
            "topology" => {
                self.topology = knob_str(v, line, place)?
                    .parse::<TopologyKind>()
                    .map_err(|e| ScenarioError::new(line, place, e))?;
            }
            "strategy" => {
                self.strategy = knob_str(v, line, place)?
                    .parse::<StrategyKind>()
                    .map_err(|e| ScenarioError::new(line, place, e))?;
            }
            "scheduler" => {
                self.scheduler = knob_str(v, line, place)?
                    .parse::<SchedulerKind>()
                    .map_err(|e| ScenarioError::new(line, place, e))?;
            }
            "workload" => {
                self.workload =
                    knob_choice(v, line, place, "workload", WorkloadName::ALL, |w| w.name().into())?;
            }
            "trace" => {
                let path = knob_str(v, line, place)?;
                if path.trim().is_empty() {
                    return Err(ScenarioError::new(line, place, "trace path must be non-empty"));
                }
                self.trace = Some(path.to_string());
            }
            "load" => self.load = knob_pos_float(v, line, place)?,
            "num_mes" => self.num_mes = knob_pos_float(v, line, place)?,
            "runtime_scale" => self.runtime_scale = knob_pos_float(v, line, place)?,
            "warmup" => self.warmup = knob_uint::<usize>(v, line, place)?,
            "measured" => self.measured = nonzero(knob_uint::<usize>(v, line, place)?, line, place)?,
            "min_reps" => {
                let n = knob_uint::<usize>(v, line, place)?;
                if n < 2 {
                    return Err(ScenarioError::new(
                        line,
                        place,
                        "min_reps must be >= 2 (a confidence interval needs two samples)",
                    ));
                }
                self.min_reps = n;
            }
            "max_reps" => self.max_reps = nonzero(knob_uint::<usize>(v, line, place)?, line, place)?,
            other => {
                return Err(ScenarioError::new(
                    line,
                    place,
                    format!(
                        "unknown knob {other:?} (known: {})",
                        KNOBS[..KNOBS.len() - 1].join(", ")
                    ),
                ))
            }
        }
        Ok(())
    }

    /// Cross-knob validation after precedence resolution.
    pub fn validate(&self, place: &str) -> Result<(), ScenarioError> {
        if self.workload == WorkloadName::Trace && self.trace.is_none() {
            return Err(ScenarioError::new(
                0,
                place,
                "workload \"trace\" needs a `trace` knob naming the SWF file",
            ));
        }
        if self.max_reps < self.min_reps {
            return Err(ScenarioError::new(
                0,
                place,
                format!(
                    "max_reps ({}) < min_reps ({}) after overrides",
                    self.max_reps, self.min_reps
                ),
            ));
        }
        let nodes = u32::from(self.mesh_w) * u32::from(self.mesh_l);
        if nodes > MAX_MESH_NODES {
            return Err(ScenarioError::new(
                0,
                place,
                format!(
                    "mesh_w x mesh_l = {} x {} = {nodes} processors, more than the limit of {MAX_MESH_NODES} (2^20)",
                    self.mesh_w, self.mesh_l
                ),
            ));
        }
        if let StrategyKind::Paging { size_index, .. } = self.strategy {
            let side = 1u32 << size_index;
            if side > u32::from(self.mesh_w.min(self.mesh_l)) {
                return Err(ScenarioError::new(
                    0,
                    place,
                    format!(
                        "strategy \"{}\" pages are {side} x {side}, larger than the {} x {} mesh",
                        self.strategy.spelling(),
                        self.mesh_w,
                        self.mesh_l
                    ),
                ));
            }
        }
        Ok(())
    }

    /// The canonical rendered spelling of one knob, as it would appear
    /// in a scenario file (used for knob-named output columns and the
    /// spec string).
    pub fn knob_value(&self, key: &str) -> Option<String> {
        Some(match key {
            "mesh_w" => self.mesh_w.to_string(),
            "mesh_l" => self.mesh_l.to_string(),
            "ts" => self.ts.to_string(),
            "plen" => self.plen.to_string(),
            "pattern" => self.pattern.to_string(),
            "topology" => self.topology.to_string(),
            "strategy" => self.strategy.spelling(),
            "scheduler" => self.scheduler.spelling(),
            "workload" => self.workload.name().to_string(),
            "trace" => self.trace.clone().unwrap_or_default(),
            "load" => render_float(self.load),
            "num_mes" => render_float(self.num_mes),
            "runtime_scale" => render_float(self.runtime_scale),
            "warmup" => self.warmup.to_string(),
            "measured" => self.measured.to_string(),
            "min_reps" => self.min_reps.to_string(),
            "max_reps" => self.max_reps.to_string(),
            _ => return None,
        })
    }

    /// Builds the [`SimConfig`] of this point (its workload spec and
    /// simulator knobs; `seed` is the derived per-point seed). `trace` is
    /// the opened file of a `trace`-workload point (see
    /// [`crate::campaign::CampaignPoint::trace`]); a trace
    /// point replays at most one pass over it per replication, so its
    /// job budget is capped to the trace's length.
    pub fn sim_config(&self, seed: u64, trace: Option<&Arc<TraceWorkload>>) -> SimConfig {
        let (mut warmup, mut measured) = (self.warmup, self.measured);
        let workload = match self.workload {
            WorkloadName::Uniform => WorkloadSpec::Stochastic {
                sides: SideDist::Uniform,
                load: self.load,
                num_mes: self.num_mes,
            },
            WorkloadName::Exponential => WorkloadSpec::Stochastic {
                sides: SideDist::Exponential,
                load: self.load,
                num_mes: self.num_mes,
            },
            WorkloadName::Paragon => WorkloadSpec::SyntheticTrace {
                model: ParagonModel::default(),
                load: self.load,
                runtime_scale: self.runtime_scale,
            },
            WorkloadName::Cm5 => WorkloadSpec::SyntheticCm5 {
                model: Cm5Model::default(),
                load: self.load,
                runtime_scale: self.runtime_scale,
            },
            WorkloadName::Trace => {
                // procsim-lint: allow(D004): invariant: expand opens the file of every trace point, and validate rejects a trace point without one
                let trace = trace.expect("invariant: trace point without its opened file");
                (warmup, measured) = trace.capped_budget(warmup, measured);
                WorkloadSpec::Trace {
                    trace: trace.clone(),
                    load: self.load,
                    runtime_scale: self.runtime_scale,
                }
            }
        };
        let mut cfg = SimConfig::paper(self.strategy, self.scheduler, workload, seed);
        cfg.mesh_w = self.mesh_w;
        cfg.mesh_l = self.mesh_l;
        cfg.ts = self.ts;
        cfg.plen = self.plen;
        cfg.pattern = self.pattern;
        cfg.topology = self.topology;
        cfg.warmup_jobs = warmup;
        cfg.measured_jobs = measured;
        cfg
    }
}

fn nonzero<T: PartialEq + From<u8> + core::fmt::Display>(
    v: T,
    line: usize,
    place: &str,
) -> Result<T, ScenarioError> {
    if v == T::from(0u8) {
        Err(ScenarioError::new(line, place, "must be non-zero"))
    } else {
        Ok(v)
    }
}
