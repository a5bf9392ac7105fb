//! The project-specific rule catalogue and the token-stream scanners.
//!
//! Each rule is a lexical heuristic, not a type-checked analysis: the
//! build environment is offline (no `syn`), so the scanners work on the
//! token stream from [`crate::lexer`] plus path-based context. The
//! heuristics are tuned so that every construct they can miss is also a
//! construct this workspace does not use; the fixture tests under
//! `tests/fixtures/` pin the exact behaviour.

use crate::lexer::{Tok, TokKind};

/// Static description of one rule, printed by `--explain`.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule id (`D001`...).
    pub id: &'static str,
    /// One-line summary.
    pub summary: &'static str,
    /// Multi-paragraph rationale and remediation guidance.
    pub explain: &'static str,
}

/// The rule catalogue. `P001`/`P002` police the pragma mechanism itself
/// so suppressions cannot rot silently.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "D001",
        summary: "unordered HashMap/HashSet iteration in simulation code",
        explain: "Iterating a std HashMap or HashSet observes RandomState-seeded \
bucket order, which differs between processes. Any such order that escapes \
into simulation results (scheduling candidate lists, metric accumulation, \
output rows) breaks the bit-identical replay contract that every golden CSV \
and the old-vs-new engine equivalence oracle rely on.\n\n\
Flags `for _ in &map`, `.iter()`, `.iter_mut()`, `.keys()`, `.values()`, \
`.values_mut()`, `.drain()`, `.into_iter()`, `.into_keys()`, `.into_values()` \
and `.retain()` on bindings/fields declared as HashMap/HashSet.\n\n\
Fix: switch the container to BTreeMap/BTreeSet or a sorted Vec index, or \
prove the iteration order cannot escape (e.g. the fold is commutative AND \
exact, like integer addition) and suppress with a written reason.",
    },
    RuleInfo {
        id: "D002",
        summary: "wall-clock or entropy leakage into simulation logic",
        explain: "Simulation state must be a pure function of (config, seed, rep). \
`SystemTime`, `Instant::now`, `thread_rng` and `from_entropy` smuggle the \
host's clock or entropy pool into that function. Timing instrumentation is \
legitimate only in binary front-ends, which report wall-clock to humans \
without feeding it back into results.\n\n\
Fix: thread a `SimRng` substream or the simulation clock through instead; \
for front-end stopwatch code, keep it in a binary target, or suppress \
with a reason explaining why the value cannot reach results.",
    },
    RuleInfo {
        id: "D003",
        summary: "order-sensitive floating-point reduction outside simstats",
        explain: "Float addition is not associative: `.sum::<f64>()` or a float \
`fold` over an unordered or refactoring-sensitive sequence can change the \
last ulp when iteration order changes, which is enough to flip a comparison \
and fork the simulation timeline. The blessed reducers live in `simstats` \
(Welford mean/variance, time-weighted averages) and are documented \
deterministic for a fixed input order.\n\n\
Flags `.sum::<f64>()`, `.sum::<f32>()`, and `.fold(<float literal>, ...)` \
outside `crates/simstats`.\n\n\
Fix: push values through `simstats::Welford`/`TimeWeighted`, or prove the \
source order is deterministic (e.g. a sorted Vec walked front to back) and \
suppress with that proof as the reason.",
    },
    RuleInfo {
        id: "D004",
        summary: "unwrap()/expect() in library code",
        explain: "A panic in library code tears down whole replication batches and \
turns recoverable input problems (malformed trace lines, impossible \
configs) into aborts. Library crates must return Result for fallible \
operations; panics are acceptable only for genuine internal invariants, \
and then must say so.\n\n\
Flags `.unwrap()` and `.expect(...)` in library targets (not tests, \
benches, examples, or binaries).\n\n\
Fix: convert parse/IO-adjacent sites to proper error returns. For true \
invariants, write `expect(\"invariant: ...\")` describing what guarantees \
the value exists, and suppress with the reason restating the guarantee.",
    },
    RuleInfo {
        id: "D005",
        summary: "truncating `as` cast in index/size arithmetic",
        explain: "`len() as u16` silently truncates once the collection outgrows \
the target type, corrupting ranks, packet tags, or mesh coordinates \
without any diagnostic — the failure shows up later as a wrong simulation \
result, not a crash. Flags `as u8/u16/u32/i8/i16/i32` when the casted \
expression mentions a size-ish identifier (len, size, count, idx, index, \
pos, rank, width, length, capacity, offset).\n\n\
Fix: use `try_from(...)` + `expect(\"invariant: ...\")` so overflow panics \
at the cast, or suppress with a reason bounding the value (e.g. \"mesh \
side <= 256 by construction\").",
    },
    RuleInfo {
        id: "P001",
        summary: "malformed suppression pragma",
        explain: "A `procsim-lint:` marker was found but the pragma does not parse \
as `allow(Dxxx[, Dyyy...]): reason` with a non-empty reason and known rule \
ids. A suppression without a written reason is indistinguishable from a \
silenced bug; the linter refuses to honour it.",
    },
    RuleInfo {
        id: "P002",
        summary: "unused suppression pragma",
        explain: "A well-formed pragma suppressed nothing: no finding of the named \
rule exists on its line or the line below. Stale pragmas hide future \
regressions (the rule they name could fire elsewhere on the line after a \
refactor and be wrongly silenced), so they must be deleted when the code \
they excused goes away.",
    },
];

/// Is `id` a rule id this linter knows?
pub fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// Looks up a rule by id.
pub fn rule_info(id: &str) -> Option<&'static RuleInfo> {
    RULES.iter().find(|r| r.id == id)
}

/// The determinism/robustness rules that scan code (excludes P00x).
pub const CODE_RULES: [&str; 5] = ["D001", "D002", "D003", "D004", "D005"];

/// Path-derived context for one file, controlling rule applicability.
#[derive(Debug, Clone, Default)]
pub struct FileCtx {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// `crates/<name>/...` -> `<name>`; `None` for the root facade.
    pub crate_name: Option<String>,
    /// Under a `tests/` directory (integration tests).
    pub in_tests: bool,
    /// Under a `benches/` directory.
    pub in_benches: bool,
    /// Under an `examples/` directory.
    pub in_examples: bool,
    /// A binary target: under `src/bin/` or a `main.rs`.
    pub is_bin: bool,
}

impl FileCtx {
    /// Classifies a workspace-relative path.
    pub fn classify(rel: &str) -> FileCtx {
        let parts: Vec<&str> = rel.split('/').collect();
        let crate_name = if parts.len() >= 2 && parts[0] == "crates" {
            Some(parts[1].to_string())
        } else {
            None
        };
        FileCtx {
            rel: rel.to_string(),
            crate_name,
            in_tests: parts.contains(&"tests"),
            in_benches: parts.contains(&"benches"),
            in_examples: parts.contains(&"examples"),
            is_bin: parts.contains(&"bin") || parts.last() == Some(&"main.rs"),
        }
    }

    /// Any target whose code never feeds simulation results directly:
    /// tests, benches, examples.
    fn is_test_like(&self) -> bool {
        self.in_tests || self.in_benches || self.in_examples
    }

    /// May this file use wall-clock timing (D002's Instant/SystemTime
    /// carve-out)? Binary front-ends report elapsed time to humans; the
    /// value never reaches simulation state.
    fn may_use_wall_clock(&self) -> bool {
        self.is_bin
    }
}

/// One raw rule hit (before pragma matching / level assignment).
#[derive(Debug, Clone)]
pub struct RawFinding {
    /// Rule id.
    pub rule: &'static str,
    /// 1-based line.
    pub line: u32,
    /// Human message naming the offending construct.
    pub msg: String,
}

/// Marks every token inside `#[cfg(test)]`/`#[test]` items. Returns a
/// per-token mask. The heuristic treats any attribute whose token list
/// contains the identifier `test` as a test gate, then masks the next
/// brace-delimited item.
pub fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].text == "#" && i + 1 < toks.len() && toks[i + 1].text == "[" {
            // scan the attribute for `test`
            let mut depth = 0i32;
            let mut j = i + 1;
            let mut is_test_attr = false;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    // `test` marks a test gate unless negated: cfg(not(test))
                    "test"
                        if toks[j].kind == TokKind::Ident
                            && !(j >= 2
                                && toks[j - 1].text == "("
                                && toks[j - 2].text == "not") =>
                    {
                        is_test_attr = true
                    }
                    _ => {}
                }
                j += 1;
            }
            if !is_test_attr {
                i = j + 1;
                continue;
            }
            // skip any further attributes, then mask through the item's
            // closing brace (or to the `;` of a brace-less item)
            let mut k = j + 1;
            while k + 1 < toks.len() && toks[k].text == "#" && toks[k + 1].text == "[" {
                let mut d = 0i32;
                let mut m = k + 1;
                while m < toks.len() {
                    match toks[m].text.as_str() {
                        "[" => d += 1,
                        "]" => {
                            d -= 1;
                            if d == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    m += 1;
                }
                k = m + 1;
            }
            let mut brace = 0i32;
            let mut m = k;
            let start = i;
            while m < toks.len() {
                match toks[m].text.as_str() {
                    "{" => brace += 1,
                    "}" => {
                        brace -= 1;
                        if brace == 0 {
                            break;
                        }
                    }
                    ";" if brace == 0 => break,
                    _ => {}
                }
                m += 1;
            }
            for slot in mask.iter_mut().take(m.min(toks.len() - 1) + 1).skip(start) {
                *slot = true;
            }
            i = m + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// Methods whose call on a hash container observes bucket order.
const ORDER_METHODS: [&str; 11] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
    "extract_if",
];

/// Identifier fragments that mark an expression as index/size
/// arithmetic for D005 when casting into a sub-32-bit type (where even
/// a u16 mesh coordinate can truncate).
const SIZE_IDENTS: [&str; 11] = [
    "len", "size", "count", "idx", "index", "pos", "rank", "width", "length", "capacity",
    "offset",
];

/// The subset that (in this workspace) produces usize-width values —
/// collection lengths and counts — and therefore can truncate even
/// into u32/i32. Coordinate-ish names (width, rank, idx...) are u16/u32
/// by construction here, so a cast to u32 from them is widening.
const USIZE_IDENTS: [&str; 4] = ["len", "size", "count", "capacity"];

/// Integer target types a D005 cast may silently truncate into.
const NARROW_INTS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// Collects the names of bindings/fields declared with a HashMap or
/// HashSet type in this token stream (via `: ... HashMap<...>`
/// annotations or `= HashMap::new()`-style initialisers).
fn hash_container_names(toks: &[Tok]) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || (t.text != "HashMap" && t.text != "HashSet") {
            continue;
        }
        // walk backwards over type scaffolding / wrapper idents until a
        // `:` (type annotation) or `=` (initialiser) is found, then take
        // the identifier before it as the declared name
        let mut j = i;
        let mut steps = 0;
        let mut anchor: Option<usize> = None;
        while j > 0 && steps < 24 {
            j -= 1;
            steps += 1;
            match toks[j].text.as_str() {
                ":" | "=" => {
                    anchor = Some(j);
                    break;
                }
                "<" | ">" | "," | "::" | "&" | "(" => continue,
                _ if toks[j].kind == TokKind::Ident || toks[j].kind == TokKind::Lifetime => {
                    continue
                }
                _ => break,
            }
        }
        let Some(a) = anchor else { continue };
        let mut k = a;
        while k > 0 {
            k -= 1;
            let t = &toks[k];
            if t.kind == TokKind::Ident {
                if t.text == "mut" {
                    continue;
                }
                if !names.contains(&t.text) {
                    names.push(t.text.clone());
                }
            }
            break;
        }
    }
    names
}

/// Runs every applicable code rule over one file's token stream.
pub fn scan(ctx: &FileCtx, toks: &[Tok]) -> Vec<RawFinding> {
    let mask = test_mask(toks);
    let mut out: Vec<RawFinding> = Vec::new();
    let test_like = ctx.is_test_like();

    // ---- D001: unordered container iteration ------------------------
    if !test_like {
        let names = hash_container_names(toks);
        for i in 0..toks.len() {
            if mask[i] {
                continue;
            }
            let t = &toks[i];
            // receiver.method(...) where receiver is a known hash container
            if t.kind == TokKind::Ident
                && names.contains(&t.text)
                && i + 3 < toks.len()
                && toks[i + 1].text == "."
                && ORDER_METHODS.contains(&toks[i + 2].text.as_str())
                && toks[i + 3].text == "("
            {
                out.push(RawFinding {
                    rule: "D001",
                    line: toks[i + 2].line,
                    msg: format!(
                        "`{}.{}()` iterates a HashMap/HashSet in RandomState order",
                        t.text, toks[i + 2].text
                    ),
                });
            }
            // for pat in &container { ... }
            if t.kind == TokKind::Ident && t.text == "for" {
                // find the matching `in` within this header
                let mut j = i + 1;
                let mut depth = 0i32;
                while j < toks.len() && j < i + 40 {
                    match toks[j].text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "in" if depth == 0 && toks[j].kind == TokKind::Ident => break,
                        _ => {}
                    }
                    j += 1;
                }
                if j >= toks.len() || toks[j].text != "in" {
                    continue;
                }
                // skip `&`, `mut`, `self`, `.` to reach the iterated name
                let mut k = j + 1;
                while k < toks.len()
                    && (toks[k].text == "&"
                        || toks[k].text == "mut"
                        || toks[k].text == "self"
                        || toks[k].text == ".")
                {
                    k += 1;
                }
                if k + 1 < toks.len()
                    && toks[k].kind == TokKind::Ident
                    && names.contains(&toks[k].text)
                    && toks[k + 1].text == "{"
                {
                    out.push(RawFinding {
                        rule: "D001",
                        line: toks[k].line,
                        msg: format!(
                            "`for .. in &{}` iterates a HashMap/HashSet in RandomState order",
                            toks[k].text
                        ),
                    });
                }
            }
        }
    }

    // ---- D002: wall-clock / entropy leakage -------------------------
    if !test_like {
        for i in 0..toks.len() {
            if mask[i] || toks[i].kind != TokKind::Ident {
                continue;
            }
            match toks[i].text.as_str() {
                "Instant" | "SystemTime" => {
                    if ctx.may_use_wall_clock() {
                        continue;
                    }
                    // flag uses, not mere `use` imports — an import alone
                    // is dead until a call site exists, and the call site
                    // is where the leak happens
                    let used_here = i + 2 < toks.len()
                        && toks[i + 1].text == "::"
                        && toks[i + 2].kind == TokKind::Ident
                        && toks[i + 2].text != "now"; // `now` matched below too
                    let now_call = i + 2 < toks.len()
                        && toks[i + 1].text == "::"
                        && toks[i + 2].text == "now";
                    if now_call || used_here {
                        out.push(RawFinding {
                            rule: "D002",
                            line: toks[i].line,
                            msg: format!(
                                "`{}::{}` leaks host wall-clock into simulation code",
                                toks[i].text, toks[i + 2].text
                            ),
                        });
                    }
                }
                "thread_rng" | "from_entropy" => {
                    out.push(RawFinding {
                        rule: "D002",
                        line: toks[i].line,
                        msg: format!(
                            "`{}` seeds from OS entropy; simulation randomness must come \
                             from the seeded SimRng streams",
                            toks[i].text
                        ),
                    });
                }
                _ => {}
            }
        }
    }

    // ---- D003: order-sensitive float reductions ---------------------
    if !test_like && ctx.crate_name.as_deref() != Some("simstats") {
        for i in 0..toks.len() {
            if mask[i] {
                continue;
            }
            // .sum::<f64>() / .sum::<f32>()
            if toks[i].text == "sum"
                && i >= 1
                && toks[i - 1].text == "."
                && i + 4 < toks.len()
                && toks[i + 1].text == "::"
                && toks[i + 2].text == "<"
                && (toks[i + 3].text == "f64" || toks[i + 3].text == "f32")
            {
                out.push(RawFinding {
                    rule: "D003",
                    line: toks[i].line,
                    msg: format!(
                        "`.sum::<{}>()` is an order-sensitive float reduction; use the \
                         simstats reducers or prove the input order is deterministic",
                        toks[i + 3].text
                    ),
                });
            }
            // .fold(<float literal>, ...)
            if toks[i].text == "fold"
                && i >= 1
                && toks[i - 1].text == "."
                && i + 2 < toks.len()
                && toks[i + 1].text == "("
                && toks[i + 2].kind == TokKind::Number
                && is_float_literal(&toks[i + 2].text)
            {
                out.push(RawFinding {
                    rule: "D003",
                    line: toks[i].line,
                    msg: "float `.fold(..)` is an order-sensitive reduction; use the \
                          simstats reducers or prove the input order is deterministic"
                        .to_string(),
                });
            }
        }
    }

    // ---- D004: unwrap/expect in library code ------------------------
    if !test_like && !ctx.is_bin {
        for i in 0..toks.len() {
            if mask[i] {
                continue;
            }
            if toks[i].kind == TokKind::Ident
                && (toks[i].text == "unwrap" || toks[i].text == "expect")
                && i >= 1
                && toks[i - 1].text == "."
                && i + 1 < toks.len()
                && toks[i + 1].text == "("
            {
                out.push(RawFinding {
                    rule: "D004",
                    line: toks[i].line,
                    msg: format!(
                        "`.{}(..)` in library code panics instead of returning an error",
                        toks[i].text
                    ),
                });
            }
        }
    }

    // ---- D005: truncating casts in index/size arithmetic ------------
    if !test_like {
        for i in 0..toks.len() {
            if mask[i] {
                continue;
            }
            if !(toks[i].kind == TokKind::Ident && toks[i].text == "as") {
                continue;
            }
            let Some(target) = toks.get(i + 1) else { continue };
            if !(target.kind == TokKind::Ident && NARROW_INTS.contains(&target.text.as_str())) {
                continue;
            }
            // look back through the casted expression for a size-ish
            // name; 32-bit targets only truncate usize-width sources
            let idents: &[&str] = if target.text == "u32" || target.text == "i32" {
                &USIZE_IDENTS
            } else {
                &SIZE_IDENTS
            };
            let mut j = i;
            let mut steps = 0;
            let mut hit: Option<String> = None;
            while j > 0 && steps < 10 {
                j -= 1;
                steps += 1;
                let t = &toks[j];
                if matches!(t.text.as_str(), ";" | "{" | "}" | "," | "=" | "->") {
                    break;
                }
                if t.kind == TokKind::Ident
                    && idents.iter().any(|s| {
                        let lower = t.text.to_ascii_lowercase();
                        lower == *s || lower.ends_with(&format!("_{s}"))
                    })
                {
                    hit = Some(t.text.clone());
                    break;
                }
            }
            if let Some(name) = hit {
                out.push(RawFinding {
                    rule: "D005",
                    line: toks[i].line,
                    msg: format!(
                        "`{} .. as {}` may silently truncate index/size arithmetic; \
                         use try_from or bound the value in a suppression reason",
                        name, target.text
                    ),
                });
            }
        }
    }

    out.sort_by_key(|f| (f.line, f.rule));
    out
}

/// Is this number token a float literal (fractional part, exponent, or
/// an explicit fXX suffix)?
fn is_float_literal(text: &str) -> bool {
    text.contains('.') || text.ends_with("f64") || text.ends_with("f32")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scan_lib(src: &str) -> Vec<RawFinding> {
        let ctx = FileCtx::classify("crates/core/src/example.rs");
        scan(&ctx, &lex(src).toks)
    }

    #[test]
    fn hash_names_found_in_fields_and_lets() {
        let src = "struct S { live: HashMap<u64, V>, cache: Mutex<HashMap<K, V>> }\n\
                   fn f() { let mut seen = HashSet::new(); let x: HashMap<A, B> = d; }";
        let names = hash_container_names(&lex(src).toks);
        assert!(names.contains(&"live".to_string()));
        assert!(names.contains(&"cache".to_string()));
        assert!(names.contains(&"seen".to_string()));
        assert!(names.contains(&"x".to_string()));
    }

    #[test]
    fn d001_flags_iteration_not_lookup() {
        let hits = scan_lib(
            "struct S { live: HashMap<u64, V> }\n\
             impl S { fn f(&self) { for v in self.live.values() { use_(v); } \
             let x = self.live.get(&3); } }",
        );
        assert_eq!(hits.iter().filter(|f| f.rule == "D001").count(), 1);
    }

    #[test]
    fn d005_requires_size_context() {
        let hits = scan_lib("fn f(v: &[u8]) { let a = v.len() as u32; let b = FLAG as u32; }");
        let d5: Vec<_> = hits.iter().filter(|f| f.rule == "D005").collect();
        assert_eq!(d5.len(), 1, "{d5:?}");
    }

    #[test]
    fn test_mask_hides_cfg_test_mod() {
        let src = "fn lib() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests { fn t() { y.unwrap(); } }";
        let hits = scan_lib(src);
        assert_eq!(hits.iter().filter(|f| f.rule == "D004").count(), 1);
    }
}
