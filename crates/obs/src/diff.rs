//! Cross-run comparison: reduce two runs (JSONL traces or `BENCH_*.json`
//! baselines) to flat `(section, key, value)` samples, compare them under
//! a declarative tolerance spec, and report regressions — the library half
//! of the `obs-diff` binary.
//!
//! # Sections and sidedness
//!
//! Samples are grouped into sections, which the tolerance spec addresses
//! by name:
//!
//! | section           | source                              | sidedness |
//! |-------------------|-------------------------------------|-----------|
//! | `counters`        | trace / BENCH obs counters          | two-sided |
//! | `hists`           | trace / BENCH obs histograms        | two-sided |
//! | `evals_per_round` | BENCH `evals_per_round` block       | one-sided |
//! | `figures`         | BENCH per-figure wall-clock seconds | one-sided |
//! | `kernels`         | BENCH kernel timings                | one-sided |
//!
//! Two-sided sections regress when a value moves in *either* direction
//! past tolerance (behavior drift); one-sided sections regress only on
//! increase (perf: faster is never a regression).
//!
//! # Tolerance spec
//!
//! A small TOML subset: top-level `default_rel` / `default_abs`, one table
//! per section with its own defaults and per-key overrides. Values are
//! numbers, `"inf"` (report-only: never regress), or inline tables
//! `{ rel = ..., abs = ... }`. A key regresses when
//! `|new - base| > abs + rel * |base|` (one-sided drops the `| |` on the
//! left). Per-key lookup tries the exact key, then the key without its
//! `fig/` prefix, then without a trailing `.sub` field — so
//! `"nps.round_evals" = { rel = 0.2 }` covers every figure and subfield.
//!
//! ```toml
//! default_rel = 0.1
//! default_abs = 1e-9
//!
//! [counters]
//! default_rel = 0.0          # deterministic: any drift is a regression
//! "chaos.retries" = { rel = 0.5 }
//!
//! [kernels]
//! default_rel = "inf"        # report-only
//! ```
//!
//! Keys present on only one side are reported but never regress — new
//! counters legitimately appear as instrumentation grows.

use crate::export::TraceLine;
use std::collections::BTreeMap;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Minimal recursive JSON parser (the vendored serde is a no-op stub, and
// BENCH files are nested — export::parse_line's flat parser cannot read
// them).

/// A parsed JSON value. Objects preserve insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Nesting limit of [`parse_json`]. `BENCH_*.json` nests a few levels; the
/// limit only exists so hostile input returns an error instead of
/// overflowing the stack of this recursive-descent parser.
pub const MAX_JSON_DEPTH: usize = 128;

struct JsonParser<'a> {
    text: &'a str,
    src: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> JsonParser<'a> {
    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.peek() {
            Some(c) if c == want => {
                self.pos += 1;
                Ok(())
            }
            other => Err(format!(
                "byte {}: expected {:?}, found {:?}",
                self.pos,
                want as char,
                other.map(|c| c as char)
            )),
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_JSON_DEPTH {
                    return Err(format!(
                        "byte {}: nested deeper than {MAX_JSON_DEPTH} levels",
                        self.pos
                    ));
                }
                self.depth += 1;
                let value = if open == b'{' {
                    self.parse_object()
                } else {
                    self.parse_array()
                };
                self.depth -= 1;
                value
            }
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'n') => self.parse_literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(format!(
                "byte {}: unexpected {:?}",
                self.pos,
                other.map(|c| c as char)
            )),
        }
    }

    fn parse_literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.src[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("byte {}: bad literal", self.pos))
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(c) if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("ascii");
        text.parse()
            .map(Json::Num)
            .map_err(|_| format!("byte {start}: bad number {text:?}"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .src
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).ok_or("non-scalar \\u escape")?);
                            self.pos += 4;
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // The input is a `&str`, so the next char decodes in
                    // place; `pos` only ever stops on char boundaries.
                    let c = self
                        .text
                        .get(self.pos..)
                        .and_then(|rest| rest.chars().next())
                        .ok_or_else(|| format!("byte {}: not a char boundary", self.pos))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => {
                    return Err(format!(
                        "byte {}: expected ',' or '}}', found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => {
                    return Err(format!(
                        "byte {}: expected ',' or ']', found {:?}",
                        self.pos,
                        other.map(|c| c as char)
                    ))
                }
            }
        }
    }
}

/// Parse one JSON document (arbitrarily nested, unlike the flat trace-line
/// parser in [`crate::parse_line`]).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = JsonParser {
        text,
        src: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(format!("byte {}: trailing content", p.pos));
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Tolerance spec.

/// Allowed movement for one key: regress when the change exceeds
/// `abs + rel * |base|`. `rel = inf` marks a report-only key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    pub rel: f64,
    pub abs: f64,
}

impl Tolerance {
    pub fn limit(&self, base: f64) -> f64 {
        self.abs + self.rel * base.abs()
    }
}

#[derive(Debug, Default, Clone)]
struct Section {
    default: Option<Tolerance>,
    per_key: BTreeMap<String, Tolerance>,
}

/// A parsed tolerance spec: global defaults, per-section defaults, and
/// per-key overrides (see the module docs for the format).
#[derive(Debug, Clone)]
pub struct ToleranceSpec {
    default: Tolerance,
    sections: BTreeMap<String, Section>,
}

impl Default for ToleranceSpec {
    /// The built-in spec when no file is given: 10 % relative slack
    /// everywhere, exactness on counters (they are deterministic in this
    /// workspace).
    fn default() -> Self {
        let mut sections = BTreeMap::new();
        sections.insert(
            "counters".to_string(),
            Section {
                default: Some(Tolerance { rel: 0.0, abs: 0.0 }),
                per_key: BTreeMap::new(),
            },
        );
        ToleranceSpec {
            default: Tolerance {
                rel: 0.1,
                abs: 1e-9,
            },
            sections,
        }
    }
}

fn parse_tol_number(raw: &str) -> Result<f64, String> {
    let raw = raw.trim().trim_matches('"');
    if raw.eq_ignore_ascii_case("inf") {
        return Ok(f64::INFINITY);
    }
    raw.parse()
        .map_err(|_| format!("bad tolerance value {raw:?}"))
}

/// Parse `rel`/`abs` out of either a bare number (`0.1` → rel) or an
/// inline table (`{ rel = 0.1, abs = 2 }`).
fn parse_tol_value(raw: &str, defaults: Tolerance) -> Result<Tolerance, String> {
    let raw = raw.trim();
    if let Some(inner) = raw.strip_prefix('{').and_then(|r| r.strip_suffix('}')) {
        let mut tol = defaults;
        for part in inner.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (k, v) = part
                .split_once('=')
                .ok_or_else(|| format!("bad inline table entry {part:?}"))?;
            match k.trim() {
                "rel" => tol.rel = parse_tol_number(v)?,
                "abs" => tol.abs = parse_tol_number(v)?,
                other => return Err(format!("unknown inline table key {other:?}")),
            }
        }
        Ok(tol)
    } else {
        Ok(Tolerance {
            rel: parse_tol_number(raw)?,
            ..defaults
        })
    }
}

impl ToleranceSpec {
    /// Parse the TOML subset described in the module docs.
    pub fn parse(text: &str) -> Result<ToleranceSpec, String> {
        let mut spec = ToleranceSpec {
            default: Tolerance {
                rel: 0.1,
                abs: 1e-9,
            },
            sections: BTreeMap::new(),
        };
        let mut current: Option<String> = None;
        for (i, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let at = |e: String| format!("line {}: {e}", i + 1);
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let name = name.trim();
                spec.sections.entry(name.to_string()).or_default();
                current = Some(name.to_string());
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| at(format!("expected `key = value`, got {line:?}")))?;
            let key = key.trim().trim_matches('"').to_string();
            let value = value.trim();
            match (&current, key.as_str()) {
                (None, "default_rel") => spec.default.rel = parse_tol_number(value).map_err(at)?,
                (None, "default_abs") => spec.default.abs = parse_tol_number(value).map_err(at)?,
                (None, other) => {
                    return Err(at(format!("unknown top-level key {other:?}")));
                }
                (Some(section), _) => {
                    let defaults = spec.default;
                    let sec = spec.sections.get_mut(section).expect("entered above");
                    match key.as_str() {
                        "default_rel" => {
                            let d = sec.default.get_or_insert(defaults);
                            d.rel = parse_tol_number(value).map_err(at)?;
                        }
                        "default_abs" => {
                            let d = sec.default.get_or_insert(defaults);
                            d.abs = parse_tol_number(value).map_err(at)?;
                        }
                        _ => {
                            let base = sec.default.unwrap_or(defaults);
                            sec.per_key
                                .insert(key, parse_tol_value(value, base).map_err(at)?);
                        }
                    }
                }
            }
        }
        Ok(spec)
    }

    /// Resolve the tolerance for `key` in `section`: exact key, then the
    /// key without its `fig/` prefix, then each of those without a
    /// trailing `.field`, then the section default, then the global one.
    pub fn lookup(&self, section: &str, key: &str) -> Tolerance {
        let sec = self.sections.get(section);
        if let Some(sec) = sec {
            let mut candidates: Vec<&str> = vec![key];
            let unprefixed = key.split_once('/').map(|(_, rest)| rest);
            if let Some(u) = unprefixed {
                candidates.push(u);
            }
            if let Some((stem, _)) = key.rsplit_once('.') {
                candidates.push(stem);
            }
            if let Some(u) = unprefixed {
                if let Some((stem, _)) = u.rsplit_once('.') {
                    candidates.push(stem);
                }
            }
            for c in candidates {
                if let Some(tol) = sec.per_key.get(c) {
                    return *tol;
                }
            }
            if let Some(d) = sec.default {
                return d;
            }
        }
        self.default
    }
}

// ---------------------------------------------------------------------------
// Sample extraction.

/// One comparable scalar from a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Tolerance-spec section (`counters`, `hists`, `evals_per_round`,
    /// `figures`, `kernels`).
    pub section: &'static str,
    pub key: String,
    pub value: f64,
    /// One-sided sections regress only on increase.
    pub one_sided: bool,
}

fn sample(section: &'static str, key: String, value: f64, one_sided: bool) -> Option<Sample> {
    value.is_finite().then_some(Sample {
        section,
        key,
        value,
        one_sided,
    })
}

/// Reduce one parsed trace to samples, prefixing keys with `fig/` so
/// multi-trace runs stay disjoint. Wall-clock (`*_ns`) histograms never
/// appear in traces, so everything here is deterministic and two-sided.
pub fn samples_from_trace(fig: &str, lines: &[TraceLine]) -> Vec<Sample> {
    let mut out = Vec::new();
    for line in lines {
        match line {
            TraceLine::Counter { metric, value } => {
                out.extend(sample(
                    "counters",
                    format!("{fig}/{metric}"),
                    *value as f64,
                    false,
                ));
            }
            TraceLine::Hist {
                metric,
                count,
                sum,
                quantiles,
                ..
            } => {
                let key = |f: &str| format!("{fig}/{metric}.{f}");
                out.extend(sample("hists", key("count"), *count as f64, false));
                out.extend(sample(
                    "hists",
                    key("mean"),
                    sum / (*count).max(1) as f64,
                    false,
                ));
                if let Some([p50, p90, p95, p99]) = quantiles {
                    out.extend(sample("hists", key("p50"), *p50, false));
                    out.extend(sample("hists", key("p90"), *p90, false));
                    out.extend(sample("hists", key("p95"), *p95, false));
                    out.extend(sample("hists", key("p99"), *p99, false));
                }
            }
            _ => {}
        }
    }
    out
}

/// Reduce one parsed `BENCH_*.json` baseline to samples. Handles schema 2
/// (no obs block) through schema 4 — absent blocks simply contribute
/// nothing, and the shared-key comparison skips the rest.
pub fn samples_from_bench(bench: &Json) -> Result<Vec<Sample>, String> {
    if bench.get("schema").and_then(Json::as_num).is_none() {
        return Err("not a BENCH baseline: no numeric \"schema\" field".to_string());
    }
    let mut out = Vec::new();
    if let Some(kernels) = bench.get("kernels").and_then(Json::as_obj) {
        for (name, stats) in kernels {
            for field in ["mean_s", "median_s", "trimmed_mean_s", "p95_s"] {
                if let Some(v) = stats.get(field) {
                    let short = field.strip_suffix("_s").expect("static suffix");
                    out.extend(sample(
                        "kernels",
                        format!("{name}.{short}"),
                        v.as_num().unwrap_or(f64::NAN),
                        true,
                    ));
                }
            }
        }
    }
    if let Some(evals) = bench.get("evals_per_round").and_then(Json::as_obj) {
        for (fig, stats) in evals {
            if let Some(fields) = stats.as_obj() {
                for (field, v) in fields {
                    out.extend(sample(
                        "evals_per_round",
                        format!("{fig}.{field}"),
                        v.as_num().unwrap_or(f64::NAN),
                        // More rounds is not a regression; more evals per
                        // round is.
                        field != "rounds",
                    ));
                }
            }
        }
    }
    if let Some(figures) = bench.get("figures").and_then(Json::as_obj) {
        for (fig, v) in figures {
            out.extend(sample(
                "figures",
                fig.clone(),
                v.as_num().unwrap_or(f64::NAN),
                true,
            ));
        }
    }
    if let Some(total) = bench.get("figures_total_s").and_then(Json::as_num) {
        out.extend(sample("figures", "total".to_string(), total, true));
    }
    if let Some(obs) = bench.get("obs").and_then(Json::as_obj) {
        for (fig, block) in obs {
            if let Some(counters) = block.get("counters").and_then(Json::as_obj) {
                for (metric, v) in counters {
                    out.extend(sample(
                        "counters",
                        format!("{fig}/{metric}"),
                        v.as_num().unwrap_or(f64::NAN),
                        false,
                    ));
                }
            }
            if let Some(hists) = block.get("hists").and_then(Json::as_obj) {
                for (metric, stats) in hists {
                    // Wall-clock hists are nondeterministic: keep them
                    // report-only by *section* choice — they land in
                    // `hists` and specs set `_ns`-wide tolerances — but
                    // still extracted so drift is visible.
                    if let Some(fields) = stats.as_obj() {
                        for (field, v) in fields {
                            out.extend(sample(
                                "hists",
                                format!("{fig}/{metric}.{field}"),
                                v.as_num().unwrap_or(f64::NAN),
                                false,
                            ));
                        }
                    }
                }
            }
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Comparison.

/// One compared key.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRow {
    pub section: &'static str,
    pub key: String,
    pub base: f64,
    pub new: f64,
    /// Allowed movement under the resolved tolerance.
    pub limit: f64,
    pub regression: bool,
}

impl DeltaRow {
    pub fn delta(&self) -> f64 {
        self.new - self.base
    }
}

/// The outcome of one comparison: per-key rows plus the keys seen on only
/// one side (informational, never regressions).
#[derive(Debug, Default, Clone)]
pub struct DiffReport {
    pub rows: Vec<DeltaRow>,
    pub only_base: Vec<(&'static str, String)>,
    pub only_new: Vec<(&'static str, String)>,
}

impl DiffReport {
    pub fn regressions(&self) -> usize {
        self.rows.iter().filter(|r| r.regression).count()
    }

    /// Render the report. `verbose` includes in-tolerance rows; otherwise
    /// only regressions and the one-sided summary counts appear.
    pub fn to_text(&self, verbose: bool) -> String {
        let mut out = String::new();
        let shown: Vec<&DeltaRow> = self
            .rows
            .iter()
            .filter(|r| verbose || r.regression)
            .collect();
        if !shown.is_empty() {
            let _ = writeln!(
                out,
                "{:<16} {:<44} {:>14} {:>14} {:>11} {:>10}  status",
                "section", "key", "base", "new", "delta", "limit"
            );
            for r in shown {
                let _ = writeln!(
                    out,
                    "{:<16} {:<44} {:>14.6} {:>14.6} {:>+11.4} {:>10.4}  {}",
                    r.section,
                    r.key,
                    r.base,
                    r.new,
                    r.delta(),
                    r.limit,
                    if r.regression { "REGRESSION" } else { "ok" }
                );
            }
        }
        for (label, list) in [
            ("only in base", &self.only_base),
            ("only in new", &self.only_new),
        ] {
            if !list.is_empty() {
                let _ = writeln!(out, "{label}: {} keys", list.len());
                if verbose {
                    for (section, key) in list {
                        let _ = writeln!(out, "  {section} {key}");
                    }
                }
            }
        }
        let _ = writeln!(
            out,
            "compared {} keys: {} regressions",
            self.rows.len(),
            self.regressions()
        );
        out
    }
}

/// Compare two sample sets under `spec`. Only keys present on both sides
/// are judged; a key regresses when its movement (absolute for two-sided
/// sections, increase for one-sided) exceeds the resolved tolerance.
pub fn diff_samples(base: &[Sample], new: &[Sample], spec: &ToleranceSpec) -> DiffReport {
    let index = |samples: &[Sample]| -> BTreeMap<(&'static str, String), (f64, bool)> {
        samples
            .iter()
            .map(|s| ((s.section, s.key.clone()), (s.value, s.one_sided)))
            .collect()
    };
    let base_map = index(base);
    let new_map = index(new);
    let mut report = DiffReport::default();
    for ((section, key), &(base_v, one_sided)) in &base_map {
        match new_map.get(&(section, key.clone())) {
            None => report.only_base.push((section, key.clone())),
            Some(&(new_v, _)) => {
                let limit = spec.lookup(section, key).limit(base_v);
                let delta = new_v - base_v;
                let excess = if one_sided { delta } else { delta.abs() };
                report.rows.push(DeltaRow {
                    section,
                    key: key.clone(),
                    base: base_v,
                    new: new_v,
                    limit,
                    regression: excess > limit,
                });
            }
        }
    }
    for (section, key) in new_map.keys() {
        if !base_map.contains_key(&(*section, key.clone())) {
            report.only_new.push((section, key.clone()));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_parses_nested_documents() {
        let j = parse_json(r#"{"a": 1.5e-3, "b": {"c": [1, 2, null]}, "s": "x\"y", "t": true}"#)
            .expect("parses");
        assert_eq!(j.get("a").and_then(Json::as_num), Some(1.5e-3));
        assert_eq!(
            j.get("b").and_then(|b| b.get("c")),
            Some(&Json::Arr(vec![Json::Num(1.0), Json::Num(2.0), Json::Null]))
        );
        assert_eq!(j.get("s"), Some(&Json::Str("x\"y".to_string())));
        assert_eq!(j.get("t"), Some(&Json::Bool(true)));
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("{} trailing").is_err());
    }

    #[test]
    fn tolerance_spec_parses_and_resolves() {
        let spec = ToleranceSpec::parse(
            r#"
# global slack
default_rel = 0.2
default_abs = 0.5

[counters]
default_rel = 0.0
default_abs = 0.0
"chaos.retries" = { rel = 0.5, abs = 2 }
"fig1/vivaldi.ticks" = 0.25

[kernels]
default_rel = "inf"
"#,
        )
        .expect("parses");
        // Global default reaches unknown sections.
        assert_eq!(
            spec.lookup("figures", "fig1"),
            Tolerance { rel: 0.2, abs: 0.5 }
        );
        // Section default.
        assert_eq!(
            spec.lookup("counters", "fig2/defense.ban"),
            Tolerance { rel: 0.0, abs: 0.0 }
        );
        // Per-key via fig-prefix stripping.
        assert_eq!(
            spec.lookup("counters", "chaos-crash/chaos.retries"),
            Tolerance { rel: 0.5, abs: 2.0 }
        );
        // Exact key beats the section default; bare number sets rel only.
        let t = spec.lookup("counters", "fig1/vivaldi.ticks");
        assert_eq!(t.rel, 0.25);
        assert_eq!(t.abs, 0.0);
        // inf = report-only.
        assert!(spec
            .lookup("kernels", "simplex_2d.mean")
            .limit(1.0)
            .is_infinite());
        assert!(ToleranceSpec::parse("nonsense line").is_err());
        assert!(ToleranceSpec::parse("[s]\nk = {rel = oops}").is_err());
    }

    #[test]
    fn stem_lookup_covers_quantile_subkeys() {
        let spec =
            ToleranceSpec::parse("[hists]\n\"nps.round_evals\" = { rel = 0.3 }\n").expect("parses");
        assert_eq!(spec.lookup("hists", "fig14/nps.round_evals.p99").rel, 0.3);
        assert_eq!(spec.lookup("hists", "nps.round_evals.count").rel, 0.3);
    }

    #[test]
    fn trace_samples_extract_counters_and_quantiles() {
        let lines = vec![
            TraceLine::Counter {
                metric: "defense.ban".into(),
                value: 4,
            },
            TraceLine::Hist {
                metric: "nps.round_evals".into(),
                count: 10,
                sum: 500.0,
                min: 10.0,
                max: 100.0,
                quantiles: Some([40.5, 90.5, 95.5, 99.5]),
            },
        ];
        let samples = samples_from_trace("figX", &lines);
        let find = |key: &str| {
            samples
                .iter()
                .find(|s| s.key == key)
                .unwrap_or_else(|| panic!("missing {key}"))
        };
        assert_eq!(find("figX/defense.ban").value, 4.0);
        assert_eq!(find("figX/nps.round_evals.mean").value, 50.0);
        assert_eq!(find("figX/nps.round_evals.p99").value, 99.5);
        assert!(!find("figX/defense.ban").one_sided);
    }

    #[test]
    fn bench_samples_cover_all_blocks() {
        let bench = parse_json(
            r#"{
                "schema": 3,
                "kernels": {"k1": {"mean_s": 1e-6, "median_s": 9e-7, "trimmed_mean_s": 9.5e-7, "p95_s": 2e-6, "min_s": 8e-7, "max_s": 5e-6, "samples": 100}},
                "evals_per_round": {"fig14": {"mean": 240.0, "median": 237.5, "rounds": 5000}},
                "obs": {"fig14": {"counters": {"simplex.evals": 123}, "hists": {"figure.rep_ns": {"count": 6, "mean": 1e6}}}},
                "figures": {"fig14": 0.4},
                "figures_total_s": 8.0
            }"#,
        )
        .expect("parses");
        let samples = samples_from_bench(&bench).expect("extracts");
        let find = |section: &str, key: &str| {
            samples
                .iter()
                .find(|s| s.section == section && s.key == key)
                .unwrap_or_else(|| panic!("missing {section} {key}"))
        };
        assert_eq!(find("kernels", "k1.mean").value, 1e-6);
        assert!(find("kernels", "k1.p95").one_sided);
        assert!(find("evals_per_round", "fig14.mean").one_sided);
        assert!(!find("evals_per_round", "fig14.rounds").one_sided);
        assert_eq!(find("counters", "fig14/simplex.evals").value, 123.0);
        assert_eq!(find("hists", "fig14/figure.rep_ns.mean").value, 1e6);
        assert_eq!(find("figures", "total").value, 8.0);
        // Schema-2 files (no obs block) still extract.
        let old = parse_json(r#"{"schema": 2, "figures": {"fig14": 0.5}}"#).expect("parses");
        assert_eq!(samples_from_bench(&old).expect("extracts").len(), 1);
        // Non-BENCH json is rejected.
        assert!(samples_from_bench(&parse_json("{}").unwrap()).is_err());
    }

    fn s(section: &'static str, key: &str, value: f64, one_sided: bool) -> Sample {
        Sample {
            section,
            key: key.to_string(),
            value,
            one_sided,
        }
    }

    #[test]
    fn diff_flags_regressions_by_sidedness() {
        let spec = ToleranceSpec::parse(
            "default_rel = 0.1\ndefault_abs = 0\n[counters]\ndefault_rel = 0.0\n",
        )
        .expect("parses");
        let base = vec![
            s("counters", "f/defense.ban", 10.0, false),
            s("evals_per_round", "f.mean", 100.0, true),
            s("evals_per_round", "g.mean", 100.0, true),
            s("figures", "gone", 1.0, true),
        ];
        let new = vec![
            // Counter drifted by 1 under rel 0: regression (two-sided).
            s("counters", "f/defense.ban", 11.0, false),
            // 2× evals: way past 10 %: regression (the CI self-test case).
            s("evals_per_round", "f.mean", 200.0, true),
            // 40 % *faster*: one-sided, not a regression.
            s("evals_per_round", "g.mean", 60.0, true),
            s("figures", "added", 1.0, true),
        ];
        let report = diff_samples(&base, &new, &spec);
        assert_eq!(report.regressions(), 2);
        let by_key = |k: &str| report.rows.iter().find(|r| r.key == k).expect("row");
        assert!(by_key("f/defense.ban").regression);
        assert!(by_key("f.mean").regression);
        assert!(!by_key("g.mean").regression);
        assert_eq!(report.only_base, vec![("figures", "gone".to_string())]);
        assert_eq!(report.only_new, vec![("figures", "added".to_string())]);
        let text = report.to_text(false);
        assert!(text.contains("REGRESSION"));
        assert!(text.contains("2 regressions"), "{text}");
        // Identical runs pass clean.
        let clean = diff_samples(&base, &base, &spec);
        assert_eq!(clean.regressions(), 0);
    }
}
