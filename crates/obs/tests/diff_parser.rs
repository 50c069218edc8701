//! Robustness of the nested JSON parser behind the `obs-diff` CI gate: no
//! input may panic or overflow the stack, and strings survive a render →
//! parse round trip with their multi-byte chars and escapes intact.

use proptest::prelude::*;
use vcoord_obs::diff::{parse_json, Json, MAX_JSON_DEPTH};

/// The committed smoke baseline: the document the gate parses on every run.
const BENCH_SMOKE: &str = include_str!("../../../BENCH_smoke.json");

/// JSON-shaped fragments, so random draws build deep and half-valid
/// documents far more often than uniform bytes would.
const FRAGMENTS: [&str; 24] = [
    "{", "}", "[", "]", "\"", ":", ",", " ", "0", "-", "1.5e3", "e", "true", "false", "null",
    "nul", "\\", "\\u00e9", "\\ud800", "é", "漢", "😀", "\"k\":", "\n",
];

/// Chars a round-tripped string draws from: ASCII, the escape-worthy ones,
/// and 2-, 3- and 4-byte UTF-8.
const CHARS: [char; 14] = [
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{1}', 'é', '漢', '😀',
];

/// Render `s` as a JSON string literal, spelling some chars as `\u`
/// escapes so both decoding paths are exercised.
fn json_literal(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '/' => out.push_str("\\/"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            'é' | '\u{1}' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes, made UTF-8 lossily, parse to a value or an error.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..512)) {
        let _ = parse_json(&String::from_utf8_lossy(&bytes));
    }

    /// Random sequences of JSON fragments parse to a value or an error.
    #[test]
    fn fragment_soup_never_panics(picks in prop::collection::vec(0usize..FRAGMENTS.len(), 0..400)) {
        let text: String = picks.iter().map(|&i| FRAGMENTS[i]).collect();
        let _ = parse_json(&text);
    }

    /// Any single-byte mutation of the committed baseline parses to a
    /// value or an error.
    #[test]
    fn mutated_baseline_never_panics(at in 0usize..BENCH_SMOKE.len(), byte in 0u8..=255) {
        let mut bytes = BENCH_SMOKE.as_bytes().to_vec();
        bytes[at] = byte;
        let _ = parse_json(&String::from_utf8_lossy(&bytes));
    }

    /// A string of multi-byte chars and escapes round-trips exactly.
    #[test]
    fn multibyte_strings_with_escapes_round_trip(
        picks in prop::collection::vec(0usize..CHARS.len(), 0..200),
    ) {
        let s: String = picks.iter().map(|&i| CHARS[i]).collect();
        let doc = format!("{{\"k\":[{}]}}", json_literal(&s));
        let parsed = parse_json(&doc).expect("valid document");
        let Some(Json::Arr(items)) = parsed.get("k") else {
            panic!("no array under k: {parsed:?}");
        };
        prop_assert_eq!(items.as_slice(), [Json::Str(s.clone())].as_slice());
    }
}

#[test]
fn committed_baseline_parses() {
    let bench = parse_json(BENCH_SMOKE).expect("BENCH_smoke.json parses");
    assert!(bench.get("schema").and_then(Json::as_num).is_some());
}

#[test]
fn deep_nesting_returns_an_error_naming_the_offset() {
    for open in ["[", "{\"a\":"] {
        let hostile = open.repeat(200_000);
        let err = parse_json(&hostile).expect_err("200,000 levels must be refused");
        let offset = open.len() * MAX_JSON_DEPTH;
        assert!(
            err.starts_with(&format!("byte {offset}:")),
            "error must name the offending byte: {err}"
        );
    }
    // The limit itself is still accepted.
    let at_limit = format!(
        "{}{}",
        "[".repeat(MAX_JSON_DEPTH),
        "]".repeat(MAX_JSON_DEPTH)
    );
    assert!(parse_json(&at_limit).is_ok());
}

#[test]
fn long_multibyte_string_parses() {
    let s = "é".repeat(200_000);
    assert_eq!(parse_json(&format!("\"{s}\"")), Ok(Json::Str(s)));
}
