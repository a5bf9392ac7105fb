//! Differential battery: the streaming SWF parser ([`SwfRecords`]) vs
//! the retained oracle ([`parse_swf_retained`], compiled for tests
//! only), and the file-backed streaming workload
//! ([`TraceWorkload::open`]) vs the retained one
//! ([`TraceWorkload::from_swf`]).
//!
//! The two parsers deliberately share no code (`swf.rs` keeps an inline
//! copy of the grammar in the oracle), so every assertion here compares
//! two independent implementations. Equivalence is exact: identical
//! record sequences AND identical `SwfError`s — line number, field
//! number, offending token — on the checked-in fixture, on hand-written
//! adversarial texts, and on property-generated inputs (valid,
//! truncated at an arbitrary byte, malformed mid-stream). Every text is
//! additionally re-parsed through a 3-byte `BufReader` so `read_until`
//! crosses buffer refills mid-line.

// procsim-lint: test-only: included via `#[cfg(test)] mod streaming_equivalence` in lib.rs; the oracle it drives is compiled for tests only

use crate::swf::parse_swf_retained;
use crate::{write_swf, SwfError, SwfRecords, TraceRecord, TraceWorkload};
use proptest::prelude::*;
use std::io::BufReader;

/// The checked-in 600-job sample the golden CSV replays.
const SAMPLE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/traces/sdsc_sample.swf"
);

/// Batch-shaped result (records up to the first error) from the
/// streaming parser.
fn stream_parse(bytes: &[u8]) -> Result<Vec<TraceRecord>, SwfError> {
    SwfRecords::new(bytes).collect()
}

/// Asserts streaming == oracle on `text`, both straight from the bytes
/// and through a pathologically small buffer (chunk-boundary stress).
fn assert_equivalent(text: &str) {
    let oracle = parse_swf_retained(text);
    assert_eq!(
        stream_parse(text.as_bytes()),
        oracle,
        "streaming vs retained diverged on:\n{text:?}"
    );
    let tiny: Result<Vec<TraceRecord>, SwfError> =
        SwfRecords::new(BufReader::with_capacity(3, text.as_bytes())).collect();
    assert_eq!(
        tiny, oracle,
        "3-byte-buffer streaming diverged on:\n{text:?}"
    );
}

#[test]
fn checked_in_sample_parses_identically() {
    let text = std::fs::read_to_string(SAMPLE).expect("sample checked in");
    assert_equivalent(&text);
    let recs = parse_swf_retained(&text).unwrap();
    assert_eq!(recs.len(), 600, "sample is the documented 600-job fixture");
}

#[test]
fn adversarial_fixtures_parse_identically() {
    // one fixture per grammar branch: comments, blanks, CRLF, missing
    // final newline, skipped jobs, the field-8 fallback, each error kind
    // at assorted line positions, and text after an error (which the
    // fused streaming parser must not yield)
    let fixtures: &[&str] = &[
        "",
        "; only a comment\n",
        "\n\n;\n\n",
        "1 0 5 100 32 -1 -1 32\n",
        "1 0 5 100 32 -1 -1 32", // no trailing newline
        "; h\r\n1 0 5 100 32 -1 -1 32\r\n2 50 0 200 16 -1 -1 16\r\n",
        "  1 0 5 100 32 -1 -1 32  \n", // surrounding whitespace
        "1 0 5 -1 32 -1 -1 32\n2 10 0 100 -1 -1 -1 -1\n3 20 0 100 8 -1 -1 8\n",
        "1 0 5 100 -1 -1 -1 16\n", // allocated unknown -> requested
        "1 0 5 100 0 -1 -1 0\n",   // both zero: skipped
        "1 0 5 -3 32 -1 -1 32\n",  // negative runtime: skipped
        "1 0 5 100 32 -1 -1 bad\n", // field 8 malformed but unused
        "1 2 3\n",                  // too few fields, line 1
        "; h\n\n1 0 5 100 32 -1 -1 32\n1 2 3 4 5 6 7\n", // too few, line 4
        "1 x 3 100 32 -1 -1 32\n",  // bad submit
        "1 0 3 ?? 32 -1 -1 32\n",   // bad runtime
        "1 0 3 100 n/a -1 -1 32\n", // bad allocated
        "1 0 3 100 -1 -1 -1 bad\n", // bad requested (consulted)
        "1 inf 3 100 32 -1 -1 32\n",
        "1 0 3 100 nan -1 -1 32\n",
        // error mid-stream with valid lines after it (poisoned tail)
        "1 0 5 100 32 -1 -1 32\nbroken line\n2 50 0 200 16 -1 -1 16\n",
    ];
    for text in fixtures {
        assert_equivalent(text);
    }
}

#[test]
fn open_matches_from_swf_on_a_sorted_file() {
    let text = std::fs::read_to_string(SAMPLE).expect("sample checked in");
    let retained = TraceWorkload::from_swf(&text).expect("sample parses");
    let streaming = TraceWorkload::open(SAMPLE).expect("sample opens");
    assert!(streaming.is_streaming(), "sorted file must stream");
    assert!(streaming.records().is_none(), "file source retains nothing");

    // the one-pass online statistics are bit-identical to the batch
    // path's (the sums accumulate in the same record order), so every
    // derived scaling factor is too
    assert_eq!(streaming.len(), retained.len());
    assert_eq!(
        streaming.mean_interarrival_s().to_bits(),
        retained.mean_interarrival_s().to_bits(),
        "mean inter-arrival must be bit-identical"
    );
    assert_eq!(
        streaming.mean_work().to_bits(),
        retained.mean_work().to_bits(),
        "mean work must be bit-identical"
    );
    for rho in [0.3, 0.7, 1.2] {
        assert_eq!(
            streaming.factor_for_offered_load(352, rho).to_bits(),
            retained.factor_for_offered_load(352, rho).to_bits()
        );
    }

    // record iteration and the scaled job stream agree with the
    // materialized oracle
    assert!(streaming.iter_records().eq(retained.iter_records()));
    assert_eq!(streaming, retained);
    let batch = retained.jobs_at_load(16, 22, 0.7, 360.0);
    let lazy: Vec<_> = streaming
        .stream_jobs(16, 22, 0.7, 360.0, 0)
        .take(batch.len())
        .collect();
    assert_eq!(lazy, batch);
}

#[test]
fn open_falls_back_to_retained_for_unsorted_files() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("procsim_unsorted_{}.swf", std::process::id()));
    // two jobs out of submit order: the streaming path would corrupt the
    // span statistics, so open() must retain and sort instead
    let text = "1 500 5 100 32 -1 -1 32\n2 0 5 100 16 -1 -1 16\n3 900 5 100 8 -1 -1 8\n";
    std::fs::write(&path, text).unwrap();
    let opened = TraceWorkload::open(&path).expect("unsorted file still loads");
    assert!(!opened.is_streaming(), "unsorted input falls back to memory");
    let retained = TraceWorkload::from_swf(text).unwrap();
    assert_eq!(opened, retained);
    assert_eq!(
        opened.mean_interarrival_s().to_bits(),
        retained.mean_interarrival_s().to_bits()
    );
    std::fs::remove_file(&path).ok();
}

/// Valid record with integral times (the writer's resolution).
fn arb_record() -> impl Strategy<Value = TraceRecord> {
    (0u32..2_000_000u32, 1u32..=512u32, 1u32..=200_000u32).prop_map(|(submit, size, rt)| {
        TraceRecord {
            submit_s: submit as f64,
            size,
            runtime_s: rt as f64,
        }
    })
}

/// Junk tokens covering the `BadField` and non-finite branches.
const BAD_TOKENS: [&str; 5] = ["x", "??", "12..5", "inf", "nan"];

proptest! {
    #[test]
    fn generated_valid_swf_parses_identically(
        recs in proptest::collection::vec(arb_record(), 1..80),
    ) {
        let text = write_swf(&recs);
        assert_equivalent(&text);
        prop_assert_eq!(stream_parse(text.as_bytes()).unwrap(), recs);
    }

    #[test]
    fn truncated_swf_parses_identically(
        recs in proptest::collection::vec(arb_record(), 1..40),
        cut in 0u32..10_000u32,
    ) {
        // cutting the text at an arbitrary byte leaves a final line with
        // too few fields, a half-token, or nothing — both parsers must
        // agree on records AND on the error (SWF is ASCII, so any byte
        // index is a char boundary)
        let text = write_swf(&recs);
        let cut = cut as usize % (text.len() + 1);
        assert_equivalent(&text[..cut]);
    }

    #[test]
    fn malformed_token_mid_stream_parses_identically(
        recs in proptest::collection::vec(arb_record(), 2..40),
        line_pick in 0u32..1000u32,
        field_pick in 0u32..18u32,
        token_pick in 0u32..(BAD_TOKENS.len() as u32),
    ) {
        // corrupt one field of one job line; both parsers must yield the
        // same prefix and, when the field is one the grammar consumes,
        // the same (line, field, token) error
        let text = write_swf(&recs);
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let job_lines: Vec<usize> = (0..lines.len())
            .filter(|&i| !lines[i].trim().is_empty() && !lines[i].trim().starts_with(';'))
            .collect();
        let target = job_lines[line_pick as usize % job_lines.len()];
        let mut fields: Vec<String> =
            lines[target].split_whitespace().map(str::to_string).collect();
        let fi = field_pick as usize % fields.len();
        fields[fi] = BAD_TOKENS[token_pick as usize].to_string();
        lines[target] = fields.join(" ");
        let corrupted = lines.join("\n") + "\n";
        assert_equivalent(&corrupted);
    }
}
