//! Standard Workload Format (SWF) reader/writer.
//!
//! SWF is the Feitelson-archive format the original SDSC Paragon trace is
//! distributed in: one job per line, 18 whitespace-separated fields,
//! comment lines starting with `;`. We consume the fields the simulator
//! needs — submit time (2), run time (4), allocated processors (5), with
//! requested processors (8) as a fallback — and ignore the rest, so any
//! archive trace loads unchanged. The field subset and the load-scaling
//! math built on top of it are documented in `docs/WORKLOADS.md`.
//!
//! Two parsers share one grammar:
//!
//! * [`SwfRecords`] — the **streaming** parser: an iterator over any
//!   [`BufRead`] source yielding one [`TraceRecord`] at a time in O(1)
//!   memory, so a million-job archive log replays without ever being
//!   materialized. [`parse_swf`] is a thin `collect()` over it.
//! * `parse_swf_retained` — the original whole-text batch parser, kept
//!   verbatim as the **equivalence oracle** and compiled for tests only:
//!   the differential battery in `streaming_equivalence.rs` proves the
//!   two produce identical record sequences and identical [`SwfError`]s
//!   on every fixture and on adversarial (truncated,
//!   malformed-mid-stream) inputs.

use crate::TraceRecord;
use std::io::BufRead;

/// Archive names of the SWF fields this parser touches, indexed by
/// 0-based field position (used in error messages).
const FIELD_NAMES: [(usize, &str); 4] = [
    (1, "submit time"),
    (3, "run time"),
    (4, "allocated processors"),
    (7, "requested processors"),
];

fn field_name(index: usize) -> &'static str {
    FIELD_NAMES
        .iter()
        .find(|(i, _)| *i == index)
        .map(|(_, n)| *n)
        .unwrap_or("unknown field")
}

/// What went wrong on a malformed SWF line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwfErrorKind {
    /// The line has fewer whitespace-separated fields than the parser
    /// needs (at least 8: through "requested processors").
    TooFewFields {
        /// Fields actually present on the line.
        got: usize,
    },
    /// A field failed to parse as a number.
    BadField {
        /// 1-based SWF field number (2 = submit time, 4 = run time,
        /// 5 = allocated processors, 8 = requested processors).
        field: usize,
        /// Archive name of the field, for human-readable messages.
        name: &'static str,
        /// The offending token, verbatim.
        value: String,
    },
    /// The underlying reader failed, or the bytes are not UTF-8 (only
    /// possible on the streaming [`SwfRecords`] path — [`parse_swf`]
    /// takes `&str` and cannot produce this).
    Io {
        /// The I/O or encoding error, rendered.
        message: String,
    },
}

/// Error from [`parse_swf`]: the offending line and what was wrong with
/// it. Renders as e.g.
/// `SWF line 12: field 2 (submit time): invalid number "x"`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwfError {
    /// 1-based line number in the input text (counting comment and blank
    /// lines, so it matches what an editor shows).
    pub line: usize,
    /// What was malformed.
    pub kind: SwfErrorKind,
}

impl core::fmt::Display for SwfError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match &self.kind {
            SwfErrorKind::TooFewFields { got } => write!(
                f,
                "SWF line {}: expected >= 8 fields, got {}",
                self.line, got
            ),
            SwfErrorKind::BadField { field, name, value } => write!(
                f,
                "SWF line {}: field {} ({}): invalid number {:?}",
                self.line, field, name, value
            ),
            SwfErrorKind::Io { message } => {
                write!(f, "SWF line {}: read failed: {}", self.line, message)
            }
        }
    }
}

impl std::error::Error for SwfError {}

/// Parses one SWF line (already split from the input, 1-based `lineno`).
///
/// Returns `Ok(None)` for comment/blank lines and for skipped jobs
/// (unknown size or runtime). Shared by the streaming [`SwfRecords`]
/// iterator; the test-only retained oracle `parse_swf_retained` keeps
/// its own inline copy of this grammar so the differential battery
/// compares two independent implementations.
fn parse_swf_line(raw: &str, lineno: usize) -> Result<Option<TraceRecord>, SwfError> {
    let line = raw.trim();
    if line.is_empty() || line.starts_with(';') {
        return Ok(None);
    }
    // collect the first 8 fields without a per-line Vec; `n` stops
    // counting at 8 because only the total-below-8 count is reported
    let mut fields: [&str; 8] = [""; 8];
    let mut n = 0usize;
    for tok in line.split_whitespace() {
        fields[n] = tok;
        n += 1;
        if n == 8 {
            break;
        }
    }
    if n < 8 {
        return Err(SwfError {
            line: lineno,
            kind: SwfErrorKind::TooFewFields { got: n },
        });
    }
    let parse = |i: usize| -> Result<f64, SwfError> {
        // f64::parse accepts "inf"/"nan", which would silently corrupt
        // the span/work statistics downstream — treat them as malformed
        fields[i]
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite())
            .ok_or_else(|| SwfError {
                line: lineno,
                kind: SwfErrorKind::BadField {
                    field: i + 1,
                    name: field_name(i),
                    value: fields[i].to_string(),
                },
            })
    };
    let submit = parse(1)?;
    let runtime = parse(3)?;
    let mut size = parse(4)?;
    if size <= 0.0 {
        size = parse(7)?; // requested processors
    }
    if size <= 0.0 || size > u32::MAX as f64 || runtime < 0.0 {
        return Ok(None); // unknown/failed job, or a size no real machine has
    }
    Ok(Some(TraceRecord {
        submit_s: submit,
        // procsim-lint: allow(D005): the guard above bounds size to (0, u32::MAX]
        size: size as u32,
        runtime_s: runtime.max(1.0),
    }))
}

/// Incremental SWF parser over any [`BufRead`] source.
///
/// Yields one `Result<TraceRecord, SwfError>` per job line, reading a
/// line at a time into a reused buffer — memory use is O(longest line),
/// independent of trace length, so million-job archive logs stream
/// without being materialized. Line numbering, comment/blank skipping,
/// unknown-job filtering, and every error (line, field, token) are
/// identical to the batch parser: the differential battery in
/// `streaming_equivalence.rs` pins this down against the test-only
/// `parse_swf_retained` on fixtures and adversarial inputs.
///
/// After yielding the first `Err`, the iterator is fused: every
/// subsequent `next()` returns `None` (a malformed line poisons the rest
/// of the stream, exactly as the batch parser stops at the first error).
#[derive(Debug)]
pub struct SwfRecords<R> {
    reader: R,
    buf: Vec<u8>,
    lineno: usize,
    done: bool,
}

impl<R: BufRead> SwfRecords<R> {
    /// Wraps a buffered reader positioned at the start of SWF text.
    pub fn new(reader: R) -> Self {
        SwfRecords {
            reader,
            buf: Vec::with_capacity(256),
            lineno: 0,
            done: false,
        }
    }

    /// 1-based number of the last line read (0 before the first read).
    /// Counts comment and blank lines, matching [`SwfError::line`].
    pub fn line(&self) -> usize {
        self.lineno
    }
}

impl<R: BufRead> Iterator for SwfRecords<R> {
    type Item = Result<TraceRecord, SwfError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        loop {
            self.buf.clear();
            self.lineno += 1;
            match self.reader.read_until(b'\n', &mut self.buf) {
                Ok(0) => {
                    self.done = true;
                    return None;
                }
                Ok(_) => {}
                Err(e) => {
                    self.done = true;
                    return Some(Err(SwfError {
                        line: self.lineno,
                        kind: SwfErrorKind::Io {
                            message: e.to_string(),
                        },
                    }));
                }
            }
            // `str::lines` semantics: the terminator (and a preceding
            // `\r`, which `trim` would drop anyway) is not part of the
            // line content
            let Ok(line) = core::str::from_utf8(&self.buf) else {
                self.done = true;
                return Some(Err(SwfError {
                    line: self.lineno,
                    kind: SwfErrorKind::Io {
                        message: "invalid UTF-8".into(),
                    },
                }));
            };
            match parse_swf_line(line, self.lineno) {
                Ok(None) => continue,
                Ok(Some(rec)) => return Some(Ok(rec)),
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
        }
    }
}

/// Parses SWF text into trace records.
///
/// Jobs with unknown (negative) size or runtime and zero-size jobs are
/// skipped, as is conventional when replaying archive traces. Returns an
/// [`SwfError`] locating the first malformed non-comment line.
///
/// This is a `collect()` over the streaming [`SwfRecords`] parser; use
/// [`SwfRecords`] directly (or [`crate::TraceWorkload::open`]) when the
/// trace is too large to hold in memory.
pub fn parse_swf(text: &str) -> Result<Vec<TraceRecord>, SwfError> {
    SwfRecords::new(text.as_bytes()).collect()
}

/// The original whole-text batch parser, retained verbatim as the
/// equivalence oracle for the streaming [`SwfRecords`] parser.
///
/// Deliberately shares **no code** with the streaming path (it has its
/// own inline copy of the per-line grammar), so the differential battery
/// in `streaming_equivalence.rs` compares two independent
/// implementations. Compiled for tests only.
#[cfg(test)]
pub(crate) fn parse_swf_retained(text: &str) -> Result<Vec<TraceRecord>, SwfError> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 8 {
            return Err(SwfError {
                line: lineno + 1,
                kind: SwfErrorKind::TooFewFields { got: fields.len() },
            });
        }
        let parse = |i: usize| -> Result<f64, SwfError> {
            // f64::parse accepts "inf"/"nan", which would silently corrupt
            // the span/work statistics downstream — treat them as malformed
            fields[i]
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite())
                .ok_or_else(|| SwfError {
                    line: lineno + 1,
                    kind: SwfErrorKind::BadField {
                        field: i + 1,
                        name: field_name(i),
                        value: fields[i].to_string(),
                    },
                })
        };
        let submit = parse(1)?;
        let runtime = parse(3)?;
        let mut size = parse(4)?;
        if size <= 0.0 {
            size = parse(7)?; // requested processors
        }
        if size <= 0.0 || size > u32::MAX as f64 || runtime < 0.0 {
            continue; // unknown/failed job, or a size no real machine has
        }
        out.push(TraceRecord {
            submit_s: submit,
            size: size as u32,
            runtime_s: runtime.max(1.0),
        });
    }
    Ok(out)
}

/// Streams records as minimal SWF (unknown fields written as -1) to any
/// writer, without materializing the record list or the output text.
///
/// Returns the number of records written. Output bytes are identical to
/// [`write_swf`] for the same record sequence; combined with a lazy
/// model generator (e.g. [`crate::ParagonModel::stream`]) this writes a
/// million-job fixture in O(1) memory.
pub fn write_swf_to<W: std::io::Write>(
    out: &mut W,
    records: impl IntoIterator<Item = TraceRecord>,
) -> std::io::Result<usize> {
    out.write_all(b"; synthetic trace written by procsim workload crate\n")?;
    out.write_all(b"; fields: id submit wait run procs cpu mem req_procs req_time req_mem status uid gid app queue part prev think\n")?;
    let mut n = 0usize;
    for r in records {
        n += 1;
        writeln!(
            out,
            "{} {:.0} -1 {:.0} {} -1 -1 {} -1 -1 1 -1 -1 -1 -1 -1 -1 -1",
            n, r.submit_s, r.runtime_s, r.size, r.size,
        )?;
    }
    Ok(n)
}

/// Serializes records as minimal SWF (unknown fields written as -1).
///
/// Times are written as whole seconds, so a [`parse_swf`] round-trip is
/// exact for integral-second records (the property test
/// `crates/workload/tests/swf_roundtrip.rs` pins this down). Delegates
/// to [`write_swf_to`], which streams to a writer instead of returning a
/// `String`.
pub fn write_swf(records: &[TraceRecord]) -> String {
    let mut buf = Vec::with_capacity(records.len() * 64);
    // procsim-lint: allow(D004): writing to a Vec<u8> cannot fail
    write_swf_to(&mut buf, records.iter().copied()).expect("Vec write is infallible");
    // procsim-lint: allow(D004): the writer emits only ASCII
    String::from_utf8(buf).expect("SWF writer emits ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_swf() {
        let text = "\
; comment header
1 0 5 100 32 -1 -1 32 -1 -1 1 -1 -1 -1 -1 -1 -1 -1
2 50 0 200 -1 -1 -1 16 -1 -1 1 -1 -1 -1 -1 -1 -1 -1
";
        let recs = parse_swf(text).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].submit_s, 0.0);
        assert_eq!(recs[0].runtime_s, 100.0);
        assert_eq!(recs[0].size, 32);
        // second job: allocated unknown, falls back to requested
        assert_eq!(recs[1].size, 16);
    }

    #[test]
    fn skips_unknown_jobs() {
        let text = "1 0 5 -1 32 -1 -1 32\n2 10 0 100 -1 -1 -1 -1\n3 20 0 100 8 -1 -1 8\n";
        let recs = parse_swf(text).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].size, 8);
    }

    #[test]
    fn short_line_reports_position() {
        let err = parse_swf("1 2 3\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert_eq!(err.kind, SwfErrorKind::TooFewFields { got: 3 });
        // comment and blank lines still count toward the line number
        let err = parse_swf("; header\n\n1 0 5 100 32 -1 -1 32\n1 2 3\n").unwrap_err();
        assert_eq!(err.line, 4);
    }

    #[test]
    fn malformed_submit_time() {
        let err = parse_swf("1 x 3 100 32 -1 -1 32\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert_eq!(
            err.kind,
            SwfErrorKind::BadField {
                field: 2,
                name: "submit time",
                value: "x".into()
            }
        );
        assert!(err.to_string().contains("line 1"));
        assert!(err.to_string().contains("submit time"));
    }

    #[test]
    fn malformed_run_time() {
        let err = parse_swf("; ok\n1 0 3 ?? 32 -1 -1 32\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(
            err.kind,
            SwfErrorKind::BadField {
                field: 4,
                name: "run time",
                value: "??".into()
            }
        );
    }

    #[test]
    fn malformed_allocated_processors() {
        let err = parse_swf("1 0 3 100 n/a -1 -1 32\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert_eq!(
            err.kind,
            SwfErrorKind::BadField {
                field: 5,
                name: "allocated processors",
                value: "n/a".into()
            }
        );
    }

    #[test]
    fn malformed_requested_processors() {
        // field 8 is only consulted when field 5 is unknown (<= 0)
        let err = parse_swf("1 0 3 100 -1 -1 -1 bad\n").unwrap_err();
        assert_eq!(err.line, 1);
        assert_eq!(
            err.kind,
            SwfErrorKind::BadField {
                field: 8,
                name: "requested processors",
                value: "bad".into()
            }
        );
        // ... and ignored (even if malformed) when field 5 is usable
        assert!(parse_swf("1 0 3 100 32 -1 -1 bad\n").is_ok());
    }

    #[test]
    fn non_finite_fields_rejected() {
        for token in ["inf", "-inf", "nan", "NaN"] {
            let err = parse_swf(&format!("1 {token} 3 100 32 -1 -1 32\n")).unwrap_err();
            assert_eq!(err.line, 1, "{token}");
            assert!(
                matches!(err.kind, SwfErrorKind::BadField { field: 2, .. }),
                "{token}: {err}"
            );
        }
        // ... in any consumed field
        let err = parse_swf("1 0 3 100 nan -1 -1 32\n").unwrap_err();
        assert!(matches!(err.kind, SwfErrorKind::BadField { field: 5, .. }));
    }

    #[test]
    fn round_trip() {
        let recs = vec![
            TraceRecord {
                submit_s: 0.0,
                size: 35,
                runtime_s: 120.0,
            },
            TraceRecord {
                submit_s: 700.0,
                size: 1,
                runtime_s: 1.0,
            },
        ];
        let text = write_swf(&recs);
        let back = parse_swf(&text).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn empty_and_comment_only_ok() {
        assert!(parse_swf("").unwrap().is_empty());
        assert!(parse_swf("; nothing\n\n;more\n").unwrap().is_empty());
    }

    #[test]
    fn streaming_iterator_fuses_after_error() {
        let text = "1 0 5 100 32 -1 -1 32\n1 2 3\n2 50 0 200 16 -1 -1 16\n";
        let mut it = SwfRecords::new(text.as_bytes());
        assert!(it.next().unwrap().is_ok());
        let err = it.next().unwrap().unwrap_err();
        assert_eq!(err.line, 2);
        // poisoned: the valid line after the error is not yielded
        assert!(it.next().is_none());
        assert!(it.next().is_none());
    }

    #[test]
    fn streaming_handles_missing_final_newline_and_crlf() {
        // no trailing newline on the last line
        let a: Vec<_> = SwfRecords::new("1 0 5 100 32 -1 -1 32".as_bytes())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(a.len(), 1);
        // CRLF line endings parse identically to LF
        let lf = "; h\n1 0 5 100 32 -1 -1 32\n2 50 0 200 16 -1 -1 16\n";
        let crlf = lf.replace('\n', "\r\n");
        let from_lf: Vec<_> = SwfRecords::new(lf.as_bytes())
            .collect::<Result<_, _>>()
            .unwrap();
        let from_crlf: Vec<_> = SwfRecords::new(crlf.as_bytes())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(from_lf, from_crlf);
    }

    #[test]
    fn streaming_rejects_invalid_utf8() {
        let mut bytes = b"; header\n1 0 5 100 32 -1 -1 32\n".to_vec();
        bytes.extend_from_slice(&[0xff, 0xfe, b'\n']);
        let mut it = SwfRecords::new(bytes.as_slice());
        assert!(it.next().unwrap().is_ok());
        let err = it.next().unwrap().unwrap_err();
        assert_eq!(err.line, 3);
        assert!(matches!(err.kind, SwfErrorKind::Io { .. }), "{err}");
    }

    #[test]
    fn write_swf_to_matches_write_swf() {
        let recs = vec![
            TraceRecord {
                submit_s: 0.0,
                size: 35,
                runtime_s: 120.0,
            },
            TraceRecord {
                submit_s: 700.0,
                size: 1,
                runtime_s: 1.0,
            },
        ];
        let mut buf = Vec::new();
        let n = write_swf_to(&mut buf, recs.iter().copied()).unwrap();
        assert_eq!(n, 2);
        assert_eq!(String::from_utf8(buf).unwrap(), write_swf(&recs));
    }
}
