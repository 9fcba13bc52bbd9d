//! Typed analysis errors. Every structural defect in an event stream is a
//! variant carrying the 1-based line number it was detected on — the
//! parser is a validator, not a best-effort scraper, and a malformed
//! stream must fail loudly with a pointer into the file.

use std::fmt;
use std::path::PathBuf;

/// Everything that can go wrong while analyzing run artifacts.
#[derive(Debug)]
pub enum ReportError {
    /// Reading an artifact failed.
    Io {
        /// The file involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// An event line is not valid JSON.
    Json {
        /// 1-based line number in the events file.
        line: usize,
        /// Parser message (includes a byte offset within the line).
        msg: String,
    },
    /// An event line parses but lacks a required member.
    MissingField {
        /// 1-based line number.
        line: usize,
        /// The absent member.
        field: &'static str,
    },
    /// An event line has an `ev` tag the analyzer does not know.
    UnknownEvent {
        /// 1-based line number.
        line: usize,
        /// The unrecognized tag.
        ev: String,
    },
    /// A span exit arrived with no matching enter on its thread's stack.
    UnbalancedExit {
        /// 1-based line number.
        line: usize,
        /// Thread index of the event.
        tid: u64,
        /// The exiting span's name.
        name: String,
        /// The name actually on top of the stack, if any.
        open: Option<String>,
    },
    /// An event's recorded depth disagrees with the reconstructed stack.
    DepthMismatch {
        /// 1-based line number.
        line: usize,
        /// Thread index of the event.
        tid: u64,
        /// Depth implied by the reconstructed stack.
        expected: u64,
        /// Depth recorded in the event.
        found: u64,
    },
    /// A span exit names a span id different from the span it closes.
    SpanIdMismatch {
        /// 1-based line number.
        line: usize,
        /// Thread index of the event.
        tid: u64,
        /// The exiting span's name.
        name: String,
        /// Span id of the open span being closed (0 = recorded without one).
        expected: u64,
        /// Span id the exit event carried.
        found: u64,
    },
    /// Two `enter` events claim the same nonzero span id. One recorder hands
    /// ids out from one counter, so the stream was spliced or edited.
    DuplicateSpanId {
        /// 1-based line of the second claim.
        line: usize,
        /// The claimed span id.
        sid: u64,
        /// 1-based line of the first claim.
        first_line: usize,
    },
    /// Timestamps ran backwards within one thread's stream.
    NonMonotonic {
        /// 1-based line number.
        line: usize,
        /// Thread index of the event.
        tid: u64,
        /// The previous timestamp on this thread.
        prev_ns: u64,
        /// The offending timestamp.
        now_ns: u64,
    },
    /// The stream ended with spans still open.
    UnclosedSpan {
        /// Thread index owning the dangling span.
        tid: u64,
        /// The dangling span's name.
        name: String,
        /// 1-based line its enter event was read from.
        opened_line: usize,
    },
    /// A manifest or BENCH record is structurally unusable.
    Malformed {
        /// The file involved.
        path: PathBuf,
        /// What was wrong.
        msg: String,
    },
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::Io { path, source } => {
                write!(f, "cannot read {}: {source}", path.display())
            }
            ReportError::Json { line, msg } => write!(f, "line {line}: invalid JSON: {msg}"),
            ReportError::MissingField { line, field } => {
                write!(f, "line {line}: event is missing '{field}'")
            }
            ReportError::UnknownEvent { line, ev } => {
                write!(f, "line {line}: unknown event kind '{ev}'")
            }
            ReportError::UnbalancedExit {
                line,
                tid,
                name,
                open,
            } => match open {
                Some(open) => write!(
                    f,
                    "line {line}: tid {tid} exits '{name}' but '{open}' is open"
                ),
                None => write!(
                    f,
                    "line {line}: tid {tid} exits '{name}' with no span open"
                ),
            },
            ReportError::DepthMismatch {
                line,
                tid,
                expected,
                found,
            } => write!(
                f,
                "line {line}: tid {tid} depth discontinuity: stack says {expected}, event says {found}"
            ),
            ReportError::SpanIdMismatch {
                line,
                tid,
                name,
                expected,
                found,
            } => write!(
                f,
                "line {line}: tid {tid} exit '{name}' carries sid {found} \
                 but the open span has sid {expected}"
            ),
            ReportError::DuplicateSpanId {
                line,
                sid,
                first_line,
            } => write!(
                f,
                "line {line}: span id {sid} was already claimed on line {first_line} \
                 — the stream was not written by one recorder"
            ),
            ReportError::NonMonotonic {
                line,
                tid,
                prev_ns,
                now_ns,
            } => write!(
                f,
                "line {line}: tid {tid} time ran backwards: {prev_ns} -> {now_ns}"
            ),
            ReportError::UnclosedSpan {
                tid,
                name,
                opened_line,
            } => write!(
                f,
                "stream ended with '{name}' (tid {tid}, opened line {opened_line}) still open"
            ),
            ReportError::Malformed { path, msg } => {
                write!(f, "{}: {msg}", path.display())
            }
        }
    }
}

impl std::error::Error for ReportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReportError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}
