//! Span-tree reconstruction and profiling over `.events.jsonl` streams.
//!
//! The parser is a *validator*: an event stream produced by `lori-obs` has
//! strong structural invariants (per-thread LIFO nesting, depths that track
//! the stack, monotonic per-thread timestamps), and any violation means the
//! run or the recorder is broken — so every violation is a typed
//! [`ReportError`] carrying the offending 1-based line number, never a
//! panic or a silently skipped line.
//!
//! Output is deterministic: profiling the same events file twice yields
//! byte-identical `.profile.json` and `.folded` artifacts. All aggregation
//! uses `BTreeMap`s and insertion-ordered JSON objects; nothing depends on
//! wall clocks, hashing, or iteration order.
//!
//! Streams recorded by current `lori-obs` carry span ids (`sid`), unique
//! across the stream, and parent ids: after per-thread reconstruction,
//! thread-root spans whose recorded parent lives on another thread are
//! *adopted* under that parent, so a parallel sweep profiles as one
//! causally-connected tree instead of one disconnected tree per worker
//! thread. A nonzero parent sid that never appears in the stream is an
//! [`OrphanSpan`] — broken trace-context propagation that `lori-report
//! check` reports as a failure. Streams without sids (older recorders)
//! parse exactly as before: every id defaults to 0 and no adoption happens.

use crate::error::ReportError;
use lori_core::stats::percentile;
use lori_obs::Value;
use std::collections::BTreeMap;

/// One completed span with its completed children.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Thread index that ran it.
    pub tid: u64,
    /// Nesting depth on that thread (0 = root).
    pub depth: u64,
    /// Enter timestamp (ns since the run's obs epoch).
    pub t0_ns: u64,
    /// Wall duration in nanoseconds.
    pub dur_ns: u64,
    /// Process-unique span id (0 in streams recorded without ids).
    pub sid: u64,
    /// Recorded parent span id (0 = root / no recorded parent).
    pub parent: u64,
    /// Completed child spans, ordered by enter time. May include spans
    /// adopted from other threads via trace-context propagation.
    pub children: Vec<SpanNode>,
    /// 1-based line the enter event was read from.
    pub line: usize,
}

impl SpanNode {
    /// Duration minus the duration of direct *same-thread* children
    /// (clamped at zero: clock granularity can make children sum slightly
    /// past the parent). Children adopted from other threads ran
    /// concurrently with this span, so their time is not subtracted.
    #[must_use]
    pub fn self_ns(&self) -> u64 {
        let children: u64 = self
            .children
            .iter()
            .filter(|c| c.tid == self.tid)
            .map(|c| c.dur_ns)
            .sum();
        self.dur_ns.saturating_sub(children)
    }
}

/// A span whose recorded parent id never appears in the stream: evidence
/// of broken trace-context propagation (or a truncated stream).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrphanSpan {
    /// Span name.
    pub name: String,
    /// Thread index that ran it.
    pub tid: u64,
    /// The span's own id.
    pub sid: u64,
    /// The parent id that could not be resolved.
    pub parent: u64,
    /// 1-based line its enter event was read from.
    pub line: usize,
}

/// A fully parsed and validated event stream.
#[derive(Debug)]
pub struct ParsedEvents {
    /// Total event lines.
    pub events: usize,
    /// Gauge events among them.
    pub gauges: usize,
    /// Completed span trees after cross-thread adoption, ordered by enter
    /// time (ties break by thread index, then sid, then line).
    pub roots: Vec<SpanNode>,
    /// Spans whose recorded parent id never appeared in the stream. They
    /// remain listed in [`ParsedEvents::roots`]; a non-empty list means
    /// trace-context propagation broke somewhere.
    pub orphans: Vec<OrphanSpan>,
    /// Distinct thread indices seen.
    pub threads: usize,
    /// Earliest timestamp in the stream.
    pub first_ns: u64,
    /// Latest timestamp in the stream (exit times included).
    pub last_ns: u64,
}

impl ParsedEvents {
    /// Stream extent in nanoseconds.
    #[must_use]
    pub fn wall_ns(&self) -> u64 {
        self.last_ns.saturating_sub(self.first_ns)
    }
}

/// An open span on a thread's reconstruction stack. Children are indices
/// into the completed-span arena.
struct OpenSpan {
    name: String,
    depth: u64,
    t0_ns: u64,
    line: usize,
    sid: u64,
    parent: u64,
    children: Vec<usize>,
}

/// A completed span in the flat arena, children as arena indices. Kept
/// flat until all threads are parsed so cross-thread adoption is a cheap
/// index edit instead of a tree surgery.
struct ArenaNode {
    name: String,
    tid: u64,
    depth: u64,
    t0_ns: u64,
    dur_ns: u64,
    sid: u64,
    parent: u64,
    line: usize,
    children: Vec<usize>,
}

/// Per-thread reconstruction state.
#[derive(Default)]
struct ThreadState {
    stack: Vec<OpenSpan>,
    last_ns: Option<u64>,
}

/// Parses and validates a `.events.jsonl` stream.
///
/// # Errors
///
/// Returns the first structural defect found, with its 1-based line
/// number: invalid JSON, missing fields, unknown event kinds, unbalanced
/// or misnested enter/exit pairs, depth discontinuities, per-thread
/// timestamp regressions, a nonzero span id claimed by two enters, span-id
/// disagreements between an enter and its exit, and spans left open at end
/// of stream.
pub fn parse_events(text: &str) -> Result<ParsedEvents, ReportError> {
    let mut threads: BTreeMap<u64, ThreadState> = BTreeMap::new();
    // Nonzero span id -> line of the enter that claimed it.
    let mut claimed: BTreeMap<u64, usize> = BTreeMap::new();
    let mut arena: Vec<ArenaNode> = Vec::new();
    let mut thread_roots: Vec<usize> = Vec::new();
    let mut events = 0usize;
    let mut gauges = 0usize;
    let mut first_ns = u64::MAX;
    let mut last_ns = 0u64;

    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let value = Value::parse(raw).map_err(|msg| ReportError::Json { line, msg })?;
        events += 1;
        let ev = require_str(&value, "ev", line)?;
        let t_ns = require_u64(&value, "t_ns", line)?;
        first_ns = first_ns.min(t_ns);
        last_ns = last_ns.max(t_ns);
        match ev {
            "gauge" => {
                require_str(&value, "name", line)?;
                require_f64(&value, "value", line)?;
                gauges += 1;
            }
            "enter" | "exit" => {
                let name = require_str(&value, "name", line)?;
                let tid = require_u64(&value, "tid", line)?;
                let depth = require_u64(&value, "depth", line)?;
                let state = threads.entry(tid).or_default();
                if let Some(prev) = state.last_ns {
                    if t_ns < prev {
                        return Err(ReportError::NonMonotonic {
                            line,
                            tid,
                            prev_ns: prev,
                            now_ns: t_ns,
                        });
                    }
                }
                state.last_ns = Some(t_ns);
                if ev == "enter" {
                    let expected = state.stack.len() as u64;
                    if depth != expected {
                        return Err(ReportError::DepthMismatch {
                            line,
                            tid,
                            expected,
                            found: depth,
                        });
                    }
                    let sid = optional_u64(&value, "sid", line)?;
                    if sid != 0 {
                        if let Some(first_line) = claimed.insert(sid, line) {
                            return Err(ReportError::DuplicateSpanId {
                                line,
                                sid,
                                first_line,
                            });
                        }
                    }
                    state.stack.push(OpenSpan {
                        name: name.to_owned(),
                        depth,
                        t0_ns: t_ns,
                        line,
                        sid,
                        parent: optional_u64(&value, "parent", line)?,
                        children: Vec::new(),
                    });
                } else {
                    let Some(open) = state.stack.last() else {
                        return Err(ReportError::UnbalancedExit {
                            line,
                            tid,
                            name: name.to_owned(),
                            open: None,
                        });
                    };
                    if open.name != name {
                        return Err(ReportError::UnbalancedExit {
                            line,
                            tid,
                            name: name.to_owned(),
                            open: Some(open.name.clone()),
                        });
                    }
                    let expected = state.stack.len() as u64 - 1;
                    if depth != expected {
                        return Err(ReportError::DepthMismatch {
                            line,
                            tid,
                            expected,
                            found: depth,
                        });
                    }
                    // An exit that names a span id must name the id of the
                    // span it closes; anything else means interleaved or
                    // corrupt recording.
                    if value.get("sid").is_some() {
                        let found = require_u64(&value, "sid", line)?;
                        let expected = state.stack.last().expect("non-empty checked above").sid;
                        if found != expected {
                            return Err(ReportError::SpanIdMismatch {
                                line,
                                tid,
                                name: name.to_owned(),
                                expected,
                                found,
                            });
                        }
                    }
                    let open = state.stack.pop().expect("non-empty checked above");
                    // Prefer the recorded duration (measured by the span
                    // itself); fall back to exit − enter timestamps.
                    let dur_ns = match value.get("dur_ns").and_then(Value::as_f64) {
                        Some(d) if d >= 0.0 => as_u64(d),
                        _ => t_ns.saturating_sub(open.t0_ns),
                    };
                    last_ns = last_ns.max(open.t0_ns.saturating_add(dur_ns));
                    let idx = arena.len();
                    arena.push(ArenaNode {
                        name: open.name,
                        tid,
                        depth: open.depth,
                        t0_ns: open.t0_ns,
                        dur_ns,
                        sid: open.sid,
                        parent: open.parent,
                        line: open.line,
                        children: open.children,
                    });
                    match state.stack.last_mut() {
                        Some(parent) => parent.children.push(idx),
                        None => thread_roots.push(idx),
                    }
                }
            }
            other => {
                return Err(ReportError::UnknownEvent {
                    line,
                    ev: other.to_owned(),
                });
            }
        }
    }

    for (tid, state) in &threads {
        if let Some(open) = state.stack.first() {
            return Err(ReportError::UnclosedSpan {
                tid: *tid,
                name: open.name.clone(),
                opened_line: open.line,
            });
        }
    }

    if events == 0 {
        first_ns = 0;
    }
    let (roots, orphans) = link_trees(arena, &thread_roots);
    Ok(ParsedEvents {
        events,
        gauges,
        roots,
        orphans,
        threads: threads.len(),
        first_ns,
        last_ns,
    })
}

/// Resolves cross-thread parent links over the completed-span arena and
/// materializes the final [`SpanNode`] trees.
///
/// Thread-root spans with a nonzero recorded parent are adopted under the
/// arena node carrying that sid; an unresolvable (or self-referential)
/// parent makes the span an [`OrphanSpan`] and it stays a top-level root.
/// Adoption edges from forged or truncated streams can form cycles that
/// detach whole trees from every top-level root; those are re-rooted (in
/// stream order) and reported as orphans too, so no recorded span is ever
/// silently dropped.
fn link_trees(
    mut arena: Vec<ArenaNode>,
    thread_roots: &[usize],
) -> (Vec<SpanNode>, Vec<OrphanSpan>) {
    // Nonzero sids are unique: `parse_events` rejects a second claim.
    let mut by_sid: BTreeMap<u64, usize> = BTreeMap::new();
    for (idx, node) in arena.iter().enumerate() {
        if node.sid != 0 {
            by_sid.insert(node.sid, idx);
        }
    }

    let mut top: Vec<usize> = Vec::new();
    let mut orphans: Vec<OrphanSpan> = Vec::new();
    let mut adoptions: Vec<(usize, usize)> = Vec::new();
    for &idx in thread_roots {
        let node = &arena[idx];
        if node.parent == 0 {
            top.push(idx);
            continue;
        }
        match by_sid.get(&node.parent) {
            Some(&pi) if pi != idx => adoptions.push((pi, idx)),
            _ => {
                orphans.push(orphan_of(&arena[idx]));
                top.push(idx);
            }
        }
    }

    let mut adopters: Vec<usize> = Vec::new();
    for &(pi, ci) in &adoptions {
        arena[pi].children.push(ci);
        adopters.push(pi);
    }
    adopters.sort_unstable();
    adopters.dedup();
    // Same-thread children arrive in enter order already (per-thread spans
    // nest, so sibling exit order equals enter order); sorting by enter
    // time interleaves adopted children deterministically among them.
    for pi in adopters {
        let mut children = std::mem::take(&mut arena[pi].children);
        children.sort_by_key(|&c| (arena[c].t0_ns, arena[c].tid, arena[c].sid, arena[c].line));
        arena[pi].children = children;
    }

    // Re-root anything an adoption cycle detached from every top root.
    let mut reachable = vec![false; arena.len()];
    mark_reachable(&arena, &top, &mut reachable);
    for &idx in thread_roots {
        if reachable[idx] {
            continue;
        }
        orphans.push(orphan_of(&arena[idx]));
        let parent = arena[idx].parent;
        if let Some(&pi) = by_sid.get(&parent) {
            arena[pi].children.retain(|&c| c != idx);
        }
        top.push(idx);
        mark_reachable(&arena, &[idx], &mut reachable);
    }

    top.sort_by_key(|&i| (arena[i].t0_ns, arena[i].tid, arena[i].sid, arena[i].line));
    orphans.sort_by_key(|o| o.line);

    let mut slots: Vec<Option<ArenaNode>> = arena.into_iter().map(Some).collect();
    let roots = top.iter().map(|&i| materialize(&mut slots, i)).collect();
    (roots, orphans)
}

fn orphan_of(node: &ArenaNode) -> OrphanSpan {
    OrphanSpan {
        name: node.name.clone(),
        tid: node.tid,
        sid: node.sid,
        parent: node.parent,
        line: node.line,
    }
}

/// Marks every arena index reachable from `from` through child edges.
fn mark_reachable(arena: &[ArenaNode], from: &[usize], seen: &mut [bool]) {
    let mut stack: Vec<usize> = from.to_vec();
    while let Some(i) = stack.pop() {
        if seen[i] {
            continue;
        }
        seen[i] = true;
        stack.extend_from_slice(&arena[i].children);
    }
}

/// Converts one arena subtree into an owned [`SpanNode`] tree. Each slot
/// is consumed exactly once: after `link_trees` every node is reachable
/// from exactly one top-level root.
fn materialize(slots: &mut [Option<ArenaNode>], idx: usize) -> SpanNode {
    let node = slots[idx].take().expect("arena node consumed exactly once");
    SpanNode {
        name: node.name,
        tid: node.tid,
        depth: node.depth,
        t0_ns: node.t0_ns,
        dur_ns: node.dur_ns,
        sid: node.sid,
        parent: node.parent,
        line: node.line,
        children: node
            .children
            .into_iter()
            .map(|c| materialize(slots, c))
            .collect(),
    }
}

/// Aggregate statistics for one span name.
#[derive(Debug, Clone)]
pub struct NameStats {
    /// Number of completed spans with this name.
    pub count: u64,
    /// Total wall nanoseconds across them.
    pub total_ns: u64,
    /// Total self (non-child) nanoseconds.
    pub self_ns: u64,
    /// Median duration, interpolated between order statistics.
    pub p50_ns: f64,
    /// 95th-percentile duration, interpolated between order statistics.
    pub p95_ns: f64,
    /// Longest single duration (exact, not interpolated).
    pub max_ns: u64,
}

/// One hop on the critical path.
#[derive(Debug, Clone)]
pub struct CriticalHop {
    /// Span name.
    pub name: String,
    /// Thread index.
    pub tid: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Self time in nanoseconds.
    pub self_ns: u64,
}

/// A complete profile of one run's event stream.
#[derive(Debug)]
pub struct Profile {
    /// Experiment name the profile was built for.
    pub exp: String,
    /// Total event lines.
    pub events: usize,
    /// Gauge events among them.
    pub gauges: usize,
    /// Distinct threads.
    pub threads: usize,
    /// Top-level span trees after cross-thread adoption.
    pub roots: usize,
    /// Spans with unresolvable parent ids (0 on a healthy stream).
    pub orphans: usize,
    /// Stream extent in nanoseconds.
    pub wall_ns: u64,
    /// Per-name aggregates, sorted by name.
    pub names: BTreeMap<String, NameStats>,
    /// The longest chain of nested spans: the longest root, then its
    /// longest child, and so on to a leaf. Adopted children participate,
    /// so the path can cross threads. Ties break toward the earliest
    /// enter time, then the lowest thread index — deterministically.
    pub critical_path: Vec<CriticalHop>,
    /// Folded-stack self times: `"root;child;leaf" -> self_ns`, summed
    /// over all occurrences of that stack across threads.
    pub folded: BTreeMap<String, u64>,
}

/// Builds a [`Profile`] from a validated stream.
#[must_use]
pub fn build_profile(exp: &str, parsed: &ParsedEvents) -> Profile {
    #[derive(Default)]
    struct Agg {
        total_ns: u64,
        self_ns: u64,
        max_ns: u64,
        durs: Vec<f64>,
    }
    let mut names: BTreeMap<String, Agg> = BTreeMap::new();
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();

    fn walk(
        node: &SpanNode,
        path: &mut String,
        names: &mut BTreeMap<String, Agg>,
        folded: &mut BTreeMap<String, u64>,
    ) {
        let agg = names.entry(node.name.clone()).or_default();
        let self_ns = node.self_ns();
        agg.total_ns = agg.total_ns.saturating_add(node.dur_ns);
        agg.self_ns = agg.self_ns.saturating_add(self_ns);
        agg.max_ns = agg.max_ns.max(node.dur_ns);
        agg.durs.push(dur_f64(node.dur_ns));

        let prev_len = path.len();
        if !path.is_empty() {
            path.push(';');
        }
        path.push_str(&node.name);
        *folded.entry(path.clone()).or_insert(0) += self_ns;
        for child in &node.children {
            walk(child, path, names, folded);
        }
        path.truncate(prev_len);
    }

    let mut path = String::new();
    for root in &parsed.roots {
        walk(root, &mut path, &mut names, &mut folded);
    }

    let names = names
        .into_iter()
        .map(|(name, agg)| {
            (
                name,
                NameStats {
                    count: agg.durs.len() as u64,
                    total_ns: agg.total_ns,
                    self_ns: agg.self_ns,
                    p50_ns: quantile(&agg.durs, 0.50),
                    p95_ns: quantile(&agg.durs, 0.95),
                    max_ns: agg.max_ns,
                },
            )
        })
        .collect();

    Profile {
        exp: exp.to_owned(),
        events: parsed.events,
        gauges: parsed.gauges,
        threads: parsed.threads,
        roots: parsed.roots.len(),
        orphans: parsed.orphans.len(),
        wall_ns: parsed.wall_ns(),
        names,
        critical_path: critical_path(&parsed.roots),
        folded,
    }
}

/// Walks the longest-duration chain from roots to a leaf.
fn critical_path(roots: &[SpanNode]) -> Vec<CriticalHop> {
    let mut out = Vec::new();
    let mut level = roots;
    while let Some(next) = longest(level) {
        out.push(CriticalHop {
            name: next.name.clone(),
            tid: next.tid,
            dur_ns: next.dur_ns,
            self_ns: next.self_ns(),
        });
        level = &next.children;
    }
    out
}

/// The longest span at one level; ties break toward earlier `t0_ns`, then
/// lower `tid`, so the choice is deterministic.
fn longest(level: &[SpanNode]) -> Option<&SpanNode> {
    level.iter().min_by(|a, b| {
        b.dur_ns
            .cmp(&a.dur_ns)
            .then(a.t0_ns.cmp(&b.t0_ns))
            .then(a.tid.cmp(&b.tid))
    })
}

impl Profile {
    /// Serializes the profile to a JSON value with a stable member order.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let names = self
            .names
            .iter()
            .map(|(name, s)| {
                (
                    name.clone(),
                    Value::Obj(vec![
                        ("count".to_owned(), Value::from(s.count)),
                        ("total_ns".to_owned(), Value::from(s.total_ns)),
                        ("self_ns".to_owned(), Value::from(s.self_ns)),
                        ("p50_ns".to_owned(), Value::from(round3(s.p50_ns))),
                        ("p95_ns".to_owned(), Value::from(round3(s.p95_ns))),
                        ("max_ns".to_owned(), Value::from(s.max_ns)),
                    ]),
                )
            })
            .collect();
        let critical = self
            .critical_path
            .iter()
            .map(|hop| {
                Value::Obj(vec![
                    ("name".to_owned(), Value::from(hop.name.as_str())),
                    ("tid".to_owned(), Value::from(hop.tid)),
                    ("dur_ns".to_owned(), Value::from(hop.dur_ns)),
                    ("self_ns".to_owned(), Value::from(hop.self_ns)),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("exp".to_owned(), Value::from(self.exp.as_str())),
            ("events".to_owned(), Value::from(self.events as u64)),
            ("gauges".to_owned(), Value::from(self.gauges as u64)),
            ("threads".to_owned(), Value::from(self.threads as u64)),
            ("roots".to_owned(), Value::from(self.roots as u64)),
            ("orphans".to_owned(), Value::from(self.orphans as u64)),
            ("wall_ns".to_owned(), Value::from(self.wall_ns)),
            ("spans".to_owned(), Value::Obj(names)),
            ("critical_path".to_owned(), Value::Arr(critical)),
        ])
    }

    /// Renders flamegraph folded-stack lines (`stack self_ns`), sorted by
    /// stack string for byte-determinism. Loadable by inferno/speedscope.
    #[must_use]
    pub fn folded_text(&self) -> String {
        let mut out = String::new();
        for (stack, self_ns) in &self.folded {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&self_ns.to_string());
            out.push('\n');
        }
        out
    }
}

fn require_str<'v>(
    value: &'v Value,
    field: &'static str,
    line: usize,
) -> Result<&'v str, ReportError> {
    value
        .get(field)
        .and_then(Value::as_str)
        .ok_or(ReportError::MissingField { line, field })
}

fn require_f64(value: &Value, field: &'static str, line: usize) -> Result<f64, ReportError> {
    // Null means a non-finite float was serialized — it is present but
    // useless, which for an event stream counts as missing data.
    value
        .get(field)
        .and_then(Value::as_f64)
        .filter(|v| v.is_finite())
        .ok_or(ReportError::MissingField { line, field })
}

fn require_u64(value: &Value, field: &'static str, line: usize) -> Result<u64, ReportError> {
    let v = require_f64(value, field, line)?;
    if v < 0.0 {
        return Err(ReportError::MissingField { line, field });
    }
    Ok(as_u64(v))
}

/// An optional non-negative integer member: absent parses as 0 (streams
/// recorded before span ids existed), present-but-malformed is an error.
fn optional_u64(value: &Value, field: &'static str, line: usize) -> Result<u64, ReportError> {
    if value.get(field).is_none() {
        return Ok(0);
    }
    require_u64(value, field, line)
}

/// `f64 -> u64` for values already validated non-negative and finite.
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
fn as_u64(v: f64) -> u64 {
    v as u64
}

/// `u64 -> f64` for the quantile samples (durations fit well in 2^53).
#[allow(clippy::cast_precision_loss)]
fn dur_f64(v: u64) -> f64 {
    v as f64
}

/// The `q`-quantile of one span name's durations, of which there is at
/// least one.
fn quantile(durs: &[f64], q: f64) -> f64 {
    percentile(durs, q).expect("a span name has a duration and q is in [0, 1]")
}

/// Rounds to 3 decimal places so interpolated quantiles serialize stably
/// and readably.
fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(parts: &str) -> String {
        format!("{{{parts}}}\n")
    }

    fn stream(lines: &[&str]) -> String {
        lines.iter().map(|l| ev(l)).collect()
    }

    #[test]
    fn parses_nested_spans_across_threads() {
        let text = stream(&[
            r#""ev":"enter","name":"run","t_ns":100,"tid":0,"depth":0"#,
            r#""ev":"enter","name":"step","t_ns":150,"tid":0,"depth":1"#,
            r#""ev":"enter","name":"worker","t_ns":160,"tid":1,"depth":0"#,
            r#""ev":"gauge","name":"loss","t_ns":170,"value":0.5"#,
            r#""ev":"exit","name":"worker","t_ns":300,"tid":1,"depth":0,"dur_ns":140"#,
            r#""ev":"exit","name":"step","t_ns":400,"tid":0,"depth":1,"dur_ns":250"#,
            r#""ev":"exit","name":"run","t_ns":500,"tid":0,"depth":0,"dur_ns":400"#,
        ]);
        let parsed = parse_events(&text).unwrap();
        assert_eq!(parsed.events, 7);
        assert_eq!(parsed.gauges, 1);
        assert_eq!(parsed.threads, 2);
        assert_eq!(parsed.roots.len(), 2);
        let run = parsed.roots.iter().find(|r| r.name == "run").unwrap();
        assert_eq!(run.children.len(), 1);
        assert_eq!(run.children[0].name, "step");
        assert_eq!(run.dur_ns, 400);
        assert_eq!(run.self_ns(), 150);
        assert_eq!(parsed.wall_ns(), 400);
    }

    #[test]
    fn profile_aggregates_and_folds() {
        let text = stream(&[
            r#""ev":"enter","name":"run","t_ns":0,"tid":0,"depth":0"#,
            r#""ev":"enter","name":"step","t_ns":10,"tid":0,"depth":1"#,
            r#""ev":"exit","name":"step","t_ns":60,"tid":0,"depth":1,"dur_ns":50"#,
            r#""ev":"enter","name":"step","t_ns":70,"tid":0,"depth":1"#,
            r#""ev":"exit","name":"step","t_ns":100,"tid":0,"depth":1,"dur_ns":30"#,
            r#""ev":"exit","name":"run","t_ns":200,"tid":0,"depth":0,"dur_ns":200"#,
        ]);
        let profile = build_profile("unit", &parse_events(&text).unwrap());
        let step = &profile.names["step"];
        assert_eq!(step.count, 2);
        assert_eq!(step.total_ns, 80);
        assert_eq!(step.self_ns, 80);
        assert_eq!(step.max_ns, 50);
        // Exact quantiles of {30, 50}, interpolated between the two.
        assert!((step.p50_ns - 40.0).abs() < 1e-9, "p50 {}", step.p50_ns);
        assert!((step.p95_ns - 49.0).abs() < 1e-9, "p95 {}", step.p95_ns);
        let run = &profile.names["run"];
        assert_eq!(run.self_ns, 120);
        assert_eq!(profile.folded["run"], 120);
        assert_eq!(profile.folded["run;step"], 80);
        let path: Vec<&str> = profile
            .critical_path
            .iter()
            .map(|h| h.name.as_str())
            .collect();
        assert_eq!(path, ["run", "step"]);
        assert_eq!(profile.critical_path[1].dur_ns, 50);
    }

    #[test]
    fn profile_output_is_deterministic() {
        let text = stream(&[
            r#""ev":"enter","name":"b","t_ns":0,"tid":1,"depth":0"#,
            r#""ev":"enter","name":"a","t_ns":5,"tid":0,"depth":0"#,
            r#""ev":"exit","name":"a","t_ns":50,"tid":0,"depth":0,"dur_ns":45"#,
            r#""ev":"exit","name":"b","t_ns":90,"tid":1,"depth":0,"dur_ns":90"#,
        ]);
        let p1 = build_profile("unit", &parse_events(&text).unwrap());
        let p2 = build_profile("unit", &parse_events(&text).unwrap());
        assert_eq!(p1.to_value().to_json(), p2.to_value().to_json());
        assert_eq!(p1.folded_text(), p2.folded_text());
    }

    #[test]
    fn adopts_worker_roots_under_parent_by_sid() {
        // tid 0 runs "par.map" (sid 5); two workers on tids 1 and 2 record
        // roots with parent 5. The profile must be ONE tree.
        let text = stream(&[
            r#""ev":"enter","name":"par.map","t_ns":100,"tid":0,"depth":0,"sid":5"#,
            r#""ev":"enter","name":"par.worker","t_ns":110,"tid":1,"depth":0,"sid":6,"parent":5"#,
            r#""ev":"enter","name":"par.worker","t_ns":120,"tid":2,"depth":0,"sid":7,"parent":5"#,
            r#""ev":"exit","name":"par.worker","t_ns":300,"tid":1,"depth":0,"dur_ns":190,"sid":6"#,
            r#""ev":"exit","name":"par.worker","t_ns":320,"tid":2,"depth":0,"dur_ns":200,"sid":7"#,
            r#""ev":"exit","name":"par.map","t_ns":400,"tid":0,"depth":0,"dur_ns":300,"sid":5"#,
        ]);
        let parsed = parse_events(&text).unwrap();
        assert!(parsed.orphans.is_empty());
        assert_eq!(parsed.roots.len(), 1, "workers adopted into one tree");
        let root = &parsed.roots[0];
        assert_eq!(root.name, "par.map");
        assert_eq!(root.children.len(), 2);
        // Adopted children ordered by enter time.
        assert_eq!(root.children[0].sid, 6);
        assert_eq!(root.children[1].sid, 7);
        assert_eq!(root.children[0].parent, 5);
        // Cross-thread children are concurrent: parent keeps its own wall
        // time as self time.
        assert_eq!(root.self_ns(), 300);

        let profile = build_profile("unit", &parsed);
        assert_eq!(profile.roots, 1);
        assert_eq!(profile.orphans, 0);
        // Folded stacks now cross the thread boundary.
        assert_eq!(profile.folded["par.map;par.worker"], 190 + 200);
        // Critical path descends into the adopted worker on tid 2.
        let path: Vec<(&str, u64)> = profile
            .critical_path
            .iter()
            .map(|h| (h.name.as_str(), h.tid))
            .collect();
        assert_eq!(path, [("par.map", 0), ("par.worker", 2)]);
    }

    #[test]
    fn unresolvable_parent_sid_is_an_orphan() {
        let text = stream(&[
            r#""ev":"enter","name":"lost","t_ns":10,"tid":3,"depth":0,"sid":9,"parent":999"#,
            r#""ev":"exit","name":"lost","t_ns":20,"tid":3,"depth":0,"dur_ns":10,"sid":9"#,
        ]);
        let parsed = parse_events(&text).unwrap();
        assert_eq!(parsed.roots.len(), 1, "orphan stays listed as a root");
        assert_eq!(
            parsed.orphans,
            vec![OrphanSpan {
                name: "lost".to_owned(),
                tid: 3,
                sid: 9,
                parent: 999,
                line: 1,
            }]
        );
        let profile = build_profile("unit", &parsed);
        assert_eq!(profile.orphans, 1);
    }

    #[test]
    fn rejects_exit_sid_disagreeing_with_enter() {
        let text = stream(&[
            r#""ev":"enter","name":"run","t_ns":0,"tid":0,"depth":0,"sid":4"#,
            r#""ev":"exit","name":"run","t_ns":9,"tid":0,"depth":0,"dur_ns":9,"sid":8"#,
        ]);
        match parse_events(&text) {
            Err(ReportError::SpanIdMismatch {
                line: 2,
                expected: 4,
                found: 8,
                ..
            }) => {}
            other => panic!("expected SpanIdMismatch, got {other:?}"),
        }
    }

    #[test]
    fn rejects_span_id_claimed_twice() {
        // Two streams that both started their span counter at 1, spliced
        // into one file: the same sid appears twice on distinct tids, so
        // per-thread nesting checks alone cannot catch it.
        let text = stream(&[
            r#""ev":"enter","name":"sweep","t_ns":0,"tid":0,"depth":0,"sid":1"#,
            r#""ev":"exit","name":"sweep","t_ns":1000,"tid":0,"depth":0,"dur_ns":1000,"sid":1"#,
            r#""ev":"enter","name":"spliced.root","t_ns":10,"tid":1,"depth":0,"sid":1,"parent":1"#,
            r#""ev":"exit","name":"spliced.root","t_ns":500,"tid":1,"depth":0,"dur_ns":490,"sid":1"#,
        ]);
        let err = parse_events(&text).expect_err("a spliced stream is refused");
        match &err {
            ReportError::DuplicateSpanId {
                line: 3,
                sid: 1,
                first_line: 1,
            } => {}
            other => panic!("expected DuplicateSpanId, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("line 3") && msg.contains("line 1"), "{msg}");
    }

    #[test]
    fn distinct_span_ids_parse() {
        let text = stream(&[
            r#""ev":"enter","name":"sweep","t_ns":0,"tid":0,"depth":0,"sid":1"#,
            r#""ev":"enter","name":"par.worker","t_ns":10,"tid":1,"depth":0,"sid":2,"parent":1"#,
            r#""ev":"exit","name":"par.worker","t_ns":500,"tid":1,"depth":0,"dur_ns":490,"sid":2"#,
            r#""ev":"exit","name":"sweep","t_ns":1000,"tid":0,"depth":0,"dur_ns":1000,"sid":1"#,
        ]);
        let parsed = parse_events(&text).unwrap();
        assert_eq!(parsed.roots.len(), 1);
        assert!(parsed.orphans.is_empty());
    }

    #[test]
    fn adoption_cycle_is_rerooted_not_lost() {
        // Forged stream: two roots each naming the other as parent. Both
        // must surface as orphaned roots rather than vanish or recurse.
        let text = stream(&[
            r#""ev":"enter","name":"a","t_ns":0,"tid":0,"depth":0,"sid":1,"parent":2"#,
            r#""ev":"exit","name":"a","t_ns":5,"tid":0,"depth":0,"dur_ns":5,"sid":1"#,
            r#""ev":"enter","name":"b","t_ns":1,"tid":1,"depth":0,"sid":2,"parent":1"#,
            r#""ev":"exit","name":"b","t_ns":6,"tid":1,"depth":0,"dur_ns":5,"sid":2"#,
        ]);
        let parsed = parse_events(&text).unwrap();
        let mut names = Vec::new();
        fn collect(node: &SpanNode, names: &mut Vec<String>) {
            names.push(node.name.clone());
            for c in &node.children {
                collect(c, names);
            }
        }
        for root in &parsed.roots {
            collect(root, &mut names);
        }
        names.sort();
        assert_eq!(names, ["a", "b"], "no span silently dropped");
        assert!(!parsed.orphans.is_empty());
    }

    #[test]
    fn sidless_streams_parse_with_zero_ids() {
        let text = stream(&[
            r#""ev":"enter","name":"run","t_ns":0,"tid":0,"depth":0"#,
            r#""ev":"exit","name":"run","t_ns":9,"tid":0,"depth":0,"dur_ns":9"#,
        ]);
        let parsed = parse_events(&text).unwrap();
        assert_eq!(parsed.roots[0].sid, 0);
        assert_eq!(parsed.roots[0].parent, 0);
        assert!(parsed.orphans.is_empty());
    }

    #[test]
    fn rejects_invalid_json_with_line_number() {
        let text =
            "{\"ev\":\"enter\",\"name\":\"run\",\"t_ns\":0,\"tid\":0,\"depth\":0}\n{broken\n";
        match parse_events(text) {
            Err(ReportError::Json { line: 2, .. }) => {}
            other => panic!("expected Json error on line 2, got {other:?}"),
        }
    }

    #[test]
    fn rejects_unbalanced_exit() {
        let text = stream(&[r#""ev":"exit","name":"run","t_ns":0,"tid":0,"depth":0,"dur_ns":1"#]);
        match parse_events(&text) {
            Err(ReportError::UnbalancedExit {
                line: 1,
                open: None,
                ..
            }) => {}
            other => panic!("expected UnbalancedExit, got {other:?}"),
        }
    }

    #[test]
    fn rejects_mismatched_exit_name() {
        let text = stream(&[
            r#""ev":"enter","name":"outer","t_ns":0,"tid":0,"depth":0"#,
            r#""ev":"exit","name":"inner","t_ns":5,"tid":0,"depth":0,"dur_ns":5"#,
        ]);
        match parse_events(&text) {
            Err(ReportError::UnbalancedExit {
                line: 2,
                open: Some(open),
                ..
            }) => assert_eq!(open, "outer"),
            other => panic!("expected UnbalancedExit, got {other:?}"),
        }
    }

    #[test]
    fn rejects_depth_discontinuity() {
        let text = stream(&[r#""ev":"enter","name":"run","t_ns":0,"tid":0,"depth":3"#]);
        match parse_events(&text) {
            Err(ReportError::DepthMismatch {
                line: 1,
                expected: 0,
                found: 3,
                ..
            }) => {}
            other => panic!("expected DepthMismatch, got {other:?}"),
        }
    }

    #[test]
    fn rejects_backwards_time_within_thread() {
        let text = stream(&[
            r#""ev":"enter","name":"a","t_ns":100,"tid":0,"depth":0"#,
            r#""ev":"exit","name":"a","t_ns":50,"tid":0,"depth":0,"dur_ns":1"#,
        ]);
        match parse_events(&text) {
            Err(ReportError::NonMonotonic {
                line: 2,
                prev_ns: 100,
                now_ns: 50,
                ..
            }) => {}
            other => panic!("expected NonMonotonic, got {other:?}"),
        }
    }

    #[test]
    fn cross_thread_time_skew_is_fine() {
        // Threads interleave in file order; only per-thread order matters.
        let text = stream(&[
            r#""ev":"enter","name":"a","t_ns":100,"tid":0,"depth":0"#,
            r#""ev":"enter","name":"b","t_ns":50,"tid":1,"depth":0"#,
            r#""ev":"exit","name":"b","t_ns":60,"tid":1,"depth":0,"dur_ns":10"#,
            r#""ev":"exit","name":"a","t_ns":110,"tid":0,"depth":0,"dur_ns":10"#,
        ]);
        assert!(parse_events(&text).is_ok());
    }

    #[test]
    fn rejects_unclosed_span() {
        let text = stream(&[r#""ev":"enter","name":"run","t_ns":0,"tid":7,"depth":0"#]);
        match parse_events(&text) {
            Err(ReportError::UnclosedSpan {
                tid: 7,
                opened_line: 1,
                ..
            }) => {}
            other => panic!("expected UnclosedSpan, got {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_event_kind() {
        let text = stream(&[r#""ev":"mark","name":"x","t_ns":0"#]);
        match parse_events(&text) {
            Err(ReportError::UnknownEvent { line: 1, ev }) => assert_eq!(ev, "mark"),
            other => panic!("expected UnknownEvent, got {other:?}"),
        }
    }

    #[test]
    fn rejects_missing_field() {
        let text = stream(&[r#""ev":"enter","name":"run","tid":0,"depth":0"#]);
        match parse_events(&text) {
            Err(ReportError::MissingField {
                line: 1,
                field: "t_ns",
            }) => {}
            other => panic!("expected MissingField(t_ns), got {other:?}"),
        }
    }

    #[test]
    fn empty_stream_parses_to_empty_profile() {
        let parsed = parse_events("").unwrap();
        assert_eq!(parsed.events, 0);
        let profile = build_profile("unit", &parsed);
        assert!(profile.names.is_empty());
        assert!(profile.critical_path.is_empty());
        assert_eq!(profile.folded_text(), "");
    }
}
