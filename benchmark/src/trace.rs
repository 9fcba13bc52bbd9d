//! Spans recorded by the benchmark around its calls into the layer crates,
//! and the per-layer metrics derived from them.
//!
//! Spans stay in memory until the workload ends. A span's self time is its
//! duration minus the durations of its direct children, so the self times
//! of all spans sum to the root span's duration. The root span is named
//! `bench` and its self time is the benchmark's own glue.

use lori_obs::Value;
use std::collections::BTreeMap;
use std::ffi::c_long;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time, user plus system, consumed so far by every thread this process
/// has run, including threads that have already exited.
#[must_use]
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C layout
    // (two `long`s on Linux), and clock_gettime writes only through it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock exists on every Linux kernel");
    let secs = u64::try_from(ts.tv_sec).expect("CPU time is never negative");
    let nanos = u64::try_from(ts.tv_nsec).expect("CPU time is never negative");
    secs * 1_000_000_000 + nanos
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Errors
///
/// Returns a message when `/proc/self/status` is unreadable or has no
/// `VmHWM` line.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`; the layer is the crate the call enters.
    pub name: &'static str,
    /// Index of the enclosing span, `None` for the root.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer was created.
    pub start_ns: u64,
    /// End, in ns since the tracer was created.
    pub end_ns: u64,
    /// Process CPU time consumed while the span was open, all threads.
    pub cpu_ns: u64,
    /// Whether the call fans out over `lori-par` workers.
    pub fans_out: bool,
}

impl Span {
    /// The crate the span's call enters.
    #[must_use]
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans and counters when enabled; otherwise only runs the
/// wrapped calls.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer that records when `enabled` is true.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span for a call that stays on the calling thread.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.record(name, false, f)
    }

    /// Runs `f` inside a span for a call that fans out over `lori-par`.
    pub fn par_span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.record(name, true, f)
    }

    fn record<R>(
        &mut self,
        name: &'static str,
        fans_out: bool,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            cpu_ns: process_cpu_ns(),
            fans_out,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let (end_ns, cpu_end) = (self.now_ns(), process_cpu_ns());
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.cpu_ns = cpu_end.saturating_sub(span.cpu_ns);
        out
    }

    /// Adds `n` to a work counter.
    pub fn count(&mut self, name: &'static str, n: f64) {
        if self.enabled {
            *self.counters.entry(name).or_insert(0.0) += n;
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// The recorded spans and counters.
    #[must_use]
    pub fn finish(self) -> Trace {
        Trace {
            spans: self.spans,
            counters: self.counters,
        }
    }
}

/// The spans and counters of one traced repetition.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Spans in the order they were opened.
    pub spans: Vec<Span>,
    /// Work counters by name.
    pub counters: BTreeMap<&'static str, f64>,
}

/// Where a per-layer metric's value comes from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Self time of every span with this name, in seconds.
    Busy(&'static str),
    /// Wall time of every span with this name, children included.
    Wall(&'static str),
    /// Process CPU time while spans with this name were open.
    Cpu(&'static str),
    /// `cpu / (wall × threads)` over spans with this name.
    ParUtil(&'static str),
    /// A work counter.
    Count(&'static str),
    /// One counter divided by another.
    Ratio(&'static str, &'static str),
    /// Self time of a span per unit of a counter, in ns.
    NsPer(&'static str, &'static str),
    /// Self time of every span whose call enters this crate.
    Layer(&'static str),
    /// `Σ wall × threads − cpu` over spans that fan out.
    ParIdle,
}

/// A per-layer metric, as listed in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct LayerMetric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    source: Source,
}

const fn m(name: &'static str, unit: &'static str, source: Source) -> LayerMetric {
    LayerMetric { name, unit, source }
}

use Source::{Busy, Count, Cpu, Layer, NsPer, ParIdle, ParUtil, Ratio, Wall};

/// Every per-layer metric. Each workload reports all of them; a metric of a
/// layer the workload does not enter reads 0. `BENCHMARK.json` gives each
/// one's direction and README.md the end-to-end metric it should move.
#[rustfmt::skip]
pub const LAYER_METRICS: &[LayerMetric] = &[
    // sheflow
    m("circuit.mlchar_train.busy_s", "s", Busy("circuit.mlchar_train")),
    m("circuit.mlchar_train.cpu_s", "s", Cpu("circuit.mlchar_train")),
    m("circuit.mlchar_train.par_util", "ratio", ParUtil("circuit.mlchar_train")),
    m("circuit.mlchar_train.models", "count", Count("circuit.mlchar_train.models")),
    m("circuit.characterize_library.busy_s", "s", Busy("circuit.characterize_library")),
    m("circuit.golden_instance_library.busy_s", "s", Busy("circuit.golden_instance_library")),
    m("circuit.ml_instance_library.busy_s", "s", Busy("circuit.ml_instance_library")),
    m("circuit.she_flow.busy_s", "s", Busy("circuit.she_flow")),
    m("cache.golden.lookups", "count", Count("cache.golden.lookups")),
    m("cache.golden.hit_rate", "ratio", Ratio("cache.golden.hits", "cache.golden.lookups")),
    // anomaly
    m("ml.mlp_fit.busy_s", "s", Busy("ml.mlp_fit")),
    m("ml.mlp_fit.sample_epochs", "count", Count("ml.mlp_fit.sample_epochs")),
    m("ml.mlp_fit.ns_per_sample_epoch", "ns", NsPer("ml.mlp_fit", "ml.mlp_fit.sample_epochs")),
    m("ml.mlp_predict.busy_s", "s", Busy("ml.mlp_predict")),
    m("ml.scaler.busy_s", "s", Busy("ml.scaler")),
    m("arch.snapshots.busy_s", "s", Busy("arch.snapshots")),
    m("arch.snapshots.cycles", "count", Count("arch.snapshots.cycles")),
    // bakeoff
    m("ml.naive_bayes.fit_s", "s", Busy("ml.naive_bayes.fit")),
    m("ml.knn.fit_s", "s", Busy("ml.knn.fit")),
    m("ml.svm.fit_s", "s", Busy("ml.svm.fit")),
    m("ml.tree.fit_s", "s", Busy("ml.tree.fit")),
    m("ml.mlp.fit_s", "s", Busy("ml.mlp.fit")),
    m("ml.adaboost.fit_s", "s", Busy("ml.adaboost.fit")),
    m("ml.gbt.fit_s", "s", Busy("ml.gbt.fit")),
    m("ml.predict.busy_s", "s", Busy("ml.predict")),
    m("ml.cv.wall_s", "s", Wall("ml.cv")),
    m("ml.cv.cpu_s", "s", Cpu("ml.cv")),
    m("ml.cv.par_util", "ratio", ParUtil("ml.cv")),
    m("ml.cv.fits", "count", Count("ml.cv.fits")),
    m("arch.ff_vulnerability_dataset.busy_s", "s", Busy("arch.ff_vulnerability_dataset")),
    m("arch.ff_vulnerability_dataset.rows", "count", Count("arch.ff_vulnerability_dataset.rows")),
    // reliability
    m("ftsched.sweep.busy_s", "s", Busy("ftsched.sweep")),
    m("ftsched.sweep.runs", "count", Count("ftsched.sweep.runs")),
    m("ftsched.wall_sensitivity.busy_s", "s", Busy("ftsched.wall_sensitivity")),
    m("hdc.classifier_fit.busy_s", "s", Busy("hdc.classifier_fit")),
    m("hdc.noise_sweep.busy_s", "s", Busy("hdc.noise_sweep")),
    m("hdc.regressor_fit.busy_s", "s", Busy("hdc.regressor_fit")),
    m("arch.selective_replication.busy_s", "s", Busy("arch.selective_replication")),
    m("circuit.sta.busy_s", "s", Busy("circuit.sta")),
    m("core.mgmt_train.busy_s", "s", Busy("core.mgmt_train")),
    // every workload
    m("bench.glue_s", "s", Busy("bench")),
    m("par.idle_s", "s", ParIdle),
    m("circuit.busy_s", "s", Layer("circuit")),
    m("ml.busy_s", "s", Layer("ml")),
    m("arch.busy_s", "s", Layer("arch")),
    m("ftsched.busy_s", "s", Layer("ftsched")),
    m("hdc.busy_s", "s", Layer("hdc")),
    m("core.busy_s", "s", Layer("core")),
];

impl Trace {
    /// Self time of each span, in ns, indexed like `spans`.
    #[must_use]
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Duration of the root span, in seconds.
    #[must_use]
    pub fn root_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| ns_to_s(s.end_ns - s.start_ns))
            .sum()
    }

    /// Every metric of [`LAYER_METRICS`], for a run on `threads` workers.
    #[must_use]
    pub fn layer_metrics(&self, threads: usize) -> Vec<(&'static LayerMetric, f64)> {
        let own = self.self_ns();
        let sum_s = |pick: &dyn Fn(usize, &Span) -> Option<u64>| -> f64 {
            self.spans
                .iter()
                .enumerate()
                .filter_map(|(i, s)| pick(i, s))
                .map(ns_to_s)
                .sum()
        };
        let busy = |name: &str| sum_s(&|i, s| (s.name == name).then_some(own[i]));
        let wall = |name: &str| sum_s(&|_, s| (s.name == name).then_some(s.end_ns - s.start_ns));
        let cpu = |name: &str| sum_s(&|_, s| (s.name == name).then_some(s.cpu_ns));
        let counter = |name: &str| self.counters.get(name).copied().unwrap_or(0.0);
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        #[allow(clippy::cast_precision_loss)]
        let threads = threads as f64;
        LAYER_METRICS
            .iter()
            .map(|metric| {
                let value = match metric.source {
                    Busy(name) => busy(name),
                    Wall(name) => wall(name),
                    Cpu(name) => cpu(name),
                    ParUtil(name) => ratio(cpu(name), wall(name) * threads),
                    Count(name) => counter(name),
                    Ratio(num, den) => ratio(counter(num), counter(den)),
                    NsPer(name, den) => ratio(busy(name) * 1e9, counter(den)),
                    Layer(layer) => sum_s(&|i, s| (s.layer() == layer).then_some(own[i])),
                    ParIdle => self
                        .spans
                        .iter()
                        .filter(|s| s.fans_out)
                        .map(|s| ns_to_s(s.end_ns - s.start_ns) * threads - ns_to_s(s.cpu_ns))
                        .sum(),
                };
                (metric, value)
            })
            .collect()
    }

    /// The whole trace as JSON: spans with their self time, and counters.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let own = self.self_ns();
        let spans = self
            .spans
            .iter()
            .zip(&own)
            .map(|(s, &self_ns)| {
                Value::Obj(vec![
                    ("name".into(), s.name.into()),
                    ("layer".into(), s.layer().into()),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::from(p as u64)),
                    ),
                    ("start_ns".into(), s.start_ns.into()),
                    ("end_ns".into(), s.end_ns.into()),
                    ("self_ns".into(), self_ns.into()),
                    ("cpu_ns".into(), s.cpu_ns.into()),
                    ("fans_out".into(), s.fans_out.into()),
                ])
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(&k, &v)| (k.to_owned(), Value::from(v)))
            .collect();
        Value::Obj(vec![
            ("spans".into(), Value::Arr(spans)),
            ("counters".into(), Value::Obj(counters)),
        ])
    }
}

#[allow(clippy::cast_precision_loss)]
fn ns_to_s(ns: u64) -> f64 {
    ns as f64 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root() {
        let mut tr = Tracer::new(true);
        tr.span("bench", |tr| {
            tr.span("ml.cv", |tr| {
                tr.span("ml.mlp.fit", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
                tr.span("ml.predict", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(1))
                });
            });
        });
        let trace = tr.finish();
        let total: u64 = trace.self_ns().iter().sum();
        let root = &trace.spans[0];
        assert_eq!(total, root.end_ns - root.start_ns);
        let metrics = trace.layer_metrics(1);
        let get = |n: &str| metrics.iter().find(|(m, _)| m.name == n).map(|(_, v)| *v);
        assert!(get("ml.mlp.fit_s").unwrap() >= 0.002);
        assert!(get("ml.cv.wall_s").unwrap() >= 0.003);
        assert_eq!(get("hdc.busy_s"), Some(0.0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let v = tr.span("bench", |tr| {
            tr.count("ml.cv.fits", 1.0);
            7
        });
        assert_eq!(v, 7);
        let trace = tr.finish();
        assert!(trace.spans.is_empty() && trace.counters.is_empty());
    }

    #[test]
    fn process_cpu_clock_advances() {
        let a = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu_ns() > a, "{x}");
    }
}
