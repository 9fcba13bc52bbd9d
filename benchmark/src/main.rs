//! `lori-benchmark`: times the LORI paper reproduction end to end and
//! attributes its time to layers. See README.md.
//!
//! ```text
//! lori-benchmark --workload W --seed S --seconds T --trace 0|1
//! lori-benchmark run [--seed S] [--reps N] [--out FILE]
//! lori-benchmark compare A.json B.json
//! ```

use lori_benchmark::checks::{self, Check};
use lori_benchmark::stats::{median, quartiles};
use lori_benchmark::trace::{self, Tracer, LAYER_METRICS};
use lori_benchmark::workloads::{Values, Workload};
use lori_obs::Value;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

const EXPECTED: &str = include_str!("../expected.json");
const BENCHMARK: &str = include_str!("../../BENCHMARK.json");
/// Traces and `run` results go here, never into the repository's `results/`.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Children started before each untraced repetition that stop once set up,
/// so `setup_s` is a median over many set-ups even where a run fits two
/// repetitions.
const PROBES_PER_REP: usize = 5;

/// End-to-end metrics measured from outside the child: name and unit.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("child") => child(&args[1..]),
        Some("run") => run(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => bench(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("lori-benchmark: {e}");
        ExitCode::from(2)
    })
}

/// Parses `--name value` pairs and bare `--switch`es, refusing any other
/// argument.
fn flags(
    args: &[String],
    valued: &[&str],
    switches: &[&str],
) -> Result<BTreeMap<String, String>, String> {
    let mut out = BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if valued.contains(&a.as_str()) {
            let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
            out.insert(a.clone(), v.clone());
        } else if switches.contains(&a.as_str()) {
            out.insert(a.clone(), String::new());
        } else {
            return Err(format!("unexpected argument {a:?}"));
        }
    }
    Ok(out)
}

fn number<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flags.get(name) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name}: {v:?} is not a valid number")),
        None => default.ok_or_else(|| format!("{name} is required")),
    }
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

// ---------------------------------------------------------------- child --

/// Runs one repetition in this process: set-up, a `ready` line, the layer
/// calls, and one JSON line with what the parent cannot see from outside.
/// With `--setup-only` it stops after the `ready` line.
fn child(args: &[String]) -> Result<ExitCode, String> {
    let workload = Workload::parse(args.first().ok_or("child needs a workload")?)?;
    let flags = flags(&args[1..], &["--seed"], &["--trace", "--setup-only"])?;
    let seed: u64 = number(&flags, "--seed", None)?;
    let traced = flags.contains_key("--trace");

    let prepared = workload.setup(seed);
    let mut stdout = std::io::stdout().lock();
    writeln!(stdout, "ready")
        .and_then(|()| stdout.flush())
        .map_err(|e| e.to_string())?;
    if flags.contains_key("--setup-only") {
        return Ok(ExitCode::SUCCESS);
    }
    let mut tr = Tracer::new(traced);
    let values = prepared.run(&mut tr);
    let trace = tr.finish();
    #[allow(clippy::cast_precision_loss)]
    let cpu_s = trace::process_cpu_ns() as f64 / 1e9;

    let mut out = vec![
        ("cpu_s".to_owned(), Value::from(cpu_s)),
        (
            "peak_rss_mb".to_owned(),
            Value::from(trace::peak_rss_mib()?),
        ),
        ("values".to_owned(), values.to_value()),
    ];
    if traced {
        // The parent sets LORI_THREADS to the worker count lori-par uses.
        let threads = std::env::var("LORI_THREADS")
            .ok()
            .and_then(|t| t.parse().ok())
            .unwrap_or_else(threads);
        let layers = trace
            .layer_metrics(threads)
            .into_iter()
            .map(|(m, v)| (m.name.to_owned(), Value::from(v)))
            .collect();
        out.push(("root_s".to_owned(), Value::from(trace.root_s())));
        out.push(("layers".to_owned(), Value::Obj(layers)));
        let doc = Value::Obj(vec![
            ("workload".to_owned(), workload.name().into()),
            ("seed".to_owned(), seed.into()),
            ("threads".to_owned(), (threads as u64).into()),
            ("trace".to_owned(), trace.to_value()),
        ]);
        let path = format!("{OUT_DIR}/trace-{}.json", workload.name());
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, doc.to_json() + "\n"))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    writeln!(stdout, "{}", Value::Obj(out).to_json()).map_err(|e| e.to_string())?;
    Ok(ExitCode::SUCCESS)
}

/// One repetition, as the parent saw it.
struct Rep {
    wall_s: f64,
    setup_s: f64,
    cpu_s: f64,
    peak_rss_mb: f64,
    values: Values,
    /// Traced repetitions only: duration of the root span.
    root_s: f64,
    /// Traced repetitions only: every per-layer metric.
    layers: Vec<(String, f64)>,
}

impl Rep {
    fn end_to_end(&self, metric: &str) -> f64 {
        match metric {
            "wall_s" => self.wall_s,
            "cpu_s" => self.cpu_s,
            "setup_s" => self.setup_s,
            "peak_rss_mb" => self.peak_rss_mb,
            other => unreachable!("no end-to-end metric {other}"),
        }
    }
}

/// A child process's `ready` time, its last line of output, and its wall
/// time, as the parent saw them.
struct ChildRun {
    wall_s: f64,
    setup_s: f64,
    last: Option<String>,
}

/// Starts `lori-benchmark child` with `extra` arguments and waits for it to
/// end. The child sees `LORI_THREADS` set to the core count and no other
/// inherited `LORI_*` variable.
fn spawn_child(workload: Workload, seed: u64, extra: Option<&str>) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", workload.name(), "--seed", &seed.to_string()]);
    cmd.args(extra);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("LORI_") {
            cmd.env_remove(key);
        }
    }
    cmd.env("LORI_THREADS", threads().to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());

    let start = Instant::now();
    let mut proc = cmd.spawn().map_err(|e| format!("spawn: {e}"))?;
    let stdout = proc.stdout.take().expect("stdout is piped");
    let mut setup = None;
    let mut last = None;
    let read = BufReader::new(stdout).lines().try_for_each(|line| {
        let line = line?;
        if setup.is_none() && line == "ready" {
            setup = Some(start.elapsed());
        } else {
            last = Some(line);
        }
        Ok::<(), std::io::Error>(())
    });
    if read.is_err() {
        // Never leave the child running: kill it, then reap it below.
        let _ = proc.kill();
    }
    let status = proc.wait().map_err(|e| format!("wait: {e}"))?;
    let wall = start.elapsed();
    read.map_err(|e| format!("{} child output: {e}", workload.name()))?;
    if !status.success() {
        return Err(format!("{} child failed: {status}", workload.name()));
    }
    let setup = setup.ok_or_else(|| format!("{} child never became ready", workload.name()))?;
    Ok(ChildRun {
        wall_s: wall.as_secs_f64(),
        setup_s: setup.as_secs_f64(),
        last,
    })
}

/// Runs one repetition in a fresh child process.
fn spawn_rep(workload: Workload, seed: u64, traced: bool) -> Result<Rep, String> {
    let run = spawn_child(workload, seed, traced.then_some("--trace"))?;
    let last = run
        .last
        .ok_or_else(|| format!("{} child printed no result", workload.name()))?;
    let doc = Value::parse(&last).map_err(|e| format!("{} child result: {e}", workload.name()))?;
    let num = |k: &str| {
        doc.get(k)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{} child result has no {k}", workload.name()))
    };
    let layers = match doc.get("layers") {
        Some(Value::Obj(members)) => members
            .iter()
            .map(|(k, v)| (k.clone(), v.as_f64().unwrap_or(f64::NAN)))
            .collect(),
        _ => Vec::new(),
    };
    Ok(Rep {
        wall_s: run.wall_s,
        setup_s: run.setup_s,
        cpu_s: num("cpu_s")?,
        peak_rss_mb: num("peak_rss_mb")?,
        values: Values::from_value(doc.get("values").unwrap_or(&Value::Null))?,
        root_s: if traced { num("root_s")? } else { 0.0 },
        layers,
    })
}

/// One workload's repetitions within a run, with its set-up probes and a
/// count of attempted and failed operations: one per child, one per check.
struct Series {
    workload: Workload,
    seed: u64,
    checks: Vec<Check>,
    reps: Vec<Rep>,
    probes: Vec<f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Series {
    fn new(workload: Workload, seed: u64) -> Result<Self, String> {
        Ok(Series {
            workload,
            seed,
            checks: checks::load(EXPECTED, workload)?,
            reps: Vec::new(),
            probes: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        })
    }

    fn fail(&mut self, msg: String) {
        eprintln!("lori-benchmark: {msg}");
        self.failed += 1;
        self.failures.push(msg);
    }

    /// Runs one repetition and its output checks.
    fn rep(&mut self, traced: bool) -> Option<Rep> {
        let (workload, seed) = (self.workload, self.seed);
        self.attempted += 1;
        let rep = spawn_rep(workload, seed, traced)
            .map_err(|e| self.fail(e))
            .ok()?;
        let outcomes: Vec<_> = self
            .checks
            .iter()
            .filter_map(|c| c.evaluate(&rep.values, seed))
            .collect();
        for outcome in outcomes {
            self.attempted += 1;
            if !outcome.pass {
                let (name, seen) = (outcome.name, outcome.seen);
                self.fail(format!(
                    "{} seed {seed}: check failed: {name} (saw {seen:?})",
                    workload.name()
                ));
            }
        }
        Some(rep)
    }

    /// Adds one repetition to `reps`. An untraced one follows
    /// `PROBES_PER_REP` children that stop once set up. Returns false when
    /// the repetition failed.
    fn push(&mut self, traced: bool) -> bool {
        if !traced {
            for _ in 0..PROBES_PER_REP {
                self.attempted += 1;
                match spawn_child(self.workload, self.seed, Some("--setup-only")) {
                    Ok(run) => self.probes.push(run.setup_s),
                    Err(e) => self.fail(e),
                }
            }
        }
        self.rep(traced).map(|rep| self.reps.push(rep)).is_some()
    }

    /// Every sample of an end-to-end metric; probes count for `setup_s`.
    fn samples(&self, metric: &str) -> Vec<f64> {
        let mut samples: Vec<f64> = self.reps.iter().map(|r| r.end_to_end(metric)).collect();
        if metric == "setup_s" {
            samples.extend(&self.probes);
        }
        samples
    }

    #[allow(clippy::cast_precision_loss)]
    fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

// ---------------------------------------------------------------- bench --

/// The fixed-time entry point: repeats one workload for `--seconds`,
/// untraced (`--trace 0`, end-to-end metrics) or traced (`--trace 1`,
/// per-layer metrics), and prints one JSON result as its last line.
fn bench(args: &[String]) -> Result<ExitCode, String> {
    let flags = flags(args, &["--workload", "--seed", "--seconds", "--trace"], &[])?;
    let workload = Workload::parse(flags.get("--workload").ok_or(
        "usage: lori-benchmark --workload W --seed S --seconds T --trace 0|1 | run | compare",
    )?)?;
    let seed: u64 = number(&flags, "--seed", Some(0))?;
    let seconds: u64 = number(&flags, "--seconds", None)?;
    let traced = match flags.get("--trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace: expected 0 or 1, not {other:?}")),
    };

    // Start another repetition only while a typical one still fits.
    let budget = seconds.max(1) as f64;
    let start = Instant::now();
    let mut series = Series::new(workload, seed)?;
    while series.push(traced) {
        let typical = median(&series.samples("wall_s"));
        if start.elapsed().as_secs_f64() + typical > budget {
            break;
        }
    }
    if series.reps.is_empty() {
        return Err(format!("{}: no repetition completed", workload.name()));
    }

    let metrics: Vec<(String, Value)> = if traced {
        LAYER_METRICS
            .iter()
            .map(|m| {
                let samples: Vec<f64> = series.reps.iter().map(|r| layer(r, m.name)).collect();
                (m.name.to_owned(), metric_value(median(&samples), m.unit))
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = median(&series.samples(name));
                (name.to_owned(), metric_value(value, unit))
            })
            .collect()
    };
    println!(
        "{} seed {seed}: {} repetitions in {:.1} s, {} of {} operations failed",
        workload.name(),
        series.reps.len(),
        start.elapsed().as_secs_f64(),
        series.failed,
        series.attempted
    );
    let result = Value::Obj(vec![
        ("correct".to_owned(), (series.failed == 0).into()),
        ("attempted".to_owned(), series.attempted.into()),
        ("failed".to_owned(), series.failed.into()),
        ("metrics".to_owned(), Value::Obj(metrics)),
    ]);
    println!("{}", result.to_json());
    Ok(ExitCode::SUCCESS)
}

fn layer(rep: &Rep, name: &str) -> f64 {
    rep.layers
        .iter()
        .find(|(k, _)| k == name)
        .map_or(f64::NAN, |(_, v)| *v)
}

fn metric_value(value: f64, unit: &str) -> Value {
    Value::Obj(vec![
        ("value".to_owned(), value.into()),
        ("unit".to_owned(), unit.into()),
    ])
}

// ------------------------------------------------------------------ run --

fn summary(samples: &[f64]) -> String {
    let [q1, q2, q3] = quartiles(samples);
    format!("{q2:>10.4} {q1:>10.4} {q3:>10.4} {:>3}", samples.len())
}

/// Runs every workload `--reps` times untraced plus once traced, prints
/// every metric and writes one JSON result file for `compare`. The
/// untraced repetitions go round the workloads, so each workload's samples
/// span the whole run rather than one stretch of the host's speed.
fn run(args: &[String]) -> Result<ExitCode, String> {
    let flags = flags(args, &["--seed", "--reps", "--out"], &[])?;
    let seed: u64 = number(&flags, "--seed", Some(0))?;
    let n: usize = number(&flags, "--reps", Some(5))?;
    if n == 0 {
        return Err("--reps must be at least 1".into());
    }
    let out = match flags.get("--out") {
        Some(path) => path.clone(),
        None => {
            let now = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0, |d| d.as_secs());
            format!("{OUT_DIR}/run-seed{seed}-{now}.json")
        }
    };

    let mut all: Vec<Series> = Workload::ALL
        .into_iter()
        .map(|w| Series::new(w, seed))
        .collect::<Result<_, _>>()?;
    for _ in 0..n {
        for series in &mut all {
            series.push(false);
        }
    }
    let traced: Vec<Option<Rep>> = all.iter_mut().map(|s| s.rep(true)).collect();

    let mut results = Vec::new();
    for (series, traced) in all.iter().zip(&traced) {
        println!(
            "== {} (seed {seed}, {n} untraced + 1 traced, {} threads)",
            series.workload.name(),
            threads()
        );
        println!(
            "{:<34} {:>5} {:>10} {:>10} {:>10} {:>3}",
            "end-to-end", "unit", "median", "q1", "q3", "n"
        );
        let fail_frac = series.fail_frac();
        let mut e2e = Vec::new();
        for (name, unit) in END_TO_END {
            e2e.push((name, unit, series.samples(name)));
        }
        e2e.push(("fail_frac", "ratio", vec![fail_frac]));
        for (name, unit, samples) in &e2e {
            if !samples.is_empty() {
                println!("{name:<34} {unit:>5} {}", summary(samples));
            }
        }

        let mut doc = vec![(
            "end_to_end".to_owned(),
            Value::Obj(
                e2e.iter()
                    .map(|(name, unit, samples)| {
                        let samples = samples.iter().map(|&s| Value::from(s)).collect();
                        let m = Value::Obj(vec![
                            ("unit".to_owned(), (*unit).into()),
                            ("samples".to_owned(), Value::Arr(samples)),
                        ]);
                        ((*name).to_owned(), m)
                    })
                    .collect(),
            ),
        )];
        if let Some(t) = traced {
            println!(
                "{:<34} {:>5} {:>10}   (traced repetition)",
                "per-layer", "unit", "value"
            );
            let mut per_layer = Vec::new();
            for m in LAYER_METRICS {
                let v = layer(t, m.name);
                if v != 0.0 {
                    println!("{:<34} {:>5} {v:>10.4}", m.name, m.unit);
                }
                per_layer.push((m.name.to_owned(), metric_value(v, m.unit)));
            }
            let walls = series.samples("wall_s");
            let overhead_pct = if walls.is_empty() {
                f64::NAN
            } else {
                (t.wall_s / median(&walls) - 1.0) * 100.0
            };
            let attributed_pct = t.root_s / t.wall_s * 100.0;
            println!("trace_overhead_pct {overhead_pct:.2}  (traced wall / untraced median - 1)");
            println!("attributed_pct {attributed_pct:.2}  (span self times / traced wall)");
            doc.push(("per_layer".to_owned(), Value::Obj(per_layer)));
            doc.push(("trace_overhead_pct".to_owned(), overhead_pct.into()));
            doc.push(("attributed_pct".to_owned(), attributed_pct.into()));
        }
        for f in &series.failures {
            println!("FAILED: {f}");
        }
        let failures = series.failures.iter().map(|f| Value::from(f.as_str()));
        doc.push(("failures".to_owned(), Value::Arr(failures.collect())));
        results.push((series.workload.name().to_owned(), Value::Obj(doc)));
        println!();
    }

    let doc = Value::Obj(vec![
        ("seed".to_owned(), seed.into()),
        ("reps".to_owned(), (n as u64).into()),
        ("threads".to_owned(), (threads() as u64).into()),
        ("workloads".to_owned(), Value::Obj(results)),
    ]);
    if let Some(dir) = std::path::Path::new(&out).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&out, doc.to_json() + "\n").map_err(|e| format!("{out}: {e}"))?;
    println!("result: {out}");
    let all_ok = all.iter().all(|s| s.failed == 0);
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

// -------------------------------------------------------------- compare --

/// How one (workload, metric) pair compares between two `run` results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

/// Judges `b` against the baseline `a`. `bound` is the share of `a`'s
/// median by which `b`'s may be worse; `None` means any increase is a
/// regression. Where either side's quartile spread, as a share of its
/// median, is wider than the bound, the pair is unresolved unless every
/// run of one side beats every run of the other.
fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: Option<f64>) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let Some(bound) = bound else {
        return if mb > ma {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    };
    let worse = if lower_is_better { mb - ma } else { ma - mb };
    let spread = |xs: &[f64]| {
        let [q1, q2, q3] = quartiles(xs);
        (q3 - q1) / q2.abs()
    };
    let max = |xs: &[f64]| xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let separated = max(a) < min(b) || max(b) < min(a);
    if !separated && spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else if worse > bound * ma.abs() {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// `(name, lower is better, bound)` of every end-to-end metric in
/// `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, bool, f64)>, String> {
    let doc = Value::parse(BENCHMARK).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let better = m.get("better").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b), Some(x)) => Ok((n.to_owned(), b == "lower", x)),
                _ => Err("BENCHMARK.json: an end_to_end metric lacks name, better or bound".into()),
            }
        })
        .collect()
}

fn samples(doc: &Value, workload: &str, metric: &str) -> Option<Vec<f64>> {
    let xs: Vec<f64> = doc
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?
        .get("samples")?
        .as_arr()?
        .iter()
        .filter_map(Value::as_f64)
        .collect();
    (!xs.is_empty()).then_some(xs)
}

/// Compares two `run` result files, baseline first. Exits non-zero when
/// any pair regressed.
fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("usage: lori-benchmark compare BASELINE.json CHANGE.json".into());
    };
    let read = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|t| Value::parse(&t).map_err(|e| format!("{path}: {e}")))
    };
    let (da, db) = (read(a)?, read(b)?);
    let mut metrics: Vec<(String, bool, Option<f64>)> = bounds()?
        .into_iter()
        .map(|(n, l, b)| (n, l, Some(b)))
        .collect();
    metrics.push(("fail_frac".to_owned(), true, None));

    println!(
        "{:<12} {:<12} {:>10} {:>21} {:>10} {:>21}  verdict",
        "workload", "metric", "a median", "a q1..q3", "b median", "b q1..q3"
    );
    let mut regressed = 0;
    for workload in Workload::ALL.map(Workload::name) {
        for (metric, lower, bound) in &metrics {
            let (Some(sa), Some(sb)) = (
                samples(&da, workload, metric),
                samples(&db, workload, metric),
            ) else {
                println!("{workload:<12} {metric:<12} missing from one side");
                continue;
            };
            let v = verdict(&sa, &sb, *lower, *bound);
            regressed += usize::from(v == Verdict::Regressed);
            let [a1, a2, a3] = quartiles(&sa);
            let [b1, b2, b3] = quartiles(&sb);
            println!(
                "{workload:<12} {metric:<12} {a2:>10.4} {:>21} {b2:>10.4} {:>21}  {}",
                format!("{a1:.4}..{a3:.4}"),
                format!("{b1:.4}..{b3:.4}"),
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(if regressed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let base = [10.0, 10.1, 10.2, 10.0, 10.1];
        assert_eq!(
            verdict(&base, &[10.2, 10.1, 10.3, 10.2, 10.1], true, Some(0.1)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&base, &[12.0, 12.1, 12.2, 12.0, 12.1], true, Some(0.1)),
            Verdict::Regressed
        );
        // Faster is fine for a lower-is-better metric, worse for higher.
        assert_eq!(
            verdict(&base, &[8.0, 8.1, 8.0, 8.2, 8.1], true, Some(0.1)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&base, &[8.0, 8.1, 8.0, 8.2, 8.1], false, Some(0.1)),
            Verdict::Regressed
        );
        // A spread wider than the bound is unresolved...
        let noisy = [8.0, 12.0, 10.0, 9.0, 11.5];
        assert_eq!(verdict(&base, &noisy, true, Some(0.1)), Verdict::Unresolved);
        // ...unless every run of one side beats every run of the other.
        assert_eq!(
            verdict(&base, &[13.0, 16.0, 14.0, 13.5, 15.0], true, Some(0.1)),
            Verdict::Regressed
        );
        // fail_frac: any increase.
        assert_eq!(verdict(&[0.0], &[0.01], true, None), Verdict::Regressed);
        assert_eq!(verdict(&[0.0], &[0.0], true, None), Verdict::Ok);
    }

    #[test]
    fn benchmark_json_lists_what_the_benchmark_reports() {
        let doc = Value::parse(BENCHMARK).unwrap();
        let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_owned();
        let listed = |key: &str, with_unit: bool| -> Vec<(String, String)> {
            let entries = doc.get(key).and_then(Value::as_arr).unwrap();
            let unit = |m: &Value| {
                if with_unit {
                    field(m, "unit")
                } else {
                    String::new()
                }
            };
            entries
                .iter()
                .map(|m| (field(m, "name"), unit(m)))
                .collect()
        };
        let pair = |name: &str, unit: &str| (name.to_owned(), unit.to_owned());
        let e2e: Vec<_> = END_TO_END.iter().map(|&(n, u)| pair(n, u)).collect();
        assert_eq!(listed("end_to_end", true), e2e);
        let layers: Vec<_> = LAYER_METRICS.iter().map(|m| pair(m.name, m.unit)).collect();
        assert_eq!(listed("per_layer", true), layers);
        let workloads: Vec<_> = Workload::ALL.iter().map(|w| pair(w.name(), "")).collect();
        assert_eq!(listed("workloads", false), workloads);
        assert_eq!(bounds().unwrap().len(), END_TO_END.len());
    }

    #[test]
    fn expected_json_has_valid_checks_for_every_workload() {
        for w in Workload::ALL {
            assert!(
                !checks::load(EXPECTED, w).unwrap().is_empty(),
                "{}",
                w.name()
            );
        }
    }
}
