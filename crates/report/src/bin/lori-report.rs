//! `lori-report` — analyze LORI run artifacts.
//!
//! ```text
//! lori-report profile <name> [--results-dir DIR]
//! lori-report check <name> [--results-dir DIR]
//! ```
//!
//! `profile` reads `results/<name>.events.jsonl` and writes
//! `results/<name>.profile.json` (per-span statistics and the critical
//! path) plus `results/<name>.folded` (flamegraph folded stacks, loadable
//! by inferno or speedscope). `check` sanity-scans a run's manifest and
//! event stream.
//!
//! Exit codes: 0 success, 1 check failure, 2 usage or artifact error.

use lori_report::{check, profile, ReportError};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage:
  lori-report profile <name> [--results-dir DIR]
  lori-report check <name> [--results-dir DIR]

The results directory defaults to $LORI_RESULTS_DIR, then 'results'.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("profile") => cmd_profile(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("--help" | "-h" | "help") => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(format!("missing or unknown subcommand\n{USAGE}")),
    };
    match code {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("lori-report: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Parses `<positional...> [--results-dir DIR]` naively — two
/// subcommands do not need a flag framework.
struct Cli {
    positional: Vec<String>,
    results_dir: Option<PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        positional: Vec::new(),
        results_dir: None,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--results-dir" => {
                let dir = iter.next().ok_or("--results-dir needs a value")?;
                cli.results_dir = Some(PathBuf::from(dir));
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag '{flag}'")),
            _ => cli.positional.push(arg.clone()),
        }
    }
    Ok(cli)
}

/// The results directory: `--results-dir`, then `$LORI_RESULTS_DIR`, then
/// `results`, the convention the `exp-*` harness writes under.
fn resolve_dir(cli: &Cli) -> PathBuf {
    cli.results_dir
        .clone()
        .or_else(|| std::env::var_os("LORI_RESULTS_DIR").map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("results"))
}

fn cmd_profile(args: &[String]) -> Result<ExitCode, String> {
    let cli = parse_cli(args)?;
    let [name] = cli.positional.as_slice() else {
        return Err(format!("profile takes exactly one run name\n{USAGE}"));
    };
    let dir = resolve_dir(&cli);
    let events_path = dir.join(format!("{name}.events.jsonl"));
    let text = read(&events_path)?;
    let parsed =
        profile::parse_events(&text).map_err(|e| format!("{}: {e}", events_path.display()))?;
    let prof = profile::build_profile(name, &parsed);

    let json_path = dir.join(format!("{name}.profile.json"));
    let folded_path = dir.join(format!("{name}.folded"));
    write(&json_path, (prof.to_value().to_json() + "\n").as_bytes())?;
    write(&folded_path, prof.folded_text().as_bytes())?;

    println!(
        "{name}: {} events on {} threads over {:.3} ms; {} span names, \
         {} root tree(s), {} orphan(s)",
        prof.events,
        prof.threads,
        ms(prof.wall_ns),
        prof.names.len(),
        prof.roots,
        prof.orphans
    );
    for hop in &prof.critical_path {
        println!(
            "  critical: {} (tid {}) {:.3} ms total, {:.3} ms self",
            hop.name,
            hop.tid,
            ms(hop.dur_ns),
            ms(hop.self_ns)
        );
    }
    println!("wrote {}", json_path.display());
    println!("wrote {}", folded_path.display());
    Ok(ExitCode::SUCCESS)
}

fn cmd_check(args: &[String]) -> Result<ExitCode, String> {
    let cli = parse_cli(args)?;
    let [name] = cli.positional.as_slice() else {
        return Err(format!("check takes exactly one run name\n{USAGE}"));
    };
    let dir = resolve_dir(&cli);
    let report = check::check_run(&dir, name).map_err(|e| display(&e))?;
    print!("{}", check::render(&report));
    if report.ok() {
        println!(
            "check: ok ({} passed, {} warning(s))",
            report.passed.len(),
            report.warnings.len()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        println!("check: FAILED — {} finding(s)", report.failures.len());
        Ok(ExitCode::FAILURE)
    }
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn write(path: &Path, bytes: &[u8]) -> Result<(), String> {
    lori_obs::atomic_write(path, bytes).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn display(e: &ReportError) -> String {
    e.to_string()
}

#[allow(clippy::cast_precision_loss)]
fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}
