//! E11a (Sec. IV): the DVFS reliability trade-off.
//!
//! Paper claims: lowering V-f levels saves energy, cools the die, and
//! improves wear-out lifetime (MTTF), but raises the transient fault rate
//! exponentially and stretches execution — degrading functional and timing
//! reliability. Managers must balance both sides.

use lori_bench::{fmt, render_table, Harness};
use lori_core::Rng;
use lori_sys::platform::{CoreKind, Platform};
use lori_sys::sched::{Mapping, SimConfig, Simulator};
use lori_sys::task::generate_task_set;

fn main() {
    let mut h = Harness::new(
        "exp-dvfs-tradeoff",
        "E11a",
        "DVFS trade-off: energy / temperature / MTTF vs SER / deadlines",
    );
    h.seed(1);
    let mut rng = Rng::from_seed(1);
    let tasks = generate_task_set(6, 0.9, 1.6e6, (10.0, 60.0), &mut rng).expect("tasks");
    let platform = Platform::homogeneous(CoreKind::Little, 2).expect("platform");
    let mapping = Mapping::round_robin(tasks.len(), 2);

    h.config("levels", 5u64);
    let mut rows = Vec::new();
    let mut energy_by_level = Vec::new();
    let mut errors_by_level = Vec::new();
    for level in 0..5 {
        let r = h.phase("simulate", || {
            let mut sim = Simulator::new(
                platform.clone(),
                tasks.clone(),
                mapping.clone(),
                SimConfig::default(),
            )
            .expect("simulator");
            sim.set_global_level(level).expect("level");
            sim.run_for(10_000.0).expect("duration");
            sim.report()
        });
        energy_by_level.push(r.metrics.energy_j);
        errors_by_level.push(r.metrics.expected_soft_errors);
        let core = platform.core(0);
        let vf = core.vf(level).expect("level");
        rows.push(vec![
            format!(
                "L{} ({:.2} V / {:.0} MHz)",
                level,
                vf.voltage.value(),
                vf.frequency.value()
            ),
            fmt(r.metrics.energy_j),
            fmt(r.avg_peak_temp.value()),
            fmt(r.metrics.miss_rate()),
            fmt(r.metrics.expected_soft_errors * 1.0e6),
            fmt(r.mttf_estimate.as_years()),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "V-f level",
                "energy (J)",
                "avg peak T (°C)",
                "deadline miss rate",
                "E[soft errors] ×1e-6",
                "wear-out MTTF (y)"
            ],
            &rows
        )
    );
    println!("claim shape (reading down the table, lower V-f):");
    println!("  energy ↓, temperature ↓, wear-out MTTF ↑ — but soft errors ↑ and");
    println!("  deadline misses appear once the level can no longer carry the load.");
    h.check(
        "lower V-f saves energy",
        energy_by_level.first() < energy_by_level.last(),
    );
    h.check(
        "lower V-f raises expected soft errors",
        errors_by_level.first() > errors_by_level.last(),
    );
    if let Err(err) = h.finish() {
        eprintln!("warning: manifest not written: {err}");
    }
}
