//! The quantum-based multicore simulator behind E11a and E11b: EDF per
//! core, static task-to-core mapping, V-f levels set through
//! [`Simulator::set_global_level`], and reliability accounting.
//!
//! Every core starts at the top of its V-f ladder. Each 1 ms quantum every
//! core executes its earliest-deadline ready job, burns power, heats the
//! die, accumulates soft-error exposure, and accrues wear-out damage under
//! the EM/TDDB/NBTI/HCI models; thermal-cycling damage is assessed at the
//! end from the temperature trace. An idle core draws leakage only: the
//! paper's third knob, DPM sleep states, is surveyed in Sec. IV but no
//! experiment measures it, so the simulator has none.

use crate::error::SysError;
use crate::mttf::{em_mttf, hci_mttf, nbti_mttf, tc_mttf, tddb_mttf, Operating};
use crate::platform::Platform;
use crate::ser::SerModel;
use crate::task::Task;
use crate::thermal::{count_thermal_cycles, ThermalConfig, ThermalModel};
use lori_core::units::{Celsius, Seconds, Watts};

/// Task-to-core assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping(Vec<usize>);

impl Mapping {
    /// Creates a mapping (`assignment[task] = core`).
    ///
    /// # Errors
    ///
    /// Returns [`SysError::BadMapping`] if a core index is out of range or
    /// the assignment length differs from the task count.
    pub fn new(assignment: Vec<usize>, n_tasks: usize, n_cores: usize) -> Result<Self, SysError> {
        if assignment.len() != n_tasks {
            return Err(SysError::BadMapping {
                what: "assignment length",
                index: assignment.len(),
            });
        }
        if let Some(&bad) = assignment.iter().find(|&&c| c >= n_cores) {
            return Err(SysError::BadMapping {
                what: "core",
                index: bad,
            });
        }
        Ok(Mapping(assignment))
    }

    /// Round-robin assignment.
    #[must_use]
    pub fn round_robin(n_tasks: usize, n_cores: usize) -> Self {
        Mapping((0..n_tasks).map(|t| t % n_cores.max(1)).collect())
    }

    /// The core a task runs on.
    #[must_use]
    pub fn core_of(&self, task: usize) -> usize {
        self.0[task]
    }

    /// The raw assignment.
    #[must_use]
    pub fn assignment(&self) -> &[usize] {
        &self.0
    }
}

/// How long one simulation quantum lasts, in ms.
const QUANTUM_MS: f64 = 1.0;

/// Quanta per sample of the temperature trace that thermal cycling is
/// counted on.
const TRACE_STRIDE: u64 = 10;

/// Simulation configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimConfig {
    /// Thermal parameters.
    pub thermal: ThermalConfig,
    /// Soft-error model.
    pub ser: SerModel,
}

/// Cumulative metrics, diffable for per-epoch rewards.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Metrics {
    /// Total energy in joules.
    pub energy_j: f64,
    /// Jobs released.
    pub released: u64,
    /// Jobs completed by their deadline.
    pub completed: u64,
    /// Jobs that missed their deadline (dropped at the deadline).
    pub missed: u64,
    /// Expected soft-error count (λ·AVF·t integrated over busy time).
    pub expected_soft_errors: f64,
    /// Accumulated wear-out damage (fraction of life consumed) summed over
    /// EM/TDDB/NBTI/HCI on the worst core.
    pub worst_wear_damage: f64,
    /// Elapsed simulated time in ms.
    pub elapsed_ms: f64,
}

impl Metrics {
    /// Deadline-miss rate over all released jobs with resolved outcomes.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        let resolved = self.completed + self.missed;
        if resolved == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.missed as f64 / resolved as f64
            }
        }
    }

    /// Component-wise difference (`self` − `earlier`).
    #[must_use]
    pub fn since(&self, earlier: &Metrics) -> Metrics {
        Metrics {
            energy_j: self.energy_j - earlier.energy_j,
            released: self.released - earlier.released,
            completed: self.completed - earlier.completed,
            missed: self.missed - earlier.missed,
            expected_soft_errors: self.expected_soft_errors - earlier.expected_soft_errors,
            worst_wear_damage: self.worst_wear_damage - earlier.worst_wear_damage,
            elapsed_ms: self.elapsed_ms - earlier.elapsed_ms,
        }
    }
}

/// Final simulation report.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Cumulative metrics.
    pub metrics: Metrics,
    /// Time-average die temperature (hottest core average).
    pub avg_peak_temp: Celsius,
    /// Estimated MTTF from damage accumulation + thermal cycling (worst
    /// core, sum of failure rates).
    pub mttf_estimate: Seconds,
}

#[derive(Debug, Clone)]
struct Job {
    task: usize,
    deadline_ms: f64,
    remaining_work: f64,
}

/// The multicore simulator.
#[derive(Debug, Clone)]
pub struct Simulator {
    platform: Platform,
    tasks: Vec<Task>,
    mapping: Mapping,
    config: SimConfig,
    levels: Vec<usize>,
    ready: Vec<Vec<Job>>,
    next_release_ms: Vec<f64>,
    thermal: ThermalModel,
    metrics: Metrics,
    wear_damage: Vec<f64>,
    temp_trace: Vec<f64>,
    peak_temp_sum: f64,
    quanta: u64,
    epoch_busy: Vec<f64>,
    epoch_elapsed: f64,
}

impl Simulator {
    /// Creates a simulator with every core at the top of its V-f ladder.
    ///
    /// # Errors
    ///
    /// Returns [`SysError`] variants for an invalid mapping or model
    /// parameters.
    pub fn new(
        platform: Platform,
        tasks: Vec<Task>,
        mapping: Mapping,
        config: SimConfig,
    ) -> Result<Self, SysError> {
        config.ser.validate()?;
        let n_cores = platform.core_count();
        Mapping::new(mapping.assignment().to_vec(), tasks.len(), n_cores)?;
        let levels = platform
            .cores()
            .iter()
            .map(|c| c.level_count() - 1)
            .collect();
        let thermal = ThermalModel::new(n_cores, config.thermal.clone())?;
        Ok(Simulator {
            levels,
            ready: vec![Vec::new(); n_cores],
            next_release_ms: vec![0.0; tasks.len()],
            thermal,
            metrics: Metrics::default(),
            wear_damage: vec![0.0; n_cores],
            temp_trace: Vec::new(),
            peak_temp_sum: 0.0,
            quanta: 0,
            epoch_busy: vec![0.0; n_cores],
            epoch_elapsed: 0.0,
            platform,
            tasks,
            mapping,
            config,
        })
    }

    /// Cumulative metrics so far.
    #[must_use]
    pub fn metrics(&self) -> Metrics {
        self.metrics
    }

    /// Current hottest-core temperature.
    #[must_use]
    pub fn peak_temperature(&self) -> Celsius {
        self.thermal.peak()
    }

    /// Mean utilization over all cores since the last level change (used as
    /// an observation by learning managers).
    #[must_use]
    pub fn recent_utilization(&self) -> f64 {
        if self.epoch_elapsed <= 0.0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        let n = self.epoch_busy.len() as f64;
        self.epoch_busy.iter().sum::<f64>() / (self.epoch_elapsed * n)
    }

    /// Sets every core's V-f level.
    ///
    /// # Errors
    ///
    /// Returns [`SysError::BadLevel`] for an invalid level on any core.
    pub fn set_global_level(&mut self, level: usize) -> Result<(), SysError> {
        for core in 0..self.platform.core_count() {
            if level >= self.platform.core(core).level_count() {
                return Err(SysError::BadLevel { core, level });
            }
        }
        for l in &mut self.levels {
            *l = level;
        }
        lori_obs::counter("sys.dvfs.actuations").incr(self.levels.len() as u64);
        self.epoch_busy.iter_mut().for_each(|b| *b = 0.0);
        self.epoch_elapsed = 0.0;
        Ok(())
    }

    /// Advances one quantum.
    fn step_quantum(&mut self) {
        let dt = QUANTUM_MS;
        let now = self.metrics.elapsed_ms;
        let n_cores = self.platform.core_count();

        // Release jobs.
        for t in 0..self.tasks.len() {
            while self.next_release_ms[t] <= now {
                let task = &self.tasks[t];
                self.ready[self.mapping.core_of(t)].push(Job {
                    task: t,
                    deadline_ms: self.next_release_ms[t] + task.period_ms,
                    remaining_work: task.wcet_work,
                });
                self.next_release_ms[t] += task.period_ms;
                self.metrics.released += 1;
            }
        }

        // Drop jobs that already missed their deadline.
        for queue in &mut self.ready {
            let before = queue.len();
            queue.retain(|j| j.deadline_ms > now);
            self.metrics.missed += (before - queue.len()) as u64;
        }

        // Execute.
        let mut power = vec![Watts(0.0); n_cores];
        for (core_idx, power_slot) in power.iter_mut().enumerate() {
            let core = self.platform.core(core_idx);
            let vf = core.vf(self.levels[core_idx]).expect("validated level");
            let temp = self.thermal.temperature(core_idx);
            let p_leak = core.leakage_power(vf.voltage, temp);

            // EDF pick: earliest absolute deadline.
            let pick = self.ready[core_idx]
                .iter()
                .enumerate()
                .min_by(|a, b| {
                    a.1.deadline_ms
                        .partial_cmp(&b.1.deadline_ms)
                        .expect("finite deadline")
                })
                .map(|(i, _)| i);

            let Some(ji) = pick else {
                *power_slot = p_leak;
                continue;
            };
            let job = &mut self.ready[core_idx][ji];
            let work_possible = core.throughput_per_ms(vf) * dt;
            let consumed = job.remaining_work.min(work_possible);
            job.remaining_work -= consumed;
            let busy_frac = (consumed / work_possible).clamp(0.0, 1.0);
            let busy_time_ms = dt * busy_frac;
            self.epoch_busy[core_idx] += busy_time_ms;

            // Soft-error exposure while the task runs.
            let rate = self
                .config
                .ser
                .rate_at(vf.voltage, core.kind.ser_cross_section());
            let avf = self.tasks[job.task].avf;
            self.metrics.expected_soft_errors += rate.per_second() * avf * busy_time_ms / 1000.0;

            if job.remaining_work <= 0.0 {
                self.metrics.completed += 1;
                self.ready[core_idx].remove(ji);
            }
            let p_dyn = core.dynamic_power(vf, busy_frac);
            *power_slot = Watts(p_dyn.value() + p_leak.value());
        }

        // Energy, thermal, wear.
        for p in &power {
            self.metrics.energy_j += p.value() * dt / 1000.0;
        }
        self.thermal.step(&power, dt);
        for core_idx in 0..n_cores {
            let core = self.platform.core(core_idx);
            let vf = core.vf(self.levels[core_idx]).expect("validated level");
            let temp = self.thermal.temperature(core_idx);
            let activity = (self.epoch_busy[core_idx] / (self.epoch_elapsed + dt)).clamp(0.05, 1.0);
            if let Ok(op) = Operating::new(temp, vf.voltage, activity) {
                let rate: f64 = [em_mttf(&op), tddb_mttf(&op), nbti_mttf(&op), hci_mttf(&op)]
                    .iter()
                    .map(|m| 1.0 / m.value().max(1.0))
                    .sum();
                self.wear_damage[core_idx] += rate * dt / 1000.0;
            }
        }

        // Trace + bookkeeping.
        let peak = self.thermal.peak().value();
        self.peak_temp_sum += peak;
        if self.quanta.is_multiple_of(TRACE_STRIDE) {
            self.temp_trace.push(peak);
        }
        self.quanta += 1;
        self.epoch_elapsed += dt;
        self.metrics.elapsed_ms += dt;
        self.metrics.worst_wear_damage = self.wear_damage.iter().copied().fold(0.0f64, f64::max);
    }

    /// Runs for `duration_ms` of simulated time, in whole quanta.
    ///
    /// # Errors
    ///
    /// Returns [`SysError::BadParameter`] for a non-finite or negative
    /// duration, which would run forever or not at all.
    pub fn run_for(&mut self, duration_ms: f64) -> Result<(), SysError> {
        check_duration(duration_ms)?;
        let end = self.metrics.elapsed_ms + duration_ms;
        while self.metrics.elapsed_ms < end {
            self.step_quantum();
        }
        Ok(())
    }

    /// Produces the final report.
    #[must_use]
    pub fn report(&self) -> SimReport {
        #[allow(clippy::cast_precision_loss)]
        let avg_peak = if self.quanta == 0 {
            self.config.thermal.ambient.value()
        } else {
            self.peak_temp_sum / self.quanta as f64
        };
        let elapsed_s = self.metrics.elapsed_ms / 1000.0;
        // Wear-out MTTF: elapsed / damage; TC added via the trace.
        let worst_damage_rate = if elapsed_s > 0.0 {
            self.metrics.worst_wear_damage / elapsed_s
        } else {
            0.0
        };
        let (tc_count, tc_amp) = count_thermal_cycles(&self.temp_trace, 3.0);
        #[allow(clippy::cast_precision_loss)]
        let tc_per_hour = if elapsed_s > 0.0 {
            tc_count as f64 / (elapsed_s / 3600.0)
        } else {
            0.0
        };
        let tc_rate = match tc_mttf(tc_amp, tc_per_hour.max(1e-9)) {
            Ok(m) => 1.0 / m.value().max(1.0),
            Err(_) => 0.0,
        };
        let total_rate = worst_damage_rate + tc_rate;
        let mttf = if total_rate > 0.0 {
            Seconds(1.0 / total_rate)
        } else {
            Seconds::from_years(crate::mttf::REF_YEARS * 100.0)
        };
        SimReport {
            metrics: self.metrics,
            avg_peak_temp: Celsius(avg_peak),
            mttf_estimate: mttf,
        }
    }
}

/// The `run_for` guard: a simulated duration must be finite and
/// non-negative.
fn check_duration(duration_ms: f64) -> Result<(), SysError> {
    if duration_ms.is_finite() && duration_ms >= 0.0 {
        return Ok(());
    }
    Err(SysError::BadParameter {
        what: "duration_ms",
        value: duration_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::CoreKind;
    use crate::task::generate_task_set;
    use lori_core::Rng;

    fn little_platform() -> Platform {
        Platform::homogeneous(CoreKind::Little, 2).unwrap()
    }

    fn light_tasks(seed: u64) -> Vec<Task> {
        let mut rng = Rng::from_seed(seed);
        // Reference throughput: Little at top level = 1600 MHz → 1.6e6/ms.
        generate_task_set(4, 0.4, 1.6e6, (10.0, 50.0), &mut rng).unwrap()
    }

    /// A simulator on two Little cores, every core at its top level.
    fn sim(seed: u64) -> Simulator {
        let tasks = light_tasks(seed);
        let mapping = Mapping::round_robin(tasks.len(), 2);
        Simulator::new(little_platform(), tasks, mapping, SimConfig::default()).unwrap()
    }

    #[test]
    fn light_load_meets_deadlines_at_top_level() {
        let mut s = sim(1);
        s.run_for(2000.0).unwrap();
        let r = s.report();
        assert!(r.metrics.released > 50);
        assert_eq!(r.metrics.missed, 0, "missed {}", r.metrics.missed);
        assert!(r.metrics.energy_j > 0.0);
    }

    #[test]
    fn lowest_level_saves_energy_but_risks_deadlines() {
        let mut top = sim(2);
        let mut low = sim(2);
        low.set_global_level(0).unwrap();
        top.run_for(2000.0).unwrap();
        low.run_for(2000.0).unwrap();
        let rt = top.report();
        let rl = low.report();
        assert!(
            rl.metrics.energy_j < rt.metrics.energy_j,
            "lowest level {} J vs top level {} J",
            rl.metrics.energy_j,
            rt.metrics.energy_j
        );
        // Deadline behaviour can only get worse at lower speed.
        assert!(rl.metrics.miss_rate() >= rt.metrics.miss_rate());
    }

    #[test]
    fn overload_misses_deadlines() {
        let mut rng = Rng::from_seed(3);
        // 2.5 total utilization on a single little core: hopeless.
        let tasks = generate_task_set(5, 2.5, 1.6e6, (10.0, 40.0), &mut rng).unwrap();
        let platform = Platform::homogeneous(CoreKind::Little, 1).unwrap();
        let mapping = Mapping::round_robin(tasks.len(), 1);
        let mut s = Simulator::new(platform, tasks, mapping, SimConfig::default()).unwrap();
        s.run_for(2000.0).unwrap();
        let r = s.report();
        assert!(
            r.metrics.miss_rate() > 0.3,
            "miss rate {}",
            r.metrics.miss_rate()
        );
    }

    #[test]
    fn lower_vf_reduces_temperature_and_raises_ser() {
        let mut hot = sim(4);
        let mut cool = sim(4);
        cool.set_global_level(0).unwrap();
        hot.run_for(3000.0).unwrap();
        cool.run_for(3000.0).unwrap();
        let rh = hot.report();
        let rc = cool.report();
        assert!(rc.avg_peak_temp.value() < rh.avg_peak_temp.value());
        // Lower V → exponentially higher SER; even with longer busy time
        // at low speed the expected soft errors must rise.
        assert!(
            rc.metrics.expected_soft_errors > rh.metrics.expected_soft_errors,
            "cool SER {} vs hot SER {}",
            rc.metrics.expected_soft_errors,
            rh.metrics.expected_soft_errors
        );
        // And wear-out lifetime improves at lower V/T.
        assert!(rc.mttf_estimate.value() > rh.mttf_estimate.value());
    }

    #[test]
    fn global_level_control_works() {
        let mut s = sim(7);
        s.set_global_level(0).unwrap();
        s.run_for(500.0).unwrap();
        let low_energy = s.metrics().energy_j;
        s.set_global_level(4).unwrap();
        s.run_for(500.0).unwrap();
        let high_delta = s.metrics().energy_j - low_energy;
        assert!(high_delta > low_energy, "high-level epoch must burn more");
        assert!(s.set_global_level(99).is_err());
    }

    #[test]
    fn metrics_diff() {
        let mut s = sim(8);
        s.run_for(500.0).unwrap();
        let snap = s.metrics();
        s.run_for(500.0).unwrap();
        let delta = s.metrics().since(&snap);
        assert!(delta.energy_j > 0.0);
        assert!((delta.elapsed_ms - 500.0).abs() < 1.5);
    }

    #[test]
    fn edf_clean_at_moderate_load_and_misses_in_overload() {
        let platform = Platform::homogeneous(CoreKind::Little, 1).unwrap();
        let run = |util: f64, seed: u64| {
            let mut rng = Rng::from_seed(seed);
            let tasks = generate_task_set(4, util, 1.6e6, (20.0, 60.0), &mut rng).unwrap();
            let mapping = Mapping::round_robin(tasks.len(), 1);
            let mut sim =
                Simulator::new(platform.clone(), tasks, mapping, SimConfig::default()).unwrap();
            sim.run_for(5000.0).unwrap();
            sim.report().metrics.miss_rate()
        };
        assert_eq!(run(0.6, 11), 0.0, "EDF missed at 0.6 util");
        assert!(run(2.0, 12) > 0.2, "EDF suspiciously clean at 2.0 util");
    }

    #[test]
    fn mapping_validation() {
        assert!(Mapping::new(vec![0, 1], 2, 2).is_ok());
        assert!(Mapping::new(vec![0, 5], 2, 2).is_err());
        assert!(Mapping::new(vec![0], 2, 2).is_err());
        let rr = Mapping::round_robin(5, 2);
        assert_eq!(rr.assignment(), &[0, 1, 0, 1, 0]);
    }

    #[test]
    fn simulator_validation() {
        let tasks = light_tasks(9);
        let off_platform = Mapping(vec![2; tasks.len()]);
        let mapping = Mapping::round_robin(tasks.len(), 2);
        let new =
            |mapping, config| Simulator::new(little_platform(), tasks.clone(), mapping, config);
        assert!(matches!(
            new(off_platform, SimConfig::default()),
            Err(SysError::BadMapping { what: "core", .. })
        ));
        let mut bad_ser = SimConfig::default();
        bad_ser.ser.volts_per_decade = 0.0;
        assert!(new(mapping, bad_ser).is_err());
    }

    #[test]
    fn non_finite_or_negative_duration_is_a_typed_error() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
            let mut s = sim(10);
            match s.run_for(bad) {
                Err(SysError::BadParameter { what, .. }) => assert_eq!(what, "duration_ms"),
                other => panic!("run_for({bad}) gave {other:?}"),
            }
            // Nothing was simulated.
            assert_eq!(s.metrics(), Metrics::default());
        }
        let mut s = sim(10);
        s.run_for(0.0).unwrap();
        assert_eq!(s.metrics().elapsed_ms, 0.0);
        s.run_for(2.5).unwrap();
        assert_eq!(s.metrics().elapsed_ms, 3.0);
    }
}
