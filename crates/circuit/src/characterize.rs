//! Library characterization flows.
//!
//! Two characterizations mirror the paper's Fig. 3:
//!
//! 1. [`characterize_library`] — the conventional flow: golden-model sweeps
//!    over a (slew × load) grid at one corner (temperature, ΔVth), producing
//!    NLDM delay/slew tables.
//! 2. [`she_as_delay_library`] — the Fig. 3 trick: a library whose *delay*
//!    slots contain the SHE temperatures. Running conventional STA with this
//!    library produces an "SDF" whose numbers are per-instance SHE
//!    temperatures rather than delays.

use crate::cell::{cell_name, CellKind, Library, StandardCell, DRIVE_STRENGTHS};
use crate::error::CircuitError;
use crate::lut::Lut2d;
use crate::she::SheModel;
use crate::spicelike::{ArcTiming, GoldenSimulator, OperatingPoint};
use lori_core::units::{Celsius, Volts};
use lori_par::Parallelism;

/// Default input-slew grid in ps.
pub const DEFAULT_SLEWS: [f64; 6] = [5.0, 10.0, 20.0, 40.0, 80.0, 160.0];
/// Default output-load grid in fF.
pub const DEFAULT_LOADS: [f64; 6] = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0];

/// A characterization corner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Corner {
    /// Chip (ambient die) temperature.
    pub chip_temperature: Celsius,
    /// Uniform aging shift applied to every device.
    pub delta_vth: Volts,
}

impl Default for Corner {
    fn default() -> Self {
        Corner {
            chip_temperature: Celsius(65.0),
            delta_vth: Volts(0.0),
        }
    }
}

/// Characterizes one cell at a corner, its 36 grid points in one golden
/// batch.
fn characterize_cell(
    sim: &GoldenSimulator,
    kind: CellKind,
    drive: f64,
    corner: &Corner,
) -> Result<StandardCell, CircuitError> {
    let slews = DEFAULT_SLEWS.to_vec();
    let loads = DEFAULT_LOADS.to_vec();
    let grid: Vec<(CellKind, f64, OperatingPoint)> = slews
        .iter()
        .flat_map(|&slew_ps| {
            loads.iter().map(move |&load_ff| {
                let op = OperatingPoint {
                    slew_ps,
                    load_ff,
                    temperature: corner.chip_temperature,
                    delta_vth: corner.delta_vth,
                };
                (kind, drive, op)
            })
        })
        .collect();
    let timings = sim.characterize_many(&grid);
    for t in &timings {
        check_grid_point(t, corner)?;
    }
    let rows = |field: fn(&ArcTiming) -> f64| -> Vec<Vec<f64>> {
        timings
            .chunks(loads.len())
            .map(|row| row.iter().map(field).collect())
            .collect()
    };
    let delay = rows(|t| t.delay_ps);
    let out_slew = rows(|t| t.out_slew_ps);
    Ok(StandardCell {
        name: cell_name(kind, drive),
        kind,
        drive,
        pin_cap_ff: kind.pin_cap_factor() * sim.tech().unit_pin_cap_ff * drive,
        delay: Lut2d::new(slews.clone(), loads.clone(), delay)?,
        out_slew: Lut2d::new(slews, loads, out_slew)?,
    })
}

/// The `circuit.characterize` guard on one golden grid point. A cell that
/// does not switch (non-finite delay) means the corner is outside the
/// model's domain; a non-finite output slew of a switching cell is a typed
/// error instead of a NaN in the library.
fn check_grid_point(t: &ArcTiming, corner: &Corner) -> Result<(), CircuitError> {
    if !t.delay_ps.is_finite() {
        return Err(CircuitError::InvalidParameter {
            what: "corner produced non-switching cell",
            value: corner.delta_vth.value(),
        });
    }
    if !t.out_slew_ps.is_finite() {
        lori_obs::counter("fault.detected").incr(1);
        return Err(CircuitError::NonFinite {
            site: "circuit.characterize",
            what: "out_slew_ps",
        });
    }
    Ok(())
}

/// Characterizes the full built-in catalog (12 kinds × 5 drives = 60 cells)
/// at a corner with the conventional flow (no SHE feedback), fanning cells
/// out over the process-default worker pool ([`lori_par::global`]).
///
/// # Errors
///
/// Propagates characterization failures (e.g. a corner so aged that cells
/// stop switching).
pub fn characterize_library(
    sim: &GoldenSimulator,
    corner: &Corner,
) -> Result<Library, CircuitError> {
    build_library(sim, corner, lori_par::global())
}

/// [`characterize_library`] with an explicit worker pool.
///
/// # Errors
///
/// Same as [`characterize_library`].
pub fn characterize_library_par(
    sim: &GoldenSimulator,
    corner: &Corner,
    par: Parallelism,
) -> Result<Library, CircuitError> {
    build_library(sim, corner, par)
}

fn build_library(
    sim: &GoldenSimulator,
    corner: &Corner,
    par: Parallelism,
) -> Result<Library, CircuitError> {
    // The golden sweeps per cell are pure functions of (kind, drive,
    // corner), so the per-cell fan-out is deterministic by
    // construction; cells are inserted in catalog order afterwards, which
    // keeps CellId assignment identical to the serial flow. The first
    // error in catalog order wins, matching serial short-circuiting.
    let catalog: Vec<(CellKind, f64)> = CellKind::ALL
        .into_iter()
        .flat_map(|kind| DRIVE_STRENGTHS.into_iter().map(move |drive| (kind, drive)))
        .collect();
    let _span = lori_obs::span("circuit.characterize_library");
    let cells = lori_par::par_map(par, &catalog, |_, &(kind, drive)| {
        characterize_cell(sim, kind, drive, corner)
    });
    let mut lib = Library::new();
    for cell in cells {
        lib.add(cell?)?;
    }
    Ok(lib)
}

/// The default-corner library, characterized once per test binary and shared
/// by every unit test in this crate that only reads it.
#[cfg(test)]
pub(crate) fn default_library() -> &'static Library {
    static LIB: std::sync::OnceLock<Library> = std::sync::OnceLock::new();
    LIB.get_or_init(|| {
        let sim = GoldenSimulator::new(crate::tech::TechParams::default()).unwrap();
        characterize_library(&sim, &Corner::default()).unwrap()
    })
}

/// Builds the Fig.-3 "temperatures in the delay slots" library: cells whose
/// delay LUT holds the SHE ΔT (in K) for each (slew, load) point and whose
/// output-slew LUT is copied from a timing library so slew propagation in
/// STA still behaves. An STA run with this library reports per-instance SHE
/// instead of delays.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidParameter`] via SHE validation, or grid
/// errors.
pub fn she_as_delay_library(
    timing_library: &Library,
    she: &SheModel,
) -> Result<Library, CircuitError> {
    she.validate()?;
    let mut lib = Library::new();
    for (_, cell) in timing_library.iter() {
        let slews = cell.delay.slews().to_vec();
        let loads = cell.delay.loads().to_vec();
        let mut values = vec![vec![0.0; loads.len()]; slews.len()];
        for (i, &s) in slews.iter().enumerate() {
            for (j, &l) in loads.iter().enumerate() {
                values[i][j] = she.delta_t(cell.drive, s, l, she.default_activity).value();
            }
        }
        lib.add(StandardCell {
            name: cell.name.clone(),
            kind: cell.kind,
            drive: cell.drive,
            pin_cap_ff: cell.pin_cap_ff,
            delay: Lut2d::new(slews, loads, values)?,
            out_slew: cell.out_slew.clone(),
        })?;
    }
    Ok(lib)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tech::TechParams;

    fn sim() -> GoldenSimulator {
        GoldenSimulator::new(TechParams::default()).unwrap()
    }

    #[test]
    fn catalog_has_sixty_cells() {
        let lib = default_library();
        assert_eq!(lib.len(), 60);
        assert!(lib.find("INV_X1").is_some());
        assert!(lib.find("MAJ3_X8").is_some());
    }

    #[test]
    fn tables_are_monotone_in_load() {
        let lib = default_library();
        let inv = lib.cell(lib.find("INV_X1").unwrap());
        let (d_small, _) = inv.timing(20.0, 1.0);
        let (d_big, _) = inv.timing(20.0, 8.0);
        assert!(d_big > d_small);
    }

    #[test]
    fn aged_corner_is_slower() {
        let fresh = default_library();
        let aged_corner = Corner {
            delta_vth: Volts(0.05),
            ..Corner::default()
        };
        let aged = characterize_library(&sim(), &aged_corner).unwrap();
        let f = fresh.cell(fresh.find("XOR2_X2").unwrap());
        let a = aged.cell(aged.find("XOR2_X2").unwrap());
        assert!(a.timing(20.0, 4.0).0 > f.timing(20.0, 4.0).0);
    }

    #[test]
    fn she_as_delay_holds_temperatures() {
        let timing = default_library();
        let she_lib = she_as_delay_library(timing, &SheModel::default()).unwrap();
        assert_eq!(she_lib.len(), timing.len());
        let cell = she_lib.cell(she_lib.find("INV_X1").unwrap());
        // "Delays" are now kelvin in the Fig.-2 regime, not ps.
        let (dt, _) = cell.timing(40.0, 8.0);
        assert!(dt > 0.0 && dt < 60.0, "ΔT {dt}");
        // Hotter at higher load.
        assert!(cell.timing(40.0, 16.0).0 > cell.timing(40.0, 1.0).0);
    }

    #[test]
    fn catastrophic_corner_fails_cleanly() {
        let s = sim();
        let dead = Corner {
            delta_vth: Volts(0.6),
            ..Corner::default()
        };
        assert!(characterize_library(&s, &dead).is_err());
        // Errors surface under parallel characterization too.
        assert!(characterize_library_par(&s, &dead, Parallelism::new(4)).is_err());
    }

    #[test]
    fn parallel_characterize_bit_identical_to_serial() {
        let s = sim();
        let corner = Corner::default();
        let serial = characterize_library_par(&s, &corner, Parallelism::serial()).unwrap();
        let parallel = characterize_library_par(&s, &corner, Parallelism::new(4)).unwrap();
        // Full-struct equality: identical cell order (CellIds), names, and
        // bit-identical LUT contents.
        assert_eq!(serial, parallel);
    }

    #[test]
    fn non_finite_grid_point_is_a_typed_error() {
        let corner = Corner::default();
        let point = |delay_ps, out_slew_ps| ArcTiming {
            delay_ps,
            out_slew_ps,
        };
        assert_eq!(check_grid_point(&point(12.0, 8.0), &corner), Ok(()));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                check_grid_point(&point(bad, 8.0), &corner),
                Err(CircuitError::InvalidParameter {
                    what: "corner produced non-switching cell",
                    value: corner.delta_vth.value(),
                }),
                "delay {bad}"
            );
            assert_eq!(
                check_grid_point(&point(12.0, bad), &corner),
                Err(CircuitError::NonFinite {
                    site: "circuit.characterize",
                    what: "out_slew_ps",
                }),
                "out_slew {bad}"
            );
        }
    }
}
