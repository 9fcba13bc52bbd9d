//! NLDM-style 2-D lookup tables over (input slew, output load).

use crate::error::CircuitError;

/// A 2-D lookup table with bilinear interpolation and clamped extrapolation,
/// as used by non-linear delay models in standard-cell libraries.
///
/// ```
/// use lori_circuit::lut::Lut2d;
/// # fn main() -> Result<(), lori_circuit::CircuitError> {
/// let lut = Lut2d::new(
///     vec![10.0, 20.0],           // slew axis
///     vec![1.0, 2.0],             // load axis
///     vec![vec![5.0, 7.0], vec![6.0, 8.0]],
/// )?;
/// assert!((lut.lookup(15.0, 1.5) - 6.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Lut2d {
    slews: Vec<f64>,
    loads: Vec<f64>,
    /// `values[i][j]` at `(slews[i], loads[j])`.
    values: Vec<Vec<f64>>,
}

impl Lut2d {
    /// Builds a table.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidGrid`] if either axis is empty or not
    /// strictly increasing, or the value matrix shape does not match.
    pub fn new(
        slews: Vec<f64>,
        loads: Vec<f64>,
        values: Vec<Vec<f64>>,
    ) -> Result<Self, CircuitError> {
        if slews.is_empty() || loads.is_empty() {
            return Err(CircuitError::InvalidGrid("empty axis"));
        }
        if !strictly_increasing(&slews) || !strictly_increasing(&loads) {
            return Err(CircuitError::InvalidGrid("axis not strictly increasing"));
        }
        if values.len() != slews.len() || values.iter().any(|row| row.len() != loads.len()) {
            return Err(CircuitError::InvalidGrid("value matrix shape mismatch"));
        }
        if values.iter().flatten().any(|v| !v.is_finite()) {
            return Err(CircuitError::InvalidGrid("non-finite value"));
        }
        Ok(Lut2d {
            slews,
            loads,
            values,
        })
    }

    /// The slew axis.
    #[must_use]
    pub fn slews(&self) -> &[f64] {
        &self.slews
    }

    /// The load axis.
    #[must_use]
    pub fn loads(&self) -> &[f64] {
        &self.loads
    }

    /// Bilinear interpolation; queries outside the grid clamp to the border.
    ///
    /// For delay, clamping is optimistic, not conservative: delay grows with
    /// slew and load, so a query past the grid's upper edge reads less than
    /// the physical value. The Fig. 3 flow queries far outside the default
    /// grid: about 81% of its instances see an input slew above the 160 ps
    /// edge of [`DEFAULT_SLEWS`](crate::characterize::DEFAULT_SLEWS), and its
    /// LUT critical path comes out about 40% below the golden engine's.
    ///
    /// [`Lut2d::new`] rejects non-finite grid values, but a NaN query can
    /// still read NaN. STA checks every delay and slew it consumes, from a
    /// table or a per-instance override, at its `circuit.lut` guard and
    /// returns [`CircuitError::NonFinite`] instead of a NaN arrival.
    #[must_use]
    pub fn lookup(&self, slew: f64, load: f64) -> f64 {
        let (i0, i1, ti) = bracket(&self.slews, slew);
        let (j0, j1, tj) = bracket(&self.loads, load);
        let v00 = self.values[i0][j0];
        let v01 = self.values[i0][j1];
        let v10 = self.values[i1][j0];
        let v11 = self.values[i1][j1];
        let a = v00 + (v01 - v00) * tj;
        let b = v10 + (v11 - v10) * tj;
        a + (b - a) * ti
    }
}

fn strictly_increasing(xs: &[f64]) -> bool {
    xs.windows(2).all(|w| w[0] < w[1]) && xs.iter().all(|x| x.is_finite())
}

/// Finds indices `(lo, hi)` bracketing `x` and the interpolation weight.
fn bracket(axis: &[f64], x: f64) -> (usize, usize, f64) {
    if axis.len() == 1 || x <= axis[0] {
        return (0, 0, 0.0);
    }
    if x >= *axis.last().expect("non-empty axis") {
        let last = axis.len() - 1;
        return (last, last, 0.0);
    }
    let hi = axis.partition_point(|&a| a < x).max(1);
    let lo = hi - 1;
    let t = (x - axis[lo]) / (axis[hi] - axis[lo]);
    (lo, hi, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lut() -> Lut2d {
        Lut2d::new(
            vec![10.0, 20.0, 40.0],
            vec![1.0, 2.0, 4.0],
            vec![
                vec![5.0, 7.0, 11.0],
                vec![6.0, 8.0, 12.0],
                vec![9.0, 11.0, 15.0],
            ],
        )
        .unwrap()
    }

    #[test]
    fn exact_grid_points() {
        let l = lut();
        assert_eq!(l.lookup(10.0, 1.0), 5.0);
        assert_eq!(l.lookup(40.0, 4.0), 15.0);
        assert_eq!(l.lookup(20.0, 2.0), 8.0);
    }

    #[test]
    fn bilinear_midpoints() {
        let l = lut();
        assert!((l.lookup(15.0, 1.5) - 6.5).abs() < 1e-12);
        assert!((l.lookup(30.0, 3.0) - 11.5).abs() < 1e-12);
    }

    #[test]
    fn extrapolation_clamps() {
        let l = lut();
        assert_eq!(l.lookup(0.0, 0.0), 5.0);
        assert_eq!(l.lookup(1e9, 1e9), 15.0);
        assert_eq!(l.lookup(0.0, 1e9), 11.0);
    }

    #[test]
    fn validation() {
        assert!(Lut2d::new(vec![], vec![1.0], vec![]).is_err());
        assert!(Lut2d::new(vec![2.0, 1.0], vec![1.0], vec![vec![0.0], vec![0.0]]).is_err());
        assert!(Lut2d::new(vec![1.0, 2.0], vec![1.0], vec![vec![0.0]]).is_err());
        assert!(Lut2d::new(vec![1.0], vec![1.0], vec![vec![f64::NAN]]).is_err());
        assert!(Lut2d::new(vec![1.0], vec![1.0], vec![vec![3.0]]).is_ok());
    }

    #[test]
    fn single_point_table() {
        let l = Lut2d::new(vec![1.0], vec![1.0], vec![vec![42.0]]).unwrap();
        assert_eq!(l.lookup(0.0, 100.0), 42.0);
    }

    #[test]
    fn interpolation_monotone_for_monotone_tables() {
        let l = lut();
        let mut prev = 0.0;
        for i in 0..30 {
            let slew = 10.0 + f64::from(i);
            let v = l.lookup(slew, 2.0);
            assert!(v >= prev - 1e-12);
            prev = v;
        }
    }
}
