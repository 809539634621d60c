//! Least-squares fitting of the paper's closed-form leakage and delay
//! surfaces.
//!
//! Section 3 of the paper reduces extensive HSPICE data to two fitted
//! forms, then optimises over those forms rather than over raw simulation:
//!
//! * Eq. 1 — leakage: `P(Vth, Tox) = A0 + A1·e^(a1·Vth) + A2·e^(a2·Tox)`
//! * Eq. 2 — delay: `T(Vth, Tox) = k0 + k1·e^(k3·Vth) + k2·Tox`
//!
//! [`LeakageFit::fit`] and [`DelayFit::fit`] perform the same reduction on
//! samples of our analytic model, using *variable projection*: the
//! nonlinear exponents are found by coordinate descent on a bracketing
//! grid, and for each candidate exponent pair the linear amplitudes are the
//! exact least-squares solution of a small normal system.
//!
//! ```
//! use nm_device::fit::{DelayFit, Sample};
//! use nm_device::{KnobGrid, KnobPoint};
//!
//! // A synthetic surface with the exact Eq. 2 shape is recovered ~perfectly.
//! let truth = |p: KnobPoint| 100.0 + 5.0 * (4.0 * p.vth().0).exp() + 20.0 * p.tox().0;
//! let samples: Vec<Sample> = KnobGrid::paper()
//!     .points()
//!     .map(|p| Sample { knobs: p, value: truth(p) })
//!     .collect();
//! let fit = DelayFit::fit(&samples)?;
//! assert!(fit.r_squared > 0.999);
//! # Ok::<(), nm_device::DeviceError>(())
//! ```

use crate::error::DeviceError;
use crate::knobs::KnobPoint;
use std::fmt;

/// One characterisation sample: a knob assignment and the observed value
/// (leakage in watts or delay in seconds — the fit is unit-agnostic).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Knob assignment the value was observed at.
    pub knobs: KnobPoint,
    /// Observed value.
    pub value: f64,
}

/// Solves the square linear system `M·x = b` in place by Gaussian
/// elimination with partial pivoting.
///
/// # Errors
///
/// Returns [`DeviceError::SingularSystem`] when a pivot vanishes.
pub fn solve_linear(mut m: Vec<Vec<f64>>, mut b: Vec<f64>) -> Result<Vec<f64>, DeviceError> {
    let n = b.len();
    assert!(
        m.len() == n && m.iter().all(|row| row.len() == n),
        "system must be square"
    );
    for col in 0..n {
        let pivot_row = (col..n)
            .max_by(|&i, &j| m[i][col].abs().total_cmp(&m[j][col].abs()))
            .unwrap_or(col);
        if m[pivot_row][col].abs() < 1e-300 {
            return Err(DeviceError::SingularSystem);
        }
        m.swap(col, pivot_row);
        b.swap(col, pivot_row);
        for row in (col + 1)..n {
            let factor = m[row][col] / m[col][col];
            // Two rows of the same matrix: split the borrow at `row`.
            let (pivot_rows, tail) = m.split_at_mut(row);
            let pivot = &pivot_rows[col];
            for (k, cell) in tail[0].iter_mut().enumerate().skip(col) {
                *cell -= factor * pivot[k];
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in (row + 1)..n {
            acc -= m[row][k] * x[k];
        }
        x[row] = acc / m[row][row];
    }
    Ok(x)
}

/// Ordinary least squares `argmin_x ‖A·x − y‖²` via the normal equations
/// (the designs here have ≤ 3 well-conditioned columns).
///
/// # Errors
///
/// Returns [`DeviceError::SingularSystem`] for rank-deficient designs.
pub fn least_squares(a: &[Vec<f64>], y: &[f64]) -> Result<Vec<f64>, DeviceError> {
    let rows = a.len();
    assert_eq!(rows, y.len(), "design and response must have equal rows");
    let cols = a[0].len();
    let mut ata = vec![vec![0.0; cols]; cols];
    let mut aty = vec![0.0; cols];
    for (row, &yi) in a.iter().zip(y) {
        assert_eq!(row.len(), cols, "ragged design matrix");
        for i in 0..cols {
            aty[i] += row[i] * yi;
            for j in 0..cols {
                ata[i][j] += row[i] * row[j];
            }
        }
    }
    solve_linear(ata, aty)
}

/// Coefficient of determination of predictions against observations.
///
/// Returns 1.0 for a perfect fit; can be negative for fits worse than the
/// mean. A constant response with zero residual reports 1.0.
pub fn r_squared(observed: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(observed.len(), predicted.len());
    let n = observed.len() as f64;
    let mean = observed.iter().sum::<f64>() / n;
    let ss_tot: f64 = observed.iter().map(|o| (o - mean) * (o - mean)).sum();
    let ss_res: f64 = observed
        .iter()
        .zip(predicted)
        .map(|(o, p)| (o - p) * (o - p))
        .sum();
    if ss_tot == 0.0 {
        if ss_res == 0.0 {
            1.0
        } else {
            f64::NEG_INFINITY
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

/// Fitted Eq. 1 leakage surface `A0 + A1·e^(a1·Vth) + A2·e^(a2·Tox)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakageFit {
    /// Constant floor `A0`.
    pub a0: f64,
    /// Subthreshold amplitude `A1`.
    pub a1: f64,
    /// Subthreshold exponent `a1` (1/V; negative — leakage falls with Vth).
    pub exp_vth: f64,
    /// Gate amplitude `A2`.
    pub a2: f64,
    /// Gate exponent `a2` (1/Å; negative — leakage falls with Tox).
    pub exp_tox: f64,
    /// Fit quality over the training samples.
    pub r_squared: f64,
}

impl LeakageFit {
    /// Fits Eq. 1 to characterisation samples.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::TooFewSamples`] with fewer than 6 samples and
    /// [`DeviceError::SingularSystem`] if the samples are degenerate (e.g.
    /// all at one knob point).
    pub fn fit(samples: &[Sample]) -> Result<Self, DeviceError> {
        let _span = nm_telemetry::span(crate::names::FIT_LEAKAGE);
        if samples.len() < 6 {
            return Err(DeviceError::TooFewSamples {
                got: samples.len(),
                need: 6,
            });
        }
        // Physical bracket: subthreshold slope is tens of 1/V (negative),
        // gate slope is ~ -1 to -3 per Å (negative).
        let (best, _) = project_two_exponents(
            samples,
            |s| s.knobs.vth().0,
            |s| s.knobs.tox().0,
            (-45.0, -5.0),
            (-4.0, -0.2),
        )?;
        Ok(best)
    }

    /// Evaluates the fitted surface at a knob point.
    ///
    /// The raw fitted form — use [`try_evaluate`](Self::try_evaluate) when
    /// the coefficients may have been perturbed (deserialized, hand-built,
    /// extrapolated) and garbage must become a typed error instead.
    pub fn evaluate(&self, knobs: KnobPoint) -> f64 {
        nm_telemetry::counter_inc(crate::names::EVALUATE);
        self.a0
            + self.a1 * (self.exp_vth * knobs.vth().0).exp()
            + self.a2 * (self.exp_tox * knobs.tox().0).exp()
    }

    /// [`evaluate`](Self::evaluate) with a range guard: the exponentials
    /// of Eq. 1 overflow to `inf`/NaN outside the characterized region
    /// (or under corrupt coefficients), and this surfaces that as a typed
    /// error instead of letting garbage propagate into a study.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::NonFiniteSurface`] when the surface value
    /// is NaN or infinite at `knobs`.
    pub fn try_evaluate(&self, knobs: KnobPoint) -> Result<f64, DeviceError> {
        nm_telemetry::counter_inc(crate::names::TRY_EVALUATE);
        let value = self.evaluate(knobs);
        if value.is_finite() {
            Ok(value)
        } else {
            Err(DeviceError::NonFiniteSurface {
                surface: "leakage",
                vth: knobs.vth().0,
                tox: knobs.tox().0,
                value,
            })
        }
    }
}

impl fmt::Display for LeakageFit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "P = {:.3e} + {:.3e}·e^({:.2}·Vth) + {:.3e}·e^({:.2}·Tox)  (R² = {:.4})",
            self.a0, self.a1, self.exp_vth, self.a2, self.exp_tox, self.r_squared
        )
    }
}

/// Fitted Eq. 2 delay surface `k0 + k1·e^(k3·Vth) + k2·Tox`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayFit {
    /// Constant term `k0`.
    pub k0: f64,
    /// Vth amplitude `k1`.
    pub k1: f64,
    /// Vth exponent `k3` (1/V; positive and "very small" per the paper).
    pub exp_vth: f64,
    /// Linear Tox slope `k2` (per Å).
    pub k2: f64,
    /// Fit quality over the training samples.
    pub r_squared: f64,
}

impl DelayFit {
    /// Fits Eq. 2 to characterisation samples.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::TooFewSamples`] with fewer than 5 samples and
    /// [`DeviceError::SingularSystem`] for degenerate sample sets.
    pub fn fit(samples: &[Sample]) -> Result<Self, DeviceError> {
        let _span = nm_telemetry::span(crate::names::FIT_DELAY);
        if samples.len() < 5 {
            return Err(DeviceError::TooFewSamples {
                got: samples.len(),
                need: 5,
            });
        }
        let mut best: Option<DelayFit> = None;
        // Variable projection over the single nonlinear exponent k3.
        let mut lo = 0.1;
        let mut hi = 12.0;
        for _round in 0..8 {
            let mut round_best: Option<(f64, DelayFit)> = None;
            for i in 0..=16 {
                let k3 = lo + (hi - lo) * i as f64 / 16.0;
                let design: Vec<Vec<f64>> = samples
                    .iter()
                    .map(|s| vec![1.0, (k3 * s.knobs.vth().0).exp(), s.knobs.tox().0])
                    .collect();
                let y: Vec<f64> = samples.iter().map(|s| s.value).collect();
                let Ok(coef) = least_squares(&design, &y) else {
                    continue;
                };
                let predicted: Vec<f64> = design
                    .iter()
                    .map(|row| coef[0] * row[0] + coef[1] * row[1] + coef[2] * row[2])
                    .collect();
                let r2 = r_squared(&y, &predicted);
                let candidate = DelayFit {
                    k0: coef[0],
                    k1: coef[1],
                    exp_vth: k3,
                    k2: coef[2],
                    r_squared: r2,
                };
                if round_best.as_ref().is_none_or(|(best_r2, _)| r2 > *best_r2) {
                    round_best = Some((r2, candidate));
                }
            }
            let Some((_, candidate)) = round_best else {
                return Err(DeviceError::SingularSystem);
            };
            let width = (hi - lo) / 8.0;
            lo = (candidate.exp_vth - width).max(0.01);
            hi = candidate.exp_vth + width;
            best = Some(candidate);
        }
        best.ok_or(DeviceError::SingularSystem)
    }

    /// Evaluates the fitted surface at a knob point.
    ///
    /// The raw fitted form — use [`try_evaluate`](Self::try_evaluate) when
    /// the coefficients may have been perturbed (deserialized, hand-built,
    /// extrapolated) and garbage must become a typed error instead.
    pub fn evaluate(&self, knobs: KnobPoint) -> f64 {
        nm_telemetry::counter_inc(crate::names::EVALUATE);
        self.k0 + self.k1 * (self.exp_vth * knobs.vth().0).exp() + self.k2 * knobs.tox().0
    }

    /// [`evaluate`](Self::evaluate) with a range guard: returns a typed
    /// error instead of a non-finite delay.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::NonFiniteSurface`] when the surface value
    /// is NaN or infinite at `knobs`.
    pub fn try_evaluate(&self, knobs: KnobPoint) -> Result<f64, DeviceError> {
        nm_telemetry::counter_inc(crate::names::TRY_EVALUATE);
        let value = self.evaluate(knobs);
        if value.is_finite() {
            Ok(value)
        } else {
            Err(DeviceError::NonFiniteSurface {
                surface: "delay",
                vth: knobs.vth().0,
                tox: knobs.tox().0,
                value,
            })
        }
    }
}

impl fmt::Display for DelayFit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "T = {:.3e} + {:.3e}·e^({:.2}·Vth) + {:.3e}·Tox  (R² = {:.4})",
            self.k0, self.k1, self.exp_vth, self.k2, self.r_squared
        )
    }
}

/// Coordinate-descent variable projection for the two-exponent Eq. 1 form.
fn project_two_exponents(
    samples: &[Sample],
    x1: impl Fn(&Sample) -> f64,
    x2: impl Fn(&Sample) -> f64,
    bracket1: (f64, f64),
    bracket2: (f64, f64),
) -> Result<(LeakageFit, f64), DeviceError> {
    let y: Vec<f64> = samples.iter().map(|s| s.value).collect();
    let evaluate = |e1: f64, e2: f64| -> Option<(LeakageFit, f64)> {
        let design: Vec<Vec<f64>> = samples
            .iter()
            .map(|s| vec![1.0, (e1 * x1(s)).exp(), (e2 * x2(s)).exp()])
            .collect();
        let coef = least_squares(&design, &y).ok()?;
        let predicted: Vec<f64> = design
            .iter()
            .map(|row| coef[0] * row[0] + coef[1] * row[1] + coef[2] * row[2])
            .collect();
        let r2 = r_squared(&y, &predicted);
        Some((
            LeakageFit {
                a0: coef[0],
                a1: coef[1],
                exp_vth: e1,
                a2: coef[2],
                exp_tox: e2,
                r_squared: r2,
            },
            r2,
        ))
    };

    let (mut lo1, mut hi1) = bracket1;
    let (mut lo2, mut hi2) = bracket2;
    let mut best: Option<(LeakageFit, f64)> = None;
    for _round in 0..6 {
        let mut round_best: Option<(LeakageFit, f64)> = None;
        for i in 0..=10 {
            let e1 = lo1 + (hi1 - lo1) * i as f64 / 10.0;
            for j in 0..=10 {
                let e2 = lo2 + (hi2 - lo2) * j as f64 / 10.0;
                if let Some((fit, r2)) = evaluate(e1, e2) {
                    if round_best.as_ref().is_none_or(|(_, b)| r2 > *b) {
                        round_best = Some((fit, r2));
                    }
                }
            }
        }
        let Some((fit, r2)) = round_best else {
            return Err(DeviceError::SingularSystem);
        };
        let w1 = (hi1 - lo1) / 5.0;
        let w2 = (hi2 - lo2) / 5.0;
        lo1 = fit.exp_vth - w1;
        hi1 = fit.exp_vth + w1;
        lo2 = fit.exp_tox - w2;
        hi2 = fit.exp_tox + w2;
        best = Some((fit, r2));
    }
    best.ok_or(DeviceError::SingularSystem)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knobs::KnobGrid;
    use crate::units::{Angstroms, Volts};

    fn grid_samples(f: impl Fn(KnobPoint) -> f64) -> Vec<Sample> {
        KnobGrid::paper()
            .points()
            .map(|p| Sample {
                knobs: p,
                value: f(p),
            })
            .collect()
    }

    #[test]
    fn solve_linear_identity() {
        let x = solve_linear(vec![vec![1.0, 0.0], vec![0.0, 1.0]], vec![3.0, 4.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12 && (x[1] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn solve_linear_requires_pivoting() {
        // First pivot is zero; partial pivoting must rescue it.
        let x = solve_linear(vec![vec![0.0, 1.0], vec![2.0, 0.0]], vec![5.0, 6.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12 && (x[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn solve_linear_detects_singularity() {
        let r = solve_linear(vec![vec![1.0, 2.0], vec![2.0, 4.0]], vec![1.0, 2.0]);
        assert_eq!(r, Err(DeviceError::SingularSystem));
    }

    #[test]
    fn least_squares_recovers_plane() {
        // y = 2 + 3·x over x = 0..10
        let a: Vec<Vec<f64>> = (0..10).map(|i| vec![1.0, i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| 2.0 + 3.0 * i as f64).collect();
        let c = least_squares(&a, &y).unwrap();
        assert!((c[0] - 2.0).abs() < 1e-9 && (c[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn r_squared_perfect_and_mean() {
        assert_eq!(r_squared(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]), 1.0);
        let r = r_squared(&[1.0, 2.0, 3.0], &[2.0, 2.0, 2.0]); // mean predictor
        assert!(r.abs() < 1e-12);
    }

    #[test]
    fn leakage_fit_recovers_exact_form() {
        let truth =
            |p: KnobPoint| 1e-4 + 3e-2 * (-22.0 * p.vth().0).exp() + 8e2 * (-1.3 * p.tox().0).exp();
        let fit = LeakageFit::fit(&grid_samples(truth)).unwrap();
        assert!(fit.r_squared > 0.999, "{fit}");
        assert!((fit.exp_vth + 22.0).abs() < 2.0, "{fit}");
        assert!((fit.exp_tox + 1.3).abs() < 0.3, "{fit}");
    }

    #[test]
    fn delay_fit_recovers_exact_form() {
        let truth = |p: KnobPoint| 50.0 + 2.0 * (5.5 * p.vth().0).exp() + 12.0 * p.tox().0;
        let fit = DelayFit::fit(&grid_samples(truth)).unwrap();
        assert!(fit.r_squared > 0.9999, "{fit}");
        assert!((fit.exp_vth - 5.5).abs() < 0.5, "{fit}");
        assert!((fit.k2 - 12.0).abs() < 1.0, "{fit}");
    }

    #[test]
    fn fit_rejects_too_few_samples() {
        let s = vec![
            Sample {
                knobs: KnobPoint::nominal(),
                value: 1.0,
            };
            3
        ];
        assert!(matches!(
            LeakageFit::fit(&s),
            Err(DeviceError::TooFewSamples { .. })
        ));
        assert!(matches!(
            DelayFit::fit(&s),
            Err(DeviceError::TooFewSamples { .. })
        ));
    }

    #[test]
    fn evaluate_matches_formula() {
        let fit = LeakageFit {
            a0: 1.0,
            a1: 2.0,
            exp_vth: -10.0,
            a2: 3.0,
            exp_tox: -1.0,
            r_squared: 1.0,
        };
        let p = KnobPoint::new(Volts(0.3), Angstroms(10.0)).unwrap();
        let expected = 1.0 + 2.0 * (-3.0f64).exp() + 3.0 * (-10.0f64).exp();
        assert!((fit.evaluate(p) - expected).abs() < 1e-12);

        let dfit = DelayFit {
            k0: 1.0,
            k1: 2.0,
            exp_vth: 3.0,
            k2: 4.0,
            r_squared: 1.0,
        };
        let expected_d = 1.0 + 2.0 * (0.9f64).exp() + 40.0;
        assert!((dfit.evaluate(p) - expected_d).abs() < 1e-12);
    }

    #[test]
    fn try_evaluate_accepts_finite_and_rejects_overflowed_surfaces() {
        let p = KnobPoint::new(Volts(0.3), Angstroms(10.0)).unwrap();
        let healthy = LeakageFit {
            a0: 1.0,
            a1: 2.0,
            exp_vth: -10.0,
            a2: 3.0,
            exp_tox: -1.0,
            r_squared: 1.0,
        };
        assert_eq!(healthy.try_evaluate(p), Ok(healthy.evaluate(p)));

        // An exponent far outside the physical bracket overflows Eq. 1
        // to infinity — the guard turns that into a typed error.
        let overflowed = LeakageFit {
            exp_tox: 1e3,
            ..healthy
        };
        match overflowed.try_evaluate(p) {
            Err(DeviceError::NonFiniteSurface {
                surface, vth, tox, ..
            }) => {
                assert_eq!(surface, "leakage");
                assert_eq!((vth, tox), (0.3, 10.0));
            }
            other => panic!("expected NonFiniteSurface, got {other:?}"),
        }

        let poisoned_delay = DelayFit {
            k0: f64::NAN,
            k1: 2.0,
            exp_vth: 3.0,
            k2: 4.0,
            r_squared: 1.0,
        };
        assert!(matches!(
            poisoned_delay.try_evaluate(p),
            Err(DeviceError::NonFiniteSurface {
                surface: "delay",
                ..
            })
        ));
    }

    #[test]
    fn display_shows_r_squared() {
        let fit = DelayFit {
            k0: 0.0,
            k1: 1.0,
            exp_vth: 2.0,
            k2: 3.0,
            r_squared: 0.5,
        };
        assert!(fit.to_string().contains("R²"));
    }
}
