//! Ordinary-differential-equation integrators.
//!
//! The golden-reference circuit simulator in `optima-circuit` integrates the
//! bit-line node equation `C · dV/dt = −I(V, t)` over time.  The paper's whole
//! point is that this (slow but accurate) integration can be replaced by
//! cheap polynomial models; we therefore need a solid reference integrator to
//! (a) produce calibration data and (b) measure the speed-up against.

use crate::error::MathError;

/// A single `(time, state)` sample of an ODE solution.
#[derive(Debug, Clone, PartialEq)]
pub struct OdeSample {
    /// Time of the sample.
    pub time: f64,
    /// State vector at that time.
    pub state: Vec<f64>,
}

/// Full trajectory produced by an integrator.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OdeSolution {
    /// Chronologically ordered samples, the first being the initial condition.
    pub samples: Vec<OdeSample>,
    /// Number of derivative evaluations performed (a proxy for simulation cost).
    pub derivative_evaluations: usize,
}

impl OdeSolution {
    /// Times of all samples.
    pub fn times(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.time).collect()
    }

    /// The `i`-th state component over time.
    ///
    /// # Panics
    ///
    /// Panics if any sample has fewer than `i + 1` components.
    pub fn component(&self, i: usize) -> Vec<f64> {
        self.samples.iter().map(|s| s.state[i]).collect()
    }

    /// The final state, if any integration step was produced.
    pub fn final_state(&self) -> Option<&[f64]> {
        self.samples.last().map(|s| s.state.as_slice())
    }
}

/// Integrates `dy/dt = f(t, y)` with the classic fixed-step fourth-order
/// Runge–Kutta method.
///
/// # Errors
///
/// Returns [`MathError::InvalidArgument`] if `t_end <= t_start`, `steps == 0`
/// or the initial state is empty.
///
/// # Example
///
/// ```rust
/// # fn main() -> Result<(), optima_math::MathError> {
/// use optima_math::ode::rk4;
///
/// // dy/dt = -y, y(0) = 1  =>  y(1) = e^-1
/// let sol = rk4(|_t, y, dy| dy[0] = -y[0], &[1.0], 0.0, 1.0, 100)?;
/// let y_end = sol.final_state().expect("solution exists")[0];
/// assert!((y_end - (-1.0f64).exp()).abs() < 1e-8);
/// # Ok(())
/// # }
/// ```
pub fn rk4<F>(
    mut f: F,
    y0: &[f64],
    t_start: f64,
    t_end: f64,
    steps: usize,
) -> Result<OdeSolution, MathError>
where
    F: FnMut(f64, &[f64], &mut [f64]),
{
    if t_end <= t_start {
        return Err(MathError::InvalidArgument {
            context: format!("integration interval [{t_start}, {t_end}] is empty"),
        });
    }
    if steps == 0 {
        return Err(MathError::InvalidArgument {
            context: "rk4 requires at least one step".to_string(),
        });
    }
    if y0.is_empty() {
        return Err(MathError::InvalidArgument {
            context: "initial state must not be empty".to_string(),
        });
    }

    let n = y0.len();
    let h = (t_end - t_start) / steps as f64;
    let mut y = y0.to_vec();
    let mut t = t_start;
    let mut evals = 0usize;

    let mut samples = Vec::with_capacity(steps + 1);
    samples.push(OdeSample {
        time: t,
        state: y.clone(),
    });

    let mut k1 = vec![0.0; n];
    let mut k2 = vec![0.0; n];
    let mut k3 = vec![0.0; n];
    let mut k4 = vec![0.0; n];
    let mut scratch = vec![0.0; n];

    for _ in 0..steps {
        f(t, &y, &mut k1);
        for i in 0..n {
            scratch[i] = y[i] + 0.5 * h * k1[i];
        }
        f(t + 0.5 * h, &scratch, &mut k2);
        for i in 0..n {
            scratch[i] = y[i] + 0.5 * h * k2[i];
        }
        f(t + 0.5 * h, &scratch, &mut k3);
        for i in 0..n {
            scratch[i] = y[i] + h * k3[i];
        }
        f(t + h, &scratch, &mut k4);
        evals += 4;

        for i in 0..n {
            y[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        t += h;
        samples.push(OdeSample {
            time: t,
            state: y.clone(),
        });
    }

    Ok(OdeSolution {
        samples,
        derivative_evaluations: evals,
    })
}

/// Integrates `dy/dt = f(t, y)` with an adaptive Runge–Kutta–Fehlberg (RK45)
/// scheme, adjusting the step size to keep the local error below
/// `tolerance`.
///
/// # Errors
///
/// * [`MathError::InvalidArgument`] for an empty interval, empty state or
///   non-positive tolerance.
/// * [`MathError::OdeStepFailure`] if the step size underflows before reaching
///   `t_end` (stiff or discontinuous right-hand side).
pub fn rk45<F>(
    mut f: F,
    y0: &[f64],
    t_start: f64,
    t_end: f64,
    tolerance: f64,
) -> Result<OdeSolution, MathError>
where
    F: FnMut(f64, &[f64], &mut [f64]),
{
    if t_end <= t_start {
        return Err(MathError::InvalidArgument {
            context: format!("integration interval [{t_start}, {t_end}] is empty"),
        });
    }
    if y0.is_empty() {
        return Err(MathError::InvalidArgument {
            context: "initial state must not be empty".to_string(),
        });
    }
    if tolerance <= 0.0 || !tolerance.is_finite() {
        return Err(MathError::InvalidArgument {
            context: "tolerance must be positive and finite".to_string(),
        });
    }

    let n = y0.len();
    let mut t = t_start;
    let mut y = y0.to_vec();
    let mut h = (t_end - t_start) / 100.0;
    let h_min = (t_end - t_start) * 1e-12;
    let mut evals = 0usize;

    let mut samples = vec![OdeSample {
        time: t,
        state: y.clone(),
    }];

    let mut k = vec![vec![0.0; n]; 6];
    let mut scratch = vec![0.0; n];

    // Fehlberg coefficients.
    const A: [f64; 6] = [0.0, 0.25, 3.0 / 8.0, 12.0 / 13.0, 1.0, 0.5];
    const B: [[f64; 5]; 6] = [
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [0.25, 0.0, 0.0, 0.0, 0.0],
        [3.0 / 32.0, 9.0 / 32.0, 0.0, 0.0, 0.0],
        [1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0, 0.0, 0.0],
        [439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0, 0.0],
        [
            -8.0 / 27.0,
            2.0,
            -3544.0 / 2565.0,
            1859.0 / 4104.0,
            -11.0 / 40.0,
        ],
    ];
    const C4: [f64; 6] = [
        25.0 / 216.0,
        0.0,
        1408.0 / 2565.0,
        2197.0 / 4104.0,
        -0.2,
        0.0,
    ];
    const C5: [f64; 6] = [
        16.0 / 135.0,
        0.0,
        6656.0 / 12825.0,
        28561.0 / 56430.0,
        -9.0 / 50.0,
        2.0 / 55.0,
    ];

    while t < t_end {
        if h < h_min {
            return Err(MathError::OdeStepFailure { time: t });
        }
        if t + h > t_end {
            h = t_end - t;
        }

        for stage in 0..6 {
            for i in 0..n {
                let mut acc = y[i];
                for (prev, b) in B[stage].iter().enumerate().take(stage) {
                    acc += h * b * k[prev][i];
                }
                scratch[i] = acc;
            }
            // Split borrow: the closure writes to k[stage] only.
            let (_, rest) = k.split_at_mut(stage);
            f(t + A[stage] * h, &scratch, &mut rest[0]);
            evals += 1;
        }

        // 4th- and 5th-order estimates and their difference (local error).
        let mut error: f64 = 0.0;
        let mut y5 = vec![0.0; n];
        for i in 0..n {
            let mut acc4 = y[i];
            let mut acc5 = y[i];
            for stage in 0..6 {
                acc4 += h * C4[stage] * k[stage][i];
                acc5 += h * C5[stage] * k[stage][i];
            }
            y5[i] = acc5;
            error = error.max((acc5 - acc4).abs());
        }

        if error <= tolerance || h <= h_min * 2.0 {
            t += h;
            y = y5;
            samples.push(OdeSample {
                time: t,
                state: y.clone(),
            });
        }

        // Step-size controller (with safety factor and growth clamps).
        let scale = if error == 0.0 {
            2.0
        } else {
            (0.9 * (tolerance / error).powf(0.2)).clamp(0.2, 2.0)
        };
        h *= scale;
    }

    Ok(OdeSolution {
        samples,
        derivative_evaluations: evals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rk4_solves_exponential_decay() {
        let sol = rk4(|_t, y, dy| dy[0] = -2.0 * y[0], &[1.0], 0.0, 1.0, 200).unwrap();
        let y_end = sol.final_state().unwrap()[0];
        assert!((y_end - (-2.0f64).exp()).abs() < 1e-9);
        assert_eq!(sol.samples.len(), 201);
        assert_eq!(sol.derivative_evaluations, 800);
    }

    #[test]
    fn rk4_solves_harmonic_oscillator() {
        // y'' = -y as a 2-state system; after 2π the state returns to the start.
        let two_pi = 2.0 * std::f64::consts::PI;
        let sol = rk4(
            |_t, y, dy| {
                dy[0] = y[1];
                dy[1] = -y[0];
            },
            &[1.0, 0.0],
            0.0,
            two_pi,
            2000,
        )
        .unwrap();
        let end = sol.final_state().unwrap();
        assert!((end[0] - 1.0).abs() < 1e-6);
        assert!(end[1].abs() < 1e-6);
    }

    #[test]
    fn rk4_validates_arguments() {
        assert!(rk4(|_t, _y, _dy| {}, &[1.0], 1.0, 0.0, 10).is_err());
        assert!(rk4(|_t, _y, _dy| {}, &[1.0], 0.0, 1.0, 0).is_err());
        assert!(rk4(|_t, _y, _dy| {}, &[], 0.0, 1.0, 10).is_err());
    }

    #[test]
    fn rk45_matches_analytic_solution() {
        let sol = rk45(|t, _y, dy| dy[0] = t.cos(), &[0.0], 0.0, 3.0, 1e-9).unwrap();
        let y_end = sol.final_state().unwrap()[0];
        assert!((y_end - 3.0f64.sin()).abs() < 1e-6);
        // Adaptive integration should need far fewer evaluations than a fine fixed grid.
        assert!(sol.derivative_evaluations < 4000);
    }

    #[test]
    fn rk45_reaches_exact_end_time() {
        let sol = rk45(|_t, y, dy| dy[0] = -y[0], &[1.0], 0.0, 2.5, 1e-8).unwrap();
        let last_t = sol.samples.last().unwrap().time;
        assert!((last_t - 2.5).abs() < 1e-12);
    }

    #[test]
    fn rk45_validates_arguments() {
        assert!(rk45(|_t, _y, _dy| {}, &[1.0], 0.0, 1.0, 0.0).is_err());
        assert!(rk45(|_t, _y, _dy| {}, &[1.0], 0.0, 1.0, -1.0).is_err());
        assert!(rk45(|_t, _y, _dy| {}, &[], 0.0, 1.0, 1e-6).is_err());
        assert!(rk45(|_t, _y, _dy| {}, &[1.0], 1.0, 1.0, 1e-6).is_err());
    }

    #[test]
    fn solution_accessors() {
        let sol = rk4(|_t, y, dy| dy[0] = -y[0], &[1.0], 0.0, 1.0, 4).unwrap();
        assert_eq!(sol.times().len(), 5);
        assert_eq!(sol.component(0).len(), 5);
        assert!(sol.component(0)[4] < 1.0);
    }
}
