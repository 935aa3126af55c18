//! Ordinary-differential-equation integration.
//!
//! The golden-reference circuit simulator in `optima-circuit` integrates the
//! bit-line node equation `C · dV/dt = −I(V, t)` over time.  The paper's whole
//! point is that this (slow but accurate) integration can be replaced by
//! cheap polynomial models; we therefore need a solid reference integrator to
//! (a) produce calibration data and (b) measure the speed-up against.
//!
//! The state dimension `N` is a compile-time constant and the trajectory is
//! stored in two flat vectors (the time axis, and the `N` state components
//! of each sample one after another), so a step allocates nothing.  A batch of `N` *independent* scalar equations is an
//! `N`-component system whose components never read each other: each one
//! then runs exactly the arithmetic of a one-component integration, which is
//! how the circuit simulator advances several Monte-Carlo instances in
//! lock-step with bit-identical results.

use crate::error::MathError;

/// Trajectory of a fixed-step integration of an `N`-component system.
///
/// Sample `k` is the state after `k` steps; sample 0 is the initial
/// condition.
#[derive(Debug, Clone, PartialEq)]
pub struct OdeSolution<const N: usize> {
    times: Vec<f64>,
    /// Row-major: the `N` components of sample `k` at `k * N ..`.
    states: Vec<f64>,
    derivative_evaluations: usize,
}

impl<const N: usize> Default for OdeSolution<N> {
    fn default() -> Self {
        OdeSolution {
            times: Vec::new(),
            states: Vec::new(),
            derivative_evaluations: 0,
        }
    }
}

impl<const N: usize> OdeSolution<N> {
    /// Times of all samples, in integration order.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The `i`-th state component over time.
    ///
    /// # Panics
    ///
    /// Panics if `i >= N`.
    pub fn component(&self, i: usize) -> impl ExactSizeIterator<Item = f64> + '_ {
        assert!(i < N, "component {i} of a {N}-component solution");
        self.states.iter().skip(i).step_by(N).copied()
    }

    /// The final state, if the solution holds any sample.
    pub fn final_state(&self) -> Option<&[f64; N]> {
        self.states.last_chunk()
    }

    /// The time axis and the flat state vector (row-major, `N` components
    /// per sample); for `N == 1` the latter is the one component over time.
    pub fn into_parts(self) -> (Vec<f64>, Vec<f64>) {
        (self.times, self.states)
    }

    /// Number of derivative evaluations performed (a proxy for simulation
    /// cost).
    pub fn derivative_evaluations(&self) -> usize {
        self.derivative_evaluations
    }
}

/// Integrates `dy/dt = f(t, y)` with the classic fixed-step fourth-order
/// Runge–Kutta method into `solution`.
///
/// The solution's buffers are reused: integrating into a solution that
/// already held `steps + 1` samples allocates nothing.
///
/// # Errors
///
/// Returns [`MathError::InvalidArgument`] if `t_end <= t_start`, `steps == 0`
/// or the state is empty (`N == 0`); `solution` is then left empty.
///
/// # Example
///
/// ```rust
/// # fn main() -> Result<(), optima_math::MathError> {
/// use optima_math::ode::{rk4, OdeSolution};
///
/// // dy/dt = -y, y(0) = 1  =>  y(1) = e^-1
/// let mut sol = OdeSolution::default();
/// rk4(|_t, y, dy| dy[0] = -y[0], [1.0], 0.0, 1.0, 100, &mut sol)?;
/// let y_end = sol.final_state().expect("solution exists")[0];
/// assert!((y_end - (-1.0f64).exp()).abs() < 1e-8);
/// # Ok(())
/// # }
/// ```
pub fn rk4<const N: usize, F>(
    mut f: F,
    y0: [f64; N],
    t_start: f64,
    t_end: f64,
    steps: usize,
    solution: &mut OdeSolution<N>,
) -> Result<(), MathError>
where
    F: FnMut(f64, &[f64; N], &mut [f64; N]),
{
    solution.times.clear();
    solution.states.clear();
    solution.derivative_evaluations = 0;
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
    if N == 0 {
        return Err(MathError::InvalidArgument {
            context: "initial state must not be empty".to_string(),
        });
    }

    let h = (t_end - t_start) / steps as f64;
    let mut y = y0;
    let mut t = t_start;
    solution.times.reserve(steps + 1);
    solution.states.reserve(N * (steps + 1));
    solution.times.push(t);
    solution.states.extend_from_slice(&y);

    let mut k1 = [0.0; N];
    let mut k2 = [0.0; N];
    let mut k3 = [0.0; N];
    let mut k4 = [0.0; N];
    let mut scratch = [0.0; N];

    // optima-lint: hot
    for _ in 0..steps {
        f(t, &y, &mut k1);
        for i in 0..N {
            scratch[i] = y[i] + 0.5 * h * k1[i];
        }
        f(t + 0.5 * h, &scratch, &mut k2);
        for i in 0..N {
            scratch[i] = y[i] + 0.5 * h * k2[i];
        }
        f(t + 0.5 * h, &scratch, &mut k3);
        for i in 0..N {
            scratch[i] = y[i] + h * k3[i];
        }
        f(t + h, &scratch, &mut k4);

        for i in 0..N {
            y[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        t += h;
        solution.times.push(t);
        solution.states.extend_from_slice(&y);
    }
    // optima-lint: end-hot
    solution.derivative_evaluations = 4 * steps;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve<const N: usize>(
        f: impl FnMut(f64, &[f64; N], &mut [f64; N]),
        y0: [f64; N],
        t_end: f64,
        steps: usize,
    ) -> OdeSolution<N> {
        let mut solution = OdeSolution::default();
        rk4(f, y0, 0.0, t_end, steps, &mut solution).unwrap();
        solution
    }

    #[test]
    fn rk4_solves_exponential_decay() {
        let sol = solve(|_t, y, dy| dy[0] = -2.0 * y[0], [1.0], 1.0, 200);
        let y_end = sol.final_state().unwrap()[0];
        assert!((y_end - (-2.0f64).exp()).abs() < 1e-9);
        assert_eq!(sol.times().len(), 201);
        assert_eq!(sol.derivative_evaluations(), 800);
    }

    #[test]
    fn rk4_solves_harmonic_oscillator() {
        // y'' = -y as a 2-state system; after 2π the state returns to the start.
        let two_pi = 2.0 * std::f64::consts::PI;
        let sol = solve(
            |_t, y, dy| {
                dy[0] = y[1];
                dy[1] = -y[0];
            },
            [1.0, 0.0],
            two_pi,
            2000,
        );
        let end = sol.final_state().unwrap();
        assert!((end[0] - 1.0).abs() < 1e-6);
        assert!(end[1].abs() < 1e-6);
    }

    #[test]
    fn rk4_validates_arguments() {
        let mut sol = OdeSolution::default();
        assert!(rk4(|_t, _y, _dy| {}, [1.0], 1.0, 0.0, 10, &mut sol).is_err());
        assert!(rk4(|_t, _y, _dy| {}, [1.0], 0.0, 1.0, 0, &mut sol).is_err());
        let mut empty = OdeSolution::<0>::default();
        assert!(rk4(|_t, _y, _dy| {}, [], 0.0, 1.0, 10, &mut empty).is_err());
    }

    #[test]
    fn solution_accessors() {
        let sol = solve(|_t, y, dy| dy[0] = -y[0], [1.0], 1.0, 4);
        assert_eq!(sol.times().len(), 5);
        assert_eq!(sol.component(0).len(), 5);
        assert!(sol.component(0).last().unwrap() < 1.0);
        let (times, states) = sol.into_parts();
        assert_eq!((times.len(), states.len()), (5, 5));
    }

    #[test]
    fn independent_components_integrate_exactly_like_single_ones() {
        // Each component of a decoupled system runs the one-component
        // arithmetic, so lock-step lanes are bit-identical to lone solves.
        let rates = [-0.5, -1.0, -2.0, -3.7];
        let starts = [1.0, 0.9, 0.8, 0.7];
        let batch = solve(
            |_t, y: &[f64; 4], dy: &mut [f64; 4]| {
                for i in 0..4 {
                    dy[i] = rates[i] * y[i].max(0.1) / 1.3;
                }
            },
            starts,
            2.0,
            37,
        );
        for (lane, (&rate, y0)) in rates.iter().zip(starts).enumerate() {
            let lone = solve(
                |_t, y, dy| dy[0] = rate * y[0].max(0.1) / 1.3,
                [y0],
                2.0,
                37,
            );
            assert_eq!(batch.times(), lone.times());
            let lane_bits: Vec<u64> = batch.component(lane).map(f64::to_bits).collect();
            let lone_bits: Vec<u64> = lone.component(0).map(f64::to_bits).collect();
            assert_eq!(lane_bits, lone_bits, "lane {lane}");
        }
    }

    #[test]
    fn reused_solution_buffers_are_refilled_not_appended() {
        let mut sol = OdeSolution::default();
        rk4(|_t, y, dy| dy[0] = -y[0], [1.0], 0.0, 1.0, 8, &mut sol).unwrap();
        let first = sol.clone();
        rk4(|_t, y, dy| dy[0] = -y[0], [1.0], 0.0, 1.0, 8, &mut sol).unwrap();
        assert_eq!(sol, first);
        assert!(rk4(|_t, _y, _dy| {}, [1.0], 0.0, 1.0, 0, &mut sol).is_err());
        assert!(sol.times().is_empty() && sol.final_state().is_none());
    }
}
