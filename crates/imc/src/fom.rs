//! Figure-of-merit computation and corner selection (paper Eq. 9 / Table I).
//!
//! Out of the explored design corners the paper selects three:
//!
//! * **fom** — maximises `FOM = 1 / (ϵ_mul · E_mul)` (Eq. 9),
//! * **power** — minimum energy per multiplication,
//! * **variation** — smallest analog standard deviation at the maximum
//!   discharge (least impacted by process variation).

use crate::dse::DesignPointResult;
use crate::error::ImcError;
use std::fmt;

/// Which of the paper's named corners a selection refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CornerKind {
    /// The figure-of-merit optimum.
    Fom,
    /// The minimum-energy corner.
    Power,
    /// The mismatch-robust corner.
    Variation,
}

impl fmt::Display for CornerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            CornerKind::Fom => "fom",
            CornerKind::Power => "power",
            CornerKind::Variation => "variation",
        };
        write!(f, "{name}")
    }
}

/// The three selected corners of Table I.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectedCorners {
    /// Corner maximising the figure of merit.
    pub fom: DesignPointResult,
    /// Corner with the lowest energy per multiplication.
    pub power: DesignPointResult,
    /// Corner with the smallest σ at maximum discharge.
    pub variation: DesignPointResult,
}

impl SelectedCorners {
    /// Returns the corner of the given kind.
    pub fn corner(&self, kind: CornerKind) -> &DesignPointResult {
        match kind {
            CornerKind::Fom => &self.fom,
            CornerKind::Power => &self.power,
            CornerKind::Variation => &self.variation,
        }
    }
}

/// Selects the *fom*, *power* and *variation* corners from exploration results.
///
/// # Errors
///
/// Returns [`ImcError::EmptyDesignSpace`] when `results` is empty.
pub fn select_corners(results: &[DesignPointResult]) -> Result<SelectedCorners, ImcError> {
    if results.is_empty() {
        return Err(ImcError::EmptyDesignSpace);
    }

    // `total_cmp` keeps the selection deterministic even if a metric is NaN
    // (partial_cmp's Equal fallback made the winner depend on input order).
    let fom = results
        .iter()
        .max_by(|a, b| {
            a.metrics
                .figure_of_merit()
                .total_cmp(&b.metrics.figure_of_merit())
        })
        .copied()
        // optima-lint: allow(R3) -- max_by on a slice guarded non-empty above
        .expect("non-empty results");

    let power = results
        .iter()
        .min_by(|a, b| {
            a.metrics
                .energy_per_multiply
                .0
                .total_cmp(&b.metrics.energy_per_multiply.0)
        })
        .copied()
        // optima-lint: allow(R3) -- min_by on a slice guarded non-empty above
        .expect("non-empty results");

    let variation = results
        .iter()
        .min_by(|a, b| {
            a.metrics
                .sigma_at_max_discharge
                .0
                .total_cmp(&b.metrics.sigma_at_max_discharge.0)
        })
        .copied()
        // optima-lint: allow(R3) -- min_by on a slice guarded non-empty above
        .expect("non-empty results");

    Ok(SelectedCorners {
        fom,
        power,
        variation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse::{DesignPoint, DesignSpace, DesignSpaceExplorer};
    use crate::metrics::MultiplierMetrics;
    use crate::testsupport::linear_suite;
    use optima_math::units::{FemtoJoules, Seconds, Volts};

    fn synthetic_result(epsilon: f64, energy: f64, sigma_max: f64, tau0: f64) -> DesignPointResult {
        DesignPointResult {
            point: DesignPoint {
                tau0: Seconds(tau0),
                vdac_zero: Volts(0.3),
                vdac_full_scale: Volts(1.0),
                array: optima_circuit::array::ArrayConfig::default(),
            },
            metrics: MultiplierMetrics {
                epsilon_mul: epsilon,
                rms_error_lsb: epsilon * 1.2,
                max_error_lsb: epsilon * 3.0,
                energy_per_multiply: FemtoJoules(energy),
                energy_per_operation: FemtoJoules(energy + 40.0),
                sigma_at_max_discharge: Volts(sigma_max),
                worst_case_sigma: Volts(sigma_max * 1.1),
            },
        }
    }

    #[test]
    fn selection_picks_the_expected_corners() {
        let results = vec![
            synthetic_result(5.0, 40.0, 0.005, 0.16e-9), // best FOM (1/200)
            synthetic_result(15.0, 30.0, 0.006, 0.18e-9), // lowest energy
            synthetic_result(10.0, 70.0, 0.003, 0.24e-9), // lowest sigma
        ];
        let selected = select_corners(&results).unwrap();
        assert_eq!(selected.fom.point.tau0, Seconds(0.16e-9));
        assert_eq!(selected.power.point.tau0, Seconds(0.18e-9));
        assert_eq!(selected.variation.point.tau0, Seconds(0.24e-9));
        assert_eq!(selected.corner(CornerKind::Fom), &selected.fom);
        assert_eq!(selected.corner(CornerKind::Power), &selected.power);
        assert_eq!(selected.corner(CornerKind::Variation), &selected.variation);
    }

    #[test]
    fn empty_results_are_rejected() {
        assert!(matches!(
            select_corners(&[]),
            Err(ImcError::EmptyDesignSpace)
        ));
    }

    #[test]
    fn selection_from_a_real_exploration_is_consistent() {
        let explorer = DesignSpaceExplorer::new(linear_suite());
        let results = explorer.explore(&DesignSpace::small()).unwrap();
        let selected = select_corners(&results).unwrap();
        // The power corner can never cost more than the fom corner.
        assert!(
            selected.power.metrics.energy_per_multiply.0
                <= selected.fom.metrics.energy_per_multiply.0 + 1e-12
        );
        // The variation corner has the smallest sigma at max discharge.
        for result in &results {
            assert!(
                selected.variation.metrics.sigma_at_max_discharge.0
                    <= result.metrics.sigma_at_max_discharge.0 + 1e-15
            );
        }
    }

    #[test]
    fn corner_kind_display() {
        assert_eq!(CornerKind::Fom.to_string(), "fom");
        assert_eq!(CornerKind::Power.to_string(), "power");
        assert_eq!(CornerKind::Variation.to_string(), "variation");
    }
}
