//! Shared fixtures for the unit tests of this crate (compiled only for tests).

use optima_core::model::discharge::DischargeModel;
use optima_core::model::energy::{DischargeEnergyModel, WriteEnergyModel};
use optima_core::model::mismatch::MismatchSigmaModel;
use optima_core::model::suite::ModelSuite;
use optima_core::model::supply::SupplyModel;
use optima_core::model::temperature::TemperatureModel;
use optima_math::units::{Celsius, Volts};
use optima_math::Polynomial;

/// A suite whose discharge is exactly linear in overdrive and time:
/// `ΔV = 0.25 V/(V·ns) · V_od · t`.  With a linear DAC whose zero code sits at
/// the threshold voltage, the resulting multiplier is nearly ideal, which
/// makes expected results easy to reason about in tests.
pub(crate) fn linear_suite() -> ModelSuite {
    linear_suite_with_mismatch(MismatchSigmaModel::new(
        Polynomial::new(vec![0.0, 1e-3]),
        Polynomial::new(vec![0.0, 1.0]),
    ))
}

/// [`linear_suite`] with a caller-chosen mismatch σ-model.
pub(crate) fn linear_suite_with_mismatch(mismatch: MismatchSigmaModel) -> ModelSuite {
    ModelSuite::new(
        DischargeModel::new(
            Volts(1.0),
            Volts(0.45),
            Polynomial::new(vec![0.0, -0.25]),
            Polynomial::new(vec![0.0, 1.0]),
            (0.0, 3.0),
            (0.0, 1.1),
        ),
        SupplyModel::identity(Volts(1.0)),
        TemperatureModel::identity(Celsius(25.0)),
        mismatch,
        WriteEnergyModel::new(Polynomial::new(vec![11.0]), Polynomial::new(vec![1.0])),
        DischargeEnergyModel::new(
            Polynomial::new(vec![1.0]),
            Polynomial::new(vec![0.0, 45.0]),
            Polynomial::new(vec![1.0]),
        ),
    )
}

/// Like [`linear_suite`] but with supply and temperature sensitivity, so PVT
/// sweeps actually move the results.
pub(crate) fn pvt_sensitive_suite() -> ModelSuite {
    ModelSuite::new(
        DischargeModel::new(
            Volts(1.0),
            Volts(0.45),
            Polynomial::new(vec![0.0, -0.25]),
            Polynomial::new(vec![0.0, 1.0]),
            (0.0, 3.0),
            (0.0, 1.1),
        ),
        SupplyModel::new(Volts(1.0), Polynomial::new(vec![1.0, 0.6]), (0.9, 1.1)),
        TemperatureModel::new(Celsius(25.0), Polynomial::new(vec![1e-4]), (-40.0, 125.0)),
        MismatchSigmaModel::new(
            Polynomial::new(vec![0.0, 1.5e-3]),
            Polynomial::new(vec![0.0, 1.0]),
        ),
        WriteEnergyModel::new(
            Polynomial::new(vec![0.0, 0.0, 11.0]),
            Polynomial::new(vec![1.0, 4e-4]),
        ),
        DischargeEnergyModel::new(
            Polynomial::new(vec![0.0, 1.0]),
            Polynomial::new(vec![0.0, 45.0]),
            Polynomial::new(vec![1.0, 3e-4]),
        ),
    )
}
