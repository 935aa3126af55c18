//! Energy accounting for in-SRAM operations.
//!
//! The paper models two energy contributions (Eqs. 7–8): the data-independent
//! *write energy* `E_wr(VDD, T)` and the operand-dependent *discharge energy*
//! `E_dc(d, VDD, V_WL, T)` which is dominated by re-charging the bit-line
//! capacitance after the discharge.  This module produces the reference
//! energies that the OPTIMA energy models are fitted against.

use crate::pvt::PvtConditions;
use crate::technology::Technology;
use optima_math::units::{Joules, Volts};

/// Leakage/short-circuit overhead applied to the ideal `C·V²` write energy,
/// growing slowly with temperature.
const WRITE_TEMPERATURE_COEFFICIENT: f64 = 6e-4;

/// Temperature coefficient of the discharge (pre-charge replacement) energy.
const DISCHARGE_TEMPERATURE_COEFFICIENT: f64 = 3e-4;

/// Energy breakdown of a single in-SRAM operation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyReport {
    /// Energy of the cell write preceding the computation.
    pub write: Joules,
    /// Energy to re-charge the bit-line after the data-dependent discharge.
    pub discharge: Joules,
    /// Static/peripheral overhead (word-line driver, clocking).
    pub overhead: Joules,
}

impl EnergyReport {
    /// Builds the report for one operation given the measured pre-charge
    /// replacement energy.
    pub fn for_operation(
        tech: &Technology,
        pvt: &PvtConditions,
        cells_on_bitline: usize,
        precharge_energy: Joules,
    ) -> Self {
        EnergyReport {
            write: write_energy(tech, pvt),
            discharge: discharge_energy_from_precharge(pvt, tech, precharge_energy),
            overhead: overhead_energy(tech, pvt, cells_on_bitline),
        }
    }

    /// Total energy of the operation.
    pub fn total(&self) -> Joules {
        Joules(self.write.0 + self.discharge.0 + self.overhead.0)
    }
}

/// Reference write energy `E_wr(VDD, T)`.
///
/// Writing flips both bit-lines rail-to-rail and charges the internal cell
/// node, so the energy is `≈ (C_BL + C_node) · VDD²`, independent of the data
/// (symmetric cell layout), with a weak positive temperature dependence from
/// increased leakage during the write pulse.
pub fn write_energy(tech: &Technology, pvt: &PvtConditions) -> Joules {
    let c_total = tech.bitline_capacitance(16).0 + tech.cell_node_cap.0;
    let delta_t = pvt.temperature.0 - tech.temperature_nominal.0;
    let temp_factor = 1.0 + WRITE_TEMPERATURE_COEFFICIENT * delta_t;
    Joules(c_total * pvt.vdd.0 * pvt.vdd.0 * temp_factor.max(0.0))
}

/// Reference discharge energy `E_dc` given the measured bit-line discharge `ΔV_BL`.
///
/// The energy the supply must deliver during the next pre-charge is
/// `C_BL · VDD · ΔV_BL`; an additional weakly temperature-dependent factor
/// models the extra cross-conduction in the pre-charge devices.
pub fn discharge_energy(
    tech: &Technology,
    pvt: &PvtConditions,
    cells_on_bitline: usize,
    delta_v: Volts,
) -> Joules {
    let capacitance = tech.bitline_capacitance(cells_on_bitline).0;
    let base = capacitance * pvt.vdd.0 * delta_v.0.max(0.0);
    let delta_t = pvt.temperature.0 - tech.temperature_nominal.0;
    let temp_factor = 1.0 + DISCHARGE_TEMPERATURE_COEFFICIENT * delta_t;
    Joules(base * temp_factor.max(0.0))
}

/// Variant of [`discharge_energy`] that starts from an already-computed
/// pre-charge replacement energy (as returned by
/// [`crate::bitline::BitLine::precharge`]).
pub fn discharge_energy_from_precharge(
    pvt: &PvtConditions,
    tech: &Technology,
    precharge_energy: Joules,
) -> Joules {
    let delta_t = pvt.temperature.0 - tech.temperature_nominal.0;
    let temp_factor = 1.0 + DISCHARGE_TEMPERATURE_COEFFICIENT * delta_t;
    Joules(precharge_energy.0 * temp_factor.max(0.0))
}

/// Peripheral overhead energy (word-line driver and clock distribution),
/// proportional to `VDD²` and the column size.
pub fn overhead_energy(tech: &Technology, pvt: &PvtConditions, cells_on_bitline: usize) -> Joules {
    let driver_cap = 0.4e-15 + 0.01e-15 * cells_on_bitline as f64;
    let _ = tech;
    Joules(driver_cap * pvt.vdd.0 * pvt.vdd.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use optima_math::units::Celsius;

    fn setup() -> (Technology, PvtConditions) {
        let tech = Technology::tsmc65_like();
        let pvt = PvtConditions::nominal(&tech);
        (tech, pvt)
    }

    #[test]
    fn write_energy_is_femtojoule_scale() {
        let (tech, pvt) = setup();
        let e = write_energy(&tech, &pvt);
        let fj = e.to_femtojoules().0;
        assert!(
            fj > 1.0 && fj < 200.0,
            "write energy {fj} fJ is implausible"
        );
    }

    #[test]
    fn write_energy_scales_with_vdd_squared() {
        let (tech, pvt) = setup();
        let nominal = write_energy(&tech, &pvt).0;
        let high = write_energy(&tech, &pvt.with_vdd(Volts(1.1))).0;
        assert!((high / nominal - 1.21).abs() < 0.01);
    }

    #[test]
    fn write_energy_grows_slightly_with_temperature() {
        let (tech, pvt) = setup();
        let cold = write_energy(&tech, &pvt.with_temperature(Celsius(-40.0))).0;
        let hot = write_energy(&tech, &pvt.with_temperature(Celsius(125.0))).0;
        assert!(hot > cold);
        assert!(hot / cold < 1.2, "temperature effect must stay weak");
    }

    #[test]
    fn discharge_energy_is_proportional_to_delta_v() {
        let (tech, pvt) = setup();
        let small = discharge_energy(&tech, &pvt, 16, Volts(0.1)).0;
        let large = discharge_energy(&tech, &pvt, 16, Volts(0.4)).0;
        assert!((large / small - 4.0).abs() < 1e-9);
        assert_eq!(discharge_energy(&tech, &pvt, 16, Volts(-0.1)).0, 0.0);
    }

    #[test]
    fn discharge_energy_scales_with_bitline_size() {
        let (tech, pvt) = setup();
        let short = discharge_energy(&tech, &pvt, 4, Volts(0.3)).0;
        let long = discharge_energy(&tech, &pvt, 256, Volts(0.3)).0;
        assert!(long > short);
    }

    #[test]
    fn report_total_is_sum_of_parts() {
        let (tech, pvt) = setup();
        let report = EnergyReport::for_operation(&tech, &pvt, 16, Joules(5e-15));
        let total = report.total().0;
        assert!((total - (report.write.0 + report.discharge.0 + report.overhead.0)).abs() < 1e-24);
        assert!(report.overhead.0 > 0.0);
    }

    #[test]
    fn precharge_based_and_delta_based_discharge_energy_agree() {
        let (tech, pvt) = setup();
        let delta_v = Volts(0.25);
        let cap = tech.bitline_capacitance(16);
        let precharge = Joules(cap.0 * pvt.vdd.0 * delta_v.0);
        let from_precharge = discharge_energy_from_precharge(&pvt, &tech, precharge).0;
        let from_delta = discharge_energy(&tech, &pvt, 16, delta_v).0;
        assert!((from_precharge - from_delta).abs() / from_delta < 1e-9);
    }
}
