//! CMOS technology description: nominal device parameters, process corners
//! and temperature dependence.
//!
//! The paper uses a TSMC 65 nm technology; its exact parameters are
//! proprietary, so this module provides a *65 nm-class* parameter set
//! ([`Technology::tsmc65_like`]) that reproduces the qualitative device
//! behaviour the paper relies on (see DESIGN.md, substitution table).

use optima_math::units::{Celsius, Farads, Volts};
use std::fmt;

/// Systematic process corner of a fabricated die.
///
/// `FF`/`SS` shift both NMOS and PMOS fast/slow; the skewed corners shift the
/// device types in opposite directions.  For the bit-line discharge only the
/// NMOS pull-down path matters, so `FastSlow` behaves close to `FastFast` and
/// `SlowFast` close to `SlowSlow`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ProcessCorner {
    /// Fast NMOS, fast PMOS.
    FastFast,
    /// Typical NMOS, typical PMOS (nominal).
    #[default]
    TypicalTypical,
    /// Slow NMOS, slow PMOS.
    SlowSlow,
    /// Fast NMOS, slow PMOS.
    FastSlow,
    /// Slow NMOS, fast PMOS.
    SlowFast,
}

impl ProcessCorner {
    /// All corners, in the order they are usually plotted.
    pub const ALL: [ProcessCorner; 5] = [
        ProcessCorner::FastFast,
        ProcessCorner::TypicalTypical,
        ProcessCorner::SlowSlow,
        ProcessCorner::FastSlow,
        ProcessCorner::SlowFast,
    ];

    /// NMOS threshold-voltage shift of this corner relative to nominal (volts).
    pub fn nmos_vth_shift(self) -> f64 {
        match self {
            ProcessCorner::FastFast | ProcessCorner::FastSlow => -0.03,
            ProcessCorner::TypicalTypical => 0.0,
            ProcessCorner::SlowSlow | ProcessCorner::SlowFast => 0.03,
        }
    }

    /// NMOS transconductance (mobility) scaling of this corner relative to nominal.
    pub fn nmos_beta_scale(self) -> f64 {
        match self {
            ProcessCorner::FastFast | ProcessCorner::FastSlow => 1.12,
            ProcessCorner::TypicalTypical => 1.0,
            ProcessCorner::SlowSlow | ProcessCorner::SlowFast => 0.88,
        }
    }
}

impl fmt::Display for ProcessCorner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            ProcessCorner::FastFast => "FF",
            ProcessCorner::TypicalTypical => "TT",
            ProcessCorner::SlowSlow => "SS",
            ProcessCorner::FastSlow => "FS",
            ProcessCorner::SlowFast => "SF",
        };
        write!(f, "{text}")
    }
}

/// Nominal parameters of a CMOS technology node.
///
/// All voltages in volts, capacitances in farads, transconductance in A/V².
#[derive(Debug, Clone, PartialEq)]
pub struct Technology {
    /// Name of the technology node (informational only).
    pub name: String,
    /// Nominal supply voltage.
    pub vdd_nominal: Volts,
    /// Nominal NMOS threshold voltage at the nominal temperature.
    pub nmos_vth: Volts,
    /// Nominal PMOS threshold voltage magnitude at the nominal temperature.
    pub pmos_vth: Volts,
    /// NMOS transconductance parameter `β = µ_n C_ox W/L` of the SRAM access
    /// transistor (A/V²).
    pub nmos_beta: f64,
    /// PMOS transconductance parameter of the pre-charge devices (A/V²).
    pub pmos_beta: f64,
    /// Channel-length modulation coefficient λ (1/V).
    pub channel_length_modulation: f64,
    /// Subthreshold swing (V/decade), typically 80–100 mV/dec at 65 nm.
    pub subthreshold_swing: f64,
    /// Bit-line capacitance per attached cell (farads).
    pub bitline_cap_per_cell: Farads,
    /// Fixed bit-line wiring capacitance independent of the number of cells (farads).
    pub bitline_cap_fixed: Farads,
    /// Internal storage-node capacitance of one SRAM cell (farads).
    pub cell_node_cap: Farads,
    /// Nominal temperature at which `nmos_vth`/`nmos_beta` are specified.
    pub temperature_nominal: Celsius,
    /// Threshold-voltage temperature coefficient (V/°C, negative: Vth drops when hot).
    pub vth_temp_coefficient: f64,
    /// Mobility temperature exponent (`µ ∝ (T/T0)^-k`, with T in kelvin).
    pub mobility_temp_exponent: f64,
    /// One-sigma threshold-voltage mismatch of a minimum-size device (volts).
    pub sigma_vth_mismatch: Volts,
    /// One-sigma relative transconductance mismatch of a minimum-size device.
    pub sigma_beta_mismatch: f64,
}

impl Technology {
    /// A 65 nm-class technology tuned to reproduce the qualitative discharge
    /// behaviour of the paper's Figs. 4–5.
    ///
    /// # Example
    ///
    /// ```rust
    /// use optima_circuit::technology::Technology;
    /// let tech = Technology::tsmc65_like();
    /// assert_eq!(tech.vdd_nominal.0, 1.0);
    /// ```
    pub fn tsmc65_like() -> Self {
        Technology {
            name: "generic-65nm".to_string(),
            vdd_nominal: Volts(1.0),
            nmos_vth: Volts(0.45),
            pmos_vth: Volts(0.42),
            // ~100 µA/V² for the access device: discharges a ~45 fF bit-line
            // by a few hundred mV within 1–2 ns at V_WL = 0.8–1.0 V, matching
            // the nanosecond-scale curves of the paper's Fig. 4a.
            nmos_beta: 100e-6,
            pmos_beta: 60e-6,
            channel_length_modulation: 0.08,
            subthreshold_swing: 0.09,
            bitline_cap_per_cell: Farads(0.3e-15),
            bitline_cap_fixed: Farads(40e-15),
            cell_node_cap: Farads(0.8e-15),
            temperature_nominal: Celsius(25.0),
            // Threshold and mobility shifts largely compensate each other, so
            // temperature only has the minor effect shown in Fig. 5b.
            vth_temp_coefficient: -0.4e-3,
            mobility_temp_exponent: 0.7,
            sigma_vth_mismatch: Volts(0.005),
            sigma_beta_mismatch: 0.015,
        }
    }

    /// Effective NMOS threshold voltage under the given corner and temperature.
    pub fn nmos_vth_effective(&self, corner: ProcessCorner, temperature: Celsius) -> Volts {
        let delta_t = temperature.0 - self.temperature_nominal.0;
        Volts(self.nmos_vth.0 + corner.nmos_vth_shift() + self.vth_temp_coefficient * delta_t)
    }

    /// Effective NMOS transconductance under the given corner and temperature.
    pub fn nmos_beta_effective(&self, corner: ProcessCorner, temperature: Celsius) -> f64 {
        let t_kelvin = temperature.to_kelvin();
        let t_nominal_kelvin = self.temperature_nominal.to_kelvin();
        let mobility_scale = (t_kelvin / t_nominal_kelvin).powf(-self.mobility_temp_exponent);
        self.nmos_beta * corner.nmos_beta_scale() * mobility_scale
    }

    /// Total bit-line capacitance for a column with `cells` attached cells.
    pub fn bitline_capacitance(&self, cells: usize) -> Farads {
        Farads(self.bitline_cap_fixed.0 + self.bitline_cap_per_cell.0 * cells as f64)
    }
}

impl Default for Technology {
    fn default() -> Self {
        Technology::tsmc65_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_parameters_are_physical() {
        let tech = Technology::tsmc65_like();
        assert!(tech.nmos_vth.0 > 0.2 && tech.nmos_vth.0 < 0.7);
        assert!(tech.nmos_beta > 0.0);
        assert!(tech.bitline_capacitance(16).0 > tech.bitline_cap_fixed.0);
    }

    #[test]
    fn fast_corner_lowers_vth_and_raises_beta() {
        let tech = Technology::tsmc65_like();
        let t = tech.temperature_nominal;
        let vth_ff = tech.nmos_vth_effective(ProcessCorner::FastFast, t);
        let vth_ss = tech.nmos_vth_effective(ProcessCorner::SlowSlow, t);
        let vth_tt = tech.nmos_vth_effective(ProcessCorner::TypicalTypical, t);
        assert!(vth_ff.0 < vth_tt.0 && vth_tt.0 < vth_ss.0);
        assert!(
            tech.nmos_beta_effective(ProcessCorner::FastFast, t)
                > tech.nmos_beta_effective(ProcessCorner::SlowSlow, t)
        );
    }

    #[test]
    fn higher_temperature_lowers_vth_and_mobility() {
        let tech = Technology::tsmc65_like();
        let hot = Celsius(125.0);
        let cold = Celsius(-40.0);
        let corner = ProcessCorner::TypicalTypical;
        assert!(tech.nmos_vth_effective(corner, hot).0 < tech.nmos_vth_effective(corner, cold).0);
        assert!(
            tech.nmos_beta_effective(corner, hot) < tech.nmos_beta_effective(corner, cold),
            "mobility must degrade with temperature"
        );
    }

    #[test]
    fn nominal_temperature_reproduces_nominal_parameters() {
        let tech = Technology::tsmc65_like();
        let corner = ProcessCorner::TypicalTypical;
        let t = tech.temperature_nominal;
        assert!((tech.nmos_vth_effective(corner, t).0 - tech.nmos_vth.0).abs() < 1e-12);
        assert!((tech.nmos_beta_effective(corner, t) - tech.nmos_beta).abs() < 1e-12);
    }

    #[test]
    fn corner_display_and_all() {
        assert_eq!(ProcessCorner::FastFast.to_string(), "FF");
        assert_eq!(ProcessCorner::default(), ProcessCorner::TypicalTypical);
        assert_eq!(ProcessCorner::ALL.len(), 5);
    }

    #[test]
    fn bitline_capacitance_scales_with_cells() {
        let tech = Technology::tsmc65_like();
        let small = tech.bitline_capacitance(4);
        let large = tech.bitline_capacitance(256);
        assert!(large.0 > small.0);
        let expected = tech.bitline_cap_fixed.0 + 256.0 * tech.bitline_cap_per_cell.0;
        assert!((large.0 - expected).abs() < 1e-24);
    }
}
