//! Circuit oracle of the per-die mismatch model.
//!
//! A mismatch die offsets column `bit` under slice operand `a` by
//! `σ(t_bit, V_WL(a)) · z`, where `z` is the column's standard-normal draw
//! and σ is the calibrated Eq. 6 surface.  That is a linearisation: the
//! golden transient simulator perturbs the cell's threshold voltage and
//! integrates the discharge again.  This test samples a few dies, applies
//! each column's `z` as the same threshold shift, `ΔV_th = −z · σ_Vth` (a
//! positive offset is a faster column), to the transient simulator at the
//! paper's three Table I corners, and bounds the difference between the
//! linearised and the simulated discharge.
//!
//! Two regimes show up:
//!
//! * where the access transistor limits the discharge, the simulated shift
//!   tracks the linearised one within a bounded fraction of it (Eq. 6's σ is
//!   fitted to threshold *and* transconductance mismatch, while a die here
//!   shifts only the threshold, so the simulated shift is the smaller one);
//! * under the full word line (`V_WL = V_DD`) the un-mismatched pull-down
//!   transistor limits the current, so a faster access device does not
//!   discharge faster at all: the linearised model overstates such a
//!   column's speed-up by its whole offset.

use optima_suite::optima_circuit::prelude::*;
use optima_suite::optima_core::calibration::{CalibrationConfig, Calibrator};
use optima_suite::optima_imc::multiplier::{InSramMultiplier, MultiplierConfig};
use optima_suite::optima_math::units::Seconds;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Largest |linearised − simulated| column discharge over the sampled dies,
/// in millivolts.  Measured: 7.22 mV, a fast column (z = 0.71) under the
/// full word line at the variation corner, which the simulator clips.
const MAX_ERROR_MV: f64 = 8.0;

/// Largest |linearised − simulated| relative to the modelled offset
/// `σ · |z|` where the access transistor limits the discharge (offsets above
/// 0.1 mV).  Measured: 0.36; the simulated shift is the smaller one, because
/// Eq. 6's σ also carries the β mismatch a threshold shift leaves out.
const MAX_RELATIVE_ERROR: f64 = 0.45;

#[test]
fn die_offsets_track_the_transient_simulator_at_the_table_one_corners() {
    let technology = Technology::tsmc65_like();
    let calibration = CalibrationConfig::fast();
    let models = Calibrator::new(technology.clone(), calibration.clone())
        .run()
        .expect("calibration succeeds")
        .into_models();
    let simulator = TransientSimulator::new(technology.clone());
    let pvt = PvtConditions::nominal(&technology);
    let sigma_vth = technology.sigma_vth_mismatch.0;

    let mut worst_mv: f64 = 0.0;
    let mut worst_relative: f64 = 0.0;
    let mut clipped = 0;
    for corner in [
        MultiplierConfig::paper_fom_corner(),
        MultiplierConfig::paper_power_corner(),
        MultiplierConfig::paper_variation_corner(),
    ] {
        let multiplier = InSramMultiplier::new(models.clone(), corner).expect("valid corner");
        let grid = multiplier
            .analog_grid(multiplier.nominal_operating_point())
            .expect("grid evaluates");
        for seed in 0..3 {
            let die = multiplier.sample_die(&mut ChaCha8Rng::seed_from_u64(seed));
            for a in [5u16, 10, 15] {
                let word_line = grid.word_line(a);
                for (bit, &z) in die.iter().enumerate() {
                    let duration = Seconds(corner.tau0.0 * (1u32 << bit) as f64);
                    let modelled = models.mismatch_sigma(duration, word_line).0 * z;
                    let stimulus = DischargeStimulus {
                        word_line_voltage: word_line,
                        stored_bit: true,
                        duration,
                        cells_on_bitline: calibration.cells_on_bitline,
                        time_steps: calibration.reference_time_steps,
                    };
                    let nominal = simulator
                        .discharge_delta(&stimulus, &pvt, &MismatchSample::none())
                        .expect("nominal transient")
                        .0;
                    let shifted = MismatchSample {
                        delta_vth: Volts(-z * sigma_vth),
                        delta_beta_rel: 0.0,
                    };
                    let simulated = simulator
                        .discharge_delta(&stimulus, &pvt, &shifted)
                        .expect("shifted transient")
                        .0
                        - nominal;
                    let error = (modelled - simulated).abs();
                    worst_mv = worst_mv.max(error * 1e3);
                    if word_line.0 >= pvt.vdd.0 && z > 0.0 {
                        // Under the full word line the pull-down transistor,
                        // not the access device, limits the current: a faster
                        // access device cannot speed the column up, and the
                        // linearised offset overstates the speed-up by at
                        // most the offset itself.
                        assert!(
                            error <= modelled.abs() + 1e-6,
                            "clipped column error {error:e} V exceeds its offset {modelled:e} V"
                        );
                        clipped += 1;
                    } else if modelled.abs() > 0.1e-3 {
                        worst_relative = worst_relative.max(error / modelled.abs());
                    }
                }
            }
        }
    }
    eprintln!(
        "die oracle: worst |linearised - simulated| {worst_mv:.3} mV, \
         worst access-limited relative error {worst_relative:.3}, {clipped} clipped columns"
    );
    assert!(
        clipped > 0,
        "the sample must reach the pull-down-limited regime"
    );
    assert!(
        worst_mv <= MAX_ERROR_MV,
        "linearised die offset misses the transient simulator by {worst_mv:.3} mV"
    );
    assert!(
        worst_relative <= MAX_RELATIVE_ERROR,
        "linearised die offset misses the transient simulator by {:.1} % of the offset",
        worst_relative * 100.0
    );
}
