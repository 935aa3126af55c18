//! The lane-batched golden reference against a scalar oracle.
//!
//! `TransientSimulator` integrates Monte-Carlo instances in lock-step lanes
//! with the gate bias of each cell hoisted out of the RK stages.  The oracle
//! below is a test-side copy of the scalar path the lanes replaced: one
//! instance at a time, a fresh state vector per RK step, and the device
//! equations evaluated from scratch at every stage (the subthreshold
//! prefactor's `powf` included).  Every sample of every waveform must match
//! it bit for bit, for full and partial lane groups, in all three device
//! regions, at two PVT points and with nonzero mismatch.

use optima_suite::optima_circuit::prelude::*;
use optima_suite::optima_circuit::transient::BatchError;
use optima_suite::optima_core::sweep::par_map_mismatch;
use optima_suite::optima_core::ModelError;

/// Scalar copy of `Mosfet::drain_current` as it stood before the gate bias
/// was hoisted.
fn oracle_drain_current(fet: &Mosfet, tech: &Technology, v_gs: f64, v_ds: f64) -> f64 {
    let v_ds = v_ds.max(0.0);
    let overdrive = v_gs - fet.threshold().0;
    let current = if overdrive <= 0.0 {
        let anchor_overdrive = 0.02;
        let anchor = 0.5 * fet.beta() * anchor_overdrive * anchor_overdrive;
        let decades = (overdrive - anchor_overdrive) / tech.subthreshold_swing;
        let sat = anchor * 10f64.powf(decades);
        sat * (1.0 - (-v_ds / 0.026).exp())
    } else if v_ds < overdrive {
        fet.beta() * (overdrive - 0.5 * v_ds) * v_ds
    } else {
        0.5 * fet.beta()
            * overdrive
            * overdrive
            * (1.0 + tech.channel_length_modulation * (v_ds - overdrive))
    };
    current.max(0.0)
}

/// Scalar copy of the one-instance RK4 transient: `(times, values)`.
fn oracle_waveform(
    tech: &Technology,
    stimulus: &DischargeStimulus,
    pvt: &PvtConditions,
    mismatch: &MismatchSample,
) -> (Vec<f64>, Vec<f64>) {
    let access = Mosfet::new(MosfetKind::Nmos, tech, pvt, mismatch);
    let pulldown = Mosfet::new(MosfetKind::Nmos, tech, pvt, &MismatchSample::none());
    let capacitance = tech.bitline_capacitance(stimulus.cells_on_bitline).0;
    let v_wl = stimulus.word_line_voltage.0;
    let derivative = |v: f64| {
        let v_blb = v.max(0.0);
        let current = if stimulus.stored_bit {
            let access_current = oracle_drain_current(&access, tech, v_wl, v_blb);
            let pulldown_limit = oracle_drain_current(&pulldown, tech, pvt.vdd.0, v_blb);
            access_current.min(pulldown_limit) * 0.92
        } else {
            0.0
        };
        -current / capacitance
    };

    let h = stimulus.duration.0 / stimulus.time_steps as f64;
    let mut t = 0.0;
    let mut y = vec![pvt.vdd.0];
    let mut times = vec![t];
    let mut values = vec![y[0]];
    for _ in 0..stimulus.time_steps {
        let k1 = derivative(y[0]);
        let k2 = derivative(y[0] + 0.5 * h * k1);
        let k3 = derivative(y[0] + 0.5 * h * k2);
        let k4 = derivative(y[0] + h * k3);
        let mut next = y.clone();
        next[0] += h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
        y = next;
        t += h;
        times.push(t);
        values.push(y[0]);
    }
    (times, values)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn stimulus(v_wl: f64) -> DischargeStimulus {
    DischargeStimulus {
        word_line_voltage: Volts(v_wl),
        duration: Seconds(1.5e-9),
        time_steps: 120,
        ..DischargeStimulus::default()
    }
}

fn pvt_points(tech: &Technology) -> [PvtConditions; 2] {
    let nominal = PvtConditions::nominal(tech);
    [
        nominal,
        nominal
            .with_corner(ProcessCorner::SlowSlow)
            .with_vdd(Volts(0.92))
            .with_temperature(Celsius(100.0)),
    ]
}

#[test]
fn every_lane_matches_the_scalar_oracle_bit_for_bit() {
    let tech = Technology::tsmc65_like();
    let sim = TransientSimulator::new(tech.clone());
    // Batches of 1..=9 cover partial, full and full-plus-partial lane groups.
    const { assert!(TransientSimulator::LANES < 9) };
    let samples = MismatchModel::from_technology(&tech).sample_n(9, 0x1a2e);
    assert!(samples.iter().all(|s| !s.is_nominal()));
    for pvt in pvt_points(&tech) {
        for v_wl in [0.3, 0.45, 0.8, 1.0] {
            let stim = stimulus(v_wl);
            let oracle: Vec<(Vec<f64>, Vec<f64>)> = samples
                .iter()
                .map(|sample| oracle_waveform(&tech, &stim, &pvt, sample))
                .collect();
            for (sample, (times, values)) in samples.iter().zip(&oracle) {
                let lone = sim.discharge_waveform(&stim, &pvt, sample).unwrap();
                assert_eq!(bits(lone.times()), bits(times));
                assert_eq!(bits(lone.values()), bits(values), "one lane, V_WL {v_wl}");
            }
            for batch in 1..=samples.len() {
                let mut visited = Vec::new();
                sim.discharge_waveforms(&stim, &pvt, &samples[..batch], |index, wf| {
                    let (times, values) = &oracle[index];
                    assert_eq!(bits(wf.times()), bits(times));
                    assert_eq!(
                        bits(wf.values()),
                        bits(values),
                        "batch {batch}, instance {index}, V_WL {v_wl}, VDD {}",
                        pvt.vdd.0
                    );
                    visited.push(index);
                    Ok(())
                })
                .unwrap();
                assert_eq!(visited, (0..batch).collect::<Vec<_>>());
            }
        }
    }
}

#[test]
fn the_parallel_mismatch_sweep_matches_the_oracle_at_any_thread_count() {
    let tech = Technology::tsmc65_like();
    let sim = TransientSimulator::new(tech.clone());
    let pvt = PvtConditions::nominal(&tech);
    let stim = stimulus(0.8);
    let samples = MismatchModel::from_technology(&tech).sample_n(11, 7);
    let expected: Vec<u64> = samples
        .iter()
        .map(|sample| {
            let (_, values) = oracle_waveform(&tech, &stim, &pvt, sample);
            values[values.len() - 1].to_bits()
        })
        .collect();
    for threads in [1, 2, 3] {
        let finals = par_map_mismatch(&sim, &stim, &pvt, &samples, threads, |wf| {
            Ok(wf.final_value().to_bits())
        })
        .unwrap();
        assert_eq!(finals, expected, "{threads} threads");
    }
}

#[test]
fn a_batch_error_names_the_failing_instance() {
    let tech = Technology::tsmc65_like();
    let sim = TransientSimulator::new(tech.clone());
    let pvt = PvtConditions::nominal(&tech);
    let stim = stimulus(0.8);
    // The bad instance sits in the second lane group, behind a full one.
    let lanes = TransientSimulator::LANES;
    let bad = lanes + 1;
    let mut samples = MismatchModel::from_technology(&tech).sample_n(2 * lanes + 1, 3);
    samples[bad].delta_vth = Volts(f64::NAN);

    let mut visited = 0;
    let err = sim
        .discharge_waveforms(&stim, &pvt, &samples, |_, _| {
            visited += 1;
            Ok(())
        })
        .unwrap_err();
    assert_eq!(err.index, bad);
    assert!(
        err.to_string().contains(&format!("instance {bad} ")),
        "{err}"
    );
    assert_eq!(
        visited, lanes,
        "the failing group is rejected before it runs"
    );

    // An error the visitor returns is attributed to the instance it saw.
    let err: BatchError = sim
        .discharge_waveforms(&stim, &pvt, &samples[..5], |index, wf| {
            if index == 3 {
                wf.sample_at(Seconds(f64::NAN))?;
            }
            Ok(())
        })
        .unwrap_err();
    assert_eq!(err.index, 3);

    // The parallel sweep reports the instance, not its lane group.
    for threads in [1, 2, 3] {
        let err = par_map_mismatch(&sim, &stim, &pvt, &samples, threads, |wf| {
            Ok(wf.final_value())
        })
        .unwrap_err();
        assert_eq!(err.index, bad, "{threads} threads");
        let model_err = ModelError::from_sweep(err, "mismatch sweep");
        assert!(
            model_err
                .to_string()
                .starts_with(&format!("sweep item {bad} ")),
            "{model_err}"
        );
    }

    // A lone waveform rejects the same instance.
    assert!(sim.discharge_waveform(&stim, &pvt, &samples[bad]).is_err());
}
