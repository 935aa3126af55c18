//! The behavioural discharge-based in-SRAM multiplier.
//!
//! The circuit (paper Section V, based on ref. [8]) multiplies an operand
//! `a` applied through a word-line DAC with an operand `d` stored in an SRAM
//! row.  Each stored bit `d_i` gates the discharge of its own bit-line-bar;
//! bit weighting is achieved by letting column `i` discharge for `2^i · τ0`.
//! The discharges are then combined by charge sharing and digitised by an
//! ADC.
//!
//! The paper's macro is the fixed 16×4 INT4 array; here the geometry is data
//! ([`ArrayConfig`]): one analog pass handles a `slice_bits`-wide slice of
//! each operand, and wider operands (e.g. INT8 on a 4-bit array) are composed
//! from `slices² ` passes with digital shift-add accumulation.  The default
//! geometry reproduces the paper's array bit-for-bit.

use crate::error::ImcError;
use crate::reliability::FaultState;
use optima_circuit::adc::Adc;
use optima_circuit::array::ArrayConfig;
use optima_circuit::dac::{Dac, DacTransfer};
use optima_core::model::suite::ModelSuite;
use optima_math::distributions::standard_normal;
use optima_math::units::{Celsius, FemtoJoules, Seconds, Volts};
use rand::Rng;

/// Operand bits of the paper's default array geometry.
///
/// Kept for the fixed-width call sites of the paper experiments; geometry-
/// aware code should use [`ArrayConfig::operand_bits`] instead.
pub const OPERAND_BITS: u8 = 4;

/// Largest operand value of the paper's default geometry (`2^4 − 1`).
pub const OPERAND_MAX: u16 = (1 << OPERAND_BITS) - 1;

/// Largest exact product of the paper's default geometry (`15 × 15`).
pub const PRODUCT_MAX: u16 = OPERAND_MAX * OPERAND_MAX;

/// Static configuration of one multiplier design point.
///
/// The first three fields are exactly the design-space parameters explored in
/// the paper's Fig. 7 / Table I; the array geometry generalises the paper's
/// fixed 16×4 INT4 macro.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiplierConfig {
    /// Discharge time of the least-significant bit-line (`τ0`).
    pub tau0: Seconds,
    /// DAC output voltage for input code 0 (`V_DAC,0`).
    pub vdac_zero: Volts,
    /// DAC full-scale output voltage (`V_DAC,FS`).
    pub vdac_full_scale: Volts,
    /// DAC transfer curve (linear in the paper; square-root pre-distortion
    /// available for the ablation study).
    pub dac_transfer: DacTransfer,
    /// Array geometry (defaults to the paper's 16×4 INT4 macro).
    pub array: ArrayConfig,
}

impl MultiplierConfig {
    /// Creates a configuration from the three design-space parameters with a
    /// linear DAC and the paper's default array geometry.
    pub fn new(tau0: Seconds, vdac_zero: Volts, vdac_full_scale: Volts) -> Self {
        MultiplierConfig {
            tau0,
            vdac_zero,
            vdac_full_scale,
            dac_transfer: DacTransfer::Linear,
            array: ArrayConfig::default(),
        }
    }

    /// The paper's *fom* corner (Table I): τ0 = 0.16 ns, V_DAC,0 = 0.3 V,
    /// V_DAC,FS = 1.0 V.
    pub fn paper_fom_corner() -> Self {
        MultiplierConfig::new(Seconds(0.16e-9), Volts(0.3), Volts(1.0))
    }

    /// The paper's *power* corner (Table I): τ0 = 0.16 ns, V_DAC,0 = 0.3 V,
    /// V_DAC,FS = 0.7 V.
    pub fn paper_power_corner() -> Self {
        MultiplierConfig::new(Seconds(0.16e-9), Volts(0.3), Volts(0.7))
    }

    /// The paper's *variation* corner (Table I): τ0 = 0.24 ns, V_DAC,0 = 0.4 V,
    /// V_DAC,FS = 1.0 V.
    pub fn paper_variation_corner() -> Self {
        MultiplierConfig::new(Seconds(0.24e-9), Volts(0.4), Volts(1.0))
    }

    /// Switches the DAC transfer curve (builder style).
    pub fn with_dac_transfer(mut self, transfer: DacTransfer) -> Self {
        self.dac_transfer = transfer;
        self
    }

    /// Switches the array geometry (builder style).
    pub fn with_array(mut self, array: ArrayConfig) -> Self {
        self.array = array;
        self
    }

    /// Longest single-column discharge time of one analog pass
    /// (`2^(slice_bits − 1) · τ0`, the MSB column).
    pub fn longest_discharge(&self) -> Seconds {
        Seconds(self.tau0.0 * (1u32 << (self.array.slice_bits - 1)) as f64)
    }
}

/// Result of one in-SRAM multiplication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiplyOutcome {
    /// Digitised product (in product LSBs, ideally `a · d`).
    pub result: u16,
    /// Exact product `a · d`.
    pub expected: u16,
    /// Combined analog discharge presented to the ADC (for composed
    /// geometries: the mean over the analog passes).
    pub combined_discharge: Volts,
    /// Energy of the multiplication (discharges + converter overhead over
    /// every analog pass), excluding the operand write.
    pub multiply_energy: FemtoJoules,
    /// Energy of writing the stored operand (one cell write per operand bit).
    pub write_energy: FemtoJoules,
}

impl MultiplyOutcome {
    /// Signed error in product LSBs (`result − expected`).
    pub fn error_lsb(&self) -> f64 {
        self.result as f64 - self.expected as f64
    }

    /// Total energy of write + multiplication.
    pub fn total_energy(&self) -> FemtoJoules {
        FemtoJoules(self.multiply_energy.0 + self.write_energy.0)
    }
}

/// Operating conditions of a multiplication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Supply voltage.
    pub vdd: Volts,
    /// Junction temperature.
    pub temperature: Celsius,
}

/// The behavioural in-SRAM multiplier.
#[derive(Debug, Clone)]
pub struct InSramMultiplier {
    models: ModelSuite,
    config: MultiplierConfig,
    dac: Dac,
    adc: Adc,
    /// Volts of combined discharge per slice-product LSB, determined by a
    /// one-time least-squares calibration over the slice input space.
    volts_per_lsb: f64,
    /// Fixed converter overhead charged per analog pass, amortised over the
    /// column-mux group.
    converter_overhead: FemtoJoules,
    nominal: OperatingPoint,
    /// Optional reliability fault state (defects, redundancy remap, aging).
    /// `None` is the pristine fast path and executes exactly the historic
    /// float operations; a pristine `Some` state is bit-identical to it
    /// (property-tested).
    faults: Option<FaultState>,
}

impl InSramMultiplier {
    /// Builds a multiplier for the given fitted models and design point.
    ///
    /// Construction performs a one-time transfer-curve calibration (the
    /// mapping from combined discharge to product LSBs) at nominal
    /// conditions, mirroring how the readout reference of the real circuit
    /// would be trimmed.
    ///
    /// # Errors
    ///
    /// * [`ImcError::InvalidConfiguration`] if the DAC voltages are
    ///   inconsistent, `τ0` is non-positive or the array geometry is invalid.
    /// * Propagates model-evaluation errors if the configuration drives the
    ///   models outside their calibrated domain.
    pub fn new(models: ModelSuite, config: MultiplierConfig) -> Result<Self, ImcError> {
        if config.tau0.0 <= 0.0 || !config.tau0.0.is_finite() {
            return Err(ImcError::InvalidConfiguration {
                context: format!("tau0 must be positive, got {}", config.tau0.0),
            });
        }
        config
            .array
            .validate()
            .map_err(|err| ImcError::InvalidConfiguration {
                context: err.to_string(),
            })?;
        let dac = Dac::new(
            config.array.dac_bits(),
            config.vdac_zero,
            config.vdac_full_scale,
        )
        .map_err(|err| ImcError::InvalidConfiguration {
            context: err.to_string(),
        })?
        .with_transfer(config.dac_transfer);
        // The ADC digitises the combined discharge of one pass; its range is
        // set after the transfer calibration so that one code equals one
        // slice-product LSB.
        let adc = Adc::new(config.array.adc_bits(), Volts(1.0)).map_err(|err| {
            ImcError::InvalidConfiguration {
                context: err.to_string(),
            }
        })?;
        let nominal = OperatingPoint {
            vdd: models.vdd_nominal(),
            temperature: models.temperature_nominal(),
        };

        let mut multiplier = InSramMultiplier {
            models,
            config,
            dac,
            adc,
            volts_per_lsb: 1.0,
            converter_overhead: FemtoJoules(2.0 / config.array.column_mux as f64),
            nominal,
            faults: None,
        };
        multiplier.calibrate_transfer()?;
        Ok(multiplier)
    }

    /// The design-point configuration.
    pub fn config(&self) -> &MultiplierConfig {
        &self.config
    }

    /// The array geometry the multiplier was generated for.
    pub fn array(&self) -> &ArrayConfig {
        &self.config.array
    }

    /// The fitted models driving the multiplier.
    pub fn models(&self) -> &ModelSuite {
        &self.models
    }

    /// Volts of combined discharge corresponding to one product LSB.
    pub fn volts_per_lsb(&self) -> Volts {
        Volts(self.volts_per_lsb)
    }

    /// Nominal operating point used for calibration.
    pub fn nominal_operating_point(&self) -> OperatingPoint {
        self.nominal
    }

    /// Attaches a reliability fault state (builder style): every subsequent
    /// multiplication sees the faulted cell behaviour — stuck cells gate the
    /// discharge, open bit-lines contribute nothing, shorted bit-lines
    /// discharge the full rail, retention drift scales each column's ΔV and
    /// the accumulated V_th aging shaves the word-line overdrive.
    ///
    /// The transfer trim ([`InSramMultiplier::volts_per_lsb`]) is *not*
    /// re-calibrated: the readout reference of the real circuit is trimmed
    /// once at test time on (presumed-good) reference columns, so deployed
    /// defects and aging show up as output error, exactly as in the field.
    ///
    /// # Errors
    ///
    /// [`ImcError::InvalidConfiguration`] when the fault state was built for
    /// a different array geometry.
    pub fn with_faults(mut self, faults: FaultState) -> Result<Self, ImcError> {
        if faults.array() != &self.config.array {
            return Err(ImcError::InvalidConfiguration {
                context: format!(
                    "fault state keyed to {} cannot attach to a {} multiplier",
                    faults.array().describe(),
                    self.config.array.describe()
                ),
            });
        }
        self.faults = Some(faults);
        Ok(self)
    }

    /// The attached reliability fault state, if any.
    pub fn faults(&self) -> Option<&FaultState> {
        self.faults.as_ref()
    }

    /// Applies the accumulated V_th aging to a word-line voltage.  Without a
    /// fault state this is the identity (no float operations at all), so the
    /// pristine path stays bit-identical.
    #[inline]
    fn aged_word_line(&self, word_line: Volts) -> Volts {
        match &self.faults {
            None => word_line,
            Some(faults) => Volts((word_line.0 - faults.vth_shift()).max(0.0)),
        }
    }

    /// Least-squares calibration of the discharge-to-LSB transfer factor over
    /// the full slice input space at nominal conditions (batched: the analog
    /// grid is evaluated once, then combined per operand pair).
    ///
    /// Composed geometries calibrate the single analog pass; the digital
    /// shift-add composition is exact and needs no trimming of its own.
    fn calibrate_transfer(&mut self) -> Result<(), ImcError> {
        let grid = self.analog_grid(self.nominal)?;
        let slice_max = self.config.array.slice_max();
        let mut numerator = 0.0;
        let mut denominator = 0.0;
        for a in 0..=slice_max {
            for d in 0..=slice_max {
                let discharge = grid.combined_discharge(a, d);
                let expected = (a * d) as f64;
                numerator += discharge * expected;
                denominator += expected * expected;
            }
        }
        if denominator <= 0.0 || numerator <= 0.0 {
            return Err(ImcError::InvalidConfiguration {
                context: "transfer calibration produced no usable discharge".to_string(),
            });
        }
        self.volts_per_lsb = numerator / denominator;
        Ok(())
    }

    /// Discharge duration of column `bit` (`2^bit · τ0`).
    fn column_duration(&self, bit: u8) -> Seconds {
        Seconds(self.config.tau0.0 * (1u32 << bit) as f64)
    }

    /// Precomputes every per-(slice operand, column) analog quantity at `at`
    /// through the batched model fills.
    ///
    /// This is the batched analog hot path: one word-line voltage per slice
    /// operand and `slice_bits` discharges/energies each are evaluated once,
    /// and the operand pairs of the full input space are then combined from
    /// them — bit-identical to evaluating each pair through the scalar
    /// [`InSramMultiplier::multiply_at`] path, because a pair's discharge is
    /// the same sum of the same per-column values in the same (bit-ascending)
    /// order, pass by pass.
    ///
    /// # Errors
    ///
    /// Propagates converter and model-evaluation errors, in the same
    /// operand-major order as the scalar input-space loop.
    pub fn analog_grid(&self, at: OperatingPoint) -> Result<AnalogOperandGrid, ImcError> {
        let array = &self.config.array;
        let operands = array.slice_max() as usize + 1;
        let bits = array.slice_bits as usize;
        let durations: Vec<Seconds> = (0..array.slice_bits)
            .map(|b| self.column_duration(b))
            .collect();
        let mut word_lines = Vec::with_capacity(operands);
        let mut deltas = vec![0.0; operands * bits];
        let mut energies = vec![0.0; operands * bits];
        for a in 0..operands {
            let word_line = self.aged_word_line(self.dac.output_with_supply(
                a as u16,
                at.vdd,
                self.models.vdd_nominal(),
            )?);
            word_lines.push(word_line);
            let delta_row = &mut deltas[a * bits..(a + 1) * bits];
            self.models.fill_discharges(
                &durations,
                word_line,
                true,
                at.vdd,
                at.temperature,
                delta_row,
            )?;
            for (energy, &delta) in energies[a * bits..(a + 1) * bits]
                .iter_mut()
                .zip(&*delta_row)
            {
                *energy = self
                    .models
                    .discharge_energy(Volts(delta), at.vdd, at.temperature)
                    .0;
            }
        }
        Ok(AnalogOperandGrid {
            slice_bits: array.slice_bits,
            word_lines,
            deltas,
            energies,
            write_energy: FemtoJoules(
                self.models.write_energy(at.vdd, at.temperature).0 * array.operand_bits as f64,
            ),
        })
    }

    /// Builds the input-space readout kernel of the multiplier at `at`: the
    /// ADC code of every `(pass, a_slice, d_slice)`, the gated discharge
    /// energy of every `(pass, a_slice, bit, d_slice)` (fault state applied)
    /// and the pass σ of every `(a_slice, d_slice)`, all from one
    /// [`AnalogOperandGrid`].
    ///
    /// The input space is then read out a stored-operand row at a time from
    /// these tables, bit-identical to [`InSramMultiplier::multiply_at`] and
    /// [`InSramMultiplier::analog_sigma`]: the same per-column values are
    /// combined in the same order, pass by pass.
    ///
    /// # Errors
    ///
    /// Same as [`InSramMultiplier::analog_grid`], then converter errors of
    /// the σ table.
    pub fn readout_kernel(&self, at: OperatingPoint) -> Result<ReadoutKernel, ImcError> {
        let grid = self.analog_grid(at)?;
        let array = &self.config.array;
        let bits = array.slice_bits as usize;
        let operands = array.slice_max() + 1;
        let passes = array.passes() as usize;
        let codes = CodeTable::build(self, |pass, a_slice, d_slice| {
            self.pass_discharge(pass, d_slice, at.vdd.0, |bit| grid.delta(a_slice, bit))
        });
        // Energy follows the columns that actually discharge: a column the
        // gating switches off contributes `+0.0`, which leaves any energy
        // sum unchanged.
        let mut gated = Vec::with_capacity(passes * (operands as usize).pow(2) * bits);
        for pass in 0..passes {
            for a_slice in 0..operands {
                for bit in 0..array.slice_bits {
                    let energy = self.grid_energy(&grid, pass, a_slice, bit, at);
                    gated.extend((0..operands).map(|d_slice| {
                        if (self.gate_bits(pass, d_slice) >> bit) & 1 == 1 {
                            energy
                        } else {
                            0.0
                        }
                    }));
                }
            }
        }
        let mut column_sigmas = Vec::with_capacity(operands as usize * bits);
        for a_slice in 0..operands {
            let word_line = self.dac.output(a_slice)?;
            for bit in 0..array.slice_bits {
                column_sigmas.push(
                    self.models
                        .mismatch_sigma(self.column_duration(bit), word_line)
                        .0,
                );
            }
        }
        let mut sigmas = Vec::with_capacity((operands as usize).pow(2));
        for row in column_sigmas.chunks_exact(bits) {
            for d_slice in 0..operands {
                let mut variance = 0.0;
                for (bit, sigma) in row.iter().enumerate() {
                    if (d_slice >> bit) & 1 == 1 {
                        variance += sigma * sigma;
                    }
                }
                sigmas.push(variance.sqrt() / bits as f64);
            }
        }
        Ok(ReadoutKernel {
            codes,
            gated,
            sigmas,
            converter_overhead: self.converter_overhead.0,
            write_energy: grid.write_energy,
        })
    }

    /// Charge-shared combined discharge of one analog pass from per-column
    /// discharges, applying the fault state when one is attached.
    ///
    /// `column_delta(bit)` supplies the ΔV of every column that actually
    /// discharges, in bit-ascending order, and is called for no other column:
    /// the readout kernel passes the precomputed nominal ΔV, the mismatch
    /// Monte Carlo the die's offset one.  The `None` arm sums exactly like
    /// [`AnalogOperandGrid::combined_discharge`]; the faulted arm mirrors the
    /// scalar [`InSramMultiplier::slice_discharge`] transform per `(pass, bit)`
    /// — gating, full-rail shorts, retention drift applied after the ΔV.
    #[inline]
    fn pass_discharge(
        &self,
        pass: usize,
        d_slice: u16,
        vdd: f64,
        mut column_delta: impl FnMut(u8) -> f64,
    ) -> f64 {
        let slice_bits = self.config.array.slice_bits;
        let mut total = 0.0;
        match &self.faults {
            None => {
                // Set bits, lowest first.
                let mut set = d_slice;
                while set != 0 {
                    total += column_delta(set.trailing_zeros() as u8);
                    set &= set - 1;
                }
            }
            Some(faults) => {
                for bit in 0..slice_bits {
                    let stored = (d_slice >> bit) & 1 == 1;
                    if !faults.column_discharges(pass, bit, stored) {
                        continue;
                    }
                    if faults.is_shorted(pass, bit) {
                        total += vdd;
                        continue;
                    }
                    total += faults.scaled_delta(pass, bit, column_delta(bit));
                }
            }
        }
        total / slice_bits as f64
    }

    /// Per-column discharge energy from the precomputed grid, applying the
    /// fault state when one is attached (shorted bit-lines burn the energy
    /// of a full-rail discharge; drifted cells the energy of their scaled
    /// ΔV).
    fn grid_energy(
        &self,
        grid: &AnalogOperandGrid,
        pass: usize,
        a_slice: u16,
        bit: u8,
        at: OperatingPoint,
    ) -> f64 {
        match &self.faults {
            None => grid.energy(a_slice, bit),
            Some(faults) => {
                let delta = if faults.is_shorted(pass, bit) {
                    at.vdd.0
                } else {
                    faults.scaled_delta(pass, bit, grid.delta(a_slice, bit))
                };
                self.models
                    .discharge_energy(Volts(delta), at.vdd, at.temperature)
                    .0
            }
        }
    }

    /// Physical column feeding `(pass, bit)`: the stored word's column, or
    /// the spare a redundancy remap put in its place.
    fn physical_column(&self, pass: usize, bit: u8) -> usize {
        match &self.faults {
            Some(faults) => faults.physical_column(pass, bit) as usize,
            None => self.config.array.logical_column(pass, bit) as usize,
        }
    }

    /// Charge-shared combined discharge of one analog pass (`pass` in the
    /// composed pass order) for the slice operands `a_slice` (DAC input) and
    /// `d_slice` (stored slice), optionally on a mismatch die.
    ///
    /// An attached fault state changes which columns discharge (stuck cells,
    /// open/shorted bit-lines via the redundancy remap of `pass`) and scales
    /// each surviving column's ΔV by its retention drift; shorted bit-lines
    /// contribute the full rail without a model evaluation (a shorted column
    /// has no transistor to mismatch).
    fn slice_discharge(
        &self,
        pass: usize,
        a_slice: u16,
        d_slice: u16,
        at: OperatingPoint,
        die: Option<&[f64]>,
    ) -> Result<f64, ImcError> {
        let word_line = self.aged_word_line(self.dac.output_with_supply(
            a_slice,
            at.vdd,
            self.models.vdd_nominal(),
        )?);
        let mut total = 0.0;
        for bit in 0..self.config.array.slice_bits {
            let stored = (d_slice >> bit) & 1 == 1;
            let discharges = match &self.faults {
                None => stored,
                Some(faults) => faults.column_discharges(pass, bit, stored),
            };
            if !discharges {
                continue;
            }
            if let Some(faults) = &self.faults {
                if faults.is_shorted(pass, bit) {
                    total += at.vdd.0;
                    continue;
                }
            }
            let duration = self.column_duration(bit);
            let mut delta = self
                .models
                .discharge(duration, word_line, true, at.vdd, at.temperature)?
                .0;
            if let Some(die) = die {
                let sigma = self.models.mismatch_sigma(duration, word_line).0;
                delta = offset_delta(delta, sigma * die[self.physical_column(pass, bit)]);
            }
            total += match &self.faults {
                None => delta,
                Some(faults) => faults.scaled_delta(pass, bit, delta),
            };
        }
        // Charge sharing across the slice's sampling capacitors averages the
        // individual discharges.
        Ok(total / self.config.array.slice_bits as f64)
    }

    /// Analog standard deviation of the combined discharge for `(a, d)` due
    /// to transistor mismatch (root-sum-square of the per-column σ within one
    /// pass; for composed geometries the worst pass, since every pass is
    /// digitised on its own).
    ///
    /// # Errors
    ///
    /// Propagates converter errors for out-of-range operands.
    pub fn analog_sigma(&self, a: u16, d: u16) -> Result<Volts, ImcError> {
        self.check_operands(a, d)?;
        let array = &self.config.array;
        let slices = array.slices() as u16;
        let shift = array.slice_bits as u16;
        let mask = array.slice_max();
        let mut worst = 0.0f64;
        for i in 0..slices {
            let a_slice = (a >> (i * shift)) & mask;
            let word_line = self.dac.output(a_slice)?;
            for j in 0..slices {
                let d_slice = (d >> (j * shift)) & mask;
                let mut variance = 0.0;
                for bit in 0..array.slice_bits {
                    if (d_slice >> bit) & 1 == 0 {
                        continue;
                    }
                    let sigma = self
                        .models
                        .mismatch_sigma(self.column_duration(bit), word_line)
                        .0;
                    variance += sigma * sigma;
                }
                worst = worst.max(variance.sqrt() / array.slice_bits as f64);
            }
        }
        Ok(Volts(worst))
    }

    fn check_operands(&self, a: u16, d: u16) -> Result<(), ImcError> {
        let max = self.config.array.operand_max();
        if a > max {
            return Err(ImcError::OperandOutOfRange { value: a, max });
        }
        if d > max {
            return Err(ImcError::OperandOutOfRange { value: d, max });
        }
        Ok(())
    }

    /// Performs one multiplication at nominal conditions.
    ///
    /// # Errors
    ///
    /// Returns [`ImcError::OperandOutOfRange`] for operands above
    /// [`ArrayConfig::operand_max`] and propagates model errors.
    pub fn multiply(&self, a: u16, d: u16) -> Result<MultiplyOutcome, ImcError> {
        self.multiply_at(a, d, self.nominal)
    }

    /// Performs one multiplication at an explicit operating point.
    ///
    /// # Errors
    ///
    /// Same as [`InSramMultiplier::multiply`].
    pub fn multiply_at(
        &self,
        a: u16,
        d: u16,
        at: OperatingPoint,
    ) -> Result<MultiplyOutcome, ImcError> {
        self.check_operands(a, d)?;
        self.multiply_inner(a, d, at, None)
    }

    /// Performs one multiplication on a mismatch die: every column that
    /// discharges is offset by `σ(a_slice, bit) · z` (Eq. 6's σ at the
    /// column's word line and duration), where `z = die[column]` is the
    /// standard-normal offset of its physical column (see
    /// [`InSramMultiplier::sample_die`]).  The same die offsets every pass
    /// and every product that reads the column.
    ///
    /// # Errors
    ///
    /// Same as [`InSramMultiplier::multiply`], plus
    /// [`ImcError::InvalidConfiguration`] when `die` does not hold one
    /// offset per physical column.
    pub fn multiply_on_die(
        &self,
        a: u16,
        d: u16,
        at: OperatingPoint,
        die: &[f64],
    ) -> Result<MultiplyOutcome, ImcError> {
        self.check_operands(a, d)?;
        self.check_die(die)?;
        self.multiply_inner(a, d, at, Some(die))
    }

    /// Shared scalar multiply path: evaluates every analog pass through the
    /// live models (optionally on a mismatch die), then composes the digital
    /// result.
    fn multiply_inner(
        &self,
        a: u16,
        d: u16,
        at: OperatingPoint,
        die: Option<&[f64]>,
    ) -> Result<MultiplyOutcome, ImcError> {
        let array = &self.config.array;
        let slices = array.slices() as u16;
        let shift = array.slice_bits as u16;
        let mask = array.slice_max();
        let mut discharges = Vec::with_capacity(array.passes() as usize);
        for i in 0..slices {
            let a_slice = (a >> (i * shift)) & mask;
            for j in 0..slices {
                let d_slice = (d >> (j * shift)) & mask;
                let pass = discharges.len();
                discharges.push(self.slice_discharge(pass, a_slice, d_slice, at, die)?);
            }
        }
        let write_energy = FemtoJoules(
            self.models.write_energy(at.vdd, at.temperature).0 * array.operand_bits as f64,
        );
        // Energy readout mirrors the real circuit: it cannot fail once the
        // pass discharges above succeeded, so fall back to zero-energy terms
        // instead of propagating.
        let column_energy = |pass: usize, a_slice: u16, bit: u8| {
            if let Some(faults) = &self.faults {
                if faults.is_shorted(pass, bit) {
                    return self
                        .models
                        .discharge_energy(Volts(at.vdd.0), at.vdd, at.temperature)
                        .0;
                }
            }
            let word_line = self.aged_word_line(
                self.dac
                    .output_with_supply(a_slice, at.vdd, self.models.vdd_nominal())
                    .unwrap_or(Volts(self.config.vdac_zero.0)),
            );
            let delta = self
                .models
                .discharge(
                    self.column_duration(bit),
                    word_line,
                    true,
                    at.vdd,
                    at.temperature,
                )
                .map(|v| v.0)
                .unwrap_or(0.0);
            let delta = match &self.faults {
                None => delta,
                Some(faults) => faults.scaled_delta(pass, bit, delta),
            };
            self.models
                .discharge_energy(Volts(delta), at.vdd, at.temperature)
                .0
        };
        let mut discharge_sum = 0.0;
        let mut multiply_energy = 0.0;
        let result = fold_passes(array, a, d, 0u32, |result, pass, a_slice, d_slice| {
            let discharge = discharges[pass];
            discharge_sum += discharge;
            multiply_energy += self.converter_overhead.0;
            let gates = self.gate_bits(pass, d_slice);
            for bit in 0..array.slice_bits {
                if (gates >> bit) & 1 == 1 {
                    multiply_energy += column_energy(pass, a_slice, bit);
                }
            }
            result + self.pass_code(pass, discharge)
        });
        Ok(MultiplyOutcome {
            result: saturate(result),
            expected: a * d,
            combined_discharge: Volts(discharge_sum / array.passes() as f64),
            multiply_energy: FemtoJoules(multiply_energy),
            write_energy,
        })
    }

    /// The set of bits of `(pass, d_slice)` whose columns discharge: the
    /// stored slice itself, unless a fault state gates a stored 1 off
    /// (stuck-at-0, open bit-line) or a stored 0 on (stuck-at-1, short).
    fn gate_bits(&self, pass: usize, d_slice: u16) -> u16 {
        match &self.faults {
            None => d_slice,
            Some(faults) => faults.gate_bits(pass, d_slice),
        }
    }

    /// ADC code of one pass's combined discharge, shifted to the pass's
    /// digital weight.  The one quantisation model every multiply path
    /// shares — scalar, readout kernel and mismatch die.
    #[inline]
    fn pass_code(&self, pass: usize, discharge: f64) -> u32 {
        let array = &self.config.array;
        let slices = array.slices() as usize;
        // Round-to-nearest quantisation in slice-product LSB units, clamped
        // to the ADC code range of one pass.
        let raw = (discharge / self.volts_per_lsb).round();
        let code = raw.clamp(0.0, self.adc.max_code() as f64) as u32;
        // Which pass this slice pair is determines its digital weight.
        let weight = (pass / slices + pass % slices) * array.slice_bits as usize;
        code << weight
    }

    /// Precomputes the nominal ΔV and the mismatch σ of every
    /// `(slice operand, column)` at `at`, for
    /// [`InSramMultiplier::mismatch_die_error`].
    ///
    /// σ is evaluated at the aged, supply-adjusted word line the scalar
    /// [`InSramMultiplier::multiply_on_die`] evaluates it at, so a die read
    /// out on the grid is offset exactly like the scalar path.
    ///
    /// # Errors
    ///
    /// * Same as [`InSramMultiplier::analog_grid`].
    /// * [`ImcError::CornerFailed`] naming the first `(a_slice, bit)` in
    ///   operand-major order whose ΔV or σ is not finite (the index is
    ///   `a_slice · slice_bits + bit`), with an
    ///   [`ImcError::InvalidConfiguration`] source — such a σ cannot scale a
    ///   die's offsets.
    pub fn mismatch_grid(&self, at: OperatingPoint) -> Result<MismatchGrid, ImcError> {
        let analog = self.analog_grid(at)?;
        let bits = analog.slice_bits as usize;
        let mut sigmas = Vec::with_capacity(analog.deltas.len());
        for (index, &delta) in analog.deltas.iter().enumerate() {
            let (a_slice, bit) = (index / bits, index % bits);
            let sigma = self
                .models
                .mismatch_sigma(self.column_duration(bit as u8), analog.word_lines[a_slice])
                .0;
            for (quantity, value) in [("discharge", delta), ("mismatch sigma", sigma)] {
                if !value.is_finite() {
                    return Err(ImcError::CornerFailed {
                        index,
                        corner: format!("mismatch grid a_slice = {a_slice}, bit = {bit}"),
                        source: Box::new(ImcError::InvalidConfiguration {
                            context: format!("{quantity} is not finite ({value} V)"),
                        }),
                    });
                }
            }
            sigmas.push(sigma);
        }
        Ok(MismatchGrid {
            analog,
            sigmas,
            vdd: at.vdd.0,
        })
    }

    /// Draws one mismatch die: a standard-normal offset per physical column
    /// of the array (spares included), in column order.
    ///
    /// Mismatch is a static property of the fabricated cells (Eq. 6's σ
    /// comes from perturbing one device's V_th and β), so a die is drawn
    /// once and then offsets every product that reads its columns.
    pub fn sample_die<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        (0..self.config.array.physical_columns())
            .map(|_| standard_normal(rng))
            .collect()
    }

    /// Average absolute error in LSBs over the full input space on one
    /// mismatch die: every discharging, non-shorted column's ΔV is offset by
    /// `σ(a_slice, bit) · die[column]` before the fault state's drift.
    ///
    /// Only the die's ADC code table (`passes · 2^(2·slice_bits)` entries)
    /// is rebuilt; the input space is then read out from it with no random
    /// draws.  Bit-identical to averaging
    /// [`InSramMultiplier::multiply_on_die`] over the pairs in operand-major
    /// order with [`optima_math::stats::mean`].
    ///
    /// # Errors
    ///
    /// [`ImcError::InvalidConfiguration`] when `die` does not hold one
    /// offset per physical column.
    pub fn mismatch_die_error(&self, grid: &MismatchGrid, die: &[f64]) -> Result<f64, ImcError> {
        self.check_die(die)?;
        let codes = CodeTable::build(self, |pass, a_slice, d_slice| {
            self.pass_discharge(pass, d_slice, grid.vdd, |bit| {
                grid.die_delta(a_slice, bit, die[self.physical_column(pass, bit)])
            })
        });
        Ok(codes.mean_abs_error())
    }

    fn check_die(&self, die: &[f64]) -> Result<(), ImcError> {
        let columns = self.config.array.physical_columns() as usize;
        if die.len() != columns {
            return Err(ImcError::InvalidConfiguration {
                context: format!(
                    "a mismatch die of {} offsets cannot drive the {columns} physical columns of {}",
                    die.len(),
                    self.config.array.describe()
                ),
            });
        }
        Ok(())
    }
}

/// Folds `combine` over the analog passes of the pair `(a, d)` in pass
/// order (`a`-slice outer, `d`-slice inner, both low-to-high), passing
/// `(accumulator, pass_index, a_slice, d_slice)`.
#[inline]
fn fold_passes<T>(
    array: &ArrayConfig,
    a: u16,
    d: u16,
    init: T,
    mut combine: impl FnMut(T, usize, u16, u16) -> T,
) -> T {
    let slices = array.slices() as u16;
    let shift = array.slice_bits as u16;
    let mask = array.slice_max();
    let mut acc = init;
    let mut pass = 0usize;
    for i in 0..slices {
        let a_slice = (a >> (i * shift)) & mask;
        for j in 0..slices {
            let d_slice = (d >> (j * shift)) & mask;
            acc = combine(acc, pass, a_slice, d_slice);
            pass += 1;
        }
    }
    acc
}

/// Non-ideal slice results can overshoot the exact product range; the
/// digital accumulator saturates at the `u16` result width.
#[inline]
fn saturate(result: u32) -> u16 {
    result.min(u16::MAX as u32) as u16
}

/// A column's ΔV on a mismatch die: the nominal ΔV shifted by the die's
/// offset, clamped at zero so a slow column weakens but never inverts its
/// discharge.  A zero offset (σ = 0) leaves the nominal ΔV untouched.
#[inline]
fn offset_delta(nominal: f64, offset: f64) -> f64 {
    if offset == 0.0 {
        nominal
    } else {
        (nominal + offset).max(0.0)
    }
}

/// The analog passes of a stored-operand row `a`, in pass order: yields
/// `(pass, a_slice, run)`, where the pass reads `a`'s slice `a_slice` and
/// the `d`-slice of the pass is digit `j` of `d` in base `slice_max + 1`,
/// constant over runs of `run = (slice_max + 1)^j` consecutive `d`.
#[inline]
fn row_passes(array: &ArrayConfig, a: u16) -> impl Iterator<Item = (usize, u16, usize)> {
    let slices = array.slices() as usize;
    let shift = array.slice_bits as usize;
    let mask = array.slice_max();
    (0..slices).flat_map(move |i| {
        let a_slice = (a >> (i * shift)) & mask;
        (0..slices).map(move |j| (i * slices + j, a_slice, 1usize << (j * shift)))
    })
}

/// Applies `op(&mut acc[d], entries[d_slice])` to every `d` of a row, where
/// `d_slice` is the digit of `d` whose runs are `run` long and `entries`
/// holds one entry per digit value.  The lowest digit (`run == 1`) walks
/// `entries` contiguously; a higher digit broadcasts each entry over its
/// run.
#[inline(always)]
fn for_each_digit<T: Copy>(acc: &mut [T], entries: &[T], run: usize, op: impl Fn(&mut T, T)) {
    if run == 1 {
        for chunk in acc.chunks_exact_mut(entries.len()) {
            for (slot, &entry) in chunk.iter_mut().zip(entries) {
                op(slot, entry);
            }
        }
    } else {
        for block in acc.chunks_exact_mut(run * entries.len()) {
            for (span, &entry) in block.chunks_exact_mut(run).zip(entries) {
                for slot in span {
                    op(slot, entry);
                }
            }
        }
    }
}

/// Pass-weighted ADC code of every `(pass, a_slice, d_slice)` of one
/// multiplier — a composed product is the saturated sum of its passes'
/// entries.
#[derive(Debug, Clone, PartialEq)]
struct CodeTable {
    array: ArrayConfig,
    /// `code << weight(pass)`, indexed `(pass · operands + a_slice) ·
    /// operands + d_slice` with `operands = slice_max + 1`.
    codes: Vec<u32>,
}

impl CodeTable {
    /// Quantises `pass_discharge(pass, a_slice, d_slice)` for every entry.
    fn build(
        multiplier: &InSramMultiplier,
        mut pass_discharge: impl FnMut(usize, u16, u16) -> f64,
    ) -> Self {
        let array = *multiplier.array();
        let operands = array.slice_max() + 1;
        let passes = array.passes() as usize;
        let mut codes = Vec::with_capacity(passes * (operands as usize).pow(2));
        for pass in 0..passes {
            for a_slice in 0..operands {
                for d_slice in 0..operands {
                    let discharge = pass_discharge(pass, a_slice, d_slice);
                    codes.push(multiplier.pass_code(pass, discharge));
                }
            }
        }
        CodeTable { array, codes }
    }

    /// The codes of `(pass, a_slice, ·)`, one per `d_slice`.
    #[inline]
    fn row(&self, pass: usize, a_slice: u16) -> &[u32] {
        let operands = self.array.slice_max() as usize + 1;
        let start = (pass * operands + a_slice as usize) * operands;
        &self.codes[start..start + operands]
    }

    /// Digitised product of `(a, d)`, the per-pair oracle of
    /// [`CodeTable::fill_results`].
    #[inline]
    fn result(&self, a: u16, d: u16) -> u16 {
        let sum = fold_passes(&self.array, a, d, 0u32, |sum, pass, a_slice, d_slice| {
            sum + self.row(pass, a_slice)[d_slice as usize]
        });
        saturate(sum)
    }

    /// Digitised products of the row `a`: `results[d]` for every `d`, from
    /// the integer pass sums accumulated in `sums` (both one entry per
    /// operand).  Integer sums are exact, so the order of the passes does
    /// not matter.
    #[inline]
    fn fill_results(&self, a: u16, sums: &mut [u32], results: &mut [u16]) {
        // optima-lint: hot
        sums.fill(0);
        for (pass, a_slice, run) in row_passes(&self.array, a) {
            for_each_digit(sums, self.row(pass, a_slice), run, |sum, code| *sum += code);
        }
        for (result, &sum) in results.iter_mut().zip(&*sums) {
            *result = saturate(sum);
        }
        // optima-lint: end-hot
    }

    /// Average absolute error in LSBs over the full input space.
    ///
    /// Every error is an integer and their sum stays below 2^53, so the
    /// exact integer sum converted once is bit-identical to
    /// [`optima_math::stats::mean`] of the per-pair `f64` errors.
    fn mean_abs_error(&self) -> f64 {
        let max = self.array.operand_max();
        let side = max as usize + 1;
        let mut sums = vec![0u32; side];
        let mut results = vec![0u16; side];
        let mut total = 0u64;
        // optima-lint: hot
        for a in 0..=max {
            self.fill_results(a, &mut sums, &mut results);
            for (d, &result) in results.iter().enumerate() {
                total += u64::from(u32::from(result).abs_diff(u32::from(a) * d as u32));
            }
        }
        // optima-lint: end-hot
        total as f64 / self.array.input_space() as f64
    }
}

/// One stored-operand row of the input space, filled by
/// [`ReadoutKernel::read_row`]: one entry per `d`.
struct ReadoutRow {
    /// Integer pass sums before saturation.
    sums: Vec<u32>,
    /// Digitised products.
    results: Vec<u16>,
    /// Multiplication energies (femtojoules).
    energies: Vec<f64>,
    /// Pass σ, the worst pass (volts).
    sigmas: Vec<f64>,
}

impl ReadoutRow {
    fn new(side: usize) -> Self {
        ReadoutRow {
            sums: vec![0; side],
            results: vec![0; side],
            energies: vec![0.0; side],
            sigmas: vec![0.0; side],
        }
    }
}

/// Input-space readout tables of one multiplier at one operating point.
///
/// Built by [`InSramMultiplier::readout_kernel`] from one
/// [`AnalogOperandGrid`]; the input space is then read out one stored
/// operand `a` at a time, every `d` of the row at once, with no model
/// evaluation.  Three tables carry everything:
///
/// * the pass-weighted ADC code of every `(pass, a_slice, d_slice)`;
/// * the **gated energy** of every `(pass, a_slice, bit, d_slice)`: the
///   column's discharge energy (the fault state's shorts and retention
///   drift applied) where the fault state's gating lets it discharge for
///   `d_slice`, and `+0.0` where it does not;
/// * the pass σ of every `(a_slice, d_slice)`.
///
/// A row's results are integer pass sums: the lowest `d`-slice adds one
/// code-table row contiguously, and each higher slice broadcasts one entry
/// over runs of `(slice_max + 1)^j` consecutive `d`.  Its energies add, per
/// pass, the converter overhead and then every column's gated energy in
/// ascending bit order — the order of the scalar
/// [`InSramMultiplier::multiply_at`] path.  The accumulator starts at
/// `+0.0` and never becomes `-0.0` under round-to-nearest, so adding a
/// gated-off `+0.0` leaves it unchanged and every energy bit matches the
/// scalar path, which skips those columns.  Its σ is the max over passes,
/// as in [`InSramMultiplier::analog_sigma`].
///
/// The per-pair accessors ([`ReadoutKernel::result`],
/// [`ReadoutKernel::multiply_energy`], [`ReadoutKernel::analog_sigma`])
/// read the same tables one pair at a time; they are the oracles the row
/// readout is tested against.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadoutKernel {
    codes: CodeTable,
    /// Gated discharge energy per `(pass, a_slice, bit, d_slice)`
    /// (femtojoules, `+0.0` where the column does not discharge).
    gated: Vec<f64>,
    /// Pass σ per `(a_slice, d_slice)` (volts).
    sigmas: Vec<f64>,
    /// Converter overhead charged per pass (femtojoules).
    converter_overhead: f64,
    /// Energy of writing one full-width stored operand.
    write_energy: FemtoJoules,
}

impl ReadoutKernel {
    /// Largest operand of the input space.
    pub fn operand_max(&self) -> u16 {
        self.codes.array.operand_max()
    }

    /// Digitised product of `(a, d)` (the
    /// [`MultiplyOutcome::result`] of the scalar path).
    ///
    /// Operands above [`ReadoutKernel::operand_max`] are masked to the
    /// geometry's slices.
    #[inline]
    pub fn result(&self, a: u16, d: u16) -> u16 {
        self.codes.result(a, d)
    }

    /// Gated energies of `(pass, a_slice, bit, ·)`, one per `d_slice`.
    #[inline]
    fn gated_row(&self, pass: usize, a_slice: u16, bit: u8) -> &[f64] {
        let array = &self.codes.array;
        let operands = array.slice_max() as usize + 1;
        let start = ((pass * operands + a_slice as usize) * array.slice_bits as usize
            + bit as usize)
            * operands;
        &self.gated[start..start + operands]
    }

    /// Pass σ of `(a_slice, ·)`, one per `d_slice`.
    #[inline]
    fn sigma_row(&self, a_slice: u16) -> &[f64] {
        let operands = self.codes.array.slice_max() as usize + 1;
        &self.sigmas[a_slice as usize * operands..(a_slice as usize + 1) * operands]
    }

    /// Multiplication energy of `(a, d)`: per pass the converter overhead,
    /// then every column's gated energy in ascending bit order (the
    /// [`MultiplyOutcome::multiply_energy`] of the scalar path).
    pub fn multiply_energy(&self, a: u16, d: u16) -> FemtoJoules {
        let array = &self.codes.array;
        let energy = fold_passes(array, a, d, 0.0, |mut energy, pass, a_slice, d_slice| {
            energy += self.converter_overhead;
            for bit in 0..array.slice_bits {
                energy += self.gated_row(pass, a_slice, bit)[d_slice as usize];
            }
            energy
        });
        FemtoJoules(energy)
    }

    /// Energy of writing the stored operand.
    pub fn write_energy(&self) -> FemtoJoules {
        self.write_energy
    }

    /// Analog mismatch σ of `(a, d)`: the worst pass (the
    /// [`InSramMultiplier::analog_sigma`] of the scalar path).
    pub fn analog_sigma(&self, a: u16, d: u16) -> Volts {
        Volts(fold_passes(
            &self.codes.array,
            a,
            d,
            0.0f64,
            |worst, _, a_slice, d_slice| worst.max(self.sigma_row(a_slice)[d_slice as usize]),
        ))
    }

    /// Worst analog mismatch σ over the input space: the max over the σ
    /// table, since every `(a_slice, d_slice)` pair occurs in the input
    /// space (and `max` does not round, so the fold order is free).
    pub fn worst_sigma(&self) -> Volts {
        Volts(
            self.sigmas
                .iter()
                .fold(0.0, |worst, &sigma| worst.max(sigma)),
        )
    }

    /// Average absolute error in LSBs over the full input space
    /// (bit-identical to [`optima_math::stats::mean`] of the scalar path's
    /// per-pair errors in operand-major order).
    pub fn mean_abs_error(&self) -> f64 {
        self.codes.mean_abs_error()
    }

    /// Fills `row` with the readout of every `d` for the stored operand
    /// `a`.
    #[inline]
    fn read_row(&self, a: u16, row: &mut ReadoutRow) {
        let array = &self.codes.array;
        self.codes.fill_results(a, &mut row.sums, &mut row.results);
        // optima-lint: hot
        row.energies.fill(0.0);
        row.sigmas.fill(0.0);
        for (pass, a_slice, run) in row_passes(array, a) {
            for energy in &mut row.energies {
                *energy += self.converter_overhead;
            }
            for bit in 0..array.slice_bits {
                let entries = self.gated_row(pass, a_slice, bit);
                for_each_digit(&mut row.energies, entries, run, |sum, e| *sum += e);
            }
            // `f64::max` for a worst-so-far that is never NaN (a NaN σ
            // loses either way), in a form that vectorises.
            let entries = self.sigma_row(a_slice);
            for_each_digit(&mut row.sigmas, entries, run, |worst, s| {
                *worst = if s > *worst { s } else { *worst }
            });
        }
        // optima-lint: end-hot
    }

    /// Walks the input space one stored-operand row at a time, `a`
    /// ascending, calling `visit(a, results, sigmas)` with the digitised
    /// product and the analog σ of every `d` of the row, and returns the
    /// energy sums `(Σ multiply energy, Σ (multiply + write energy))`
    /// accumulated in operand-major order — the order of the scalar path,
    /// so every average taken from them is bit-identical to it.
    pub fn sweep_input_space(&self, mut visit: impl FnMut(u16, &[u16], &[f64])) -> (f64, f64) {
        let max = self.operand_max();
        let write_energy = self.write_energy.0;
        let mut row = ReadoutRow::new(max as usize + 1);
        let mut energy_sum = 0.0;
        let mut total_sum = 0.0;
        // optima-lint: hot
        for a in 0..=max {
            self.read_row(a, &mut row);
            visit(a, &row.results, &row.sigmas);
            for &energy in &row.energies {
                energy_sum += energy;
                total_sum += energy + write_energy;
            }
        }
        // optima-lint: end-hot
        (energy_sum, total_sum)
    }
}

/// Nominal discharges and mismatch σ per `(slice operand, column)` of one
/// multiplier at one operating point — everything a mismatch die's readout
/// needs besides the die's offsets.
///
/// Built once per analysis by [`InSramMultiplier::mismatch_grid`] and shared
/// read-only by every die.
#[derive(Debug, Clone, PartialEq)]
pub struct MismatchGrid {
    /// Nominal per-column quantities at the grid's operating point.
    analog: AnalogOperandGrid,
    /// Mismatch σ per `(a, bit)` in volts, row-major like the grid's ΔV.
    sigmas: Vec<f64>,
    /// Supply voltage (a shorted bit-line discharges the full rail).
    vdd: f64,
}

impl MismatchGrid {
    /// ΔV of column `bit` for slice operand `a` on a die whose offset for
    /// the column is `z` standard deviations.
    #[inline]
    fn die_delta(&self, a: u16, bit: u8, z: f64) -> f64 {
        let index = a as usize * self.analog.slice_bits as usize + bit as usize;
        offset_delta(self.analog.deltas[index], self.sigmas[index] * z)
    }
}

/// Per-(slice operand, column) analog quantities of one multiplier at one
/// operating point, precomputed through the batched model fills.
///
/// Built by [`InSramMultiplier::analog_grid`]; the operand pairs of the full
/// input space combine these `(slice_max + 1) × slice_bits` values instead of
/// re-evaluating the fitted polynomials per pair.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalogOperandGrid {
    /// Slice width the grid was generated for (row stride of the flats).
    slice_bits: u8,
    /// Word-line voltage per slice operand `a`.
    word_lines: Vec<Volts>,
    /// Discharge `ΔV` per `(a, bit)`, row-major with `slice_bits` per row.
    deltas: Vec<f64>,
    /// Discharge energy per `(a, bit)` (femtojoules).
    energies: Vec<f64>,
    /// Energy of writing one full-width stored operand.
    write_energy: FemtoJoules,
}

impl AnalogOperandGrid {
    /// Discharge `ΔV` of column `bit` for slice operand `a`.
    fn delta(&self, a: u16, bit: u8) -> f64 {
        self.deltas[a as usize * self.slice_bits as usize + bit as usize]
    }

    /// Discharge energy of column `bit` for slice operand `a` (femtojoules).
    fn energy(&self, a: u16, bit: u8) -> f64 {
        self.energies[a as usize * self.slice_bits as usize + bit as usize]
    }

    /// Charge-shared combined discharge of one pass for the slice pair
    /// `(a, d)`: the same per-column values summed in the same bit-ascending
    /// order as the scalar multiply path, so the result is bit-identical to
    /// it.
    pub fn combined_discharge(&self, a: u16, d: u16) -> f64 {
        let mut total = 0.0;
        for bit in 0..self.slice_bits {
            if (d >> bit) & 1 == 1 {
                total += self.delta(a, bit);
            }
        }
        total / self.slice_bits as f64
    }

    /// Word-line voltage the DAC produced for slice operand `a`.
    pub fn word_line(&self, a: u16) -> Volts {
        self.word_lines[a as usize]
    }
}

/// A pre-computed result table of a multiplier configuration over its full
/// input space.
///
/// The DNN experiments perform millions of multiplications; looking the
/// results up in a table is the standard way to make that tractable and is
/// behaviourally identical because the multiplier is deterministic at a fixed
/// operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiplierTable {
    operand_bits: u8,
    results: Vec<u16>,
    average_multiply_energy: FemtoJoules,
    average_total_energy: FemtoJoules,
}

impl MultiplierTable {
    /// Builds the table by reading the input space at the given operating
    /// point out of the multiplier's [`InSramMultiplier::readout_kernel`],
    /// one stored-operand row at a time.
    ///
    /// Bit-identical to [`MultiplierTable::from_multiplier_scalar`] — the
    /// equivalence is enforced by property tests and re-checked by the
    /// `analog_mac` bench report.
    ///
    /// # Errors
    ///
    /// Propagates multiplier errors.
    pub fn from_multiplier(
        multiplier: &InSramMultiplier,
        at: OperatingPoint,
    ) -> Result<Self, ImcError> {
        let kernel = multiplier.readout_kernel(at)?;
        let mut results = Vec::with_capacity(multiplier.array().input_space());
        let (energy_sum, total_sum) =
            kernel.sweep_input_space(|_, row, _| results.extend_from_slice(row));
        Ok(Self::from_sums(
            results,
            energy_sum,
            total_sum,
            multiplier.array().operand_bits,
        ))
    }

    /// Builds the table through the scalar per-pair multiply path — the
    /// reference implementation the batched
    /// [`MultiplierTable::from_multiplier`] is verified against.
    ///
    /// # Errors
    ///
    /// Propagates multiplier errors.
    pub fn from_multiplier_scalar(
        multiplier: &InSramMultiplier,
        at: OperatingPoint,
    ) -> Result<Self, ImcError> {
        let max = multiplier.array().operand_max();
        let mut outcomes = Vec::with_capacity(multiplier.array().input_space());
        for a in 0..=max {
            for d in 0..=max {
                outcomes.push(multiplier.multiply_at(a, d, at)?);
            }
        }
        Self::from_outcomes(outcomes, multiplier.array().operand_bits)
    }

    fn from_outcomes(outcomes: Vec<MultiplyOutcome>, operand_bits: u8) -> Result<Self, ImcError> {
        let mut results = Vec::with_capacity(outcomes.len());
        let mut energy_sum = 0.0;
        let mut total_sum = 0.0;
        for outcome in &outcomes {
            results.push(outcome.result);
            energy_sum += outcome.multiply_energy.0;
            total_sum += outcome.total_energy().0;
        }
        Ok(Self::from_sums(
            results,
            energy_sum,
            total_sum,
            operand_bits,
        ))
    }

    fn from_sums(results: Vec<u16>, energy_sum: f64, total_sum: f64, operand_bits: u8) -> Self {
        let count = results.len() as f64;
        MultiplierTable {
            operand_bits,
            results,
            average_multiply_energy: FemtoJoules(energy_sum / count),
            average_total_energy: FemtoJoules(total_sum / count),
        }
    }

    /// An ideal (error-free) 4-bit table, used as the exact-INT4 baseline.
    pub fn exact() -> Self {
        Self::exact_for_bits(OPERAND_BITS)
    }

    /// An ideal (error-free) table over `operand_bits`-wide operands (1..=8).
    ///
    /// # Panics
    ///
    /// Panics if `operand_bits` is outside 1..=8 (products must fit `u16`).
    pub fn exact_for_bits(operand_bits: u8) -> Self {
        assert!(
            (1..=8).contains(&operand_bits),
            "exact table supports 1..=8 operand bits"
        );
        let max = (1u32 << operand_bits) as u16 - 1;
        let mut results = Vec::with_capacity((max as usize + 1) * (max as usize + 1));
        for a in 0..=max {
            for d in 0..=max {
                results.push(a * d);
            }
        }
        MultiplierTable {
            operand_bits,
            results,
            average_multiply_energy: FemtoJoules(0.0),
            average_total_energy: FemtoJoules(0.0),
        }
    }

    /// Operand width of the table's input space.
    pub fn operand_bits(&self) -> u8 {
        self.operand_bits
    }

    /// Largest operand the table covers.
    pub fn operand_max(&self) -> u16 {
        (1u32 << self.operand_bits) as u16 - 1
    }

    /// Looks up the multiplier output for `(a, d)`.
    ///
    /// # Panics
    ///
    /// Panics if either operand exceeds [`MultiplierTable::operand_max`].
    pub fn lookup(&self, a: u16, d: u16) -> u16 {
        let max = self.operand_max();
        assert!(
            a <= max && d <= max,
            "operands must be {}-bit",
            self.operand_bits
        );
        self.results[a as usize * (max as usize + 1) + d as usize]
    }

    /// Average multiplication energy over the input space.
    pub fn average_multiply_energy(&self) -> FemtoJoules {
        self.average_multiply_energy
    }

    /// Average write + multiplication energy over the input space.
    pub fn average_total_energy(&self) -> FemtoJoules {
        self.average_total_energy
    }

    /// Mean absolute error of the table against exact multiplication (LSBs).
    pub fn mean_absolute_error(&self) -> f64 {
        let max = self.operand_max();
        let mut total = 0.0;
        for a in 0..=max {
            for d in 0..=max {
                total += (self.lookup(a, d) as f64 - (a * d) as f64).abs();
            }
        }
        total / self.results.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testsupport::linear_suite;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn ideal_config() -> MultiplierConfig {
        // Zero code at the threshold voltage makes the overdrive proportional
        // to the DAC code, so products are exact up to quantisation.
        MultiplierConfig::new(Seconds(0.16e-9), Volts(0.45), Volts(1.0))
    }

    fn int8_config() -> MultiplierConfig {
        ideal_config().with_array(ArrayConfig::int8())
    }

    #[test]
    fn near_ideal_multiplier_reproduces_products() {
        let multiplier = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        for (a, d) in [(0, 0), (1, 1), (3, 5), (7, 9), (15, 15), (15, 1), (2, 8)] {
            let outcome = multiplier.multiply(a, d).unwrap();
            assert_eq!(outcome.expected, a * d);
            assert!(
                outcome.error_lsb().abs() <= 1.0,
                "{a} x {d}: got {} expected {}",
                outcome.result,
                outcome.expected
            );
        }
    }

    #[test]
    fn zero_operands_produce_zero() {
        let multiplier = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        assert_eq!(multiplier.multiply(0, 9).unwrap().result, 0);
        assert_eq!(multiplier.multiply(9, 0).unwrap().result, 0);
    }

    #[test]
    fn operands_above_fifteen_are_rejected() {
        let multiplier = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        assert!(matches!(
            multiplier.multiply(16, 3),
            Err(ImcError::OperandOutOfRange { .. })
        ));
        assert!(matches!(
            multiplier.multiply(3, 99),
            Err(ImcError::OperandOutOfRange { .. })
        ));
    }

    #[test]
    fn operand_range_follows_the_geometry() {
        let multiplier = InSramMultiplier::new(linear_suite(), int8_config()).unwrap();
        assert!(multiplier.multiply(255, 255).is_ok());
        assert!(matches!(
            multiplier.multiply(256, 1),
            Err(ImcError::OperandOutOfRange { max: 255, .. })
        ));
    }

    #[test]
    fn invalid_configurations_are_rejected() {
        assert!(InSramMultiplier::new(
            linear_suite(),
            MultiplierConfig::new(Seconds(0.0), Volts(0.3), Volts(1.0))
        )
        .is_err());
        assert!(InSramMultiplier::new(
            linear_suite(),
            MultiplierConfig::new(Seconds(0.16e-9), Volts(1.0), Volts(0.7))
        )
        .is_err());
        // Geometry validation is part of construction.
        let broken = ideal_config().with_array(ArrayConfig {
            operand_bits: 6,
            ..ArrayConfig::default()
        });
        assert!(matches!(
            InSramMultiplier::new(linear_suite(), broken),
            Err(ImcError::InvalidConfiguration { .. })
        ));
    }

    #[test]
    fn energy_grows_with_stored_operand_weight() {
        let multiplier = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        let light = multiplier.multiply(15, 1).unwrap().multiply_energy.0;
        let heavy = multiplier.multiply(15, 15).unwrap().multiply_energy.0;
        assert!(heavy > light);
        let outcome = multiplier.multiply(15, 15).unwrap();
        assert!(outcome.write_energy.0 > 0.0);
        assert!(outcome.total_energy().0 > outcome.multiply_energy.0);
    }

    #[test]
    fn paper_corner_constructors_match_table_one() {
        let fom = MultiplierConfig::paper_fom_corner();
        assert!((fom.tau0.0 - 0.16e-9).abs() < 1e-15);
        assert_eq!(fom.vdac_zero, Volts(0.3));
        assert_eq!(fom.vdac_full_scale, Volts(1.0));
        assert!(fom.array.is_paper());
        let power = MultiplierConfig::paper_power_corner();
        assert_eq!(power.vdac_full_scale, Volts(0.7));
        let variation = MultiplierConfig::paper_variation_corner();
        assert!((variation.tau0.0 - 0.24e-9).abs() < 1e-15);
        assert_eq!(variation.vdac_zero, Volts(0.4));
        assert!((fom.longest_discharge().0 - 1.28e-9).abs() < 1e-15);
    }

    #[test]
    fn a_die_offsets_results_reproducibly() {
        let multiplier = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        let at = multiplier.nominal_operating_point();
        let die_a = multiplier.sample_die(&mut ChaCha8Rng::seed_from_u64(3));
        let die_b = multiplier.sample_die(&mut ChaCha8Rng::seed_from_u64(3));
        assert_eq!(die_a.len(), 4, "one offset per physical column");
        assert_eq!(die_a, die_b);
        assert_eq!(
            multiplier.multiply_on_die(12, 13, at, &die_a).unwrap(),
            multiplier.multiply_on_die(12, 13, at, &die_b).unwrap()
        );
        // Across dies the discharge must deviate from nominal sometimes.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let nominal = multiplier.multiply(12, 13).unwrap().combined_discharge.0;
        let any_different = (0..64).any(|_| {
            let die = multiplier.sample_die(&mut rng);
            let sampled = multiplier.multiply_on_die(12, 13, at, &die).unwrap();
            (sampled.combined_discharge.0 - nominal).abs() > 1e-6
        });
        assert!(any_different);
        // A zero die is the nominal multiplier.
        assert_eq!(
            multiplier.multiply_on_die(12, 13, at, &[0.0; 4]).unwrap(),
            multiplier.multiply(12, 13).unwrap()
        );
        // A die must cover exactly the physical columns.
        assert!(matches!(
            multiplier.multiply_on_die(12, 13, at, &[0.0; 3]),
            Err(ImcError::InvalidConfiguration { .. })
        ));
        let grid = multiplier.mismatch_grid(at).unwrap();
        assert!(matches!(
            multiplier.mismatch_die_error(&grid, &[0.0; 5]),
            Err(ImcError::InvalidConfiguration { .. })
        ));
    }

    /// The per-operation mismatch draw this crate used before mismatch
    /// became a per-die offset: every discharging, non-shorted column of
    /// every pass of every pair draws its own Gaussian deviation.  Kept only
    /// as the reference of the spread property below.
    fn per_operation_error_sample(
        multiplier: &InSramMultiplier,
        grid: &MismatchGrid,
        rng: &mut ChaCha8Rng,
    ) -> f64 {
        let array = *multiplier.array();
        let max = array.operand_max();
        let bits = array.slice_bits as usize;
        let mut total = 0.0;
        for a in 0..=max {
            for d in 0..=max {
                let result = fold_passes(&array, a, d, 0u32, |result, pass, a_slice, d_slice| {
                    let row = a_slice as usize * bits;
                    let discharge = multiplier.pass_discharge(pass, d_slice, grid.vdd, |bit| {
                        let index = row + bit as usize;
                        let sigma = grid.sigmas[index];
                        let deviation = if sigma == 0.0 {
                            0.0
                        } else {
                            sigma * standard_normal(&mut *rng)
                        };
                        (grid.analog.deltas[index] + deviation).max(0.0)
                    });
                    result + multiplier.pass_code(pass, discharge)
                });
                total += (saturate(result) as f64 - (a * d) as f64).abs();
            }
        }
        total / array.input_space() as f64
    }

    #[test]
    fn die_spread_exceeds_the_per_operation_spread_on_a_near_ideal_fixture() {
        // On this near-ideal linear fixture (σ = 2e-2 · t · V_WL),
        // independent per-operation draws average out over the input space
        // while a die's static column offsets do not, so the per-die spread
        // is the larger one.  This is
        // a property of the fixture, not of the model: at the Table I fom
        // corner the signed errors change sign across the input space, a
        // die's offsets cancel in the mean |error|, and the property fails
        // (full-profile Fig. 8: die spread 0.033 LSB against 0.066 LSB per
        // operation; ROADMAP item 2, finding 1).
        let suite = crate::testsupport::linear_suite_with_mismatch(
            optima_core::model::mismatch::MismatchSigmaModel::new(
                optima_math::Polynomial::new(vec![0.0, 2e-2]),
                optima_math::Polynomial::new(vec![0.0, 1.0]),
            ),
        );
        for config in [ideal_config(), int8_config()] {
            let multiplier = InSramMultiplier::new(suite.clone(), config).unwrap();
            let grid = multiplier
                .mismatch_grid(multiplier.nominal_operating_point())
                .unwrap();
            let samples = if config.array.operand_bits == 4 {
                32
            } else {
                6
            };
            let mut die_errors = Vec::new();
            let mut operation_errors = Vec::new();
            for sample in 0..samples {
                let mut rng = ChaCha8Rng::seed_from_u64(sample);
                let die = multiplier.sample_die(&mut rng);
                die_errors.push(multiplier.mismatch_die_error(&grid, &die).unwrap());
                operation_errors.push(per_operation_error_sample(&multiplier, &grid, &mut rng));
            }
            let die_spread = optima_math::stats::std_dev(&die_errors);
            let operation_spread = optima_math::stats::std_dev(&operation_errors);
            assert!(
                die_spread >= operation_spread,
                "{}: die spread {die_spread} < per-operation spread {operation_spread}",
                config.array.describe()
            );
        }
    }

    #[test]
    fn analog_sigma_grows_with_operands() {
        let multiplier = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        let small = multiplier.analog_sigma(3, 1).unwrap().0;
        let large = multiplier.analog_sigma(15, 15).unwrap().0;
        assert!(large > small);
        assert_eq!(multiplier.analog_sigma(5, 0).unwrap().0, 0.0);
        assert!(multiplier.analog_sigma(16, 0).is_err());
    }

    #[test]
    fn table_matches_direct_multiplication() {
        let multiplier = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        let at = multiplier.nominal_operating_point();
        let table = MultiplierTable::from_multiplier(&multiplier, at).unwrap();
        for (a, d) in [(0, 0), (3, 4), (15, 15), (9, 2)] {
            assert_eq!(
                table.lookup(a, d),
                multiplier.multiply(a, d).unwrap().result
            );
        }
        assert!(table.average_multiply_energy().0 > 0.0);
        assert!(table.average_total_energy().0 > table.average_multiply_energy().0);
        assert!(table.mean_absolute_error() < 1.0);
    }

    /// Asserts that the kernel's readout of `(a, d)` equals the scalar
    /// multiply path bit for bit: result, multiply and write energy, σ.
    fn assert_kernel_pair(
        multiplier: &InSramMultiplier,
        kernel: &ReadoutKernel,
        at: OperatingPoint,
        a: u16,
        d: u16,
    ) {
        let scalar = multiplier.multiply_at(a, d, at).unwrap();
        assert_eq!(kernel.result(a, d), scalar.result, "a = {a}, d = {d}");
        assert_eq!(
            kernel.multiply_energy(a, d).0.to_bits(),
            scalar.multiply_energy.0.to_bits(),
            "energy at a = {a}, d = {d}"
        );
        assert_eq!(
            kernel.write_energy().0.to_bits(),
            scalar.write_energy.0.to_bits()
        );
        assert_eq!(
            kernel.analog_sigma(a, d).0.to_bits(),
            multiplier.analog_sigma(a, d).unwrap().0.to_bits(),
            "sigma at a = {a}, d = {d}"
        );
    }

    #[test]
    fn readout_kernel_is_bit_identical_to_scalar_multiplication() {
        for suite in [
            crate::testsupport::linear_suite(),
            crate::testsupport::pvt_sensitive_suite(),
        ] {
            let multiplier = InSramMultiplier::new(suite, ideal_config()).unwrap();
            for at in [
                multiplier.nominal_operating_point(),
                OperatingPoint {
                    vdd: Volts(0.95),
                    temperature: Celsius(60.0),
                },
            ] {
                let kernel = multiplier.readout_kernel(at).unwrap();
                assert_eq!(kernel.operand_max(), OPERAND_MAX);
                for a in 0..=OPERAND_MAX {
                    for d in 0..=OPERAND_MAX {
                        assert_kernel_pair(&multiplier, &kernel, at, a, d);
                    }
                }
            }
        }
    }

    /// A `operand_bits`-wide geometry of `slice_bits`-wide slices on one
    /// row of `operand_bits` columns.
    fn sliced(operand_bits: u8, slice_bits: u8) -> ArrayConfig {
        ArrayConfig {
            operand_bits,
            slice_bits,
            columns: operand_bits as u16,
            ..ArrayConfig::default()
        }
    }

    /// Multipliers on every geometry the row readout distinguishes — one
    /// pass, two slices, three and more slices, 1-bit slices — each
    /// pristine and with a faulted, aged array.
    fn row_oracle_multipliers() -> Vec<InSramMultiplier> {
        use crate::reliability::FaultState;
        use optima_circuit::defects::{DefectMap, DefectModel, LifetimeTrajectory};
        let mut multipliers = Vec::new();
        for base in [
            ArrayConfig::paper(),
            ArrayConfig::int8(),
            sliced(6, 2),
            sliced(6, 1),
            sliced(8, 2),
        ] {
            multipliers.push(
                InSramMultiplier::new(linear_suite(), ideal_config().with_array(base)).unwrap(),
            );
            let array = base.with_spares(2);
            let map = DefectMap::sample(&array, &DefectModel::uniform(0.25, 17)).unwrap();
            let state = FaultState::unmitigated(&array, map, 0)
                .unwrap()
                .with_lifetime(&LifetimeTrajectory::nbti_like().at(3));
            multipliers.push(
                InSramMultiplier::new(linear_suite(), ideal_config().with_array(array))
                    .unwrap()
                    .with_faults(state)
                    .unwrap(),
            );
        }
        multipliers
    }

    #[test]
    fn row_readout_matches_the_per_pair_accessors() {
        for multiplier in row_oracle_multipliers() {
            let kernel = multiplier
                .readout_kernel(multiplier.nominal_operating_point())
                .unwrap();
            let max = kernel.operand_max();
            let name = multiplier.array().describe();
            let mut row = ReadoutRow::new(max as usize + 1);
            let (mut energy_sum, mut total_sum) = (0.0, 0.0);
            let mut abs_errors = Vec::new();
            for a in 0..=max {
                kernel.read_row(a, &mut row);
                for d in 0..=max {
                    let at = d as usize;
                    assert_eq!(row.results[at], kernel.result(a, d), "{name}: {a} x {d}");
                    let energy = kernel.multiply_energy(a, d).0;
                    assert_eq!(
                        row.energies[at].to_bits(),
                        energy.to_bits(),
                        "{name}: energy of {a} x {d}"
                    );
                    assert_eq!(
                        row.sigmas[at].to_bits(),
                        kernel.analog_sigma(a, d).0.to_bits(),
                        "{name}: sigma of {a} x {d}"
                    );
                    energy_sum += energy;
                    total_sum += energy + kernel.write_energy().0;
                    abs_errors.push((kernel.result(a, d) as f64 - (a * d) as f64).abs());
                }
            }
            let mut visited = 0u32;
            let sums = kernel.sweep_input_space(|a, results, sigmas| {
                assert_eq!(a as u32, visited, "{name}: rows in ascending order");
                assert_eq!(results.len(), max as usize + 1);
                assert_eq!(sigmas.len(), max as usize + 1);
                visited += 1;
            });
            assert_eq!(visited, max as u32 + 1);
            assert_eq!(sums.0.to_bits(), energy_sum.to_bits(), "{name}");
            assert_eq!(sums.1.to_bits(), total_sum.to_bits(), "{name}");
            assert_eq!(
                kernel.mean_abs_error().to_bits(),
                optima_math::stats::mean(&abs_errors).to_bits(),
                "{name}"
            );
        }
    }

    #[test]
    fn wide_slice_kernels_are_bit_identical_to_scalar_multiplication() {
        // Three and more slices exercise the broadcast runs of the higher
        // d-slices; 1-bit slices the smallest code rows.  A stratified
        // sample of pairs keeps the live scalar path affordable.
        for multiplier in row_oracle_multipliers() {
            let at = multiplier.nominal_operating_point();
            let kernel = multiplier.readout_kernel(at).unwrap();
            let max = kernel.operand_max();
            let probes: Vec<u16> = (0..=max)
                .filter(|&v| v % 11 == 0 || v < 5 || v > max - 5)
                .collect();
            for &a in &probes {
                for &d in &probes {
                    assert_kernel_pair(&multiplier, &kernel, at, a, d);
                }
            }
        }
    }

    #[test]
    fn int8_readout_kernel_is_bit_identical_to_scalar_composition() {
        let multiplier = InSramMultiplier::new(linear_suite(), int8_config()).unwrap();
        let at = multiplier.nominal_operating_point();
        let kernel = multiplier.readout_kernel(at).unwrap();
        assert_eq!(kernel.operand_max(), 255);
        // The full 256×256 space is slow through the live scalar path; a
        // stratified sample (all slice-boundary patterns plus a diagonal)
        // covers every composition case.
        let probes: Vec<u16> = (0..=255u16)
            .filter(|&v| v % 17 == 0 || !(18..=238).contains(&v) || v % 16 == 0)
            .collect();
        for &a in &probes {
            for &d in &probes {
                assert_kernel_pair(&multiplier, &kernel, at, a, d);
            }
        }
    }

    #[test]
    fn int8_composition_matches_the_widened_slice_reference() {
        // The composed result must equal the digital shift-add of the four
        // 4-bit slice multiplications performed by the equivalent paper-
        // geometry multiplier: composition adds no analog behaviour of its
        // own.
        let wide = InSramMultiplier::new(linear_suite(), int8_config()).unwrap();
        let narrow = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        assert_eq!(
            wide.volts_per_lsb().0.to_bits(),
            narrow.volts_per_lsb().0.to_bits()
        );
        let at = wide.nominal_operating_point();
        for (a, d) in [
            (0u16, 0u16),
            (1, 255),
            (255, 255),
            (170, 85),
            (37, 201),
            (16, 16),
        ] {
            let composed = wide.multiply_at(a, d, at).unwrap();
            let mut reference: u32 = 0;
            for i in 0..2u16 {
                for j in 0..2u16 {
                    let a_slice = (a >> (4 * i)) & 0xF;
                    let d_slice = (d >> (4 * j)) & 0xF;
                    let code = narrow.multiply_at(a_slice, d_slice, at).unwrap().result;
                    reference += (code as u32) << (4 * (i + j));
                }
            }
            assert_eq!(
                composed.result as u32,
                reference.min(u16::MAX as u32),
                "a = {a}, d = {d}"
            );
            assert_eq!(composed.expected, a * d);
        }
    }

    #[test]
    fn batched_table_is_bit_identical_to_scalar_table() {
        let multiplier = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        let at = multiplier.nominal_operating_point();
        let batched = MultiplierTable::from_multiplier(&multiplier, at).unwrap();
        let scalar = MultiplierTable::from_multiplier_scalar(&multiplier, at).unwrap();
        assert_eq!(batched, scalar);
    }

    #[test]
    fn analog_grid_exposes_per_column_quantities() {
        let multiplier = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        let grid = multiplier
            .analog_grid(multiplier.nominal_operating_point())
            .unwrap();
        // d = 1 uses only column 0, so the combined discharge is delta/4.
        let single = grid.combined_discharge(9, 1);
        assert!(single > 0.0);
        assert_eq!(grid.combined_discharge(9, 0), 0.0);
        // Word lines grow with the DAC code for a linear transfer.
        assert!(grid.word_line(15).0 > grid.word_line(0).0);
    }

    #[test]
    fn exact_table_has_zero_error() {
        let table = MultiplierTable::exact();
        assert_eq!(table.operand_bits(), 4);
        assert_eq!(table.lookup(7, 8), 56);
        assert_eq!(table.mean_absolute_error(), 0.0);
        assert_eq!(table.average_multiply_energy().0, 0.0);
        let wide = MultiplierTable::exact_for_bits(8);
        assert_eq!(wide.lookup(255, 255), 65025);
        assert_eq!(wide.mean_absolute_error(), 0.0);
    }

    #[test]
    #[should_panic(expected = "4-bit")]
    fn table_lookup_panics_on_out_of_range_operand() {
        let table = MultiplierTable::exact();
        let _ = table.lookup(16, 0);
    }

    #[test]
    fn supply_shift_changes_the_result() {
        let multiplier = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        let nominal = multiplier.multiply(10, 10).unwrap();
        let low_supply = multiplier
            .multiply_at(
                10,
                10,
                OperatingPoint {
                    vdd: Volts(0.9),
                    temperature: Celsius(25.0),
                },
            )
            .unwrap();
        // With the identity supply model the only effect is the DAC reference,
        // which lowers the word-line voltage and therefore the result.
        assert!(low_supply.result <= nominal.result);
    }

    #[test]
    fn pristine_fault_state_is_bit_identical_to_no_fault_state() {
        use crate::reliability::FaultState;
        use optima_circuit::defects::DefectMap;
        let multiplier = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        let at = multiplier.nominal_operating_point();
        let baseline = MultiplierTable::from_multiplier(&multiplier, at).unwrap();
        let array = *multiplier.array();
        let state = FaultState::unmitigated(&array, DefectMap::none(&array), 0).unwrap();
        let faulted = multiplier.with_faults(state).unwrap();
        assert!(faulted.faults().unwrap().is_pristine());
        let table = MultiplierTable::from_multiplier(&faulted, at).unwrap();
        assert_eq!(table, baseline);
        let scalar = MultiplierTable::from_multiplier_scalar(&faulted, at).unwrap();
        assert_eq!(scalar, baseline);
    }

    #[test]
    fn faulted_grid_is_bit_identical_to_faulted_scalar() {
        use crate::reliability::FaultState;
        use optima_circuit::defects::{DefectMap, DefectModel, LifetimeTrajectory};
        let array = ArrayConfig::paper().with_spares(2);
        let config = ideal_config().with_array(array);
        let map = DefectMap::sample(&array, &DefectModel::uniform(0.25, 17)).unwrap();
        let state = FaultState::unmitigated(&array, map, 0)
            .unwrap()
            .with_lifetime(&LifetimeTrajectory::nbti_like().at(3));
        let multiplier = InSramMultiplier::new(linear_suite(), config)
            .unwrap()
            .with_faults(state)
            .unwrap();
        let at = multiplier.nominal_operating_point();
        let batched = MultiplierTable::from_multiplier(&multiplier, at).unwrap();
        let scalar = MultiplierTable::from_multiplier_scalar(&multiplier, at).unwrap();
        assert_eq!(batched, scalar);
    }

    #[test]
    fn stuck_at_zero_column_zeroes_its_bit_weight() {
        use crate::reliability::FaultState;
        use optima_circuit::defects::{CellDefect, DefectMap, DefectModel};
        let array = ArrayConfig::paper();
        // Find a map whose row 0 has a stuck-at-0 cell on a healthy bit-line
        // and nothing else wrong in the word.
        let (map, column) = (0..10_000u64)
            .find_map(|seed| {
                let map = DefectMap::sample(
                    &array,
                    &DefectModel {
                        stuck_at_zero_rate: 0.15,
                        ..DefectModel::pristine(seed)
                    },
                )
                .unwrap();
                let stuck: Vec<u16> = (0..4)
                    .filter(|&c| map.cell_unchecked(0, c) == CellDefect::StuckAtZero)
                    .collect();
                (stuck.len() == 1).then(|| (map.clone(), stuck[0]))
            })
            .expect("no single stuck-at-0 map found");
        let state = FaultState::unmitigated(&array, map, 0).unwrap();
        let multiplier = InSramMultiplier::new(linear_suite(), ideal_config())
            .unwrap()
            .with_faults(state)
            .unwrap();
        // Storing exactly the stuck bit yields zero; the other bits survive.
        let d = 1u16 << column;
        assert_eq!(multiplier.multiply(15, d).unwrap().result, 0);
        let healthy_bit = (0..4).find(|&b| b != column).unwrap();
        assert!(multiplier.multiply(15, 1 << healthy_bit).unwrap().result > 0);
    }

    #[test]
    fn shorted_bitline_inflates_results_and_energy() {
        use crate::reliability::FaultState;
        use optima_circuit::defects::{BitLineFault, DefectMap, DefectModel};
        let array = ArrayConfig::paper();
        let map = (0..10_000u64)
            .find_map(|seed| {
                let map = DefectMap::sample(
                    &array,
                    &DefectModel {
                        short_bitline_rate: 0.12,
                        ..DefectModel::pristine(seed)
                    },
                )
                .unwrap();
                (0..4)
                    .any(|c| map.bitline_unchecked(c) == BitLineFault::Shorted)
                    .then_some(map)
            })
            .expect("no shorted-bit-line map found");
        let column = (0..4)
            .find(|&c| map.bitline_unchecked(c) == BitLineFault::Shorted)
            .unwrap();
        let state = FaultState::unmitigated(&array, map, 0).unwrap();
        let pristine = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        let faulted = pristine.clone().with_faults(state).unwrap();
        // A stored 0 on the shorted column still discharges the full rail:
        // the result and the energy both exceed the pristine multiplier's.
        let d_without = 0u16; // nothing stored at all
        let good = pristine.multiply(15, d_without).unwrap();
        let bad = faulted.multiply(15, d_without).unwrap();
        assert!(bad.result > good.result, "short must inflate the product");
        assert!(bad.multiply_energy.0 > good.multiply_energy.0);
        let _ = column;
    }

    #[test]
    fn vth_aging_weakens_the_discharge() {
        use crate::reliability::FaultState;
        use optima_circuit::defects::{DefectMap, LifetimeTrajectory};
        let array = ArrayConfig::paper();
        let pristine = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        let aged_state = FaultState::unmitigated(&array, DefectMap::none(&array), 0)
            .unwrap()
            .with_lifetime(&LifetimeTrajectory::nbti_like().at(10));
        let aged = pristine.clone().with_faults(aged_state).unwrap();
        let fresh = pristine.multiply(15, 15).unwrap();
        let old = aged.multiply(15, 15).unwrap();
        assert!(
            old.combined_discharge.0 < fresh.combined_discharge.0,
            "V_th aging must weaken the discharge: {} vs {}",
            old.combined_discharge.0,
            fresh.combined_discharge.0
        );
        assert!(old.result <= fresh.result);
    }

    #[test]
    fn redundancy_remap_repairs_a_defective_column() {
        use crate::reliability::FaultState;
        use optima_circuit::defects::{DefectMap, DefectModel};
        let array = ArrayConfig::paper().with_spares(2);
        let config = ideal_config().with_array(array);
        // A map with at least one hard fault in row 0's word but clean spares.
        let map = (0..10_000u64)
            .find_map(|seed| {
                let map = DefectMap::sample(
                    &array,
                    &DefectModel {
                        stuck_at_zero_rate: 0.2,
                        ..DefectModel::pristine(seed)
                    },
                )
                .unwrap();
                let word_faults = (0..4).filter(|&c| map.is_hard_faulted(0, c)).count();
                let spare_faults = (4..6).filter(|&c| map.is_hard_faulted(0, c)).count();
                ((1..=2).contains(&word_faults) && spare_faults == 0).then_some(map)
            })
            .expect("no repairable map found");
        let at;
        let unmitigated = {
            let state = FaultState::unmitigated(&array, map.clone(), 0).unwrap();
            let m = InSramMultiplier::new(linear_suite(), config)
                .unwrap()
                .with_faults(state)
                .unwrap();
            at = m.nominal_operating_point();
            MultiplierTable::from_multiplier(&m, at).unwrap()
        };
        let repaired = {
            let state = FaultState::with_redundancy(&array, map, 0).unwrap();
            assert!(state.remap().remapped() >= 1);
            let m = InSramMultiplier::new(linear_suite(), config)
                .unwrap()
                .with_faults(state)
                .unwrap();
            MultiplierTable::from_multiplier(&m, at).unwrap()
        };
        assert!(
            repaired.mean_absolute_error() < unmitigated.mean_absolute_error(),
            "redundancy must reduce the table error: {} vs {}",
            repaired.mean_absolute_error(),
            unmitigated.mean_absolute_error()
        );
        // Clean spares restore the pristine table exactly.
        let pristine = InSramMultiplier::new(linear_suite(), config).unwrap();
        let baseline = MultiplierTable::from_multiplier(&pristine, at).unwrap();
        assert_eq!(
            repaired.mean_absolute_error(),
            baseline.mean_absolute_error()
        );
    }

    #[test]
    fn fault_state_geometry_must_match_the_multiplier() {
        use crate::reliability::FaultState;
        use optima_circuit::defects::DefectMap;
        let spare_array = ArrayConfig::paper().with_spares(2);
        let state =
            FaultState::unmitigated(&spare_array, DefectMap::none(&spare_array), 0).unwrap();
        let multiplier = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        let err = multiplier.with_faults(state).unwrap_err();
        assert!(matches!(err, ImcError::InvalidConfiguration { .. }));
        assert!(err.to_string().contains("+2sp"), "{err}");
    }

    #[test]
    fn column_mux_amortises_the_converter_overhead() {
        let base = InSramMultiplier::new(linear_suite(), ideal_config()).unwrap();
        let muxed_config = ideal_config().with_array(ArrayConfig {
            columns: 8,
            column_mux: 2,
            ..ArrayConfig::default()
        });
        let muxed = InSramMultiplier::new(linear_suite(), muxed_config).unwrap();
        let e_base = base.multiply(9, 9).unwrap().multiply_energy.0;
        let e_muxed = muxed.multiply(9, 9).unwrap().multiply_energy.0;
        // Same discharges, half the fixed converter overhead.
        assert!((e_base - e_muxed - 1.0).abs() < 1e-12);
        assert_eq!(
            base.multiply(9, 9).unwrap().result,
            muxed.multiply(9, 9).unwrap().result
        );
    }
}
