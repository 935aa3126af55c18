//! Per-cell defect maps and lifetime (aging) trajectories.
//!
//! The simulator models PVT corners and transistor mismatch, but a pristine
//! array forever — real in-SRAM compute macros ship with stuck-at cells,
//! shorted or open bit-lines and per-cell retention drift, and accumulate
//! V_th aging and self-heating over their deployed lifetime.  This module
//! provides the circuit-level description of both:
//!
//! * [`DefectModel`] — manufacturing defect rates plus a sampling seed,
//! * [`DefectMap`] — one sampled defect instance, keyed to an
//!   [`ArrayConfig`] geometry (data columns **and** spare columns), sampled
//!   deterministically per cell via the SplitMix64 `stream_seed` discipline
//!   so the map is bit-identical regardless of iteration or thread order,
//! * [`LifetimeTrajectory`] / [`LifetimePoint`] — deployment-time evolution
//!   of temperature drift, word-line-referred V_th aging and retention-drift
//!   growth, composable with [`PvtConditions`].
//!
//! The mitigation side (replica-column redundancy, remapping, noise-aware
//! fine-tuning) lives upstack in `optima_imc::reliability`; this module only
//! describes the silicon.

use crate::array::ArrayConfig;
use crate::error::CircuitError;
use crate::pvt::PvtConditions;
use optima_math::seed::{split_next, standard_normal, stream_seed, unit_interval};
use optima_math::units::{Celsius, Volts};

/// Domain-separation salt of the per-cell sampling streams.
const CELL_SALT: u64 = 0x6F70_7469_6D61_0001;

/// Domain-separation salt of the per-bit-line sampling streams.
const BITLINE_SALT: u64 = 0x6F70_7469_6D61_0002;

/// Retention drift is clamped above this relative floor so a drifted cell
/// can weaken but never invert the sign of its discharge.
const DRIFT_FLOOR: f64 = -0.95;

/// Behaviour of one SRAM bit-cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellDefect {
    /// The cell stores and reads back its written value.
    Healthy,
    /// The cell reads as 0 regardless of the written value (e.g. a broken
    /// pull-up): its bit-line never discharges through the cell.
    StuckAtZero,
    /// The cell reads as 1 regardless of the written value: its bit-line
    /// always discharges as if the stored bit were set.
    StuckAtOne,
}

/// Fault of one whole bit-line column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BitLineFault {
    /// The column conducts normally.
    Healthy,
    /// The bit-line is open (broken wire): no discharge current flows, the
    /// column contributes nothing regardless of the stored bit.
    Open,
    /// The bit-line is shorted to ground: the column discharges to the full
    /// rail on every access, regardless of the stored bit.
    Shorted,
}

/// Manufacturing defect rates and the sampling seed of one defect
/// population.
///
/// All rates are probabilities in `[0, 1]`; `retention_sigma` is the
/// standard deviation of the per-cell relative retention drift (`0.05` means
/// a cell's discharge typically deviates by ±5 %).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefectModel {
    /// Probability of a cell being stuck at 0.
    pub stuck_at_zero_rate: f64,
    /// Probability of a cell being stuck at 1.
    pub stuck_at_one_rate: f64,
    /// Probability of a bit-line being open.
    pub open_bitline_rate: f64,
    /// Probability of a bit-line being shorted to ground.
    pub short_bitline_rate: f64,
    /// Standard deviation of the per-cell relative retention drift.
    pub retention_sigma: f64,
    /// Base seed of the deterministic sampling streams.
    pub seed: u64,
}

impl DefectModel {
    /// A defect-free population (all rates zero).
    pub fn pristine(seed: u64) -> Self {
        DefectModel {
            stuck_at_zero_rate: 0.0,
            stuck_at_one_rate: 0.0,
            open_bitline_rate: 0.0,
            short_bitline_rate: 0.0,
            retention_sigma: 0.0,
            seed,
        }
    }

    /// A single-knob population: `rate` is split evenly between the two
    /// stuck-at kinds, bit-line faults occur at an eighth of `rate` each
    /// (column faults are much rarer than cell faults in practice), and the
    /// retention drift σ scales with `rate`.
    pub fn uniform(rate: f64, seed: u64) -> Self {
        DefectModel {
            stuck_at_zero_rate: rate / 2.0,
            stuck_at_one_rate: rate / 2.0,
            open_bitline_rate: rate / 8.0,
            short_bitline_rate: rate / 8.0,
            retention_sigma: rate / 4.0,
            seed,
        }
    }

    /// Checks that every rate is a probability and the σ is finite.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidOperatingPoint`] naming the offending field.
    pub fn validate(&self) -> Result<(), CircuitError> {
        let rates = [
            ("stuck_at_zero_rate", self.stuck_at_zero_rate),
            ("stuck_at_one_rate", self.stuck_at_one_rate),
            ("open_bitline_rate", self.open_bitline_rate),
            ("short_bitline_rate", self.short_bitline_rate),
        ];
        for (name, rate) in rates {
            if !(0.0..=1.0).contains(&rate) {
                return Err(CircuitError::InvalidOperatingPoint {
                    context: format!("defect {name} must be in [0, 1], got {rate}"),
                });
            }
        }
        if self.stuck_at_zero_rate + self.stuck_at_one_rate > 1.0 {
            return Err(CircuitError::InvalidOperatingPoint {
                context: format!(
                    "stuck-at rates sum to {} > 1",
                    self.stuck_at_zero_rate + self.stuck_at_one_rate
                ),
            });
        }
        if self.open_bitline_rate + self.short_bitline_rate > 1.0 {
            return Err(CircuitError::InvalidOperatingPoint {
                context: format!(
                    "bit-line fault rates sum to {} > 1",
                    self.open_bitline_rate + self.short_bitline_rate
                ),
            });
        }
        if !self.retention_sigma.is_finite() || self.retention_sigma < 0.0 {
            return Err(CircuitError::InvalidOperatingPoint {
                context: format!(
                    "retention_sigma must be finite and non-negative, got {}",
                    self.retention_sigma
                ),
            });
        }
        Ok(())
    }
}

/// Aggregate defect counts of one sampled [`DefectMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DefectCounts {
    /// Cells stuck at 0.
    pub stuck_at_zero: usize,
    /// Cells stuck at 1.
    pub stuck_at_one: usize,
    /// Open bit-lines.
    pub open_bitlines: usize,
    /// Shorted bit-lines.
    pub shorted_bitlines: usize,
}

impl DefectCounts {
    /// Total number of defective cells and bit-lines.
    pub fn total(&self) -> usize {
        self.stuck_at_zero + self.stuck_at_one + self.open_bitlines + self.shorted_bitlines
    }
}

/// One sampled defect instance of a physical array.
///
/// The map covers the **physical** geometry — `rows ×
/// (columns + spare_columns)` cells and one fault state per physical
/// bit-line — so the spare columns of a redundancy scheme carry their own
/// (possibly defective) cells.  Sampling is deterministic: every cell and
/// bit-line draws from its own `stream_seed`-derived stream keyed by its
/// physical index, so the identical `(ArrayConfig, DefectModel)` pair always
/// produces the identical map, in any iteration order and at any thread
/// count.
#[derive(Debug, Clone, PartialEq)]
pub struct DefectMap {
    array: ArrayConfig,
    /// Per-cell defect kind, row-major over the physical columns.
    cells: Vec<CellDefect>,
    /// Per-cell relative retention drift (0 = pristine), row-major.
    drift: Vec<f64>,
    /// Per-physical-bit-line fault state.
    bitlines: Vec<BitLineFault>,
}

impl DefectMap {
    /// A defect-free map for the given geometry.
    pub fn none(array: &ArrayConfig) -> Self {
        let cells = array.rows as usize * array.physical_columns() as usize;
        DefectMap {
            array: *array,
            cells: vec![CellDefect::Healthy; cells],
            drift: vec![0.0; cells],
            bitlines: vec![BitLineFault::Healthy; array.physical_columns() as usize],
        }
    }

    /// Samples one defect instance of `array` from `model`.
    ///
    /// # Errors
    ///
    /// Propagates [`ArrayConfig::validate`] and [`DefectModel::validate`]
    /// failures.
    pub fn sample(array: &ArrayConfig, model: &DefectModel) -> Result<Self, CircuitError> {
        array.validate()?;
        model.validate()?;
        let columns = array.physical_columns() as usize;
        let len = array.rows as usize * columns;
        let mut cells = vec![CellDefect::Healthy; len];
        let mut drift = vec![0.0f64; len];
        let saz = model.stuck_at_zero_rate;
        let sao = model.stuck_at_one_rate;
        let sigma = model.retention_sigma;
        // Every cell owns an independent SplitMix64 stream keyed by its
        // physical index, so the sampled map does not depend on the loop
        // order below.
        // optima-lint: hot
        for (index, (cell, delta)) in cells.iter_mut().zip(drift.iter_mut()).enumerate() {
            let mut state = stream_seed(model.seed ^ CELL_SALT, index as u64);
            let kind = unit_interval(split_next(&mut state));
            *cell = if kind < saz {
                CellDefect::StuckAtZero
            } else if kind < saz + sao {
                CellDefect::StuckAtOne
            } else {
                CellDefect::Healthy
            };
            let u1 = unit_interval(split_next(&mut state));
            let u2 = unit_interval(split_next(&mut state));
            *delta = (sigma * standard_normal(u1, u2)).max(DRIFT_FLOOR);
        }
        // optima-lint: end-hot
        let mut bitlines = vec![BitLineFault::Healthy; columns];
        for (column, fault) in bitlines.iter_mut().enumerate() {
            let mut state = stream_seed(model.seed ^ BITLINE_SALT, column as u64);
            let kind = unit_interval(split_next(&mut state));
            *fault = if kind < model.open_bitline_rate {
                BitLineFault::Open
            } else if kind < model.open_bitline_rate + model.short_bitline_rate {
                BitLineFault::Shorted
            } else {
                BitLineFault::Healthy
            };
        }
        Ok(DefectMap {
            array: *array,
            cells,
            drift,
            bitlines,
        })
    }

    /// The geometry this map was sampled for.
    pub fn array(&self) -> &ArrayConfig {
        &self.array
    }

    /// `true` when every cell and bit-line is healthy and no cell drifts.
    pub fn is_pristine(&self) -> bool {
        self.cells.iter().all(|&c| c == CellDefect::Healthy)
            && self.bitlines.iter().all(|&b| b == BitLineFault::Healthy)
            && self.drift.iter().all(|&d| d == 0.0)
    }

    /// Defect kind of the cell at `(row, column)` (physical column index).
    ///
    /// # Errors
    ///
    /// [`CircuitError::CellOutOfRange`] naming the offending coordinate.
    pub fn cell(&self, row: u16, column: u16) -> Result<CellDefect, CircuitError> {
        self.check(row, column)?;
        Ok(self.cell_unchecked(row, column))
    }

    /// Relative retention drift of the cell at `(row, column)`.
    ///
    /// # Errors
    ///
    /// [`CircuitError::CellOutOfRange`] naming the offending coordinate.
    pub fn drift(&self, row: u16, column: u16) -> Result<f64, CircuitError> {
        self.check(row, column)?;
        Ok(self.drift_unchecked(row, column))
    }

    /// Fault state of physical bit-line `column`.
    ///
    /// # Errors
    ///
    /// [`CircuitError::CellOutOfRange`] naming the offending coordinate.
    pub fn bitline(&self, column: u16) -> Result<BitLineFault, CircuitError> {
        self.check(0, column)?;
        Ok(self.bitline_unchecked(column))
    }

    /// Unchecked cell accessor for validated hot paths.
    ///
    /// Callers must have validated `(row, column)` against the map geometry
    /// (e.g. once at fault-state construction).
    #[inline]
    pub fn cell_unchecked(&self, row: u16, column: u16) -> CellDefect {
        self.cells[row as usize * self.array.physical_columns() as usize + column as usize]
    }

    /// Unchecked drift accessor for validated hot paths.
    #[inline]
    pub fn drift_unchecked(&self, row: u16, column: u16) -> f64 {
        self.drift[row as usize * self.array.physical_columns() as usize + column as usize]
    }

    /// Unchecked bit-line accessor for validated hot paths.
    #[inline]
    pub fn bitline_unchecked(&self, column: u16) -> BitLineFault {
        self.bitlines[column as usize]
    }

    /// `true` when the cell at `(row, column)` or its bit-line is digitally
    /// defective (stuck cell, open or shorted bit-line).  Retention drift is
    /// analog and does not count — redundancy planning targets hard faults.
    #[inline]
    pub fn is_hard_faulted(&self, row: u16, column: u16) -> bool {
        self.cell_unchecked(row, column) != CellDefect::Healthy
            || self.bitline_unchecked(column) != BitLineFault::Healthy
    }

    /// Aggregate defect counts over the physical array.
    pub fn counts(&self) -> DefectCounts {
        let mut counts = DefectCounts::default();
        for &cell in &self.cells {
            match cell {
                CellDefect::StuckAtZero => counts.stuck_at_zero += 1,
                CellDefect::StuckAtOne => counts.stuck_at_one += 1,
                CellDefect::Healthy => {}
            }
        }
        for &fault in &self.bitlines {
            match fault {
                BitLineFault::Open => counts.open_bitlines += 1,
                BitLineFault::Shorted => counts.shorted_bitlines += 1,
                BitLineFault::Healthy => {}
            }
        }
        counts
    }

    fn check(&self, row: u16, column: u16) -> Result<(), CircuitError> {
        if row >= self.array.rows || column >= self.array.physical_columns() {
            return Err(CircuitError::CellOutOfRange {
                row,
                column,
                rows: self.array.rows,
                columns: self.array.physical_columns(),
            });
        }
        Ok(())
    }
}

/// Deployment-time evolution of the operating environment and the silicon.
///
/// One trajectory describes how conditions degrade per deployment step
/// (a step is whatever unit the deployment timeline uses — months in the
/// field, accelerated-stress intervals in qualification): the junction
/// temperature creeps up (self-heating, environment), negative-bias
/// temperature instability shifts the access transistors' V_th (modelled as
/// a word-line-referred voltage loss), and the per-cell retention drift
/// amplitude grows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimeTrajectory {
    /// Junction-temperature increase per deployment step.
    pub temperature_drift_per_step: Celsius,
    /// Word-line-referred V_th shift per deployment step (NBTI-like aging).
    pub vth_shift_per_step: Volts,
    /// Relative growth of the retention-drift amplitude per step
    /// (`0.25` = each step amplifies the sampled per-cell drift by 25 % of
    /// its time-zero value).
    pub retention_growth_per_step: f64,
}

impl LifetimeTrajectory {
    /// A frozen-in-time trajectory: nothing ages.
    pub fn none() -> Self {
        LifetimeTrajectory {
            temperature_drift_per_step: Celsius(0.0),
            vth_shift_per_step: Volts(0.0),
            retention_growth_per_step: 0.0,
        }
    }

    /// An NBTI-like default: +2.5 °C, +4 mV V_th and +25 % drift amplitude
    /// per step — aggressive enough that a handful of steps visibly move the
    /// analog results.
    pub fn nbti_like() -> Self {
        LifetimeTrajectory {
            temperature_drift_per_step: Celsius(2.5),
            vth_shift_per_step: Volts(0.004),
            retention_growth_per_step: 0.25,
        }
    }

    /// Checks that every per-step increment is finite and non-regressive.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidOperatingPoint`] naming the offending field.
    pub fn validate(&self) -> Result<(), CircuitError> {
        let fields = [
            (
                "temperature_drift_per_step",
                self.temperature_drift_per_step.0,
            ),
            ("vth_shift_per_step", self.vth_shift_per_step.0),
            ("retention_growth_per_step", self.retention_growth_per_step),
        ];
        for (name, value) in fields {
            if !value.is_finite() || value < 0.0 {
                return Err(CircuitError::InvalidOperatingPoint {
                    context: format!(
                        "lifetime {name} must be finite and non-negative, got {value}"
                    ),
                });
            }
        }
        Ok(())
    }

    /// The accumulated state after `step` deployment steps (`step = 0` is
    /// fresh silicon).
    pub fn at(&self, step: usize) -> LifetimePoint {
        let steps = step as f64;
        LifetimePoint {
            step,
            temperature_delta: Celsius(self.temperature_drift_per_step.0 * steps),
            vth_shift: Volts(self.vth_shift_per_step.0 * steps),
            retention_scale: 1.0 + self.retention_growth_per_step * steps,
        }
    }
}

/// The accumulated aging state at one point of a [`LifetimeTrajectory`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifetimePoint {
    /// Deployment step this point describes (0 = fresh).
    pub step: usize,
    /// Accumulated junction-temperature increase.
    pub temperature_delta: Celsius,
    /// Accumulated word-line-referred V_th shift.
    pub vth_shift: Volts,
    /// Multiplier on the sampled per-cell retention drift (1.0 = fresh).
    pub retention_scale: f64,
}

impl LifetimePoint {
    /// Fresh silicon: no drift, no aging.
    pub fn fresh() -> Self {
        LifetimePoint {
            step: 0,
            temperature_delta: Celsius(0.0),
            vth_shift: Volts(0.0),
            retention_scale: 1.0,
        }
    }

    /// Composes this aging state with a PVT operating point: the junction
    /// temperature rises by the accumulated drift.  (The V_th shift acts
    /// inside the array, on the word-line overdrive, not on the ambient
    /// conditions — the multiplier applies it there.)
    pub fn apply_to(&self, pvt: PvtConditions) -> PvtConditions {
        let temperature = Celsius(pvt.temperature.0 + self.temperature_delta.0);
        pvt.with_temperature(temperature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spare_array() -> ArrayConfig {
        ArrayConfig {
            spare_columns: 2,
            ..ArrayConfig::paper()
        }
    }

    #[test]
    fn pristine_map_has_no_defects() {
        let map = DefectMap::none(&spare_array());
        assert!(map.is_pristine());
        assert_eq!(map.counts().total(), 0);
        // The map covers the spares too.
        assert_eq!(map.bitline(5).unwrap(), BitLineFault::Healthy);
        assert!(map.bitline(6).is_err());
    }

    #[test]
    fn sampling_is_deterministic_and_geometry_keyed() {
        let array = spare_array();
        let model = DefectModel::uniform(0.2, 99);
        let a = DefectMap::sample(&array, &model).unwrap();
        let b = DefectMap::sample(&array, &model).unwrap();
        assert_eq!(a, b);
        let other_seed = DefectModel::uniform(0.2, 100);
        let c = DefectMap::sample(&array, &other_seed).unwrap();
        assert_ne!(a, c);
        assert_eq!(a.array(), &array);
    }

    #[test]
    fn rates_shape_the_sampled_population() {
        let array = ArrayConfig {
            rows: 64,
            columns: 64,
            ..ArrayConfig::paper()
        };
        let heavy = DefectMap::sample(&array, &DefectModel::uniform(0.5, 7)).unwrap();
        let counts = heavy.counts();
        let cells = 64 * 64;
        // ~25 % of cells per stuck-at kind at rate 0.5; allow wide slack.
        assert!(counts.stuck_at_zero > cells / 8, "{counts:?}");
        assert!(counts.stuck_at_one > cells / 8, "{counts:?}");
        let none = DefectMap::sample(&array, &DefectModel::pristine(7)).unwrap();
        assert!(none.is_pristine());
    }

    #[test]
    fn zero_rate_sampling_matches_none_exactly() {
        let array = spare_array();
        let sampled = DefectMap::sample(&array, &DefectModel::pristine(3)).unwrap();
        assert_eq!(sampled, DefectMap::none(&array));
    }

    #[test]
    fn invalid_models_are_rejected() {
        let mut model = DefectModel::pristine(0);
        model.stuck_at_zero_rate = 1.5;
        assert!(model.validate().is_err());
        let mut model = DefectModel::pristine(0);
        model.stuck_at_zero_rate = 0.7;
        model.stuck_at_one_rate = 0.7;
        assert!(model.validate().is_err());
        let mut model = DefectModel::pristine(0);
        model.retention_sigma = f64::NAN;
        assert!(model.validate().is_err());
        assert!(DefectModel::uniform(0.3, 1).validate().is_ok());
    }

    #[test]
    fn out_of_range_access_names_the_coordinate() {
        let map = DefectMap::none(&ArrayConfig::paper());
        let err = map.cell(16, 0).unwrap_err();
        let message = err.to_string();
        assert!(message.contains("row 16"), "{message}");
        assert!(message.contains("column 0"), "{message}");
        assert!(map.drift(0, 4).is_err());
        assert!(map.cell(15, 3).is_ok());
    }

    #[test]
    fn drift_respects_the_floor() {
        let array = ArrayConfig {
            rows: 32,
            columns: 32,
            ..ArrayConfig::paper()
        };
        let mut model = DefectModel::pristine(11);
        model.retention_sigma = 5.0; // extreme σ to hit the clamp
        let map = DefectMap::sample(&array, &model).unwrap();
        for row in 0..32 {
            for column in 0..32 {
                assert!(map.drift(row, column).unwrap() >= DRIFT_FLOOR);
            }
        }
    }

    #[test]
    fn lifetime_trajectory_accumulates_linearly() {
        let trajectory = LifetimeTrajectory::nbti_like();
        trajectory.validate().unwrap();
        let fresh = trajectory.at(0);
        assert_eq!(fresh.temperature_delta, Celsius(0.0));
        assert_eq!(fresh.vth_shift, Volts(0.0));
        assert_eq!(fresh.retention_scale, 1.0);
        let aged = trajectory.at(4);
        assert!((aged.temperature_delta.0 - 10.0).abs() < 1e-12);
        assert!((aged.vth_shift.0 - 0.016).abs() < 1e-12);
        assert!((aged.retention_scale - 2.0).abs() < 1e-12);
        assert_eq!(LifetimeTrajectory::none().at(9), {
            let mut p = LifetimePoint::fresh();
            p.step = 9;
            p
        });
    }

    #[test]
    fn lifetime_point_composes_with_pvt() {
        use crate::technology::Technology;
        let tech = Technology::tsmc65_like();
        let pvt = PvtConditions::nominal(&tech);
        let aged = LifetimeTrajectory::nbti_like().at(2).apply_to(pvt);
        assert!((aged.temperature.0 - pvt.temperature.0 - 5.0).abs() < 1e-12);
        assert_eq!(aged.vdd, pvt.vdd);
        assert_eq!(aged.corner, pvt.corner);
    }

    #[test]
    fn invalid_trajectories_are_rejected() {
        let mut t = LifetimeTrajectory::none();
        t.vth_shift_per_step = Volts(-0.01);
        assert!(t.validate().is_err());
        t = LifetimeTrajectory::none();
        t.retention_growth_per_step = f64::INFINITY;
        assert!(t.validate().is_err());
    }
}
