//! The 6T SRAM cell and SRAM cell arrays (Fig. 2 of the paper).
//!
//! For discharge-based computing the relevant analog behaviour of a cell is
//! the current it sinks from the bit-line-bar when (a) it stores a logic '1'
//! and (b) its word-line is driven to some analog voltage `V_WL`.  The
//! current path is the series connection of the access transistor (gate at
//! `V_WL`) and the pull-down transistor (gate at the full internal node
//! voltage), with the access transistor dominating because its gate voltage
//! is the smaller of the two.

use crate::error::CircuitError;
use crate::montecarlo::MismatchSample;
use crate::mosfet::{BiasedMosfet, Mosfet, MosfetKind};
use crate::pvt::PvtConditions;
use crate::technology::Technology;
use optima_math::units::{Amperes, Volts};

/// A single 6T SRAM cell.
///
/// # Example
///
/// ```rust
/// use optima_circuit::prelude::*;
///
/// let tech = Technology::tsmc65_like();
/// let pvt = PvtConditions::nominal(&tech);
/// let cell = SramCell::new(true, &tech, &pvt, &MismatchSample::none());
/// // A cell storing '1' sinks current when the word line is high...
/// assert!(cell.discharge_current(Volts(1.0), Volts(1.0)).0 > 0.0);
/// // ...while a cell storing '0' does not discharge BLB at all.
/// let zero_cell = SramCell::new(false, &tech, &pvt, &MismatchSample::none());
/// assert_eq!(zero_cell.discharge_current(Volts(1.0), Volts(1.0)).0, 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SramCell {
    stored_bit: bool,
    access: Mosfet,
    pulldown: Mosfet,
    /// Voltage of the internal '1' storage node (tracks the supply voltage).
    internal_high: Volts,
    /// Degradation of the series path relative to the access device alone.
    ///
    /// The pull-down device has its gate at the full internal '1' level, so it
    /// is stronger than the access device; the series stack still conducts a
    /// little less than the access device alone would.
    series_factor: f64,
}

impl SramCell {
    /// Creates a cell holding `stored_bit` under the given operating conditions.
    pub fn new(
        stored_bit: bool,
        tech: &Technology,
        pvt: &PvtConditions,
        mismatch: &MismatchSample,
    ) -> Self {
        SramCell {
            stored_bit,
            access: Mosfet::new(MosfetKind::Nmos, tech, pvt, mismatch),
            pulldown: Mosfet::new(MosfetKind::Nmos, tech, pvt, &MismatchSample::none()),
            internal_high: pvt.vdd,
            series_factor: 0.92,
        }
    }

    /// The stored data bit.
    pub fn stored_bit(&self) -> bool {
        self.stored_bit
    }

    /// Overwrites the stored data bit (models a completed write operation).
    pub fn write(&mut self, bit: bool) {
        self.stored_bit = bit;
    }

    /// The access transistor of the BLB branch.
    pub fn access_transistor(&self) -> &Mosfet {
        &self.access
    }

    /// Current the cell sinks from BLB when the word-line is at `v_wl` and
    /// the bit-line-bar is at `v_blb`.
    ///
    /// A cell storing '0' has its BLB-side internal node at '1', so the
    /// pull-down of that branch is off and no discharge occurs — the
    /// multiplication property `δV ∝ V_WL · d` of Eq. 1.
    pub fn discharge_current(&self, v_wl: Volts, v_blb: Volts) -> Amperes {
        self.at_word_line(v_wl).discharge_current(v_blb)
    }

    /// The cell with its word line held at `v_wl`: both transistors' gate
    /// biases are fixed, so their gate-only terms are computed once (see
    /// [`Mosfet::at_gate`]).
    pub fn at_word_line(&self, v_wl: Volts) -> BiasedCell {
        BiasedCell {
            stored_bit: self.stored_bit,
            // Access device: gate at V_WL, source at the (low) internal node,
            // drain at the bit-line-bar.
            access: self.access.at_gate(v_wl),
            // Pull-down device: gate at the internal '1' level (which tracks
            // the supply); it limits the current only marginally, captured by
            // the series factor.
            pulldown: self.pulldown.at_gate(self.internal_high),
            series_factor: self.series_factor,
        }
    }
}

/// An [`SramCell`] at a fixed word-line voltage (see
/// [`SramCell::at_word_line`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BiasedCell {
    stored_bit: bool,
    access: BiasedMosfet,
    pulldown: BiasedMosfet,
    series_factor: f64,
}

impl BiasedCell {
    /// Current the cell sinks from BLB with the bit-line-bar at `v_blb` (see
    /// [`SramCell::discharge_current`]).
    pub fn discharge_current(&self, v_blb: Volts) -> Amperes {
        if !self.stored_bit {
            return Amperes(0.0);
        }
        let access_current = self.access.drain_current(v_blb);
        let pulldown_limit = self.pulldown.drain_current(v_blb);
        Amperes(access_current.0.min(pulldown_limit.0) * self.series_factor)
    }
}

/// A word-oriented SRAM array: `words` rows of `bits_per_word` cells
/// (Fig. 2 shows 4-bit words, the configuration used by the multiplier).
#[derive(Debug, Clone, PartialEq)]
pub struct SramArray {
    words: usize,
    bits_per_word: usize,
    data: Vec<u64>,
}

impl SramArray {
    /// Creates an array of `words` × `bits_per_word` cells, all storing zero.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidOperatingPoint`] when either dimension
    /// is zero or `bits_per_word > 64`.
    pub fn new(words: usize, bits_per_word: usize) -> Result<Self, CircuitError> {
        if words == 0 || bits_per_word == 0 {
            return Err(CircuitError::InvalidOperatingPoint {
                context: "array dimensions must be non-zero".to_string(),
            });
        }
        if bits_per_word > 64 {
            return Err(CircuitError::InvalidOperatingPoint {
                context: format!("bits_per_word {bits_per_word} exceeds 64"),
            });
        }
        Ok(SramArray {
            words,
            bits_per_word,
            data: vec![0; words],
        })
    }

    /// Number of words (rows).
    pub fn words(&self) -> usize {
        self.words
    }

    /// Number of bits per word (columns).
    pub fn bits_per_word(&self) -> usize {
        self.bits_per_word
    }

    /// Writes `value` into word `address` (a digital write; the analog energy
    /// of writes is accounted for by [`crate::energy`]).
    ///
    /// # Errors
    ///
    /// * [`CircuitError::AddressOutOfRange`] for an invalid address.
    /// * [`CircuitError::InvalidOperatingPoint`] when `value` does not fit the word width.
    pub fn write_word(&mut self, address: usize, value: u64) -> Result<(), CircuitError> {
        if address >= self.words {
            return Err(CircuitError::AddressOutOfRange {
                index: address,
                size: self.words,
            });
        }
        let max = if self.bits_per_word == 64 {
            u64::MAX
        } else {
            (1u64 << self.bits_per_word) - 1
        };
        if value > max {
            return Err(CircuitError::InvalidOperatingPoint {
                context: format!("value {value} does not fit in {} bits", self.bits_per_word),
            });
        }
        self.data[address] = value;
        Ok(())
    }

    /// Reads the word stored at `address`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::AddressOutOfRange`] for an invalid address.
    pub fn read_word(&self, address: usize) -> Result<u64, CircuitError> {
        if address >= self.words {
            return Err(CircuitError::AddressOutOfRange {
                index: address,
                size: self.words,
            });
        }
        Ok(self.data[address])
    }

    /// Reads bit `bit` of word `address`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::AddressOutOfRange`] if either index is invalid.
    pub fn read_bit(&self, address: usize, bit: usize) -> Result<bool, CircuitError> {
        if bit >= self.bits_per_word {
            return Err(CircuitError::AddressOutOfRange {
                index: bit,
                size: self.bits_per_word,
            });
        }
        Ok((self.read_word(address)? >> bit) & 1 == 1)
    }

    /// Number of '1' cells in the whole array (used by energy accounting).
    pub fn total_ones(&self) -> u32 {
        self.data.iter().map(|w| w.count_ones()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Technology, PvtConditions) {
        let tech = Technology::tsmc65_like();
        let pvt = PvtConditions::nominal(&tech);
        (tech, pvt)
    }

    #[test]
    fn zero_cell_never_discharges() {
        let (tech, pvt) = setup();
        let cell = SramCell::new(false, &tech, &pvt, &MismatchSample::none());
        for v_wl in [0.0, 0.4, 0.7, 1.0] {
            assert_eq!(cell.discharge_current(Volts(v_wl), Volts(1.0)).0, 0.0);
        }
    }

    #[test]
    fn one_cell_discharge_grows_with_word_line_voltage() {
        let (tech, pvt) = setup();
        let cell = SramCell::new(true, &tech, &pvt, &MismatchSample::none());
        let i_low = cell.discharge_current(Volts(0.5), Volts(1.0)).0;
        let i_mid = cell.discharge_current(Volts(0.7), Volts(1.0)).0;
        let i_high = cell.discharge_current(Volts(1.0), Volts(1.0)).0;
        assert!(i_low < i_mid && i_mid < i_high);
    }

    #[test]
    fn subthreshold_word_line_still_leaks_slightly() {
        // Section III-1: applying a '0' WL voltage to a cell storing '1'
        // still produces a small discharge.
        let (tech, pvt) = setup();
        let cell = SramCell::new(true, &tech, &pvt, &MismatchSample::none());
        let leak = cell.discharge_current(Volts(0.3), Volts(1.0)).0;
        assert!(leak > 0.0);
        assert!(leak < cell.discharge_current(Volts(1.0), Volts(1.0)).0 * 1e-2);
    }

    #[test]
    fn write_updates_stored_bit() {
        let (tech, pvt) = setup();
        let mut cell = SramCell::new(false, &tech, &pvt, &MismatchSample::none());
        assert!(!cell.stored_bit());
        cell.write(true);
        assert!(cell.stored_bit());
        assert!(cell.discharge_current(Volts(1.0), Volts(1.0)).0 > 0.0);
    }

    #[test]
    fn array_write_read_round_trip() {
        let mut array = SramArray::new(8, 4).unwrap();
        array.write_word(3, 0b1010).unwrap();
        assert_eq!(array.read_word(3).unwrap(), 0b1010);
        assert!(array.read_bit(3, 1).unwrap());
        assert!(!array.read_bit(3, 0).unwrap());
        assert_eq!(array.total_ones(), 2);
    }

    #[test]
    fn array_rejects_invalid_dimensions_and_addresses() {
        assert!(SramArray::new(0, 4).is_err());
        assert!(SramArray::new(4, 0).is_err());
        assert!(SramArray::new(4, 65).is_err());
        let mut array = SramArray::new(4, 4).unwrap();
        assert!(array.write_word(4, 0).is_err());
        assert!(array.write_word(0, 16).is_err());
        assert!(array.read_word(9).is_err());
        assert!(array.read_bit(0, 4).is_err());
    }

    #[test]
    fn array_dimensions_accessors() {
        let array = SramArray::new(16, 4).unwrap();
        assert_eq!(array.words(), 16);
        assert_eq!(array.bits_per_word(), 4);
    }
}
