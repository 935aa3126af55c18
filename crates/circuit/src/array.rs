//! Parametric geometry of a discharge-based compute array.
//!
//! The paper evaluates a single fixed macro: a 16-row SRAM array whose rows
//! hold one 4-bit word across 4 bit-line columns, multiplied against a 4-bit
//! DAC-driven word-line operand.  [`ArrayConfig`] lifts that hard-wired
//! geometry into data, the way an SRAM compiler generates whole macros from a
//! small parameter struct: operand width, physical rows and columns, the
//! analog slice width one pass of the array can handle, and the column-mux
//! ratio that amortises one converter over several columns.
//!
//! Operands wider than one analog slice (e.g. INT8 on a 4-bit array) are
//! composed digitally from `slices × slices` narrow passes with shift-add
//! accumulation; the config records both widths so every layer above —
//! multiplier, DSE, calibration snapshots, DNN product tables — can agree on
//! the same geometry.

use crate::error::CircuitError;

/// Geometry of one compute array: logical operand width, per-pass analog
/// slice width, physical dimensions and column multiplexing.
///
/// The default value reproduces the paper's macro (16×4, INT4, no muxing)
/// exactly; [`ArrayConfig::int8`] is the widest preset the digital
/// composition supports.
///
/// # Example
///
/// ```rust
/// use optima_circuit::prelude::*;
///
/// let paper = ArrayConfig::default();
/// assert_eq!((paper.operand_bits, paper.rows, paper.columns), (4, 16, 4));
/// assert_eq!(paper.slices(), 1); // single-pass analog multiply
///
/// let int8 = ArrayConfig::int8();
/// assert_eq!(int8.operand_max(), 255);
/// assert_eq!(int8.slices(), 2); // 2×2 = 4 analog passes per product
/// int8.validate().unwrap();
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayConfig {
    /// Logical operand width in bits (1..=8; products must fit `u16`).
    pub operand_bits: u8,
    /// Analog slice width one array pass handles (1..=8, the DAC code width).
    ///
    /// Must divide `operand_bits`; when it is smaller, products are composed
    /// from `slices()²` passes with digital shift-add accumulation.
    pub slice_bits: u8,
    /// Cells per bit-line (array rows); sets the bit-line capacitance seen by
    /// every discharge and therefore flows into calibration.
    pub rows: u16,
    /// Physical bit-line columns per row; must hold whole slice words.
    pub columns: u16,
    /// Columns sharing one converter pair (1 = dedicated converters).
    ///
    /// The fixed converter overhead per multiply is amortised over the mux
    /// group.
    pub column_mux: u8,
    /// Replica (spare) bit-line columns available for redundancy remapping
    /// (0 = no redundancy, the paper's macro).
    ///
    /// Spares sit physically after the data columns; a defective data column
    /// can be swapped for a clean spare by the reliability layer
    /// (`optima_imc::reliability`).  With column muxing, spares must come in
    /// whole mux groups so a swapped-in spare still has a converter share.
    pub spare_columns: u16,
}

impl Default for ArrayConfig {
    fn default() -> Self {
        ArrayConfig::paper()
    }
}

impl ArrayConfig {
    /// The paper's macro: 16 rows × 4 columns, 4-bit operands, one pass,
    /// dedicated converters.
    pub fn paper() -> Self {
        ArrayConfig {
            operand_bits: 4,
            slice_bits: 4,
            rows: 16,
            columns: 4,
            column_mux: 1,
            spare_columns: 0,
        }
    }

    /// An INT8 geometry: 8-bit operands composed from 4-bit analog slices on
    /// a 16×8 array (each row holds both slices of one stored word).
    pub fn int8() -> Self {
        ArrayConfig {
            operand_bits: 8,
            slice_bits: 4,
            rows: 16,
            columns: 8,
            column_mux: 1,
            spare_columns: 0,
        }
    }

    /// Returns a copy with `spare_columns` replica columns (builder style).
    pub fn with_spares(mut self, spare_columns: u16) -> Self {
        self.spare_columns = spare_columns;
        self
    }

    /// Checks the geometry for internal consistency.
    ///
    /// # Errors
    ///
    /// [`CircuitError::InvalidConverterConfig`] describing the first violated
    /// constraint: operand/slice widths out of the 1..=8 range, a slice width
    /// that does not divide the operand width, an empty array, columns that
    /// cannot hold whole slice words (or the whole stored word), a mux ratio
    /// that does not divide the slice-word count evenly, more spares than
    /// data columns, or a spare count that does not fill whole mux groups.
    pub fn validate(&self) -> Result<(), CircuitError> {
        let fail = |context: String| Err(CircuitError::InvalidConverterConfig { context });
        if self.operand_bits == 0 || self.operand_bits > 8 {
            return fail(format!(
                "operand width must be 1..=8 bits, got {}",
                self.operand_bits
            ));
        }
        if self.slice_bits == 0 || self.slice_bits > 8 {
            return fail(format!(
                "analog slice width must be 1..=8 bits (DAC limit), got {}",
                self.slice_bits
            ));
        }
        if !self.operand_bits.is_multiple_of(self.slice_bits) {
            return fail(format!(
                "slice width {} must divide the operand width {}",
                self.slice_bits, self.operand_bits
            ));
        }
        if self.rows == 0 {
            return fail("array needs at least one row".to_string());
        }
        if self.columns == 0 || !self.columns.is_multiple_of(self.slice_bits as u16) {
            return fail(format!(
                "columns ({}) must hold whole {}-bit slice words",
                self.columns, self.slice_bits
            ));
        }
        if self.column_mux == 0 {
            return fail("column-mux ratio must be at least 1".to_string());
        }
        let slice_words = self.columns / self.slice_bits as u16;
        if !slice_words.is_multiple_of(self.column_mux as u16) {
            return fail(format!(
                "mux ratio {} must divide the {} slice words per row evenly",
                self.column_mux, slice_words
            ));
        }
        if self.columns < self.operand_bits as u16 {
            return fail(format!(
                "a row must hold the whole stored word: {} columns cannot store {} operand bits",
                self.columns, self.operand_bits
            ));
        }
        if self.spare_columns > self.columns {
            return fail(format!(
                "spare columns ({}) cannot outnumber the {} data columns",
                self.spare_columns, self.columns
            ));
        }
        if self.column_mux > 1 && !self.spare_columns.is_multiple_of(self.column_mux as u16) {
            return fail(format!(
                "spare columns ({}) must come in whole mux groups of {}",
                self.spare_columns, self.column_mux
            ));
        }
        Ok(())
    }

    /// Physical bit-line columns per row including the spares,
    /// `columns + spare_columns`.
    pub fn physical_columns(&self) -> u16 {
        self.columns + self.spare_columns
    }

    /// Largest representable operand, `2^operand_bits − 1`.
    pub fn operand_max(&self) -> u16 {
        (1u32 << self.operand_bits) as u16 - 1
    }

    /// Largest exact product, `operand_max²` (fits `u16` up to 8-bit operands).
    pub fn product_max(&self) -> u16 {
        let max = self.operand_max() as u32;
        (max * max) as u16
    }

    /// Largest operand of one analog slice, `2^slice_bits − 1`.
    pub fn slice_max(&self) -> u16 {
        (1u32 << self.slice_bits) as u16 - 1
    }

    /// Number of slices per operand (`1` for a single-pass geometry).
    pub fn slices(&self) -> u8 {
        self.operand_bits / self.slice_bits
    }

    /// Number of analog passes per product, `slices²`.
    pub fn passes(&self) -> u16 {
        let s = self.slices() as u16;
        s * s
    }

    /// Logical data column of bit `bit` in analog pass `pass`: pass `p`
    /// reads stored slice `p % slices`, whose bit `bit` lives on column
    /// `(p % slices) · slice_bits + bit`.
    pub fn logical_column(&self, pass: usize, bit: u8) -> u16 {
        let d_slice = (pass % self.slices() as usize) as u16;
        d_slice * self.slice_bits as u16 + bit as u16
    }

    /// Number of points in the exhaustive input space, `(operand_max + 1)²`.
    pub fn input_space(&self) -> usize {
        let side = self.operand_max() as usize + 1;
        side * side
    }

    /// Length of a flat product lookup table over the input space,
    /// `1 << (2 · operand_bits)` (identical to [`Self::input_space`]).
    pub fn lut_len(&self) -> usize {
        1usize << (2 * self.operand_bits)
    }

    /// DAC code width of one analog pass.
    pub fn dac_bits(&self) -> u8 {
        self.slice_bits
    }

    /// ADC code width of one analog pass (covers one slice product).
    pub fn adc_bits(&self) -> u8 {
        2 * self.slice_bits
    }

    /// `true` for the paper's default geometry.
    pub fn is_paper(&self) -> bool {
        *self == ArrayConfig::paper()
    }

    /// Short human-readable description, e.g. `16x4 int4`,
    /// `16x8 int8 (4b slices, mux 2)` or `16x4 int4 +2sp`.
    ///
    /// Geometries without spares render exactly as before spares existed, so
    /// historical report output (and the CI greps pinned to it) is
    /// unaffected.
    pub fn describe(&self) -> String {
        let mut out = format!("{}x{} int{}", self.rows, self.columns, self.operand_bits);
        if self.slices() > 1 {
            out.push_str(&format!(" ({}b slices", self.slice_bits));
            if self.column_mux > 1 {
                out.push_str(&format!(", mux {}", self.column_mux));
            }
            out.push(')');
        } else if self.column_mux > 1 {
            out.push_str(&format!(" (mux {})", self.column_mux));
        }
        if self.spare_columns > 0 {
            out.push_str(&format!(" +{}sp", self.spare_columns));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_is_the_default_and_valid() {
        let config = ArrayConfig::default();
        assert!(config.is_paper());
        config.validate().unwrap();
        assert_eq!(config.operand_max(), 15);
        assert_eq!(config.product_max(), 225);
        assert_eq!(config.slices(), 1);
        assert_eq!(config.passes(), 1);
        assert_eq!(config.input_space(), 256);
        assert_eq!(config.lut_len(), 256);
        assert_eq!(config.dac_bits(), 4);
        assert_eq!(config.adc_bits(), 8);
        assert_eq!(config.describe(), "16x4 int4");
    }

    #[test]
    fn int8_preset_is_valid_and_composed() {
        let config = ArrayConfig::int8();
        config.validate().unwrap();
        assert!(!config.is_paper());
        assert_eq!(config.operand_max(), 255);
        assert_eq!(config.product_max(), 65025);
        assert_eq!(config.slices(), 2);
        assert_eq!(config.passes(), 4);
        assert_eq!(config.input_space(), 65536);
        assert_eq!(config.lut_len(), 65536);
        // Each pass still fits the physical converters.
        assert_eq!(config.dac_bits(), 4);
        assert_eq!(config.adc_bits(), 8);
        assert_eq!(config.describe(), "16x8 int8 (4b slices)");
        // Pass p reads stored slice p % 2, whose bits sit side by side.
        let columns: Vec<u16> = (0..4).map(|pass| config.logical_column(pass, 3)).collect();
        assert_eq!(columns, [3, 7, 3, 7]);
        assert_eq!(ArrayConfig::paper().logical_column(0, 2), 2);
    }

    #[test]
    fn invalid_geometries_are_rejected_with_context() {
        let cases = [
            (
                ArrayConfig {
                    operand_bits: 0,
                    ..ArrayConfig::paper()
                },
                "operand width",
            ),
            (
                ArrayConfig {
                    operand_bits: 9,
                    slice_bits: 9,
                    ..ArrayConfig::paper()
                },
                "operand width",
            ),
            (
                ArrayConfig {
                    operand_bits: 6,
                    slice_bits: 4,
                    ..ArrayConfig::paper()
                },
                "divide the operand width",
            ),
            (
                ArrayConfig {
                    rows: 0,
                    ..ArrayConfig::paper()
                },
                "at least one row",
            ),
            (
                ArrayConfig {
                    columns: 6,
                    ..ArrayConfig::paper()
                },
                "slice words",
            ),
            (
                ArrayConfig {
                    column_mux: 0,
                    ..ArrayConfig::paper()
                },
                "mux",
            ),
            (
                ArrayConfig {
                    columns: 8,
                    column_mux: 3,
                    ..ArrayConfig::paper()
                },
                "mux ratio 3",
            ),
        ];
        for (config, needle) in cases {
            let err = config.validate().unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{config:?}: {err} does not mention {needle:?}"
            );
        }
    }

    #[test]
    fn spare_columns_validate_against_mux_and_width() {
        // Plain spares on the paper macro are fine and show up in the
        // description (the spare-free description is unchanged).
        let spared = ArrayConfig::paper().with_spares(2);
        spared.validate().unwrap();
        assert_eq!(spared.physical_columns(), 6);
        assert_eq!(spared.describe(), "16x4 int4 +2sp");
        assert_eq!(ArrayConfig::paper().describe(), "16x4 int4");
        assert!(!spared.is_paper());

        // More spares than data columns is rejected with context.
        let err = ArrayConfig::paper().with_spares(5).validate().unwrap_err();
        assert!(err.to_string().contains("spare columns (5)"), "{err}");

        // With column muxing, spares must fill whole mux groups: a lone
        // spare has no converter share of its own.
        let muxed = ArrayConfig {
            columns: 8,
            column_mux: 2,
            ..ArrayConfig::paper()
        };
        assert!(muxed.with_spares(1).validate().is_err());
        let err = muxed.with_spares(3).validate().unwrap_err();
        assert!(err.to_string().contains("whole mux groups of 2"), "{err}");
        muxed.with_spares(2).validate().unwrap();
        muxed.with_spares(4).validate().unwrap();

        // Spares do not relax the data-column constraints: the data columns
        // alone must still hold the stored word (mirrors the CLI's
        // columns-auto-grow rule, which sizes `columns` to `operand_bits`
        // before spares are added on top).
        let narrow = ArrayConfig {
            operand_bits: 8,
            columns: 4,
            ..ArrayConfig::paper()
        };
        let err = narrow.validate().unwrap_err();
        assert!(err.to_string().contains("whole stored word"), "{err}");
        assert!(narrow.with_spares(4).validate().is_err());
        let grown = ArrayConfig {
            columns: 8,
            ..narrow
        };
        grown.with_spares(4).validate().unwrap();
    }

    #[test]
    fn mux_groups_show_up_in_the_description() {
        let config = ArrayConfig {
            columns: 8,
            column_mux: 2,
            ..ArrayConfig::paper()
        };
        config.validate().unwrap();
        assert_eq!(config.describe(), "16x8 int4 (mux 2)");
        let composed = ArrayConfig {
            column_mux: 2,
            ..ArrayConfig::int8()
        };
        composed.validate().unwrap();
        assert_eq!(composed.describe(), "16x8 int8 (4b slices, mux 2)");
    }
}
