//! Post-training quantization to narrow integer widths.
//!
//! The paper quantizes pre-trained FLOAT32 networks to an INT4 representation
//! following the TensorFlow-Lite scheme with INT8 replaced by INT4.  This
//! module implements the corresponding per-tensor affine quantizers:
//! symmetric signed quantization for weights (range −7…7 at 4 bits) and
//! unsigned quantization for (non-negative, post-ReLU) activations (range
//! 0…15 at 4 bits).
//!
//! The operand width is a parameter (1..=8 bits) so the same quantizers serve
//! any [`optima_circuit::array::ArrayConfig`] geometry — the INT4 entry
//! points below delegate to the width-parameterized ones with `bits = 4` and
//! stay bit-identical to the original hard-wired implementation.

/// Operand width of the paper's default INT4 pipeline.
pub const INT4_BITS: u8 = 4;

/// Largest magnitude of a symmetric signed 4-bit value.
pub const INT4_SIGNED_MAX: i8 = 7;

/// Largest unsigned 4-bit value.
pub const INT4_UNSIGNED_MAX: u8 = 15;

/// Largest magnitude of a symmetric signed `bits`-wide value,
/// `2^(bits−1) − 1` (e.g. 7 at 4 bits, 127 at 8 bits).
pub fn signed_max(bits: u8) -> i8 {
    debug_assert!((1..=8).contains(&bits));
    ((1u16 << (bits - 1)) - 1) as i8
}

/// Largest unsigned `bits`-wide value, `2^bits − 1` (e.g. 15 at 4 bits).
pub fn unsigned_max(bits: u8) -> u8 {
    debug_assert!((1..=8).contains(&bits));
    ((1u16 << bits) - 1) as u8
}

/// Per-tensor quantization parameters (scale only; zero point is always 0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantizationParams {
    /// Real value represented by one integer step.
    pub scale: f32,
    /// Operand width in bits; sets the clamping range of the quantizers.
    pub bits: u8,
}

impl QuantizationParams {
    /// Parameters for symmetric signed quantization of `data` to 4 bits.
    pub fn symmetric_for(data: &[f32]) -> Self {
        Self::symmetric_for_bits(data, INT4_BITS)
    }

    /// Parameters for unsigned quantization of non-negative `data` to 4 bits.
    pub fn unsigned_for(data: &[f32]) -> Self {
        Self::unsigned_for_bits(data, INT4_BITS)
    }

    /// Parameters for symmetric signed quantization of `data` to `bits` bits.
    pub fn symmetric_for_bits(data: &[f32], bits: u8) -> Self {
        let max_abs = data.iter().fold(0.0f32, |acc, v| acc.max(v.abs()));
        QuantizationParams {
            scale: if max_abs > 0.0 {
                max_abs / signed_max(bits) as f32
            } else {
                1.0
            },
            bits,
        }
    }

    /// Parameters for unsigned quantization of non-negative `data` to `bits`
    /// bits.
    pub fn unsigned_for_bits(data: &[f32], bits: u8) -> Self {
        let max = data.iter().fold(0.0f32, |acc, v| acc.max(*v));
        QuantizationParams {
            scale: if max > 0.0 {
                max / unsigned_max(bits) as f32
            } else {
                1.0
            },
            bits,
        }
    }

    /// Quantizes one value to a signed `bits`-wide integer.
    pub fn quantize_signed(&self, value: f32) -> i8 {
        let max = signed_max(self.bits) as f32;
        (value / self.scale).round().clamp(-max, max) as i8
    }

    /// Quantizes one (non-negative) value to an unsigned `bits`-wide integer.
    pub fn quantize_unsigned(&self, value: f32) -> u8 {
        let max = unsigned_max(self.bits) as f32;
        (value.max(0.0) / self.scale).round().clamp(0.0, max) as u8
    }

    /// Reconstructs the real value of a signed quantized integer.
    pub fn dequantize(&self, value: i32) -> f32 {
        value as f32 * self.scale
    }
}

/// Quantizes a weight slice symmetrically to INT4, returning the integers and
/// the shared parameters.
pub fn quantize_weights(weights: &[f32]) -> (Vec<i8>, QuantizationParams) {
    quantize_weights_bits(weights, INT4_BITS)
}

/// Quantizes an activation slice (clamped at zero) to unsigned INT4.
pub fn quantize_activations(activations: &[f32]) -> (Vec<u8>, QuantizationParams) {
    quantize_activations_bits(activations, INT4_BITS)
}

/// Quantizes a weight slice symmetrically to `bits` bits.
pub fn quantize_weights_bits(weights: &[f32], bits: u8) -> (Vec<i8>, QuantizationParams) {
    let params = QuantizationParams::symmetric_for_bits(weights, bits);
    let quantized = weights.iter().map(|&w| params.quantize_signed(w)).collect();
    (quantized, params)
}

/// Quantizes an activation slice (clamped at zero) to unsigned `bits` bits.
pub fn quantize_activations_bits(activations: &[f32], bits: u8) -> (Vec<u8>, QuantizationParams) {
    let mut quantized = Vec::with_capacity(activations.len());
    let params = quantize_activations_bits_into(activations, bits, &mut quantized);
    (quantized, params)
}

/// Quantizes an activation slice into a caller-provided buffer, reusing its
/// capacity — the allocation-free twin of [`quantize_activations_bits`]
/// used by the scratch-arena inference path.
pub fn quantize_activations_bits_into(
    activations: &[f32],
    bits: u8,
    out: &mut Vec<u8>,
) -> QuantizationParams {
    let params = QuantizationParams::unsigned_for_bits(activations, bits);
    out.clear();
    out.resize(activations.len(), 0);
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the AVX2 clone only runs after the (cached) runtime
        // feature check above confirmed the CPU supports it.
        unsafe { quantize_unsigned_avx2(activations, params, out) };
        return params;
    }
    quantize_unsigned_body(activations, params, out);
    params
}

/// [`QuantizationParams::quantize_unsigned`] over a slice, the loop shared
/// by both dispatch arms of [`quantize_activations_bits_into`].
#[inline(always)]
fn quantize_unsigned_body(activations: &[f32], params: QuantizationParams, out: &mut [u8]) {
    // optima-lint: hot
    for (code, &activation) in out.iter_mut().zip(activations.iter()) {
        *code = params.quantize_unsigned(activation);
    }
    // optima-lint: end-hot
}

/// AVX2 clone of [`quantize_unsigned_body`].  Baseline x86-64 lowers
/// `f32::round` to a `roundf` call per element; with SSE4.1 and later LLVM
/// inlines it with identical semantics (half away from zero), so the loop
/// vectorizes and every code is bit-identical to the portable body.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn quantize_unsigned_avx2(activations: &[f32], params: QuantizationParams, out: &mut [u8]) {
    quantize_unsigned_body(activations, params, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_quantization_round_trips_within_half_step() {
        let weights = [-0.9, -0.3, 0.0, 0.45, 0.9];
        let (quantized, params) = quantize_weights(&weights);
        assert_eq!(quantized.len(), weights.len());
        assert!(quantized.iter().all(|&q| (-7..=7).contains(&q)));
        for (&w, &q) in weights.iter().zip(quantized.iter()) {
            let reconstructed = params.dequantize(q as i32);
            assert!((reconstructed - w).abs() <= params.scale * 0.5 + 1e-6);
        }
        // The extreme value maps to the extreme code.
        assert_eq!(quantized[0], -7);
        assert_eq!(quantized[4], 7);
    }

    #[test]
    fn unsigned_quantization_clamps_negatives() {
        let activations = [-0.2, 0.0, 0.5, 1.0];
        let (quantized, params) = quantize_activations(&activations);
        assert_eq!(quantized[0], 0);
        assert_eq!(quantized[3], 15);
        assert!((params.dequantize(quantized[2] as i32) - 0.5).abs() < params.scale);
    }

    #[test]
    fn all_zero_input_uses_unit_scale() {
        let (quantized, params) = quantize_weights(&[0.0, 0.0]);
        assert_eq!(quantized, vec![0, 0]);
        assert_eq!(params.scale, 1.0);
        let (quantized, params) = quantize_activations(&[0.0]);
        assert_eq!(quantized, vec![0]);
        assert_eq!(params.scale, 1.0);
    }

    #[test]
    fn quantization_error_shrinks_for_narrow_ranges() {
        let wide = QuantizationParams::symmetric_for(&[-2.0, 2.0]);
        let narrow = QuantizationParams::symmetric_for(&[-0.1, 0.1]);
        assert!(narrow.scale < wide.scale);
    }

    #[test]
    fn width_limits_follow_the_bit_count() {
        assert_eq!(signed_max(4), INT4_SIGNED_MAX);
        assert_eq!(unsigned_max(4), INT4_UNSIGNED_MAX);
        assert_eq!(signed_max(8), 127);
        assert_eq!(unsigned_max(8), 255);
        assert_eq!(signed_max(1), 0);
        assert_eq!(unsigned_max(1), 1);
    }

    #[test]
    fn four_bit_entry_points_are_bit_identical_to_the_explicit_width() {
        let data = [-0.9, -0.3, 0.0, 0.45, 0.9, 1.7];
        let (q4, p4) = quantize_weights(&data);
        let (qb, pb) = quantize_weights_bits(&data, 4);
        assert_eq!(q4, qb);
        assert_eq!(p4.scale.to_bits(), pb.scale.to_bits());
        let (a4, ap4) = quantize_activations(&data);
        let (ab, apb) = quantize_activations_bits(&data, 4);
        assert_eq!(a4, ab);
        assert_eq!(ap4.scale.to_bits(), apb.scale.to_bits());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_quantizer_is_bit_identical_to_the_portable_body() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let subnormal = f32::from_bits(1);
        for bits in 1..=8u8 {
            // Power-of-two scales make `(k + 0.5)·scale / scale` an exact
            // tie; the others probe the rounding near inexact quotients.
            for scale in [0.25f32, 1.0, 0.0078125, 0.1, 1.0 / 3.0] {
                let params = QuantizationParams { scale, bits };
                let mut values = vec![
                    0.0,
                    -0.0,
                    subnormal,
                    -subnormal,
                    f32::MIN_POSITIVE.next_down(),
                    f32::INFINITY,
                    f32::NEG_INFINITY,
                    f32::NAN,
                    -f32::NAN,
                    1e30,
                    -1e30,
                ];
                for k in 0..=unsigned_max(bits) as u32 + 1 {
                    let tie = (k as f32 + 0.5) * scale;
                    values.extend([tie.next_down(), tie, tie.next_up(), -tie]);
                }
                // Four copies and every shift move each value through each
                // vector lane and through the scalar remainder.
                let inputs = values.repeat(4);
                for shift in 0..32 {
                    let inputs = &inputs[shift..];
                    let mut portable = vec![0u8; inputs.len()];
                    let mut avx2 = vec![0u8; inputs.len()];
                    quantize_unsigned_body(inputs, params, &mut portable);
                    // SAFETY: AVX2 support was checked at the top.
                    unsafe { quantize_unsigned_avx2(inputs, params, &mut avx2) };
                    assert_eq!(portable, avx2, "bits {bits}, scale {scale}, shift {shift}");
                }
            }
        }
    }

    #[test]
    fn eight_bit_quantization_uses_the_wider_range() {
        let weights = [-1.0, 1.0, 0.5];
        let (quantized, params) = quantize_weights_bits(&weights, 8);
        assert_eq!(quantized[0], -127);
        assert_eq!(quantized[1], 127);
        assert!(params.scale < QuantizationParams::symmetric_for(&weights).scale);
        let activations = [0.0, 1.0, 0.25];
        let (quantized, _) = quantize_activations_bits(&activations, 8);
        assert_eq!(quantized[1], 255);
    }
}
