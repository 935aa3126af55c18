//! Narrow-integer quantized inference with pluggable product tables.
//!
//! [`QuantizedNetwork::from_network`] converts a trained FLOAT32 [`Network`]
//! into a quantized network (post-training quantization of all convolution
//! and dense weights) whose every magnitude product is routed through a
//! [`ProductTable`] — either an exact baseline or one of the in-SRAM
//! multiplier corners.  The operand width follows
//! [`ProductTable::operand_bits`]: 4 bits reproduces the paper's Tables II
//! and III pipeline, while wider tables (e.g. a composed INT8 geometry) run
//! the same engine with proportionally wider codes.
//!
//! # Execution strategy
//!
//! When the product table is pure ([`ProductTable::supports_snapshot`]),
//! construction snapshots all `1 << 2·operand_bits` signed products into a
//! flat lookup table once, and inference accumulates integer products over
//! contiguous im2col patches — one array index per product instead of one
//! virtual call, with convolutions lowered through the same [`crate::im2col`]
//! unrolling as the FLOAT32 path.  Stateful tables (e.g.
//! [`crate::multiplier::CountingProducts`]) opt out of the snapshot and run
//! the original per-product dynamic-dispatch loop instead.  Both paths
//! accumulate in the integer domain, so their outputs are **bit-identical**
//! — pinned by the equivalence tests.
//!
//! # Convolution kernels
//!
//! The portable sweep gathers each pixel's LUT entry with a scalar load,
//! eight lane accumulators at a time.  On AVX2 hardware the dispatched clone
//! replaces the loads with one of two register kernels:
//!
//! * **Byte shuffle (INT4).**  When every LUT entry fits a byte in
//!   magnitude and each weight code's row has one sign — true of every
//!   snapshot of an in-SRAM INT4 table, whose 8-bit ADC codes top out at
//!   255 — a code's 16 magnitudes sit in one register and a `vpshufb` looks
//!   up 32 pixels at once.  `vpmaddubsw` against the code's ±1 multipliers
//!   applies the sign and widens into `i16` lanes, which are flushed into
//!   `i32` every 128 patch rows, before they could overflow.  The 16-byte
//!   rows are built once per convolution call, on the stack.
//! * **Gather.**  Every other table (INT8, or byte-overflowing INT4) looks
//!   up eight pixels per `vpgatherdd`; it also sweeps the pixels the
//!   shuffle's 32-pixel blocks leave over.
//!
//! Both sum the same LUT values as the portable body in `i32`, and integer
//! addition is associative, so every arm is bit-identical to it; the
//! kernel oracle tests compare them across widths, depths and saturating
//! tables.

use crate::error::DnnError;
use crate::im2col::im2col;
use crate::layers::{Conv2d, Dense, Flatten, GlobalAvgPool, Layer, MaxPool2d, Relu, ResidualBlock};
use crate::multiplier::ProductTable;
use crate::network::Network;
use crate::quantization::{
    quantize_activations_bits, quantize_activations_bits_into, quantize_weights_bits,
    QuantizationParams,
};
use crate::scratch::KernelScratch;
use crate::tensor::Tensor;
use std::sync::Arc;

/// Pixels gathered per LUT sweep step; matches the f32 micro-kernel's
/// [`optima_math::gemm::LANES`] so both hot paths vectorize the same way.
pub const GATHER_LANES: usize = 8;

/// Signed products of one weight code against all activation magnitudes,
/// flattened per weight so the inner inference loop reads a contiguous
/// `2^bits`-entry sub-table.
///
/// Index layout: `lut[code * 2^bits + activation]` with
/// `code = weight + 2^(bits−1)` (weights span `−(2^(bits−1)−1)…2^(bits−1)−1`);
/// `2^bits` entries per code, `1 << 2·bits` entries total (256 for the
/// paper's INT4 default).  Entries where either operand is zero are zero,
/// matching the reference path's skip-zero semantics even for non-ideal
/// tables whose hardware would produce a nonzero "product" with zero.
fn snapshot_products(products: &dyn ProductTable) -> Box<[i32]> {
    let bits = products.operand_bits();
    let stride = 1usize << bits;
    let half = (stride / 2) as i32;
    let mut lut = vec![0i32; stride * stride].into_boxed_slice();
    for weight in (1 - half)..half {
        let code = (weight + half) as usize;
        if weight == 0 {
            continue;
        }
        for activation in 1..stride {
            let magnitude = products.product(activation as u8, weight.unsigned_abs() as u8);
            lut[code * stride + activation] = weight.signum() * magnitude as i32;
        }
    }
    lut
}

/// Whether per-lane accumulators summing up to `depth` LUT entries of
/// magnitude at most `lut_max_abs` fit in an `i32`.  Integer addition is
/// associative, so the `i32` and `i64` lane paths produce bit-identical
/// sums whenever this holds; the `i64` fallback only exists for degenerate
/// tables whose entries could overflow 32 bits mid-sum.
fn lut_fits_i32(depth: usize, lut_max_abs: i64) -> bool {
    depth as i64 <= i32::MAX as i64 / lut_max_abs.max(1)
}

/// Accumulates `BLOCKS` consecutive `GATHER_LANES`-pixel blocks of the
/// im2col patch matrix: for every weight code, gathers the code's contiguous
/// `stride`-entry LUT sub-table at the blocks' activation codes and adds
/// into `BLOCKS × 8` integer lanes held in registers.
///
/// Two deliberate choices keep the inner loop branch- and bounds-check-free:
///
/// * zero-weight codes index an all-zero LUT sub-table, so the rows are
///   accumulated unconditionally instead of branching on the (data-dependent,
///   poorly predicted) zero test — the integer sums are unchanged;
/// * activation codes are masked with `stride - 1` (`stride` is a power of
///   two and the quantizer emits codes `< stride`, so the mask never alters
///   an index) — the compiler can then prove every gather stays inside the
///   `stride`-long sub-table and drops the per-element bounds check.
///
/// Each pixel's accumulator sums its rows in ascending order regardless of
/// `BLOCKS`, so every block width produces bit-identical results.
#[inline(always)]
fn gather_lanes<T, const BLOCKS: usize>(
    codes: &[u8],
    cols: &[u8],
    hw: usize,
    x0: usize,
    lut: &[i32],
    stride: usize,
) -> [[T; GATHER_LANES]; BLOCKS]
where
    T: Copy + Default + std::ops::AddAssign + From<i32>,
{
    // optima-lint: hot
    let mask = stride - 1;
    let mut acc = [[T::default(); GATHER_LANES]; BLOCKS];
    for (&code, row) in codes.iter().zip(cols.chunks_exact(hw)) {
        let sub = &lut[code as usize * stride..code as usize * stride + stride];
        let pixels = &row[x0..x0 + BLOCKS * GATHER_LANES];
        for (acc_lanes, block) in acc.iter_mut().zip(pixels.chunks_exact(GATHER_LANES)) {
            for (lane, &activation) in acc_lanes.iter_mut().zip(block.iter()) {
                *lane += T::from(sub[activation as usize & mask]);
            }
        }
    }
    // optima-lint: end-hot
    acc
}

/// Scales one gather's accumulator blocks into the output row.  `i32` and
/// `i64` accumulators widen through `i64` on the way to `f32`; both casts of
/// the same integer value round to the same `f32`, so the two dispatch arms
/// stay bit-identical.
#[inline(always)]
fn store_blocks<T, const BLOCKS: usize>(
    acc: &[[T; GATHER_LANES]; BLOCKS],
    out: &mut [f32],
    scale: f32,
    bias: f32,
) where
    T: Copy + Into<i64>,
{
    for (lanes, out_block) in acc.iter().zip(out.chunks_exact_mut(GATHER_LANES)) {
        for (out, &lane) in out_block.iter_mut().zip(lanes.iter()) {
            *out = lane.into() as f32 * scale + bias;
        }
    }
}

/// The convolution LUT sweep shared by the allocating and scratch-arena
/// paths: walks the `[patch, hw]` im2col matrix 32 pixels at a time (four
/// 8-lane blocks per row sweep, amortising the per-row sub-table setup of
/// [`gather_lanes`]), then 8 at a time, then finishes the `hw % 8` tail with
/// a scalar loop.  Bit-identical to a row-outer scalar sweep because integer
/// addition is associative and each pixel's rows accumulate in ascending
/// order at every block width.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn conv_lut_core_body(
    conv: &QConv,
    cols: &[u8],
    hw: usize,
    lut: &[i32],
    lut_max_abs: i64,
    bits: u8,
    scale: f32,
    out: &mut [f32],
) {
    const SWEEP: usize = 4; // blocks per wide row sweep: 32 pixels
    let stride = 1usize << bits;
    let zero_code = (stride / 2) as u8;
    let patch = conv.in_channels * conv.kernel * conv.kernel;
    let narrow = lut_fits_i32(patch, lut_max_abs);
    // optima-lint: hot
    for (oc, out_row) in out.chunks_exact_mut(hw).enumerate() {
        let codes = &conv.codes[oc * patch..(oc + 1) * patch];
        let bias = conv.bias[oc];
        let mut x0 = 0usize;
        if narrow {
            while x0 + SWEEP * GATHER_LANES <= hw {
                let acc: [[i32; GATHER_LANES]; SWEEP] =
                    gather_lanes(codes, cols, hw, x0, lut, stride);
                store_blocks(&acc, &mut out_row[x0..], scale, bias);
                x0 += SWEEP * GATHER_LANES;
            }
            while x0 + GATHER_LANES <= hw {
                let acc: [[i32; GATHER_LANES]; 1] = gather_lanes(codes, cols, hw, x0, lut, stride);
                store_blocks(&acc, &mut out_row[x0..], scale, bias);
                x0 += GATHER_LANES;
            }
        } else {
            while x0 + SWEEP * GATHER_LANES <= hw {
                let acc: [[i64; GATHER_LANES]; SWEEP] =
                    gather_lanes(codes, cols, hw, x0, lut, stride);
                store_blocks(&acc, &mut out_row[x0..], scale, bias);
                x0 += SWEEP * GATHER_LANES;
            }
            while x0 + GATHER_LANES <= hw {
                let acc: [[i64; GATHER_LANES]; 1] = gather_lanes(codes, cols, hw, x0, lut, stride);
                store_blocks(&acc, &mut out_row[x0..], scale, bias);
                x0 += GATHER_LANES;
            }
        }
        for (x, out) in out_row.iter_mut().enumerate().skip(x0) {
            let mut acc: i64 = 0;
            for (row, &code) in codes.iter().enumerate() {
                if code == zero_code {
                    continue;
                }
                acc += lut[code as usize * stride + cols[row * hw + x] as usize] as i64;
            }
            *out = acc as f32 * scale + bias;
        }
    }
    // optima-lint: end-hot
}

/// One 16-pixel row sweep through the patch matrix with `vpgatherdd`: each
/// 8-pixel block's LUT lookups run as one hardware gather, with two
/// independent accumulators to hide gather latency.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn sweep2_gather(
    codes: &[u8],
    cols: &[u8],
    hw: usize,
    x0: usize,
    lut: &[i32],
    stride: usize,
    lane_mask: std::arch::x86_64::__m256i,
) -> (std::arch::x86_64::__m256i, std::arch::x86_64::__m256i) {
    use std::arch::x86_64::*;
    let mut acc0 = _mm256_setzero_si256();
    let mut acc1 = _mm256_setzero_si256();
    for (&code, row) in codes.iter().zip(cols.chunks_exact(hw)) {
        // SAFETY: the masked sub-table index stays below `stride` and the
        // masked code keeps `code * stride + stride - 1` below
        // `lut.len() == stride * stride`, so every gather reads inside
        // `lut`; the two 8-byte activation loads sit inside `row` because
        // the caller guarantees `x0 + 16 <= hw == row.len()`.
        let sub = lut.as_ptr().add((code as usize & (stride - 1)) * stride);
        let bytes0 = _mm_loadl_epi64(row.as_ptr().add(x0) as *const __m128i);
        let bytes1 = _mm_loadl_epi64(row.as_ptr().add(x0 + GATHER_LANES) as *const __m128i);
        let idx0 = _mm256_and_si256(_mm256_cvtepu8_epi32(bytes0), lane_mask);
        let idx1 = _mm256_and_si256(_mm256_cvtepu8_epi32(bytes1), lane_mask);
        acc0 = _mm256_add_epi32(acc0, _mm256_i32gather_epi32::<4>(sub, idx0));
        acc1 = _mm256_add_epi32(acc1, _mm256_i32gather_epi32::<4>(sub, idx1));
    }
    (acc0, acc1)
}

/// Rows one `i16` shuffle accumulator may sum before it is flushed into
/// `i32`: 128 × 255 = 32 640 stays below `i16::MAX`.
const SHUFFLE_FLUSH_ROWS: usize = 128;

/// Per-code lookup rows of a 4-bit LUT in the form `vpshufb` consumes,
/// built once per convolution call on the stack.
///
/// A code's 16 products share one sign (the weight's), so each row is
/// stored as 16 unsigned magnitude bytes (broadcast to both 128-bit lanes)
/// plus the sign, spread as `vpmaddubsw` multipliers: `even` holds the sign
/// in even bytes and zero in odd ones, `odd` the reverse.  One multiply-add
/// then widens the even (or odd) pixels' magnitudes to signed `i16` lanes
/// without saturating, since each pair holds one `±1 × m` term, `m ≤ 255`.
#[cfg(target_arch = "x86_64")]
struct ShuffleRows {
    magnitudes: [std::arch::x86_64::__m256i; 16],
    even: [std::arch::x86_64::__m256i; 16],
    odd: [std::arch::x86_64::__m256i; 16],
}

#[cfg(target_arch = "x86_64")]
impl ShuffleRows {
    /// Splits a 256-entry INT4 LUT into shuffle rows, or `None` when the
    /// LUT is not INT4, an entry exceeds 255 in magnitude or a code's row
    /// mixes signs — such tables take the gather sweep.  Snapshot LUTs never mix signs, and
    /// every in-SRAM INT4 table's ADC codes top out at 255.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn new(lut: &[i32]) -> Option<Self> {
        use std::arch::x86_64::*;
        if lut.len() != 256 {
            return None;
        }
        let zero = _mm256_setzero_si256();
        let mut rows = ShuffleRows {
            magnitudes: [zero; 16],
            even: [zero; 16],
            odd: [zero; 16],
        };
        for (code, row) in lut.chunks_exact(16).enumerate() {
            let negative = row.iter().any(|&v| v < 0);
            if negative && row.iter().any(|&v| v > 0) {
                return None;
            }
            let mut bytes = [0u8; 16];
            for (byte, &v) in bytes.iter_mut().zip(row.iter()) {
                *byte = u8::try_from(v.unsigned_abs()).ok()?;
            }
            // SAFETY: `bytes` is 16 bytes long, the width of the load.
            let magnitude = _mm_loadu_si128(bytes.as_ptr() as *const __m128i);
            rows.magnitudes[code] = _mm256_broadcastsi128_si256(magnitude);
            // `vpmaddubsw` reads the multipliers as signed bytes: the sign
            // (0x01, or 0xff for −1) sits in each little-endian `i16`'s low
            // byte for the even pixels and in its high byte for the odd.
            let sign = if negative { 0xff } else { 0x01 };
            rows.even[code] = _mm256_set1_epi16(i16::from_le_bytes([sign, 0]));
            rows.odd[code] = _mm256_set1_epi16(i16::from_le_bytes([0, sign]));
        }
        Some(rows)
    }
}

/// One row sweep over `32 × HALVES` pixels with `vpshufb` lookups: per
/// patch row, each 32 activation codes index the weight code's magnitude
/// row held in a register, and two `vpmaddubsw` against the code's signed
/// even/odd multipliers add the signed products into `i16` lanes (even and
/// odd pixels apart).  Every [`SHUFFLE_FLUSH_ROWS`] rows the lanes are
/// interleaved back into pixel order and flushed into `i32`.  Activation
/// codes are masked to their low nibble, matching the masked gather.
///
/// Returns the `i32` sums in pixel order, eight pixels per vector.
///
/// # Safety
///
/// The CPU must support AVX2, and `x0 + 32 * HALVES <= hw`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn sweep_shuffle<const HALVES: usize>(
    codes: &[u8],
    cols: &[u8],
    hw: usize,
    x0: usize,
    rows: &ShuffleRows,
) -> [[std::arch::x86_64::__m256i; 4]; HALVES] {
    use std::arch::x86_64::*;
    let nibble = _mm256_set1_epi8(0x0f);
    let mut totals = [[_mm256_setzero_si256(); 4]; HALVES];
    // optima-lint: hot
    for (chunk_codes, chunk_cols) in codes
        .chunks(SHUFFLE_FLUSH_ROWS)
        .zip(cols.chunks(SHUFFLE_FLUSH_ROWS * hw))
    {
        let mut acc = [[_mm256_setzero_si256(); 2]; HALVES];
        for (&code, row) in chunk_codes.iter().zip(chunk_cols.chunks_exact(hw)) {
            let code = code as usize & 15;
            let magnitude = rows.magnitudes[code];
            let even = rows.even[code];
            let odd = rows.odd[code];
            for (half, acc) in acc.iter_mut().enumerate() {
                // SAFETY: the caller guarantees `x0 + 32 * HALVES <= hw ==
                // row.len()`, so the 32-byte load sits inside `row`.
                let bytes = _mm256_loadu_si256(row.as_ptr().add(x0 + 32 * half) as *const __m256i);
                let products = _mm256_shuffle_epi8(magnitude, _mm256_and_si256(bytes, nibble));
                acc[0] = _mm256_add_epi16(acc[0], _mm256_maddubs_epi16(products, even));
                acc[1] = _mm256_add_epi16(acc[1], _mm256_maddubs_epi16(products, odd));
            }
        }
        for (total, acc) in totals.iter_mut().zip(acc.iter()) {
            // Per 128-bit lane the unpacks interleave even and odd pixels:
            // `low` holds pixels 0–7 | 16–23, `high` 8–15 | 24–31.
            let low = _mm256_unpacklo_epi16(acc[0], acc[1]);
            let high = _mm256_unpackhi_epi16(acc[0], acc[1]);
            let widened = [
                _mm256_cvtepi16_epi32(_mm256_castsi256_si128(low)),
                _mm256_cvtepi16_epi32(_mm256_castsi256_si128(high)),
                _mm256_cvtepi16_epi32(_mm256_extracti128_si256::<1>(low)),
                _mm256_cvtepi16_epi32(_mm256_extracti128_si256::<1>(high)),
            ];
            for (total, widened) in total.iter_mut().zip(widened) {
                *total = _mm256_add_epi32(*total, widened);
            }
        }
    }
    // optima-lint: end-hot
    totals
}

/// Writes one shuffle sweep's pixel-ordered `i32` sums to the output row.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn store_shuffle<const HALVES: usize>(
    totals: &[[std::arch::x86_64::__m256i; 4]; HALVES],
    out: &mut [f32],
    scale: f32,
    bias: f32,
) {
    use std::arch::x86_64::*;
    for (vectors, out_half) in totals.iter().zip(out.chunks_exact_mut(4 * GATHER_LANES)) {
        let mut lanes = [0i32; 4 * GATHER_LANES];
        for (vector, dst) in vectors.iter().zip(lanes.chunks_exact_mut(GATHER_LANES)) {
            // SAFETY: `dst` holds exactly eight `i32`s, one 256-bit store.
            _mm256_storeu_si256(dst.as_mut_ptr() as *mut __m256i, *vector);
        }
        for (out, &lane) in out_half.iter_mut().zip(lanes.iter()) {
            *out = lane as f32 * scale + bias;
        }
    }
}

/// AVX2 clone of the convolution LUT sweep.  INT4 tables whose entries fit
/// a byte ([`ShuffleRows`]) sweep 64 and then 32 pixels at a time with
/// register `vpshufb` lookups; every other table, and the pixels left over,
/// take `vpgatherdd` gathers 16 and then 8 pixels at a time, and the last
/// `hw % 8` pixels a scalar loop.  The looked-up values and the integer
/// sums are unchanged — integer addition is associative, `i16` lanes are
/// flushed before they can overflow and `i32` lanes cannot ([`lut_fits_i32`])
/// — so the clone is bit-identical to the portable body.  The `i64`
/// wide-accumulator case has no packed path; it falls through to the
/// portable body.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
unsafe fn conv_lut_core_avx2(
    conv: &QConv,
    cols: &[u8],
    hw: usize,
    lut: &[i32],
    lut_max_abs: i64,
    bits: u8,
    scale: f32,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;

    let stride = 1usize << bits;
    let patch = conv.in_channels * conv.kernel * conv.kernel;
    if !lut_fits_i32(patch, lut_max_abs) {
        return conv_lut_core_body(conv, cols, hw, lut, lut_max_abs, bits, scale, out);
    }
    let zero_code = (stride / 2) as u8;
    let shuffle_rows = ShuffleRows::new(lut);
    // The mask is a no-op on well-formed inputs (the quantizer emits codes
    // `< stride` on both operands); it bounds every gather inside `lut`
    // regardless, which is what makes the raw-pointer gathers sound.
    let lane_mask = _mm256_set1_epi32((stride - 1) as i32);
    // optima-lint: hot
    for (oc, out_row) in out.chunks_exact_mut(hw).enumerate() {
        let codes = &conv.codes[oc * patch..(oc + 1) * patch];
        let bias = conv.bias[oc];
        let mut x0 = 0usize;
        if let Some(rows) = &shuffle_rows {
            // SAFETY for both widths: the loop bounds keep
            // `x0 + 32 * HALVES <= hw`, the helper's precondition.
            while x0 + 8 * GATHER_LANES <= hw {
                let totals = sweep_shuffle::<2>(codes, cols, hw, x0, rows);
                store_shuffle(&totals, &mut out_row[x0..], scale, bias);
                x0 += 8 * GATHER_LANES;
            }
            if x0 + 4 * GATHER_LANES <= hw {
                let totals = sweep_shuffle::<1>(codes, cols, hw, x0, rows);
                store_shuffle(&totals, &mut out_row[x0..], scale, bias);
                x0 += 4 * GATHER_LANES;
            }
        }
        while x0 + 2 * GATHER_LANES <= hw {
            // SAFETY: `x0 + 16 <= hw == row.len()` bounds the activation
            // loads, and masked codes/indices bound every LUT read (see the
            // helper's safety comment).
            let (acc0, acc1) = sweep2_gather(codes, cols, hw, x0, lut, stride, lane_mask);
            let mut lanes = [0i32; 2 * GATHER_LANES];
            _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc0);
            _mm256_storeu_si256(lanes.as_mut_ptr().add(GATHER_LANES) as *mut __m256i, acc1);
            for (out, &lane) in out_row[x0..x0 + 2 * GATHER_LANES]
                .iter_mut()
                .zip(lanes.iter())
            {
                *out = lane as f32 * scale + bias;
            }
            x0 += 2 * GATHER_LANES;
        }
        while x0 + GATHER_LANES <= hw {
            let mut acc = _mm256_setzero_si256();
            for (&code, row) in codes.iter().zip(cols.chunks_exact(hw)) {
                // SAFETY: same bounds argument as the two-block helper,
                // with a single 8-byte load at `x0 + 8 <= hw`.
                let sub = lut.as_ptr().add((code as usize & (stride - 1)) * stride);
                let bytes = _mm_loadl_epi64(row.as_ptr().add(x0) as *const __m128i);
                let idx = _mm256_and_si256(_mm256_cvtepu8_epi32(bytes), lane_mask);
                acc = _mm256_add_epi32(acc, _mm256_i32gather_epi32::<4>(sub, idx));
            }
            let mut lanes = [0i32; GATHER_LANES];
            _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, acc);
            for (out, &lane) in out_row[x0..x0 + GATHER_LANES].iter_mut().zip(lanes.iter()) {
                *out = lane as f32 * scale + bias;
            }
            x0 += GATHER_LANES;
        }
        for (x, out) in out_row.iter_mut().enumerate().skip(x0) {
            let mut acc: i64 = 0;
            for (row, &code) in codes.iter().enumerate() {
                if code == zero_code {
                    continue;
                }
                acc += lut[code as usize * stride + cols[row * hw + x] as usize] as i64;
            }
            *out = acc as f32 * scale + bias;
        }
    }
    // optima-lint: end-hot
}

/// Dispatches the convolution LUT sweep to the AVX2 clone when the CPU
/// supports it, falling back to the portable body otherwise.
#[allow(clippy::too_many_arguments)]
fn conv_lut_core(
    conv: &QConv,
    cols: &[u8],
    hw: usize,
    lut: &[i32],
    lut_max_abs: i64,
    bits: u8,
    scale: f32,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the AVX2 clone only runs after the (cached) runtime
        // feature check above confirmed the CPU supports it.
        return unsafe { conv_lut_core_avx2(conv, cols, hw, lut, lut_max_abs, bits, scale, out) };
    }
    conv_lut_core_body(conv, cols, hw, lut, lut_max_abs, bits, scale, out);
}

/// The dense LUT sweep shared by the allocating and scratch-arena paths:
/// eight integer lanes stream the (code, activation) pairs of one output
/// row, the lanes fold into an `i64`, and a scalar loop takes the
/// `inputs % 8` tail.  Zero codes index all-zero LUT sub-tables, so no
/// skip test is needed.
fn dense_lut_core(
    dense: &QDense,
    activations: &[u8],
    lut: &[i32],
    lut_max_abs: i64,
    bits: u8,
    scale: f32,
    out: &mut [f32],
) {
    let stride = 1usize << bits;
    let narrow = lut_fits_i32(dense.inputs, lut_max_abs);
    // optima-lint: hot
    for (o, out_value) in out.iter_mut().enumerate() {
        let codes = &dense.codes[o * dense.inputs..(o + 1) * dense.inputs];
        let mut total: i64 = 0;
        let code_chunks = codes.chunks_exact(GATHER_LANES);
        let act_chunks = activations.chunks_exact(GATHER_LANES);
        let code_tail = code_chunks.remainder();
        let act_tail = act_chunks.remainder();
        if narrow {
            let mut acc = [0i32; GATHER_LANES];
            for (code_block, act_block) in code_chunks.zip(act_chunks) {
                for ((lane, &code), &activation) in
                    acc.iter_mut().zip(code_block.iter()).zip(act_block.iter())
                {
                    *lane += lut[code as usize * stride + activation as usize];
                }
            }
            for &lane in &acc {
                total += lane as i64;
            }
        } else {
            let mut acc = [0i64; GATHER_LANES];
            for (code_block, act_block) in code_chunks.zip(act_chunks) {
                for ((lane, &code), &activation) in
                    acc.iter_mut().zip(code_block.iter()).zip(act_block.iter())
                {
                    *lane += lut[code as usize * stride + activation as usize] as i64;
                }
            }
            for &lane in &acc {
                total += lane;
            }
        }
        for (&code, &activation) in code_tail.iter().zip(act_tail.iter()) {
            total += lut[code as usize * stride + activation as usize] as i64;
        }
        *out_value = total as f32 * scale + dense.bias[o];
    }
    // optima-lint: end-hot
}

/// Quantized convolution parameters.
#[derive(Debug, Clone)]
struct QConv {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    /// Signed quantized weights in `[out_c, in_c, k, k]` order.
    weights: Vec<i8>,
    /// The same weights as LUT codes (`weight + 2^(bits−1)`), precomputed once.
    codes: Vec<u8>,
    weight_params: QuantizationParams,
    bias: Vec<f32>,
}

/// Quantized dense parameters.
#[derive(Debug, Clone)]
struct QDense {
    inputs: usize,
    outputs: usize,
    weights: Vec<i8>,
    /// The same weights as LUT codes (`weight + 2^(bits−1)`), precomputed once.
    codes: Vec<u8>,
    weight_params: QuantizationParams,
    bias: Vec<f32>,
}

fn weight_codes(weights: &[i8], bits: u8) -> Vec<u8> {
    let half = 1i16 << (bits - 1);
    weights.iter().map(|&w| (w as i16 + half) as u8).collect()
}

/// One layer of the quantized network.
#[derive(Debug, Clone)]
enum QLayer {
    Conv(QConv),
    Dense(QDense),
    Residual { conv1: QConv, conv2: QConv },
    Relu,
    MaxPool,
    GlobalAvgPool,
    Flatten,
}

/// A quantized network executing all products through a [`ProductTable`].
///
/// The operand width (and with it the LUT geometry and quantization ranges)
/// follows [`ProductTable::operand_bits`]; 4 bits is the paper's INT4
/// pipeline.
#[derive(Debug)]
pub struct QuantizedNetwork {
    layers: Vec<QLayer>,
    products: Arc<dyn ProductTable>,
    /// Operand width in bits, cached from the product table.
    bits: u8,
    /// Flat signed-product table (`1 << 2·bits` entries); `None` when the
    /// product table is stateful and must be consulted per product (see
    /// [`ProductTable::supports_snapshot`]).
    lut: Option<Box<[i32]>>,
    /// Largest LUT entry magnitude, measured at snapshot time; decides
    /// whether the gather kernels may accumulate in `i32` lanes (see
    /// [`lut_fits_i32`]).  Zero when no snapshot exists.
    lut_max_abs: i64,
}

impl QuantizedNetwork {
    /// Quantizes a trained FLOAT32 network at the product table's operand
    /// width.
    ///
    /// # Errors
    ///
    /// Returns [`DnnError::InvalidConfiguration`] when the network contains a
    /// layer type the quantizer does not support, or the product table
    /// reports an operand width outside 1..=8 bits.
    pub fn from_network(
        network: &Network,
        products: Arc<dyn ProductTable>,
    ) -> Result<Self, DnnError> {
        let bits = products.operand_bits();
        if !(1..=8).contains(&bits) {
            return Err(DnnError::InvalidConfiguration {
                context: format!(
                    "product table '{}' reports an operand width of {bits} bits (need 1..=8)",
                    products.name()
                ),
            });
        }
        let mut layers = Vec::with_capacity(network.len());
        for layer in network.layers() {
            layers.push(Self::convert_layer(layer.as_ref(), bits)?);
        }
        let lut = products
            .supports_snapshot()
            .then(|| snapshot_products(products.as_ref()));
        let lut_max_abs = lut.as_ref().map_or(0i64, |lut| {
            lut.iter().fold(0i64, |max, &v| max.max((v as i64).abs()))
        });
        Ok(QuantizedNetwork {
            layers,
            products,
            bits,
            lut,
            lut_max_abs,
        })
    }

    fn convert_layer(layer: &dyn Layer, bits: u8) -> Result<QLayer, DnnError> {
        let any = layer.as_any();
        if let Some(conv) = any.downcast_ref::<Conv2d>() {
            return Ok(QLayer::Conv(Self::convert_conv(conv, bits)));
        }
        if let Some(dense) = any.downcast_ref::<Dense>() {
            let (weights, weight_params) = quantize_weights_bits(dense.weights(), bits);
            let codes = weight_codes(&weights, bits);
            return Ok(QLayer::Dense(QDense {
                inputs: dense.inputs(),
                outputs: dense.outputs(),
                weights,
                codes,
                weight_params,
                bias: dense.bias().to_vec(),
            }));
        }
        if let Some(block) = any.downcast_ref::<ResidualBlock>() {
            let (conv1, conv2) = block.convolutions();
            return Ok(QLayer::Residual {
                conv1: Self::convert_conv(conv1, bits),
                conv2: Self::convert_conv(conv2, bits),
            });
        }
        if any.downcast_ref::<Relu>().is_some() {
            return Ok(QLayer::Relu);
        }
        if any.downcast_ref::<MaxPool2d>().is_some() {
            return Ok(QLayer::MaxPool);
        }
        if any.downcast_ref::<GlobalAvgPool>().is_some() {
            return Ok(QLayer::GlobalAvgPool);
        }
        if any.downcast_ref::<Flatten>().is_some() {
            return Ok(QLayer::Flatten);
        }
        Err(DnnError::InvalidConfiguration {
            context: format!("layer '{}' cannot be quantized", layer.name()),
        })
    }

    fn convert_conv(conv: &Conv2d, bits: u8) -> QConv {
        let (weights, weight_params) = quantize_weights_bits(conv.weights(), bits);
        let codes = weight_codes(&weights, bits);
        QConv {
            in_channels: conv.in_channels(),
            out_channels: conv.out_channels(),
            kernel: conv.kernel(),
            weights,
            codes,
            weight_params,
            bias: conv.bias().to_vec(),
        }
    }

    /// The product table in use.
    pub fn products(&self) -> &Arc<dyn ProductTable> {
        &self.products
    }

    /// Operand width in bits (4 for the paper's INT4 pipeline).
    pub fn operand_bits(&self) -> u8 {
        self.bits
    }

    /// Whether inference runs on the flattened `1 << 2·operand_bits`-entry
    /// product LUT (`true`) or on the per-product dynamic-dispatch reference
    /// path.
    pub fn uses_snapshot(&self) -> bool {
        self.lut.is_some()
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` for an empty network.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Runs quantized inference on one input image.
    ///
    /// # Errors
    ///
    /// Propagates shape errors.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, DnnError> {
        let mut layers = self.layers.iter();
        let mut current = match layers.next() {
            Some(first) => self.forward_layer(first, input)?,
            None => return Ok(input.clone()),
        };
        for layer in layers {
            current = self.forward_layer(layer, &current)?;
        }
        Ok(current)
    }

    /// Runs quantized inference with every buffer drawn from `scratch`.
    ///
    /// Numerically identical to [`QuantizedNetwork::forward`] — quantized
    /// activation codes, u8 im2col patches and the ping-pong activation
    /// tensors all live in the arena, and the result is returned by
    /// reference (valid until the next call that borrows the same scratch).
    /// On the snapshot LUT path the steady state performs **zero** heap
    /// allocations per image; stateful product tables fall back to the
    /// allocating reference kernels (they are measurement instruments, not
    /// hot paths).
    ///
    /// # Errors
    ///
    /// Propagates shape errors; leased buffers are returned to the pool on
    /// the error path.
    pub fn forward_with<'s>(
        &self,
        input: &Tensor,
        scratch: &'s mut KernelScratch,
    ) -> Result<&'s Tensor, DnnError> {
        let mut current = scratch.lease();
        let mut next = scratch.lease();
        let result = self.forward_ping_pong(input, &mut current, &mut next, scratch);
        scratch.release(next);
        match result {
            Ok(()) => Ok(scratch.store_result(current)),
            Err(error) => {
                scratch.release(current);
                Err(error)
            }
        }
    }

    /// Runs a batch of images through one scratch-arena pass.
    ///
    /// The quantized mirror of [`crate::network::Network::infer_batch_with`]:
    /// every image streams through the same flattened product LUT and the
    /// same [`KernelScratch`] arena, so an N-image batch warms up once and
    /// then allocates nothing per image on the snapshot path.  Activation
    /// quantization stays **per image** (the activation scale is derived
    /// per tensor), which is exactly why the results are bit-identical to
    /// N independent [`QuantizedNetwork::forward_with`] calls — pinned by a
    /// regression test, and the correctness anchor of the `optima_serve`
    /// batch coalescer.
    ///
    /// `outputs` is resized to `inputs.len()` and overwritten in place;
    /// recycled tensors keep their capacity across bursts.
    ///
    /// # Errors
    ///
    /// Wraps the first failing image's error as
    /// [`DnnError::EvaluationFailed`] with its batch index.  Earlier slots
    /// hold valid logits; later slots are untouched.
    pub fn forward_batch_with(
        &self,
        inputs: &[&Tensor],
        outputs: &mut Vec<Tensor>,
        scratch: &mut KernelScratch,
    ) -> Result<(), DnnError> {
        outputs.resize_with(inputs.len(), Tensor::default);
        for (index, (input, output)) in inputs.iter().zip(outputs.iter_mut()).enumerate() {
            match self.forward_with(input, scratch) {
                Ok(logits) => output.copy_from(logits),
                Err(error) => {
                    return Err(DnnError::EvaluationFailed {
                        image_index: index,
                        source: Box::new(error),
                    })
                }
            }
        }
        Ok(())
    }

    /// The layer loop of [`QuantizedNetwork::forward_with`].
    fn forward_ping_pong(
        &self,
        input: &Tensor,
        current: &mut Tensor,
        next: &mut Tensor,
        scratch: &mut KernelScratch,
    ) -> Result<(), DnnError> {
        let mut layers = self.layers.iter();
        match layers.next() {
            Some(first) => self.forward_layer_into(first, input, current, scratch)?,
            None => current.copy_from(input),
        }
        for layer in layers {
            self.forward_layer_into(layer, current, next, scratch)?;
            std::mem::swap(current, next);
        }
        Ok(())
    }

    fn forward_layer_into(
        &self,
        layer: &QLayer,
        input: &Tensor,
        output: &mut Tensor,
        scratch: &mut KernelScratch,
    ) -> Result<(), DnnError> {
        match layer {
            QLayer::Conv(conv) => self.forward_conv_into(conv, input, output, scratch),
            QLayer::Dense(dense) => self.forward_dense_into(dense, input, output, scratch),
            QLayer::Residual { conv1, conv2 } => {
                let mut branch = scratch.lease();
                let result = (|| {
                    self.forward_conv_into(conv1, input, &mut branch, scratch)?;
                    branch.map_inplace(|v| v.max(0.0));
                    self.forward_conv_into(conv2, &branch, output, scratch)?;
                    output.add_assign(input)?;
                    output.map_inplace(|v| v.max(0.0));
                    Ok(())
                })();
                scratch.release(branch);
                result
            }
            QLayer::Relu => {
                output.copy_from(input);
                output.map_inplace(|v| v.max(0.0));
                Ok(())
            }
            QLayer::MaxPool => MaxPool2d::new().infer_into(input, output, scratch),
            QLayer::GlobalAvgPool => GlobalAvgPool::new().infer_into(input, output, scratch),
            QLayer::Flatten => {
                output.copy_from(input);
                output.reshape_in_place(&[input.len()])
            }
        }
    }

    /// Scratch-arena convolution: [`conv_lut_core`] over arena-held
    /// activation codes and patches.  Stateful tables take the allocating
    /// reference path and copy into `output`.
    fn forward_conv_into(
        &self,
        conv: &QConv,
        input: &Tensor,
        output: &mut Tensor,
        scratch: &mut KernelScratch,
    ) -> Result<(), DnnError> {
        match &self.lut {
            Some(lut) => {
                let (height, width) = Self::check_conv_input(conv, input)?;
                let activation_params = quantize_activations_bits_into(
                    input.data(),
                    self.bits,
                    &mut scratch.qactivations,
                );
                let scale = conv.weight_params.scale * activation_params.scale;
                im2col(
                    &scratch.qactivations,
                    0u8,
                    conv.in_channels,
                    height,
                    width,
                    conv.kernel,
                    &mut scratch.qcols,
                );
                output.resize_to(&[conv.out_channels, height, width]);
                conv_lut_core(
                    conv,
                    &scratch.qcols,
                    height * width,
                    lut,
                    self.lut_max_abs,
                    self.bits,
                    scale,
                    output.data_mut(),
                );
                Ok(())
            }
            None => {
                let result = self.forward_conv_reference(conv, input)?;
                output.copy_from(&result);
                Ok(())
            }
        }
    }

    /// Scratch-arena dense layer (see [`Self::forward_conv_into`]).
    fn forward_dense_into(
        &self,
        dense: &QDense,
        input: &Tensor,
        output: &mut Tensor,
        scratch: &mut KernelScratch,
    ) -> Result<(), DnnError> {
        match &self.lut {
            Some(lut) => {
                if input.len() != dense.inputs {
                    return Err(DnnError::ShapeMismatch {
                        expected: vec![dense.inputs],
                        found: input.shape().to_vec(),
                    });
                }
                let activation_params = quantize_activations_bits_into(
                    input.data(),
                    self.bits,
                    &mut scratch.qactivations,
                );
                let scale = dense.weight_params.scale * activation_params.scale;
                output.resize_to(&[dense.outputs]);
                dense_lut_core(
                    dense,
                    &scratch.qactivations,
                    lut,
                    self.lut_max_abs,
                    self.bits,
                    scale,
                    output.data_mut(),
                );
                Ok(())
            }
            None => {
                let result = self.forward_dense_reference(dense, input)?;
                output.copy_from(&result);
                Ok(())
            }
        }
    }

    fn forward_layer(&self, layer: &QLayer, input: &Tensor) -> Result<Tensor, DnnError> {
        match layer {
            QLayer::Conv(conv) => self.forward_conv(conv, input),
            QLayer::Dense(dense) => self.forward_dense(dense, input),
            QLayer::Residual { conv1, conv2 } => {
                let mut branch = self.forward_conv(conv1, input)?;
                branch.map_inplace(|v| v.max(0.0));
                let mut branch = self.forward_conv(conv2, &branch)?;
                branch.add_assign(input)?;
                branch.map_inplace(|v| v.max(0.0));
                Ok(branch)
            }
            QLayer::Relu => Ok(input.map(|v| v.max(0.0))),
            QLayer::MaxPool => MaxPool2d::new().infer(input),
            QLayer::GlobalAvgPool => GlobalAvgPool::new().infer(input),
            QLayer::Flatten => input.reshaped(&[input.len()]),
        }
    }

    fn check_conv_input(conv: &QConv, input: &Tensor) -> Result<(usize, usize), DnnError> {
        let shape = input.shape();
        if shape.len() != 3 || shape[0] != conv.in_channels {
            return Err(DnnError::ShapeMismatch {
                expected: vec![conv.in_channels, 0, 0],
                found: shape.to_vec(),
            });
        }
        Ok((shape[1], shape[2]))
    }

    fn forward_conv(&self, conv: &QConv, input: &Tensor) -> Result<Tensor, DnnError> {
        match &self.lut {
            Some(lut) => self.forward_conv_lut(conv, input, lut),
            None => self.forward_conv_reference(conv, input),
        }
    }

    fn forward_dense(&self, dense: &QDense, input: &Tensor) -> Result<Tensor, DnnError> {
        match &self.lut {
            Some(lut) => self.forward_dense_lut(dense, input, lut),
            None => self.forward_dense_reference(dense, input),
        }
    }

    /// LUT fast path: integer accumulation over contiguous im2col patches.
    ///
    /// The quantized activations are unrolled into a `[in_c·k², h·w]` patch
    /// matrix and swept by [`conv_lut_core`] — no branches on the
    /// activation side, no virtual calls.  Integer addition is associative,
    /// so the result is bit-identical to the reference path.
    fn forward_conv_lut(
        &self,
        conv: &QConv,
        input: &Tensor,
        lut: &[i32],
    ) -> Result<Tensor, DnnError> {
        let (height, width) = Self::check_conv_input(conv, input)?;
        let (activations, activation_params) = quantize_activations_bits(input.data(), self.bits);
        let scale = conv.weight_params.scale * activation_params.scale;
        let mut cols: Vec<u8> = Vec::new();
        im2col(
            &activations,
            0u8,
            conv.in_channels,
            height,
            width,
            conv.kernel,
            &mut cols,
        );
        let mut output = Tensor::zeros(&[conv.out_channels, height, width]);
        conv_lut_core(
            conv,
            &cols,
            height * width,
            lut,
            self.lut_max_abs,
            self.bits,
            scale,
            output.data_mut(),
        );
        Ok(output)
    }

    /// LUT fast path for dense layers: one contiguous weight-code row per
    /// output against the quantized input vector, swept by the eight-lane
    /// kernel of [`dense_lut_core`].
    fn forward_dense_lut(
        &self,
        dense: &QDense,
        input: &Tensor,
        lut: &[i32],
    ) -> Result<Tensor, DnnError> {
        if input.len() != dense.inputs {
            return Err(DnnError::ShapeMismatch {
                expected: vec![dense.inputs],
                found: input.shape().to_vec(),
            });
        }
        let (activations, activation_params) = quantize_activations_bits(input.data(), self.bits);
        let scale = dense.weight_params.scale * activation_params.scale;
        let mut output = Tensor::zeros(&[dense.outputs]);
        dense_lut_core(
            dense,
            &activations,
            lut,
            self.lut_max_abs,
            self.bits,
            scale,
            output.data_mut(),
        );
        Ok(output)
    }

    /// Reference path: one [`ProductTable::product`] virtual call per
    /// nonzero product pair.  Used when the table is stateful (e.g. counting
    /// multiplications) and by the equivalence tests as ground truth.
    fn forward_conv_reference(&self, conv: &QConv, input: &Tensor) -> Result<Tensor, DnnError> {
        let (height, width) = Self::check_conv_input(conv, input)?;
        let (activations, activation_params) = quantize_activations_bits(input.data(), self.bits);
        let pad = conv.kernel / 2;
        let k = conv.kernel;
        let scale = conv.weight_params.scale * activation_params.scale;
        let mut output = Tensor::zeros(&[conv.out_channels, height, width]);
        let out = output.data_mut();

        for oc in 0..conv.out_channels {
            for y in 0..height {
                for x in 0..width {
                    let mut accumulator: i64 = 0;
                    for ic in 0..conv.in_channels {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = y as isize + ky as isize - pad as isize;
                                let ix = x as isize + kx as isize - pad as isize;
                                if iy < 0 || ix < 0 || iy >= height as isize || ix >= width as isize
                                {
                                    continue;
                                }
                                let weight =
                                    conv.weights[((oc * conv.in_channels + ic) * k + ky) * k + kx];
                                if weight == 0 {
                                    continue;
                                }
                                let activation =
                                    activations[(ic * height + iy as usize) * width + ix as usize];
                                if activation == 0 {
                                    continue;
                                }
                                let magnitude =
                                    self.products.product(activation, weight.unsigned_abs());
                                accumulator += weight.signum() as i64 * magnitude as i64;
                            }
                        }
                    }
                    out[(oc * height + y) * width + x] = accumulator as f32 * scale + conv.bias[oc];
                }
            }
        }
        Ok(output)
    }

    /// Reference dense path (see [`Self::forward_conv_reference`]).
    fn forward_dense_reference(&self, dense: &QDense, input: &Tensor) -> Result<Tensor, DnnError> {
        if input.len() != dense.inputs {
            return Err(DnnError::ShapeMismatch {
                expected: vec![dense.inputs],
                found: input.shape().to_vec(),
            });
        }
        let (activations, activation_params) = quantize_activations_bits(input.data(), self.bits);
        let scale = dense.weight_params.scale * activation_params.scale;
        let mut output = vec![0.0f32; dense.outputs];
        for (o, out_value) in output.iter_mut().enumerate() {
            let row = &dense.weights[o * dense.inputs..(o + 1) * dense.inputs];
            let mut accumulator: i64 = 0;
            for (weight, &activation) in row.iter().zip(activations.iter()) {
                if *weight == 0 || activation == 0 {
                    continue;
                }
                let magnitude = self.products.product(activation, weight.unsigned_abs());
                accumulator += weight.signum() as i64 * magnitude as i64;
            }
            *out_value = accumulator as f32 * scale + dense.bias[o];
        }
        Tensor::from_vec(&[dense.outputs], output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Dataset, SyntheticImageConfig};
    use crate::layers::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
    use crate::multiplier::{
        ComposedProducts, CountingProducts, ExactInt4Products, ExactProducts, InMemoryProducts,
    };
    use crate::training::{Trainer, TrainingConfig};
    use optima_imc::multiplier::MultiplierTable;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn small_cnn(classes: usize) -> Network {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        Network::new(vec![
            Box::new(Conv2d::new(1, 4, 3, &mut rng)),
            Box::new(Relu::new()),
            Box::new(MaxPool2d::new()),
            Box::new(Flatten::new()),
            Box::new(Dense::new(4 * 4 * 4, classes, &mut rng)),
        ])
    }

    /// A `patch`-row, two-channel 1×1 convolution with random weight codes:
    /// `conv_lut_core` only reads the codes, biases and patch depth.
    fn oracle_conv(patch: usize, rng: &mut ChaCha8Rng) -> QConv {
        QConv {
            in_channels: patch,
            out_channels: 2,
            kernel: 1,
            weights: Vec::new(),
            codes: (0..2 * patch).map(|_| rng.gen_range(0..16u8)).collect(),
            weight_params: QuantizationParams {
                scale: 1.0,
                bits: 4,
            },
            bias: vec![0.25, -1.5],
        }
    }

    /// 4-bit LUTs for the sweep oracle, by name, each with whether the
    /// byte shuffle takes it: saturating tables whose sums overflow `i16`
    /// past 128 rows unless flushed, a snapshot-like table with one sign
    /// per code, and two tables it must refuse (mixed signs within a code,
    /// a magnitude of 256).
    fn oracle_luts(rng: &mut ChaCha8Rng) -> Vec<(&'static str, Vec<i32>, bool)> {
        let snapshot_like: Vec<i32> = (0..256)
            .map(|i: i32| (i / 16 - 8).signum() * rng.gen_range(0..=255))
            .collect();
        let mut magnitude_256 = snapshot_like.clone();
        magnitude_256[15 * 16 + 9] = 256;
        vec![
            ("all +255", vec![255; 256], true),
            ("all -255", vec![-255; 256], true),
            (
                "codes alternating ±255",
                (0..256)
                    .map(|i| if i / 16 % 2 == 0 { 255 } else { -255 })
                    .collect(),
                true,
            ),
            ("snapshot-like", snapshot_like, true),
            (
                "entries alternating ±255",
                (0..256)
                    .map(|i| if i % 2 == 0 { 255 } else { -255 })
                    .collect(),
                false,
            ),
            ("one magnitude of 256", magnitude_256, false),
        ]
    }

    #[test]
    fn dispatched_conv_sweep_is_bit_identical_to_the_portable_body() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        let luts = oracle_luts(&mut rng);
        let widths: Vec<usize> = (1..=70).chain([144, 256]).collect();
        for patch in [9, 27, 128, 129, 144, 300] {
            let conv = oracle_conv(patch, &mut rng);
            for &hw in &widths {
                let cols: Vec<u8> = (0..patch * hw).map(|_| rng.gen_range(0..16u8)).collect();
                for (name, lut, _) in &luts {
                    let lut_max_abs = lut.iter().map(|&v| (v as i64).abs()).max().unwrap_or(0);
                    let mut dispatched = vec![0.0f32; 2 * hw];
                    let mut portable = vec![0.0f32; 2 * hw];
                    conv_lut_core(&conv, &cols, hw, lut, lut_max_abs, 4, 0.5, &mut dispatched);
                    conv_lut_core_body(&conv, &cols, hw, lut, lut_max_abs, 4, 0.5, &mut portable);
                    let bits = |out: &[f32]| out.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&dispatched),
                        bits(&portable),
                        "{name}: patch {patch}, hw {hw}"
                    );
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn byte_shuffle_takes_exactly_the_single_sign_byte_sized_int4_luts() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        for (name, lut, shuffles) in oracle_luts(&mut rng) {
            // SAFETY: AVX2 support was checked at the top.
            let taken = unsafe { ShuffleRows::new(&lut) }.is_some();
            assert_eq!(taken, shuffles, "{name}");
        }
        for table in [
            Arc::new(ExactInt4Products) as Arc<dyn ProductTable>,
            Arc::new(ExactProducts::new(8)),
        ] {
            let lut = snapshot_products(table.as_ref());
            // SAFETY: AVX2 support was checked at the top.
            let taken = unsafe { ShuffleRows::new(&lut) }.is_some();
            assert_eq!(taken, table.operand_bits() == 4, "{}", table.name());
        }
    }

    #[test]
    fn quantized_network_mirrors_float_network_closely() {
        let dataset = Dataset::synthetic(SyntheticImageConfig::tiny());
        let mut network = small_cnn(3);
        Trainer::new(TrainingConfig {
            epochs: 8,
            learning_rate: 0.05,
            learning_rate_decay: 0.95,
        })
        .train(&mut network, &dataset)
        .unwrap();

        let quantized =
            QuantizedNetwork::from_network(&network, Arc::new(ExactInt4Products)).unwrap();
        assert_eq!(quantized.len(), network.len());
        assert!(!quantized.is_empty());
        assert!(quantized.uses_snapshot());

        // On most samples the INT4 prediction should match the FLOAT32 one.
        let mut agreement = 0usize;
        let mut total = 0usize;
        for (image, _) in dataset.test_iter() {
            let float_prediction = network.forward(image).unwrap().argmax();
            let int4_prediction = quantized.forward(image).unwrap().argmax();
            if float_prediction == int4_prediction {
                agreement += 1;
            }
            total += 1;
        }
        assert!(
            agreement * 10 >= total * 7,
            "only {agreement}/{total} predictions agree after quantization"
        );
    }

    #[test]
    fn lut_path_is_bit_identical_to_the_dyn_dispatch_reference() {
        // Wrapping in CountingProducts disables the snapshot, so the same
        // table runs once through the LUT and once through the per-product
        // virtual-call loop; integer accumulation makes them bit-identical.
        let network = small_cnn(3);
        let table = MultiplierTable::exact();
        let fast = QuantizedNetwork::from_network(
            &network,
            Arc::new(InMemoryProducts::new(table.clone(), "exact")),
        )
        .unwrap();
        let reference = QuantizedNetwork::from_network(
            &network,
            Arc::new(CountingProducts::new(Arc::new(InMemoryProducts::new(
                table, "exact",
            )))),
        )
        .unwrap();
        assert!(fast.uses_snapshot());
        assert!(!reference.uses_snapshot());
        for seed in 0..5u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let image =
                Tensor::from_vec(&[1, 8, 8], (0..64).map(|_| rng.gen::<f32>()).collect()).unwrap();
            let fast_out = fast.forward(&image).unwrap();
            let reference_out = reference.forward(&image).unwrap();
            assert_eq!(fast_out, reference_out, "seed {seed}");
        }
    }

    #[test]
    fn exact_table_and_exact_products_give_identical_results() {
        let network = small_cnn(3);
        let via_products =
            QuantizedNetwork::from_network(&network, Arc::new(ExactInt4Products)).unwrap();
        let via_table = QuantizedNetwork::from_network(
            &network,
            Arc::new(InMemoryProducts::new(MultiplierTable::exact(), "exact")),
        )
        .unwrap();
        let image =
            Tensor::from_vec(&[1, 8, 8], (0..64).map(|i| (i % 7) as f32 / 7.0).collect()).unwrap();
        assert_eq!(
            via_products.forward(&image).unwrap(),
            via_table.forward(&image).unwrap()
        );
    }

    #[test]
    fn counting_products_count_the_nonzero_macs() {
        let network = small_cnn(3);
        let counting = Arc::new(CountingProducts::new(Arc::new(ExactInt4Products)));
        let quantized = QuantizedNetwork::from_network(&network, counting.clone()).unwrap();
        assert!(
            !quantized.uses_snapshot(),
            "a counting table must not be snapshotted away"
        );
        let image = Tensor::from_vec(&[1, 8, 8], vec![0.5; 64]).unwrap();
        let _ = quantized.forward(&image).unwrap();
        let upper_bound = network.multiplications(&[1, 8, 8]).unwrap();
        assert!(counting.count() > 0);
        assert!(
            counting.count() <= upper_bound,
            "skipping zeros can only reduce the count"
        );
        assert_eq!(quantized.products().name(), "exact-int4");
    }

    #[test]
    fn shape_errors_are_reported() {
        let network = small_cnn(3);
        let quantized =
            QuantizedNetwork::from_network(&network, Arc::new(ExactInt4Products)).unwrap();
        assert!(quantized.forward(&Tensor::zeros(&[2, 8, 8])).is_err());
    }

    #[test]
    fn operand_width_follows_the_product_table() {
        let network = small_cnn(3);
        let int4 = QuantizedNetwork::from_network(&network, Arc::new(ExactInt4Products)).unwrap();
        assert_eq!(int4.operand_bits(), 4);
        let int8 =
            QuantizedNetwork::from_network(&network, Arc::new(ExactProducts::new(8))).unwrap();
        assert_eq!(int8.operand_bits(), 8);
        assert!(int8.uses_snapshot());
    }

    #[test]
    fn int8_lut_path_is_bit_identical_to_the_dyn_dispatch_reference() {
        // Same equivalence pin as the INT4 test, at the composed INT8 width:
        // the 65536-entry LUT must reproduce the per-product virtual-call
        // loop exactly.
        let network = small_cnn(3);
        let composed = || ComposedProducts::new(Arc::new(ExactInt4Products), 2);
        let fast = QuantizedNetwork::from_network(&network, Arc::new(composed())).unwrap();
        let reference = QuantizedNetwork::from_network(
            &network,
            Arc::new(CountingProducts::new(Arc::new(composed()))),
        )
        .unwrap();
        assert!(fast.uses_snapshot());
        assert!(!reference.uses_snapshot());
        assert_eq!(fast.operand_bits(), 8);
        assert_eq!(reference.operand_bits(), 8);
        for seed in 0..3u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let image =
                Tensor::from_vec(&[1, 8, 8], (0..64).map(|_| rng.gen::<f32>()).collect()).unwrap();
            let fast_out = fast.forward(&image).unwrap();
            let reference_out = reference.forward(&image).unwrap();
            assert_eq!(fast_out, reference_out, "seed {seed}");
        }
    }

    #[test]
    fn forward_with_matches_forward_bit_for_bit() {
        // The scratch-arena path must reproduce the allocating path exactly
        // at both the INT4 and composed INT8 widths, with one scratch reused
        // across all images (and across the two widths).
        let network = small_cnn(3);
        let int4 = QuantizedNetwork::from_network(&network, Arc::new(ExactInt4Products)).unwrap();
        let int8 = QuantizedNetwork::from_network(
            &network,
            Arc::new(ComposedProducts::new(Arc::new(ExactInt4Products), 2)),
        )
        .unwrap();
        let mut scratch = KernelScratch::new();
        for seed in 0..5u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let image =
                Tensor::from_vec(&[1, 8, 8], (0..64).map(|_| rng.gen::<f32>()).collect()).unwrap();
            for quantized in [&int4, &int8] {
                let allocating = quantized.forward(&image).unwrap();
                let pooled = quantized.forward_with(&image, &mut scratch).unwrap();
                assert_eq!(&allocating, pooled, "seed {seed}");
            }
        }
    }

    #[test]
    fn forward_batch_with_is_bit_identical_to_independent_single_image_calls() {
        // The serving engine's correctness anchor: one batched pass over a
        // shared scratch must reproduce N single-image calls exactly, at
        // both the INT4 and composed INT8 widths (per-image activation
        // scales make this non-trivial).
        let network = small_cnn(3);
        let int4 = QuantizedNetwork::from_network(&network, Arc::new(ExactInt4Products)).unwrap();
        let int8 = QuantizedNetwork::from_network(
            &network,
            Arc::new(ComposedProducts::new(Arc::new(ExactInt4Products), 2)),
        )
        .unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let images: Vec<Tensor> = (0..6)
            .map(|_| {
                Tensor::from_vec(&[1, 8, 8], (0..64).map(|_| rng.gen::<f32>()).collect()).unwrap()
            })
            .collect();
        let refs: Vec<&Tensor> = images.iter().collect();
        for quantized in [&int4, &int8] {
            let mut batch_scratch = KernelScratch::new();
            let mut outputs = Vec::new();
            quantized
                .forward_batch_with(&refs, &mut outputs, &mut batch_scratch)
                .unwrap();
            assert_eq!(outputs.len(), images.len());
            for (index, image) in images.iter().enumerate() {
                let mut single = KernelScratch::new();
                let expected = quantized.forward_with(image, &mut single).unwrap();
                assert_eq!(expected, &outputs[index], "image {index}");
            }
        }
    }

    #[test]
    fn forward_batch_with_names_the_failing_image_index() {
        let network = small_cnn(3);
        let quantized =
            QuantizedNetwork::from_network(&network, Arc::new(ExactInt4Products)).unwrap();
        let good =
            Tensor::from_vec(&[1, 8, 8], (0..64).map(|i| i as f32 / 64.0).collect()).unwrap();
        let bad = Tensor::zeros(&[2, 8, 8]);
        let inputs = [&good, &bad];
        let mut outputs = Vec::new();
        let mut scratch = KernelScratch::new();
        match quantized.forward_batch_with(&inputs, &mut outputs, &mut scratch) {
            Err(DnnError::EvaluationFailed { image_index, .. }) => assert_eq!(image_index, 1),
            other => panic!("expected EvaluationFailed, got {other:?}"),
        }
        assert_eq!(outputs[0].len(), 3);
    }

    #[test]
    fn forward_with_matches_forward_on_the_reference_path() {
        // Stateful tables disable the snapshot; forward_with must still
        // agree (it falls back to the reference kernels internally).
        let network = small_cnn(3);
        let quantized = QuantizedNetwork::from_network(
            &network,
            Arc::new(CountingProducts::new(Arc::new(ExactInt4Products))),
        )
        .unwrap();
        assert!(!quantized.uses_snapshot());
        let mut scratch = KernelScratch::new();
        let image =
            Tensor::from_vec(&[1, 8, 8], (0..64).map(|i| (i % 9) as f32 / 9.0).collect()).unwrap();
        let allocating = quantized.forward(&image).unwrap();
        assert_eq!(
            &allocating,
            quantized.forward_with(&image, &mut scratch).unwrap()
        );
        // A shape error releases the leased buffers and leaves the scratch usable.
        assert!(quantized
            .forward_with(&Tensor::zeros(&[2, 8, 8]), &mut scratch)
            .is_err());
        assert_eq!(
            &allocating,
            quantized.forward_with(&image, &mut scratch).unwrap()
        );
    }

    #[test]
    fn int8_inference_tracks_the_float_network_more_closely_than_int4() {
        // Wider codes mean finer quantization: the exact INT8 network's
        // output must sit at least as close to the FLOAT32 output as the
        // exact INT4 network's on average.
        let dataset = Dataset::synthetic(SyntheticImageConfig::tiny());
        let mut network = small_cnn(3);
        Trainer::new(TrainingConfig {
            epochs: 4,
            learning_rate: 0.05,
            learning_rate_decay: 0.95,
        })
        .train(&mut network, &dataset)
        .unwrap();
        let int4 = QuantizedNetwork::from_network(&network, Arc::new(ExactInt4Products)).unwrap();
        let int8 =
            QuantizedNetwork::from_network(&network, Arc::new(ExactProducts::new(8))).unwrap();
        let mut err4 = 0.0f64;
        let mut err8 = 0.0f64;
        for (image, _) in dataset.test_iter().take(8) {
            let float_out = network.forward(image).unwrap();
            let out4 = int4.forward(image).unwrap();
            let out8 = int8.forward(image).unwrap();
            for ((f, q4), q8) in float_out.data().iter().zip(out4.data()).zip(out8.data()) {
                err4 += (f - q4).abs() as f64;
                err8 += (f - q8).abs() as f64;
            }
        }
        assert!(err8 <= err4, "INT8 drift {err8} exceeds INT4 drift {err4}");
    }
}
