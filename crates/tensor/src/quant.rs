//! Quantization and sparsification kernels for the payload codec layer.
//!
//! Everything that crosses the simulated wireless link (smashed
//! activations, cut-layer gradients, model deltas) can be encoded before
//! transmission. These kernels implement the *lossy round trip* —
//! encode immediately followed by decode — in place on an `f32` slice,
//! which is exactly what the training schemes need: the receiver trains
//! on the decoded tensor while the latency model charges airtime for the
//! encoded size. All kernels are deterministic (stochastic rounding is
//! seeded) and allocation-free in steady state (scratch comes from a
//! [`Workspace`]).
//!
//! * [`fp16_roundtrip`] — IEEE 754 binary16 with round-to-nearest-even.
//! * [`intq_roundtrip`] — symmetric uniform quantization to `bits` bits
//!   with seeded stochastic rounding (unbiased: `E[decode(encode(x))] = x`).
//! * [`topk_mask`] — magnitude top-k sparsification; survivors keep
//!   their exact value, everything else becomes zero. Ties at the
//!   threshold resolve by ascending index, so the kept set is
//!   deterministic regardless of the selection algorithm.

use crate::rng::seeded_rng;
use crate::simd::{self, Isa};
use crate::workspace::Workspace;
use rand::Rng;

/// Elements per SIMD codec block: stochastic-rounding draws are
/// pre-drawn scalar-sequentially into a stack buffer of this size (so
/// the RNG consumption order — and therefore every code — is identical
/// to the scalar tier), then the arithmetic runs 8 lanes wide.
pub(crate) const CODEC_BLOCK: usize = 256;

/// Converts an `f32` to IEEE 754 binary16 bits with round-to-nearest-even
/// (the hardware rounding mode), flushing overflow to ±infinity.
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let frac = bits & 0x007F_FFFF;

    if exp == 0xFF {
        // Inf / NaN: preserve class (quiet any NaN payload).
        return sign | 0x7C00 | if frac != 0 { 0x0200 } else { 0 };
    }
    // Unbiased exponent, re-biased for f16 (bias 15).
    let e = exp - 127 + 15;
    if e >= 0x1F {
        return sign | 0x7C00; // overflow → ±inf
    }
    if e <= 0 {
        // Subnormal (or underflow to zero): shift the implicit-1 mantissa.
        if e < -10 {
            return sign; // underflows even the smallest subnormal
        }
        let mant = frac | 0x0080_0000; // implicit leading 1
        let shift = 14 - e; // bits dropped from the 24-bit mantissa
        let half = 1u32 << (shift - 1);
        let rest = mant & ((1u32 << shift) - 1);
        let mut out = (mant >> shift) as u16;
        // Round to nearest, ties to even.
        if rest > half || (rest == half && out & 1 == 1) {
            out += 1;
        }
        return sign | out;
    }
    // Normal: keep the top 10 mantissa bits, round-to-nearest-even on the
    // 13 dropped bits.
    let mut out = ((e as u16) << 10) | (frac >> 13) as u16;
    let rest = frac & 0x1FFF;
    if rest > 0x1000 || (rest == 0x1000 && out & 1 == 1) {
        out += 1; // mantissa carry may overflow into the exponent: correct
    }
    sign | out
}

/// Converts IEEE 754 binary16 bits back to `f32` (exact).
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = u32::from(h & 0x8000) << 16;
    let exp = (h >> 10) & 0x1F;
    let frac = u32::from(h & 0x03FF);
    let bits = match exp {
        0 => {
            if frac == 0 {
                sign // ±0
            } else {
                // Subnormal: renormalize. After s shifts the value is
                // (1 + m/1024) · 2^(−14−s), so e = −s.
                let mut e = 0i32;
                let mut f = frac;
                while f & 0x0400 == 0 {
                    f <<= 1;
                    e -= 1;
                }
                let exp32 = (127 - 14 + e) as u32;
                sign | (exp32 << 23) | ((f & 0x03FF) << 13)
            }
        }
        0x1F => sign | 0x7F80_0000 | (frac << 13), // inf / NaN
        _ => sign | ((u32::from(exp) + 127 - 15) << 23) | (frac << 13),
    };
    f32::from_bits(bits)
}

/// Rounds every element through IEEE binary16 and back, in place.
/// Bit-identical on every SIMD tier: the hardware F16C path rounds
/// exactly like the software converters, and NaN-carrying blocks fall
/// back to software so payload canonicalization matches too.
pub fn fp16_roundtrip(values: &mut [f32]) {
    fp16_roundtrip_with_isa(simd::active_isa(), values);
}

/// [`fp16_roundtrip`] pinned to an explicit ISA tier (benchmark and
/// equivalence-test hook).
#[doc(hidden)]
pub fn fp16_roundtrip_with_isa(isa: Isa, values: &mut [f32]) {
    match isa {
        Isa::Avx2 => simd::fp16_roundtrip_block(values),
        Isa::Scalar => {
            for v in values.iter_mut() {
                *v = f16_bits_to_f32(f32_to_f16_bits(*v));
            }
        }
    }
}

/// Symmetric uniform quantization to `bits`-bit signed integers with
/// stochastic rounding, immediately dequantized, in place.
///
/// The per-call scale is the max-abs of the slice (transmitted alongside
/// the payload in a real system; its 4 bytes are accounted by the codec's
/// wire-size formula, not here). Stochastic rounding draws from a
/// [`crate::rng::seeded_rng`] stream at `stream`, so the round trip is
/// deterministic for a given seed and unbiased in expectation.
///
/// `bits` must be in `2..=16`; an all-zero slice is returned unchanged.
pub fn intq_roundtrip(values: &mut [f32], bits: u32, stream: u64) {
    intq_roundtrip_with_isa(simd::active_isa(), values, bits, stream);
}

/// [`intq_roundtrip`] pinned to an explicit ISA tier (benchmark and
/// equivalence-test hook). The vector tier pre-draws the stochastic
/// rounding uniforms per [`CODEC_BLOCK`] in scalar order, so the
/// quantized values are bit-identical to the scalar tier for every
/// finite input.
#[doc(hidden)]
pub fn intq_roundtrip_with_isa(isa: Isa, values: &mut [f32], bits: u32, stream: u64) {
    debug_assert!((2..=16).contains(&bits), "intq bits must be in 2..=16");
    let scale = match isa {
        Isa::Avx2 => simd::max_abs(values),
        Isa::Scalar => values.iter().fold(0.0f32, |m, v| m.max(v.abs())),
    };
    if scale == 0.0 || !scale.is_finite() {
        return;
    }
    let levels = ((1u32 << (bits - 1)) - 1) as f32; // e.g. 127 for 8 bits
    let inv = levels / scale;
    let mut rng = seeded_rng(stream);
    match isa {
        Isa::Avx2 => {
            let mut draws = [0.0f32; CODEC_BLOCK];
            for chunk in values.chunks_mut(CODEC_BLOCK) {
                for d in draws[..chunk.len()].iter_mut() {
                    *d = rng.gen();
                }
                simd::intq_roundtrip_block(chunk, inv, levels, scale, &draws[..chunk.len()]);
            }
        }
        Isa::Scalar => {
            for v in values.iter_mut() {
                let x = *v * inv;
                let lo = x.floor();
                let frac = x - lo;
                // P(round up) = frac ⇒ E[q] = x.
                let q = if rng.gen::<f32>() < frac {
                    lo + 1.0
                } else {
                    lo
                };
                *v = q.clamp(-levels, levels) * scale / levels;
            }
        }
    }
}

/// Keeps the `k` largest-magnitude elements and zeroes the rest, in
/// place. Ties at the k-th magnitude are kept in ascending index order,
/// making the surviving set deterministic. Scratch comes from `ws`
/// (steady-state calls allocate nothing).
///
/// `k >= values.len()` is a no-op, as is a slice containing any
/// non-finite value (a diverged tensor passes through untranscoded
/// rather than panicking mid-selection — the same degrade-to-identity
/// behavior as [`intq_roundtrip`]'s non-finite-scale guard).
pub fn topk_mask(values: &mut [f32], k: usize, ws: &mut Workspace) {
    topk_mask_with_isa(simd::active_isa(), values, k, ws);
}

/// [`topk_mask`] pinned to an explicit ISA tier (benchmark and
/// equivalence-test hook). The magnitude fill, divergence guard, and
/// above-threshold count vectorize; the selection and the tie-resolving
/// mask pass are unchanged — the survivor set is identical on every
/// tier, including all-equal-magnitude ties.
#[doc(hidden)]
pub fn topk_mask_with_isa(isa: Isa, values: &mut [f32], k: usize, ws: &mut Workspace) {
    let n = values.len();
    let diverged = match isa {
        Isa::Avx2 => simd::any_non_finite(values),
        Isa::Scalar => values.iter().any(|v| !v.is_finite()),
    };
    if k >= n || diverged {
        return;
    }
    if k == 0 {
        values.fill(0.0);
        return;
    }
    let mut mags = ws.take(n);
    match isa {
        Isa::Avx2 => simd::abs_into(values, &mut mags),
        Isa::Scalar => {
            for (m, v) in mags.iter_mut().zip(values.iter()) {
                *m = v.abs();
            }
        }
    }
    // k-th largest magnitude = element at index k-1 of the descending
    // order. select_nth is O(n) and the threshold it finds is unique up
    // to ties, which the index-ordered fill below resolves.
    let kth = {
        let mut sel = ws.take(n);
        sel.copy_from_slice(&mags);
        sel.select_nth_unstable_by(k - 1, |a, b| b.partial_cmp(a).expect("finite magnitudes"));
        let t = sel[k - 1];
        ws.give(sel);
        t
    };
    // Keep everything strictly above the threshold, then fill the
    // remaining slots with threshold-magnitude elements by ascending
    // index.
    let above = match isa {
        Isa::Avx2 => simd::count_gt(&mags, kth),
        Isa::Scalar => mags.iter().filter(|&&m| m > kth).count(),
    };
    let mut at_budget = k - above;
    for (v, &m) in values.iter_mut().zip(mags.iter()) {
        if m > kth {
            continue;
        }
        if m == kth && at_budget > 0 {
            at_budget -= 1;
            continue;
        }
        *v = 0.0;
    }
    ws.give(mags);
}

/// Collects the indices of the `k` largest-magnitude elements, in
/// ascending index order — the selection kernel behind the sparse TopK
/// wire section. On finite input the survivor set is identical to
/// [`topk_mask`]'s: everything strictly above the k-th magnitude, plus
/// threshold ties filled by ascending index. Non-finite elements rank
/// as +∞ magnitude (they always survive), so a diverged tensor encodes
/// its poisoned entries verbatim instead of panicking mid-selection.
///
/// `out` is cleared first; scratch comes from `ws` (steady-state calls
/// allocate nothing). Requires `1 <= k`; `k >= values.len()` keeps
/// every index.
pub fn topk_indices(values: &[f32], k: usize, ws: &mut Workspace, out: &mut Vec<u32>) {
    topk_indices_with_isa(simd::active_isa(), values, k, ws, out);
}

/// [`topk_indices`] pinned to an explicit ISA tier (benchmark and
/// equivalence-test hook): same survivor set on every tier.
#[doc(hidden)]
pub fn topk_indices_with_isa(
    isa: Isa,
    values: &[f32],
    k: usize,
    ws: &mut Workspace,
    out: &mut Vec<u32>,
) {
    out.clear();
    let n = values.len();
    if k >= n {
        out.extend(0..n as u32);
        return;
    }
    debug_assert!(k >= 1, "topk_indices requires k >= 1");
    let mut mags = ws.take(n);
    match isa {
        Isa::Avx2 => simd::abs_or_inf_into(values, &mut mags),
        Isa::Scalar => {
            for (m, v) in mags.iter_mut().zip(values.iter()) {
                *m = if v.is_finite() {
                    v.abs()
                } else {
                    f32::INFINITY
                };
            }
        }
    }
    let kth = {
        let mut sel = ws.take(n);
        sel.copy_from_slice(&mags);
        sel.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a));
        let t = sel[k - 1];
        ws.give(sel);
        t
    };
    let above = match isa {
        Isa::Avx2 => simd::count_gt(&mags, kth),
        Isa::Scalar => mags.iter().filter(|&&m| m > kth).count(),
    };
    let mut at_budget = k - above;
    for (i, &m) in mags.iter().enumerate() {
        if m > kth {
            out.push(i as u32);
        } else if m == kth && at_budget > 0 {
            at_budget -= 1;
            out.push(i as u32);
        }
    }
    ws.give(mags);
}

/// Collects the indices of the `kept` blocks (of `block` contiguous
/// elements; the final block may be short) with the largest L2
/// norm, in ascending block order — the magnitude-structured selection
/// behind the pruned wire format. Ties resolve by ascending block
/// index; a block containing a non-finite element scores +∞ (diverged
/// blocks always survive, keeping the divergence visible downstream).
///
/// `out` is cleared first; scratch comes from `ws`. `block` must be
/// positive; `kept >=` the block count keeps every block.
pub fn top_block_indices(
    values: &[f32],
    block: usize,
    kept: usize,
    ws: &mut Workspace,
    out: &mut Vec<u32>,
) {
    debug_assert!(block >= 1, "block size must be positive");
    out.clear();
    let block = block.max(1);
    let n_blocks = values.len().div_ceil(block);
    if kept >= n_blocks {
        out.extend(0..n_blocks as u32);
        return;
    }
    debug_assert!(kept >= 1, "top_block_indices requires kept >= 1");
    let mut scores = ws.take(n_blocks);
    for (s, chunk) in scores.iter_mut().zip(values.chunks(block)) {
        let mut acc = 0.0f64;
        let mut finite = true;
        for &v in chunk {
            finite &= v.is_finite();
            acc += f64::from(v) * f64::from(v);
        }
        *s = if finite && acc.is_finite() {
            acc as f32
        } else {
            f32::INFINITY
        };
    }
    let kth = {
        let mut sel = ws.take(n_blocks);
        sel.copy_from_slice(&scores);
        sel.select_nth_unstable_by(kept - 1, |a, b| b.total_cmp(a));
        let t = sel[kept - 1];
        ws.give(sel);
        t
    };
    let above = scores.iter().filter(|&&s| s > kth).count();
    let mut at_budget = kept - above;
    for (b, &s) in scores.iter().enumerate() {
        if s > kth {
            out.push(b as u32);
        } else if s == kth && at_budget > 0 {
            at_budget -= 1;
            out.push(b as u32);
        }
    }
    ws.give(scores);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f16_round_trip_exact_for_representable_values() {
        for v in [0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0] {
            assert_eq!(f16_bits_to_f32(f32_to_f16_bits(v)), v, "{v}");
        }
    }

    #[test]
    fn f16_relative_error_bounded() {
        // Normal-range values: relative error ≤ 2^-11.
        let mut v: Vec<f32> = (1..2000).map(|i| (i as f32) * 0.37 - 350.0).collect();
        let orig = v.clone();
        fp16_roundtrip(&mut v);
        for (a, b) in v.iter().zip(&orig) {
            assert!(
                (a - b).abs() <= b.abs() * (1.0 / 2048.0) + 1e-24,
                "{b} → {a}"
            );
        }
    }

    #[test]
    fn f16_overflow_saturates_to_inf() {
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1e6)), f32::INFINITY);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(-1e6)), f32::NEG_INFINITY);
    }

    #[test]
    fn f16_subnormals_decode_exactly() {
        // Exactly-representable subnormals must round-trip bit-exactly:
        // frac × 2⁻²⁴ for frac in 1..1024.
        assert_eq!(
            f16_bits_to_f32(0x0001),
            2.0f32.powi(-24),
            "smallest subnormal"
        );
        assert_eq!(f16_bits_to_f32(0x0200), 2.0f32.powi(-15), "frac=512");
        assert_eq!(
            f16_bits_to_f32(0x03FF),
            1023.0 * 2.0f32.powi(-24),
            "largest subnormal"
        );
        for frac in [1u16, 3, 7, 255, 512, 1023] {
            let v = f32::from(frac) * 2.0f32.powi(-24);
            assert_eq!(f32_to_f16_bits(v), frac, "{v} encodes exactly");
            assert_eq!(f16_bits_to_f32(frac), v, "{frac:#06x} decodes exactly");
        }
        // Boundary: the largest subnormal + one step is the smallest
        // normal, 2⁻¹⁴.
        assert_eq!(f16_bits_to_f32(0x0400), 2.0f32.powi(-14));
        // Round trip of a non-representable subnormal stays within half
        // a subnormal step (2⁻²⁵).
        let tiny = 6.0e-8f32;
        let back = f16_bits_to_f32(f32_to_f16_bits(tiny));
        assert!((back - tiny).abs() <= 2.0f32.powi(-25), "{tiny} → {back}");
    }

    #[test]
    fn intq_is_deterministic_and_bounded() {
        let orig: Vec<f32> = (0..512)
            .map(|i| ((i * 7 % 101) as f32 - 50.0) * 0.1)
            .collect();
        let mut a = orig.clone();
        let mut b = orig.clone();
        intq_roundtrip(&mut a, 8, 42);
        intq_roundtrip(&mut b, 8, 42);
        assert_eq!(a, b, "same stream ⇒ same result");
        let scale = orig.iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let step = scale / 127.0;
        for (q, x) in a.iter().zip(&orig) {
            assert!((q - x).abs() <= step + 1e-6, "{x} → {q} (step {step})");
        }
        let mut c = orig.clone();
        intq_roundtrip(&mut c, 8, 43);
        assert_ne!(a, c, "different streams must differ");
    }

    #[test]
    fn intq_zero_slice_is_noop() {
        let mut v = vec![0.0f32; 16];
        intq_roundtrip(&mut v, 4, 0);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn topk_keeps_largest_and_breaks_ties_by_index() {
        let mut ws = Workspace::new();
        let mut v = vec![1.0f32, -3.0, 2.0, -2.0, 0.5];
        topk_mask(&mut v, 2, &mut ws);
        // |−3| and the first of the tied |2| magnitudes (index 2) survive.
        assert_eq!(v, vec![0.0, -3.0, 2.0, 0.0, 0.0]);
        let mut w = vec![5.0f32, 1.0];
        topk_mask(&mut w, 5, &mut ws);
        assert_eq!(w, vec![5.0, 1.0], "k ≥ n is a no-op");
        let mut z = vec![1.0f32, 2.0];
        topk_mask(&mut z, 0, &mut ws);
        assert_eq!(z, vec![0.0, 0.0]);
    }

    #[test]
    fn topk_passes_non_finite_slices_through() {
        // A diverged tensor must not panic the selection: the kernel
        // degrades to identity, like intq's non-finite-scale guard.
        let mut ws = Workspace::new();
        let mut v = vec![1.0f32, f32::NAN, 3.0, -2.0];
        let orig = v.clone();
        topk_mask(&mut v, 2, &mut ws);
        assert_eq!(v[0], orig[0]);
        assert!(v[1].is_nan());
        assert_eq!(&v[2..], &orig[2..]);
        let mut w = vec![1.0f32, f32::INFINITY];
        topk_mask(&mut w, 1, &mut ws);
        assert_eq!(w[0], 1.0);
    }

    #[test]
    fn topk_indices_match_the_mask_survivors() {
        let mut ws = Workspace::new();
        let v = vec![1.0f32, -3.0, 2.0, -2.0, 0.5];
        let mut idx = Vec::new();
        topk_indices(&v, 2, &mut ws, &mut idx);
        assert_eq!(idx, vec![1, 2], "|−3| and the first tied |2| survive");
        let mut masked = v.clone();
        topk_mask(&mut masked, 2, &mut ws);
        let from_mask: Vec<u32> = masked
            .iter()
            .enumerate()
            .filter(|(_, &x)| x != 0.0)
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(idx, from_mask, "same survivor set as the mask kernel");
        topk_indices(&v, 9, &mut ws, &mut idx);
        assert_eq!(idx, vec![0, 1, 2, 3, 4], "k ≥ n keeps everything");
    }

    #[test]
    fn topk_indices_rank_non_finite_first() {
        let mut ws = Workspace::new();
        let v = vec![1.0f32, f32::NAN, 3.0, f32::NEG_INFINITY];
        let mut idx = Vec::new();
        topk_indices(&v, 2, &mut ws, &mut idx);
        assert_eq!(idx, vec![1, 3], "non-finite entries always survive");
    }

    #[test]
    fn top_block_indices_pick_heavy_blocks_ties_ascending() {
        let mut ws = Workspace::new();
        // 4 blocks of 4: block 1 heavy, blocks 0 and 2 tied, block 3 light.
        let mut v = vec![0.0f32; 16];
        v[0..4].fill(1.0);
        v[4..8].fill(5.0);
        v[8..12].fill(1.0);
        v[12..16].fill(0.1);
        let mut idx = Vec::new();
        top_block_indices(&v, 4, 2, &mut ws, &mut idx);
        assert_eq!(idx, vec![0, 1], "tie between blocks 0 and 2 → lower index");
        top_block_indices(&v, 4, 9, &mut ws, &mut idx);
        assert_eq!(idx, vec![0, 1, 2, 3], "kept ≥ blocks keeps everything");
        // Non-finite poisons its block to the top.
        v[13] = f32::NAN;
        top_block_indices(&v, 4, 1, &mut ws, &mut idx);
        assert_eq!(idx, vec![3]);
    }

    #[test]
    fn topk_steady_state_allocs_stop() {
        let mut ws = Workspace::new();
        let mut v: Vec<f32> = (0..256).map(|i| (i as f32) - 77.5).collect();
        topk_mask(&mut v, 32, &mut ws);
        let warm = ws.fresh_allocs();
        for _ in 0..5 {
            topk_mask(&mut v, 32, &mut ws);
        }
        assert_eq!(ws.fresh_allocs(), warm, "top-k must recycle its scratch");
    }
}
