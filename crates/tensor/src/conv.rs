//! 2-D convolution via whole-batch im2col/col2im.
//!
//! The forward pass lowers the **entire batch** to one
//! `[c·k_h·k_w, n·out_h·out_w]` column matrix and reduces convolution to a
//! single GEMM (the historical per-sample lowering survives as
//! [`crate::reference::conv2d_forward`], the equivalence-test oracle and
//! kernel perf baseline; no production path dispatches to it). The backward pass reuses the same lowering: one
//! GEMM for the weight gradient, one for the column gradient, then a
//! batched col2im scatter. All scratch comes from a [`Workspace`], so the
//! steady-state hot path performs no heap allocation.
//!
//! Reduction-order note: forward outputs, input gradients and bias
//! gradients accumulate in exactly the per-sample order of the reference
//! implementation (bit-identical results); the batched weight-gradient
//! GEMM sums over the whole batch in one stream rather than
//! per-sample-then-add, which regroups the f32 additions (equal within
//! epsilon, not within bits — asserted by the property tests).

use crate::matmul::{gemm_a_bt_into, gemm_into, transpose_into};
use crate::simd::{active_isa, Isa};
use crate::workspace::Workspace;
use crate::{Result, Tensor, TensorError};

/// Validated convolution geometry.
///
/// # Example
///
/// ```
/// use gsfl_tensor::conv::ConvGeom;
///
/// # fn main() -> Result<(), gsfl_tensor::TensorError> {
/// let g = ConvGeom::new(32, 32, 3, 3, 1, 1)?;
/// assert_eq!((g.out_h, g.out_w), (32, 32)); // "same" padding
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeom {
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub k_h: usize,
    /// Kernel width.
    pub k_w: usize,
    /// Stride (same in both directions).
    pub stride: usize,
    /// Zero padding (same on all sides).
    pub pad: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

impl ConvGeom {
    /// Computes and validates output geometry.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] when the kernel (with
    /// padding) does not fit in the input or stride is zero.
    pub fn new(
        in_h: usize,
        in_w: usize,
        k_h: usize,
        k_w: usize,
        stride: usize,
        pad: usize,
    ) -> Result<Self> {
        if stride == 0 {
            return Err(TensorError::InvalidGeometry("stride must be ≥ 1".into()));
        }
        if k_h == 0 || k_w == 0 {
            return Err(TensorError::InvalidGeometry("kernel must be ≥ 1×1".into()));
        }
        let padded_h = in_h + 2 * pad;
        let padded_w = in_w + 2 * pad;
        if k_h > padded_h || k_w > padded_w {
            return Err(TensorError::InvalidGeometry(format!(
                "kernel {k_h}×{k_w} larger than padded input {padded_h}×{padded_w}"
            )));
        }
        Ok(ConvGeom {
            in_h,
            in_w,
            k_h,
            k_w,
            stride,
            pad,
            out_h: (padded_h - k_h) / stride + 1,
            out_w: (padded_w - k_w) / stride + 1,
        })
    }
}

/// The range of output columns `ox` for which the tap column
/// `ox·stride + kw - pad` lands inside `[0, in_w)`, or `None` when no
/// output position is valid for this tap (a kernel column that only
/// ever sees padding — possible when the kernel is wider than
/// `in_w + pad`). A returned `(lo, hi)` satisfies `lo < hi ≤ out_w` and
/// `lo·stride + kw ≥ pad`, so `ix0 = lo·stride + kw - pad` cannot
/// underflow.
#[inline]
fn valid_ox_range(g: &ConvGeom, kw: usize) -> Option<(usize, usize)> {
    // ox·stride + kw - pad ≥ 0  ⇔  ox ≥ ceil((pad - kw) / stride)
    let lo = g.pad.saturating_sub(kw).div_ceil(g.stride);
    // ox·stride + kw - pad ≤ in_w - 1  ⇔  ox ≤ (in_w - 1 + pad - kw) / stride
    let hi = ((g.in_w + g.pad).checked_sub(kw + 1)? / g.stride + 1).min(g.out_w);
    if lo < hi {
        Some((lo, hi))
    } else {
        None
    }
}

/// Fills one lowered row segment: the `out_h·out_w` patch values of
/// kernel tap `(kh, kw)` over one input plane. Every element of `seg`
/// is written (padding positions get an explicit zero), and the valid
/// span is a branch-free copy — contiguous for stride 1.
#[inline]
fn fill_patch_row(plane: &[f32], g: &ConvGeom, kh: usize, kw: usize, seg: &mut [f32]) {
    let Some((ox_lo, ox_hi)) = valid_ox_range(g, kw) else {
        seg.fill(0.0);
        return;
    };
    for oy in 0..g.out_h {
        let dst_row = &mut seg[oy * g.out_w..(oy + 1) * g.out_w];
        let iy = (oy * g.stride + kh) as isize - g.pad as isize;
        if iy < 0 || iy >= g.in_h as isize {
            dst_row.fill(0.0);
            continue;
        }
        let src_row = &plane[iy as usize * g.in_w..(iy as usize + 1) * g.in_w];
        dst_row[..ox_lo].fill(0.0);
        dst_row[ox_hi..].fill(0.0);
        let ix0 = ox_lo * g.stride + kw - g.pad;
        if g.stride == 1 {
            dst_row[ox_lo..ox_hi].copy_from_slice(&src_row[ix0..ix0 + (ox_hi - ox_lo)]);
        } else {
            for (i, d) in dst_row[ox_lo..ox_hi].iter_mut().enumerate() {
                *d = src_row[ix0 + i * g.stride];
            }
        }
    }
}

/// Lowers a whole `[n, c, in_h, in_w]` batch into the column matrix
/// `out: [c·k_h·k_w, n·out_h·out_w]`, where column `s·P + p` holds
/// patch `p` of sample `s` (`P = out_h·out_w`). Every element of `out`
/// is written, so callers may hand in uninitialized scratch.
fn im2col_batch(input: &[f32], n: usize, c: usize, g: &ConvGeom, out: &mut [f32]) {
    let p = g.out_h * g.out_w;
    let np = n * p;
    let plane_len = g.in_h * g.in_w;
    for ch in 0..c {
        for kh in 0..g.k_h {
            for kw in 0..g.k_w {
                let row = (ch * g.k_h + kh) * g.k_w + kw;
                let out_row = &mut out[row * np..(row + 1) * np];
                for (s, seg) in out_row.chunks_exact_mut(p).enumerate() {
                    let plane = &input[(s * c + ch) * plane_len..(s * c + ch + 1) * plane_len];
                    fill_patch_row(plane, g, kh, kw, seg);
                }
            }
        }
    }
}

/// Scatters a `[c·k_h·k_w, n·out_h·out_w]` column-gradient matrix back
/// into the `[n, c, in_h, in_w]` gradient buffer (accumulating overlaps).
/// For each sample the accumulation order matches the reference
/// per-sample col2im exactly.
fn col2im_batch(cols: &[f32], n: usize, c: usize, g: &ConvGeom, out: &mut [f32]) {
    let p = g.out_h * g.out_w;
    let np = n * p;
    let plane_len = g.in_h * g.in_w;
    for ch in 0..c {
        for kh in 0..g.k_h {
            for kw in 0..g.k_w {
                let row = (ch * g.k_h + kh) * g.k_w + kw;
                let col_row = &cols[row * np..(row + 1) * np];
                let Some((ox_lo, ox_hi)) = valid_ox_range(g, kw) else {
                    // This tap column only ever sees padding; nothing to
                    // scatter back.
                    continue;
                };
                for (s, seg) in col_row.chunks_exact(p).enumerate() {
                    let plane = &mut out[(s * c + ch) * plane_len..(s * c + ch + 1) * plane_len];
                    for oy in 0..g.out_h {
                        let iy = (oy * g.stride + kh) as isize - g.pad as isize;
                        if iy < 0 || iy >= g.in_h as isize {
                            continue;
                        }
                        let dst_row = &mut plane[iy as usize * g.in_w..(iy as usize + 1) * g.in_w];
                        let src_row = &seg[oy * g.out_w..(oy + 1) * g.out_w];
                        let ix0 = ox_lo * g.stride + kw - g.pad;
                        if g.stride == 1 {
                            let dst = &mut dst_row[ix0..ix0 + (ox_hi - ox_lo)];
                            for (d, &v) in dst.iter_mut().zip(&src_row[ox_lo..ox_hi]) {
                                *d += v;
                            }
                        } else {
                            for (i, &v) in src_row[ox_lo..ox_hi].iter().enumerate() {
                                dst_row[ix0 + i * g.stride] += v;
                            }
                        }
                    }
                }
            }
        }
    }
}

fn check_forward_shapes(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
) -> Result<(usize, usize, usize, usize, usize, usize, usize)> {
    let (n, c_in, h, w) = input.shape().as_nchw()?;
    let (c_out, wc_in, k_h, k_w) = weight.shape().as_nchw()?;
    if wc_in != c_in {
        return Err(TensorError::ShapeMismatch {
            left: input.dims().to_vec(),
            right: weight.dims().to_vec(),
            op: "conv2d_forward",
        });
    }
    if bias.numel() != c_out {
        return Err(TensorError::ShapeMismatch {
            left: vec![c_out],
            right: bias.dims().to_vec(),
            op: "conv2d_forward(bias)",
        });
    }
    Ok((n, c_in, h, w, c_out, k_h, k_w))
}

/// Forward 2-D convolution.
///
/// * `input`  — `[n, c_in, h, w]`
/// * `weight` — `[c_out, c_in, k_h, k_w]`
/// * `bias`   — `[c_out]`
///
/// Returns `[n, c_out, out_h, out_w]`.
///
/// # Errors
///
/// Returns a geometry or shape error when the operand shapes are
/// inconsistent.
pub fn conv2d_forward(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    stride: usize,
    pad: usize,
) -> Result<Tensor> {
    let mut ws = Workspace::new();
    conv2d_forward_ws(input, weight, bias, stride, pad, &mut ws)
}

/// [`conv2d_forward`] drawing all scratch (and the output) from `ws`.
///
/// # Errors
///
/// Same conditions as [`conv2d_forward`].
pub fn conv2d_forward_ws(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    stride: usize,
    pad: usize,
    ws: &mut Workspace,
) -> Result<Tensor> {
    let (out, cols) = conv2d_forward_ws_cols(input, weight, bias, stride, pad, ws)?;
    ws.recycle(cols);
    Ok(out)
}

/// [`conv2d_forward_ws`] that additionally returns the lowered
/// `[c·k_h·k_w, n·out_h·out_w]` column matrix, so a training layer can
/// hand it straight to [`conv2d_backward_from_cols`] and skip the
/// re-lowering. Both tensors own workspace buffers — recycle when done.
///
/// # Errors
///
/// Same conditions as [`conv2d_forward`].
pub fn conv2d_forward_ws_cols(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    stride: usize,
    pad: usize,
    ws: &mut Workspace,
) -> Result<(Tensor, Tensor)> {
    let isa = active_isa();
    let (n, c_in, h, w, c_out, k_h, k_w) = check_forward_shapes(input, weight, bias)?;
    let g = ConvGeom::new(h, w, k_h, k_w, stride, pad)?;
    let ckk = c_in * k_h * k_w;
    let p = g.out_h * g.out_w;
    let np = n * p;

    let mut cols = ws.take(ckk * np);
    im2col_batch(input.data(), n, c_in, &g, &mut cols);

    // One GEMM for the whole batch: [c_out × ckk] · [ckk × n·P].
    let mut y = ws.take(c_out * np);
    gemm_into(isa, c_out, ckk, np, weight.data(), &cols, &mut y);

    // Scatter [c_out, n·P] → [n, c_out, P], adding the bias at the store.
    let mut out = ws.take(n * c_out * p);
    for (co, y_row) in y.chunks_exact(np).enumerate() {
        let b = bias.data()[co];
        for (s, src) in y_row.chunks_exact(p).enumerate() {
            let dst = &mut out[(s * c_out + co) * p..(s * c_out + co + 1) * p];
            for (o, &v) in dst.iter_mut().zip(src) {
                *o = v + b;
            }
        }
    }
    ws.give(y);
    Ok((
        Tensor::from_vec(out, &[n, c_out, g.out_h, g.out_w])?,
        Tensor::from_vec(cols, &[ckk, np])?,
    ))
}

/// Gradients of a 2-D convolution.
///
/// Given the forward operands and the output gradient
/// `grad_out: [n, c_out, out_h, out_w]`, returns
/// `(grad_input, grad_weight, grad_bias)` with the operand shapes.
///
/// # Errors
///
/// Returns a geometry or shape error when the operand shapes are
/// inconsistent with the forward pass.
pub fn conv2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    pad: usize,
) -> Result<(Tensor, Tensor, Tensor)> {
    let mut ws = Workspace::new();
    conv2d_backward_ws(input, weight, grad_out, stride, pad, &mut ws)
}

/// [`conv2d_backward`] drawing all scratch (and the outputs) from `ws`.
/// The returned gradients own workspace buffers — recycle them back with
/// [`Workspace::recycle`] once consumed to keep the steady state
/// allocation-free.
///
/// # Errors
///
/// Same conditions as [`conv2d_backward`].
pub fn conv2d_backward_ws(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    pad: usize,
    ws: &mut Workspace,
) -> Result<(Tensor, Tensor, Tensor)> {
    let (n, c_in, h, w) = input.shape().as_nchw()?;
    let (_, _, k_h, k_w) = weight.shape().as_nchw()?;
    let g = ConvGeom::new(h, w, k_h, k_w, stride, pad)?;
    let ckk = c_in * k_h * k_w;
    let np = n * g.out_h * g.out_w;
    let mut cols = ws.take(ckk * np);
    im2col_batch(input.data(), n, c_in, &g, &mut cols);
    let cols = Tensor::from_vec(cols, &[ckk, np])?;
    let result = conv2d_backward_from_cols(input.dims(), &cols, weight, grad_out, stride, pad, ws);
    ws.recycle(cols);
    result
}

/// [`conv2d_backward_ws`] reusing a column matrix the forward pass
/// already produced (see [`conv2d_forward_ws_cols`]), skipping the
/// re-lowering entirely.
///
/// # Errors
///
/// Same conditions as [`conv2d_backward`], plus a shape error when
/// `cols` does not match the geometry.
pub fn conv2d_backward_from_cols(
    input_dims: &[usize],
    cols: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    pad: usize,
    ws: &mut Workspace,
) -> Result<(Tensor, Tensor, Tensor)> {
    let (n, c_in, h, w) = crate::Shape::new(input_dims).as_nchw()?;
    let (c_out, _, k_h, k_w) = weight.shape().as_nchw()?;
    let (gn, gc, gh, gw) = grad_out.shape().as_nchw()?;
    let g = ConvGeom::new(h, w, k_h, k_w, stride, pad)?;
    if gn != n || gc != c_out || gh != g.out_h || gw != g.out_w {
        return Err(TensorError::ShapeMismatch {
            left: vec![n, c_out, g.out_h, g.out_w],
            right: grad_out.dims().to_vec(),
            op: "conv2d_backward",
        });
    }
    let ckk = c_in * k_h * k_w;
    let p = g.out_h * g.out_w;
    let np = n * p;
    if cols.dims() != [ckk, np] {
        return Err(TensorError::ShapeMismatch {
            left: vec![ckk, np],
            right: cols.dims().to_vec(),
            op: "conv2d_backward(cols)",
        });
    }

    let isa = active_isa();
    let (dy, grad_w, grad_b) = backward_params(isa, cols, grad_out, c_out, ckk, p, np, ws);

    // dX_cols = Wᵀ · dY (one GEMM), scattered back with batched col2im.
    let mut w_t = ws.take(ckk * c_out);
    transpose_into(weight.data(), c_out, ckk, &mut w_t);
    let mut dcols = ws.take(ckk * np);
    gemm_into(isa, ckk, c_out, np, &w_t, dy.data(), &mut dcols);
    ws.give(w_t);
    ws.recycle(dy);

    let mut grad_in = ws.take_zeroed(n * c_in * h * w);
    col2im_batch(&dcols, n, c_in, &g, &mut grad_in);
    ws.give(dcols);

    Ok((
        Tensor::from_vec(grad_in, input_dims)?,
        Tensor::from_vec(grad_w, &[c_out, c_in, k_h, k_w])?,
        Tensor::from_vec(grad_b, &[c_out])?,
    ))
}

/// Parameter-gradient-only twin of [`conv2d_backward_from_cols`]: skips
/// the input gradient (GEMM + col2im) entirely. Training loops use this
/// for the **first** layer of a network, whose input gradient nothing
/// consumes. Returns `(grad_weight, grad_bias)` with the same values as
/// the full backward.
///
/// # Errors
///
/// Same conditions as [`conv2d_backward_from_cols`].
pub fn conv2d_backward_params_from_cols(
    input_dims: &[usize],
    cols: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    stride: usize,
    pad: usize,
    ws: &mut Workspace,
) -> Result<(Tensor, Tensor)> {
    let (n, c_in, h, w) = crate::Shape::new(input_dims).as_nchw()?;
    let (c_out, _, k_h, k_w) = weight.shape().as_nchw()?;
    let (gn, gc, gh, gw) = grad_out.shape().as_nchw()?;
    let g = ConvGeom::new(h, w, k_h, k_w, stride, pad)?;
    if gn != n || gc != c_out || gh != g.out_h || gw != g.out_w {
        return Err(TensorError::ShapeMismatch {
            left: vec![n, c_out, g.out_h, g.out_w],
            right: grad_out.dims().to_vec(),
            op: "conv2d_backward",
        });
    }
    let ckk = c_in * k_h * k_w;
    let p = g.out_h * g.out_w;
    let np = n * p;
    if cols.dims() != [ckk, np] {
        return Err(TensorError::ShapeMismatch {
            left: vec![ckk, np],
            right: cols.dims().to_vec(),
            op: "conv2d_backward(cols)",
        });
    }
    let (dy, grad_w, grad_b) = backward_params(active_isa(), cols, grad_out, c_out, ckk, p, np, ws);
    ws.recycle(dy);
    Ok((
        Tensor::from_vec(grad_w, &[c_out, c_in, k_h, k_w])?,
        Tensor::from_vec(grad_b, &[c_out])?,
    ))
}

/// Shared dY gather + bias/weight gradient computation. Returns the
/// gathered `[c_out, n·P]` dY (as a tensor for recycling) plus the raw
/// grad buffers.
#[allow(clippy::too_many_arguments)]
fn backward_params(
    isa: Isa,
    cols: &Tensor,
    grad_out: &Tensor,
    c_out: usize,
    ckk: usize,
    p: usize,
    np: usize,
    ws: &mut Workspace,
) -> (Tensor, Vec<f32>, Vec<f32>) {
    // dY as [c_out, n·P]: gather from the [n, c_out, P] layout.
    let mut dy = ws.take(c_out * np);
    for (co, dy_row) in dy.chunks_exact_mut(np).enumerate() {
        for (s, dst) in dy_row.chunks_exact_mut(p).enumerate() {
            dst.copy_from_slice(&grad_out.data()[(s * c_out + co) * p..(s * c_out + co + 1) * p]);
        }
    }

    // dB: per-sample spatial sums, added sample-by-sample (matching the
    // reference accumulation grouping exactly).
    let mut grad_b = ws.take(c_out);
    for (gb, dy_row) in grad_b.iter_mut().zip(dy.chunks_exact(np)) {
        let mut acc = 0.0f32;
        for seg in dy_row.chunks_exact(p) {
            acc += seg.iter().sum::<f32>();
        }
        *gb = acc;
    }

    // dW = dY · colsᵀ: lane-chunked dot products straight off the two
    // row-major operands — no transpose materialized.
    let mut grad_w = ws.take(c_out * ckk);
    gemm_a_bt_into(isa, c_out, np, ckk, &dy, cols.data(), &mut grad_w);
    let dy = Tensor::from_vec(dy, &[c_out, np]).expect("dy sized by construction");
    (dy, grad_w, grad_b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    /// Direct convolution, the slow-but-obviously-correct reference.
    fn conv_naive(
        input: &Tensor,
        weight: &Tensor,
        bias: &Tensor,
        stride: usize,
        pad: usize,
    ) -> Tensor {
        let (n, c_in, h, w) = input.shape().as_nchw().unwrap();
        let (c_out, _, k_h, k_w) = weight.shape().as_nchw().unwrap();
        let g = ConvGeom::new(h, w, k_h, k_w, stride, pad).unwrap();
        let mut out = Tensor::zeros(&[n, c_out, g.out_h, g.out_w]);
        for s in 0..n {
            for co in 0..c_out {
                for oy in 0..g.out_h {
                    for ox in 0..g.out_w {
                        let mut acc = bias.data()[co];
                        for ci in 0..c_in {
                            for kh in 0..k_h {
                                for kw in 0..k_w {
                                    let iy = (oy * stride + kh) as isize - pad as isize;
                                    let ix = (ox * stride + kw) as isize - pad as isize;
                                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                        continue;
                                    }
                                    acc += input.get(&[s, ci, iy as usize, ix as usize]).unwrap()
                                        * weight.get(&[co, ci, kh, kw]).unwrap();
                                }
                            }
                        }
                        out.set(&[s, co, oy, ox], acc).unwrap();
                    }
                }
            }
        }
        out
    }

    fn sample_tensors(
        n: usize,
        c_in: usize,
        h: usize,
        w: usize,
        c_out: usize,
        k: usize,
    ) -> (Tensor, Tensor, Tensor) {
        let input = Tensor::from_fn(&[n, c_in, h, w], |i| ((i * 37 % 17) as f32 - 8.0) * 0.1);
        let weight = Tensor::from_fn(&[c_out, c_in, k, k], |i| {
            ((i * 53 % 13) as f32 - 6.0) * 0.05
        });
        let bias = Tensor::from_fn(&[c_out], |i| i as f32 * 0.01);
        (input, weight, bias)
    }

    #[test]
    fn forward_matches_naive_same_padding() {
        let (input, weight, bias) = sample_tensors(2, 3, 6, 6, 4, 3);
        let fast = conv2d_forward(&input, &weight, &bias, 1, 1).unwrap();
        let slow = conv_naive(&input, &weight, &bias, 1, 1);
        assert!(fast.approx_eq(&slow, 1e-4));
    }

    #[test]
    fn forward_matches_naive_stride2_nopad() {
        let (input, weight, bias) = sample_tensors(1, 2, 7, 5, 3, 3);
        let fast = conv2d_forward(&input, &weight, &bias, 2, 0).unwrap();
        let slow = conv_naive(&input, &weight, &bias, 2, 0);
        assert_eq!(fast.dims(), slow.dims());
        assert!(fast.approx_eq(&slow, 1e-4));
    }

    #[test]
    fn forward_bit_identical_to_per_sample_reference() {
        for &(n, c_in, hw, c_out, k, stride, pad) in &[
            (1usize, 1usize, 5usize, 1usize, 3usize, 1usize, 0usize),
            (3, 2, 8, 4, 3, 1, 1),
            (4, 3, 9, 5, 3, 2, 1),
            (2, 4, 6, 3, 5, 1, 2),
        ] {
            let (input, weight, bias) = sample_tensors(n, c_in, hw, hw, c_out, k);
            let fast = conv2d_forward(&input, &weight, &bias, stride, pad).unwrap();
            let refr = reference::conv2d_forward(&input, &weight, &bias, stride, pad).unwrap();
            assert_eq!(
                fast.data(),
                refr.data(),
                "n={n} c_in={c_in} hw={hw} c_out={c_out} k={k} s={stride} p={pad}"
            );
        }
    }

    #[test]
    fn backward_matches_reference_kernels() {
        let (input, weight, bias) = sample_tensors(3, 2, 6, 6, 4, 3);
        let out = conv2d_forward(&input, &weight, &bias, 1, 1).unwrap();
        let grad_out = Tensor::from_fn(out.dims(), |i| ((i * 29 % 11) as f32 - 5.0) * 0.2);
        let (gx, gw, gb) = conv2d_backward(&input, &weight, &grad_out, 1, 1).unwrap();
        let (rx, rw, rb) = reference::conv2d_backward(&input, &weight, &grad_out, 1, 1).unwrap();
        // Input and bias gradients preserve the reference accumulation
        // order bit for bit; the batched dW GEMM regroups the sum.
        assert_eq!(gx.data(), rx.data(), "grad_input must be bit-identical");
        assert_eq!(gb.data(), rb.data(), "grad_bias must be bit-identical");
        assert!(gw.approx_eq(&rw, 1e-4), "grad_weight within epsilon");
    }

    #[test]
    fn geometry_validation() {
        assert!(ConvGeom::new(4, 4, 5, 5, 1, 0).is_err());
        assert!(ConvGeom::new(4, 4, 5, 5, 1, 1).is_ok());
        assert!(ConvGeom::new(4, 4, 3, 3, 0, 0).is_err());
        assert!(ConvGeom::new(4, 4, 0, 1, 1, 0).is_err());
    }

    #[test]
    fn backward_weight_grad_matches_finite_difference() {
        let (input, weight, bias) = sample_tensors(1, 2, 5, 5, 2, 3);
        let out = conv2d_forward(&input, &weight, &bias, 1, 1).unwrap();
        // Loss = sum of outputs ⇒ grad_out = ones.
        let grad_out = Tensor::ones(out.dims());
        let (_, gw, gb) = conv2d_backward(&input, &weight, &grad_out, 1, 1).unwrap();
        let eps = 1e-2f32;
        // Check a scattering of weight coordinates.
        for &flat in &[0usize, 5, 11, 17, 23, 35] {
            let mut wp = weight.clone();
            wp.data_mut()[flat] += eps;
            let fp = conv2d_forward(&input, &wp, &bias, 1, 1).unwrap().sum();
            let mut wm = weight.clone();
            wm.data_mut()[flat] -= eps;
            let fm = conv2d_forward(&input, &wm, &bias, 1, 1).unwrap().sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (fd - gw.data()[flat]).abs() < 2e-2,
                "weight grad mismatch at {flat}: fd={fd}, analytic={}",
                gw.data()[flat]
            );
        }
        // Bias gradient under sum-loss is just the number of output pixels.
        let plane =
            (out.numel() / out.dims()[1]) as f32 / out.dims()[0] as f32 * out.dims()[0] as f32;
        for &g in gb.data() {
            assert!((g - plane).abs() < 1e-3);
        }
    }

    #[test]
    fn backward_input_grad_matches_finite_difference() {
        let (input, weight, bias) = sample_tensors(1, 2, 4, 4, 2, 3);
        let out = conv2d_forward(&input, &weight, &bias, 1, 1).unwrap();
        let grad_out = Tensor::ones(out.dims());
        let (gx, _, _) = conv2d_backward(&input, &weight, &grad_out, 1, 1).unwrap();
        let eps = 1e-2f32;
        for &flat in &[0usize, 7, 15, 21, 31] {
            let mut ip = input.clone();
            ip.data_mut()[flat] += eps;
            let fp = conv2d_forward(&ip, &weight, &bias, 1, 1).unwrap().sum();
            let mut im = input.clone();
            im.data_mut()[flat] -= eps;
            let fm = conv2d_forward(&im, &weight, &bias, 1, 1).unwrap().sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (fd - gx.data()[flat]).abs() < 2e-2,
                "input grad mismatch at {flat}: fd={fd}, analytic={}",
                gx.data()[flat]
            );
        }
    }

    #[test]
    fn backward_rejects_mismatched_grad() {
        let (input, weight, _) = sample_tensors(1, 2, 5, 5, 2, 3);
        let bad = Tensor::zeros(&[1, 2, 9, 9]);
        assert!(conv2d_backward(&input, &weight, &bad, 1, 1).is_err());
    }

    #[test]
    fn kernel_wider_than_padded_span_matches_reference() {
        // A 5×5 kernel on a 5×1 input with pad 2: the outermost kernel
        // columns never see a real pixel (kw ± pad walks off both
        // sides), so their valid-ox span is empty. Regression test for a
        // usize underflow in the fast lowering (reference handled it).
        let input = Tensor::from_fn(&[1, 1, 5, 1], |i| i as f32 - 2.0);
        let weight = Tensor::from_fn(&[1, 1, 5, 5], |i| ((i * 7 % 11) as f32 - 5.0) * 0.1);
        let bias = Tensor::from_vec(vec![0.25], &[1]).unwrap();
        let fast = conv2d_forward(&input, &weight, &bias, 1, 2).unwrap();
        let slow = reference::conv2d_forward(&input, &weight, &bias, 1, 2).unwrap();
        assert_eq!(fast.data(), slow.data());

        let grad_out = Tensor::ones(fast.dims());
        let (gx, gw, gb) = conv2d_backward(&input, &weight, &grad_out, 1, 2).unwrap();
        let (rx, rw, rb) = reference::conv2d_backward(&input, &weight, &grad_out, 1, 2).unwrap();
        assert_eq!(gx.data(), rx.data());
        assert_eq!(gb.data(), rb.data());
        assert!(gw.approx_eq(&rw, 1e-4));
    }

    #[test]
    fn batched_im2col_identity_kernel_1x1() {
        // With a 1×1 kernel, im2col is the identity reshape per sample.
        let g = ConvGeom::new(3, 3, 1, 1, 1, 0).unwrap();
        let batch: Vec<f32> = (0..18).map(|i| i as f32).collect();
        let mut cols = vec![0.0f32; 18];
        im2col_batch(&batch, 2, 1, &g, &mut cols);
        assert_eq!(cols, batch);
    }

    #[test]
    fn workspace_steady_state_is_allocation_free() {
        let (input, weight, bias) = sample_tensors(2, 2, 6, 6, 3, 3);
        let mut ws = Workspace::new();
        let warm = |ws: &mut Workspace| {
            let y = conv2d_forward_ws(&input, &weight, &bias, 1, 1, ws).unwrap();
            let grad_out = Tensor::ones(y.dims());
            ws.recycle(y);
            let (gx, gw, gb) = conv2d_backward_ws(&input, &weight, &grad_out, 1, 1, ws).unwrap();
            ws.recycle(gx);
            ws.recycle(gw);
            ws.recycle(gb);
        };
        warm(&mut ws);
        let after_first = ws.fresh_allocs();
        warm(&mut ws);
        warm(&mut ws);
        assert_eq!(
            ws.fresh_allocs(),
            after_first,
            "steady-state conv fwd+bwd must not allocate"
        );
    }
}
