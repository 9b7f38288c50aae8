//! The pre-optimization kernels, preserved verbatim.
//!
//! These are the original naive implementations the fast paths in
//! [`crate::matmul`] and [`crate::conv`] replaced: the `i-k-j` GEMM with
//! its zero-skip branch, the dot-product transposed variants, and the
//! per-sample im2col convolution. No production path dispatches to them;
//! they serve two purposes:
//!
//! * **test oracle** — equivalence property tests (tensor, SIMD and
//!   layer level) assert the fast kernels reproduce these (bit-exactly
//!   where the reduction order is preserved);
//! * **kernel perf baseline** — the `perf_suite` benchmark harness times
//!   them against the fast kernels in the same process, so the kernel
//!   rows' speedups stay measured.

use crate::conv::ConvGeom;
use crate::{Result, Tensor, TensorError};

/// Naive `C = A · B` (`i-k-j` loop order with the historical zero-skip).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] / [`TensorError::MatmulDimMismatch`]
/// on malformed inputs.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = a.shape().as_matrix()?;
    let (k2, n) = b.shape().as_matrix()?;
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch {
            left_cols: k,
            right_rows: k2,
        });
    }
    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    for i in 0..m {
        let out_row = &mut out[i * n..(i + 1) * n];
        for kk in 0..k {
            let aik = ad[i * k + kk];
            if aik == 0.0 {
                continue;
            }
            let b_row = &bd[kk * n..(kk + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += aik * bv;
            }
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// Naive `C = Aᵀ · B` without materializing `Aᵀ`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] / [`TensorError::MatmulDimMismatch`]
/// on malformed inputs.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (k, m) = a.shape().as_matrix()?;
    let (k2, n) = b.shape().as_matrix()?;
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch {
            left_cols: k,
            right_rows: k2,
        });
    }
    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    for kk in 0..k {
        let a_row = &ad[kk * m..(kk + 1) * m];
        let b_row = &bd[kk * n..(kk + 1) * n];
        for (i, &av) in a_row.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let out_row = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// Naive `C = A · Bᵀ` (row-by-row dot products).
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] / [`TensorError::MatmulDimMismatch`]
/// on malformed inputs.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = a.shape().as_matrix()?;
    let (n, k2) = b.shape().as_matrix()?;
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch {
            left_cols: k,
            right_rows: k2,
        });
    }
    let mut out = vec![0.0f32; m * n];
    let ad = a.data();
    let bd = b.data();
    for i in 0..m {
        let a_row = &ad[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (j, o) in out_row.iter_mut().enumerate() {
            let b_row = &bd[j * k..(j + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc += av * bv;
            }
            *o = acc;
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// Lowers one `[c, in_h, in_w]` sample (given as a flat slice) to a
/// `[c*k_h*k_w, out_h*out_w]` column matrix — the per-sample lowering the
/// batched fast path replaced.
pub fn im2col(sample: &[f32], c: usize, g: &ConvGeom) -> Tensor {
    let rows = c * g.k_h * g.k_w;
    let cols = g.out_h * g.out_w;
    let mut out = vec![0.0f32; rows * cols];
    for ch in 0..c {
        let plane = &sample[ch * g.in_h * g.in_w..(ch + 1) * g.in_h * g.in_w];
        for kh in 0..g.k_h {
            for kw in 0..g.k_w {
                let row = (ch * g.k_h + kh) * g.k_w + kw;
                let out_row = &mut out[row * cols..(row + 1) * cols];
                for oy in 0..g.out_h {
                    let iy = (oy * g.stride + kh) as isize - g.pad as isize;
                    if iy < 0 || iy >= g.in_h as isize {
                        continue;
                    }
                    for ox in 0..g.out_w {
                        let ix = (ox * g.stride + kw) as isize - g.pad as isize;
                        if ix < 0 || ix >= g.in_w as isize {
                            continue;
                        }
                        out_row[oy * g.out_w + ox] = plane[iy as usize * g.in_w + ix as usize];
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &[rows, cols]).expect("im2col buffer sized by construction")
}

/// Scatters a `[c*k_h*k_w, out_h*out_w]` column-gradient matrix back into a
/// flat `[c, in_h, in_w]` input-gradient slice (accumulating overlaps).
fn col2im(cols_t: &Tensor, c: usize, g: &ConvGeom, out: &mut [f32]) {
    let cols = g.out_h * g.out_w;
    let data = cols_t.data();
    for ch in 0..c {
        let plane = &mut out[ch * g.in_h * g.in_w..(ch + 1) * g.in_h * g.in_w];
        for kh in 0..g.k_h {
            for kw in 0..g.k_w {
                let row = (ch * g.k_h + kh) * g.k_w + kw;
                let col_row = &data[row * cols..(row + 1) * cols];
                for oy in 0..g.out_h {
                    let iy = (oy * g.stride + kh) as isize - g.pad as isize;
                    if iy < 0 || iy >= g.in_h as isize {
                        continue;
                    }
                    for ox in 0..g.out_w {
                        let ix = (ox * g.stride + kw) as isize - g.pad as isize;
                        if ix < 0 || ix >= g.in_w as isize {
                            continue;
                        }
                        plane[iy as usize * g.in_w + ix as usize] += col_row[oy * g.out_w + ox];
                    }
                }
            }
        }
    }
}

/// Forward 2-D convolution, one im2col + GEMM per sample.
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
    let g = ConvGeom::new(h, w, k_h, k_w, stride, pad)?;
    let w_mat = weight.reshape(&[c_out, c_in * k_h * k_w])?;
    let sample_len = c_in * h * w;
    let out_plane = g.out_h * g.out_w;
    let mut out = vec![0.0f32; n * c_out * out_plane];
    for s in 0..n {
        let cols = im2col(
            &input.data()[s * sample_len..(s + 1) * sample_len],
            c_in,
            &g,
        );
        let y = matmul(&w_mat, &cols)?; // [c_out, out_plane]
        let dst = &mut out[s * c_out * out_plane..(s + 1) * c_out * out_plane];
        for co in 0..c_out {
            let b = bias.data()[co];
            let src = &y.data()[co * out_plane..(co + 1) * out_plane];
            let d = &mut dst[co * out_plane..(co + 1) * out_plane];
            for (o, &v) in d.iter_mut().zip(src) {
                *o = v + b;
            }
        }
    }
    Tensor::from_vec(out, &[n, c_out, g.out_h, g.out_w])
}

/// Gradients of a 2-D convolution, re-lowering and multiplying per sample.
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
    let (n, c_in, h, w) = input.shape().as_nchw()?;
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
    let w_mat = weight.reshape(&[c_out, c_in * k_h * k_w])?;
    let sample_len = c_in * h * w;
    let out_plane = g.out_h * g.out_w;

    let mut grad_in = vec![0.0f32; input.numel()];
    let mut grad_w = Tensor::zeros(&[c_out, c_in * k_h * k_w]);
    let mut grad_b = vec![0.0f32; c_out];

    for s in 0..n {
        let cols = im2col(
            &input.data()[s * sample_len..(s + 1) * sample_len],
            c_in,
            &g,
        );
        let dy = Tensor::from_vec(
            grad_out.data()[s * c_out * out_plane..(s + 1) * c_out * out_plane].to_vec(),
            &[c_out, out_plane],
        )?;
        // dW += dY · colsᵀ
        grad_w.add_assign_t(&matmul_a_bt(&dy, &cols)?)?;
        // dB += Σ_spatial dY
        for (co, gb) in grad_b.iter_mut().enumerate() {
            *gb += dy.data()[co * out_plane..(co + 1) * out_plane]
                .iter()
                .sum::<f32>();
        }
        // dX_cols = Wᵀ · dY, scattered back with col2im.
        let dcols = matmul_at_b(&w_mat, &dy)?;
        col2im(
            &dcols,
            c_in,
            &g,
            &mut grad_in[s * sample_len..(s + 1) * sample_len],
        );
    }
    Ok((
        Tensor::from_vec(grad_in, input.dims())?,
        grad_w.reshape(&[c_out, c_in, k_h, k_w])?,
        Tensor::from_vec(grad_b, &[c_out])?,
    ))
}
