//! Loss functions with analytic gradients.
//!
//! The softmax cross-entropy hot path is *fused*: one pass computes the
//! stabilized exponentials directly into the gradient buffer (no
//! intermediate softmax tensor) and a SIMD-dispatched pass scales them
//! into the gradient. The fused form stores the same `exp(v − max)`
//! values the unfused form recomputed, reduces the denominator in the
//! same ascending order, and scales with the same `(e / denom) · 1/n`
//! expression — so it is bit-identical to the historical two-pass
//! kernel on every SIMD tier.

use crate::{NnError, Result};
use gsfl_tensor::simd::{self, Isa};
use gsfl_tensor::Tensor;

/// Output of a loss computation: the scalar loss and the gradient with
/// respect to the logits, ready to feed into `Sequential::backward`.
#[derive(Debug, Clone)]
pub struct LossOutput {
    /// Mean loss over the batch.
    pub loss: f32,
    /// `d loss / d logits`, shape `[batch, classes]`.
    pub grad_logits: Tensor,
}

/// Softmax cross-entropy over integer class labels.
///
/// Numerically stabilized by subtracting each row's max before
/// exponentiation. The gradient is the classic `(softmax − one_hot) / n`.
///
/// # Example
///
/// ```
/// use gsfl_nn::loss::SoftmaxCrossEntropy;
/// use gsfl_tensor::Tensor;
///
/// # fn main() -> Result<(), gsfl_nn::NnError> {
/// let logits = Tensor::from_vec(vec![2.0, 0.0, 0.0, 2.0], &[2, 2])?;
/// let out = SoftmaxCrossEntropy::new().compute(&logits, &[0, 1])?;
/// assert!(out.loss < 0.2); // confident and correct
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SoftmaxCrossEntropy {
    _priv: (),
}

impl SoftmaxCrossEntropy {
    /// Creates the loss.
    pub fn new() -> Self {
        SoftmaxCrossEntropy { _priv: () }
    }

    /// Computes mean cross-entropy and its logits gradient.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::LabelMismatch`] / [`NnError::LabelOutOfRange`] on
    /// malformed labels, or a shape error for non-2-D logits.
    pub fn compute(&self, logits: &Tensor, labels: &[usize]) -> Result<LossOutput> {
        self.compute_with_isa(simd::active_isa(), logits, labels)
    }

    /// Fused forward/backward pinned to an explicit ISA tier (benchmark
    /// and equivalence-test hook). Bit-identical to
    /// [`Self::compute_unfused`] on every tier.
    #[doc(hidden)]
    pub fn compute_with_isa(
        &self,
        isa: Isa,
        logits: &Tensor,
        labels: &[usize],
    ) -> Result<LossOutput> {
        let (n, c) = logits.shape().as_matrix().map_err(NnError::from)?;
        if labels.len() != n {
            return Err(NnError::LabelMismatch {
                logits_rows: n,
                labels: labels.len(),
            });
        }
        if n == 0 {
            return Err(NnError::Config("empty batch".into()));
        }
        let mut grad = vec![0.0f32; n * c];
        let mut total_loss = 0.0f32;
        let inv_n = 1.0 / n as f32;
        for (r, &label) in labels.iter().enumerate() {
            if label >= c {
                return Err(NnError::LabelOutOfRange { label, classes: c });
            }
            let row = &logits.data()[r * c..(r + 1) * c];
            let max = simd::reduce_max(isa, row, f32::NEG_INFINITY);
            // One pass: store each stabilized exponential straight into
            // the gradient row while summing the denominator in the
            // same ascending order as the unfused kernel.
            let grow = &mut grad[r * c..(r + 1) * c];
            let mut denom = 0.0f32;
            for (g, &v) in grow.iter_mut().zip(row) {
                let e = (v - max).exp();
                *g = e;
                denom += e;
            }
            // loss_r = −log softmax[label]
            total_loss += -(row[label] - max - denom.ln());
            // grow[j] = (e / denom) · 1/n — the exact expression the
            // unfused kernel evaluates per element.
            simd::div_then_mul(isa, grow, denom, inv_n);
            grow[label] -= inv_n;
        }
        Ok(LossOutput {
            loss: total_loss * inv_n,
            grad_logits: Tensor::from_vec(grad, &[n, c])?,
        })
    }

    /// The historical two-pass kernel (recompute the exponentials for
    /// the gradient), preserved as the test oracle and benchmark
    /// baseline of the fused kernel. No production path calls it.
    #[doc(hidden)]
    pub fn compute_unfused(&self, logits: &Tensor, labels: &[usize]) -> Result<LossOutput> {
        let (n, c) = logits.shape().as_matrix().map_err(NnError::from)?;
        if labels.len() != n {
            return Err(NnError::LabelMismatch {
                logits_rows: n,
                labels: labels.len(),
            });
        }
        if n == 0 {
            return Err(NnError::Config("empty batch".into()));
        }
        let mut grad = vec![0.0f32; n * c];
        let mut total_loss = 0.0f32;
        let inv_n = 1.0 / n as f32;
        for (r, &label) in labels.iter().enumerate() {
            if label >= c {
                return Err(NnError::LabelOutOfRange { label, classes: c });
            }
            let row = &logits.data()[r * c..(r + 1) * c];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            for &v in row {
                denom += (v - max).exp();
            }
            let log_denom = denom.ln();
            // loss_r = −log softmax[label]
            total_loss += -(row[label] - max - log_denom);
            let grow = &mut grad[r * c..(r + 1) * c];
            for (j, &v) in row.iter().enumerate() {
                let softmax = (v - max).exp() / denom;
                grow[j] = softmax * inv_n;
            }
            grow[label] -= inv_n;
        }
        Ok(LossOutput {
            loss: total_loss * inv_n,
            grad_logits: Tensor::from_vec(grad, &[n, c])?,
        })
    }

    /// Softmax probabilities (inference helper).
    ///
    /// # Errors
    ///
    /// Returns a shape error for non-2-D logits.
    pub fn probabilities(&self, logits: &Tensor) -> Result<Tensor> {
        let (n, c) = logits.shape().as_matrix().map_err(NnError::from)?;
        let mut out = vec![0.0f32; n * c];
        for r in 0..n {
            let row = &logits.data()[r * c..(r + 1) * c];
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            for &v in row {
                denom += (v - max).exp();
            }
            for (j, &v) in row.iter().enumerate() {
                out[r * c + j] = (v - max).exp() / denom;
            }
        }
        Ok(Tensor::from_vec(out, &[n, c])?)
    }
}

/// Mean squared error against a target tensor of the same shape.
#[derive(Debug, Clone, Copy, Default)]
pub struct MeanSquaredError {
    _priv: (),
}

impl MeanSquaredError {
    /// Creates the loss.
    pub fn new() -> Self {
        MeanSquaredError { _priv: () }
    }

    /// Computes `mean((pred − target)²)` and its gradient
    /// `2(pred − target)/numel`.
    ///
    /// # Errors
    ///
    /// Returns a shape error when `pred` and `target` disagree.
    pub fn compute(&self, pred: &Tensor, target: &Tensor) -> Result<LossOutput> {
        let diff = pred.sub(target)?;
        let n = diff.numel().max(1) as f32;
        let loss = diff.data().iter().map(|d| d * d).sum::<f32>() / n;
        Ok(LossOutput {
            loss,
            grad_logits: diff.scale(2.0 / n),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_log_c() {
        let logits = Tensor::zeros(&[4, 10]);
        let out = SoftmaxCrossEntropy::new()
            .compute(&logits, &[0, 1, 2, 3])
            .unwrap();
        assert!((out.loss - 10.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn grad_rows_sum_to_zero() {
        let logits = Tensor::from_fn(&[3, 5], |i| (i as f32).sin());
        let out = SoftmaxCrossEntropy::new()
            .compute(&logits, &[4, 0, 2])
            .unwrap();
        for r in 0..3 {
            let row_sum: f32 = out.grad_logits.data()[r * 5..(r + 1) * 5].iter().sum();
            assert!(row_sum.abs() < 1e-6);
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let logits = Tensor::from_fn(&[2, 3], |i| (i as f32) * 0.4 - 0.5);
        let labels = [2usize, 0];
        let loss_fn = SoftmaxCrossEntropy::new();
        let out = loss_fn.compute(&logits, &labels).unwrap();
        let eps = 1e-3f32;
        for flat in 0..6 {
            let mut lp = logits.clone();
            lp.data_mut()[flat] += eps;
            let mut lm = logits.clone();
            lm.data_mut()[flat] -= eps;
            let fp = loss_fn.compute(&lp, &labels).unwrap().loss;
            let fm = loss_fn.compute(&lm, &labels).unwrap().loss;
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (fd - out.grad_logits.data()[flat]).abs() < 1e-3,
                "fd {fd} vs analytic {}",
                out.grad_logits.data()[flat]
            );
        }
    }

    #[test]
    fn handles_extreme_logits_without_nan() {
        let logits = Tensor::from_vec(vec![1000.0, -1000.0], &[1, 2]).unwrap();
        let out = SoftmaxCrossEntropy::new().compute(&logits, &[0]).unwrap();
        assert!(out.loss.is_finite());
        assert!(out.grad_logits.data().iter().all(|g| g.is_finite()));
    }

    #[test]
    fn rejects_bad_labels() {
        let logits = Tensor::zeros(&[2, 3]);
        assert!(matches!(
            SoftmaxCrossEntropy::new().compute(&logits, &[0]),
            Err(NnError::LabelMismatch { .. })
        ));
        assert!(matches!(
            SoftmaxCrossEntropy::new().compute(&logits, &[0, 3]),
            Err(NnError::LabelOutOfRange { .. })
        ));
    }

    #[test]
    fn probabilities_are_normalized() {
        let logits = Tensor::from_fn(&[2, 4], |i| i as f32);
        let p = SoftmaxCrossEntropy::new().probabilities(&logits).unwrap();
        for r in 0..2 {
            let s: f32 = p.data()[r * 4..(r + 1) * 4].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn mse_on_equal_tensors_is_zero() {
        let a = Tensor::from_fn(&[2, 2], |i| i as f32);
        let out = MeanSquaredError::new().compute(&a, &a).unwrap();
        assert_eq!(out.loss, 0.0);
        assert!(out.grad_logits.data().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn mse_gradient_direction() {
        let pred = Tensor::from_vec(vec![1.0], &[1, 1]).unwrap();
        let target = Tensor::from_vec(vec![0.0], &[1, 1]).unwrap();
        let out = MeanSquaredError::new().compute(&pred, &target).unwrap();
        assert!(out.grad_logits.data()[0] > 0.0); // move pred down
        assert_eq!(out.loss, 1.0);
    }
}
