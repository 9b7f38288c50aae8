use crate::flops::LayerFlops;
use crate::layer::{Layer, Mode};
use crate::{NnError, Parameter, Result};
use gsfl_tensor::workspace::Workspace;
use gsfl_tensor::Tensor;

/// Batch normalization over the channel axis of NCHW tensors.
///
/// Training mode normalizes with batch statistics and updates exponential
/// running averages; evaluation mode uses the running averages. Gamma and
/// beta are trainable.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    gamma: Parameter,
    beta: Parameter,
    running_mean: Tensor,
    running_var: Tensor,
    channels: usize,
    momentum: f32,
    eps: f32,
    cache: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    input_dims: Vec<usize>,
}

impl BatchNorm2d {
    /// Creates a batch-norm layer for `channels` feature maps.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Parameter::new(Tensor::ones(&[channels])),
            beta: Parameter::new(Tensor::zeros(&[channels])),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::ones(&[channels]),
            channels,
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }

    /// The tracked running mean (one per channel).
    pub fn running_mean(&self) -> &Tensor {
        &self.running_mean
    }

    /// The tracked running variance (one per channel).
    pub fn running_var(&self) -> &Tensor {
        &self.running_var
    }

    fn check_input(&self, dims: &[usize]) -> Result<(usize, usize, usize, usize)> {
        if dims.len() != 4 || dims[1] != self.channels {
            return Err(NnError::Config(format!(
                "batchnorm2d expects [n×{}×h×w], got {dims:?}",
                self.channels
            )));
        }
        Ok((dims[0], dims[1], dims[2], dims[3]))
    }
}

impl Layer for BatchNorm2d {
    fn name(&self) -> String {
        format!("batchnorm2d({})", self.channels)
    }

    fn forward(&mut self, input: &Tensor, mode: Mode, _ws: &mut Workspace) -> Result<Tensor> {
        let (n, c, h, w) = self.check_input(input.dims())?;
        let plane = h * w;
        let count = (n * plane) as f32;
        let data = input.data();
        let mut out = vec![0.0f32; input.numel()];

        match mode {
            Mode::Train => {
                let mut x_hat = vec![0.0f32; input.numel()];
                let mut inv_stds = vec![0.0f32; c];
                #[allow(clippy::needless_range_loop)] // ch indexes 4 parallel arrays
                for ch in 0..c {
                    let mut mean = 0.0f32;
                    for s in 0..n {
                        let base = (s * c + ch) * plane;
                        mean += data[base..base + plane].iter().sum::<f32>();
                    }
                    mean /= count;
                    let mut var = 0.0f32;
                    for s in 0..n {
                        let base = (s * c + ch) * plane;
                        var += data[base..base + plane]
                            .iter()
                            .map(|&x| (x - mean) * (x - mean))
                            .sum::<f32>();
                    }
                    var /= count;
                    let inv_std = 1.0 / (var + self.eps).sqrt();
                    inv_stds[ch] = inv_std;
                    let g = self.gamma.value().data()[ch];
                    let b = self.beta.value().data()[ch];
                    for s in 0..n {
                        let base = (s * c + ch) * plane;
                        for i in 0..plane {
                            let xh = (data[base + i] - mean) * inv_std;
                            x_hat[base + i] = xh;
                            out[base + i] = g * xh + b;
                        }
                    }
                    // Exponential running averages for eval mode.
                    let rm = &mut self.running_mean.data_mut()[ch];
                    *rm = (1.0 - self.momentum) * *rm + self.momentum * mean;
                    let rv = &mut self.running_var.data_mut()[ch];
                    *rv = (1.0 - self.momentum) * *rv + self.momentum * var;
                }
                self.cache = Some(BnCache {
                    x_hat: Tensor::from_vec(x_hat, input.dims())?,
                    inv_std: inv_stds,
                    input_dims: input.dims().to_vec(),
                });
            }
            Mode::Eval => {
                for ch in 0..c {
                    let mean = self.running_mean.data()[ch];
                    let inv_std = 1.0 / (self.running_var.data()[ch] + self.eps).sqrt();
                    let g = self.gamma.value().data()[ch];
                    let b = self.beta.value().data()[ch];
                    for s in 0..n {
                        let base = (s * c + ch) * plane;
                        for i in 0..plane {
                            out[base + i] = g * (data[base + i] - mean) * inv_std + b;
                        }
                    }
                }
            }
        }
        Ok(Tensor::from_vec(out, input.dims())?)
    }

    fn backward(&mut self, grad_out: &Tensor, _ws: &mut Workspace) -> Result<Tensor> {
        let cache = self
            .cache
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward { layer: self.name() })?;
        if grad_out.dims() != cache.input_dims.as_slice() {
            return Err(NnError::Config(format!(
                "batchnorm backward: grad dims {:?} vs cached {:?}",
                grad_out.dims(),
                cache.input_dims
            )));
        }
        let (n, c, h, w) = self.check_input(grad_out.dims())?;
        let plane = h * w;
        let m = (n * plane) as f32;
        let go = grad_out.data();
        let xh = cache.x_hat.data();
        let mut grad_in = vec![0.0f32; grad_out.numel()];

        for ch in 0..c {
            // Reductions over the channel: Σ dy and Σ dy·x̂.
            let mut sum_dy = 0.0f32;
            let mut sum_dy_xhat = 0.0f32;
            for s in 0..n {
                let base = (s * c + ch) * plane;
                for i in 0..plane {
                    sum_dy += go[base + i];
                    sum_dy_xhat += go[base + i] * xh[base + i];
                }
            }
            self.gamma.grad_mut().data_mut()[ch] += sum_dy_xhat;
            self.beta.grad_mut().data_mut()[ch] += sum_dy;

            let g = self.gamma.value().data()[ch];
            let inv_std = cache.inv_std[ch];
            // dx = (g·inv_std/m)·(m·dy − Σdy − x̂·Σ(dy·x̂))
            let k = g * inv_std / m;
            for s in 0..n {
                let base = (s * c + ch) * plane;
                for i in 0..plane {
                    grad_in[base + i] =
                        k * (m * go[base + i] - sum_dy - xh[base + i] * sum_dy_xhat);
                }
            }
        }
        Ok(Tensor::from_vec(grad_in, grad_out.dims())?)
    }

    fn params(&self) -> Vec<&Parameter> {
        vec![&self.gamma, &self.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn output_shape(&self, input_dims: &[usize]) -> Result<Vec<usize>> {
        self.check_input(input_dims)?;
        Ok(input_dims.to_vec())
    }

    fn flops(&self, input_dims: &[usize]) -> Result<LayerFlops> {
        self.check_input(input_dims)?;
        let numel: usize = input_dims.iter().skip(1).product();
        // Normalize + scale + shift ≈ 4 flops per element.
        Ok(LayerFlops::elementwise(4 * numel as u64))
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(BatchNorm2d {
            cache: None,
            ..self.clone()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn train_output_is_normalized() {
        let mut ws = Workspace::new();
        let mut bn = BatchNorm2d::new(2);
        let x = Tensor::from_fn(&[4, 2, 3, 3], |i| (i as f32) * 0.5 - 9.0);
        let y = bn.forward(&x, Mode::Train, &mut ws).unwrap();
        // Per-channel mean ≈ 0, var ≈ 1 after normalization (gamma=1, beta=0).
        let plane = 9;
        for ch in 0..2 {
            let mut vals = Vec::new();
            for s in 0..4 {
                let base = (s * 2 + ch) * plane;
                vals.extend_from_slice(&y.data()[base..base + plane]);
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut ws = Workspace::new();
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::full(&[2, 1, 2, 2], 10.0);
        // Before any training step the running stats are (0, 1).
        let y = bn.forward(&x, Mode::Eval, &mut ws).unwrap();
        assert!(y.data().iter().all(|&v| (v - 10.0).abs() < 1e-3));
        // After training forwards the running mean moves toward 10.
        for _ in 0..50 {
            bn.forward(&x, Mode::Train, &mut ws).unwrap();
        }
        assert!(bn.running_mean().data()[0] > 9.0);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut ws = Workspace::new();
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::from_fn(&[2, 1, 2, 2], |i| (i as f32) * 0.7 - 2.0);
        bn.forward(&x, Mode::Train, &mut ws).unwrap();
        let gx = bn.backward(&Tensor::ones(&[2, 1, 2, 2]), &mut ws).unwrap();
        let eps = 1e-2f32;
        for flat in 0..8 {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let mut bp = BatchNorm2d::new(1);
            let fp = bp.forward(&xp, Mode::Train, &mut ws).unwrap().sum();
            let fm = bp.forward(&xm, Mode::Train, &mut ws).unwrap().sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (fd - gx.data()[flat]).abs() < 5e-2,
                "bn grad mismatch at {flat}: fd={fd} analytic={}",
                gx.data()[flat]
            );
        }
    }

    #[test]
    fn rejects_wrong_channel_count() {
        let mut ws = Workspace::new();
        let mut bn = BatchNorm2d::new(3);
        assert!(bn
            .forward(&Tensor::zeros(&[1, 2, 4, 4]), Mode::Train, &mut ws)
            .is_err());
    }

    #[test]
    fn gamma_beta_gradients() {
        let mut ws = Workspace::new();
        let mut bn = BatchNorm2d::new(1);
        let x = Tensor::from_fn(&[1, 1, 2, 2], |i| i as f32);
        bn.forward(&x, Mode::Train, &mut ws).unwrap();
        bn.backward(&Tensor::ones(&[1, 1, 2, 2]), &mut ws).unwrap();
        // dβ = Σ dy = 4; dγ = Σ dy·x̂ ≈ 0 for symmetric x̂.
        assert!((bn.params()[1].grad().data()[0] - 4.0).abs() < 1e-5);
        assert!(bn.params()[0].grad().data()[0].abs() < 1e-4);
    }
}
