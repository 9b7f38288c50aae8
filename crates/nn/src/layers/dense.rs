use crate::flops::LayerFlops;
use crate::layer::{cache_tensor, Layer, Mode};
use crate::{NnError, Parameter, Result};
use gsfl_tensor::init::Init;
use gsfl_tensor::matmul::{matmul_a_bt_ws, matmul_at_b_ws, matmul_ws};
use gsfl_tensor::rng::seeded_rng;
use gsfl_tensor::workspace::Workspace;
use gsfl_tensor::Tensor;

/// Fully connected layer: `y = x · Wᵀ + b` with `W: [out×in]`, `b: [out]`.
///
/// # Example
///
/// ```
/// use gsfl_nn::layers::Dense;
/// use gsfl_nn::layer::{Layer, Mode};
/// use gsfl_tensor::{Tensor, Workspace};
///
/// # fn main() -> Result<(), gsfl_nn::NnError> {
/// let mut layer = Dense::new(4, 2, 7);
/// let mut ws = Workspace::new();
/// let y = layer.forward(&Tensor::zeros(&[3, 4]), Mode::Train, &mut ws)?;
/// assert_eq!(y.dims(), &[3, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Parameter,
    bias: Parameter,
    in_features: usize,
    out_features: usize,
    cached_input: Option<Tensor>,
}

impl Dense {
    /// Creates a dense layer with He-normal weights drawn from `seed`.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        let mut rng = seeded_rng(seed);
        let weight = Init::HeNormal {
            fan_in: in_features,
        }
        .tensor(&[out_features, in_features], &mut rng);
        Dense {
            weight: Parameter::new(weight),
            bias: Parameter::new(Tensor::zeros(&[out_features])),
            in_features,
            out_features,
            cached_input: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Accumulates dW and db from `grad_out` (shared by the full and
    /// input-gradient-skipping backward paths).
    fn accumulate_param_grads(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<()> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward {
                layer: format!("dense({}→{})", self.in_features, self.out_features),
            })?;
        // dW = dYᵀ · X  → [out×n]·[n×in] = [out×in]
        let dw = matmul_at_b_ws(grad_out, input, ws)?;
        self.weight.grad_mut().add_assign_t(&dw)?;
        ws.recycle(dw);
        // db = Σ_rows dY
        let (_, out) = grad_out.shape().as_matrix()?;
        let mut db = ws.take_zeroed(out);
        for row in grad_out.data().chunks_exact(out) {
            for (d, &v) in db.iter_mut().zip(row) {
                *d += v;
            }
        }
        for (g, &d) in self.bias.grad_mut().data_mut().iter_mut().zip(&db) {
            *g += d;
        }
        ws.give(db);
        Ok(())
    }
}

impl Layer for Dense {
    fn name(&self) -> String {
        format!("dense({}→{})", self.in_features, self.out_features)
    }

    fn forward(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Result<Tensor> {
        // y = x · Wᵀ : [n×in] · [out×in]ᵀ = [n×out]
        let mut y = matmul_a_bt_ws(input, self.weight.value(), ws)?;
        let out = self.out_features;
        let b = self.bias.value().data();
        for row in y.data_mut().chunks_exact_mut(out) {
            for (v, &bv) in row.iter_mut().zip(b) {
                *v += bv;
            }
        }
        if mode == Mode::Train {
            cache_tensor(&mut self.cached_input, input);
        }
        Ok(y)
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<Tensor> {
        self.accumulate_param_grads(grad_out, ws)?;
        // dX = dY · W → [n×out]·[out×in] = [n×in]
        Ok(matmul_ws(grad_out, self.weight.value(), ws)?)
    }

    fn backward_last(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<()> {
        self.accumulate_param_grads(grad_out, ws)
    }

    fn params(&self) -> Vec<&Parameter> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn output_shape(&self, input_dims: &[usize]) -> Result<Vec<usize>> {
        if input_dims.len() != 2 || input_dims[1] != self.in_features {
            return Err(NnError::Config(format!(
                "dense expects [n×{}], got {input_dims:?}",
                self.in_features
            )));
        }
        Ok(vec![input_dims[0], self.out_features])
    }

    fn flops(&self, input_dims: &[usize]) -> Result<LayerFlops> {
        self.output_shape(input_dims)?;
        // 2·in·out MACs per sample plus the bias add.
        Ok(LayerFlops::gemm(
            2 * self.in_features as u64 * self.out_features as u64 + self.out_features as u64,
        ))
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Dense {
            cached_input: None,
            ..self.clone()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_and_bias() {
        let mut ws = Workspace::new();
        let mut layer = Dense::new(3, 2, 0);
        layer.params_mut()[1].value_mut().fill(1.0); // bias = 1
        let y = layer
            .forward(&Tensor::zeros(&[4, 3]), Mode::Eval, &mut ws)
            .unwrap();
        assert_eq!(y.dims(), &[4, 2]);
        assert!(y.data().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut ws = Workspace::new();
        let mut layer = Dense::new(3, 2, 0);
        let g = Tensor::zeros(&[4, 2]);
        assert!(matches!(
            layer.backward(&g, &mut ws),
            Err(NnError::BackwardBeforeForward { .. })
        ));
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut ws = Workspace::new();
        let mut layer = Dense::new(3, 2, 5);
        let x = Tensor::from_fn(&[2, 3], |i| (i as f32) * 0.3 - 0.4);
        let y = layer.forward(&x, Mode::Train, &mut ws).unwrap();
        // Loss = sum(y) so dY = 1.
        let gx = layer.backward(&Tensor::ones(y.dims()), &mut ws).unwrap();
        let eps = 1e-2f32;
        // Weight gradient check.
        let wgrad = layer.params()[0].grad().clone();
        for flat in 0..6 {
            let orig = layer.params()[0].value().data()[flat];
            layer.params_mut()[0].value_mut().data_mut()[flat] = orig + eps;
            let fp = layer.forward(&x, Mode::Eval, &mut ws).unwrap().sum();
            layer.params_mut()[0].value_mut().data_mut()[flat] = orig - eps;
            let fm = layer.forward(&x, Mode::Eval, &mut ws).unwrap().sum();
            layer.params_mut()[0].value_mut().data_mut()[flat] = orig;
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - wgrad.data()[flat]).abs() < 1e-2);
        }
        // Input gradient check.
        for flat in 0..6 {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut lp = layer.clone();
            let fp = lp.forward(&xp, Mode::Eval, &mut ws).unwrap().sum();
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let fm = lp.forward(&xm, Mode::Eval, &mut ws).unwrap().sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - gx.data()[flat]).abs() < 1e-2);
        }
    }

    #[test]
    fn grads_accumulate_across_backwards() {
        let mut ws = Workspace::new();
        let mut layer = Dense::new(2, 2, 1);
        let x = Tensor::ones(&[1, 2]);
        let g = Tensor::ones(&[1, 2]);
        layer.forward(&x, Mode::Train, &mut ws).unwrap();
        layer.backward(&g, &mut ws).unwrap();
        let after_one = layer.params()[0].grad().clone();
        layer.forward(&x, Mode::Train, &mut ws).unwrap();
        layer.backward(&g, &mut ws).unwrap();
        let after_two = layer.params()[0].grad().clone();
        assert!(after_two.approx_eq(&after_one.scale(2.0), 1e-6));
        layer.zero_grad();
        assert_eq!(layer.params()[0].grad().sum(), 0.0);
    }

    #[test]
    fn eval_mode_does_not_cache() {
        let mut ws = Workspace::new();
        let mut layer = Dense::new(2, 2, 1);
        layer
            .forward(&Tensor::ones(&[1, 2]), Mode::Eval, &mut ws)
            .unwrap();
        assert!(layer.backward(&Tensor::ones(&[1, 2]), &mut ws).is_err());
    }

    #[test]
    fn flops_counts_macs() {
        let layer = Dense::new(10, 20, 0);
        let f = layer.flops(&[1, 10]).unwrap();
        assert_eq!(f.forward, 2 * 10 * 20 + 20);
        assert_eq!(f.backward, 2 * f.forward);
    }

    #[test]
    fn clone_box_drops_cache_but_keeps_weights() {
        let mut ws = Workspace::new();
        let mut layer = Dense::new(2, 2, 3);
        layer
            .forward(&Tensor::ones(&[1, 2]), Mode::Train, &mut ws)
            .unwrap();
        let mut cloned = layer.clone_box();
        assert_eq!(cloned.params()[0].value(), layer.params()[0].value());
        assert!(cloned.backward(&Tensor::ones(&[1, 2]), &mut ws).is_err());
    }
}
