use crate::flops::LayerFlops;
use crate::layer::{cache_tensor, Layer, Mode};
use crate::{NnError, Parameter, Result};
use gsfl_tensor::workspace::Workspace;
use gsfl_tensor::Tensor;

/// Builds a parameter-free elementwise activation layer type.
macro_rules! elementwise_activation {
    (
        $(#[$doc:meta])*
        $name:ident, $label:literal,
        forward: |$x:ident| $fwd:expr,
        backward: |$y:ident, $cached:ident| $bwd:expr
    ) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Default)]
        pub struct $name {
            cached: Option<Tensor>,
        }

        impl $name {
            /// Creates the activation layer.
            pub fn new() -> Self {
                Self { cached: None }
            }
        }

        impl Layer for $name {
            fn name(&self) -> String {
                $label.to_string()
            }

            fn forward(
                &mut self,
                input: &Tensor,
                mode: Mode,
                ws: &mut Workspace,
            ) -> Result<Tensor> {
                let mut out = ws.take(input.numel());
                for (o, &$x) in out.iter_mut().zip(input.data()) {
                    *o = $fwd;
                }
                if mode == Mode::Train {
                    // Cache the *input* (ReLU family) — the closures below
                    // decide what they need.
                    cache_tensor(&mut self.cached, input);
                }
                Ok(Tensor::from_vec(out, input.dims())?)
            }

            fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<Tensor> {
                let $cached = self
                    .cached
                    .as_ref()
                    .ok_or_else(|| NnError::BackwardBeforeForward { layer: self.name() })?;
                if !$cached.shape().same_dims(grad_out.shape()) {
                    return Err(NnError::Config(format!(
                        "{}: grad shape {:?} does not match cached {:?}",
                        $label,
                        grad_out.dims(),
                        $cached.dims()
                    )));
                }
                let mut out = ws.take(grad_out.numel());
                for ((o, &g), &$y) in out
                    .iter_mut()
                    .zip(grad_out.data())
                    .zip($cached.data())
                {
                    *o = g * $bwd;
                }
                Ok(Tensor::from_vec(out, grad_out.dims())?)
            }

            fn params(&self) -> Vec<&Parameter> {
                Vec::new()
            }

            fn params_mut(&mut self) -> Vec<&mut Parameter> {
                Vec::new()
            }

            fn output_shape(&self, input_dims: &[usize]) -> Result<Vec<usize>> {
                Ok(input_dims.to_vec())
            }

            fn flops(&self, input_dims: &[usize]) -> Result<LayerFlops> {
                let numel: usize = input_dims.iter().skip(1).product();
                Ok(LayerFlops::elementwise(numel as u64))
            }

            fn clone_box(&self) -> Box<dyn Layer> {
                Box::new(Self { cached: None })
            }
        }
    };
}

elementwise_activation!(
    /// Rectified linear unit: `max(0, x)`.
    ///
    /// # Example
    ///
    /// ```
    /// use gsfl_nn::layers::Relu;
    /// use gsfl_nn::layer::{Layer, Mode};
    /// use gsfl_tensor::{Tensor, Workspace};
    ///
    /// # fn main() -> Result<(), gsfl_nn::NnError> {
    /// let mut relu = Relu::new();
    /// let mut ws = Workspace::new();
    /// let y = relu.forward(&Tensor::from_vec(vec![-1.0, 2.0], &[1, 2])?, Mode::Eval, &mut ws)?;
    /// assert_eq!(y.data(), &[0.0, 2.0]);
    /// # Ok(())
    /// # }
    /// ```
    Relu, "relu",
    forward: |x| x.max(0.0),
    backward: |y, cached| if y > 0.0 { 1.0 } else { 0.0 }
);

elementwise_activation!(
    /// Leaky ReLU with slope 0.01 for negative inputs.
    LeakyRelu, "leaky_relu",
    forward: |x| if x > 0.0 { x } else { 0.01 * x },
    backward: |y, cached| if y > 0.0 { 1.0 } else { 0.01 }
);

/// Logistic sigmoid activation `1 / (1 + e^{-x})`.
///
/// Caches the *output* so the backward pass is `σ'(x) = σ(x)(1-σ(x))`.
#[derive(Debug, Clone, Default)]
pub struct Sigmoid {
    cached_output: Option<Tensor>,
}

impl Sigmoid {
    /// Creates the activation layer.
    pub fn new() -> Self {
        Sigmoid {
            cached_output: None,
        }
    }
}

impl Layer for Sigmoid {
    fn name(&self) -> String {
        "sigmoid".to_string()
    }

    fn forward(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Result<Tensor> {
        let mut out = ws.take(input.numel());
        for (o, &x) in out.iter_mut().zip(input.data()) {
            *o = 1.0 / (1.0 + (-x).exp());
        }
        let out = Tensor::from_vec(out, input.dims())?;
        if mode == Mode::Train {
            cache_tensor(&mut self.cached_output, &out);
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<Tensor> {
        let y = self
            .cached_output
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward { layer: self.name() })?;
        let mut out = ws.take(grad_out.numel());
        for ((o, &g), &s) in out.iter_mut().zip(grad_out.data()).zip(y.data()) {
            *o = g * (s * (1.0 - s));
        }
        Ok(Tensor::from_vec(out, grad_out.dims())?)
    }

    fn params(&self) -> Vec<&Parameter> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        Vec::new()
    }

    fn output_shape(&self, input_dims: &[usize]) -> Result<Vec<usize>> {
        Ok(input_dims.to_vec())
    }

    fn flops(&self, input_dims: &[usize]) -> Result<LayerFlops> {
        let numel: usize = input_dims.iter().skip(1).product();
        // exp + div ≈ 4 flops each direction, elementwise.
        Ok(LayerFlops::elementwise(4 * numel as u64))
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Sigmoid {
            cached_output: None,
        })
    }
}

/// Hyperbolic tangent activation.
///
/// Caches the *output*: `tanh'(x) = 1 - tanh²(x)`.
#[derive(Debug, Clone, Default)]
pub struct Tanh {
    cached_output: Option<Tensor>,
}

impl Tanh {
    /// Creates the activation layer.
    pub fn new() -> Self {
        Tanh {
            cached_output: None,
        }
    }
}

impl Layer for Tanh {
    fn name(&self) -> String {
        "tanh".to_string()
    }

    fn forward(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Result<Tensor> {
        let mut out = ws.take(input.numel());
        for (o, &x) in out.iter_mut().zip(input.data()) {
            *o = x.tanh();
        }
        let out = Tensor::from_vec(out, input.dims())?;
        if mode == Mode::Train {
            cache_tensor(&mut self.cached_output, &out);
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<Tensor> {
        let y = self
            .cached_output
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward { layer: self.name() })?;
        let mut out = ws.take(grad_out.numel());
        for ((o, &g), &t) in out.iter_mut().zip(grad_out.data()).zip(y.data()) {
            *o = g * (1.0 - t * t);
        }
        Ok(Tensor::from_vec(out, grad_out.dims())?)
    }

    fn params(&self) -> Vec<&Parameter> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        Vec::new()
    }

    fn output_shape(&self, input_dims: &[usize]) -> Result<Vec<usize>> {
        Ok(input_dims.to_vec())
    }

    fn flops(&self, input_dims: &[usize]) -> Result<LayerFlops> {
        let numel: usize = input_dims.iter().skip(1).product();
        Ok(LayerFlops::elementwise(4 * numel as u64))
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Tanh {
            cached_output: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_and_backward() {
        let mut ws = Workspace::new();
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![-2.0, -0.5, 0.0, 1.5], &[1, 4]).unwrap();
        let y = relu.forward(&x, Mode::Train, &mut ws).unwrap();
        assert_eq!(y.data(), &[0.0, 0.0, 0.0, 1.5]);
        let g = relu.backward(&Tensor::ones(&[1, 4]), &mut ws).unwrap();
        assert_eq!(g.data(), &[0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn leaky_relu_keeps_small_negative_grad() {
        let mut ws = Workspace::new();
        let mut l = LeakyRelu::new();
        let x = Tensor::from_vec(vec![-1.0, 1.0], &[1, 2]).unwrap();
        let y = l.forward(&x, Mode::Train, &mut ws).unwrap();
        assert!((y.data()[0] + 0.01).abs() < 1e-7);
        let g = l.backward(&Tensor::ones(&[1, 2]), &mut ws).unwrap();
        assert!((g.data()[0] - 0.01).abs() < 1e-7);
        assert_eq!(g.data()[1], 1.0);
    }

    #[test]
    fn sigmoid_gradient_matches_fd() {
        let mut ws = Workspace::new();
        let mut s = Sigmoid::new();
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[1, 3]).unwrap();
        s.forward(&x, Mode::Train, &mut ws).unwrap();
        let g = s.backward(&Tensor::ones(&[1, 3]), &mut ws).unwrap();
        let eps = 1e-3f32;
        for i in 0..3 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let mut sp = Sigmoid::new();
            let fp = sp.forward(&xp, Mode::Eval, &mut ws).unwrap().sum();
            let fm = sp.forward(&xm, Mode::Eval, &mut ws).unwrap().sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - g.data()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn tanh_gradient_matches_fd() {
        let mut ws = Workspace::new();
        let mut t = Tanh::new();
        let x = Tensor::from_vec(vec![-0.7, 0.3], &[1, 2]).unwrap();
        t.forward(&x, Mode::Train, &mut ws).unwrap();
        let g = t.backward(&Tensor::ones(&[1, 2]), &mut ws).unwrap();
        let eps = 1e-3f32;
        for i in 0..2 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let mut tt = Tanh::new();
            let fp = tt.forward(&xp, Mode::Eval, &mut ws).unwrap().sum();
            let fm = tt.forward(&xm, Mode::Eval, &mut ws).unwrap().sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - g.data()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn activations_have_no_params() {
        assert_eq!(Relu::new().param_count(), 0);
        assert_eq!(Sigmoid::new().param_count(), 0);
    }

    #[test]
    fn backward_shape_mismatch_rejected() {
        let mut ws = Workspace::new();
        let mut relu = Relu::new();
        relu.forward(&Tensor::zeros(&[1, 4]), Mode::Train, &mut ws)
            .unwrap();
        assert!(relu.backward(&Tensor::zeros(&[1, 5]), &mut ws).is_err());
    }
}
