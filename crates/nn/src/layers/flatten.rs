use crate::flops::LayerFlops;
use crate::layer::{Layer, Mode};
use crate::{NnError, Parameter, Result};
use gsfl_tensor::workspace::Workspace;
use gsfl_tensor::Tensor;

/// Flattens `[n, d1, d2, …]` to `[n, d1·d2·…]` — the bridge between the
/// convolutional trunk and the dense head.
///
/// # Example
///
/// ```
/// use gsfl_nn::layers::Flatten;
/// use gsfl_nn::layer::{Layer, Mode};
/// use gsfl_tensor::{Tensor, Workspace};
///
/// # fn main() -> Result<(), gsfl_nn::NnError> {
/// let mut f = Flatten::new();
/// let mut ws = Workspace::new();
/// let y = f.forward(&Tensor::zeros(&[2, 4, 3, 3]), Mode::Eval, &mut ws)?;
/// assert_eq!(y.dims(), &[2, 36]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    cached_input_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten {
            cached_input_dims: None,
        }
    }
}

impl Layer for Flatten {
    fn name(&self) -> String {
        "flatten".to_string()
    }

    fn forward(&mut self, input: &Tensor, mode: Mode, _ws: &mut Workspace) -> Result<Tensor> {
        let dims = self.output_shape(input.dims())?;
        if mode == Mode::Train {
            self.cached_input_dims = Some(input.dims().to_vec());
        }
        Ok(input.reshape(&dims)?)
    }

    fn backward(&mut self, grad_out: &Tensor, _ws: &mut Workspace) -> Result<Tensor> {
        let dims = self
            .cached_input_dims
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward { layer: self.name() })?;
        Ok(grad_out.reshape(dims)?)
    }

    fn params(&self) -> Vec<&Parameter> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        Vec::new()
    }

    fn output_shape(&self, input_dims: &[usize]) -> Result<Vec<usize>> {
        if input_dims.is_empty() {
            return Err(NnError::Config("flatten needs a batch dimension".into()));
        }
        Ok(vec![input_dims[0], input_dims[1..].iter().product()])
    }

    fn flops(&self, _input_dims: &[usize]) -> Result<LayerFlops> {
        Ok(LayerFlops::zero())
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Flatten {
            cached_input_dims: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_preserves_data() {
        let mut ws = Workspace::new();
        let mut f = Flatten::new();
        let x = Tensor::from_fn(&[2, 3, 2, 2], |i| i as f32);
        let y = f.forward(&x, Mode::Train, &mut ws).unwrap();
        assert_eq!(y.dims(), &[2, 12]);
        let gx = f.backward(&y, &mut ws).unwrap();
        assert_eq!(gx, x);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut ws = Workspace::new();
        let mut f = Flatten::new();
        assert!(f.backward(&Tensor::zeros(&[2, 12]), &mut ws).is_err());
    }
}
