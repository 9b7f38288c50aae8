use crate::flops::LayerFlops;
use crate::layer::{Layer, Mode};
use crate::{NnError, Parameter, Result};
use gsfl_tensor::pool::{
    avgpool2d_backward_ws, avgpool2d_forward_ws, maxpool2d_backward_ws, maxpool2d_forward_ws,
};
use gsfl_tensor::workspace::Workspace;
use gsfl_tensor::Tensor;

/// Max-pooling layer over square windows.
///
/// # Example
///
/// ```
/// use gsfl_nn::layers::MaxPool2d;
/// use gsfl_nn::layer::{Layer, Mode};
/// use gsfl_tensor::{Tensor, Workspace};
///
/// # fn main() -> Result<(), gsfl_nn::NnError> {
/// let mut pool = MaxPool2d::new(2, 2);
/// let mut ws = Workspace::new();
/// let y = pool.forward(&Tensor::zeros(&[1, 4, 8, 8]), Mode::Eval, &mut ws)?;
/// assert_eq!(y.dims(), &[1, 4, 4, 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    window: usize,
    stride: usize,
    /// Argmax table of the last forward; reused across steps so the
    /// steady-state training loop performs no allocation here.
    argmax: Vec<usize>,
    /// Input dims of the last [`Mode::Train`] forward (`None` until then).
    cached_dims: Option<Vec<usize>>,
}

impl MaxPool2d {
    /// Creates a max-pool with the given window and stride.
    pub fn new(window: usize, stride: usize) -> Self {
        MaxPool2d {
            window,
            stride,
            argmax: Vec::new(),
            cached_dims: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> String {
        format!("maxpool2d({}×{0},s{})", self.window, self.stride)
    }

    fn forward(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Result<Tensor> {
        let out = maxpool2d_forward_ws(input, self.window, self.stride, ws, &mut self.argmax)?;
        self.cached_dims = if mode == Mode::Train {
            match self.cached_dims.take() {
                Some(mut dims) => {
                    dims.clear();
                    dims.extend_from_slice(input.dims());
                    Some(dims)
                }
                None => Some(input.dims().to_vec()),
            }
        } else {
            None
        };
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<Tensor> {
        let in_dims = self
            .cached_dims
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward { layer: self.name() })?;
        Ok(maxpool2d_backward_ws(grad_out, &self.argmax, in_dims, ws)?)
    }

    fn params(&self) -> Vec<&Parameter> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        Vec::new()
    }

    fn output_shape(&self, input_dims: &[usize]) -> Result<Vec<usize>> {
        if input_dims.len() != 4 {
            return Err(NnError::Config(format!(
                "maxpool2d expects NCHW, got {input_dims:?}"
            )));
        }
        let g = gsfl_tensor::conv::ConvGeom::new(
            input_dims[2],
            input_dims[3],
            self.window,
            self.window,
            self.stride,
            0,
        )?;
        Ok(vec![input_dims[0], input_dims[1], g.out_h, g.out_w])
    }

    fn flops(&self, input_dims: &[usize]) -> Result<LayerFlops> {
        let out = self.output_shape(input_dims)?;
        let comparisons = (out[1] * out[2] * out[3]) as u64 * (self.window * self.window) as u64;
        Ok(LayerFlops::elementwise(comparisons))
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(MaxPool2d {
            argmax: Vec::new(),
            cached_dims: None,
            ..self.clone()
        })
    }
}

/// Average-pooling layer over square windows.
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    window: usize,
    stride: usize,
    cached_input_dims: Option<Vec<usize>>,
}

impl AvgPool2d {
    /// Creates an average-pool with the given window and stride.
    pub fn new(window: usize, stride: usize) -> Self {
        AvgPool2d {
            window,
            stride,
            cached_input_dims: None,
        }
    }
}

impl Layer for AvgPool2d {
    fn name(&self) -> String {
        format!("avgpool2d({}×{0},s{})", self.window, self.stride)
    }

    fn forward(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Result<Tensor> {
        let out = avgpool2d_forward_ws(input, self.window, self.stride, ws)?;
        if mode == Mode::Train {
            self.cached_input_dims = Some(input.dims().to_vec());
        }
        Ok(out)
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<Tensor> {
        let dims = self
            .cached_input_dims
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward { layer: self.name() })?;
        Ok(avgpool2d_backward_ws(
            grad_out,
            dims,
            self.window,
            self.stride,
            ws,
        )?)
    }

    fn params(&self) -> Vec<&Parameter> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        Vec::new()
    }

    fn output_shape(&self, input_dims: &[usize]) -> Result<Vec<usize>> {
        if input_dims.len() != 4 {
            return Err(NnError::Config(format!(
                "avgpool2d expects NCHW, got {input_dims:?}"
            )));
        }
        let g = gsfl_tensor::conv::ConvGeom::new(
            input_dims[2],
            input_dims[3],
            self.window,
            self.window,
            self.stride,
            0,
        )?;
        Ok(vec![input_dims[0], input_dims[1], g.out_h, g.out_w])
    }

    fn flops(&self, input_dims: &[usize]) -> Result<LayerFlops> {
        let out = self.output_shape(input_dims)?;
        let adds = (out[1] * out[2] * out[3]) as u64 * (self.window * self.window) as u64;
        Ok(LayerFlops::elementwise(adds))
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(AvgPool2d {
            cached_input_dims: None,
            ..self.clone()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maxpool_halves_spatial_dims() {
        let mut ws = Workspace::new();
        let mut p = MaxPool2d::new(2, 2);
        let x = Tensor::from_fn(&[1, 2, 4, 4], |i| i as f32);
        let y = p.forward(&x, Mode::Train, &mut ws).unwrap();
        assert_eq!(y.dims(), &[1, 2, 2, 2]);
        let gx = p.backward(&Tensor::ones(y.dims()), &mut ws).unwrap();
        assert_eq!(gx.dims(), x.dims());
        assert_eq!(gx.sum(), 8.0); // one unit per output element
    }

    #[test]
    fn avgpool_forward_backward() {
        let mut ws = Workspace::new();
        let mut p = AvgPool2d::new(2, 2);
        let x = Tensor::ones(&[1, 1, 4, 4]);
        let y = p.forward(&x, Mode::Train, &mut ws).unwrap();
        assert!(y.data().iter().all(|&v| (v - 1.0).abs() < 1e-6));
        let gx = p.backward(&Tensor::ones(y.dims()), &mut ws).unwrap();
        assert!((gx.sum() - 4.0).abs() < 1e-5);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut ws = Workspace::new();
        let mut p = MaxPool2d::new(2, 2);
        assert!(p.backward(&Tensor::zeros(&[1, 1, 2, 2]), &mut ws).is_err());
        let mut a = AvgPool2d::new(2, 2);
        assert!(a.backward(&Tensor::zeros(&[1, 1, 2, 2]), &mut ws).is_err());
    }

    #[test]
    fn output_shape_rejects_non_nchw() {
        assert!(MaxPool2d::new(2, 2).output_shape(&[4, 4]).is_err());
    }
}
