use crate::flops::LayerFlops;
use crate::layer::{Layer, Mode};
use crate::{NnError, Parameter, Result};
use gsfl_tensor::conv::{
    conv2d_backward_from_cols, conv2d_backward_params_from_cols, conv2d_forward_ws,
    conv2d_forward_ws_cols, ConvGeom,
};
use gsfl_tensor::init::Init;
use gsfl_tensor::rng::seeded_rng;
use gsfl_tensor::workspace::Workspace;
use gsfl_tensor::Tensor;

/// 2-D convolution layer over NCHW batches.
///
/// # Example
///
/// ```
/// use gsfl_nn::layers::Conv2d;
/// use gsfl_nn::layer::{Layer, Mode};
/// use gsfl_tensor::{Tensor, Workspace};
///
/// # fn main() -> Result<(), gsfl_nn::NnError> {
/// let mut conv = Conv2d::new(3, 8, 3, 1, 1, 42); // "same" conv
/// let mut ws = Workspace::new();
/// let y = conv.forward(&Tensor::zeros(&[2, 3, 16, 16]), Mode::Train, &mut ws)?;
/// assert_eq!(y.dims(), &[2, 8, 16, 16]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    weight: Parameter,
    bias: Parameter,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    /// Training-mode im2col cache: the forward pass's lowering is reused
    /// verbatim by the backward pass.
    cached_cols: Option<Tensor>,
    /// Input dims matching `cached_cols`.
    cached_dims: Option<Vec<usize>>,
}

impl Conv2d {
    /// Creates a conv layer with a square `kernel`, He-normal initialized.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        pad: usize,
        seed: u64,
    ) -> Self {
        let mut rng = seeded_rng(seed);
        let fan_in = in_channels * kernel * kernel;
        let weight = Init::HeNormal { fan_in }
            .tensor(&[out_channels, in_channels, kernel, kernel], &mut rng);
        Conv2d {
            weight: Parameter::new(weight),
            bias: Parameter::new(Tensor::zeros(&[out_channels])),
            in_channels,
            out_channels,
            kernel,
            stride,
            pad,
            cached_cols: None,
            cached_dims: None,
        }
    }

    /// The training-mode lowering and input dims the backward pass needs.
    fn cached(&self) -> Result<(&Tensor, &[usize])> {
        match (self.cached_cols.as_ref(), self.cached_dims.as_ref()) {
            (Some(cols), Some(dims)) => Ok((cols, dims)),
            _ => Err(NnError::BackwardBeforeForward { layer: self.name() }),
        }
    }

    /// Adds one backward's parameter gradients and recycles their buffers.
    fn accumulate(&mut self, gw: Tensor, gb: Tensor, ws: &mut Workspace) -> Result<()> {
        self.weight.grad_mut().add_assign_t(&gw)?;
        self.bias.grad_mut().add_assign_t(&gb)?;
        ws.recycle(gw);
        ws.recycle(gb);
        Ok(())
    }

    fn geom(&self, h: usize, w: usize) -> Result<ConvGeom> {
        Ok(ConvGeom::new(
            h,
            w,
            self.kernel,
            self.kernel,
            self.stride,
            self.pad,
        )?)
    }
}

impl Layer for Conv2d {
    fn name(&self) -> String {
        format!(
            "conv2d({}→{},{k}×{k},s{},p{})",
            self.in_channels,
            self.out_channels,
            self.stride,
            self.pad,
            k = self.kernel
        )
    }

    fn forward(&mut self, input: &Tensor, mode: Mode, ws: &mut Workspace) -> Result<Tensor> {
        if mode == Mode::Eval {
            return Ok(conv2d_forward_ws(
                input,
                self.weight.value(),
                self.bias.value(),
                self.stride,
                self.pad,
                ws,
            )?);
        }
        // Keep the batch lowering for the backward pass.
        let (y, cols) = conv2d_forward_ws_cols(
            input,
            self.weight.value(),
            self.bias.value(),
            self.stride,
            self.pad,
            ws,
        )?;
        if let Some(old) = self.cached_cols.replace(cols) {
            ws.recycle(old);
        }
        let dims = self.cached_dims.get_or_insert_with(Vec::new);
        dims.clear();
        dims.extend_from_slice(input.dims());
        Ok(y)
    }

    fn backward(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<Tensor> {
        let (cols, dims) = self.cached()?;
        let (gx, gw, gb) = conv2d_backward_from_cols(
            dims,
            cols,
            self.weight.value(),
            grad_out,
            self.stride,
            self.pad,
            ws,
        )?;
        self.accumulate(gw, gb, ws)?;
        Ok(gx)
    }

    fn backward_last(&mut self, grad_out: &Tensor, ws: &mut Workspace) -> Result<()> {
        let (cols, dims) = self.cached()?;
        let (gw, gb) = conv2d_backward_params_from_cols(
            dims,
            cols,
            self.weight.value(),
            grad_out,
            self.stride,
            self.pad,
            ws,
        )?;
        self.accumulate(gw, gb, ws)
    }

    fn params(&self) -> Vec<&Parameter> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Parameter> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn output_shape(&self, input_dims: &[usize]) -> Result<Vec<usize>> {
        if input_dims.len() != 4 || input_dims[1] != self.in_channels {
            return Err(NnError::Config(format!(
                "conv2d expects [n×{}×h×w], got {input_dims:?}",
                self.in_channels
            )));
        }
        let g = self.geom(input_dims[2], input_dims[3])?;
        Ok(vec![input_dims[0], self.out_channels, g.out_h, g.out_w])
    }

    fn flops(&self, input_dims: &[usize]) -> Result<LayerFlops> {
        let out = self.output_shape(input_dims)?;
        let macs = (self.in_channels * self.kernel * self.kernel) as u64
            * self.out_channels as u64
            * (out[2] * out[3]) as u64;
        Ok(LayerFlops::gemm(
            2 * macs + (out[1] * out[2] * out[3]) as u64,
        ))
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(Conv2d {
            cached_cols: None,
            cached_dims: None,
            ..self.clone()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_shape_same_padding() {
        let conv = Conv2d::new(3, 8, 3, 1, 1, 0);
        assert_eq!(
            conv.output_shape(&[2, 3, 16, 16]).unwrap(),
            vec![2, 8, 16, 16]
        );
        assert!(conv.output_shape(&[2, 4, 16, 16]).is_err());
    }

    #[test]
    fn forward_backward_shapes() {
        let mut ws = Workspace::new();
        let mut conv = Conv2d::new(2, 4, 3, 1, 1, 1);
        let x = Tensor::from_fn(&[2, 2, 6, 6], |i| (i as f32 % 7.0) - 3.0);
        let y = conv.forward(&x, Mode::Train, &mut ws).unwrap();
        assert_eq!(y.dims(), &[2, 4, 6, 6]);
        let gx = conv.backward(&Tensor::ones(y.dims()), &mut ws).unwrap();
        assert_eq!(gx.dims(), x.dims());
        // bias grad = number of output pixels per channel × batch
        let gb = conv.params()[1].grad().clone();
        assert!(gb.data().iter().all(|&g| (g - 72.0).abs() < 1e-3));
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut ws = Workspace::new();
        let mut conv = Conv2d::new(1, 1, 3, 1, 1, 0);
        let g = Tensor::zeros(&[1, 1, 4, 4]);
        let rejected = |r: Result<()>| matches!(r, Err(NnError::BackwardBeforeForward { .. }));
        assert!(rejected(conv.backward(&g, &mut ws).map(drop)));
        assert!(rejected(conv.backward_last(&g, &mut ws)));
        // An eval-mode forward caches no lowering for the backward pass.
        conv.forward(&Tensor::zeros(&[1, 1, 4, 4]), Mode::Eval, &mut ws)
            .unwrap();
        assert!(rejected(conv.backward(&g, &mut ws).map(drop)));
    }

    #[test]
    fn flops_scale_with_spatial_size() {
        let conv = Conv2d::new(3, 16, 3, 1, 1, 0);
        let small = conv.flops(&[1, 3, 8, 8]).unwrap();
        let large = conv.flops(&[1, 3, 16, 16]).unwrap();
        assert_eq!(large.forward, small.forward * 4);
    }

    #[test]
    fn param_count() {
        let conv = Conv2d::new(3, 16, 3, 1, 1, 0);
        assert_eq!(conv.param_count(), 3 * 16 * 9 + 16);
    }
}
