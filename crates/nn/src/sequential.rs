use crate::flops::LayerFlops;
use crate::layer::{Layer, Mode};
use crate::{NnError, Parameter, Result};
use gsfl_tensor::workspace::Workspace;
use gsfl_tensor::Tensor;

/// A pipeline of layers executed in order.
///
/// `Sequential` is the network representation used throughout the GSFL
/// stack. It supports:
///
/// * forward/backward over the whole pipeline,
/// * splitting into client-side and server-side halves at a cut index
///   (see [`crate::split::SplitNetwork`]),
/// * parameter iteration for optimizers and FedAvg aggregation,
/// * FLOPs and byte accounting for the latency model.
///
/// # Example
///
/// ```
/// use gsfl_nn::{Sequential, layers::{Dense, Relu}};
/// use gsfl_tensor::Tensor;
///
/// # fn main() -> Result<(), gsfl_nn::NnError> {
/// let mut net = Sequential::new();
/// net.push(Dense::new(4, 8, 1));
/// net.push(Relu::new());
/// net.push(Dense::new(8, 2, 2));
/// let y = net.forward(&Tensor::zeros(&[3, 4]))?;
/// assert_eq!(y.dims(), &[3, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    mode: Mode,
    /// Scratch pool shared by the layers: intermediate activations and
    /// gradients are recycled here between layers, so a steady-state
    /// training step performs no heap allocation inside the network.
    ws: Workspace,
}

impl Clone for Sequential {
    fn clone(&self) -> Self {
        Sequential {
            layers: self.layers.clone(),
            mode: self.mode,
            ws: Workspace::new(),
        }
    }
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<String> = self.layers.iter().map(|l| l.name()).collect();
        f.debug_struct("Sequential")
            .field("layers", &names)
            .field("mode", &self.mode)
            .finish()
    }
}

impl Sequential {
    /// Creates an empty network in training mode.
    pub fn new() -> Self {
        Sequential {
            layers: Vec::new(),
            mode: Mode::Train,
            ws: Workspace::new(),
        }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Layer + 'static) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends an already-boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) -> &mut Self {
        self.layers.push(layer);
        self
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Layer names in order (useful for picking a cut index).
    pub fn layer_names(&self) -> Vec<String> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Sets train/eval mode for subsequent forwards.
    pub fn set_mode(&mut self, mode: Mode) {
        self.mode = mode;
    }

    /// Current mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Runs the pipeline forward. Intermediate activations draw from (and
    /// are recycled into) the network's internal [`Workspace`]; the
    /// returned tensor owns a workspace buffer, which callers on the hot
    /// path can hand back with [`Sequential::recycle`] once consumed.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error (usually a shape mismatch).
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        let mode = self.mode;
        let mut x: Option<Tensor> = None;
        for layer in &mut self.layers {
            let y = match &x {
                Some(t) => layer.forward(t, mode, &mut self.ws)?,
                None => layer.forward(input, mode, &mut self.ws)?,
            };
            if let Some(consumed) = x.take() {
                self.ws.recycle(consumed);
            }
            x = Some(y);
        }
        Ok(match x {
            Some(out) => out,
            None => input.clone(),
        })
    }

    /// Propagates a gradient backward through the pipeline, accumulating
    /// parameter gradients, and returns the gradient at the input (again
    /// a workspace-owned buffer — see [`Sequential::forward`]).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] if a layer has no cached
    /// activation (i.e. `forward` was not run in [`Mode::Train`]).
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor> {
        let mut g: Option<Tensor> = None;
        for layer in self.layers.iter_mut().rev() {
            let next = match &g {
                Some(t) => layer.backward(t, &mut self.ws)?,
                None => layer.backward(grad_out, &mut self.ws)?,
            };
            if let Some(consumed) = g.take() {
                self.ws.recycle(consumed);
            }
            g = Some(next);
        }
        Ok(match g {
            Some(out) => out,
            None => grad_out.clone(),
        })
    }

    /// [`Sequential::backward`] for callers that do not consume the
    /// network's input gradient — i.e. every training loop, where the
    /// gradient below the first layer is dead. The first layer only
    /// accumulates its parameter gradients ([`Layer::backward_last`]),
    /// skipping an entire GEMM (+ col2im for convolutions) per step.
    /// Parameter gradients are identical to [`Sequential::backward`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Sequential::backward`].
    pub fn backward_no_input_grad(&mut self, grad_out: &Tensor) -> Result<()> {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return Ok(());
        };
        let mut g: Option<Tensor> = None;
        for layer in rest.iter_mut().rev() {
            let next = match &g {
                Some(t) => layer.backward(t, &mut self.ws)?,
                None => layer.backward(grad_out, &mut self.ws)?,
            };
            if let Some(consumed) = g.take() {
                self.ws.recycle(consumed);
            }
            g = Some(next);
        }
        match &g {
            Some(t) => first.backward_last(t, &mut self.ws)?,
            None => first.backward_last(grad_out, &mut self.ws)?,
        }
        if let Some(consumed) = g.take() {
            self.ws.recycle(consumed);
        }
        Ok(())
    }

    /// Returns a tensor's backing buffer to the network's scratch pool.
    /// Call this with tensors the network produced (smashed data, logits,
    /// input gradients) once they are dead to keep the training loop
    /// allocation-free; dropping them instead is always safe, just slower.
    pub fn recycle(&mut self, tensor: Tensor) {
        self.ws.recycle(tensor);
    }

    /// Fresh heap allocations the internal workspace has performed (a
    /// steady-state training loop stops increasing this after warm-up).
    pub fn workspace_fresh_allocs(&self) -> usize {
        self.ws.fresh_allocs()
    }

    /// Zeroes every parameter gradient.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Immutable parameter views, layer order then within-layer order.
    pub fn params(&self) -> Vec<&Parameter> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Mutable parameter views, same order as [`Sequential::params`].
    pub fn params_mut(&mut self) -> Vec<&mut Parameter> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Total scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// Wire size of the parameters in bytes (4 bytes per scalar).
    pub fn param_bytes(&self) -> u64 {
        4 * self.param_count() as u64
    }

    /// Output dims after the whole pipeline for the given input dims.
    ///
    /// # Errors
    ///
    /// Propagates shape incompatibilities.
    pub fn output_shape(&self, input_dims: &[usize]) -> Result<Vec<usize>> {
        let mut dims = input_dims.to_vec();
        for layer in &self.layers {
            dims = layer.output_shape(&dims)?;
        }
        Ok(dims)
    }

    /// Per-sample FLOPs summed over all layers for the given input dims.
    ///
    /// # Errors
    ///
    /// Propagates shape incompatibilities.
    pub fn flops(&self, input_dims: &[usize]) -> Result<LayerFlops> {
        let mut dims = input_dims.to_vec();
        let mut total = LayerFlops::zero();
        for layer in &self.layers {
            total = total + layer.flops(&dims)?;
            dims = layer.output_shape(&dims)?;
        }
        Ok(total)
    }

    /// Splits the network at `cut`: the first `cut` layers become the first
    /// returned network, the rest the second. Parameters move, caches drop.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidCut`] when `cut > depth`.
    pub fn split_at(self, cut: usize) -> Result<(Sequential, Sequential)> {
        if cut > self.layers.len() {
            return Err(NnError::InvalidCut {
                cut,
                depth: self.layers.len(),
            });
        }
        let mut layers = self.layers;
        let tail = layers.split_off(cut);
        Ok((
            Sequential {
                layers,
                mode: self.mode,
                ws: Workspace::new(),
            },
            Sequential {
                layers: tail,
                mode: self.mode,
                ws: Workspace::new(),
            },
        ))
    }

    /// Concatenates two halves back into one network (inverse of
    /// [`Sequential::split_at`]).
    pub fn join(front: Sequential, back: Sequential) -> Sequential {
        let mut layers = front.layers;
        layers.extend(back.layers);
        Sequential {
            layers,
            mode: front.mode,
            ws: Workspace::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};

    fn small_net() -> Sequential {
        let mut net = Sequential::new();
        net.push(Dense::new(3, 5, 1));
        net.push(Relu::new());
        net.push(Dense::new(5, 2, 2));
        net
    }

    #[test]
    fn forward_backward_shapes() {
        let mut net = small_net();
        let x = Tensor::from_fn(&[4, 3], |i| (i as f32) * 0.1);
        let y = net.forward(&x).unwrap();
        assert_eq!(y.dims(), &[4, 2]);
        let gx = net.backward(&Tensor::ones(&[4, 2])).unwrap();
        assert_eq!(gx.dims(), &[4, 3]);
    }

    #[test]
    fn split_then_join_preserves_function() {
        let mut whole = small_net();
        let x = Tensor::from_fn(&[2, 3], |i| (i as f32) * 0.2 - 0.3);
        let y_whole = whole.forward(&x).unwrap();

        let (mut client, mut server) = small_net().split_at(2).unwrap();
        assert_eq!(client.depth(), 2);
        assert_eq!(server.depth(), 1);
        let smashed = client.forward(&x).unwrap();
        let y_split = server.forward(&smashed).unwrap();
        assert!(y_split.approx_eq(&y_whole, 1e-6));

        let mut rejoined = Sequential::join(client, server);
        assert_eq!(rejoined.depth(), 3);
        assert!(rejoined.forward(&x).unwrap().approx_eq(&y_whole, 1e-6));
    }

    #[test]
    fn split_rejects_out_of_range() {
        assert!(matches!(
            small_net().split_at(4),
            Err(NnError::InvalidCut { cut: 4, depth: 3 })
        ));
        // Degenerate cuts at 0 and depth are allowed.
        assert!(small_net().split_at(0).is_ok());
        assert!(small_net().split_at(3).is_ok());
    }

    #[test]
    fn param_count_and_bytes() {
        let net = small_net();
        let expect = (3 * 5 + 5) + (5 * 2 + 2);
        assert_eq!(net.param_count(), expect);
        assert_eq!(net.param_bytes(), 4 * expect as u64);
    }

    #[test]
    fn output_shape_and_flops_propagate() {
        let net = small_net();
        assert_eq!(net.output_shape(&[7, 3]).unwrap(), vec![7, 2]);
        let f = net.flops(&[1, 3]).unwrap();
        assert!(f.forward > 0 && f.backward > f.forward);
        assert!(net.output_shape(&[7, 9]).is_err());
    }

    #[test]
    fn gradient_flow_through_whole_net_matches_fd() {
        let mut net = small_net();
        let x = Tensor::from_fn(&[2, 3], |i| (i as f32) * 0.3 - 0.5);
        net.forward(&x).unwrap();
        let gx = net.backward(&Tensor::ones(&[2, 2])).unwrap();
        let eps = 1e-2f32;
        for flat in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let mut net2 = net.clone();
            net2.set_mode(Mode::Eval);
            let fp = net2.forward(&xp).unwrap().sum();
            let fm = net2.forward(&xm).unwrap().sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (fd - gx.data()[flat]).abs() < 2e-2,
                "fd {fd} vs analytic {}",
                gx.data()[flat]
            );
        }
    }

    #[test]
    fn clone_shares_nothing() {
        let mut a = small_net();
        let b = a.clone();
        // Mutating a's parameters must not affect b.
        a.params_mut()[0].value_mut().fill(0.0);
        assert_ne!(a.params()[0].value().data(), b.params()[0].value().data());
    }

    #[test]
    fn debug_lists_layer_names() {
        let net = small_net();
        let dbg = format!("{net:?}");
        assert!(dbg.contains("dense(3→5)"));
        assert!(dbg.contains("relu"));
    }

    #[test]
    fn backward_no_input_grad_accumulates_same_param_grads() {
        let x = Tensor::from_fn(&[4, 3], |i| (i as f32) * 0.17 - 0.2);
        let g = Tensor::from_fn(&[4, 2], |i| (i as f32) * 0.09 - 0.1);
        let mut full = small_net();
        full.forward(&x).unwrap();
        full.backward(&g).unwrap();
        let mut skipped = small_net();
        skipped.forward(&x).unwrap();
        skipped.backward_no_input_grad(&g).unwrap();
        for (pf, ps) in full.params().iter().zip(skipped.params()) {
            assert_eq!(
                pf.grad().data(),
                ps.grad().data(),
                "skipping the dead input gradient must not change parameter grads"
            );
        }
    }

    #[test]
    fn steady_state_training_step_is_allocation_free() {
        use crate::layers::{Conv2d, Flatten, MaxPool2d};
        // A conv stack — the layers with the heaviest scratch usage.
        let mut net = Sequential::new();
        net.push(Conv2d::new(2, 4, 3, 1, 1, 1));
        net.push(Relu::new());
        net.push(MaxPool2d::new(2, 2));
        net.push(Flatten::new());
        net.push(Dense::new(4 * 3 * 3, 5, 2));
        let x = Tensor::from_fn(&[4, 2, 6, 6], |i| ((i * 13 % 31) as f32 - 15.0) * 0.05);
        let step = |net: &mut Sequential| {
            net.zero_grad();
            let y = net.forward(&x).unwrap();
            let g = Tensor::ones(y.dims());
            net.recycle(y);
            net.backward_no_input_grad(&g).unwrap();
        };
        step(&mut net);
        step(&mut net);
        let warm = net.workspace_fresh_allocs();
        for _ in 0..3 {
            step(&mut net);
        }
        assert_eq!(
            net.workspace_fresh_allocs(),
            warm,
            "training steps must stop allocating after warm-up"
        );
    }
}
