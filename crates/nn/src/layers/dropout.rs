use crate::flops::LayerFlops;
use crate::layer::{Layer, Mode};
use crate::{NnError, Parameter, Result};
use gsfl_tensor::rng::seeded_rng;
use gsfl_tensor::workspace::Workspace;
use gsfl_tensor::Tensor;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Inverted dropout: during training each element is zeroed with
/// probability `p` and the survivors are scaled by `1/(1-p)`; evaluation is
/// the identity.
///
/// The mask stream is seeded so training runs stay reproducible.
#[derive(Debug, Clone)]
pub struct Dropout {
    p: f32,
    rng: ChaCha8Rng,
    mask: Option<Tensor>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p` in `[0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1)` — this is a construction-time
    /// programming error, not a runtime condition.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout p must be in [0,1)");
        Dropout {
            p,
            rng: seeded_rng(seed),
            mask: None,
        }
    }

    /// The drop probability.
    pub fn probability(&self) -> f32 {
        self.p
    }
}

impl Layer for Dropout {
    fn name(&self) -> String {
        format!("dropout(p={})", self.p)
    }

    fn forward(&mut self, input: &Tensor, mode: Mode, _ws: &mut Workspace) -> Result<Tensor> {
        match mode {
            Mode::Eval => Ok(input.clone()),
            Mode::Train => {
                let keep = 1.0 - self.p;
                let scale = 1.0 / keep;
                let mask = Tensor::from_fn(input.dims(), |_| {
                    if self.rng.gen::<f32>() < keep {
                        scale
                    } else {
                        0.0
                    }
                });
                let out = input.mul(&mask)?;
                self.mask = Some(mask);
                Ok(out)
            }
        }
    }

    fn backward(&mut self, grad_out: &Tensor, _ws: &mut Workspace) -> Result<Tensor> {
        let mask = self
            .mask
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward { layer: self.name() })?;
        Ok(grad_out.mul(mask)?)
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
        Box::new(Dropout {
            mask: None,
            ..self.clone()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_is_identity() {
        let mut ws = Workspace::new();
        let mut d = Dropout::new(0.5, 0);
        let x = Tensor::from_fn(&[4, 8], |i| i as f32);
        let y = d.forward(&x, Mode::Eval, &mut ws).unwrap();
        assert_eq!(y, x);
    }

    #[test]
    fn train_zeroes_roughly_p_fraction() {
        let mut ws = Workspace::new();
        let mut d = Dropout::new(0.5, 42);
        let x = Tensor::ones(&[1, 10_000]);
        let y = d.forward(&x, Mode::Train, &mut ws).unwrap();
        let zeros = y.data().iter().filter(|&&v| v == 0.0).count();
        assert!((4_000..6_000).contains(&zeros), "zeros = {zeros}");
        // Survivors are scaled to keep the expectation.
        let nonzero = y.data().iter().find(|&&v| v != 0.0).unwrap();
        assert!((nonzero - 2.0).abs() < 1e-6);
    }

    #[test]
    fn backward_reuses_mask() {
        let mut ws = Workspace::new();
        let mut d = Dropout::new(0.3, 7);
        let x = Tensor::ones(&[1, 100]);
        let y = d.forward(&x, Mode::Train, &mut ws).unwrap();
        let g = d.backward(&Tensor::ones(&[1, 100]), &mut ws).unwrap();
        // Gradient must be zero exactly where the output was zero.
        for (a, b) in y.data().iter().zip(g.data()) {
            assert_eq!(*a == 0.0, *b == 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "dropout p must be in [0,1)")]
    fn rejects_invalid_p() {
        let _ = Dropout::new(1.0, 0);
    }

    #[test]
    fn deterministic_with_same_seed() {
        let mut ws = Workspace::new();
        let x = Tensor::ones(&[1, 64]);
        let mut a = Dropout::new(0.5, 9);
        let mut b = Dropout::new(0.5, 9);
        assert_eq!(
            a.forward(&x, Mode::Train, &mut ws).unwrap(),
            b.forward(&x, Mode::Train, &mut ws).unwrap()
        );
    }
}
