//! Optimizers and learning-rate schedules.

use crate::{Parameter, Result};
use gsfl_tensor::Tensor;

/// Learning-rate schedule evaluated per round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// Constant learning rate.
    Constant,
    /// Multiply by `factor` every `every` rounds.
    StepDecay {
        /// Rounds between decays.
        every: usize,
        /// Multiplicative factor per decay (e.g. 0.5).
        factor: f32,
    },
    /// Cosine annealing from the base LR to `final_fraction·base` over
    /// `total_rounds`.
    Cosine {
        /// Length of the annealing horizon.
        total_rounds: usize,
        /// LR floor as a fraction of the base LR.
        final_fraction: f32,
    },
}

impl LrSchedule {
    /// The multiplier applied to the base LR at `round` (0-based).
    pub fn multiplier(&self, round: usize) -> f32 {
        match *self {
            LrSchedule::Constant => 1.0,
            LrSchedule::StepDecay { every, factor } => match round.checked_div(every) {
                None => 1.0,
                Some(decays) => factor.powi(decays as i32),
            },
            LrSchedule::Cosine {
                total_rounds,
                final_fraction,
            } => {
                if total_rounds == 0 {
                    return 1.0;
                }
                let t = (round.min(total_rounds) as f32) / total_rounds as f32;
                let cos = 0.5 * (1.0 + (std::f32::consts::PI * t).cos());
                final_fraction + (1.0 - final_fraction) * cos
            }
        }
    }
}

/// Stochastic gradient descent with momentum and weight decay.
///
/// Velocity buffers are keyed by parameter position, so an optimizer
/// instance must always be stepped with the same network (this is how each
/// client/server side keeps its own momentum state in split training).
///
/// # Example
///
/// ```
/// use gsfl_nn::{optim::Sgd, Sequential, layers::Dense};
/// use gsfl_tensor::Tensor;
///
/// # fn main() -> Result<(), gsfl_nn::NnError> {
/// let mut net = Sequential::new();
/// net.push(Dense::new(2, 1, 0));
/// let mut opt = Sgd::new(0.1);
/// // ... after forward + backward ...
/// opt.step(&mut net.params_mut())?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    base_lr: f32,
    momentum: f32,
    weight_decay: f32,
    schedule: LrSchedule,
    round: usize,
    velocities: Vec<Tensor>,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    pub fn new(lr: f32) -> Self {
        Sgd {
            base_lr: lr,
            momentum: 0.0,
            weight_decay: 0.0,
            schedule: LrSchedule::Constant,
            round: 0,
            velocities: Vec::new(),
        }
    }

    /// Adds classical momentum.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Adds L2 weight decay.
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Sets the LR schedule.
    pub fn with_schedule(mut self, schedule: LrSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// The LR that will be used at the current round.
    pub fn current_lr(&self) -> f32 {
        self.base_lr * self.schedule.multiplier(self.round)
    }

    /// Advances the schedule by one round (call once per training round).
    pub fn advance_round(&mut self) {
        self.round += 1;
    }

    /// Current round counter.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Applies one update step using the accumulated gradients.
    ///
    /// The whole update runs in place over the parameter, gradient and
    /// velocity slices — no clones, no temporaries — so the momentum
    /// buffers allocated at warm-up are the only state this ever holds.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors (which indicate the optimizer was
    /// stepped with a different network than it was warmed up on).
    pub fn step(&mut self, params: &mut [&mut Parameter]) -> Result<()> {
        let lr = self.current_lr();
        if self.velocities.is_empty() && self.momentum != 0.0 {
            self.velocities = params
                .iter()
                .map(|p| Tensor::zeros(p.value().dims()))
                .collect();
        }
        for (i, p) in params.iter_mut().enumerate() {
            let (value, grad) = p.value_and_grad_mut();
            if self.weight_decay != 0.0 {
                // grad ← grad + wd·w
                for (g, &w) in grad.data_mut().iter_mut().zip(value.data()) {
                    *g += self.weight_decay * w;
                }
            }
            if self.momentum != 0.0 {
                let v = &mut self.velocities[i];
                if !v.shape().same_dims(grad.shape()) {
                    return Err(gsfl_tensor::TensorError::ShapeMismatch {
                        left: v.dims().to_vec(),
                        right: grad.dims().to_vec(),
                        op: "add_assign",
                    }
                    .into());
                }
                // v ← μ·v + g ; w ← w − lr·v
                let momentum = self.momentum;
                for ((ve, &g), w) in v
                    .data_mut()
                    .iter_mut()
                    .zip(grad.data())
                    .zip(value.data_mut())
                {
                    *ve *= momentum;
                    *ve += g;
                    *w += -lr * *ve;
                }
            } else {
                for (w, &g) in value.data_mut().iter_mut().zip(grad.data()) {
                    *w += -lr * g;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quadratic_param(at: f32) -> Parameter {
        // Minimize f(w) = w² with grad 2w.
        let mut p = Parameter::new(Tensor::from_vec(vec![at], &[1]).unwrap());
        let g = p.value().scale(2.0);
        *p.grad_mut() = g;
        p
    }

    /// The pre-optimization update, preserved verbatim (clones per
    /// step): the oracle [`Sgd::step`]'s in-place update must reproduce.
    fn legacy_step(
        params: &mut [&mut Parameter],
        velocities: &mut [Tensor],
        lr: f32,
        momentum: f32,
        weight_decay: f32,
    ) {
        for (i, p) in params.iter_mut().enumerate() {
            if weight_decay != 0.0 {
                let wd_term = p.value().scale(weight_decay);
                p.grad_mut().add_assign_t(&wd_term).unwrap();
            }
            if momentum != 0.0 {
                let v = &mut velocities[i];
                v.scale_assign(momentum);
                let grad = p.grad().clone();
                v.add_assign_t(&grad).unwrap();
                let v_snapshot = v.clone();
                p.value_mut().axpy(-lr, &v_snapshot).unwrap();
            } else {
                let grad = p.grad().clone();
                p.value_mut().axpy(-lr, &grad).unwrap();
            }
        }
    }

    #[test]
    fn step_is_bit_identical_to_the_legacy_update() {
        let shapes: [&[usize]; 3] = [&[3, 5], &[5], &[2, 2, 3, 3]];
        let init = |salt: usize| -> Vec<Parameter> {
            shapes
                .iter()
                .enumerate()
                .map(|(k, dims)| {
                    Parameter::new(Tensor::from_fn(dims, |i| {
                        ((i * 7 + k * 13 + salt) % 23) as f32 * 0.037 - 0.4
                    }))
                })
                .collect()
        };
        for (momentum, weight_decay) in [(0.9, 5e-4), (0.0, 1e-3), (0.5, 0.0), (0.0, 0.0)] {
            let mut fast = init(0);
            let mut legacy = init(0);
            let mut opt = Sgd::new(0.05)
                .with_momentum(momentum)
                .with_weight_decay(weight_decay);
            let mut velocities: Vec<Tensor> = if momentum != 0.0 {
                shapes.iter().map(|d| Tensor::zeros(d)).collect()
            } else {
                Vec::new()
            };
            for step in 0..6 {
                for (pf, pl) in fast.iter_mut().zip(legacy.iter_mut()) {
                    let g = Tensor::from_fn(pf.value().dims(), |i| {
                        ((i * 11 + step * 5) % 17) as f32 * 0.021 - 0.15
                    });
                    *pf.grad_mut() = g.clone();
                    *pl.grad_mut() = g;
                }
                let mut views: Vec<&mut Parameter> = fast.iter_mut().collect();
                opt.step(&mut views).unwrap();
                let mut views: Vec<&mut Parameter> = legacy.iter_mut().collect();
                legacy_step(&mut views, &mut velocities, 0.05, momentum, weight_decay);
                for (pf, pl) in fast.iter().zip(&legacy) {
                    assert_eq!(
                        pf.value().data(),
                        pl.value().data(),
                        "momentum {momentum}, wd {weight_decay}, step {step}"
                    );
                    assert_eq!(pf.grad().data(), pl.grad().data());
                }
            }
        }
    }

    #[test]
    fn sgd_descends_quadratic() {
        let mut p = quadratic_param(1.0);
        let mut opt = Sgd::new(0.1);
        for _ in 0..50 {
            let g = p.value().scale(2.0);
            *p.grad_mut() = g;
            opt.step(&mut [&mut p]).unwrap();
        }
        assert!(p.value().data()[0].abs() < 1e-3);
    }

    #[test]
    fn momentum_accelerates_on_consistent_gradient() {
        // Constant gradient of 1: with momentum the effective step grows.
        let mut plain = Parameter::new(Tensor::zeros(&[1]));
        let mut mom = Parameter::new(Tensor::zeros(&[1]));
        let mut opt_plain = Sgd::new(0.1);
        let mut opt_mom = Sgd::new(0.1).with_momentum(0.9);
        for _ in 0..10 {
            plain.grad_mut().fill(1.0);
            mom.grad_mut().fill(1.0);
            opt_plain.step(&mut [&mut plain]).unwrap();
            opt_mom.step(&mut [&mut mom]).unwrap();
        }
        assert!(mom.value().data()[0] < plain.value().data()[0]);
    }

    #[test]
    fn weight_decay_shrinks_weights_with_zero_grad() {
        let mut p = Parameter::new(Tensor::from_vec(vec![1.0], &[1]).unwrap());
        let mut opt = Sgd::new(0.1).with_weight_decay(0.5);
        p.zero_grad();
        opt.step(&mut [&mut p]).unwrap();
        assert!((p.value().data()[0] - 0.95).abs() < 1e-6);
    }

    #[test]
    fn step_decay_schedule() {
        let s = LrSchedule::StepDecay {
            every: 10,
            factor: 0.5,
        };
        assert_eq!(s.multiplier(0), 1.0);
        assert_eq!(s.multiplier(9), 1.0);
        assert_eq!(s.multiplier(10), 0.5);
        assert_eq!(s.multiplier(25), 0.25);
    }

    #[test]
    fn cosine_schedule_endpoints() {
        let s = LrSchedule::Cosine {
            total_rounds: 100,
            final_fraction: 0.1,
        };
        assert!((s.multiplier(0) - 1.0).abs() < 1e-6);
        assert!((s.multiplier(100) - 0.1).abs() < 1e-6);
        assert!((s.multiplier(1000) - 0.1).abs() < 1e-6);
        let mid = s.multiplier(50);
        assert!(mid > 0.1 && mid < 1.0);
    }

    #[test]
    fn advance_round_changes_lr() {
        let mut opt = Sgd::new(1.0).with_schedule(LrSchedule::StepDecay {
            every: 1,
            factor: 0.5,
        });
        assert_eq!(opt.current_lr(), 1.0);
        opt.advance_round();
        assert_eq!(opt.current_lr(), 0.5);
        assert_eq!(opt.round(), 1);
    }
}
