//! The headline benchmarks: a single split training step and full
//! multi-client rounds of the paper's CNN. There is one training engine,
//! so these are *normalized* rows ([`Suite::normalized`]): each workload
//! is reported against the calibration kernel timed in the same process,
//! which keeps the ratio comparable across machines.

use super::Suite;
use gsfl_core::config::{DatasetConfig, ExperimentConfig, ModelKind};
use gsfl_core::runner::Runner;
use gsfl_core::scheme::SchemeKind;
use gsfl_nn::loss::SoftmaxCrossEntropy;
use gsfl_nn::optim::Sgd;
use gsfl_nn::split::SplitNetwork;
use gsfl_tensor::Tensor;
use std::hint::black_box;

/// Mutable state for one split-training-step closure.
struct StepState {
    split: SplitNetwork,
    client_opt: Sgd,
    server_opt: Sgd,
    images: Tensor,
    labels: Vec<usize>,
}

impl StepState {
    fn new() -> Self {
        let model = ModelKind::deepthin_default();
        let net = model
            .build(&[3, 16, 16], 8, 3)
            .expect("benchmark model builds");
        let split = SplitNetwork::split(net, model.default_cut()).expect("valid cut");
        StepState {
            split,
            client_opt: Sgd::new(0.05),
            server_opt: Sgd::new(0.05),
            images: Tensor::from_fn(&[16, 3, 16, 16], |i| ((i * 31 % 255) as f32 / 255.0) - 0.5),
            labels: (0..16).map(|i| i % 8).collect(),
        }
    }

    fn step(&mut self) {
        let loss_fn = SoftmaxCrossEntropy::new();
        self.split.client.zero_grad();
        self.split.server.zero_grad();
        let smashed = self.split.client.forward(&self.images).unwrap();
        let logits = self.split.server.forward(&smashed).unwrap();
        let out = loss_fn.compute(&logits, &self.labels).unwrap();
        let grad_smashed = self.split.server.backward(&out.grad_logits).unwrap();
        self.split
            .client
            .backward_no_input_grad(&grad_smashed)
            .unwrap();
        self.server_opt
            .step(&mut self.split.server.params_mut())
            .unwrap();
        self.client_opt
            .step(&mut self.split.client.params_mut())
            .unwrap();
        self.split.client.recycle(smashed);
        self.split.server.recycle(logits);
        self.split.server.recycle(grad_smashed);
        self.split.server.recycle(out.grad_logits);
        black_box(out.loss);
    }
}

/// The paper's lightweight CNN at CI-friendly scale: 8 clients on
/// synthetic signs, one round.
fn round_config() -> ExperimentConfig {
    ExperimentConfig::builder()
        .clients(8)
        .groups(2)
        .rounds(1)
        .batch_size(16)
        .learning_rate(0.05)
        .dataset(DatasetConfig {
            classes: 8,
            samples_per_class: 32,
            test_per_class: 4,
            image_size: 16,
        })
        .seed(11)
        .build()
        .expect("benchmark config is valid")
}

/// Registers the train-step and end-to-end round benches on `suite`.
pub fn register(suite: &mut Suite) {
    // --- one split training step (CNN, batch 16) ---------------------
    let mut state = StepState::new();
    suite.normalized("train_step_split_cnn_b16", 60, || state.step());

    // --- full multi-client rounds (≥ 8 clients, CNN) -----------------
    // Context construction (datasets, shards, wireless) is excluded from
    // the timing; each iteration runs one complete round including the
    // round-1 evaluation.
    let runner = Runner::new(round_config()).expect("runner builds");
    for (label, kind) in [
        ("e2e_round_federated_8c", SchemeKind::Federated),
        ("e2e_round_splitfed_8c", SchemeKind::SplitFed),
    ] {
        suite.normalized(label, 8, || {
            black_box(runner.run(kind).unwrap());
        });
    }
}
