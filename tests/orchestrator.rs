//! Orchestrator determinism: plan-driven rounds must stay bit-identical
//! across host thread counts and fresh runners — including the seeded
//! bandit, whose exploration stream derives from the experiment seed —
//! and the default static path must be indistinguishable from an
//! explicitly configured `OrchestratorSpec::Static`.

use gsfl::core::config::{DatasetConfig, ExperimentConfig, ModelKind};
use gsfl::core::cut::CutPolicySpec;
use gsfl::core::orchestrator::OrchestratorSpec;
use gsfl::core::results::RunResult;
use gsfl::core::runner::Runner;
use gsfl::core::scheme::SchemeKind;
use gsfl::wireless::scenario::TraceReplaySpec;
use gsfl::wireless::Scenario;

/// A small run over the bundled diurnal trace, so orchestrators see
/// genuinely swinging per-round conditions (and coverage gaps).
fn config(spec: OrchestratorSpec, threads: usize) -> ExperimentConfig {
    ExperimentConfig::builder()
        .clients(6)
        .groups(2)
        .rounds(4)
        .batch_size(8)
        .eval_every(1)
        .dataset(DatasetConfig {
            classes: 4,
            samples_per_class: 10,
            test_per_class: 5,
            image_size: 8,
        })
        .model(ModelKind::Mlp {
            hidden: vec![16, 8],
        })
        .scenario(Scenario::TraceReplay(TraceReplaySpec::default()))
        .orchestrator(spec)
        .client_threads(threads)
        .seed(11)
        .build()
        .unwrap()
}

fn assert_bit_identical(a: &RunResult, b: &RunResult, label: &str) {
    assert_eq!(a.records.len(), b.records.len(), "{label}: round count");
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(
            ra.train_loss.to_bits(),
            rb.train_loss.to_bits(),
            "{label}: train_loss round {}",
            ra.round
        );
        assert_eq!(
            ra.round_latency_s.to_bits(),
            rb.round_latency_s.to_bits(),
            "{label}: round_latency round {}",
            ra.round
        );
        assert_eq!(
            ra.test_accuracy.map(f64::to_bits),
            rb.test_accuracy.map(f64::to_bits),
            "{label}: test_accuracy round {}",
            ra.round
        );
        assert_eq!(
            ra.bytes_up, rb.bytes_up,
            "{label}: bytes_up round {}",
            ra.round
        );
        assert_eq!(
            ra.bytes_down, rb.bytes_down,
            "{label}: bytes_down round {}",
            ra.round
        );
    }
}

/// Greedy and bandit plans must not depend on how many host threads the
/// round fans out over — group/replica work is independent and the plan
/// is decided before the fan-out.
#[test]
fn orchestrated_runs_bit_identical_across_thread_counts() {
    let specs = [
        ("greedy", OrchestratorSpec::Greedy, CutPolicySpec::Fixed),
        (
            "bandit",
            OrchestratorSpec::Bandit { epsilon: 0.2 },
            CutPolicySpec::Fixed,
        ),
        (
            "cut-greedy",
            OrchestratorSpec::Static,
            CutPolicySpec::Greedy,
        ),
        (
            "cut-bandit",
            OrchestratorSpec::Static,
            CutPolicySpec::Bandit { epsilon: 0.2 },
        ),
    ];
    for (name, spec, policy) in specs {
        let with_policy = |threads| ExperimentConfig {
            cut_policy: policy,
            ..config(spec, threads)
        };
        for kind in [
            SchemeKind::Gsfl,
            SchemeKind::SplitFed,
            SchemeKind::Federated,
        ] {
            let one = Runner::new(with_policy(1)).unwrap().run(kind).unwrap();
            let four = Runner::new(with_policy(4)).unwrap().run(kind).unwrap();
            assert_bit_identical(&one, &four, &format!("{name}/{kind}"));
        }
    }
}

/// The bandit's ε-exploration stream is seeded from the experiment seed:
/// two fresh runners replay the identical arm sequence.
#[test]
fn seeded_bandit_reproducible_across_fresh_runners() {
    for kind in [SchemeKind::Gsfl, SchemeKind::SplitFed] {
        let spec = OrchestratorSpec::Bandit { epsilon: 0.5 };
        let a = Runner::new(config(spec, 2)).unwrap().run(kind).unwrap();
        let b = Runner::new(config(spec, 2)).unwrap().run(kind).unwrap();
        assert_bit_identical(&a, &b, &format!("bandit-replay/{kind}"));
    }
}

/// `OrchestratorSpec::Static` is the default: configuring it explicitly
/// must change nothing relative to a config that never mentions an
/// orchestrator. (The golden fixtures in `scenario_static_golden.rs` pin
/// the static path against recorded history; this pins the spec wiring.)
#[test]
fn explicit_static_spec_matches_default_config() {
    for kind in SchemeKind::all() {
        let explicit = Runner::new(config(OrchestratorSpec::Static, 2))
            .unwrap()
            .run(kind)
            .unwrap();
        let implicit_cfg = ExperimentConfig::builder()
            .clients(6)
            .groups(2)
            .rounds(4)
            .batch_size(8)
            .eval_every(1)
            .dataset(DatasetConfig {
                classes: 4,
                samples_per_class: 10,
                test_per_class: 5,
                image_size: 8,
            })
            .model(ModelKind::Mlp {
                hidden: vec![16, 8],
            })
            .scenario(Scenario::TraceReplay(TraceReplaySpec::default()))
            .client_threads(2)
            .seed(11)
            .build()
            .unwrap();
        let implicit = Runner::new(implicit_cfg).unwrap().run(kind).unwrap();
        assert_bit_identical(&explicit, &implicit, &format!("static-default/{kind}"));
    }
}
