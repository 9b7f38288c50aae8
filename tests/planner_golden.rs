//! The per-round planner must be provably behavior-preserving: every
//! adaptive `cut_policy` and every non-static `orchestrator` has to
//! reproduce the round records — and the plans — that the code with a
//! separate cut-policy subsystem produced, byte for byte.
//!
//! `tests/fixtures/planner_records.json` was generated by that code. It
//! covers `cut_policy` ∈ {Greedy, Bandit} × {SL, SplitFed, GSFL} on the
//! adaptive-cut and trace-replay scenarios, `orchestrator` ∈ {Greedy,
//! Bandit} × the same schemes on trace replay, and SplitFed under chaos
//! with backups armed (dense and population mode), under churn and under
//! a lossy configured codec. Per
//! case it stores each scheme's round records plus the `Debug` form of
//! every plan a fresh `PlanSelector` emits for the case's rounds, fed a
//! fixed synthetic latency, so per-client cuts are pinned even where
//! they leave no trace in the records. The test compares the serialized
//! whole *as a string*, so any drift fails loudly.

use gsfl::core::compression::CompressionSpec;
use gsfl::core::config::{DatasetConfig, ExperimentConfig, ExperimentConfigBuilder, ModelKind};
use gsfl::core::context::TrainContext;
use gsfl::core::cut::CutPolicySpec;
use gsfl::core::orchestrator::{OrchestratorSpec, PlanSelector};
use gsfl::core::population::PopulationConfig;
use gsfl::core::recovery::{DeadlinePolicy, RecoverySpec};
use gsfl::core::results::RoundRecord;
use gsfl::core::runner::Runner;
use gsfl::core::scheme::SchemeKind;
use gsfl::nn::codec::CodecSpec;
use gsfl::wireless::scenario::{AdaptiveCutSpec, ChaosSpec, TraceReplaySpec};
use gsfl::wireless::Scenario;
use serde::Serialize;

const ROUNDS: usize = 6;

#[derive(Serialize)]
struct Run {
    scheme: String,
    records: Vec<RoundRecord>,
}

#[derive(Serialize)]
struct Case {
    case: String,
    plans: Vec<String>,
    runs: Vec<Run>,
}

fn base(scenario: Scenario) -> ExperimentConfigBuilder {
    ExperimentConfig::builder()
        .clients(6)
        .groups(2)
        .rounds(ROUNDS)
        .batch_size(4)
        .eval_every(3)
        .learning_rate(0.1)
        .dataset(DatasetConfig {
            classes: 3,
            samples_per_class: 8,
            test_per_class: 4,
            image_size: 8,
        })
        .model(ModelKind::Mlp {
            hidden: vec![16, 8],
        })
        .scenario(scenario)
        .seed(13)
}

/// Every plan a fresh selector emits over the run's rounds, fed a
/// latency that depends on the chosen cut and the round only.
fn plan_trace(config: &ExperimentConfig) -> Vec<String> {
    let ctx = TrainContext::from_config(config.clone()).unwrap();
    let selector = PlanSelector::from_config(config);
    (0..ROUNDS as u64)
        .map(|round| {
            let (plan, costs) = selector.plan_for_round(&ctx, round).unwrap();
            selector.observe(
                round,
                &plan,
                1.0 + 0.5 * plan.cut as f64 + 0.1 * (round % 3) as f64,
            );
            format!("{plan:?} {costs:?}")
        })
        .collect()
}

fn case(label: &str, config: ExperimentConfig, schemes: &[SchemeKind]) -> Case {
    let runner = Runner::new(config.clone()).unwrap();
    let runs = schemes
        .iter()
        .map(|&kind| {
            let result = runner.run(kind).unwrap();
            Run {
                scheme: result.scheme,
                records: result.records,
            }
        })
        .collect();
    Case {
        case: label.to_string(),
        plans: plan_trace(&config),
        runs,
    }
}

#[test]
fn planner_reproduces_recorded_plans_and_records_byte_identically() {
    let split_schemes = [
        SchemeKind::VanillaSplit,
        SchemeKind::SplitFed,
        SchemeKind::Gsfl,
    ];
    let scenarios = [
        (
            "adaptive_cut",
            Scenario::AdaptiveCut(AdaptiveCutSpec::default()),
        ),
        (
            "trace_replay",
            Scenario::TraceReplay(TraceReplaySpec::default()),
        ),
    ];
    let policies = [
        ("greedy", CutPolicySpec::Greedy),
        ("bandit", CutPolicySpec::Bandit { epsilon: 0.2 }),
    ];
    let orchestrators = [
        ("greedy", OrchestratorSpec::Greedy),
        ("bandit", OrchestratorSpec::Bandit { epsilon: 0.2 }),
    ];
    let mut cases = Vec::new();
    for (scenario_label, scenario) in scenarios {
        for (label, policy) in policies {
            let config = base(scenario).cut_policy(policy).build().unwrap();
            cases.push(case(
                &format!("cut_policy/{label}/{scenario_label}"),
                config,
                &split_schemes,
            ));
        }
    }
    for (label, spec) in orchestrators {
        let config = base(Scenario::TraceReplay(TraceReplaySpec::default()))
            .orchestrator(spec)
            .build()
            .unwrap();
        cases.push(case(
            &format!("orchestrator/{label}/trace_replay"),
            config,
            &split_schemes,
        ));
    }

    // SplitFed is the scheme that honors per-client cuts; run it where
    // faults, backups, churn and cohort slots reach them.
    let recovery = RecoverySpec {
        deadline: Some(DeadlinePolicy {
            deadline_s: 30.0,
            min_quorum_frac: 0.3,
        }),
        backups: 2,
    };
    let chaos = || base(Scenario::Chaos(ChaosSpec::default())).recovery(recovery);
    for (label, policy) in policies {
        cases.push(case(
            &format!("cut_policy/{label}/chaos_backups"),
            chaos().cut_policy(policy).build().unwrap(),
            &[SchemeKind::SplitFed],
        ));
        cases.push(case(
            &format!("cut_policy/{label}/chaos_population"),
            chaos()
                .cut_policy(policy)
                .population(PopulationConfig {
                    clients: 500,
                    samples_per_client: 0,
                })
                .build()
                .unwrap(),
            &[SchemeKind::SplitFed],
        ));
        cases.push(case(
            &format!("cut_policy/{label}/trace_replay_churn"),
            base(Scenario::TraceReplay(TraceReplaySpec::default()))
                .cut_policy(policy)
                .availability(0.5)
                .build()
                .unwrap(),
            &[SchemeKind::SplitFed],
        ));
    }
    // A lossy configured codec: the cut-only plans price its wire sizes.
    for (label, policy) in policies {
        cases.push(case(
            &format!("cut_policy/{label}/trace_replay_intq8_ef"),
            base(Scenario::TraceReplay(TraceReplaySpec::default()))
                .cut_policy(policy)
                .compression(CompressionSpec {
                    error_feedback: true,
                    ..CompressionSpec::uniform(CodecSpec::IntQ { bits: 8 })
                })
                .build()
                .unwrap(),
            &[SchemeKind::SplitFed, SchemeKind::Gsfl],
        ));
    }
    for (label, spec) in orchestrators {
        cases.push(case(
            &format!("orchestrator/{label}/chaos_backups"),
            chaos().orchestrator(spec).build().unwrap(),
            &[SchemeKind::SplitFed],
        ));
    }

    let got = serde_json::to_string_pretty(&cases).unwrap();
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/planner_records.json"
    ))
    .expect("planner fixture present");
    assert_eq!(
        got, golden,
        "planner plans or round records diverged from the recorded fixture"
    );
}
