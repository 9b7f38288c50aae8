//! The benchmark workloads: their configs and their session length.

use gsfl_core::config::{DatasetConfig, ExperimentConfig, ModelKind, PartitionStrategy};
use gsfl_core::orchestrator::OrchestratorSpec;
use gsfl_core::population::PopulationConfig;
use gsfl_core::recovery::{DeadlinePolicy, RecoverySpec};
use gsfl_core::scheme::SchemeKind;
use gsfl_core::Result;
use gsfl_wireless::scenario::Scenario;

/// Test accuracy the last eval round of a session must clear: well above
/// chance (1/43 for the CNN task, 1/10 for the MLP task).
pub const ACCURACY_FLOOR: f64 = 0.5;

/// Rounds per session. Every session runs exactly this many rounds (no
/// accuracy stop), so every session does the same work.
pub const ROUNDS: usize = 100;

/// The scheme every workload runs.
pub const SCHEME: SchemeKind = SchemeKind::Gsfl;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// GSFL at the paper's scale: compute under group parallelism.
    GsflPaper,
    /// Population-mode GSFL with a greedy planner, chaos and recovery.
    PopulationControl,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::GsflPaper, Workload::PopulationControl];

    pub fn name(self) -> &'static str {
        match self {
            Workload::GsflPaper => "gsfl_paper",
            Workload::PopulationControl => "population_control",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's experiment config for `seed`.
    pub fn config(self, seed: u64) -> Result<ExperimentConfig> {
        match self {
            // IID shards: every client holds the same number of samples
            // whatever the seed, so every seed trains the same steps per
            // client and group (the paper's Dirichlet(1) split would let
            // the seed change the work, not just the data).
            Workload::GsflPaper => gsfl_bench::paper_config(false)
                .partition(PartitionStrategy::Iid)
                .rounds(ROUNDS)
                .eval_every(5)
                .seed(seed)
                .build(),
            Workload::PopulationControl => ExperimentConfig::builder()
                .clients(64)
                .groups(8)
                .population(PopulationConfig {
                    clients: 1_000_000,
                    samples_per_client: 8,
                })
                .model(ModelKind::Mlp { hidden: vec![32] })
                .dataset(DatasetConfig {
                    classes: 10,
                    samples_per_class: 40,
                    test_per_class: 20,
                    image_size: 8,
                })
                .batch_size(8)
                .momentum(0.0)
                .orchestrator(OrchestratorSpec::Greedy)
                .scenario(Scenario::preset("chaos").expect("preset exists"))
                .recovery(RecoverySpec {
                    deadline: Some(DeadlinePolicy {
                        deadline_s: 30.0,
                        min_quorum_frac: 0.5,
                    }),
                    backups: 4,
                })
                .rounds(ROUNDS)
                .eval_every(5)
                .seed(seed)
                .build(),
        }
    }
}
