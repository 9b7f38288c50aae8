//! Adaptive cut-layer selection, as named in experiment configs.
//!
//! The paper fixes the split point once per experiment; the follow-up
//! literature (Accelerating-SFL, ASFL) picks it every round from the
//! observed channel and compute conditions, because the latency-optimal
//! cut moves when bandwidth collapses, interference rises or stragglers
//! appear. The per-round decision itself is made by the planner in
//! [`crate::orchestrator`]: a non-fixed [`CutPolicySpec`] selects the
//! planner's *cut-only* arm space — the candidate cuts at the configured
//! codec and the channel mode's default bandwidth split.
//!
//! Adaptive policies require `momentum == 0` — optimizer velocity is not
//! remappable across cuts, and the config validation rejects the
//! combination rather than silently resetting state.

use serde::{Deserialize, Serialize};

/// Serde-loadable cut-policy names for experiment configs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum CutPolicySpec {
    /// The configured cut every round (the paper's behavior) — default.
    #[default]
    Fixed,
    /// The greedy latency-estimate planner
    /// ([`crate::orchestrator::GreedyJoint`]) over the cut-only arm
    /// space: each round's argmin cut, plus every client's own-chain
    /// argmin as its per-client cut.
    Greedy,
    /// The ε-greedy bandit over realized latencies
    /// ([`crate::orchestrator::BanditPlan`]) over the cut-only arm space.
    Bandit {
        /// Exploration probability in `[0, 1]`.
        epsilon: f64,
    },
}

impl CutPolicySpec {
    /// Whether this is the fixed (non-adaptive) policy.
    pub fn is_fixed(&self) -> bool {
        matches!(self, CutPolicySpec::Fixed)
    }
}
