//! Per-layer replays: the workload's own nn, codec, aggregation,
//! round-pricing, recovery, planning and population calls, made through
//! each layer's public API at the workload's exact shapes. Timed replays
//! report the median call; the traced run makes each once at the full
//! thread budget and once while [`single_thread`] holds every extra
//! thread of the budget.

use crate::stats::median;
use gsfl_core::aggregate::aggregate_tree;
use gsfl_core::compression::CompressionSpec;
use gsfl_core::context::TrainContext;
use gsfl_core::latency::{gsfl_round_recovered, SplitCosts};
use gsfl_core::orchestrator::{PlanSelector, RoundPlan};
use gsfl_core::{CoreError, Result};
use gsfl_data::batcher::{Batch, Batcher};
use gsfl_nn::codec::CodecSpec;
use gsfl_nn::loss::SoftmaxCrossEntropy;
use gsfl_nn::optim::Sgd;
use gsfl_nn::params::ParamVec;
use gsfl_nn::split::SplitNetwork;
use gsfl_nn::Sequential;
use gsfl_tensor::threading::request_threads;
use gsfl_tensor::{Tensor, Workspace};
use std::time::{Duration, Instant};

/// Wall time one timed replay aims to fill.
const TARGET: Duration = Duration::from_millis(300);

/// Runs `f` while holding every extra thread of the budget, so nested
/// parallel paths (GEMM row splits, group fan-out) run on one thread.
pub fn single_thread<T>(f: impl FnOnce() -> T) -> T {
    let _grant = request_threads(usize::MAX);
    f()
}

/// Calls not counted at the start of every [`repeat`].
const WARMUP: usize = 3;

/// Calls `f` for [`WARMUP`] calls plus about [`TARGET`] of wall time
/// (at least 20 calls). Callers record one sample per call and take
/// [`warm_median`] of them.
fn repeat(mut f: impl FnMut() -> Result<()>) -> Result<()> {
    for _ in 0..WARMUP {
        f()?;
    }
    let start = Instant::now();
    let mut calls = 0;
    while calls < 20 || (start.elapsed() < TARGET && calls < 20_000) {
        f()?;
        calls += 1;
    }
    Ok(())
}

/// Median of the samples after the warm-up calls.
fn warm_median(xs: &[f64]) -> f64 {
    median(&xs[WARMUP.min(xs.len())..])
}

/// Nanoseconds `f` takes.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_nanos() as f64)
}

/// A fresh instance of the workload's network, initialized as every
/// session's is.
pub fn model(ctx: &TrainContext) -> Result<Sequential> {
    let cfg = &ctx.config;
    cfg.model
        .build(&ctx.sample_dims, cfg.dataset.classes, cfg.seed)
}

/// A batch of the workload's batch size from its largest shard.
pub fn sample_batch(ctx: &TrainContext) -> Result<Batch> {
    let cfg = &ctx.config;
    let shard = ctx
        .train_shards
        .iter()
        .max_by_key(|s| s.len())
        .ok_or_else(|| CoreError::Config("no training shards".into()))?;
    let batcher = Batcher::new(cfg.batch_size, cfg.seed)?;
    let batch = batcher
        .epoch(shard, 0)?
        .next()
        .ok_or_else(|| CoreError::Config("empty shard".into()))?;
    Ok(batch)
}

/// Median µs of each phase of one split training step (client forward,
/// server forward, loss, server backward, client backward, optimizer),
/// plus the whole step.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepTimes {
    pub client_fwd: f64,
    pub server_fwd: f64,
    pub loss: f64,
    pub server_bwd: f64,
    pub client_bwd: f64,
    pub optim: f64,
    pub step: f64,
}

/// Replays `split_train_epoch`'s step at the workload's model and batch
/// and at `cut` (the cut codecs are replayed separately by [`codec`]).
pub fn split_step(ctx: &TrainContext, batch: &Batch, cut: usize) -> Result<StepTimes> {
    let cfg = &ctx.config;
    let mut split = SplitNetwork::split(model(ctx)?, cut)?;
    let loss_fn = SoftmaxCrossEntropy::new();
    let mut client_opt = Sgd::new(cfg.learning_rate).with_momentum(cfg.momentum);
    let mut server_opt = Sgd::new(cfg.learning_rate).with_momentum(cfg.momentum);
    let mut parts: [Vec<f64>; 7] = Default::default();
    repeat(|| {
        let t0 = Instant::now();
        split.client.zero_grad();
        split.server.zero_grad();
        let t1 = Instant::now();
        let smashed = split.client.forward(&batch.images)?;
        let t2 = Instant::now();
        let logits = split.server.forward(&smashed)?;
        let t3 = Instant::now();
        let out = loss_fn.compute(&logits, &batch.labels)?;
        let t4 = Instant::now();
        let grad_smashed = split.server.backward(&out.grad_logits)?;
        let t5 = Instant::now();
        split.client.backward_no_input_grad(&grad_smashed)?;
        let t6 = Instant::now();
        server_opt.step(&mut split.server.params_mut())?;
        client_opt.step(&mut split.client.params_mut())?;
        let t7 = Instant::now();
        split.client.recycle(smashed);
        split.server.recycle(logits);
        split.server.recycle(grad_smashed);
        split.server.recycle(out.grad_logits);
        let us = |a: Instant, b: Instant| (b - a).as_nanos() as f64 / 1e3;
        parts[0].push(us(t1, t2));
        parts[1].push(us(t2, t3));
        parts[2].push(us(t3, t4));
        parts[3].push(us(t4, t5));
        parts[4].push(us(t5, t6));
        parts[5].push(us(t0, t1) + us(t6, t7));
        parts[6].push(us(t0, t7));
        Ok(())
    })?;
    Ok(StepTimes {
        client_fwd: warm_median(&parts[0]),
        server_fwd: warm_median(&parts[1]),
        loss: warm_median(&parts[2]),
        server_bwd: warm_median(&parts[3]),
        client_bwd: warm_median(&parts[4]),
        optim: warm_median(&parts[5]),
        step: warm_median(&parts[6]),
    })
}

/// Median µs of each layer's forward and backward pass, from a chain of
/// one-layer networks cut with `Sequential::split_at`. The first layer's
/// backward skips the input gradient, as training does.
pub fn layer_chain(ctx: &TrainContext, batch: &Batch) -> Result<Vec<(String, f64, f64)>> {
    let mut rest = model(ctx)?;
    let names = rest.layer_names();
    let mut layers: Vec<Sequential> = Vec::new();
    while rest.depth() > 1 {
        let (head, tail) = rest.split_at(1)?;
        layers.push(head);
        rest = tail;
    }
    layers.push(rest);
    let n = layers.len();
    let loss_fn = SoftmaxCrossEntropy::new();
    let mut fwd: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut bwd: Vec<Vec<f64>> = vec![Vec::new(); n];
    repeat(|| {
        let mut outs: Vec<Tensor> = Vec::with_capacity(n);
        for i in 0..n {
            let input = if i == 0 { &batch.images } else { &outs[i - 1] };
            let (y, ns) = timed(|| layers[i].forward(input));
            fwd[i].push(ns / 1e3);
            outs.push(y?);
        }
        let loss = loss_fn.compute(&outs[n - 1], &batch.labels)?;
        let mut grad = loss.grad_logits;
        for i in (0..n).rev() {
            layers[i].zero_grad();
            if i == 0 {
                let (r, ns) = timed(|| layers[0].backward_no_input_grad(&grad));
                r?;
                bwd[0].push(ns / 1e3);
            } else {
                let (g, ns) = timed(|| layers[i].backward(&grad));
                bwd[i].push(ns / 1e3);
                grad = g?;
            }
        }
        for (layer, out) in layers.iter_mut().zip(outs) {
            layer.recycle(out);
        }
        Ok(())
    })?;
    Ok((0..n)
        .map(|i| (names[i].clone(), warm_median(&fwd[i]), warm_median(&bwd[i])))
        .collect())
}

/// One codec's replay at one payload.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecTimes {
    pub encode_us: f64,
    pub decode_us: f64,
    /// Encoded bytes ÷ raw fp32 bytes.
    pub wire_ratio: f64,
    /// Whether the runtime skips this codec (identity passthrough).
    pub identity: bool,
}

/// Times `spec`'s encode and decode of `values` through a pooled wire
/// buffer, as `wire_roundtrip` does.
pub fn codec(spec: &CodecSpec, values: &[f32]) -> Result<CodecTimes> {
    let codec = spec.build();
    let mut ws = Workspace::new();
    let mut out = values.to_vec();
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut len = 0usize;
    let mut stream = 0u64;
    repeat(|| {
        stream += 1;
        let mut buf = ws.take_wire();
        let ((), e) = timed(|| codec.encode(values, stream, &mut ws, &mut buf));
        let (r, d) = timed(|| codec.decode(&buf, &mut out));
        r?;
        len = buf.len();
        ws.give_wire(buf);
        enc.push(e / 1e3);
        dec.push(d / 1e3);
        Ok(())
    })?;
    Ok(CodecTimes {
        encode_us: warm_median(&enc),
        decode_us: warm_median(&dec),
        wire_ratio: len as f64 / gsfl_tensor::wire::raw_len(values.len()) as f64,
        identity: codec.is_identity(),
    })
}

/// The three codec payloads of the workload at `cut`: smashed
/// activations and cut gradients of one batch, and the client half's
/// parameters.
pub fn codec_payloads(ctx: &TrainContext, batch: &Batch, cut: usize) -> Result<[Vec<f32>; 3]> {
    let mut split = SplitNetwork::split(model(ctx)?, cut)?;
    let smashed = split.client.forward(&batch.images)?;
    let logits = split.server.forward(&smashed)?;
    let out = SoftmaxCrossEntropy::new().compute(&logits, &batch.labels)?;
    let grad = split.server.backward(&out.grad_logits)?;
    Ok([
        smashed.data().to_vec(),
        grad.data().to_vec(),
        ParamVec::from_network(&split.client).into_values(),
    ])
}

/// Median ms of one round's two-tier FedAvg of both model halves split
/// at `cut` (`aggregate_tree` over one snapshot per group each, as GSFL
/// reduces).
pub fn aggregate(ctx: &TrainContext, cut: usize) -> Result<f64> {
    let split = SplitNetwork::split(model(ctx)?, cut)?;
    let client = ParamVec::from_network(&split.client);
    let server = ParamVec::from_network(&split.server);
    let perturbed = |p: &ParamVec, g: usize| {
        ParamVec::from_values(
            p.values()
                .iter()
                .map(|v| v + 1e-3 * g as f32)
                .collect::<Vec<f32>>(),
        )
    };
    let groups = &ctx.groups;
    let client_snaps: Vec<ParamVec> = (0..groups.len()).map(|g| perturbed(&client, g)).collect();
    let server_snaps: Vec<ParamVec> = (0..groups.len()).map(|g| perturbed(&server, g)).collect();
    let weights: Vec<f64> = groups
        .iter()
        .map(|g| g.iter().map(|&c| ctx.train_shards[c].len() as f64).sum())
        .collect();
    let aps = groups
        .iter()
        .map(|g| ctx.env.ap_of(g[g.len() - 1], 1))
        .collect::<gsfl_wireless::Result<Vec<usize>>>()?;
    let mut ws = Workspace::new();
    let mut samples = Vec::new();
    repeat(|| {
        let (r, ns) = timed(|| -> Result<()> {
            let c = aggregate_tree(&client_snaps, &weights, &aps, &mut ws)?;
            let s = aggregate_tree(&server_snaps, &weights, &aps, &mut ws)?;
            ws.give(c.params.into_values());
            ws.give(s.params.into_values());
            Ok(())
        });
        samples.push(ns);
        r
    })?;
    Ok(warm_median(&samples) / 1e6)
}

/// Median ms of GSFL's round-pricing call and of the fault-recovery
/// preparation before it, replayed over the session's rounds:
/// availability-filtered participants under each round's plan (cohort
/// cap, shares, and the cost profile of its cut and codec).
pub fn pricing(ctx: &TrainContext, plans: &[(RoundPlan, SplitCosts)]) -> Result<(f64, f64)> {
    let cfg = &ctx.config;
    let steps = ctx.steps_per_client();
    let mut price = Vec::new();
    let mut prepare = Vec::new();
    let start = Instant::now();
    while price.len() < plans.len() || start.elapsed() < TARGET {
        let i = price.len() % plans.len();
        let (plan, costs) = &plans[i];
        let round = i as u64 + 1;
        let available = ctx.available_clients(round);
        let mut admitted = available.clone();
        if let Some(k) = plan.cohort {
            admitted.truncate(k);
        }
        let groups: Vec<Vec<usize>> = ctx
            .groups
            .iter()
            .map(|g| {
                g.iter()
                    .copied()
                    .filter(|c| admitted.contains(c))
                    .collect::<Vec<usize>>()
            })
            .filter(|g| !g.is_empty())
            .collect();
        let planned: Vec<usize> = groups.iter().flatten().copied().collect();
        let (recovery, p) = timed(|| ctx.round_recovery(round, &planned, &available));
        let (r, ns) = timed(|| {
            gsfl_round_recovered(
                ctx.env.as_ref(),
                &vec![*costs; groups.len()],
                &steps,
                &groups,
                cfg.bandwidth_policy,
                cfg.channel,
                round,
                plan.shares.as_deref(),
                &recovery.plan,
            )
        });
        r?;
        prepare.push(p);
        price.push(ns);
    }
    Ok((median(&price) / 1e6, median(&prepare) / 1e6))
}

/// Every round's plan, as a fresh `PlanSelector` resolves it, with the
/// median ms per `plan_for_round` call (the selector is re-run over the
/// rounds until the timing target is met; plans come from the first
/// pass).
pub fn plans(ctx: &TrainContext, rounds: usize) -> Result<(Vec<(RoundPlan, SplitCosts)>, f64)> {
    let mut out = Vec::with_capacity(rounds);
    let mut ms = Vec::new();
    let start = Instant::now();
    while ms.len() < rounds || start.elapsed() < TARGET {
        let selector = PlanSelector::from_config(&ctx.config);
        for round in 1..=rounds {
            let (r, ns) = timed(|| selector.plan_for_round(ctx, round as u64));
            let planned = r?;
            ms.push(ns / 1e6);
            if out.len() < rounds {
                out.push(planned);
            }
        }
    }
    Ok((out, median(&ms)))
}

/// The cut and codec the session's plans choose most often, and the
/// number of rounds that choose them. The nn, codec and aggregation
/// replays run at this cut and codec.
pub fn common_plan(plans: &[(RoundPlan, SplitCosts)]) -> Result<(usize, CompressionSpec, usize)> {
    let mut tally: Vec<(usize, CompressionSpec, usize)> = Vec::new();
    for (plan, _) in plans {
        match tally
            .iter_mut()
            .find(|(cut, codec, _)| *cut == plan.cut && *codec == plan.codec)
        {
            Some(entry) => entry.2 += 1,
            None => tally.push((plan.cut, plan.codec, 1)),
        }
    }
    // The first of equally frequent choices, so the pick is stable.
    tally
        .into_iter()
        .rev()
        .max_by_key(|&(_, _, n)| n)
        .ok_or_else(|| CoreError::Config("no rounds planned".into()))
}

/// Median µs of `TrainContext::cohort_members` and median ms of
/// `TrainContext::round_shards` over `rounds`.
pub fn population(ctx: &TrainContext, rounds: usize) -> Result<(f64, f64)> {
    let mut cohort = Vec::new();
    let mut shards = Vec::new();
    let start = Instant::now();
    while cohort.len() < rounds || start.elapsed() < TARGET {
        let round = (cohort.len() % rounds + 1) as u64;
        let (members, ns) = timed(|| ctx.cohort_members(round));
        std::hint::black_box(members);
        cohort.push(ns / 1e3);
        let (r, ns) = timed(|| ctx.round_shards(round).map(|s| s.len()));
        std::hint::black_box(r?);
        shards.push(ns / 1e6);
    }
    Ok((median(&cohort), median(&shards)))
}
