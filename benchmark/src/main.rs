//! GSFL session benchmark.
//!
//! Drives real `gsfl_core::runner::Session`s from outside the crates, one
//! at a time in one process, over a fixed per-session round budget with
//! no accuracy stop, for about `--seconds`, then checks the records and
//! prints the metrics. The last stdout line is the JSON result.
//!
//! ```text
//! gsfl-benchmark --workload <gsfl_paper|population_control>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` runs the same
//! sessions untraced and then traced (decorated scheme and channel,
//! counting allocator on), replays each layer's calls at the workload's
//! shapes, and reports the per-layer metrics. The traced sessions' spans
//! (every round-level span, the first wireless-call spans) are written
//! to `out/spans-<workload>-<seed>.jsonl` under the benchmark directory.

mod alloc;
mod replay;
mod stats;
mod trace;
mod workloads;

use gsfl_core::config::ExperimentConfig;
use gsfl_core::context::TrainContext;
use gsfl_core::latency::SplitCosts;
use gsfl_core::orchestrator::RoundPlan;
use gsfl_core::results::RoundRecord;
use gsfl_core::runner::{RoundEvent, Session};
use gsfl_core::scheme::Scheme;
use gsfl_core::stop::NeverStop;
use gsfl_tensor::threading::hardware_threads;
use replay::single_thread;
use stats::{mean, median, percentile, Metric};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{TracedChannel, TracedScheme, Tracer};
use workloads::Workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-ups before each session; `setup_s` is the median over the run.
const SETUPS_PER_SESSION: usize = 5;
/// Rounds an untraced run times at least, so that ≥10 of its rounds lie
/// beyond the 90th percentile.
const MIN_ROUNDS: usize = 100;
/// Layers reported as `nn.layer.<i>.*`; indices past a model's depth
/// read 0.
const MAX_LAYERS: usize = 10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| bad("workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("seed"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("seconds"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// How long each set-up of a run took: `TrainContext::from_config`, and
/// `Session` construction (scheme init, eval net).
#[derive(Default)]
struct SetupTimes {
    context_s: Vec<f64>,
    session_s: Vec<f64>,
}

impl SetupTimes {
    /// Sets the workload up [`SETUPS_PER_SESSION`] times, each context
    /// dropped before the next is built, and returns the last context.
    fn set_up(&mut self, config: &ExperimentConfig) -> gsfl_core::Result<TrainContext> {
        let mut ctx = None;
        for _ in 0..SETUPS_PER_SESSION {
            drop(ctx.take());
            let t = Instant::now();
            let built = TrainContext::from_config(config.clone())?;
            self.context_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let session =
                Session::with_scheme(&built, workloads::SCHEME.scheme(), Box::new(NeverStop))?;
            self.session_s.push(t.elapsed().as_secs_f64());
            drop(session);
            ctx = Some(built);
        }
        Ok(ctx.expect("SETUPS_PER_SESSION ≥ 1"))
    }

    fn total_s(&self) -> Vec<f64> {
        self.context_s
            .iter()
            .zip(&self.session_s)
            .map(|(c, s)| c + s)
            .collect()
    }
}

/// One drained session: its records, the host ms of each round
/// (`RoundStarted` → `RoundFinished`), the process CPU seconds and the
/// counted allocations (count, bytes) summed over those same intervals,
/// and the error that ended it early, if any.
struct SessionRun {
    records: Vec<RoundRecord>,
    round_ms: Vec<f64>,
    cpu_s: f64,
    allocs: (u64, u64),
    error: Option<String>,
}

fn run_session(ctx: &TrainContext, scheme: Box<dyn Scheme>, tracer: Option<&Tracer>) -> SessionRun {
    let mut run = SessionRun {
        records: Vec::new(),
        round_ms: Vec::new(),
        cpu_s: 0.0,
        allocs: (0, 0),
        error: None,
    };
    let mut session = match Session::with_scheme(ctx, scheme, Box::new(NeverStop)) {
        Ok(s) => s,
        Err(e) => {
            run.error = Some(e.to_string());
            return run;
        }
    };
    let mut started = Instant::now();
    let (mut cpu0, mut allocs0) = (0.0, (0, 0));
    let mut span = (0, 0);
    for event in &mut session {
        match event {
            Ok(RoundEvent::RoundStarted { round }) => {
                if let Some(t) = tracer {
                    span = t.begin_round(round);
                }
                cpu0 = stats::process_cpu_s();
                allocs0 = alloc::counts();
                started = Instant::now();
            }
            Ok(RoundEvent::RoundFinished { record, .. }) => {
                run.round_ms.push(started.elapsed().as_secs_f64() * 1e3);
                let allocs1 = alloc::counts();
                run.cpu_s += stats::process_cpu_s() - cpu0;
                run.allocs.0 += allocs1.0 - allocs0.0;
                run.allocs.1 += allocs1.1 - allocs0.1;
                if let Some(t) = tracer {
                    t.end_round(span);
                }
                run.records.push(record);
            }
            Ok(_) => {}
            Err(e) => {
                run.error = Some(e.to_string());
                break;
            }
        }
    }
    run
}

/// Sets up and runs whole sessions back to back: at least one, at least
/// `min_rounds` rounds, and then the session count that ends closest to
/// `budget`. Each session gets a context of its own, so the set-ups are
/// spread over the run like the rounds; with a tracer, its channel is
/// decorated. Returns the last context and the sessions.
fn measure(
    config: &ExperimentConfig,
    setups: &mut SetupTimes,
    budget: Duration,
    min_rounds: usize,
    tracer: Option<&Arc<Tracer>>,
) -> gsfl_core::Result<(TrainContext, Vec<SessionRun>)> {
    let start = Instant::now();
    let mut runs: Vec<SessionRun> = Vec::new();
    let mut ctx = None;
    loop {
        drop(ctx.take());
        let mut built = setups.set_up(config)?;
        let scheme: Box<dyn Scheme> = match tracer {
            Some(t) => {
                built.env = Arc::new(TracedChannel::new(built.env.clone(), t.clone()));
                Box::new(TracedScheme::new(workloads::SCHEME.scheme(), t.clone()))
            }
            None => workloads::SCHEME.scheme(),
        };
        let run = run_session(&built, scheme, tracer.map(|t| t.as_ref()));
        ctx = Some(built);
        let failed = run.error.is_some();
        runs.push(run);
        let rounds: usize = runs.iter().map(|r| r.records.len()).sum();
        let per_session = start.elapsed() / runs.len() as u32;
        if failed || (rounds >= min_rounds && start.elapsed() + per_session / 2 >= budget) {
            return Ok((ctx.expect("one session ran"), runs));
        }
    }
}

/// All 15 fields of a record as bits, for exact comparison.
fn record_bits(r: &RoundRecord) -> [u64; 15] {
    [
        r.round as u64,
        r.round_latency_s.to_bits(),
        r.cumulative_latency_s.to_bits(),
        r.train_loss.to_bits(),
        r.test_accuracy.map_or(u64::MAX, f64::to_bits),
        r.bytes_up,
        r.bytes_down,
        r.bytes_up_raw,
        r.bytes_down_raw,
        r.client_energy_j.to_bits(),
        r.retries,
        r.wasted_airtime_bytes,
        u64::from(r.lost_clients),
        u64::from(r.backups_activated),
        u64::from(r.quorum_met),
    ]
}

/// Rounds attempted and failed, and run-level problems.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Tally {
    fn problem(&mut self, p: String) {
        eprintln!("check failed: {p}");
        self.problems.push(p);
    }

    /// Per-round checks: every round `Ok` with finite loss and latency,
    /// the workload's path visible in its bytes, and every record equal
    /// bit for bit to `reference` (the first untraced session of the
    /// seed) at the same round.
    fn rounds(&mut self, w: Workload, runs: &[SessionRun], reference: &[RoundRecord]) {
        for (s, run) in runs.iter().enumerate() {
            self.attempted += run.records.len();
            if let Some(e) = &run.error {
                self.attempted += 1;
                self.failed += 1;
                self.problem(format!("session {s} failed: {e}"));
            } else if run.records.len() != workloads::ROUNDS {
                self.problem(format!("session {s} ran {} rounds", run.records.len()));
            }
            for (i, r) in run.records.iter().enumerate() {
                let path_ok = match w {
                    Workload::GsflPaper => r.bytes_up == r.bytes_up_raw,
                    Workload::PopulationControl => true,
                };
                let ok = r.train_loss.is_finite()
                    && r.round_latency_s.is_finite()
                    && r.round_latency_s > 0.0
                    && path_ok
                    && reference.get(i).map(record_bits) == Some(record_bits(r));
                if !ok {
                    self.failed += 1;
                    self.problem(format!("session {s} round {} failed its checks", r.round));
                }
            }
        }
    }
}

/// Test accuracy at the session's last eval round.
fn final_accuracy(records: &[RoundRecord]) -> f64 {
    records
        .iter()
        .rev()
        .find_map(|r| r.test_accuracy)
        .unwrap_or(0.0)
}

/// Run-level checks on the reference session: accuracy floor, and for
/// the population workload that faults and planning really fired.
fn run_checks(
    w: Workload,
    ctx: &TrainContext,
    reference: &[RoundRecord],
    plans: &[(RoundPlan, SplitCosts)],
    tally: &mut Tally,
) {
    let acc = final_accuracy(reference);
    if acc < workloads::ACCURACY_FLOOR {
        tally.problem(format!(
            "test_acc_final {acc} below {}",
            workloads::ACCURACY_FLOOR
        ));
    }
    if w == Workload::PopulationControl {
        let retries: u64 = reference.iter().map(|r| r.retries).sum();
        let lost: u32 = reference.iter().map(|r| r.lost_clients).sum();
        let cfg = &ctx.config;
        let planned = plans.iter().any(|(p, _)| {
            p.cut != cfg.cut()
                || p.codec != cfg.compression
                || p.shares.is_some()
                || p.cohort.is_some()
                || p.client_cuts
                    .as_ref()
                    .is_some_and(|cuts| cuts.iter().any(|&c| c != cfg.cut()))
        });
        if retries == 0 || lost == 0 || !planned {
            tally.problem(format!(
                "control plane idle: retries {retries}, lost {lost}, non-static plan {planned}"
            ));
        }
    }
}

/// Clients trained and steps taken in each round of a session: the
/// round's admitted cohort (availability, then the plan's cohort cap)
/// less the clients it lost, none on a quorum miss.
fn round_work(
    ctx: &TrainContext,
    plans: &[(RoundPlan, SplitCosts)],
    records: &[RoundRecord],
) -> Vec<(usize, usize)> {
    records
        .iter()
        .zip(plans)
        .map(|(r, (plan, _))| {
            let mut admitted = ctx.available_clients(r.round as u64);
            if let Some(k) = plan.cohort {
                admitted.truncate(k);
            }
            if !r.quorum_met || admitted.is_empty() {
                return (0, 0);
            }
            let steps: usize = admitted.iter().map(|&c| ctx.steps_for(c)).sum();
            let trained = admitted.len().saturating_sub(r.lost_clients as usize);
            (trained, steps * trained / admitted.len())
        })
        .collect()
}

/// Each round's median host ms over the sessions of `runs`, for the
/// rounds every session reached.
fn round_profile(runs: &[SessionRun]) -> Vec<f64> {
    let rounds = runs.iter().map(|r| r.round_ms.len()).min().unwrap_or(0);
    (0..rounds)
        .map(|i| median(&runs.iter().map(|r| r.round_ms[i]).collect::<Vec<_>>()))
        .collect()
}

fn pooled(runs: &[SessionRun]) -> Vec<f64> {
    runs.iter()
        .flat_map(|r| r.round_ms.iter().copied())
        .collect()
}

fn env_line(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload={} seed={} seconds={} trace={} nproc={} threads={} isa={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc,
        hardware_threads(),
        gsfl_tensor::simd::active_isa().name()
    );
}

fn print_result(tally: &Tally, metrics: &[Metric]) {
    for m in metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for p in &tally.problems {
        println!("# problem: {p}");
    }
    println!(
        "{}",
        stats::result_json(
            tally.problems.is_empty(),
            tally.attempted.max(1),
            tally.failed,
            metrics
        )
    );
}

/// The untraced run: end-to-end metrics.
fn end_to_end(args: &Args) -> gsfl_core::Result<()> {
    let w = args.workload;
    let config = w.config(args.seed)?;
    let mut setups = SetupTimes::default();
    let steal0 = stats::host_steal_s();
    let (ctx, runs) = measure(
        &config,
        &mut setups,
        Duration::from_secs(args.seconds),
        MIN_ROUNDS,
        None,
    )?;
    let ctx = &ctx;
    let steal_s = stats::host_steal_s() - steal0;
    let rss = stats::peak_rss_mb();

    let mut tally = Tally::default();
    let reference = &runs[0].records;
    tally.rounds(w, &runs, reference);
    let (plans, _) = replay::plans(ctx, workloads::ROUNDS)?;
    run_checks(w, ctx, reference, &plans, &mut tally);

    // Every session runs the same rounds on the same inputs, so round
    // `i` of one session repeats round `i` of every other. Each round's
    // time is its median over the run's sessions, which drops the
    // sessions that a burst of host contention slowed at that round; the
    // percentiles and the throughput are taken over those 100 rounds.
    let profile = round_profile(&runs);
    let work = round_work(ctx, &plans, reference);
    let samples: usize = work
        .iter()
        .take(profile.len())
        .map(|&(_, s)| s)
        .sum::<usize>()
        * ctx.config.batch_size;
    let profile_s: f64 = profile.iter().sum::<f64>() / 1e3;
    let metrics = vec![
        Metric::new("round_ms_p50", median(&profile), "ms"),
        Metric::new("round_ms_p90", percentile(&profile, 90.0), "ms"),
        Metric::new("samples_per_s", samples as f64 / profile_s, "1/s"),
        Metric::new("setup_s", median(&setups.total_s()), "s"),
        Metric::new("peak_rss_mb", rss, "MiB"),
        Metric::new("test_acc_final", final_accuracy(reference), "fraction"),
    ];
    println!(
        "# rounds timed: {} in {} sessions; host CPU steal meanwhile: {steal_s:.2} s",
        runs.iter().map(|r| r.round_ms.len()).sum::<usize>(),
        runs.len()
    );
    print_result(&tally, &metrics);
    Ok(())
}

/// The traced run: per-layer metrics.
fn per_layer(args: &Args) -> gsfl_core::Result<()> {
    let w = args.workload;
    let config = w.config(args.seed)?;
    let half = Duration::from_secs(args.seconds) / 2;
    let threads = hardware_threads();

    // Untraced sessions: the reference records, the baseline for the
    // tracing overhead and CPU utilization, the set-up times, and the
    // context the replays run on.
    let mut setups = SetupTimes::default();
    let (ctx, plain) = measure(&config, &mut setups, half, 0, None)?;
    let ctx = &ctx;
    let cfg = &ctx.config;
    let plain_ms = pooled(&plain);

    // Traced sessions, each over a context with the channel decorated.
    let tracer = Tracer::new();
    alloc::set_counting(true);
    let (_, traced) = measure(&config, &mut SetupTimes::default(), half, 0, Some(&tracer))?;
    alloc::set_counting(false);
    let traced_ms = pooled(&traced);
    let traced_rounds = traced_ms.len().max(1) as f64;
    let spans = tracer.take_spans();
    let spans_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}-{}.jsonl", w.name(), args.seed));
    if let Err(e) = trace::write_jsonl(&spans, &spans_path) {
        eprintln!("could not write {}: {e}", spans_path.display());
    }

    let mut tally = Tally::default();
    let reference = &plain[0].records;
    tally.rounds(w, &plain, reference);
    tally.rounds(w, &traced, reference);

    // Replays, each at the full budget and with one thread. The
    // planner picks each round's cut and codec, so the nn, codec and
    // aggregation replays run at the choice the session's rounds make
    // most often.
    let rounds = workloads::ROUNDS;
    let (plans, plan_ms) = replay::plans(ctx, rounds)?;
    let (_, plan_ms_1t) = single_thread(|| replay::plans(ctx, rounds))?;
    let (cut, codec, codec_rounds) = replay::common_plan(&plans)?;
    let batch = replay::sample_batch(ctx)?;
    let step = replay::split_step(ctx, &batch, cut)?;
    let step_1t = single_thread(|| replay::split_step(ctx, &batch, cut))?;
    let layers = replay::layer_chain(ctx, &batch)?;
    let payloads = replay::codec_payloads(ctx, &batch, cut)?;
    let specs = [
        ("smashed", codec.smashed),
        ("gradient", codec.gradient),
        ("client_model", codec.client_model),
    ];
    let mut codecs = Vec::new();
    for ((name, spec), payload) in specs.iter().zip(&payloads) {
        let full = replay::codec(spec, payload)?;
        let one = single_thread(|| replay::codec(spec, payload))?;
        codecs.push((*name, full, one));
    }
    let aggregate_ms = replay::aggregate(ctx, cut)?;
    let aggregate_ms_1t = single_thread(|| replay::aggregate(ctx, cut))?;
    let (price_ms, prepare_ms) = replay::pricing(ctx, &plans)?;
    let (price_ms_1t, prepare_ms_1t) = single_thread(|| replay::pricing(ctx, &plans))?;
    let (cohort_us, shards_ms) = replay::population(ctx, rounds)?;
    let (_, shards_ms_1t) = single_thread(|| replay::population(ctx, rounds))?;
    run_checks(w, ctx, reference, &plans, &mut tally);

    // Per-round work and the spans' view of each round.
    let work = round_work(ctx, &plans, reference);
    let steps_per_round = mean(&work.iter().map(|&(_, s)| s as f64).collect::<Vec<_>>());
    let clients_per_round = mean(&work.iter().map(|&(c, _)| c as f64).collect::<Vec<_>>());
    let named =
        |name: &str| -> Vec<&trace::Span> { spans.iter().filter(|s| s.name == name).collect() };
    let run_spans = named("scheme.run_round");
    let run_round_ms = mean(&run_spans.iter().map(|s| s.ms()).collect::<Vec<_>>());
    let eval_rounds: std::collections::BTreeSet<u32> =
        named("session.eval").iter().map(|s| s.round).collect();
    let eval_ms = mean(
        &named("session.round")
            .iter()
            .zip(&run_spans)
            .filter(|(r, _)| eval_rounds.contains(&r.round))
            .map(|(r, s)| r.ms() - s.ms())
            .collect::<Vec<_>>(),
    );

    // How much of `run_round` the replays account for. GSFL trains its
    // groups over `fanout` threads, each running single-threaded steps.
    let fanout = threads.min(ctx.groups.len()).max(1);
    let step_eff_us = if fanout > 1 { step_1t.step } else { step.step };
    let coded = |c: &replay::CodecTimes| {
        if c.identity {
            0.0
        } else {
            c.encode_us + c.decode_us
        }
    };
    let codec_us = steps_per_round * (coded(&codecs[0].1) + coded(&codecs[1].1))
        + clients_per_round * coded(&codecs[2].1);
    let covered_ms = plan_ms
        + prepare_ms
        + price_ms
        + cohort_us / 1e3
        + shards_ms
        + aggregate_ms
        + (steps_per_round * step_eff_us + codec_us) / 1e3 / fanout as f64;

    // The replays are untraced, so compare them with `run_round` less
    // the decorators' own cost.
    let overhead_ms = median(&round_profile(&traced)) - median(&round_profile(&plain));
    let untraced_run_round_ms = run_round_ms - overhead_ms.max(0.0);
    let (calls, busy_ns) = tracer.wireless_totals();
    let sum = |f: fn(&RoundRecord) -> f64| reference.iter().map(f).sum::<f64>();
    let n = reference.len().max(1) as f64;
    let batch_dims: Vec<usize> = std::iter::once(cfg.batch_size)
        .chain(ctx.sample_dims.iter().copied())
        .collect();
    let step_flops = replay::model(ctx)?
        .flops(&batch_dims)?
        .for_batch(cfg.batch_size);
    let step_mflop = step_flops.total() as f64 / 1e6;
    let plain_round_s: f64 = plain_ms.iter().sum::<f64>() / 1e3;
    let plain_cpu_s: f64 = plain.iter().map(|r| r.cpu_s).sum();
    let (allocs, alloc_bytes) = traced
        .iter()
        .fold((0, 0), |(n, b), r| (n + r.allocs.0, b + r.allocs.1));

    let mut metrics = vec![
        Metric::new("core.scheme.run_round_ms", run_round_ms, "ms"),
        Metric::new("core.session.eval_ms", eval_ms, "ms"),
        Metric::new(
            "core.parallel.cpu_util",
            plain_cpu_s / (plain_round_s * threads as f64),
            "fraction",
        ),
        Metric::new(
            "core.unattributed_share",
            1.0 - covered_ms / untraced_run_round_ms,
            "fraction",
        ),
        Metric::new("trace.overhead_ms", overhead_ms, "ms"),
        Metric::new(
            "wireless.calls_per_round",
            calls as f64 / traced_rounds,
            "count",
        ),
        Metric::new(
            "wireless.busy_ms_per_round",
            busy_ns as f64 / 1e6 / traced_rounds,
            "ms",
        ),
        Metric::new(
            "wireless.fault.retries_per_round",
            sum(|r| r.retries as f64) / n,
            "count",
        ),
        Metric::new(
            "wireless.fault.lost_clients_per_round",
            sum(|r| f64::from(r.lost_clients)) / n,
            "count",
        ),
        Metric::new(
            "wireless.fault.backups_per_round",
            sum(|r| f64::from(r.backups_activated)) / n,
            "count",
        ),
        Metric::new(
            "wireless.fault.wasted_share",
            sum(|r| r.wasted_airtime_bytes as f64) / sum(|r| r.bytes_up as f64),
            "ratio",
        ),
        Metric::new("core.latency.price_ms", price_ms, "ms"),
        Metric::new("core.latency.price_ms_1t", price_ms_1t, "ms"),
        Metric::new("core.recovery.prepare_ms", prepare_ms, "ms"),
        Metric::new("core.recovery.prepare_ms_1t", prepare_ms_1t, "ms"),
        Metric::new("core.orchestrator.plan_ms", plan_ms, "ms"),
        Metric::new("core.orchestrator.plan_ms_1t", plan_ms_1t, "ms"),
        Metric::new("core.population.cohort_us", cohort_us, "us"),
        Metric::new("core.population.round_shards_ms", shards_ms, "ms"),
        Metric::new("core.population.round_shards_ms_1t", shards_ms_1t, "ms"),
        Metric::new("setup.context_s", median(&setups.context_s), "s"),
        Metric::new("setup.session_s", median(&setups.session_s), "s"),
        Metric::new("core.aggregate_ms", aggregate_ms, "ms"),
        Metric::new("core.aggregate_ms_1t", aggregate_ms_1t, "ms"),
        Metric::new(
            "core.aggregate_snapshots",
            2.0 * ctx.groups.len() as f64,
            "count",
        ),
        Metric::new("nn.client_fwd_us", step.client_fwd, "us"),
        Metric::new("nn.server_fwd_us", step.server_fwd, "us"),
        Metric::new("nn.loss_us", step.loss, "us"),
        Metric::new("nn.server_bwd_us", step.server_bwd, "us"),
        Metric::new("nn.client_bwd_us", step.client_bwd, "us"),
        Metric::new("nn.optim_us", step.optim, "us"),
        Metric::new("nn.step_us", step.step, "us"),
        Metric::new("nn.step_us_1t", step_1t.step, "us"),
        Metric::new("nn.thread_gain", step_1t.step / step.step, "ratio"),
    ];
    for i in 0..MAX_LAYERS {
        let (f, b) = layers.get(i).map_or((0.0, 0.0), |(_, f, b)| (*f, *b));
        metrics.push(Metric::new(format!("nn.layer.{i}.fwd_us"), f, "us"));
        metrics.push(Metric::new(format!("nn.layer.{i}.bwd_us"), b, "us"));
    }
    metrics.extend([
        Metric::new("nn.steps_per_round", steps_per_round, "count"),
        Metric::new("nn.step_mflop", step_mflop, "MFLOP"),
        Metric::new("nn.step_gflops_s", step_mflop / step.step * 1e3, "GFLOP/s"),
    ]);
    for (name, full, one) in &codecs {
        let key = |m: &str| format!("nn.codec.{name}.{m}");
        metrics.extend([
            Metric::new(key("encode_us"), full.encode_us, "us"),
            Metric::new(key("decode_us"), full.decode_us, "us"),
            Metric::new(key("encode_us_1t"), one.encode_us, "us"),
            Metric::new(key("decode_us_1t"), one.decode_us, "us"),
            Metric::new(key("wire_ratio"), full.wire_ratio, "ratio"),
        ]);
    }
    metrics.extend([
        Metric::new(
            "tensor.allocs_per_round",
            allocs as f64 / traced_rounds,
            "count",
        ),
        Metric::new(
            "tensor.alloc_mb_per_round",
            alloc_bytes as f64 / 1e6 / traced_rounds,
            "MB",
        ),
    ]);
    println!(
        "# layers: {}",
        layers
            .iter()
            .map(|(n, _, _)| n.as_str())
            .collect::<Vec<_>>()
            .join(" ")
    );
    println!(
        "# replays at cut {cut}, codecs {} (chosen in {codec_rounds} of {rounds} planned rounds)",
        codec.label()
    );
    println!(
        "# rounds: {} untraced, {} traced; spans: {}",
        plain_ms.len(),
        traced_ms.len(),
        spans_path.display()
    );
    print_result(&tally, &metrics);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gsfl-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    env_line(&args);
    let outcome = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("gsfl-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
