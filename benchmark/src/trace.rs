//! The traced run's transparent decorators: a [`Scheme`] wrapper handed
//! to `Session::with_scheme` and a [`ChannelModel`] wrapper swapped into
//! `TrainContext::env`. Both forward every call unchanged and record
//! spans (name, start, end, parent, round) in memory; nothing inside the
//! crates is instrumented.

use gsfl_core::context::TrainContext;
use gsfl_core::scheme::{RoundOutcome, Scheme, SchemeKind};
use gsfl_nn::params::ParamVec;
use gsfl_wireless::backhaul::BackhaulLink;
use gsfl_wireless::energy::PowerProfile;
use gsfl_wireless::environment::{ChannelModel, RoundConditions};
use gsfl_wireless::fault::TransferOutcome;
use gsfl_wireless::interference::InterferenceSpec;
use gsfl_wireless::server::EdgeServer;
use gsfl_wireless::units::{Bytes, FlopsRate, Hertz, Meters, Seconds};
use std::io::Write;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval. `parent == 0` marks a root span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub round: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Wireless-call spans kept (the first ones of the traced phase); calls
/// past it still count in the totals. Round-level spans are always kept.
const WIRELESS_SPANS: u64 = 100_000;
/// Spans reserved up front, so the counting allocator does not count the
/// store growing.
const SPAN_CAPACITY: usize = 1 << 18;

/// The span store shared by the decorators and the session loop.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    round: AtomicU32,
    /// The span wireless calls nest under: the round's `run_round`
    /// span, or the round span itself outside `run_round`.
    parent: AtomicU32,
    /// Wireless-call spans still to keep.
    wireless_left: AtomicU64,
    /// When the current round's evaluation began (0 = not yet).
    eval_start: AtomicU64,
    spans: Mutex<Vec<Span>>,
    wireless_calls: AtomicU64,
    wireless_ns: AtomicU64,
}

impl Tracer {
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            round: AtomicU32::new(0),
            parent: AtomicU32::new(0),
            wireless_left: AtomicU64::new(WIRELESS_SPANS),
            eval_start: AtomicU64::new(0),
            spans: Mutex::new(Vec::with_capacity(SPAN_CAPACITY)),
            wireless_calls: AtomicU64::new(0),
            wireless_ns: AtomicU64::new(0),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn new_id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
    }

    /// Opens the root span of `round`; returns its id and start.
    pub fn begin_round(&self, round: usize) -> (u32, u64) {
        let id = self.new_id();
        self.round.store(round as u32, Ordering::SeqCst);
        self.parent.store(id, Ordering::SeqCst);
        self.eval_start.store(0, Ordering::SeqCst);
        (id, self.now_ns())
    }

    /// Closes the round span opened by [`Tracer::begin_round`], and the
    /// `session.eval` span under it if the round evaluated: it runs from
    /// the session's `global_params` call to the round's end.
    pub fn end_round(&self, (id, start_ns): (u32, u64)) {
        let eval_start = self.eval_start.load(Ordering::SeqCst);
        if eval_start != 0 {
            self.close(self.new_id(), id, "session.eval", eval_start);
        }
        self.close(id, 0, "session.round", start_ns);
    }

    /// Closes a span opened at `start_ns` under `parent`.
    fn close(&self, id: u32, parent: u32, name: &'static str, start_ns: u64) {
        self.push(Span {
            id,
            parent,
            round: self.round.load(Ordering::Relaxed),
            name,
            start_ns,
            end_ns: self.now_ns(),
        });
    }

    /// Times one wireless query as a child of the current parent span.
    fn wireless<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.wireless_calls.fetch_add(1, Ordering::Relaxed);
        self.wireless_ns.fetch_add(end - start, Ordering::Relaxed);
        let keep = self
            .wireless_left
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok();
        if keep {
            self.push(Span {
                id: self.new_id(),
                parent: self.parent.load(Ordering::Relaxed),
                round: self.round.load(Ordering::Relaxed),
                name,
                start_ns: start,
                end_ns: end,
            });
        }
        out
    }

    /// `(calls, busy ns)` of the channel decorator so far.
    pub fn wireless_totals(&self) -> (u64, u64) {
        (
            self.wireless_calls.load(Ordering::SeqCst),
            self.wireless_ns.load(Ordering::SeqCst),
        )
    }

    /// Every kept span, in recording order, leaving the store empty.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("a thread panicked while recording a span"),
        )
    }
}

/// Writes spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"round\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.round, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// A [`Scheme`] that forwards to `inner`, recording `scheme.run_round`
/// spans and marking where evaluation (`global_params`) starts.
pub struct TracedScheme {
    inner: Box<dyn Scheme>,
    tracer: Arc<Tracer>,
}

impl TracedScheme {
    pub fn new(inner: Box<dyn Scheme>, tracer: Arc<Tracer>) -> Self {
        TracedScheme { inner, tracer }
    }
}

impl Scheme for TracedScheme {
    fn kind(&self) -> SchemeKind {
        self.inner.kind()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, ctx: &TrainContext) -> gsfl_core::Result<()> {
        self.inner.init(ctx)
    }

    fn run_round(&mut self, ctx: &TrainContext, round: usize) -> gsfl_core::Result<RoundOutcome> {
        let t = &self.tracer;
        let round_span = t.parent.load(Ordering::SeqCst);
        let id = t.new_id();
        t.parent.store(id, Ordering::SeqCst);
        let start = t.now_ns();
        let out = self.inner.run_round(ctx, round);
        t.close(id, round_span, "scheme.run_round", start);
        t.parent.store(round_span, Ordering::SeqCst);
        out
    }

    fn global_params(&self) -> gsfl_core::Result<ParamVec> {
        self.tracer
            .eval_start
            .store(self.tracer.now_ns(), Ordering::SeqCst);
        self.inner.global_params()
    }

    fn storage_bytes(&self, ctx: &TrainContext) -> u64 {
        self.inner.storage_bytes(ctx)
    }
}

/// A [`ChannelModel`] that forwards all 26 trait methods — the
/// defaulted ones too, since a default left un-forwarded would silently
/// replace the inner environment's behavior — timing each as a
/// `wireless.<method>` span.
#[derive(Debug)]
pub struct TracedChannel {
    inner: Arc<dyn ChannelModel>,
    tracer: Arc<Tracer>,
}

impl TracedChannel {
    pub fn new(inner: Arc<dyn ChannelModel>, tracer: Arc<Tracer>) -> Self {
        TracedChannel { inner, tracer }
    }
}

type WResult<T> = gsfl_wireless::Result<T>;

impl ChannelModel for TracedChannel {
    fn client_count(&self) -> usize {
        self.tracer
            .wireless("wireless.client_count", || self.inner.client_count())
    }

    fn total_bandwidth(&self, round: u64) -> Hertz {
        self.tracer.wireless("wireless.total_bandwidth", || {
            self.inner.total_bandwidth(round)
        })
    }

    fn server(&self) -> &EdgeServer {
        self.tracer
            .wireless("wireless.server", || self.inner.server())
    }

    fn power(&self) -> &PowerProfile {
        self.tracer
            .wireless("wireless.power", || self.inner.power())
    }

    fn distance(&self, client: usize, round: u64) -> WResult<Meters> {
        self.tracer
            .wireless("wireless.distance", || self.inner.distance(client, round))
    }

    fn device_rate(&self, client: usize, round: u64) -> WResult<FlopsRate> {
        self.tracer.wireless("wireless.device_rate", || {
            self.inner.device_rate(client, round)
        })
    }

    fn uplink_time(
        &self,
        client: usize,
        payload: Bytes,
        round: u64,
        share: Hertz,
    ) -> WResult<Seconds> {
        self.tracer.wireless("wireless.uplink_time", || {
            self.inner.uplink_time(client, payload, round, share)
        })
    }

    fn downlink_time(
        &self,
        client: usize,
        payload: Bytes,
        round: u64,
        share: Hertz,
    ) -> WResult<Seconds> {
        self.tracer.wireless("wireless.downlink_time", || {
            self.inner.downlink_time(client, payload, round, share)
        })
    }

    fn uplink_rate_bps(&self, client: usize, round: u64, share: Hertz) -> WResult<f64> {
        self.tracer.wireless("wireless.uplink_rate_bps", || {
            self.inner.uplink_rate_bps(client, round, share)
        })
    }

    fn uplink_gain(&self, client: usize, round: u64) -> WResult<f64> {
        self.tracer.wireless("wireless.uplink_gain", || {
            self.inner.uplink_gain(client, round)
        })
    }

    fn client_compute(&self, client: usize, flops: u64, round: u64) -> WResult<Seconds> {
        self.tracer.wireless("wireless.client_compute", || {
            self.inner.client_compute(client, flops, round)
        })
    }

    fn server_compute(&self, flops: u64) -> Seconds {
        self.tracer.wireless("wireless.server_compute", || {
            self.inner.server_compute(flops)
        })
    }

    fn is_available(&self, client: usize, round: u64) -> bool {
        self.tracer.wireless("wireless.fault.is_available", || {
            self.inner.is_available(client, round)
        })
    }

    fn transfer_outcome(&self, client: usize, round: u64, transfer: u64) -> TransferOutcome {
        self.tracer.wireless("wireless.fault.transfer_outcome", || {
            self.inner.transfer_outcome(client, round, transfer)
        })
    }

    fn crash_point(&self, client: usize, round: u64) -> Option<f64> {
        self.tracer.wireless("wireless.fault.crash_point", || {
            self.inner.crash_point(client, round)
        })
    }

    fn ap_online(&self, ap: usize, round: u64) -> bool {
        self.tracer.wireless("wireless.fault.ap_online", || {
            self.inner.ap_online(ap, round)
        })
    }

    fn interference(&self) -> Option<InterferenceSpec> {
        self.tracer
            .wireless("wireless.interference", || self.inner.interference())
    }

    fn uplink_time_among(
        &self,
        client: usize,
        payload: Bytes,
        round: u64,
        share: Hertz,
        interferers: &[usize],
    ) -> WResult<Seconds> {
        self.tracer.wireless("wireless.uplink_time_among", || {
            self.inner
                .uplink_time_among(client, payload, round, share, interferers)
        })
    }

    fn uplink_rate_bps_among(
        &self,
        client: usize,
        round: u64,
        share: Hertz,
        interferers: &[usize],
    ) -> WResult<f64> {
        self.tracer.wireless("wireless.uplink_rate_bps_among", || {
            self.inner
                .uplink_rate_bps_among(client, round, share, interferers)
        })
    }

    fn downlink_time_among(
        &self,
        client: usize,
        payload: Bytes,
        round: u64,
        share: Hertz,
        receivers: &[usize],
    ) -> WResult<Seconds> {
        self.tracer.wireless("wireless.downlink_time_among", || {
            self.inner
                .downlink_time_among(client, payload, round, share, receivers)
        })
    }

    fn ap_count(&self) -> usize {
        self.tracer
            .wireless("wireless.ap_count", || self.inner.ap_count())
    }

    fn ap_of(&self, client: usize, round: u64) -> WResult<usize> {
        self.tracer
            .wireless("wireless.ap_of", || self.inner.ap_of(client, round))
    }

    fn server_at(&self, ap: usize) -> &EdgeServer {
        self.tracer
            .wireless("wireless.server_at", || self.inner.server_at(ap))
    }

    fn server_compute_at(&self, ap: usize, flops: u64) -> Seconds {
        self.tracer.wireless("wireless.server_compute_at", || {
            self.inner.server_compute_at(ap, flops)
        })
    }

    fn backhaul(&self, ap: usize) -> Option<BackhaulLink> {
        self.tracer
            .wireless("wireless.backhaul", || self.inner.backhaul(ap))
    }

    fn conditions(&self, round: u64) -> WResult<RoundConditions> {
        self.tracer
            .wireless("wireless.conditions", || self.inner.conditions(round))
    }
}
