//! The packed wire container: what actually crosses the simulated link.
//!
//! Until this module existed the codec layer *transcoded* tensors but
//! *charged* airtime on computed byte formulas — encoded sizes were
//! arithmetic, never buffers. Here every encoded artifact becomes a real
//! [`WireBuf`] whose [`WireBuf::len`] **is** the charged size:
//!
//! ```text
//! ┌──────┬─────────┬───────┬──────────────┬─────────────┬─────────┐
//! │ "GW" │ version │ dtype │ varint numel │ dtype params│ payload │
//! └──────┴─────────┴───────┴──────────────┴─────────────┴─────────┘
//! ```
//!
//! * **F16** — params: none; payload: `2·numel` little-endian binary16.
//! * **IntQ** — params: `bits` (u8); payload: f32 max-abs scale +
//!   `numel` codes bit-packed at `bits` bits each (code = `q + levels`,
//!   an unsigned value in `0 ..= 2·levels`, so exactly `bits` bits).
//! * **TopK** — params: varint `k`, `idx_bits` (u8); payload: `k`
//!   survivor indices bit-packed at `idx_bits = ⌈log₂ numel⌉` bits,
//!   then `k` f32 survivor values. Fixed-width packed indices (not
//!   delta-varints) keep the encoded size a pure function of
//!   `(numel, k)` — which is what lets the latency calculators charge
//!   measured bytes without coupling to per-step tensor contents.
//! * **PrunedQ** — params: `bits` (u8), varint `block`, varint
//!   `kept_blocks`, `idx_bits` (u8); payload: kept block indices
//!   bit-packed at `idx_bits = ⌈log₂ n_blocks⌉` bits, f32 scale, then
//!   `kept_blocks · block` quantized codes (a short final block is
//!   zero-padded to keep the size value-independent).
//!
//! The fp32 passthrough intentionally has **no container**: the
//! identity wire format is the headerless little-endian stream
//! ([`encode_raw`]), byte-identical to the historical accounting of
//! 4 bytes per scalar — the golden round-record fixtures pin this.
//!
//! Containers carry the flat scalar stream only (`numel`, not a dim
//! list): artifact shapes are protocol state both endpoints already
//! hold, exactly like the training loops that decode into an existing
//! tensor. Decoding therefore never allocates from untrusted lengths —
//! a container claiming an oversized `numel` fails the
//! `shape.numel` check against the caller's destination instead of
//! allocating. Every malformed input (truncation, bad magic, bit
//! flips) yields a typed [`TensorError::Wire`] naming the offending
//! field by path, e.g. `topk.indices[3]` — never a panic.
//!
//! [`WireBuf`]s recycle through the [`Workspace`] byte pool
//! ([`Workspace::take_wire`] / [`Workspace::give_wire`]), so
//! steady-state encoding allocates nothing after warm-up.

use crate::error::TensorError;
use crate::quant::{
    f16_bits_to_f32, f32_to_f16_bits, top_block_indices, topk_indices_with_isa, CODEC_BLOCK,
};
use crate::rng::seeded_rng;
use crate::simd::{self, Isa};
use crate::workspace::Workspace;
use rand::Rng;

/// Container magic: `b"GW"` ("GSFL wire").
pub const MAGIC: [u8; 2] = *b"GW";
/// Container format version this module reads and writes.
pub const VERSION: u8 = 1;

/// Dtype tag of a container payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum WireDtype {
    /// IEEE 754 binary16, 2 bytes per scalar.
    F16 = 1,
    /// Bit-packed symmetric uniform quantization codes plus one scale.
    IntQ = 2,
    /// Sparse top-k: bit-packed indices + f32 survivor values.
    TopK = 3,
    /// Magnitude-pruned blocks with quantized survivor values.
    PrunedQ = 4,
}

impl WireDtype {
    fn from_u8(v: u8) -> Option<WireDtype> {
        match v {
            1 => Some(WireDtype::F16),
            2 => Some(WireDtype::IntQ),
            3 => Some(WireDtype::TopK),
            4 => Some(WireDtype::PrunedQ),
            _ => None,
        }
    }
}

/// An encoded payload: the byte buffer that actually crosses the wire.
/// `len()` is the measured size the latency calculators charge.
/// Recycle through [`Workspace::give_wire`] for zero-alloc steady state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireBuf {
    bytes: Vec<u8>,
}

impl WireBuf {
    /// An empty buffer (no allocation until the first encode).
    pub fn new() -> Self {
        WireBuf::default()
    }

    /// Wraps an existing byte vector (e.g. one received off a socket —
    /// or a recycled pool buffer).
    pub fn from_vec(bytes: Vec<u8>) -> Self {
        WireBuf { bytes }
    }

    /// Unwraps into the backing vector.
    pub fn into_vec(self) -> Vec<u8> {
        self.bytes
    }

    /// Encoded size in bytes — the number airtime is charged for.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// The encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable access to the backing vector — for receivers filling the
    /// buffer and for corruption tests flipping bits.
    pub fn bytes_mut(&mut self) -> &mut Vec<u8> {
        &mut self.bytes
    }

    /// Empties the buffer, keeping its capacity for the next encode.
    pub fn clear(&mut self) {
        self.bytes.clear();
    }
}

/// Shorthand for a typed field-path decode error.
fn werr(path: &str, reason: impl Into<String>) -> TensorError {
    TensorError::Wire {
        path: path.to_string(),
        reason: reason.into(),
    }
}

/// Bytes a LEB128 varint encoding of `v` occupies.
pub fn varint_len(v: u64) -> u64 {
    let mut v = v;
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7F) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Bits needed to store any index below `numel` (at least 1).
pub fn index_bits(numel: usize) -> u32 {
    let max = numel.saturating_sub(1) as u64;
    (64 - max.leading_zeros()).max(1)
}

/// A bounds-checked cursor over a container's bytes. Every read names
/// the field it was parsing, so truncation and bit flips surface as
/// typed path errors instead of panics.
struct Rd<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Rd { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, path: &str) -> Result<&'a [u8], TensorError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(werr(
                path,
                format!(
                    "truncated: need {n} bytes at offset {}, container has {}",
                    self.pos,
                    self.bytes.len()
                ),
            )),
        }
    }

    fn u8(&mut self, path: &str) -> Result<u8, TensorError> {
        Ok(self.take(1, path)?[0])
    }

    fn f32(&mut self, path: &str) -> Result<f32, TensorError> {
        let b = self.take(4, path)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn varint(&mut self, path: &str) -> Result<u64, TensorError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8(path)?;
            if shift >= 63 && b > 1 {
                return Err(werr(path, "varint overflows u64"));
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(werr(path, "varint longer than 10 bytes"));
            }
        }
    }

    /// Fails if payload bytes remain — a corrupted length field would
    /// otherwise silently ignore trailing garbage.
    fn done(&self, path: &str) -> Result<(), TensorError> {
        if self.pos != self.bytes.len() {
            return Err(werr(
                path,
                format!(
                    "{} trailing bytes after the payload",
                    self.bytes.len() - self.pos
                ),
            ));
        }
        Ok(())
    }
}

/// LSB-first bit packer (widths up to 57 bits per push).
struct BitWriter<'a> {
    out: &'a mut Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl<'a> BitWriter<'a> {
    fn new(out: &'a mut Vec<u8>) -> Self {
        BitWriter {
            out,
            acc: 0,
            nbits: 0,
        }
    }

    fn push(&mut self, v: u64, width: u32) {
        debug_assert!(width <= 57 && (width == 64 || v < (1u64 << width)));
        self.acc |= v << self.nbits;
        self.nbits += width;
        while self.nbits >= 8 {
            self.out.push(self.acc as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    fn finish(self) {
        if self.nbits > 0 {
            self.out.push(self.acc as u8);
        }
    }
}

/// LSB-first bit unpacker over a byte slice.
struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    fn read(&mut self, width: u32) -> u64 {
        // The caller sized `bytes` from the declared counts, so running
        // off the end cannot happen for a well-formed container; missing
        // bytes read as zero (the size checks upstream already rejected
        // truncation).
        while self.nbits < width {
            let b = if self.pos < self.bytes.len() {
                self.bytes[self.pos]
            } else {
                0
            };
            self.pos += 1;
            self.acc |= u64::from(b) << self.nbits;
            self.nbits += 8;
        }
        let v = self.acc & ((1u64 << width) - 1);
        self.acc >>= width;
        self.nbits -= width;
        v
    }
}

/// Bytes `count` fields of `width` bits occupy when bit-packed.
fn packed_bytes(count: u64, width: u32) -> u64 {
    (count * u64::from(width)).div_ceil(8)
}

fn write_header(out: &mut Vec<u8>, dtype: WireDtype, numel: usize) {
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(dtype as u8);
    write_varint(out, numel as u64);
}

/// Validates magic/version/dtype and the declared element count against
/// the destination length. Returns the cursor positioned at the dtype
/// parameter section.
fn read_header<'a>(
    buf: &'a WireBuf,
    want: WireDtype,
    out_len: usize,
) -> Result<Rd<'a>, TensorError> {
    let mut rd = Rd::new(buf.as_bytes());
    let magic = rd.take(2, "header.magic")?;
    if magic != MAGIC {
        return Err(werr(
            "header.magic",
            format!("expected {MAGIC:?}, got {magic:?}"),
        ));
    }
    let version = rd.u8("header.version")?;
    if version != VERSION {
        return Err(werr(
            "header.version",
            format!("unsupported version {version} (this build reads {VERSION})"),
        ));
    }
    let tag = rd.u8("header.dtype")?;
    let dtype = WireDtype::from_u8(tag)
        .ok_or_else(|| werr("header.dtype", format!("unknown dtype tag {tag}")))?;
    if dtype != want {
        return Err(werr(
            "header.dtype",
            format!("container holds {dtype:?}, decoder expected {want:?}"),
        ));
    }
    let numel = rd.varint("shape.numel")?;
    if numel != out_len as u64 {
        return Err(werr(
            "shape.numel",
            format!("container declares {numel} scalars, destination holds {out_len}"),
        ));
    }
    Ok(rd)
}

// ---------------------------------------------------------------------------
// Identity (headerless raw fp32)
// ---------------------------------------------------------------------------

/// Exact wire size of the raw fp32 stream: 4 bytes per scalar.
pub fn raw_len(numel: usize) -> u64 {
    4 * numel as u64
}

/// Encodes the identity wire format: a headerless little-endian fp32
/// stream, byte-identical to the historical 4-bytes-per-scalar
/// accounting (the golden fixtures pin this — no container overhead).
pub fn encode_raw(values: &[f32], buf: &mut WireBuf) {
    let out = buf.bytes_mut();
    out.clear();
    out.reserve(values.len() * 4);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Decodes the raw fp32 stream into `out`.
///
/// # Errors
///
/// [`TensorError::Wire`] at `raw.payload` when the byte length is not
/// exactly `4 · out.len()`.
pub fn decode_raw(buf: &WireBuf, out: &mut [f32]) -> Result<(), TensorError> {
    let bytes = buf.as_bytes();
    if bytes.len() != out.len() * 4 {
        return Err(werr(
            "raw.payload",
            format!(
                "raw stream holds {} bytes, destination needs {}",
                bytes.len(),
                out.len() * 4
            ),
        ));
    }
    for (v, c) in out.iter_mut().zip(bytes.chunks_exact(4)) {
        *v = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// F16
// ---------------------------------------------------------------------------

/// Exact encoded size of an [`WireDtype::F16`] container.
pub fn f16_len(numel: usize) -> u64 {
    4 + varint_len(numel as u64) + 2 * numel as u64
}

/// Encodes `values` as binary16 (round-to-nearest-even).
pub fn encode_f16(values: &[f32], buf: &mut WireBuf) {
    encode_f16_with_isa(simd::active_isa(), values, buf);
}

/// [`encode_f16`] pinned to an explicit ISA tier (benchmark and
/// equivalence-test hook): byte-identical containers on every tier.
#[doc(hidden)]
pub fn encode_f16_with_isa(isa: Isa, values: &[f32], buf: &mut WireBuf) {
    let out = buf.bytes_mut();
    out.clear();
    out.reserve(f16_len(values.len()) as usize);
    write_header(out, WireDtype::F16, values.len());
    match isa {
        Isa::Avx2 => simd::encode_f16_payload(values, out),
        Isa::Scalar => {
            for v in values {
                out.extend_from_slice(&f32_to_f16_bits(*v).to_le_bytes());
            }
        }
    }
}

/// Decodes an F16 container into `out`.
///
/// # Errors
///
/// [`TensorError::Wire`] naming the malformed field.
pub fn decode_f16(buf: &WireBuf, out: &mut [f32]) -> Result<(), TensorError> {
    decode_f16_with_isa(simd::active_isa(), buf, out)
}

/// [`decode_f16`] pinned to an explicit ISA tier (benchmark and
/// equivalence-test hook): bit-identical tensors on every tier,
/// including exact NaN-payload preservation.
#[doc(hidden)]
pub fn decode_f16_with_isa(isa: Isa, buf: &WireBuf, out: &mut [f32]) -> Result<(), TensorError> {
    let mut rd = read_header(buf, WireDtype::F16, out.len())?;
    let payload = rd.take(out.len() * 2, "f16.payload")?;
    rd.done("f16.payload")?;
    match isa {
        Isa::Avx2 => simd::decode_f16_payload(payload, out),
        Isa::Scalar => {
            for (v, c) in out.iter_mut().zip(payload.chunks_exact(2)) {
                *v = f16_bits_to_f32(u16::from_le_bytes([c[0], c[1]]));
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// IntQ
// ---------------------------------------------------------------------------

/// Exact encoded size of an [`WireDtype::IntQ`] container.
pub fn intq_len(numel: usize, bits: u32) -> u64 {
    4 + varint_len(numel as u64) + 1 + 4 + packed_bytes(numel as u64, bits)
}

/// Encodes `values` as `bits`-bit symmetric uniform quantization with
/// seeded stochastic rounding — the same quantizer as
/// [`crate::quant::intq_roundtrip`], emitting the codes instead of
/// dequantizing in place. The max-abs scale ships in the payload. A
/// non-finite scale (diverged input) is transmitted as-is with zero
/// codes; the decoder surfaces it as a NaN-filled tensor, keeping the
/// divergence visible to the receiver. `bits` must be in `2..=16`.
pub fn encode_intq(values: &[f32], bits: u32, stream: u64, buf: &mut WireBuf) {
    encode_intq_with_isa(simd::active_isa(), values, bits, stream, buf);
}

/// [`encode_intq`] pinned to an explicit ISA tier (benchmark and
/// equivalence-test hook). The vector tier pre-draws the stochastic
/// rounding uniforms per [`CODEC_BLOCK`] in scalar order and quantizes
/// 8 lanes at a time; the emitted container is byte-identical on every
/// tier.
#[doc(hidden)]
pub fn encode_intq_with_isa(isa: Isa, values: &[f32], bits: u32, stream: u64, buf: &mut WireBuf) {
    debug_assert!((2..=16).contains(&bits), "intq bits must be in 2..=16");
    let out = buf.bytes_mut();
    out.clear();
    out.reserve(intq_len(values.len(), bits) as usize);
    write_header(out, WireDtype::IntQ, values.len());
    out.push(bits as u8);
    let scale = match isa {
        Isa::Avx2 => simd::max_abs(values),
        Isa::Scalar => values.iter().fold(0.0f32, |m, v| m.max(v.abs())),
    };
    out.extend_from_slice(&scale.to_le_bytes());
    let levels = (1u32 << (bits - 1)) - 1;
    let mut bw = BitWriter::new(out);
    if scale == 0.0 || !scale.is_finite() {
        for _ in values {
            bw.push(u64::from(levels), bits); // code 0 = `levels` offset
        }
    } else {
        let inv = levels as f32 / scale;
        let mut rng = seeded_rng(stream);
        match isa {
            Isa::Avx2 => {
                let mut draws = [0.0f32; CODEC_BLOCK];
                let mut codes = [0u16; CODEC_BLOCK];
                for chunk in values.chunks(CODEC_BLOCK) {
                    for d in draws[..chunk.len()].iter_mut() {
                        *d = rng.gen();
                    }
                    simd::intq_quantize_codes(
                        chunk,
                        inv,
                        levels,
                        &draws[..chunk.len()],
                        &mut codes[..chunk.len()],
                    );
                    for &c in &codes[..chunk.len()] {
                        bw.push(u64::from(c), bits);
                    }
                }
            }
            Isa::Scalar => {
                let lv = levels as f32;
                for v in values {
                    let x = *v * inv;
                    let lo = x.floor();
                    let frac = x - lo;
                    // P(round up) = frac ⇒ E[q] = x, matching intq_roundtrip
                    // draw for draw so wire and in-place paths stay bit-equal.
                    let q = if rng.gen::<f32>() < frac {
                        lo + 1.0
                    } else {
                        lo
                    };
                    let q = q.clamp(-lv, lv) as i64;
                    bw.push((q + i64::from(levels)) as u64, bits);
                }
            }
        }
    }
    bw.finish();
}

/// Decodes an IntQ container into `out`. A container whose scale is
/// non-finite (a diverged encode) fills `out` with NaN.
///
/// # Errors
///
/// [`TensorError::Wire`] naming the malformed field.
pub fn decode_intq(buf: &WireBuf, out: &mut [f32]) -> Result<(), TensorError> {
    decode_intq_with_isa(simd::active_isa(), buf, out)
}

/// [`decode_intq`] pinned to an explicit ISA tier (benchmark and
/// equivalence-test hook). The vector tier unpacks codes per
/// [`CODEC_BLOCK`] (validating each, with the same per-index error),
/// then dequantizes 8 lanes at a time — bit-identical tensors on every
/// tier.
#[doc(hidden)]
pub fn decode_intq_with_isa(isa: Isa, buf: &WireBuf, out: &mut [f32]) -> Result<(), TensorError> {
    let mut rd = read_header(buf, WireDtype::IntQ, out.len())?;
    let bits = u32::from(rd.u8("intq.bits")?);
    if !(2..=16).contains(&bits) {
        return Err(werr("intq.bits", format!("bits {bits} outside 2..=16")));
    }
    let scale = rd.f32("intq.scale")?;
    let payload = rd.take(packed_bytes(out.len() as u64, bits) as usize, "intq.codes")?;
    rd.done("intq.codes")?;
    if !scale.is_finite() {
        out.fill(f32::NAN);
        return Ok(());
    }
    let levels = (1u32 << (bits - 1)) - 1;
    let max_code = u64::from(2 * levels);
    let mut br = BitReader::new(payload);
    match isa {
        Isa::Avx2 => {
            let mut codes = [0u16; CODEC_BLOCK];
            let mut base = 0usize;
            for chunk in out.chunks_mut(CODEC_BLOCK) {
                for (j, c) in codes[..chunk.len()].iter_mut().enumerate() {
                    let code = br.read(bits);
                    if code > max_code {
                        return Err(werr(
                            &format!("intq.codes[{}]", base + j),
                            format!("code {code} exceeds 2·levels = {max_code}"),
                        ));
                    }
                    *c = code as u16;
                }
                simd::intq_dequant_codes(&codes[..chunk.len()], levels, scale, chunk);
                base += chunk.len();
            }
        }
        Isa::Scalar => {
            for (i, v) in out.iter_mut().enumerate() {
                let code = br.read(bits);
                if code > max_code {
                    return Err(werr(
                        &format!("intq.codes[{i}]"),
                        format!("code {code} exceeds 2·levels = {max_code}"),
                    ));
                }
                let q = code as i64 - i64::from(levels);
                *v = q as f32 * scale / levels as f32;
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// TopK
// ---------------------------------------------------------------------------

/// Exact encoded size of a [`WireDtype::TopK`] container.
pub fn topk_len(numel: usize, k: usize) -> u64 {
    let idx = index_bits(numel);
    4 + varint_len(numel as u64)
        + varint_len(k as u64)
        + 1
        + packed_bytes(k as u64, idx)
        + 4 * k as u64
}

/// Encodes the `k` largest-magnitude elements of `values` as a sparse
/// index + value section (the DisTrO-style layout). Survivor selection
/// matches [`crate::quant::topk_mask`]: ties at the threshold resolve
/// by ascending index. Non-finite elements rank above every finite one,
/// so a diverged tensor ships its non-finite entries verbatim instead
/// of panicking mid-selection. `k` is clamped to `1..=numel`.
pub fn encode_topk(values: &[f32], k: usize, ws: &mut Workspace, buf: &mut WireBuf) {
    encode_topk_with_isa(simd::active_isa(), values, k, ws, buf);
}

/// [`encode_topk`] pinned to an explicit ISA tier (benchmark and
/// equivalence-test hook): the survivor selection's magnitude and
/// threshold passes vectorize; the container is byte-identical on every
/// tier (ascending-index tie resolution included).
#[doc(hidden)]
pub fn encode_topk_with_isa(
    isa: Isa,
    values: &[f32],
    k: usize,
    ws: &mut Workspace,
    buf: &mut WireBuf,
) {
    let n = values.len();
    let k = k.clamp(1, n.max(1));
    let mut idx = ws.take_indices();
    topk_indices_with_isa(isa, values, k, ws, &mut idx);
    let out = buf.bytes_mut();
    out.clear();
    out.reserve(topk_len(n, k) as usize);
    write_header(out, WireDtype::TopK, n);
    write_varint(out, k as u64);
    let width = index_bits(n);
    out.push(width as u8);
    let mut bw = BitWriter::new(out);
    for &i in &idx {
        bw.push(u64::from(i), width);
    }
    bw.finish();
    for &i in &idx {
        out.extend_from_slice(&values[i as usize].to_le_bytes());
    }
    ws.give_indices(idx);
}

/// Decodes a TopK container into `out`: zeros everywhere, survivor
/// values scattered to their indices.
///
/// # Errors
///
/// [`TensorError::Wire`] naming the malformed field (`topk.k`,
/// `topk.idx_bits`, `topk.indices[i]`, …).
pub fn decode_topk(buf: &WireBuf, out: &mut [f32]) -> Result<(), TensorError> {
    let n = out.len();
    let mut rd = read_header(buf, WireDtype::TopK, n)?;
    let k = rd.varint("topk.k")?;
    if k == 0 || k > n as u64 {
        return Err(werr("topk.k", format!("k = {k} outside 1..={n} survivors")));
    }
    let k = k as usize;
    let width = u32::from(rd.u8("topk.idx_bits")?);
    if width != index_bits(n) {
        return Err(werr(
            "topk.idx_bits",
            format!(
                "width {width} does not match ⌈log₂ {n}⌉ = {}",
                index_bits(n)
            ),
        ));
    }
    let packed = rd.take(packed_bytes(k as u64, width) as usize, "topk.indices")?;
    let vals = rd.take(4 * k, "topk.values")?;
    rd.done("topk.values")?;
    out.fill(0.0);
    let mut br = BitReader::new(packed);
    for (j, c) in vals.chunks_exact(4).enumerate() {
        let i = br.read(width);
        if i >= n as u64 {
            return Err(werr(
                &format!("topk.indices[{j}]"),
                format!("index {i} outside 0..{n}"),
            ));
        }
        out[i as usize] = f32::from_le_bytes([c[0], c[1], c[2], c[3]]);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// PrunedQ
// ---------------------------------------------------------------------------

/// Exact encoded size of a [`WireDtype::PrunedQ`] container.
pub fn pruned_len(numel: usize, block: usize, kept_blocks: usize, bits: u32) -> u64 {
    let n_blocks = numel.div_ceil(block.max(1));
    let idx = index_bits(n_blocks);
    4 + varint_len(numel as u64)
        + 1
        + varint_len(block as u64)
        + varint_len(kept_blocks as u64)
        + 1
        + packed_bytes(kept_blocks as u64, idx)
        + 4
        + packed_bytes(kept_blocks as u64 * block as u64, bits)
}

/// Encodes magnitude-structured pruning composed with quantization: the
/// `kept_blocks` blocks of `block` contiguous elements with the largest
/// L2 norm survive, their values quantized to `bits` bits against one
/// shared max-abs scale; everything else decodes to zero. A short final
/// block is zero-padded in the code section so the encoded size never
/// depends on which blocks won. `bits` must be in `2..=16`.
pub fn encode_pruned(
    values: &[f32],
    block: usize,
    kept_blocks: usize,
    bits: u32,
    stream: u64,
    ws: &mut Workspace,
    buf: &mut WireBuf,
) {
    debug_assert!((2..=16).contains(&bits), "pruned bits must be in 2..=16");
    let n = values.len();
    let block = block.max(1);
    let n_blocks = n.div_ceil(block);
    let kept = kept_blocks.clamp(1, n_blocks.max(1));
    let mut idx = ws.take_indices();
    top_block_indices(values, block, kept, ws, &mut idx);
    let out = buf.bytes_mut();
    out.clear();
    out.reserve(pruned_len(n, block, kept, bits) as usize);
    write_header(out, WireDtype::PrunedQ, n);
    out.push(bits as u8);
    write_varint(out, block as u64);
    write_varint(out, kept as u64);
    let width = index_bits(n_blocks);
    out.push(width as u8);
    let mut bw = BitWriter::new(out);
    for &b in &idx {
        bw.push(u64::from(b), width);
    }
    bw.finish();
    // One shared scale over the surviving elements.
    let mut scale = 0.0f32;
    for &b in &idx {
        let start = b as usize * block;
        for v in &values[start..(start + block).min(n)] {
            scale = scale.max(v.abs());
        }
    }
    out.extend_from_slice(&scale.to_le_bytes());
    let levels = (1u32 << (bits - 1)) - 1;
    let mut bw = BitWriter::new(out);
    if scale == 0.0 || !scale.is_finite() {
        for _ in 0..kept * block {
            bw.push(u64::from(levels), bits);
        }
    } else {
        let inv = levels as f32 / scale;
        let lv = levels as f32;
        let mut rng = seeded_rng(stream);
        for &b in &idx {
            let start = b as usize * block;
            for j in 0..block {
                let v = values.get(start + j).copied().unwrap_or(0.0);
                let x = v * inv;
                let lo = x.floor();
                let frac = x - lo;
                let q = if rng.gen::<f32>() < frac {
                    lo + 1.0
                } else {
                    lo
                };
                let q = q.clamp(-lv, lv) as i64;
                bw.push((q + i64::from(levels)) as u64, bits);
            }
        }
    }
    bw.finish();
    ws.give_indices(idx);
}

/// Decodes a PrunedQ container into `out`: zeros everywhere, surviving
/// blocks dequantized in place. A non-finite scale fills the surviving
/// blocks with NaN (divergence stays visible).
///
/// # Errors
///
/// [`TensorError::Wire`] naming the malformed field.
pub fn decode_pruned(buf: &WireBuf, out: &mut [f32]) -> Result<(), TensorError> {
    let n = out.len();
    let mut rd = read_header(buf, WireDtype::PrunedQ, n)?;
    let bits = u32::from(rd.u8("pruned.bits")?);
    if !(2..=16).contains(&bits) {
        return Err(werr("pruned.bits", format!("bits {bits} outside 2..=16")));
    }
    let block = rd.varint("pruned.block")?;
    // The block size is a codec parameter, not bounded by `n` (a short
    // tensor still uses the codec's block); only zero and
    // overflow-enabling sizes are malformed.
    if block == 0 || block > 1 << 24 {
        return Err(werr(
            "pruned.block",
            format!("block size {block} outside 1..=2^24"),
        ));
    }
    let block = block as usize;
    let n_blocks = n.div_ceil(block);
    let kept = rd.varint("pruned.kept_blocks")?;
    if kept == 0 || kept > n_blocks as u64 {
        return Err(werr(
            "pruned.kept_blocks",
            format!("kept_blocks {kept} outside 1..={n_blocks}"),
        ));
    }
    let kept = kept as usize;
    let width = u32::from(rd.u8("pruned.idx_bits")?);
    if width != index_bits(n_blocks) {
        return Err(werr(
            "pruned.idx_bits",
            format!(
                "width {width} does not match ⌈log₂ {n_blocks}⌉ = {}",
                index_bits(n_blocks)
            ),
        ));
    }
    let packed_idx = rd.take(packed_bytes(kept as u64, width) as usize, "pruned.indices")?;
    let scale = rd.f32("pruned.scale")?;
    let codes = rd.take(
        packed_bytes(kept as u64 * block as u64, bits) as usize,
        "pruned.codes",
    )?;
    rd.done("pruned.codes")?;
    out.fill(0.0);
    let levels = (1u32 << (bits - 1)) - 1;
    let max_code = u64::from(2 * levels);
    let mut bi = BitReader::new(packed_idx);
    let mut bc = BitReader::new(codes);
    for j in 0..kept {
        let b = bi.read(width);
        if b >= n_blocks as u64 {
            return Err(werr(
                &format!("pruned.indices[{j}]"),
                format!("block index {b} outside 0..{n_blocks}"),
            ));
        }
        let start = b as usize * block;
        for off in 0..block {
            let code = bc.read(bits);
            if code > max_code {
                return Err(werr(
                    &format!("pruned.codes[{}]", j * block + off),
                    format!("code {code} exceeds 2·levels = {max_code}"),
                ));
            }
            if let Some(v) = out.get_mut(start + off) {
                *v = if scale.is_finite() {
                    (code as i64 - i64::from(levels)) as f32 * scale / levels as f32
                } else {
                    f32::NAN
                };
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quant::{intq_roundtrip, topk_mask};

    fn payload(n: usize) -> Vec<f32> {
        (0..n)
            .map(|i| ((i * 37 % 211) as f32 - 105.0) * 0.017)
            .collect()
    }

    #[test]
    fn raw_is_the_headerless_legacy_format() {
        let v = payload(9);
        let mut buf = WireBuf::new();
        encode_raw(&v, &mut buf);
        assert_eq!(buf.len() as u64, raw_len(9));
        assert_eq!(buf.len(), 36, "exactly 4 bytes per scalar, no header");
        let mut out = vec![0.0f32; 9];
        decode_raw(&buf, &mut out).unwrap();
        assert_eq!(out, v, "raw round trip is bitwise exact");
    }

    #[test]
    fn f16_container_round_trips_and_measures_its_law() {
        for n in [1usize, 7, 64, 1000] {
            let v = payload(n);
            let mut buf = WireBuf::new();
            encode_f16(&v, &mut buf);
            assert_eq!(buf.len() as u64, f16_len(n), "n = {n}");
            let mut out = vec![0.0f32; n];
            decode_f16(&buf, &mut out).unwrap();
            for (a, b) in out.iter().zip(&v) {
                assert_eq!(*a, f16_bits_to_f32(f32_to_f16_bits(*b)));
            }
        }
    }

    #[test]
    fn intq_wire_matches_the_in_place_kernel_bit_for_bit() {
        for bits in [2u32, 4, 8, 13, 16] {
            let v = payload(257);
            let mut buf = WireBuf::new();
            encode_intq(&v, bits, 99, &mut buf);
            assert_eq!(buf.len() as u64, intq_len(257, bits), "bits = {bits}");
            let mut out = vec![0.0f32; 257];
            decode_intq(&buf, &mut out).unwrap();
            let mut reference = v.clone();
            intq_roundtrip(&mut reference, bits, 99);
            assert_eq!(out, reference, "wire and in-place paths must agree");
        }
    }

    #[test]
    fn intq_divergence_stays_visible() {
        let v = vec![1.0f32, f32::INFINITY, -3.0];
        let mut buf = WireBuf::new();
        encode_intq(&v, 8, 0, &mut buf);
        assert_eq!(
            buf.len() as u64,
            intq_len(3, 8),
            "size law holds even diverged"
        );
        let mut out = vec![0.0f32; 3];
        decode_intq(&buf, &mut out).unwrap();
        assert!(out.iter().all(|x| x.is_nan()), "divergence decodes to NaN");
    }

    #[test]
    fn topk_container_matches_the_masking_kernel() {
        let mut ws = Workspace::new();
        let v = payload(300);
        let k = 30;
        let mut buf = WireBuf::new();
        encode_topk(&v, k, &mut ws, &mut buf);
        assert_eq!(buf.len() as u64, topk_len(300, k));
        let mut out = vec![1.0f32; 300];
        decode_topk(&buf, &mut out).unwrap();
        let mut reference = v.clone();
        topk_mask(&mut reference, k, &mut ws);
        assert_eq!(out, reference, "decode must equal the in-place mask");
    }

    #[test]
    fn topk_beats_raw_for_sparse_fractions() {
        // 5% survivors of 64k elements: ~17-bit indices + 4-byte values
        // ≪ 4 bytes/scalar raw.
        let n = 64 * 1024;
        let k = n / 20;
        assert!(topk_len(n, k) < raw_len(n) / 6);
    }

    #[test]
    fn pruned_round_trips_and_zeroes_losers() {
        let mut ws = Workspace::new();
        let mut v = vec![0.01f32; 128];
        // Blocks 1 and 3 carry all the mass.
        for j in 0..32 {
            v[32 + j] = 1.0 + j as f32 * 0.01;
            v[96 + j] = -2.0 + j as f32 * 0.01;
        }
        let mut buf = WireBuf::new();
        encode_pruned(&v, 32, 2, 8, 7, &mut ws, &mut buf);
        assert_eq!(buf.len() as u64, pruned_len(128, 32, 2, 8));
        let mut out = vec![9.0f32; 128];
        decode_pruned(&buf, &mut out).unwrap();
        for j in 0..32 {
            assert_eq!(out[j], 0.0, "pruned block decodes to zero");
            assert_eq!(out[64 + j], 0.0, "pruned block decodes to zero");
            assert!((out[32 + j] - v[32 + j]).abs() < 0.02, "survivor {j}");
            assert!((out[96 + j] - v[96 + j]).abs() < 0.02, "survivor {j}");
        }
    }

    #[test]
    fn pruned_short_final_block_keeps_the_size_law() {
        let mut ws = Workspace::new();
        // 70 elements, block 32 → 3 blocks, last one 6 elements. Force
        // the short block to win: its elements are the largest.
        let mut v = vec![0.001f32; 70];
        for x in v[64..].iter_mut() {
            *x = 5.0;
        }
        let mut buf = WireBuf::new();
        encode_pruned(&v, 32, 1, 4, 0, &mut ws, &mut buf);
        assert_eq!(
            buf.len() as u64,
            pruned_len(70, 32, 1, 4),
            "padding keeps the size independent of which block won"
        );
        let mut out = vec![0.0f32; 70];
        decode_pruned(&buf, &mut out).unwrap();
        assert!(out[..64].iter().all(|&x| x == 0.0));
        assert!(out[64..].iter().all(|&x| (x - 5.0).abs() < 1.0));
    }

    #[test]
    fn decode_errors_name_field_paths() {
        let v = payload(16);
        let mut buf = WireBuf::new();
        encode_intq(&v, 8, 0, &mut buf);

        // Truncation.
        let mut cut = buf.clone();
        cut.bytes_mut().truncate(6);
        let mut out = vec![0.0f32; 16];
        let err = decode_intq(&cut, &mut out).unwrap_err().to_string();
        assert!(
            err.contains("intq.scale") || err.contains("intq.bits"),
            "{err}"
        );

        // Wrong magic.
        let mut bad = buf.clone();
        bad.bytes_mut()[0] = b'X';
        let err = decode_intq(&bad, &mut out).unwrap_err().to_string();
        assert!(err.contains("header.magic"), "{err}");

        // Wrong version.
        let mut bad = buf.clone();
        bad.bytes_mut()[2] = 99;
        let err = decode_intq(&bad, &mut out).unwrap_err().to_string();
        assert!(err.contains("header.version"), "{err}");

        // Dtype mismatch against the decoder.
        let err = decode_f16(&buf, &mut out).unwrap_err().to_string();
        assert!(err.contains("header.dtype"), "{err}");

        // Oversized declared shape never allocates — it fails the
        // destination check.
        let mut huge = buf.clone();
        huge.bytes_mut()[4] = 0xFF; // varint numel → multi-byte monster
        huge.bytes_mut().insert(5, 0xFF);
        huge.bytes_mut().insert(6, 0x7F);
        let err = decode_intq(&huge, &mut out).unwrap_err().to_string();
        assert!(err.contains("shape.numel"), "{err}");

        // Trailing garbage.
        let mut long = buf.clone();
        long.bytes_mut().push(0);
        let err = decode_intq(&long, &mut out).unwrap_err().to_string();
        assert!(err.contains("trailing"), "{err}");
    }

    #[test]
    fn topk_decode_rejects_out_of_range_indices() {
        let mut ws = Workspace::new();
        let v = payload(10);
        let mut buf = WireBuf::new();
        encode_topk(&v, 3, &mut ws, &mut buf);
        // k sits right after the header (4 bytes magic/version/dtype +
        // 1 varint numel byte); forge k > numel.
        let kpos = 5;
        assert_eq!(buf.as_bytes()[kpos], 3);
        let mut bad = buf.clone();
        bad.bytes_mut()[kpos] = 77;
        let mut out = vec![0.0f32; 10];
        let err = decode_topk(&bad, &mut out).unwrap_err().to_string();
        assert!(err.contains("topk.k"), "{err}");
    }

    #[test]
    fn wirebufs_recycle_through_the_workspace_pool() {
        let mut ws = Workspace::new();
        let v = payload(512);
        let mut buf = ws.take_wire();
        encode_intq(&v, 8, 1, &mut buf);
        ws.give_wire(buf);
        let warm = ws.fresh_allocs();
        for s in 0..5u64 {
            let mut buf = ws.take_wire();
            encode_intq(&v, 8, s, &mut buf);
            let mut out = vec![0.0f32; 512];
            decode_intq(&buf, &mut out).unwrap();
            ws.give_wire(buf);
        }
        assert_eq!(
            ws.fresh_allocs(),
            warm,
            "steady-state encodes allocate nothing"
        );
    }

    #[test]
    fn varint_len_matches_the_writer() {
        for v in [0u64, 1, 127, 128, 300, 1 << 14, (1 << 21) - 1, u64::MAX] {
            let mut out = Vec::new();
            write_varint(&mut out, v);
            assert_eq!(out.len() as u64, varint_len(v), "{v}");
            let mut rd = Rd::new(&out);
            assert_eq!(rd.varint("x").unwrap(), v);
        }
    }
}
