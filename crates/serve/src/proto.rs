//! Length-prefixed binary wire protocol for the prediction service.
//!
//! Every frame is `u32` little-endian payload length followed by the
//! payload; the first payload byte is the opcode. Frames larger than
//! [`MAX_FRAME`] are rejected (the server answers with an error frame
//! and closes the connection rather than allocating attacker-chosen
//! amounts).
//!
//! Integers are little-endian throughout, matching the on-disk ZBPT
//! trace format. Branch records travel as fixed 26-byte entries; stats
//! come back as the nine `MispredictStats` counters in declaration
//! order, so the layout is stable as long as that struct is.
//!
//! | opcode | direction | meaning |
//! |-------:|-----------|---------|
//! | 1 | C→S | `Open` — preset, replay mode, traced flag, label |
//! | 2 | C→S | `Feed` — stream id + record batch |
//! | 3 | C→S | `Close` — stream id + tail instruction count |
//! | 4 | C→S | `Hello` — magic + protocol version |
//! | 129 | S→C | `OpenOk` — stream id + shard index |
//! | 130 | S→C | `FeedOk` — total records the stream has consumed |
//! | 131 | S→C | `CloseOk` — final stats, flush and record counts |
//! | 132 | S→C | `HelloOk` — the server's protocol version |
//! | 192 | S→C | `Busy` — queue full; retry after the hinted delay |
//! | 193 | S→C | `Err` — terminal error with a message |
//!
//! # Versioning
//!
//! A conforming client opens with a `Hello` frame carrying the ASCII
//! magic `ZBPS` and [`PROTO_VERSION`]; the server answers `HelloOk`
//! with its own version, and either side rejects a mismatch with the
//! typed [`ProtoError::VersionMismatch`]. Servers stay tolerant of
//! version-0 clients whose first frame is an `Open` — the handshake is
//! how *future* incompatible revisions get a clean refusal instead of
//! a confusing decode error.

use std::io::{self, Read, Write};
use zbp_core::{GenerationPreset, PredictorConfig};
use zbp_model::{BranchRecord, Counter, MispredictStats, ThreadId};
use zbp_zarch::{InstrAddr, Mnemonic};

use crate::session::{ReplayMode, SessionReport, DEFAULT_DEPTH};

/// Hard ceiling on a frame's payload size (1 MiB). At
/// [`RECORD_BYTES`] per record this allows batches of ~40k branches.
pub const MAX_FRAME: usize = 1 << 20;

/// Encoded size of one [`BranchRecord`] on the wire. A decoder rejects
/// a `Feed` count whose records would exceed [`MAX_FRAME`], and
/// [`Client::run_trace`](crate::Client::run_trace) caps its batches at
/// `MAX_FRAME / RECORD_BYTES`.
pub const RECORD_BYTES: usize = 26;

/// Current protocol revision, carried in the `Hello`/`HelloOk`
/// handshake. Bump on any incompatible frame-layout change.
pub const PROTO_VERSION: u32 = 1;

/// ASCII magic opening a `Hello` payload — distinguishes a handshake
/// from garbage hitting the port.
pub const HELLO_MAGIC: [u8; 4] = *b"ZBPS";

/// A decoded protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Version handshake, sent by the client before anything else.
    Hello {
        /// The client's [`PROTO_VERSION`].
        version: u32,
    },
    /// Handshake accepted; carries the server's version.
    HelloOk {
        /// The server's [`PROTO_VERSION`].
        version: u32,
    },
    /// Open a stream.
    Open {
        /// Predictor configuration preset.
        preset: WirePreset,
        /// Replay mode for the stream.
        mode: WireMode,
        /// Record telemetry into the final report.
        traced: bool,
        /// Stream label (routes the stream to a shard).
        label: String,
    },
    /// Feed a batch of records to an open stream.
    Feed {
        /// Stream id from `OpenOk`.
        id: u64,
        /// The batch.
        batch: Vec<BranchRecord>,
    },
    /// Close a stream.
    Close {
        /// Stream id from `OpenOk`.
        id: u64,
        /// Straight-line instructions after the final branch.
        tail_instrs: u64,
    },
    /// Stream opened.
    OpenOk {
        /// Pool-wide stream id.
        id: u64,
        /// Shard the stream landed on.
        shard: u32,
    },
    /// Batch accepted.
    FeedOk {
        /// Records the stream has consumed so far.
        records: u64,
    },
    /// Stream closed; final accounting.
    CloseOk {
        /// Misprediction statistics.
        stats: MispredictStats,
        /// Pipeline restarts delivered.
        flushes: u64,
        /// Records consumed.
        records: u64,
    },
    /// Shard queue full — retry the same request after the hint.
    Busy {
        /// Suggested backoff in milliseconds.
        retry_after_ms: u32,
    },
    /// Terminal error.
    Err {
        /// Human-readable description.
        message: String,
    },
}

/// Replay modes expressible on the wire. Cosim runs with the default
/// pipeline configuration; custom [`CosimConfig`](zbp_uarch::CosimConfig)s
/// are an in-process-only feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireMode {
    /// Delayed-update replay with the given window depth.
    Delayed(u32),
    /// Lookahead line-search replay.
    Lookahead,
    /// Co-simulation with the default pipeline configuration.
    CosimDefault,
}

impl WireMode {
    /// The in-process replay mode this wire mode denotes.
    pub fn replay_mode(self) -> ReplayMode {
        match self {
            WireMode::Delayed(d) => ReplayMode::Delayed { depth: d as usize },
            WireMode::Lookahead => ReplayMode::Lookahead,
            WireMode::CosimDefault => ReplayMode::Cosim(Default::default()),
        }
    }
}

impl Default for WireMode {
    fn default() -> Self {
        WireMode::Delayed(DEFAULT_DEPTH as u32)
    }
}

/// Predictor configurations nameable in an `Open` frame: the hardware
/// generation presets, plus the serve-only [`WirePreset::Soak`]
/// miniature used by soak/chaos campaigns to keep a predictor per
/// stream affordable at 100k+ concurrent streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WirePreset {
    /// A hardware generation ([`GenerationPreset::ALL`] wire codes
    /// 0..=3).
    Generation(GenerationPreset),
    /// Tiny single-level tables, optional structures off (wire code
    /// 255). A few KB of predictor state per stream instead of a few
    /// MB; the replay semantics (GPQ, delayed update, per-stream
    /// isolation) are identical.
    Soak,
}

impl WirePreset {
    /// The predictor configuration this preset denotes.
    pub fn config(self) -> PredictorConfig {
        match self {
            WirePreset::Generation(g) => g.config(),
            WirePreset::Soak => soak_config(),
        }
    }
}

impl From<GenerationPreset> for WirePreset {
    fn from(g: GenerationPreset) -> Self {
        WirePreset::Generation(g)
    }
}

/// The [`WirePreset::Soak`] configuration: one 64×2 BTB1, a small
/// single-table PHT, no second level, no auxiliary predictors. Built
/// for memory footprint, not accuracy — soak campaigns measure the
/// serving layer, not the predictor.
pub fn soak_config() -> PredictorConfig {
    use zbp_core::config::{Btb1Config, DirectionConfig, PhtKind, TimingConfig};
    PredictorConfig {
        name: "soak".into(),
        btb1: Btb1Config { rows: 64, ways: 2, tag_bits: 14, search_bytes: 64, search_ports: 1 },
        btb2: None,
        btbp: None,
        gpv_depth: 9,
        direction: DirectionConfig {
            pht: PhtKind::SingleTable { rows_per_way: 64, history: 8 },
            pht_tag_bits: 10,
            usefulness_max: 3,
            weak_filter_threshold: 4,
            weak_counter_max: 7,
            sbht_entries: 0,
            spht_entries: 0,
            perceptron: None,
        },
        ctb: None,
        crs: None,
        cpred: None,
        skoot: false,
        timing: TimingConfig::default(),
    }
}

/// Why a frame failed to decode.
#[derive(Debug)]
pub enum ProtoError {
    /// Transport-level failure.
    Io(io::Error),
    /// Declared payload length exceeds [`MAX_FRAME`].
    FrameTooLarge(usize),
    /// Payload did not parse (bad opcode, truncated fields, unknown
    /// enum codes, non-UTF-8 label…).
    Malformed(&'static str),
    /// The peer speaks an incompatible protocol revision.
    VersionMismatch {
        /// Our [`PROTO_VERSION`].
        ours: u32,
        /// The version the peer announced.
        theirs: u32,
    },
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o: {e}"),
            ProtoError::FrameTooLarge(n) => {
                write!(f, "frame of {n} bytes exceeds the {MAX_FRAME}-byte limit")
            }
            ProtoError::Malformed(what) => write!(f, "malformed frame: {what}"),
            ProtoError::VersionMismatch { ours, theirs } => {
                write!(f, "protocol version mismatch: we speak {ours}, peer speaks {theirs}")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

const OP_OPEN: u8 = 1;
const OP_FEED: u8 = 2;
const OP_CLOSE: u8 = 3;
const OP_HELLO: u8 = 4;
const OP_OPEN_OK: u8 = 129;
const OP_FEED_OK: u8 = 130;
const OP_CLOSE_OK: u8 = 131;
const OP_HELLO_OK: u8 = 132;
const OP_BUSY: u8 = 192;
const OP_ERR: u8 = 193;

/// Wire code for [`WirePreset::Soak`] — far above the generation
/// range, so future generations never collide with it.
const SOAK_CODE: u8 = 255;

fn preset_code(p: WirePreset) -> u8 {
    match p {
        WirePreset::Generation(g) => {
            // zbp-analyze: allow(panic-path): every `GenerationPreset`
            // variant is in `ALL` by construction (pinned by the
            // `all_presets_round_trip` test), so `position` always hits.
            GenerationPreset::ALL.iter().position(|x| *x == g).expect("preset in ALL") as u8
        }
        WirePreset::Soak => SOAK_CODE,
    }
}

fn preset_from(code: u8) -> Option<WirePreset> {
    if code == SOAK_CODE {
        return Some(WirePreset::Soak);
    }
    GenerationPreset::ALL.get(usize::from(code)).copied().map(WirePreset::Generation)
}

/// A mnemonic's wire code: its declaration index, which is also its
/// index in [`Mnemonic::ALL`] (checked below at compile time).
const fn mnemonic_code(m: Mnemonic) -> u8 {
    m as u8
}

// Every wire code decodes back to the mnemonic it encodes.
const _: () = {
    let mut i = 0;
    while i < Mnemonic::ALL.len() {
        assert!(mnemonic_code(Mnemonic::ALL[i]) as usize == i);
        i += 1;
    }
};

fn mnemonic_from(code: u8) -> Option<Mnemonic> {
    Mnemonic::ALL.get(usize::from(code)).copied()
}

/// `Feed` payload bytes before the records: opcode, stream id, count.
const FEED_HEADER_BYTES: usize = 13;

/// Offset of the mnemonic code inside a record.
const MNEMONIC_AT: usize = 16;

/// One record's 26-byte wire layout: address, target, mnemonic code,
/// taken, thread, a pad byte, gap, two pad bytes.
#[rustfmt::skip] // one row per field group, so the layout reads as a table
fn record_bytes(r: &BranchRecord) -> [u8; RECORD_BYTES] {
    let [a0, a1, a2, a3, a4, a5, a6, a7] = r.addr.raw().to_le_bytes();
    let [t0, t1, t2, t3, t4, t5, t6, t7] = r.target.raw().to_le_bytes();
    let [g0, g1, g2, g3] = r.gap_instrs.to_le_bytes();
    [
        a0, a1, a2, a3, a4, a5, a6, a7,
        t0, t1, t2, t3, t4, t5, t6, t7,
        mnemonic_code(r.mnemonic), u8::from(r.taken), r.thread.0, 0,
        g0, g1, g2, g3,
        0, 0,
    ]
}

/// Parses one record laid out by [`record_bytes`]; only the mnemonic
/// code can be invalid.
#[rustfmt::skip] // the pattern mirrors `record_bytes`' table
fn record_from(b: &[u8; RECORD_BYTES]) -> Result<BranchRecord, ProtoError> {
    let [
        a0, a1, a2, a3, a4, a5, a6, a7,
        t0, t1, t2, t3, t4, t5, t6, t7,
        mnemonic, taken, thread, _,
        g0, g1, g2, g3,
        _, _,
    ] = *b;
    Ok(BranchRecord {
        addr: InstrAddr::new(u64::from_le_bytes([a0, a1, a2, a3, a4, a5, a6, a7])),
        mnemonic: mnemonic_from(mnemonic).ok_or(ProtoError::Malformed("unknown mnemonic"))?,
        taken: taken != 0,
        target: InstrAddr::new(u64::from_le_bytes([t0, t1, t2, t3, t4, t5, t6, t7])),
        thread: ThreadId(thread),
        gap_instrs: u32::from_le_bytes([g0, g1, g2, g3]),
    })
}

/// Parses the `n` records of a `Feed` (`n` already bounds-checked),
/// failing as reading them field by field would: at the first unknown
/// mnemonic among whole records, then, for a short body, with "unknown
/// mnemonic" if the partial record's mnemonic byte arrived and is
/// unknown, else "truncated frame".
fn decode_feed_records(r: &mut Cursor<'_>, n: usize) -> Result<Vec<BranchRecord>, ProtoError> {
    let body = r.take_up_to(n * RECORD_BYTES);
    let (records, partial) = body.as_chunks::<RECORD_BYTES>();
    let mut batch = Vec::with_capacity(n);
    for rec in records {
        batch.push(record_from(rec)?);
    }
    if batch.len() < n {
        let unknown = partial.get(MNEMONIC_AT).is_some_and(|&code| mnemonic_from(code).is_none());
        return Err(ProtoError::Malformed(if unknown {
            "unknown mnemonic"
        } else {
            "truncated frame"
        }));
    }
    Ok(batch)
}

impl Frame {
    /// Serializes the frame payload (opcode byte onward, no length
    /// prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        encode(self, &mut out);
        debug_assert!(out.len() <= MAX_FRAME, "encoded frame exceeds MAX_FRAME");
        out
    }

    /// Parses a frame payload (as produced by [`Frame::encode`]).
    pub fn decode(payload: &[u8]) -> Result<Frame, ProtoError> {
        let mut r = Cursor { buf: payload, pos: 0 };
        let frame = match r.u8()? {
            OP_HELLO => {
                if r.bytes(4)? != HELLO_MAGIC {
                    return Err(ProtoError::Malformed("bad hello magic"));
                }
                Frame::Hello { version: r.u32()? }
            }
            OP_HELLO_OK => Frame::HelloOk { version: r.u32()? },
            OP_OPEN => {
                let preset = preset_from(r.u8()?).ok_or(ProtoError::Malformed("unknown preset"))?;
                let mode_code = r.u8()?;
                let depth = r.u32()?;
                let mode = match mode_code {
                    0 => WireMode::Delayed(depth),
                    1 => WireMode::Lookahead,
                    2 => WireMode::CosimDefault,
                    _ => return Err(ProtoError::Malformed("unknown replay mode")),
                };
                let traced = r.u8()? != 0;
                let len = r.u32()? as usize;
                let label = String::from_utf8(r.bytes(len)?.to_vec())
                    .map_err(|_| ProtoError::Malformed("label is not UTF-8"))?;
                Frame::Open { preset, mode, traced, label }
            }
            OP_FEED => {
                let id = r.u64()?;
                let n = r.u32()? as usize;
                if n.checked_mul(RECORD_BYTES).is_none_or(|total| total > MAX_FRAME) {
                    return Err(ProtoError::Malformed("batch count exceeds frame limit"));
                }
                Frame::Feed { id, batch: decode_feed_records(&mut r, n)? }
            }
            OP_CLOSE => Frame::Close { id: r.u64()?, tail_instrs: r.u64()? },
            OP_OPEN_OK => Frame::OpenOk { id: r.u64()?, shard: r.u32()? },
            OP_FEED_OK => Frame::FeedOk { records: r.u64()? },
            OP_CLOSE_OK => {
                let mut counters = [0u64; 9];
                for c in &mut counters {
                    *c = r.u64()?;
                }
                Frame::CloseOk {
                    stats: stats_from_counters(counters),
                    flushes: r.u64()?,
                    records: r.u64()?,
                }
            }
            OP_BUSY => Frame::Busy { retry_after_ms: r.u32()? },
            OP_ERR => {
                let len = r.u32()? as usize;
                let message = String::from_utf8(r.bytes(len)?.to_vec())
                    .map_err(|_| ProtoError::Malformed("message is not UTF-8"))?;
                Frame::Err { message }
            }
            _ => return Err(ProtoError::Malformed("unknown opcode")),
        };
        if r.pos != payload.len() {
            return Err(ProtoError::Malformed("trailing bytes"));
        }
        Ok(frame)
    }

    /// Writes the frame with its length prefix.
    ///
    /// # Errors
    ///
    /// [`ProtoError::FrameTooLarge`] when the payload exceeds
    /// [`MAX_FRAME`] (nothing is written), and transport write failures.
    pub fn write_to(&self, w: &mut impl Write) -> Result<(), ProtoError> {
        self.write_with(w, &mut Vec::new())
    }

    /// [`write_to`](Frame::write_to) through a caller-owned buffer: the
    /// length prefix and payload are built in `buf` (cleared first) and
    /// leave in one `write_all`, and a caller writing many frames keeps
    /// one allocation.
    pub(crate) fn write_with(
        &self,
        w: &mut impl Write,
        buf: &mut Vec<u8>,
    ) -> Result<(), ProtoError> {
        buf.clear();
        let len = self.append_to(buf);
        if len > MAX_FRAME {
            return Err(ProtoError::FrameTooLarge(len));
        }
        w.write_all(buf)?;
        Ok(())
    }

    /// Appends the frame, length prefix first, to `out` without an
    /// intermediate buffer, and returns the payload length. The caller
    /// checks it against [`MAX_FRAME`].
    pub(crate) fn append_to(&self, out: &mut Vec<u8>) -> usize {
        let at = out.len();
        out.extend_from_slice(&[0; 4]);
        encode(self, out);
        let len = out.len() - at - 4;
        if let Some(prefix) = out.get_mut(at..at + 4) {
            prefix.copy_from_slice(&(len as u32).to_le_bytes());
        }
        len
    }

    /// Reads one length-prefixed frame. Returns `Ok(None)` on a clean
    /// EOF at a frame boundary.
    ///
    /// # Errors
    ///
    /// [`ProtoError::FrameTooLarge`] when the declared length exceeds
    /// [`MAX_FRAME`] (nothing further is read — the connection should be
    /// dropped), and [`ProtoError::Malformed`]/[`ProtoError::Io`] as the
    /// payload dictates.
    pub fn read_from(r: &mut impl Read) -> Result<Option<Frame>, ProtoError> {
        let mut len = [0u8; 4];
        match r.read_exact(&mut len) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
            Err(e) => return Err(e.into()),
        }
        let len = u32::from_le_bytes(len) as usize;
        if len > MAX_FRAME {
            return Err(ProtoError::FrameTooLarge(len));
        }
        let mut payload = vec![0u8; len];
        r.read_exact(&mut payload)?;
        Frame::decode(&payload).map(Some)
    }
}

/// Appends `frame`'s payload to `out`: the body of [`Frame::encode`] and
/// of the buffered [`Frame::write_to`].
fn encode(frame: &Frame, out: &mut Vec<u8>) {
    match frame {
        Frame::Hello { version } => {
            out.push(OP_HELLO);
            out.extend_from_slice(&HELLO_MAGIC);
            out.extend_from_slice(&version.to_le_bytes());
        }
        Frame::HelloOk { version } => {
            out.push(OP_HELLO_OK);
            out.extend_from_slice(&version.to_le_bytes());
        }
        Frame::Open { preset, mode, traced, label } => {
            out.push(OP_OPEN);
            out.push(preset_code(*preset));
            match mode {
                WireMode::Delayed(d) => {
                    out.push(0);
                    out.extend_from_slice(&d.to_le_bytes());
                }
                WireMode::Lookahead => {
                    out.push(1);
                    out.extend_from_slice(&0u32.to_le_bytes());
                }
                WireMode::CosimDefault => {
                    out.push(2);
                    out.extend_from_slice(&0u32.to_le_bytes());
                }
            }
            out.push(u8::from(*traced));
            let label = label.as_bytes();
            out.extend_from_slice(&(label.len() as u32).to_le_bytes());
            out.extend_from_slice(label);
        }
        Frame::Feed { id, batch } => {
            out.reserve(FEED_HEADER_BYTES + RECORD_BYTES * batch.len());
            out.push(OP_FEED);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&(batch.len() as u32).to_le_bytes());
            for r in batch {
                out.extend_from_slice(&record_bytes(r));
            }
        }
        Frame::Close { id, tail_instrs } => {
            out.push(OP_CLOSE);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&tail_instrs.to_le_bytes());
        }
        Frame::OpenOk { id, shard } => {
            out.push(OP_OPEN_OK);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&shard.to_le_bytes());
        }
        Frame::FeedOk { records } => {
            out.push(OP_FEED_OK);
            out.extend_from_slice(&records.to_le_bytes());
        }
        Frame::CloseOk { stats, flushes, records } => {
            out.push(OP_CLOSE_OK);
            for c in stats_counters(stats) {
                out.extend_from_slice(&c.to_le_bytes());
            }
            out.extend_from_slice(&flushes.to_le_bytes());
            out.extend_from_slice(&records.to_le_bytes());
        }
        Frame::Busy { retry_after_ms } => {
            out.push(OP_BUSY);
            out.extend_from_slice(&retry_after_ms.to_le_bytes());
        }
        Frame::Err { message } => {
            out.push(OP_ERR);
            let msg = message.as_bytes();
            out.extend_from_slice(&(msg.len() as u32).to_le_bytes());
            out.extend_from_slice(msg);
        }
    }
}

/// The session report fields that travel back in a `CloseOk` frame.
pub fn close_ok(report: &SessionReport) -> Frame {
    Frame::CloseOk { stats: report.stats, flushes: report.flushes, records: report.records }
}

fn stats_counters(s: &MispredictStats) -> [u64; 9] {
    [
        s.branches.get(),
        s.instructions.get(),
        s.dynamic_predictions.get(),
        s.surprises.get(),
        s.dynamic_wrong_direction.get(),
        s.dynamic_wrong_target.get(),
        s.surprise_wrong_direction.get(),
        s.surprise_indirect_stalls.get(),
        s.taken.get(),
    ]
}

fn stats_from_counters(c: [u64; 9]) -> MispredictStats {
    let [branches, instructions, dynamic_predictions, surprises, dynamic_wrong_direction, dynamic_wrong_target, surprise_wrong_direction, surprise_indirect_stalls, taken] =
        c;
    MispredictStats {
        branches: Counter(branches),
        instructions: Counter(instructions),
        dynamic_predictions: Counter(dynamic_predictions),
        surprises: Counter(surprises),
        dynamic_wrong_direction: Counter(dynamic_wrong_direction),
        dynamic_wrong_target: Counter(dynamic_wrong_target),
        surprise_wrong_direction: Counter(surprise_wrong_direction),
        surprise_indirect_stalls: Counter(surprise_indirect_stalls),
        taken: Counter(taken),
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    /// The next `n` bytes, or all that remain if fewer do.
    fn take_up_to(&mut self, n: usize) -> &[u8] {
        let rest = self.buf.get(self.pos..).unwrap_or_default();
        let out = rest.get(..n).unwrap_or(rest);
        self.pos += out.len();
        out
    }

    fn bytes(&mut self, n: usize) -> Result<&[u8], ProtoError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|e| *e <= self.buf.len())
            .ok_or(ProtoError::Malformed("truncated frame"))?;
        let out = self.buf.get(self.pos..end).ok_or(ProtoError::Malformed("truncated frame"))?;
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        self.bytes(1)?.first().copied().ok_or(ProtoError::Malformed("truncated frame"))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        let b = self.bytes(4)?.try_into().map_err(|_| ProtoError::Malformed("truncated frame"))?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        let b = self.bytes(8)?.try_into().map_err(|_| ProtoError::Malformed("truncated frame"))?;
        Ok(u64::from_le_bytes(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<BranchRecord> {
        vec![
            BranchRecord::new(InstrAddr::new(0x1000), Mnemonic::Brc, true, InstrAddr::new(0x2000)),
            BranchRecord::new(InstrAddr::new(0x2000), Mnemonic::Br, false, InstrAddr::new(0x40))
                .on_thread(ThreadId::ONE)
                .with_gap(17),
        ]
    }

    #[test]
    fn frames_roundtrip() {
        let frames = vec![
            Frame::Hello { version: PROTO_VERSION },
            Frame::HelloOk { version: PROTO_VERSION + 7 },
            Frame::Open {
                preset: GenerationPreset::Z15.into(),
                mode: WireMode::Delayed(32),
                traced: true,
                label: "lspr-like".into(),
            },
            Frame::Open {
                preset: GenerationPreset::ZEc12.into(),
                mode: WireMode::Lookahead,
                traced: false,
                label: String::new(),
            },
            Frame::Open {
                preset: WirePreset::Soak,
                mode: WireMode::Delayed(8),
                traced: false,
                label: "soak-0".into(),
            },
            Frame::Feed { id: 7, batch: sample_records() },
            Frame::Close { id: 7, tail_instrs: 99 },
            Frame::OpenOk { id: 7, shard: 3 },
            Frame::FeedOk { records: 123_456 },
            Frame::CloseOk {
                stats: {
                    let mut s = MispredictStats::default();
                    s.branches.add(10);
                    s.taken.add(4);
                    s
                },
                flushes: 3,
                records: 10,
            },
            Frame::Busy { retry_after_ms: 5 },
            Frame::Err { message: "nope".into() },
        ];
        for f in frames {
            let mut wire = Vec::new();
            f.write_to(&mut wire).unwrap();
            let back = Frame::read_from(&mut wire.as_slice()).unwrap().unwrap();
            assert_eq!(back, f, "roundtrip mismatch");
        }
    }

    #[test]
    fn clean_eof_is_none() {
        let empty: &[u8] = &[];
        assert!(Frame::read_from(&mut { empty }).unwrap().is_none());
    }

    #[test]
    fn oversized_frame_is_rejected_without_reading_payload() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&((MAX_FRAME as u32) + 1).to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        match Frame::read_from(&mut wire.as_slice()) {
            Err(ProtoError::FrameTooLarge(n)) => assert_eq!(n, MAX_FRAME + 1),
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_and_trailing_payloads_are_malformed() {
        let payload = Frame::Close { id: 1, tail_instrs: 2 }.encode();
        assert!(matches!(
            Frame::decode(&payload[..payload.len() - 1]),
            Err(ProtoError::Malformed("truncated frame"))
        ));
        let mut extra = payload.clone();
        extra.push(0);
        assert!(matches!(Frame::decode(&extra), Err(ProtoError::Malformed("trailing bytes"))));
        assert!(matches!(Frame::decode(&[250]), Err(ProtoError::Malformed("unknown opcode"))));
    }

    #[test]
    fn hello_magic_is_checked() {
        let mut payload = vec![OP_HELLO];
        payload.extend_from_slice(b"NOPE");
        payload.extend_from_slice(&PROTO_VERSION.to_le_bytes());
        assert!(matches!(Frame::decode(&payload), Err(ProtoError::Malformed("bad hello magic"))));
    }

    #[test]
    fn soak_preset_roundtrips_and_validates() {
        // Wire code 255 must never collide with a generation code, and
        // the miniature config must be a legal predictor.
        assert_eq!(preset_from(preset_code(WirePreset::Soak)), Some(WirePreset::Soak));
        for g in GenerationPreset::ALL {
            assert_ne!(preset_code(WirePreset::Generation(g)), SOAK_CODE);
        }
        soak_config().validate().expect("soak config is valid");
    }

    #[test]
    fn feed_batch_count_is_bounds_checked() {
        // A Feed frame claiming u32::MAX records must be rejected before
        // any allocation of that size.
        let mut payload = vec![OP_FEED];
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Frame::decode(&payload),
            Err(ProtoError::Malformed("batch count exceeds frame limit"))
        ));
    }
}
