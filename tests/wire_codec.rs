//! The `Feed` wire codec against a field-by-field oracle.
//!
//! The serve protocol moves a `Feed` batch in bulk: the encoder fills
//! fixed record-sized chunks of one reserved buffer and the decoder
//! walks fixed chunks of the payload. The oracle below is the codec
//! those replaced, kept verbatim in spirit: every field goes through a
//! bounds-checked cursor, and each mnemonic's code is found by a linear
//! search of `Mnemonic::ALL`. The bulk codec must produce the same bytes
//! for every batch, and the same `Frame` or the same error message for
//! every payload, including malformed ones.
//!
//! One fixed frame is also compared with committed hex, so the format
//! cannot drift even if both codecs drift together.

use proptest::prelude::*;
use std::io::{self, Read, Write};
use zbp::model::{BranchRecord, ThreadId};
use zbp::serve::{Frame, ProtoError, MAX_FRAME, PROTO_VERSION, RECORD_BYTES};
use zbp::zarch::{InstrAddr, Mnemonic};

const OP_FEED: u8 = 2;

/// The fixed frame's wire bytes: length prefix, then the payload.
const GOLDEN_HEX: &str = "5b000000\
     02\
     efcdab8967452301\
     03000000\
     0010000000000000\
     0020000000000000\
     02010000\
     00000000\
     0000\
     0220000000000000\
     4000000000000000\
     06000100\
     11000000\
     0000\
     feffffffffffffff\
     0000000001000000\
     0e01ff00\
     ffffffff\
     0000";

fn golden_frame() -> Frame {
    Frame::Feed {
        id: 0x0123_4567_89ab_cdef,
        batch: vec![
            BranchRecord::new(InstrAddr::new(0x1000), Mnemonic::Brc, true, InstrAddr::new(0x2000)),
            BranchRecord::new(InstrAddr::new(0x2002), Mnemonic::Br, false, InstrAddr::new(0x40))
                .on_thread(ThreadId::ONE)
                .with_gap(17),
            BranchRecord {
                addr: InstrAddr::new(u64::MAX - 1),
                mnemonic: Mnemonic::Brasl,
                taken: true,
                target: InstrAddr::new(1 << 32),
                thread: ThreadId(255),
                gap_instrs: u32::MAX,
            },
        ],
    }
}

// ---------------------------------------------------------------------
// The oracle: the cursor-based Feed codec.
// ---------------------------------------------------------------------

fn oracle_mnemonic_code(m: Mnemonic) -> u8 {
    Mnemonic::ALL.iter().position(|x| *x == m).expect("mnemonic in ALL") as u8
}

fn oracle_mnemonic_from(code: u8) -> Option<Mnemonic> {
    Mnemonic::ALL.get(usize::from(code)).copied()
}

fn oracle_encode_feed(id: u64, batch: &[BranchRecord]) -> Vec<u8> {
    let mut out = vec![OP_FEED];
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&(batch.len() as u32).to_le_bytes());
    for r in batch {
        out.extend_from_slice(&r.addr.raw().to_le_bytes());
        out.extend_from_slice(&r.target.raw().to_le_bytes());
        out.push(oracle_mnemonic_code(r.mnemonic));
        out.push(u8::from(r.taken));
        out.push(r.thread.0);
        out.push(0);
        out.extend_from_slice(&r.gap_instrs.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
    }
    out
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn bytes(&mut self, n: usize) -> Result<&[u8], ProtoError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|e| *e <= self.buf.len())
            .ok_or(ProtoError::Malformed("truncated frame"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.bytes(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8 bytes")))
    }
}

/// Decodes a payload that is empty or starts with the `Feed` opcode.
fn oracle_decode(payload: &[u8]) -> Result<Frame, ProtoError> {
    let mut r = Cursor { buf: payload, pos: 0 };
    assert_eq!(r.u8()?, OP_FEED, "the oracle decodes Feed payloads only");
    let id = r.u64()?;
    let n = r.u32()? as usize;
    if n.checked_mul(RECORD_BYTES).is_none_or(|total| total > MAX_FRAME) {
        return Err(ProtoError::Malformed("batch count exceeds frame limit"));
    }
    let mut batch = Vec::with_capacity(n);
    for _ in 0..n {
        let addr = InstrAddr::new(r.u64()?);
        let target = InstrAddr::new(r.u64()?);
        let mnemonic =
            oracle_mnemonic_from(r.u8()?).ok_or(ProtoError::Malformed("unknown mnemonic"))?;
        let taken = r.u8()? != 0;
        let thread = ThreadId(r.u8()?);
        let _pad = r.u8()?;
        let gap_instrs = r.u32()?;
        let _pad2 = r.bytes(2)?;
        batch.push(BranchRecord { addr, mnemonic, taken, target, thread, gap_instrs });
    }
    if r.pos != payload.len() {
        return Err(ProtoError::Malformed("trailing bytes"));
    }
    Ok(Frame::Feed { id, batch })
}

fn oracle_read(r: &mut impl Read) -> Result<Option<Frame>, ProtoError> {
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
    oracle_decode(&payload).map(Some)
}

// ---------------------------------------------------------------------
// Comparison helpers.
// ---------------------------------------------------------------------

/// A result with the error reduced to its message, which is what the
/// server sends back in an `Err` frame.
fn shown<T>(r: Result<T, ProtoError>) -> Result<T, String> {
    r.map_err(|e| e.to_string())
}

fn same_decode(payload: &[u8]) -> Result<(), String> {
    let (got, want) = (shown(Frame::decode(payload)), shown(oracle_decode(payload)));
    if got == want {
        Ok(())
    } else {
        Err(format!("payload {}: decode {got:?}, oracle {want:?}", hex(payload)))
    }
}

fn same_read(wire: &[u8]) -> Result<(), String> {
    let got = shown(Frame::read_from(&mut &wire[..]));
    let want = shown(oracle_read(&mut &wire[..]));
    if got == want {
        Ok(())
    } else {
        Err(format!("wire {}: read {got:?}, oracle {want:?}", hex(wire)))
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn wire_of(frame: &Frame) -> Vec<u8> {
    let mut wire = Vec::new();
    frame.write_to(&mut wire).expect("frame fits MAX_FRAME");
    wire
}

fn any_record() -> impl Strategy<Value = BranchRecord> {
    (
        (any::<u64>(), any::<u64>()),
        prop::sample::select(Mnemonic::ALL.to_vec()),
        (any::<bool>(), any::<u8>(), any::<u32>()),
    )
        .prop_map(|((addr, target), mnemonic, (taken, thread, gap_instrs))| BranchRecord {
            addr: InstrAddr::new(addr),
            mnemonic,
            taken,
            target: InstrAddr::new(target),
            thread: ThreadId(thread),
            gap_instrs,
        })
}

/// A `Feed` payload that is nearly well formed: a small count, then a
/// body whose length is near a multiple of the record size and whose
/// bytes are small enough that mnemonic codes land on both sides of the
/// valid range.
fn near_feed() -> impl Strategy<Value = Vec<u8>> {
    (any::<u64>(), 0u32..6, prop::collection::vec(0u8..24, 0..170)).prop_map(|(id, n, body)| {
        let mut p = vec![OP_FEED];
        p.extend_from_slice(&id.to_le_bytes());
        p.extend_from_slice(&n.to_le_bytes());
        p.extend_from_slice(&body);
        p
    })
}

// ---------------------------------------------------------------------
// Properties.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_batches_encode_to_the_oracle_bytes(
        id in any::<u64>(),
        batch in prop::collection::vec(any_record(), 0..40)
    ) {
        let want = oracle_encode_feed(id, &batch);
        let frame = Frame::Feed { id, batch };
        prop_assert_eq!(hex(&frame.encode()), hex(&want));
        let mut framed = (want.len() as u32).to_le_bytes().to_vec();
        framed.extend_from_slice(&want);
        prop_assert_eq!(hex(&wire_of(&frame)), hex(&framed));
        prop_assert_eq!(shown(Frame::decode(&want)), Ok(frame));
    }

    #[test]
    fn near_feed_payloads_decode_like_the_oracle(payload in near_feed()) {
        same_decode(&payload)?;
    }

    #[test]
    fn random_feed_payloads_decode_like_the_oracle(
        head in any::<u32>(),
        body in prop::collection::vec(any::<u8>(), 0..120)
    ) {
        // Opcode, then an id, a count and records from raw bytes; the
        // count's high bytes are usually nonzero, so this mostly probes
        // the count bound.
        let mut payload = vec![OP_FEED];
        payload.extend_from_slice(&head.to_le_bytes());
        payload.extend_from_slice(&body);
        same_decode(&payload)?;
    }
}

#[test]
fn every_truncation_of_a_three_record_frame_decodes_like_the_oracle() {
    let wire = wire_of(&golden_frame());
    let payload = &wire[4..];
    for end in 1..=payload.len() {
        same_decode(&payload[..end]).unwrap();
    }
    for end in 0..=wire.len() {
        same_read(&wire[..end]).unwrap();
    }
    // A truncated last record whose mnemonic byte arrived and is
    // unknown reports the mnemonic, as the field-by-field reader did.
    let mnemonic_at = payload.len() - 10;
    let mut bad = payload[..mnemonic_at + 1].to_vec();
    bad[mnemonic_at] = 200;
    assert_eq!(shown(Frame::decode(&bad)), Err("malformed frame: unknown mnemonic".to_string()));
    same_decode(&bad).unwrap();
}

#[test]
fn every_value_of_the_length_count_and_mnemonic_bytes_decodes_like_the_oracle() {
    let wire = wire_of(&golden_frame());
    let record = (wire.len() - 4 - 13) / 3;
    // The length prefix, the record count, and each record's mnemonic.
    let mut at: Vec<usize> = (0..4).chain(13..17).collect();
    at.extend((0..3).map(|i| 4 + 13 + i * record + 16));
    for &i in &at {
        for v in 0..=u8::MAX {
            let mut mutated = wire.clone();
            mutated[i] = v;
            same_read(&mutated).unwrap_or_else(|e| panic!("byte {i} = {v}: {e}"));
        }
    }
}

#[test]
fn the_fixed_frame_matches_the_committed_hex() {
    assert_eq!(PROTO_VERSION, 1);
    let wire = wire_of(&golden_frame());
    assert_eq!(hex(&wire), GOLDEN_HEX);
    let Frame::Feed { id, batch } = golden_frame() else { unreachable!() };
    assert_eq!(hex(&oracle_encode_feed(id, &batch)), hex(&wire[4..]));
    assert_eq!(Frame::read_from(&mut &wire[..]).unwrap(), Some(golden_frame()));
}

/// Counts the `write` calls a frame takes and the bytes they carry.
#[derive(Default)]
struct CountingWriter {
    writes: usize,
    bytes: usize,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.bytes += buf.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_frame_leaves_in_one_write_and_an_oversized_one_writes_nothing() {
    let batch =
        vec![
            BranchRecord::new(InstrAddr::new(0x10), Mnemonic::J, true, InstrAddr::new(0x80));
            4096
        ];
    let frame = Frame::Feed { id: 1, batch };
    let mut w = CountingWriter::default();
    frame.write_to(&mut w).unwrap();
    assert_eq!((w.writes, w.bytes), (1, wire_of(&frame).len()));

    let huge = vec![
        BranchRecord::new(InstrAddr::new(0x10), Mnemonic::J, true, InstrAddr::new(0x80));
        MAX_FRAME / 20
    ];
    let mut w = CountingWriter::default();
    match (Frame::Feed { id: 1, batch: huge }).write_to(&mut w) {
        Err(ProtoError::FrameTooLarge(n)) => assert!(n > MAX_FRAME),
        other => panic!("expected FrameTooLarge, got {other:?}"),
    }
    assert_eq!((w.writes, w.bytes), (0, 0));
}

#[test]
fn a_feed_of_40329_records_fits_one_frame_and_40330_is_rejected_like_the_oracle() {
    // A 13-byte header plus 40 329 records of 26 bytes is 1 048 567 bytes,
    // the most whole records `MAX_FRAME` holds.
    assert_eq!(MAX_FRAME / RECORD_BYTES, 40_329);
    let record = BranchRecord::new(InstrAddr::new(0x10), Mnemonic::J, true, InstrAddr::new(0x80));
    let frame = Frame::Feed { id: 7, batch: vec![record; 40_329] };
    let wire = wire_of(&frame);
    assert_eq!(wire.len() - 4, 13 + 40_329 * 26);
    same_decode(&wire[4..]).unwrap();
    same_read(&wire).unwrap();
    assert_eq!(Frame::read_from(&mut &wire[..]).unwrap(), Some(frame));

    let mut over = wire[4..].to_vec();
    over[9..13].copy_from_slice(&40_330u32.to_le_bytes());
    assert_eq!(
        shown(Frame::decode(&over)),
        Err("malformed frame: batch count exceeds frame limit".to_string())
    );
    same_decode(&over).unwrap();
}
