//! The WAL's on-disk frame codec.
//!
//! One frame per logged batch:
//!
//! ```text
//! +---------+---------+---------+---------+=================+
//! | magic   | len     | seq     | crc     | payload         |
//! | u32 LE  | u32 LE  | u64 LE  | u32 LE  | len bytes       |
//! +---------+---------+---------+---------+=================+
//! payload := count (u32 LE) , count x record
//! record  := kind (u8: 0 insert / 1 delete) , src (u32 LE) ,
//!            dst (u32 LE) , weight (f64 LE bits)
//! ```
//!
//! The CRC32 covers the payload only; the fixed-width header fields are
//! validated structurally (magic, length sanity, sequence monotonicity is
//! the reader's job). Decoding classifies damage precisely — a *torn*
//! frame (clean crash mid-write) versus a *corrupt* one (bit rot, bad
//! magic, CRC mismatch) — because recovery truncates at either but the
//! distinction matters for diagnostics.

use crate::crc::crc32;
use crate::LeReader;
use cisgraph_types::{EdgeUpdate, UpdateKind, VertexId, Weight};

/// Frame magic: the bytes `CWAL` read as a little-endian `u32`.
pub const WAL_FRAME_MAGIC: u32 = u32::from_le_bytes(*b"CWAL");

/// Fixed frame header size: magic + payload length + sequence + CRC.
pub const FRAME_HEADER_BYTES: usize = 4 + 4 + 8 + 4;

/// Encoded size of one update record inside a frame payload.
pub const UPDATE_BYTES: usize = 1 + 4 + 4 + 8;

/// Largest payload a well-formed frame may carry. Anything bigger is
/// treated as corruption rather than an allocation request: ~15 M updates
/// per batch is far beyond any workload this repo generates.
const MAX_PAYLOAD_BYTES: usize = 256 << 20;

/// A decoded WAL frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalFrame {
    /// The batch's monotonic sequence number.
    pub seq: u64,
    /// The batch's updates, in stream order.
    pub updates: Vec<EdgeUpdate>,
}

/// Outcome of decoding one frame from a byte slice.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameDecode {
    /// A complete, CRC-clean frame; `consumed` bytes were used.
    Frame {
        /// The decoded frame.
        frame: WalFrame,
        /// Total encoded size (header + payload).
        consumed: usize,
    },
    /// The slice is empty — a clean end of log.
    Eof,
    /// The slice ends mid-frame: a torn write from a crash. The log is
    /// valid up to the frame boundary; everything from here is garbage.
    Torn {
        /// Bytes available at the tail.
        have: usize,
        /// Bytes a complete frame would have needed.
        need: usize,
    },
    /// The bytes at the cursor are not a valid frame.
    Corrupt {
        /// What failed to validate.
        reason: String,
    },
}

/// Appends the encoded frame for `(seq, batch)` to `buf`; returns the
/// encoded size.
///
/// # Examples
///
/// ```
/// use cisgraph_persist::{FrameDecode, FRAME_HEADER_BYTES, UPDATE_BYTES};
/// use cisgraph_types::{EdgeUpdate, VertexId, Weight};
///
/// let batch = [EdgeUpdate::insert(VertexId::new(0), VertexId::new(1), Weight::ONE)];
/// let mut buf = Vec::new();
/// let n = cisgraph_persist::WalFrame::encode(7, &batch, &mut buf);
/// assert_eq!(n, FRAME_HEADER_BYTES + 4 + UPDATE_BYTES);
/// match cisgraph_persist::WalFrame::decode(&buf) {
///     FrameDecode::Frame { frame, consumed } => {
///         assert_eq!(frame.seq, 7);
///         assert_eq!(frame.updates, batch);
///         assert_eq!(consumed, n);
///     }
///     other => panic!("{other:?}"),
/// }
/// ```
impl WalFrame {
    /// Encodes one batch as a frame appended to `buf`; returns the frame's
    /// total encoded size.
    pub fn encode(seq: u64, batch: &[EdgeUpdate], buf: &mut Vec<u8>) -> usize {
        let payload_len = 4 + batch.len() * UPDATE_BYTES;
        buf.reserve(FRAME_HEADER_BYTES + payload_len);
        let header_at = buf.len();
        buf.extend_from_slice(&WAL_FRAME_MAGIC.to_le_bytes());
        buf.extend_from_slice(&(payload_len as u32).to_le_bytes());
        buf.extend_from_slice(&seq.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes()); // CRC patched once the payload is in place.
        let count = u32::try_from(batch.len()).expect("batch fits in u32");
        buf.extend_from_slice(&count.to_le_bytes());
        for u in batch {
            // One contiguous write per record: assembling the fixed-width
            // layout on the stack keeps the append hot path off the
            // per-field buffer calls.
            let mut rec = [0u8; UPDATE_BYTES];
            rec[0] = match u.kind() {
                UpdateKind::Insert => 0,
                UpdateKind::Delete => 1,
            };
            rec[1..5].copy_from_slice(&u.src().raw().to_le_bytes());
            rec[5..9].copy_from_slice(&u.dst().raw().to_le_bytes());
            rec[9..17].copy_from_slice(&u.weight().get().to_le_bytes());
            buf.extend_from_slice(&rec);
        }
        debug_assert_eq!(buf.len() - header_at, FRAME_HEADER_BYTES + payload_len);
        let crc = crc32(&buf[header_at + FRAME_HEADER_BYTES..]);
        buf[header_at + 16..header_at + 20].copy_from_slice(&crc.to_le_bytes());
        FRAME_HEADER_BYTES + payload_len
    }

    /// Decodes the frame starting at the beginning of `bytes`,
    /// classifying a short tail as [`FrameDecode::Torn`] and any
    /// validation failure as [`FrameDecode::Corrupt`].
    pub fn decode(bytes: &[u8]) -> FrameDecode {
        if bytes.is_empty() {
            return FrameDecode::Eof;
        }
        if bytes.len() < FRAME_HEADER_BYTES {
            return FrameDecode::Torn {
                have: bytes.len(),
                need: FRAME_HEADER_BYTES,
            };
        }
        let mut header = LeReader::new(&bytes[..FRAME_HEADER_BYTES]);
        let magic = header.u32();
        if magic != WAL_FRAME_MAGIC {
            return FrameDecode::Corrupt {
                reason: format!("bad frame magic {magic:#010x}"),
            };
        }
        let payload_len = header.u32() as usize;
        if !(4..=MAX_PAYLOAD_BYTES).contains(&payload_len)
            || !(payload_len - 4).is_multiple_of(UPDATE_BYTES)
        {
            return FrameDecode::Corrupt {
                reason: format!("implausible payload length {payload_len}"),
            };
        }
        let seq = header.u64();
        let expect_crc = header.u32();
        let total = FRAME_HEADER_BYTES + payload_len;
        if bytes.len() < total {
            return FrameDecode::Torn {
                have: bytes.len(),
                need: total,
            };
        }
        let payload = &bytes[FRAME_HEADER_BYTES..total];
        let actual_crc = crc32(payload);
        if actual_crc != expect_crc {
            return FrameDecode::Corrupt {
                reason: format!("payload crc {actual_crc:#010x} != recorded {expect_crc:#010x}"),
            };
        }
        let mut cursor = LeReader::new(payload);
        let count = cursor.u32() as usize;
        if count * UPDATE_BYTES != payload_len - 4 {
            return FrameDecode::Corrupt {
                reason: format!("count {count} disagrees with payload length {payload_len}"),
            };
        }
        let mut updates = Vec::with_capacity(count);
        for i in 0..count {
            let kind = match cursor.u8() {
                0 => UpdateKind::Insert,
                1 => UpdateKind::Delete,
                other => {
                    return FrameDecode::Corrupt {
                        reason: format!("record {i}: unknown update kind {other}"),
                    }
                }
            };
            let src = VertexId::new(cursor.u32());
            let dst = VertexId::new(cursor.u32());
            let weight = match Weight::new(cursor.f64()) {
                Ok(w) => w,
                Err(e) => {
                    return FrameDecode::Corrupt {
                        reason: format!("record {i}: {e}"),
                    }
                }
            };
            updates.push(EdgeUpdate::new(src, dst, weight, kind));
        }
        FrameDecode::Frame {
            frame: WalFrame { seq, updates },
            consumed: total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(n: u32) -> Vec<EdgeUpdate> {
        (0..n)
            .map(|i| {
                let w = Weight::new(f64::from(i % 5 + 1)).unwrap();
                if i % 3 == 0 {
                    EdgeUpdate::delete(VertexId::new(i), VertexId::new(i + 1), w)
                } else {
                    EdgeUpdate::insert(VertexId::new(i), VertexId::new(i + 1), w)
                }
            })
            .collect()
    }

    fn decode_frame(bytes: &[u8]) -> (WalFrame, usize) {
        match WalFrame::decode(bytes) {
            FrameDecode::Frame { frame, consumed } => (frame, consumed),
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn round_trip() {
        let b = batch(17);
        let mut buf = Vec::new();
        let n = WalFrame::encode(99, &b, &mut buf);
        assert_eq!(n, buf.len());
        let (frame, consumed) = decode_frame(&buf);
        assert_eq!(consumed, n);
        assert_eq!(frame.seq, 99);
        assert_eq!(frame.updates, b);
    }

    #[test]
    fn empty_batch_round_trips() {
        let mut buf = Vec::new();
        WalFrame::encode(1, &[], &mut buf);
        let (frame, _) = decode_frame(&buf);
        assert_eq!(frame.seq, 1);
        assert!(frame.updates.is_empty());
    }

    #[test]
    fn back_to_back_frames_decode_in_order() {
        let mut buf = Vec::new();
        WalFrame::encode(1, &batch(3), &mut buf);
        let first_len = buf.len();
        WalFrame::encode(2, &batch(5), &mut buf);
        let (a, consumed) = decode_frame(&buf);
        assert_eq!((a.seq, consumed), (1, first_len));
        let (b, _) = decode_frame(&buf[consumed..]);
        assert_eq!(b.seq, 2);
        assert_eq!(b.updates.len(), 5);
    }

    #[test]
    fn eof_on_empty() {
        assert_eq!(WalFrame::decode(&[]), FrameDecode::Eof);
    }

    #[test]
    fn every_truncation_point_is_torn_not_garbage() {
        let mut buf = Vec::new();
        WalFrame::encode(5, &batch(4), &mut buf);
        for cut in 1..buf.len() {
            match WalFrame::decode(&buf[..cut]) {
                FrameDecode::Torn { have, need } => {
                    assert_eq!(have, cut);
                    assert!(need > cut);
                }
                other => panic!("cut at {cut}: expected torn, got {other:?}"),
            }
        }
    }

    #[test]
    fn crc_catches_payload_bit_flips() {
        let mut buf = Vec::new();
        WalFrame::encode(5, &batch(4), &mut buf);
        let mut bytes = buf.to_vec();
        for pos in FRAME_HEADER_BYTES..bytes.len() {
            bytes[pos] ^= 0x40;
            assert!(
                matches!(WalFrame::decode(&bytes), FrameDecode::Corrupt { .. }),
                "payload flip at {pos} undetected"
            );
            bytes[pos] ^= 0x40;
        }
    }

    #[test]
    fn header_damage_is_detected() {
        let mut buf = Vec::new();
        WalFrame::encode(5, &batch(2), &mut buf);
        // Magic.
        let mut bytes = buf.to_vec();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            WalFrame::decode(&bytes),
            FrameDecode::Corrupt { .. }
        ));
        // Length field: either implausible (corrupt) or points past the
        // tail (torn) — both truncate.
        let mut bytes = buf.to_vec();
        bytes[4] = bytes[4].wrapping_add(1);
        assert!(matches!(
            WalFrame::decode(&bytes),
            FrameDecode::Corrupt { .. } | FrameDecode::Torn { .. }
        ));
        // CRC field itself.
        let mut bytes = buf.to_vec();
        bytes[16] ^= 0x01;
        assert!(matches!(
            WalFrame::decode(&bytes),
            FrameDecode::Corrupt { .. }
        ));
    }

    #[test]
    fn invalid_weight_bits_are_corrupt_not_panic() {
        let mut buf = Vec::new();
        WalFrame::encode(5, &batch(1), &mut buf);
        // Overwrite the weight with NaN bits and fix up the CRC so only
        // the semantic validation can catch it.
        let mut bytes = buf.to_vec();
        let wpos = FRAME_HEADER_BYTES + 4 + 1 + 4 + 4;
        bytes[wpos..wpos + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        let crc = crc32(&bytes[FRAME_HEADER_BYTES..]);
        bytes[16..20].copy_from_slice(&crc.to_le_bytes());
        match WalFrame::decode(&bytes) {
            FrameDecode::Corrupt { reason } => assert!(reason.contains("record 0")),
            other => panic!("expected corrupt, got {other:?}"),
        }
    }
}
