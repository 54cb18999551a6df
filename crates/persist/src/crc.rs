//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`) — the frame and checkpoint
//! integrity check. Slicing-by-8 table-driven: eight 256-entry tables,
//! built once on first use, consume the input eight bytes per step so
//! checksumming keeps up with the WAL append path.

use std::sync::OnceLock;

const POLY: u32 = 0xEDB8_8320;

fn tables() -> &'static [[u32; 256]; 8] {
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        for k in 1..8 {
            for i in 0..256usize {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// The CRC-32 checksum of `data` (IEEE reflected, init/final `!0` — the
/// same parameterization zlib, PNG, and Ethernet use).
///
/// # Examples
///
/// ```
/// // The classic check value.
/// assert_eq!(cisgraph_persist::crc32(b"123456789"), 0xCBF4_3926);
/// assert_eq!(cisgraph_persist::crc32(b""), 0);
/// ```
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0, data)
}

/// Extends `crc`, the CRC-32 of some prefix, over `data`:
/// `crc32_update(crc32(a), b) == crc32(a ++ b)` (zlib's `crc32(crc, buf)`
/// convention), so a file can be checked in chunks.
pub(crate) fn crc32_update(crc: u32, data: &[u8]) -> u32 {
    let t = tables();
    let mut crc = !crc;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = u32::from_le_bytes(chunk[0..4].try_into().expect("4-byte slice")) ^ crc;
        let hi = u32::from_le_bytes(chunk[4..8].try_into().expect("4-byte slice"));
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[]), 0);
    }

    /// The sliced fast path must agree with the canonical byte-at-a-time
    /// definition at every length (covering all remainder sizes).
    #[test]
    fn slicing_matches_bytewise_reference() {
        fn reference(data: &[u8]) -> u32 {
            let mut crc = !0u32;
            for &byte in data {
                crc ^= u32::from(byte);
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        (crc >> 1) ^ POLY
                    } else {
                        crc >> 1
                    };
                }
            }
            !crc
        }
        let data: Vec<u8> = (0..257u32)
            .map(|i| (i.wrapping_mul(131) >> 3) as u8)
            .collect();
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len {len}");
        }
    }

    #[test]
    fn chunked_update_matches_one_pass() {
        let data: Vec<u8> = (0..100u32).map(|i| (i * 37) as u8).collect();
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            assert_eq!(crc32_update(crc32(a), b), crc32(&data), "split {split}");
        }
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data = b"cisgraph wal frame payload".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), clean, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
        assert_eq!(crc32(&data), clean);
    }
}
