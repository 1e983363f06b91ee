//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), the checksum of
//! gzip/zip/PNG and the one trailer every container format in the stack
//! carries: ALSV wire frames, ALJL journal records, ALCK checkpoints, ALFR
//! flight dumps and ALPR program containers.
//!
//! Slice-by-8: eight 256-entry tables, built at compile time, fold eight
//! input bytes per step with eight independent lookups instead of 64
//! dependent shift/xor steps. On a 2-core Xeon container that is about
//! 0.75 ns/B against 6.5 ns/B for the bitwise loop, which stays below as
//! the test oracle. The checksum values are the same.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0][b]` is the CRC of the byte `b` alone; `TABLES[k][b]` is that
/// CRC advanced by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 of `bytes`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][usize::from(c[4])]
            ^ t[2][usize::from(c[5])]
            ^ t[1][usize::from(c[6])]
            ^ t[0][usize::from(c[7])];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// The bitwise definition: one dependent shift/xor step per bit.
    fn bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &byte in bytes {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(bitwise(b"123456789"), 0xCBF4_3926);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every length 0..=257 covers each remainder mod 8 many times,
        /// so both the 8-byte step and the byte tail meet every table.
        #[test]
        fn table_crc_matches_the_bitwise_oracle_at_every_length(
            bytes in vec(0u8..=255, 257),
        ) {
            for len in 0..=bytes.len() {
                prop_assert_eq!(crc32(&bytes[..len]), bitwise(&bytes[..len]), "len {}", len);
            }
        }

        #[test]
        fn table_crc_matches_the_bitwise_oracle_on_64k(
            bytes in vec(0u8..=255, 65_536),
        ) {
            prop_assert_eq!(crc32(&bytes), bitwise(&bytes));
        }
    }
}
