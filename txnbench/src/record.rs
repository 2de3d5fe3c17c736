//! The 64-byte record every workload file holds (16 per 1 KB page).
//!
//! | bytes  | field                                        |
//! |--------|----------------------------------------------|
//! | 0..8   | key: file tag in the high word, index in the low word |
//! | 8..16  | value: a balance or a counter (`i64`)        |
//! | 16..56 | filler derived from the key                  |
//! | 56..64 | FNV-1a checksum of bytes 0..56               |
//!
//! Every read validates key and checksum, so a torn, misplaced or stale
//! page image shows up as a corrupt record rather than a wrong sum.

/// Record size in bytes.
pub const RECORD: u64 = 64;
const SUM_AT: usize = 56;

/// The key of record `index` in the file tagged `tag`.
pub fn key(tag: u32, index: u32) -> u64 {
    (u64::from(tag) << 32) | u64::from(index)
}

fn checksum(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

pub fn encode(key: u64, value: i64) -> [u8; RECORD as usize] {
    let mut r = [0u8; RECORD as usize];
    r[0..8].copy_from_slice(&key.to_le_bytes());
    r[8..16].copy_from_slice(&value.to_le_bytes());
    let fill = key.wrapping_mul(0x9E37_79B9_7F4A_7C15).to_le_bytes();
    for (i, b) in r[16..SUM_AT].iter_mut().enumerate() {
        *b = fill[i % 8] ^ i as u8;
    }
    let sum = checksum(&r[..SUM_AT]);
    r[SUM_AT..].copy_from_slice(&sum.to_le_bytes());
    r
}

/// The value of a record read back, after checking it is the record `key`
/// names and that its checksum holds.
pub fn decode(bytes: &[u8], key: u64) -> Result<i64, String> {
    let word = |at: usize| -> u64 {
        let mut w = [0u8; 8];
        w.copy_from_slice(&bytes[at..at + 8]);
        u64::from_le_bytes(w)
    };
    if bytes.len() != RECORD as usize {
        return Err(format!(
            "record {key:#x}: read {} bytes, expected {RECORD}",
            bytes.len()
        ));
    }
    if word(SUM_AT) != checksum(&bytes[..SUM_AT]) {
        return Err(format!("record {key:#x}: checksum mismatch"));
    }
    if word(0) != key {
        return Err(format!("record {key:#x}: holds key {:#x}", word(0)));
    }
    Ok(word(8) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_rejects() {
        let k = key(2, 77);
        let r = encode(k, -5);
        assert_eq!(decode(&r, k), Ok(-5));
        assert!(decode(&r, key(2, 78)).is_err(), "wrong key");
        let mut torn = r;
        torn[20] ^= 1;
        assert!(decode(&torn, k).is_err(), "bad checksum");
        assert!(decode(&r[..63], k).is_err(), "short read");
    }
}
