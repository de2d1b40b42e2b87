//! Helpers to move typed numeric slices through the byte-oriented substrate.
//!
//! The runtime and the benchmark kernels exchange `f64` fields and `u64`
//! counters. These helpers convert between native slices and little-endian
//! byte payloads without `unsafe`, keeping the substrate self-contained.

use crate::error::{MpiError, MpiResult};

/// Serialize a slice of `f64` values into little-endian bytes.
pub fn f64s_to_bytes(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Every whole `N`-byte word of `bytes`, in order, through `word`: the
/// array split off the front is exactly `N` bytes by its type, so no
/// conversion can fail.
fn words<const N: usize, T>(bytes: &[u8], word: fn([u8; N]) -> T) -> Vec<T> {
    let mut values = Vec::with_capacity(bytes.len() / N);
    let mut rest = bytes;
    while let Some((head, tail)) = rest.split_first_chunk::<N>() {
        values.push(word(*head));
        rest = tail;
    }
    values
}

/// Deserialize little-endian bytes into `f64` values.
pub fn bytes_to_f64s(bytes: &[u8]) -> MpiResult<Vec<f64>> {
    if !bytes.len().is_multiple_of(8) {
        return Err(MpiError::TypeConversion { expected: "f64", len: bytes.len() });
    }
    Ok(words(bytes, f64::from_le_bytes))
}

/// Serialize a slice of `u64` values into little-endian bytes.
pub fn u64s_to_bytes(values: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Deserialize little-endian bytes into `u64` values.
pub fn bytes_to_u64s(bytes: &[u8]) -> MpiResult<Vec<u64>> {
    if !bytes.len().is_multiple_of(8) {
        return Err(MpiError::TypeConversion { expected: "u64", len: bytes.len() });
    }
    Ok(words(bytes, u64::from_le_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn f64_round_trip() {
        let v = vec![1.5, -2.25, 0.0, f64::MAX];
        assert_eq!(bytes_to_f64s(&f64s_to_bytes(&v)).unwrap(), v);
    }

    #[test]
    fn u64_round_trip() {
        let v = vec![0, 1, u64::MAX, 42];
        assert_eq!(bytes_to_u64s(&u64s_to_bytes(&v)).unwrap(), v);
    }

    #[test]
    fn misaligned_payloads_error() {
        assert!(bytes_to_f64s(&[0u8; 7]).is_err());
        assert!(bytes_to_u64s(&[0u8; 9]).is_err());
    }

    // Deterministic seeded sweeps replacing the former proptest round-trip
    // properties (no crate registry is available for proptest itself).
    #[test]
    fn prop_f64_round_trip() {
        for seed in 1u64..=32 {
            let mut rng = ompc_testutil::Rng::new(seed);
            let len = rng.range_usize(0, 128);
            let v: Vec<f64> = (0..len).map(|_| f64::from_bits(rng.next_u64())).collect();
            let back = bytes_to_f64s(&f64s_to_bytes(&v)).unwrap();
            assert_eq!(back.len(), v.len(), "seed {seed}");
            for (a, b) in back.iter().zip(v.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "seed {seed}");
            }
        }
    }

    #[test]
    fn prop_u64_round_trip() {
        for seed in 1u64..=32 {
            let mut rng = ompc_testutil::Rng::new(seed);
            let len = rng.range_usize(0, 128);
            let v: Vec<u64> = (0..len).map(|_| rng.next_u64()).collect();
            assert_eq!(bytes_to_u64s(&u64s_to_bytes(&v)).unwrap(), v, "seed {seed}");
        }
    }
}
