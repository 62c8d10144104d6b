//! FNV-1a 64, the one hash behind every persisted identity: checkpoint
//! and seed-index fingerprints, index checksums and artifact names, and
//! the bench output checksums. Those values key files that outlive a
//! build, so this function must never change.

/// The FNV-1a 64 offset basis: the hash of no bytes.
pub const FNV1A_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the FNV-1a 64 state `h`. Start from
/// [`FNV1A_BASIS`]; chaining calls hashes the concatenation.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_values() {
        assert_eq!(fnv1a(FNV1A_BASIS, b""), FNV1A_BASIS);
        // FNV-1a 64 test vectors.
        assert_eq!(fnv1a(FNV1A_BASIS, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV1A_BASIS, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(fnv1a(FNV1A_BASIS, b"foo"), b"bar"),
            0x8594_4171_f739_67e8
        );
    }
}
