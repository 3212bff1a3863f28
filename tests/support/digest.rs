//! FNV-1a 64-bit digest for pinning golden outputs. Include it with
//!
//! ```ignore
//! #[path = "support/digest.rs"]
//! mod digest;
//! ```
//!
//! A pinned digest turns "this output must never change" into one
//! `u64` per output: cheap to store in a test, and any byte that moves
//! changes it.

/// FNV-1a over `bytes` (64-bit offset basis and prime).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
