//! Line damage applied to bytes.
//!
//! A [`crate::FaultInjector`] reports a unit's bit errors as flipped bit
//! positions (0 = first bit on the wire); the caller owns the bytes and
//! applies the flips here, so one sampler serves cells, SONET frames and
//! whole byte streams alike.

/// Apply a list of flipped bit positions (as returned in
/// [`crate::UnitFate::flipped_bits`]) to a byte buffer, MSB-first
/// within each byte — matching the on-the-wire bit order of ATM/SONET.
pub fn apply_bit_errors(buf: &mut [u8], flipped_bits: &[u64]) {
    for &pos in flipped_bits {
        let byte = (pos / 8) as usize;
        if byte < buf.len() {
            buf[byte] ^= 0x80 >> (pos % 8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_bit_errors_msb_first() {
        let mut buf = [0u8; 2];
        apply_bit_errors(&mut buf, &[0, 8, 15]);
        assert_eq!(buf, [0x80, 0x81]);
        // Out-of-range positions are ignored.
        apply_bit_errors(&mut buf, &[100]);
        assert_eq!(buf, [0x80, 0x81]);
    }
}
