//! The x⁴³ + 1 self-synchronising payload scrambler (ITU-T I.432.1).
//!
//! In SDH-based transmission the 48-octet cell *payload* is scrambled
//! before transmission so that user data cannot counterfeit the header
//! patterns that cell delineation locks onto, and to guarantee bit
//! transitions for the line. The scrambler is *self-synchronising*: the
//! transmitter XORs each input bit with its own output from 43 bits ago;
//! the descrambler XORs each received bit with the *received* stream from
//! 43 bits ago. After any corruption or resynchronisation, the
//! descrambler recovers as soon as 43 clean bits have passed — no state
//! exchange required. The price of self-synchronisation is error
//! multiplication: one line bit error corrupts two descrambled bits
//! (the direct hit, and its echo 43 bits later).
//!
//! Bits are processed MSB-first within each octet, matching the ATM/SONET
//! transmission order.
//!
//! Both sides take a 32-bit word per step. Output bit `n` depends on bit
//! `n − 43` alone, and 32 < 43, so the taps of the next 32 bits are all
//! already in the register: its 32 oldest bits. A tail of fewer than four
//! octets is clocked bit by bit.

/// Length of the scrambler shift register, in bits.
pub const REGISTER_BITS: u32 = 43;

/// Bits per word-wide step: fewer than [`REGISTER_BITS`], so no tap is a
/// bit the same step shifts in.
const WORD_BITS: u32 = 32;
const _: () = assert!(WORD_BITS < REGISTER_BITS);

/// 43-bit shift register: bit 0 is the most recent bit, bit 42 the bit
/// from 43 clocks ago (the feedback tap).
#[derive(Clone, Copy, Debug, Default)]
struct Register(u64);

const REGISTER_MASK: u64 = (1 << REGISTER_BITS) - 1;

impl Register {
    /// The feedback tap: the bit shifted in [`REGISTER_BITS`] clocks ago.
    /// The single tap implementation — both scrambler and descrambler
    /// read through here or its word-wide twin [`Register::taps`], both
    /// derived from [`REGISTER_BITS`], so register width and tap position
    /// can never diverge between the two sides.
    #[inline]
    fn tap(&self) -> u8 {
        ((self.0 >> (REGISTER_BITS - 1)) & 1) as u8
    }

    /// The taps of the next [`WORD_BITS`] clocks, the first clock's in
    /// the most significant bit: the register's oldest bits, from the
    /// one [`Register::tap`] reads down.
    #[inline]
    fn taps(&self) -> u32 {
        (self.0 >> (REGISTER_BITS - WORD_BITS)) as u32
    }

    /// Shift in a new bit, returning the tap observed before the shift.
    #[inline]
    fn clock(&mut self, bit: u8) -> u8 {
        let tap = self.tap();
        self.0 = ((self.0 << 1) | bit as u64) & REGISTER_MASK;
        tap
    }

    /// Shift in [`WORD_BITS`] bits, the first in the most significant bit.
    #[inline]
    fn clock_word(&mut self, bits: u32) {
        self.0 = ((self.0 << WORD_BITS) | bits as u64) & REGISTER_MASK;
    }
}

/// The big-endian word in `octets`: transmission order, first bit the
/// most significant.
#[inline]
fn word(octets: &[u8]) -> u32 {
    u32::from_be_bytes([octets[0], octets[1], octets[2], octets[3]])
}

/// Transmit-side scrambler.
#[derive(Clone, Debug, Default)]
pub struct Scrambler {
    reg: Register,
}

impl Scrambler {
    /// New scrambler with an all-zero register.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scramble a buffer in place.
    pub fn scramble(&mut self, buf: &mut [u8]) {
        let mut words = buf.chunks_exact_mut(4);
        for octets in &mut words {
            let out = word(octets) ^ self.reg.taps();
            self.reg.clock_word(out);
            octets.copy_from_slice(&out.to_be_bytes());
        }
        for byte in words.into_remainder() {
            let mut out = 0u8;
            for bit_idx in (0..8).rev() {
                let in_bit = (*byte >> bit_idx) & 1;
                // Output = input ⊕ (own output 43 bits ago). The tap is
                // read *before* clocking the output bit in, via the same
                // `Register::tap` the descrambler's `clock` uses.
                let out_bit = in_bit ^ self.reg.tap();
                self.reg.clock(out_bit);
                out = (out << 1) | out_bit;
            }
            *byte = out;
        }
    }
}

/// Receive-side descrambler.
#[derive(Clone, Debug, Default)]
pub struct Descrambler {
    reg: Register,
}

impl Descrambler {
    /// New descrambler with an all-zero register.
    pub fn new() -> Self {
        Self::default()
    }

    /// Descramble a buffer in place.
    pub fn descramble(&mut self, buf: &mut [u8]) {
        let mut words = buf.chunks_exact_mut(4);
        for octets in &mut words {
            let received = word(octets);
            let out = received ^ self.reg.taps();
            self.reg.clock_word(received);
            octets.copy_from_slice(&out.to_be_bytes());
        }
        for byte in words.into_remainder() {
            let mut out = 0u8;
            for bit_idx in (0..8).rev() {
                let rx_bit = (*byte >> bit_idx) & 1;
                // Output = received ⊕ (received 43 bits ago): the register
                // holds the *received* stream.
                let tap = self.reg.clock(rx_bit);
                out = (out << 1) | (rx_bit ^ tap);
            }
            *byte = out;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_restores_data() {
        let original: Vec<u8> = (0..480).map(|i| (i * 37 % 251) as u8).collect();
        let mut buf = original.clone();
        let mut s = Scrambler::new();
        let mut d = Descrambler::new();
        s.scramble(&mut buf);
        assert_ne!(buf, original, "scrambling must change the data");
        d.descramble(&mut buf);
        assert_eq!(buf, original);
    }

    #[test]
    fn roundtrip_across_multiple_calls() {
        // Scrambler state must carry across cell boundaries.
        let cells: Vec<Vec<u8>> = (0..10)
            .map(|c| (0..48).map(|i| ((c * 48 + i) % 256) as u8).collect())
            .collect();
        let mut s = Scrambler::new();
        let mut d = Descrambler::new();
        for cell in &cells {
            let mut buf = cell.clone();
            s.scramble(&mut buf);
            d.descramble(&mut buf);
            assert_eq!(&buf, cell);
        }
    }

    #[test]
    fn all_zeros_becomes_nonzero_eventually() {
        // A long run of zeros must not stay all-zero once the register has
        // non-zero content (the point of scrambling). Prime the register
        // with some data first.
        let mut s = Scrambler::new();
        let mut primer = vec![0xFFu8; 8];
        s.scramble(&mut primer);
        let mut zeros = vec![0u8; 48];
        s.scramble(&mut zeros);
        assert!(zeros.iter().any(|&b| b != 0));
    }

    #[test]
    fn zero_register_passes_zeros_through() {
        // With an all-zero register and all-zero input, output is zero —
        // the scrambler is linear with no additive constant.
        let mut s = Scrambler::new();
        let mut buf = vec![0u8; 16];
        s.scramble(&mut buf);
        assert_eq!(buf, vec![0u8; 16]);
    }

    #[test]
    fn descrambler_self_synchronises() {
        // Start the descrambler with a garbage register; after 43 clean
        // bits (6 octets) it must track exactly.
        let data: Vec<u8> = (0..64).map(|i| (i * 11 % 256) as u8).collect();
        let mut s = Scrambler::new();
        let mut tx = data.clone();
        s.scramble(&mut tx);

        let mut d = Descrambler::new();
        d.reg.0 = 0x3FF_FFFF_FFFF; // garbage state
        let mut rx = tx.clone();
        d.descramble(&mut rx);
        // First ⌈43/8⌉ = 6 octets may be corrupt; everything after must match.
        assert_eq!(&rx[6..], &data[6..]);
        assert_ne!(
            &rx[..6],
            &data[..6],
            "garbage state should corrupt the prefix"
        );
    }

    #[test]
    fn single_bit_error_multiplies_to_two() {
        let data = vec![0u8; 32];
        let mut s = Scrambler::new();
        // Prime with nonzero so the stream isn't degenerate.
        let mut primer = vec![0xA5u8; 8];
        s.scramble(&mut primer);
        let mut tx = data.clone();
        s.scramble(&mut tx);

        // Matching descrambler state: feed it the primer too.
        let mut d = Descrambler::new();
        let mut p = primer.clone();
        d.descramble(&mut p);

        // Flip one bit in flight: bit 40 of the payload (octet 5, MSB).
        tx[5] ^= 0x80;
        let mut rx = tx.clone();
        d.descramble(&mut rx);
        let error_bits: u32 = rx
            .iter()
            .zip(&data)
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(
            error_bits, 2,
            "self-sync scrambler doubles isolated bit errors"
        );
    }
}
