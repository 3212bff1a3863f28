//! The frame-synchronous section scrambler, 1 + x⁶ + x⁷ (GR-253 §5.3).
//!
//! Unlike the self-synchronising cell-payload scrambler, this one is a
//! free-running PRBS of period 127, reset to all-ones at the first octet
//! following the last framing/J0 octet of each frame (i.e. everything
//! except the first row of section overhead is scrambled). Because it is
//! frame-synchronous, transmitter and receiver apply the *same* sequence
//! — scrambling and descrambling are the same operation.
//!
//! ## The keystream in closed form
//!
//! The register is reset at the same point of every frame, so the octet
//! at frame index `3N + i` always takes keystream octet `i`, whatever
//! the frame carries. The sequence repeats every 127 *bits*, and 127 is
//! coprime to 8, so the octet sequence repeats every 127 octets: octet
//! `i` equals octet `i mod 127`. One table holds eight periods (1,016
//! octets), built at compile time from [`FrameScrambler::next_octet`],
//! which stays the one definition of the sequence. Framing XORs that
//! table over a run starting at any keystream position, in slices of
//! seven whole periods: long enough for the XOR to run a vector at a
//! time.

/// Keystream octets per period: the register's bit period, 127, is
/// coprime to 8.
pub(crate) const PERIOD: usize = 127;

/// Eight periods of the keystream, from the reset state.
static KEYSTREAM: [u8; 8 * PERIOD] = {
    let mut table = [0u8; 8 * PERIOD];
    let mut scrambler = FrameScrambler::new();
    let mut i = 0;
    while i < table.len() {
        table[i] = scrambler.next_octet();
        i += 1;
    }
    table
};

/// Keystream octet `i`, counted from the first scrambled octet of a
/// frame (frame index `3N`).
#[inline]
pub(crate) fn keystream_octet(i: usize) -> u8 {
    KEYSTREAM[i % PERIOD]
}

/// XOR the keystream into `buf`, whose first octet takes keystream
/// octet `at` (counted from frame index `3N`). Scrambling and
/// descrambling are this same call.
pub(crate) fn scramble_at(at: usize, buf: &mut [u8]) {
    // A run of whole periods leaves the keystream position unchanged,
    // so every slice XORs against the same stretch of the table.
    let phase = at % PERIOD;
    let key = &KEYSTREAM[phase..phase + 7 * PERIOD];
    for run in buf.chunks_mut(key.len()) {
        for (b, k) in run.iter_mut().zip(key) {
            *b ^= k;
        }
    }
}

/// Frame-synchronous scrambler/descrambler.
#[derive(Clone, Debug)]
pub struct FrameScrambler {
    state: u8, // 7-bit LFSR state
}

impl Default for FrameScrambler {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameScrambler {
    /// A scrambler ready for the start of a frame's scrambled region
    /// (state = all ones).
    pub const fn new() -> Self {
        FrameScrambler { state: 0x7F }
    }

    /// Next octet of the scrambling sequence.
    #[inline]
    pub const fn next_octet(&mut self) -> u8 {
        let mut out = 0u8;
        let mut bit_clock = 0;
        while bit_clock < 8 {
            // Output bit is the MSB of the state; feedback x⁷+x⁶+1:
            // new bit = bit6 ⊕ bit5 (0-indexed from LSB of 7-bit state).
            let bit = (self.state >> 6) & 1;
            out = (out << 1) | bit;
            let fb = ((self.state >> 6) ^ (self.state >> 5)) & 1;
            self.state = ((self.state << 1) | fb) & 0x7F;
            bit_clock += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn involution() {
        let original: Vec<u8> = (0..300).map(|i| (i * 89 % 256) as u8).collect();
        let scramble = |buf: &mut [u8]| {
            let mut s = FrameScrambler::new();
            buf.iter_mut().for_each(|b| *b ^= s.next_octet());
        };
        let mut buf = original.clone();
        scramble(&mut buf);
        assert_ne!(buf, original);
        scramble(&mut buf);
        assert_eq!(buf, original);
    }

    #[test]
    fn sequence_period_127() {
        let mut s = FrameScrambler::new();
        // Collect 127 bits ×2 and verify periodicity at the bit level:
        // octet sequence repeats every 127 octets only if 127 | positions;
        // easier: state returns to 0x7F after 127 bit-clocks.
        let mut bits = Vec::new();
        for _ in 0..254 {
            let bit = (s.state >> 6) & 1;
            bits.push(bit);
            let fb = ((s.state >> 6) ^ (s.state >> 5)) & 1;
            s.state = ((s.state << 1) | fb) & 0x7F;
        }
        assert_eq!(&bits[..127], &bits[127..254]);
        // Maximal length: all 127 nonzero states visited → a run of 7 ones
        // appears exactly once per period.
        let ones: u32 = bits[..127].iter().map(|&b| b as u32).sum();
        assert_eq!(ones, 64); // m-sequence property: 2^(n-1) ones
    }

    #[test]
    fn first_octet_known_value() {
        // State all-ones: first 8 output bits are 1111111 then the 8th
        // from feedback; the canonical first scrambler octet is 0xFE.
        let mut s = FrameScrambler::new();
        assert_eq!(s.next_octet(), 0xFE);
    }
}
