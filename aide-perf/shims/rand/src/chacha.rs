//! ChaCha12 block generator behind `StdRng`.

use crate::{RngCore, SeedableRng};

const ROUNDS: usize = 12;
/// Four 16-word blocks are produced per refill, as rand_chacha does.
const BUF_WORDS: usize = 64;

/// The standard generator of rand 0.9: ChaCha with 12 rounds, a 64-bit block
/// counter in words 12–13 and a zero stream id in words 14–15.
#[derive(Clone, Debug)]
pub struct StdRng {
    key: [u32; 8],
    counter: u64,
    buf: [u32; BUF_WORDS],
    index: usize,
}

#[inline(always)]
fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

impl StdRng {
    fn block(&self, counter: u64) -> [u32; 16] {
        let mut init = [0u32; 16];
        init[..4].copy_from_slice(&[0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574]);
        init[4..12].copy_from_slice(&self.key);
        init[12] = counter as u32;
        init[13] = (counter >> 32) as u32;
        let mut s = init;
        for _ in 0..ROUNDS / 2 {
            quarter_round(&mut s, 0, 4, 8, 12);
            quarter_round(&mut s, 1, 5, 9, 13);
            quarter_round(&mut s, 2, 6, 10, 14);
            quarter_round(&mut s, 3, 7, 11, 15);
            quarter_round(&mut s, 0, 5, 10, 15);
            quarter_round(&mut s, 1, 6, 11, 12);
            quarter_round(&mut s, 2, 7, 8, 13);
            quarter_round(&mut s, 3, 4, 9, 14);
        }
        for (word, start) in s.iter_mut().zip(init) {
            *word = word.wrapping_add(start);
        }
        s
    }

    /// Refills the buffer and positions the read index at `index`.
    fn generate_and_set(&mut self, index: usize) {
        for i in 0..BUF_WORDS / 16 {
            let block = self.block(self.counter.wrapping_add(i as u64));
            self.buf[i * 16..(i + 1) * 16].copy_from_slice(&block);
        }
        self.counter = self.counter.wrapping_add((BUF_WORDS / 16) as u64);
        self.index = index;
    }
}

impl SeedableRng for StdRng {
    type Seed = [u8; 32];

    fn from_seed(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (word, bytes) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *word = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        StdRng {
            key,
            counter: 0,
            buf: [0; BUF_WORDS],
            index: BUF_WORDS,
        }
    }
}

impl RngCore for StdRng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.index >= BUF_WORDS {
            self.generate_and_set(0);
        }
        let value = self.buf[self.index];
        self.index += 1;
        value
    }

    /// Two consecutive words, low first; a read that straddles a refill keeps
    /// the last word of the old buffer as the low half (rand_core `BlockRng`).
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let index = self.index;
        if index < BUF_WORDS - 1 {
            self.index += 2;
            (u64::from(self.buf[index + 1]) << 32) | u64::from(self.buf[index])
        } else if index >= BUF_WORDS {
            self.generate_and_set(2);
            (u64::from(self.buf[1]) << 32) | u64::from(self.buf[0])
        } else {
            let low = u64::from(self.buf[BUF_WORDS - 1]);
            self.generate_and_set(1);
            (u64::from(self.buf[0]) << 32) | low
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ChaCha12 key-stream words for the all-zero key, counter 0 and zero
    /// nonce, from the reduced-round ChaCha test vectors (TC1, 12 rounds):
    /// key stream `9bf49a6a 0755f953 811fce12 5f2683d5 ...`.
    #[test]
    fn zero_key_matches_the_published_chacha12_vector() {
        let mut rng = StdRng::from_seed([0u8; 32]);
        let bytes: Vec<u8> = (0..4).flat_map(|_| rng.next_u32().to_le_bytes()).collect();
        assert_eq!(
            bytes,
            [
                0x9b, 0xf4, 0x9a, 0x6a, 0x07, 0x55, 0xf9, 0x53, 0x81, 0x1f, 0xce, 0x12, 0x5f, 0x26,
                0x83, 0xd5
            ]
        );
    }

    #[test]
    fn u64_reads_pair_words_low_first_across_a_refill() {
        let mut words = StdRng::seed_from_u64(5);
        let w: Vec<u32> = (0..130).map(|_| words.next_u32()).collect();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..63 {
            rng.next_u32();
        }
        // Index 63: low half is the old buffer's last word.
        assert_eq!(rng.next_u64(), (u64::from(w[64]) << 32) | u64::from(w[63]));
        assert_eq!(rng.next_u64(), (u64::from(w[66]) << 32) | u64::from(w[65]));
    }
}
