//! Offline stand-in for `rand_chacha`: a real ChaCha8 keystream behind
//! the workspace's [`rand`] stand-in traits.
//!
//! The block function is the genuine ChaCha quarter-round construction
//! (8 rounds), so the stream has the statistical quality the simulator's
//! distribution tests expect. The `seed_from_u64` key expansion is a
//! SplitMix64 fill rather than upstream's PCG-based one — value-for-value
//! compatibility with the registry crate is not a goal, deterministic
//! self-consistency is.
//!
//! Each refill computes eight consecutive blocks, side by side in AVX2
//! lanes where the CPU has them and one at a time elsewhere; the stream
//! is the same either way. Trace generation draws one value per request,
//! so the block function is a large share of its cost.

use rand::{RngCore, SeedableRng};

/// Blocks computed per refill, one per AVX2 lane.
const LANES: usize = 8;

/// Words of output one refill buffers.
const WORDS: usize = 16 * LANES;

/// ChaCha with 8 rounds, 64-bit block counter, zero nonce.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    /// Key + constants + counter state fed to the block function; the
    /// counter names the first block of the next refill.
    state: [u32; 16],
    /// The next `LANES` output blocks, in stream order.
    block: [u32; WORDS],
    /// Next unread word index in `block`; `WORDS` means exhausted.
    word: usize,
}

#[inline(always)]
fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

/// Blocks `counter..counter + LANES` of the keystream into `out`, in
/// order: with AVX2 where the CPU has it, else one block at a time.
fn blocks(state: &[u32; 16], counter: u64, out: &mut [u32; WORDS]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU supports AVX2, checked just above.
        return unsafe { blocks_avx2(state, counter, out) };
    }
    blocks_scalar(state, counter, out)
}

fn blocks_scalar(state: &[u32; 16], counter: u64, out: &mut [u32; WORDS]) {
    for (l, block) in out.chunks_exact_mut(16).enumerate() {
        let mut input = *state;
        let c = counter.wrapping_add(l as u64);
        input[12] = c as u32;
        input[13] = (c >> 32) as u32;
        let mut x = input;
        for _ in 0..4 {
            // 8 rounds = 4 double-rounds (column + diagonal).
            quarter(&mut x, 0, 4, 8, 12);
            quarter(&mut x, 1, 5, 9, 13);
            quarter(&mut x, 2, 6, 10, 14);
            quarter(&mut x, 3, 7, 11, 15);
            quarter(&mut x, 0, 5, 10, 15);
            quarter(&mut x, 1, 6, 11, 12);
            quarter(&mut x, 2, 7, 8, 13);
            quarter(&mut x, 3, 4, 9, 14);
        }
        for i in 0..16 {
            block[i] = x[i].wrapping_add(input[i]);
        }
    }
}

/// [`blocks_scalar`] with the eight blocks computed side by side in
/// AVX2 lanes: vector `w` holds word `w` of every block.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn blocks_avx2(state: &[u32; 16], counter: u64, out: &mut [u32; WORDS]) {
    use std::arch::x86_64::*;
    macro_rules! rotl {
        ($v:expr, $n:literal) => {
            _mm256_or_si256(
                _mm256_slli_epi32::<$n>($v),
                _mm256_srli_epi32::<{ 32 - $n }>($v),
            )
        };
    }
    macro_rules! quarter {
        ($x:ident, $a:literal, $b:literal, $c:literal, $d:literal) => {
            $x[$a] = _mm256_add_epi32($x[$a], $x[$b]);
            $x[$d] = rotl!(_mm256_xor_si256($x[$d], $x[$a]), 16);
            $x[$c] = _mm256_add_epi32($x[$c], $x[$d]);
            $x[$b] = rotl!(_mm256_xor_si256($x[$b], $x[$c]), 12);
            $x[$a] = _mm256_add_epi32($x[$a], $x[$b]);
            $x[$d] = rotl!(_mm256_xor_si256($x[$d], $x[$a]), 8);
            $x[$c] = _mm256_add_epi32($x[$c], $x[$d]);
            $x[$b] = rotl!(_mm256_xor_si256($x[$b], $x[$c]), 7);
        };
    }
    let c: [u64; LANES] = std::array::from_fn(|l| counter.wrapping_add(l as u64));
    let lanes = |f: &dyn Fn(u64) -> u32| {
        let w: [i32; LANES] = std::array::from_fn(|l| f(c[l]) as i32);
        _mm256_setr_epi32(w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7])
    };
    let input: [__m256i; 16] = std::array::from_fn(|w| match w {
        12 => lanes(&|c| c as u32),
        13 => lanes(&|c| (c >> 32) as u32),
        _ => _mm256_set1_epi32(state[w] as i32),
    });
    let mut x = input;
    for _ in 0..4 {
        quarter!(x, 0, 4, 8, 12);
        quarter!(x, 1, 5, 9, 13);
        quarter!(x, 2, 6, 10, 14);
        quarter!(x, 3, 7, 11, 15);
        quarter!(x, 0, 5, 10, 15);
        quarter!(x, 1, 6, 11, 12);
        quarter!(x, 2, 7, 8, 13);
        quarter!(x, 3, 4, 9, 14);
    }
    // Transpose words 8g..8g + 8 of the eight blocks from one vector
    // per word to one vector per block.
    for g in 0..2 {
        let a: [__m256i; 8] =
            std::array::from_fn(|j| _mm256_add_epi32(x[8 * g + j], input[8 * g + j]));
        let t: [__m256i; 8] = std::array::from_fn(|j| {
            let (p, q) = (a[j & !1], a[j | 1]);
            if j % 2 == 0 {
                _mm256_unpacklo_epi32(p, q)
            } else {
                _mm256_unpackhi_epi32(p, q)
            }
        });
        // `u[k]` holds words 8g..8g + 4 of blocks k and k + 4; `u[k + 4]`
        // words 8g + 4..8g + 8 of the same blocks.
        let u: [__m256i; 8] = std::array::from_fn(|k| {
            let (p, q) = (t[(k & 4) + (k & 2) / 2], t[(k & 4) + (k & 2) / 2 + 2]);
            if k % 2 == 0 {
                _mm256_unpacklo_epi64(p, q)
            } else {
                _mm256_unpackhi_epi64(p, q)
            }
        });
        for k in 0..4 {
            let low = _mm256_permute2x128_si256::<0x20>(u[k], u[k + 4]);
            let high = _mm256_permute2x128_si256::<0x31>(u[k], u[k + 4]);
            for (l, v) in [(k, low), (k + 4, high)] {
                // SAFETY: `__m256i` and `[u32; 8]` are both 32 plain bytes.
                let words: [u32; 8] = unsafe { std::mem::transmute(v) };
                out[16 * l + 8 * g..][..8].copy_from_slice(&words);
            }
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        let counter = self.state[12] as u64 | ((self.state[13] as u64) << 32);
        blocks(&self.state, counter, &mut self.block);
        // Advance the 64-bit counter in words 12..14.
        let counter = counter.wrapping_add(LANES as u64);
        self.state[12] = counter as u32;
        self.state[13] = (counter >> 32) as u32;
        self.word = 0;
    }
}

impl SeedableRng for ChaCha8Rng {
    fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut state = [0u32; 16];
        // "expand 32-byte k" constants.
        state[0] = 0x6170_7865;
        state[1] = 0x3320_646e;
        state[2] = 0x7962_2d32;
        state[3] = 0x6b20_6574;
        for i in 0..4 {
            let k = splitmix64(&mut sm);
            state[4 + 2 * i] = k as u32;
            state[5 + 2 * i] = (k >> 32) as u32;
        }
        // Counter (12, 13) and nonce (14, 15) start at zero.
        ChaCha8Rng {
            state,
            block: [0; WORDS],
            word: WORDS,
        }
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.word >= WORDS {
            self.refill();
        }
        let w = self.block[self.word];
        self.word += 1;
        w
    }

    fn next_u64(&mut self) -> u64 {
        if let Some(&[lo, hi]) = self.block.get(self.word..self.word + 2) {
            self.word += 2;
            return lo as u64 | (hi as u64) << 32;
        }
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        lo | (hi << 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(123);
        let mut b = ChaCha8Rng::seed_from_u64(123);
        for _ in 0..200 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = ChaCha8Rng::seed_from_u64(124);
        let same = (0..64).filter(|_| b.next_u64() == c.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn output_looks_balanced() {
        // Crude sanity: bit population over many words near 50%.
        let mut r = ChaCha8Rng::seed_from_u64(7);
        let ones: u32 = (0..1024).map(|_| r.next_u64().count_ones()).sum();
        let frac = ones as f64 / (1024.0 * 64.0);
        assert!((0.48..0.52).contains(&frac), "bit fraction {frac}");
    }

    #[test]
    fn simd_blocks_match_the_block_function() {
        let rng = ChaCha8Rng::seed_from_u64(99);
        // The last two counters carry into word 13 inside one refill.
        for counter in [0, 1, 0xffff_fffc, u64::MAX - 3] {
            let (mut fast, mut slow) = ([0; WORDS], [0; WORDS]);
            blocks(&rng.state, counter, &mut fast);
            blocks_scalar(&rng.state, counter, &mut slow);
            assert_eq!(fast, slow, "counter {counter:#x}");
        }
    }

    #[test]
    fn word_and_pair_reads_share_one_stream() {
        // `next_u64` reads two words at once where it can; an odd word
        // position makes it straddle a refill.
        let mut words = ChaCha8Rng::seed_from_u64(8);
        let mut mixed = words.clone();
        let stream: Vec<u32> = (0..3 * WORDS).map(|_| words.next_u32()).collect();
        let mut got = vec![mixed.next_u32()];
        while got.len() + 2 <= stream.len() {
            let v = mixed.next_u64();
            got.extend([v as u32, (v >> 32) as u32]);
        }
        assert_eq!(got, stream[..got.len()]);
    }

    #[test]
    fn clone_preserves_position() {
        let mut a = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..7 {
            a.next_u32();
        }
        let mut b = a.clone();
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
