//! Deterministic pseudo random number generators.
//!
//! Every source of randomness in the polycanary workspace flows through the
//! [`Prng`] trait so that experiments are reproducible from a single seed.
//! Two generators are provided:
//!
//! * [`SplitMix64`] — a tiny, fast generator mainly used for seeding and for
//!   modelling cheap randomness (e.g. the kernel picking the initial TLS
//!   canary at program load).
//! * [`Xoshiro256StarStar`] — a higher-quality generator used for workload
//!   generation and attacker strategies.
//!
//! Neither generator is cryptographically secure; the *security* of the
//! schemes under test never depends on the quality of these generators
//! because the adversary in the paper's model cannot read memory.  Where the
//! paper relies on hardware entropy (`rdrand`) the VM routes requests through
//! [`crate::hwrng::HardwareRng`], which wraps one of these generators while
//! accounting for the instruction's latency.

/// A deterministic, seedable source of 64-bit random values.
///
/// The trait is object-safe so schemes can hold a `Box<dyn Prng>`.
pub trait Prng: Send {
    /// Returns the next 64-bit value.
    fn next_u64(&mut self) -> u64;

    /// Returns the next value in `[0, bound)`.
    ///
    /// Uses rejection sampling to avoid modulo bias; `bound` must be
    /// non-zero.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Returns a random byte.
    fn next_byte(&mut self) -> u8 {
        (self.next_u64() & 0xff) as u8
    }

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }

    /// Returns `true` with probability `numerator / denominator`.
    ///
    /// # Panics
    ///
    /// Panics if `denominator` is zero.
    fn next_bool_ratio(&mut self, numerator: u64, denominator: u64) -> bool {
        assert!(denominator > 0, "denominator must be non-zero");
        self.next_below(denominator) < numerator
    }
}

/// The SplitMix64 generator (Steele, Lea & Flood 2014).
///
/// Mainly used for seeding other generators and for one-off random words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.  Any seed, including zero, is valid.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl Prng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The xoshiro256** generator (Blackman & Vigna 2018).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator by expanding `seed` through SplitMix64, following
    /// the authors' recommendation.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in s.iter_mut() {
            *slot = sm.next_u64();
        }
        // An all-zero state is the single invalid state; the SplitMix64
        // expansion of any seed cannot produce it, but guard regardless.
        if s.iter().all(|&x| x == 0) {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Xoshiro256StarStar { s }
    }

    /// Jump function equivalent to 2^128 calls of `next_u64`, useful for
    /// splitting one seed into independent per-process streams.
    ///
    /// The jump is GF(2)-linear in the 256-bit state, so it is the XOR of
    /// one `JUMP_TABLE` entry per state nibble: 64 lookups instead of the
    /// 256 dependent generator steps of the jump polynomial.
    pub fn jump(&mut self) {
        let mut acc = [0u64; 4];
        for (w, &word) in self.s.iter().enumerate() {
            for n in 0..16 {
                let image = &JUMP_TABLE[w * 16 + n][((word >> (4 * n)) & 0xF) as usize];
                for (a, i) in acc.iter_mut().zip(image) {
                    *a ^= i;
                }
            }
        }
        self.s = acc;
    }

    /// Creates an independent stream for a child process: the child keeps the
    /// current state while the parent jumps ahead by 2^128 steps, so repeated
    /// splits from the same parent all yield pairwise-distinct streams.
    pub fn split(&mut self) -> Self {
        let child = self.clone();
        self.jump();
        child
    }
}

/// The xoshiro256 jump polynomial (2^128 steps), from the authors'
/// reference code: bit `i` selects the state after `i` steps.
const JUMP: [u64; 4] =
    [0x180E_C6D3_3CFD_0ABA, 0xD5A6_1266_F0C9_392C, 0xA958_2618_E03F_C9AA, 0x39AB_DC45_29B1_661C];

/// One xoshiro256 state transition, the linear part of `next_u64`.
const fn step(mut s: [u64; 4]) -> [u64; 4] {
    let t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = s[3].rotate_left(45);
    s
}

/// The jump of `s`, by evaluating [`JUMP`] over 256 steps.
const fn jump_by_steps(mut s: [u64; 4]) -> [u64; 4] {
    let mut acc = [0u64; 4];
    let mut i = 0;
    while i < 256 {
        if (JUMP[i / 64] >> (i % 64)) & 1 != 0 {
            let mut w = 0;
            while w < 4 {
                acc[w] ^= s[w];
                w += 1;
            }
        }
        s = step(s);
        i += 1;
    }
    acc
}

/// `JUMP_TABLE[p][v]` is the jump of the state whose nibble `p` (bits
/// `4p..4p + 4` of `s[p / 16]`) holds `v` and whose other bits are zero:
/// 64 × 16 × 4 words (32 KiB), computed at compile time.
static JUMP_TABLE: [[[u64; 4]; 16]; 64] = jump_table();

const fn jump_table() -> [[[u64; 4]; 16]; 64] {
    let mut table = [[[0u64; 4]; 16]; 64];
    let mut bit = 0;
    while bit < 256 {
        let mut basis = [0u64; 4];
        basis[bit / 64] = 1 << (bit % 64);
        let image = jump_by_steps(basis);
        let (p, b) = (bit / 4, bit % 4);
        let mut v = 0;
        while v < 16 {
            if (v >> b) & 1 != 0 {
                let mut w = 0;
                while w < 4 {
                    table[p][v][w] ^= image[w];
                    w += 1;
                }
            }
            v += 1;
        }
        bit += 1;
    }
    table
}

impl Prng for Xoshiro256StarStar {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl Prng for Box<dyn Prng> {
    fn next_u64(&mut self) -> u64 {
        self.as_mut().next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Xoshiro256StarStar {
        /// The reference jump: the authors' 256-step evaluation of the jump
        /// polynomial over `next_u64`.
        fn jump_reference(&mut self) {
            let mut acc = [0u64; 4];
            for jump_word in JUMP {
                for bit in 0..64 {
                    if (jump_word & (1u64 << bit)) != 0 {
                        for (a, s) in acc.iter_mut().zip(self.s) {
                            *a ^= s;
                        }
                    }
                    let _ = self.next_u64();
                }
            }
            self.s = acc;
        }
    }

    fn jumped(s: [u64; 4]) -> ([u64; 4], [u64; 4]) {
        let (mut fast, mut reference) = (Xoshiro256StarStar { s }, Xoshiro256StarStar { s });
        fast.jump();
        reference.jump_reference();
        (fast.s, reference.s)
    }

    #[test]
    fn table_jump_matches_reference_on_every_basis_vector() {
        for bit in 0..256 {
            let mut s = [0u64; 4];
            s[bit / 64] = 1 << (bit % 64);
            let (fast, reference) = jumped(s);
            assert_eq!(fast, reference, "basis bit {bit}");
        }
    }

    #[test]
    fn table_jump_matches_reference_on_random_states() {
        let mut meta = SplitMix64::new(0x1A3B);
        for i in 0..10_000 {
            let s = [meta.next_u64(), meta.next_u64(), meta.next_u64(), meta.next_u64()];
            let (fast, reference) = jumped(s);
            assert_eq!(fast, reference, "state #{i} {s:#x?}");
        }
    }

    #[test]
    fn jump_output_is_pinned() {
        // The authors' 256-step jump gives this first draw for seed 1.
        let mut rng = Xoshiro256StarStar::new(1);
        rng.jump();
        assert_eq!(rng.next_u64(), 0x3328_02F8_1EAA_E9D0);
    }

    #[test]
    fn splitmix_reference_values() {
        // Reference output for seed 0 from the public-domain reference code.
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Xoshiro256StarStar::new(1234);
        let mut b = Xoshiro256StarStar::new(1234);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256StarStar::new(1);
        let mut b = Xoshiro256StarStar::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams for different seeds should be unrelated");
    }

    #[test]
    fn split_streams_are_independent() {
        let mut parent = Xoshiro256StarStar::new(77);
        let mut child = parent.split();
        let overlap = (0..128).filter(|_| parent.next_u64() == child.next_u64()).count();
        assert_eq!(overlap, 0);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SplitMix64::new(99);
        for bound in [1u64, 2, 3, 7, 255, 256, 1000, 1 << 33] {
            for _ in 0..200 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    #[should_panic(expected = "bound must be non-zero")]
    fn next_below_zero_panics() {
        let mut rng = SplitMix64::new(1);
        let _ = rng.next_below(0);
    }

    #[test]
    fn fill_bytes_fills_every_byte_eventually() {
        let mut rng = SplitMix64::new(5);
        let mut buf = [0u8; 37];
        rng.fill_bytes(&mut buf);
        // With 37 random bytes the chance of all being zero is negligible.
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn boxed_prng_is_usable() {
        let mut rng: Box<dyn Prng> = Box::new(SplitMix64::new(3));
        let a = rng.next_u64();
        let b = rng.next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn byte_distribution_roughly_uniform() {
        let mut rng = Xoshiro256StarStar::new(2024);
        let mut counts = [0u32; 256];
        let n = 256 * 200;
        for _ in 0..n {
            counts[rng.next_byte() as usize] += 1;
        }
        let expected = (n / 256) as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // 255 degrees of freedom; 99.9th percentile is ~330.
        assert!(chi2 < 360.0, "chi-square too large: {chi2}");
    }

    // Pseudo-random property checks (crates.io is unavailable, so these are
    // driven by SplitMix64 itself instead of proptest).

    #[test]
    fn next_below_always_in_range() {
        let mut meta = SplitMix64::new(0xFEED);
        for _ in 0..512 {
            let seed = meta.next_u64();
            let bound = meta.next_u64().max(1);
            let mut rng = SplitMix64::new(seed);
            assert!(rng.next_below(bound) < bound, "seed {seed} bound {bound}");
        }
    }

    #[test]
    fn ratio_bool_is_total() {
        let mut meta = SplitMix64::new(0xF00D);
        for _ in 0..512 {
            let seed = meta.next_u64();
            let num = meta.next_u64() % 100;
            let den = 1 + meta.next_u64() % 99;
            let mut rng = SplitMix64::new(seed);
            let _ = rng.next_bool_ratio(num.min(den), den);
        }
    }
}
