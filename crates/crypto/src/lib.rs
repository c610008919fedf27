//! Cryptographic and entropy substrate for the polycanary P-SSP reproduction.
//!
//! The paper *To Detect Stack Buffer Overflow with Polymorphic Canaries*
//! (DSN 2018) relies on three hardware facilities that this crate models in
//! portable, dependency-free Rust:
//!
//! * **AES-NI** — used by the P-SSP-OWF extension to compute a keyed one-way
//!   function over the return address and a nonce.  We provide a complete
//!   software [`aes::Aes128`] implementation (FIPS-197) exposing the same
//!   single-block encryption primitive that `AES_ENCRYPT_128` provides in the
//!   paper's prologue (Code 8).
//! * **`rdrand`** — used by P-SSP-NT and P-SSP-LV to draw a fresh random
//!   canary in every function prologue.  [`hwrng::HardwareRng`] models the
//!   instruction including its latency in the cycle model.
//! * **`rdtsc`** — the Time Stamp Counter used as the nonce in P-SSP-OWF.
//!   [`tsc::TimeStampCounter`] provides a monotonically increasing counter
//!   driven by the simulated cycle clock.
//!
//! In addition the crate hosts the deterministic pseudo random number
//! generators ([`prng`]) that the rest of the workspace uses so every
//! experiment is reproducible from a seed.
//!
//! # Quick example
//!
//! ```
//! use polycanary_crypto::prng::{Prng, SplitMix64};
//! use polycanary_crypto::aes::Aes128;
//!
//! // Derive an AES key from a TLS canary exactly like P-SSP-OWF does.
//! let mut rng = SplitMix64::new(0xC0FFEE);
//! let canary_lo = rng.next_u64();
//! let canary_hi = rng.next_u64();
//! let cipher = Aes128::from_words(canary_lo, canary_hi);
//!
//! // Encrypt (return address || nonce) into a polymorphic stack canary.
//! let stack_canary = cipher.encrypt_words(0x0040_1000, 0xDEAD_BEEF);
//! assert_ne!(stack_canary, (0x0040_1000, 0xDEAD_BEEF));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod error;
pub mod hwrng;
pub mod prng;
pub mod tsc;

pub use aes::Aes128;
pub use error::CryptoError;
pub use hwrng::HardwareRng;
pub use prng::{Prng, SplitMix64, Xoshiro256StarStar};
pub use tsc::TimeStampCounter;

/// Cycle-cost constants used throughout the workspace cycle model.
///
/// The values are calibrated so that the *shape* of Table V of the paper is
/// reproduced on the simulated machine: a plain TLS copy costs a handful of
/// cycles, `rdrand` costs roughly 340 cycles and a single AES-128 block
/// encryption with AES-NI costs roughly 270 cycles (the paper measures the
/// full prologue+epilogue at 6 / 343 / 278 cycles respectively).
pub mod cost {
    /// Cycles consumed by one `rdrand` instruction (paper §VI-B: ~340).
    pub const RDRAND_CYCLES: u64 = 340;
    /// Cycles consumed by one `rdtsc` instruction.
    pub const RDTSC_CYCLES: u64 = 24;
    /// Cycles consumed by one AES-128 block encryption via AES-NI, the
    /// paper's modeled hardware cost (paper: ~272 for the whole OWF
    /// prologue+epilogue, so a single encryption is ~130).  It does not
    /// depend on how the host computes the block: the software
    /// [`Aes128`](crate::aes::Aes128) may get faster or slower without
    /// moving any simulated cycle count.
    pub const AES_BLOCK_CYCLES: u64 = 130;
    /// Cycles for a register-to-register or register-to-memory move.
    pub const MOV_CYCLES: u64 = 1;
    /// Cycles for an arithmetic/logic operation (`xor`, `sub`, `add`, `cmp`).
    pub const ALU_CYCLES: u64 = 1;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_reexports_compile() {
        let mut rng = SplitMix64::new(1);
        let _ = rng.next_u64();
        let cipher = Aes128::from_words(1, 2);
        let _ = cipher.encrypt_words(3, 4);
        let _ = CryptoError::NonceExhausted;
    }

    #[test]
    fn cost_model_orders_match_paper() {
        // Table V ordering: memcpy prologue << AES-NI prologue < rdrand prologue.
        const {
            assert!(cost::MOV_CYCLES < cost::AES_BLOCK_CYCLES);
            assert!(cost::AES_BLOCK_CYCLES < cost::RDRAND_CYCLES);
        }
    }
}
