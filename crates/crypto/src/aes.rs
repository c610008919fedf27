//! Software AES-128 (FIPS-197) used to model the AES-NI instructions that the
//! P-SSP-OWF extension relies on.
//!
//! The paper's prologue (Code 8) treats the TLS canary stored in `r12:r13` as
//! an AES key and encrypts a 128-bit block containing the time stamp counter
//! value and the saved return address.  [`Aes128`] provides exactly that
//! primitive: a single-block, constant-size encryption keyed by two 64-bit
//! words.  Decryption is also provided for completeness and for tests that
//! verify the permutation property of the construction.
//!
//! # Implementation
//!
//! The key schedule is kept as the 44 big-endian 32-bit words `w[0..44]` of
//! FIPS-197 §5.2, so [`Aes128::new`] and [`Aes128::from_words`] expand a key
//! with one word XOR per step and one `SubWord` every fourth step.
//! Encryption runs the classic 32-bit T-table rounds: each of the nine full
//! rounds is sixteen lookups into four 256-entry tables that fold
//! `SubBytes`, `ShiftRows` and `MixColumns` together, and the last round
//! uses the S-box alone.  The tables are `const` values computed from the
//! S-box at compile time, so the crate stays free of `unsafe` and of
//! hand-typed table data.  Decryption is not on any hot path: it derives
//! byte round keys from the word schedule and runs the textbook byte-wise
//! inverse rounds.
//!
//! The textbook byte-wise key schedule and rounds survive as a test-only
//! reference implementation; the tests check both against the FIPS-197
//! vectors and check the fast cipher against the reference over a seeded
//! battery of random keys and blocks.

use crate::error::CryptoError;

/// Number of bytes in an AES block.
pub const BLOCK_BYTES: usize = 16;
/// Number of bytes in an AES-128 key.
pub const KEY_BYTES: usize = 16;
/// Number of AES-128 rounds.
const ROUNDS: usize = 10;

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// The inverse AES S-box.
const INV_SBOX: [u8; 256] = [
    0x52, 0x09, 0x6a, 0xd5, 0x30, 0x36, 0xa5, 0x38, 0xbf, 0x40, 0xa3, 0x9e, 0x81, 0xf3, 0xd7, 0xfb,
    0x7c, 0xe3, 0x39, 0x82, 0x9b, 0x2f, 0xff, 0x87, 0x34, 0x8e, 0x43, 0x44, 0xc4, 0xde, 0xe9, 0xcb,
    0x54, 0x7b, 0x94, 0x32, 0xa6, 0xc2, 0x23, 0x3d, 0xee, 0x4c, 0x95, 0x0b, 0x42, 0xfa, 0xc3, 0x4e,
    0x08, 0x2e, 0xa1, 0x66, 0x28, 0xd9, 0x24, 0xb2, 0x76, 0x5b, 0xa2, 0x49, 0x6d, 0x8b, 0xd1, 0x25,
    0x72, 0xf8, 0xf6, 0x64, 0x86, 0x68, 0x98, 0x16, 0xd4, 0xa4, 0x5c, 0xcc, 0x5d, 0x65, 0xb6, 0x92,
    0x6c, 0x70, 0x48, 0x50, 0xfd, 0xed, 0xb9, 0xda, 0x5e, 0x15, 0x46, 0x57, 0xa7, 0x8d, 0x9d, 0x84,
    0x90, 0xd8, 0xab, 0x00, 0x8c, 0xbc, 0xd3, 0x0a, 0xf7, 0xe4, 0x58, 0x05, 0xb8, 0xb3, 0x45, 0x06,
    0xd0, 0x2c, 0x1e, 0x8f, 0xca, 0x3f, 0x0f, 0x02, 0xc1, 0xaf, 0xbd, 0x03, 0x01, 0x13, 0x8a, 0x6b,
    0x3a, 0x91, 0x11, 0x41, 0x4f, 0x67, 0xdc, 0xea, 0x97, 0xf2, 0xcf, 0xce, 0xf0, 0xb4, 0xe6, 0x73,
    0x96, 0xac, 0x74, 0x22, 0xe7, 0xad, 0x35, 0x85, 0xe2, 0xf9, 0x37, 0xe8, 0x1c, 0x75, 0xdf, 0x6e,
    0x47, 0xf1, 0x1a, 0x71, 0x1d, 0x29, 0xc5, 0x89, 0x6f, 0xb7, 0x62, 0x0e, 0xaa, 0x18, 0xbe, 0x1b,
    0xfc, 0x56, 0x3e, 0x4b, 0xc6, 0xd2, 0x79, 0x20, 0x9a, 0xdb, 0xc0, 0xfe, 0x78, 0xcd, 0x5a, 0xf4,
    0x1f, 0xdd, 0xa8, 0x33, 0x88, 0x07, 0xc7, 0x31, 0xb1, 0x12, 0x10, 0x59, 0x27, 0x80, 0xec, 0x5f,
    0x60, 0x51, 0x7f, 0xa9, 0x19, 0xb5, 0x4a, 0x0d, 0x2d, 0xe5, 0x7a, 0x9f, 0x93, 0xc9, 0x9c, 0xef,
    0xa0, 0xe0, 0x3b, 0x4d, 0xae, 0x2a, 0xf5, 0xb0, 0xc8, 0xeb, 0xbb, 0x3c, 0x83, 0x53, 0x99, 0x61,
    0x17, 0x2b, 0x04, 0x7e, 0xba, 0x77, 0xd6, 0x26, 0xe1, 0x69, 0x14, 0x63, 0x55, 0x21, 0x0c, 0x7d,
];

/// Round constants for the AES-128 key schedule.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// Number of 32-bit words in the expanded key schedule.
const SCHEDULE_WORDS: usize = 4 * (ROUNDS + 1);

/// Multiplication by `x` in GF(2^8) with the AES reduction polynomial.
#[inline]
const fn xtime(b: u8) -> u8 {
    let r = b << 1;
    if b & 0x80 != 0 {
        r ^ 0x1b
    } else {
        r
    }
}

/// Multiplication of two elements of GF(2^8).
#[inline]
fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

/// Builds the T-table for row 0: entry `x` is the MixColumns column
/// `(2·S[x], S[x], S[x], 3·S[x])` packed big-endian.  The tables for rows
/// 1–3 are the same words rotated right by 8, 16 and 24 bits.
const fn t_table(rotation: u32) -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        let s2 = xtime(s);
        let s3 = s2 ^ s;
        let word = u32::from_be_bytes([s2, s, s, s3]);
        table[x] = word.rotate_right(rotation);
        x += 1;
    }
    table
}

const TE0: [u32; 256] = t_table(0);
const TE1: [u32; 256] = t_table(8);
const TE2: [u32; 256] = t_table(16);
const TE3: [u32; 256] = t_table(24);

/// `SubWord` of FIPS-197 §5.2: the S-box applied to each byte of `w`.
#[inline]
fn sub_word(w: u32) -> u32 {
    let [a, b, c, d] = w.to_be_bytes();
    u32::from_be_bytes([SBOX[a as usize], SBOX[b as usize], SBOX[c as usize], SBOX[d as usize]])
}

/// One full-round output column.  ShiftRows brings it row 0 of column `a`,
/// row 1 of `b`, row 2 of `c` and row 3 of `d`; each T-table lookup does
/// that byte's SubBytes and MixColumns share, and `rk` is the round key.
#[inline(always)]
fn t_column(a: u32, b: u32, c: u32, d: u32, rk: u32) -> u32 {
    TE0[(a >> 24) as usize]
        ^ TE1[((b >> 16) & 0xff) as usize]
        ^ TE2[((c >> 8) & 0xff) as usize]
        ^ TE3[(d & 0xff) as usize]
        ^ rk
}

/// The last-round counterpart of [`t_column`]: SubBytes and ShiftRows
/// without MixColumns.
#[inline(always)]
fn final_column(a: u32, b: u32, c: u32, d: u32, rk: u32) -> u32 {
    u32::from_be_bytes([
        SBOX[(a >> 24) as usize],
        SBOX[((b >> 16) & 0xff) as usize],
        SBOX[((c >> 8) & 0xff) as usize],
        SBOX[(d & 0xff) as usize],
    ]) ^ rk
}

/// An expanded AES-128 key ready for single-block encryption and decryption.
///
/// The construction mirrors the paper's use of AES-NI: the key is the 128-bit
/// TLS canary held in callee-saved registers, the plaintext is the 128-bit
/// concatenation of the time stamp counter value and the return address.
#[derive(Clone)]
pub struct Aes128 {
    /// The FIPS-197 word schedule `w[0..44]`; round `r` uses `w[4r..4r+4]`.
    round_keys: [u32; SCHEDULE_WORDS],
}

impl std::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The round keys are secret material (derived from the TLS canary);
        // never leak them through Debug output.
        f.debug_struct("Aes128").field("round_keys", &"<redacted>").finish()
    }
}

impl Aes128 {
    /// Expands `key` into the round-key schedule.
    pub fn new(key: [u8; KEY_BYTES]) -> Self {
        let word = |i: usize| u32::from_be_bytes([key[i], key[i + 1], key[i + 2], key[i + 3]]);
        Self::expand([word(0), word(4), word(8), word(12)])
    }

    /// Expands the first four schedule words (the key, big-endian per
    /// column) into the full schedule.
    fn expand(key: [u32; 4]) -> Self {
        let mut w = [0u32; SCHEDULE_WORDS];
        w[..4].copy_from_slice(&key);
        for (round, rcon) in RCON.iter().enumerate() {
            let i = 4 * (round + 1);
            let temp = sub_word(w[i - 1].rotate_left(8)) ^ (u32::from(*rcon) << 24);
            w[i] = w[i - 4] ^ temp;
            w[i + 1] = w[i - 3] ^ w[i];
            w[i + 2] = w[i - 2] ^ w[i + 1];
            w[i + 3] = w[i - 1] ^ w[i + 2];
        }
        Aes128 { round_keys: w }
    }

    /// Builds a cipher from a key provided as a byte slice.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKeyLength`] if `key` is not exactly 16
    /// bytes long.
    pub fn from_key_slice(key: &[u8]) -> Result<Self, CryptoError> {
        if key.len() != KEY_BYTES {
            return Err(CryptoError::InvalidKeyLength { expected: KEY_BYTES, actual: key.len() });
        }
        let mut k = [0u8; KEY_BYTES];
        k.copy_from_slice(key);
        Ok(Self::new(k))
    }

    /// Builds a cipher keyed by two 64-bit words, mirroring the paper's use of
    /// the `r12`/`r13` register pair as the AES key.
    ///
    /// The key bytes are `lo` then `hi`, each little-endian.
    pub fn from_words(lo: u64, hi: u64) -> Self {
        Self::expand(words_to_columns(lo, hi))
    }

    /// The ten rounds over a state held as four big-endian columns.
    #[inline]
    fn encrypt_columns(&self, state: [u32; 4]) -> [u32; 4] {
        let rk = &self.round_keys;
        let mut s0 = state[0] ^ rk[0];
        let mut s1 = state[1] ^ rk[1];
        let mut s2 = state[2] ^ rk[2];
        let mut s3 = state[3] ^ rk[3];
        for k in rk[4..4 * ROUNDS].chunks_exact(4) {
            let t0 = t_column(s0, s1, s2, s3, k[0]);
            let t1 = t_column(s1, s2, s3, s0, k[1]);
            let t2 = t_column(s2, s3, s0, s1, k[2]);
            let t3 = t_column(s3, s0, s1, s2, k[3]);
            (s0, s1, s2, s3) = (t0, t1, t2, t3);
        }
        let k = &rk[4 * ROUNDS..];
        [
            final_column(s0, s1, s2, s3, k[0]),
            final_column(s1, s2, s3, s0, k[1]),
            final_column(s2, s3, s0, s1, k[2]),
            final_column(s3, s0, s1, s2, k[3]),
        ]
    }

    /// The schedule as eleven 16-byte round keys, for the byte-wise
    /// decryption rounds.
    fn byte_round_keys(&self) -> [[u8; BLOCK_BYTES]; ROUNDS + 1] {
        let mut keys = [[0u8; BLOCK_BYTES]; ROUNDS + 1];
        for (rk, words) in keys.iter_mut().zip(self.round_keys.chunks_exact(4)) {
            for (bytes, word) in rk.chunks_exact_mut(4).zip(words) {
                bytes.copy_from_slice(&word.to_be_bytes());
            }
        }
        keys
    }

    /// Encrypts a single 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK_BYTES]) {
        let column = |c: usize| {
            u32::from_be_bytes([block[4 * c], block[4 * c + 1], block[4 * c + 2], block[4 * c + 3]])
        };
        let out = self.encrypt_columns([column(0), column(1), column(2), column(3)]);
        for (bytes, word) in block.chunks_exact_mut(4).zip(out) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
    }

    /// Decrypts a single 16-byte block in place.
    pub fn decrypt_block(&self, block: &mut [u8; BLOCK_BYTES]) {
        let round_keys = self.byte_round_keys();
        add_round_key(block, &round_keys[ROUNDS]);
        for round in (1..ROUNDS).rev() {
            inv_shift_rows(block);
            inv_sub_bytes(block);
            add_round_key(block, &round_keys[round]);
            inv_mix_columns(block);
        }
        inv_shift_rows(block);
        inv_sub_bytes(block);
        add_round_key(block, &round_keys[0]);
    }

    /// Encrypts the pair `(lo, hi)` interpreted as a little-endian 128-bit
    /// block and returns the ciphertext as a pair of 64-bit words.
    ///
    /// This is the exact operation performed by the P-SSP-OWF prologue where
    /// `lo` is the time stamp counter value and `hi` is the return address.
    pub fn encrypt_words(&self, lo: u64, hi: u64) -> (u64, u64) {
        columns_to_words(self.encrypt_columns(words_to_columns(lo, hi)))
    }

    /// Inverse of [`Aes128::encrypt_words`].
    pub fn decrypt_words(&self, lo: u64, hi: u64) -> (u64, u64) {
        let mut block = [0u8; BLOCK_BYTES];
        block[..8].copy_from_slice(&lo.to_le_bytes());
        block[8..].copy_from_slice(&hi.to_le_bytes());
        self.decrypt_block(&mut block);
        let mut out_lo = [0u8; 8];
        let mut out_hi = [0u8; 8];
        out_lo.copy_from_slice(&block[..8]);
        out_hi.copy_from_slice(&block[8..]);
        (u64::from_le_bytes(out_lo), u64::from_le_bytes(out_hi))
    }
}

/// The 16 bytes `lo.to_le_bytes() || hi.to_le_bytes()` as four big-endian
/// columns.
#[inline]
fn words_to_columns(lo: u64, hi: u64) -> [u32; 4] {
    [
        (lo as u32).swap_bytes(),
        ((lo >> 32) as u32).swap_bytes(),
        (hi as u32).swap_bytes(),
        ((hi >> 32) as u32).swap_bytes(),
    ]
}

/// Inverse of [`words_to_columns`].
#[inline]
fn columns_to_words(c: [u32; 4]) -> (u64, u64) {
    let lo = u64::from(c[0].swap_bytes()) | (u64::from(c[1].swap_bytes()) << 32);
    let hi = u64::from(c[2].swap_bytes()) | (u64::from(c[3].swap_bytes()) << 32);
    (lo, hi)
}

fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk.iter()) {
        *s ^= *k;
    }
}

fn inv_sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = INV_SBOX[*b as usize];
    }
}

/// The AES state is column-major: byte `state[4*c + r]` is row `r`, column `c`.
fn inv_shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * ((c + r) % 4) + r] = s[4 * c + r];
        }
    }
}

fn inv_mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
        state[4 * c] =
            gmul(col[0], 0x0e) ^ gmul(col[1], 0x0b) ^ gmul(col[2], 0x0d) ^ gmul(col[3], 0x09);
        state[4 * c + 1] =
            gmul(col[0], 0x09) ^ gmul(col[1], 0x0e) ^ gmul(col[2], 0x0b) ^ gmul(col[3], 0x0d);
        state[4 * c + 2] =
            gmul(col[0], 0x0d) ^ gmul(col[1], 0x09) ^ gmul(col[2], 0x0e) ^ gmul(col[3], 0x0b);
        state[4 * c + 3] =
            gmul(col[0], 0x0b) ^ gmul(col[1], 0x0d) ^ gmul(col[2], 0x09) ^ gmul(col[3], 0x0e);
    }
}

#[cfg(test)]
mod reference {
    //! The textbook byte-wise AES-128 of FIPS-197 §5.1–5.2: the differential
    //! oracle the fast word/T-table cipher is tested against.

    use super::{add_round_key, xtime, BLOCK_BYTES, KEY_BYTES, RCON, ROUNDS, SBOX};

    /// The byte-wise key schedule: `4 * (ROUNDS + 1)` words of four bytes,
    /// regrouped into eleven 16-byte round keys.
    pub fn expand_key(key: [u8; KEY_BYTES]) -> [[u8; 16]; ROUNDS + 1] {
        let mut w = [[0u8; 4]; 4 * (ROUNDS + 1)];
        for i in 0..4 {
            w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
        }
        for i in 4..4 * (ROUNDS + 1) {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for byte in temp.iter_mut() {
                    *byte = SBOX[*byte as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; ROUNDS + 1];
        for (round, rk) in round_keys.iter_mut().enumerate() {
            for col in 0..4 {
                rk[4 * col..4 * col + 4].copy_from_slice(&w[4 * round + col]);
            }
        }
        round_keys
    }

    /// Encrypts one block with the byte-wise rounds.
    pub fn encrypt_block(key: [u8; KEY_BYTES], block: &mut [u8; BLOCK_BYTES]) {
        let round_keys = expand_key(key);
        add_round_key(block, &round_keys[0]);
        for rk in &round_keys[1..ROUNDS] {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, rk);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &round_keys[ROUNDS]);
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    /// The AES state is column-major: byte `state[4*c + r]` is row `r`,
    /// column `c`.
    fn shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[4 * c + r] = s[4 * ((c + r) % 4) + r];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
            state[4 * c] = xtime(col[0]) ^ (xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3];
            state[4 * c + 1] = col[0] ^ xtime(col[1]) ^ (xtime(col[2]) ^ col[2]) ^ col[3];
            state[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ (xtime(col[3]) ^ col[3]);
            state[4 * c + 3] = (xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prng::{Prng, SplitMix64};

    /// FIPS-197 Appendix B: key, plaintext, ciphertext.
    const APPENDIX_B: ([u8; 16], [u8; 16], [u8; 16]) = (
        [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ],
        [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ],
        [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ],
    );

    /// FIPS-197 Appendix C.1 (AES-128): key, plaintext, ciphertext.
    const APPENDIX_C1: ([u8; 16], [u8; 16], [u8; 16]) = (
        [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ],
        [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ],
        [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ],
    );

    /// Splits a 16-byte block into the `(lo, hi)` little-endian word pair of
    /// [`Aes128::encrypt_words`].
    fn block_to_words(block: [u8; 16]) -> (u64, u64) {
        let (lo, hi) = block.split_at(8);
        (u64::from_le_bytes(lo.try_into().unwrap()), u64::from_le_bytes(hi.try_into().unwrap()))
    }

    /// Checks one known-answer vector through every encryption entry point:
    /// the fast `encrypt_block`, the fast `encrypt_words` (keyed both by
    /// bytes and by words) and the reference rounds.
    fn check_vector((key, plain, cipher): ([u8; 16], [u8; 16], [u8; 16])) {
        let mut block = plain;
        Aes128::new(key).encrypt_block(&mut block);
        assert_eq!(block, cipher, "fast encrypt_block");

        let (p_lo, p_hi) = block_to_words(plain);
        let (k_lo, k_hi) = block_to_words(key);
        let expected = block_to_words(cipher);
        assert_eq!(Aes128::new(key).encrypt_words(p_lo, p_hi), expected, "fast encrypt_words");
        assert_eq!(Aes128::from_words(k_lo, k_hi).encrypt_words(p_lo, p_hi), expected);

        let mut block = plain;
        reference::encrypt_block(key, &mut block);
        assert_eq!(block, cipher, "reference rounds");
    }

    #[test]
    fn fips197_appendix_b_vector() {
        check_vector(APPENDIX_B);
    }

    #[test]
    fn fips197_appendix_c1_vector() {
        check_vector(APPENDIX_C1);
    }

    /// FIPS-197 Appendix A.1 pins the last schedule word of the Appendix B
    /// key; both schedules must produce it.
    #[test]
    fn key_schedule_matches_appendix_a1() {
        let fast = Aes128::new(APPENDIX_B.0);
        assert_eq!(fast.round_keys[SCHEDULE_WORDS - 1], 0xb6630ca6);
        assert_eq!(fast.byte_round_keys(), reference::expand_key(APPENDIX_B.0));
    }

    #[test]
    fn fast_cipher_matches_reference_on_random_battery() {
        let mut rng = SplitMix64::new(0x0AE5_BA77_E4E5);
        for _ in 0..10_000 {
            let (k_lo, k_hi) = (rng.next_u64(), rng.next_u64());
            let (p_lo, p_hi) = (rng.next_u64(), rng.next_u64());
            let mut key = [0u8; 16];
            key[..8].copy_from_slice(&k_lo.to_le_bytes());
            key[8..].copy_from_slice(&k_hi.to_le_bytes());
            let mut block = [0u8; 16];
            block[..8].copy_from_slice(&p_lo.to_le_bytes());
            block[8..].copy_from_slice(&p_hi.to_le_bytes());

            let mut expected = block;
            reference::encrypt_block(key, &mut expected);

            let cipher = Aes128::from_words(k_lo, k_hi);
            let mut fast = block;
            cipher.encrypt_block(&mut fast);
            assert_eq!(fast, expected, "encrypt_block, key {key:02x?}");
            assert_eq!(cipher.encrypt_words(p_lo, p_hi), block_to_words(expected));
            assert_eq!(Aes128::new(key).round_keys, cipher.round_keys);
            assert_eq!(cipher.byte_round_keys(), reference::expand_key(key));

            cipher.decrypt_block(&mut fast);
            assert_eq!(fast, block, "decrypt_block inverts encrypt_block");
            let (c_lo, c_hi) = block_to_words(expected);
            assert_eq!(cipher.decrypt_words(c_lo, c_hi), (p_lo, p_hi));
        }
    }

    #[test]
    fn decrypt_inverts_encrypt() {
        let cipher = Aes128::from_words(0x0123_4567_89ab_cdef, 0xfedc_ba98_7654_3210);
        let mut block = *b"polycanary test!";
        let original = block;
        cipher.encrypt_block(&mut block);
        assert_ne!(block, original);
        cipher.decrypt_block(&mut block);
        assert_eq!(block, original);
    }

    #[test]
    fn word_interface_roundtrips() {
        let cipher = Aes128::from_words(42, 1337);
        let (c_lo, c_hi) = cipher.encrypt_words(0xdead_beef, 0xcafe_babe);
        let (p_lo, p_hi) = cipher.decrypt_words(c_lo, c_hi);
        assert_eq!((p_lo, p_hi), (0xdead_beef, 0xcafe_babe));
    }

    #[test]
    fn from_key_slice_validates_length() {
        assert!(Aes128::from_key_slice(&[0u8; 16]).is_ok());
        let err = Aes128::from_key_slice(&[0u8; 15]).unwrap_err();
        assert_eq!(err, CryptoError::InvalidKeyLength { expected: 16, actual: 15 });
    }

    #[test]
    fn different_keys_give_different_ciphertexts() {
        let a = Aes128::from_words(1, 2);
        let b = Aes128::from_words(1, 3);
        assert_ne!(a.encrypt_words(7, 7), b.encrypt_words(7, 7));
    }

    #[test]
    fn different_nonces_give_different_canaries() {
        // This is the property P-SSP-OWF relies on: a fresh TSC nonce yields a
        // fresh stack canary even for the same return address and key.
        let cipher = Aes128::from_words(99, 100);
        let ret = 0x0040_1000u64;
        let c1 = cipher.encrypt_words(1_000, ret);
        let c2 = cipher.encrypt_words(1_001, ret);
        assert_ne!(c1, c2);
    }

    #[test]
    fn debug_does_not_leak_round_keys() {
        let cipher = Aes128::from_words(0x1111, 0x2222);
        let dbg = format!("{cipher:?}");
        assert!(dbg.contains("redacted"));
        assert!(!dbg.contains("1111"));
    }

    #[test]
    fn gf_multiplication_matches_known_values() {
        assert_eq!(gmul(0x57, 0x83), 0xc1);
        assert_eq!(gmul(0x57, 0x13), 0xfe);
    }
}
