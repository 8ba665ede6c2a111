//! The hasher of the maps the request path probes per DFG node or per
//! flush: the inline-bucket index and the lane-slot map of [`crate::Dfg`],
//! and the shards of [`crate::PlanCache`].
//!
//! `std`'s default `SipHash` is built to resist hash flooding by crafted
//! keys.  These maps do not need that: their keys are kernel ids, phases,
//! depths, operand signatures and lane or window hashes the runtime
//! derives itself, and every probe compares the key in full, so the worst
//! a bad key set can do is lengthen probe sequences — never merge two
//! buckets or split one.  [`FoldHasher`] costs one multiply per `u64` word
//! of the key instead of SipHash's rounds.
//!
//! Each word is folded into the state by a *multiply-fold*: the 128-bit
//! product of `state ^ word` and an odd constant, its high and low halves
//! xored.  The high half depends on every bit of the word, so every key
//! bit reaches the low bits `hashbrown` indexes its table by.  One more
//! fold of the state, by a second constant, finishes: without it some bits
//! of the last word move the top bits `hashbrown` tags control bytes with
//! only about two times in three.

use std::hash::{BuildHasherDefault, Hasher};

/// State of a fresh hasher (π digits).
const SEED: u64 = 0x243F_6A88_85A3_08D3;
/// The odd multiplier of every word's fold (2⁶⁴ / φ).
const MUL: u64 = 0x9E37_79B9_7F4A_7C15;
/// The odd multiplier of the final fold (splitmix64's first).
const FINISH: u64 = 0xBF58_476D_1CE4_E5B9;

/// The 128-bit product of `x` and `k`, its halves xored: every bit of the
/// result depends on every bit of `x`.
#[inline(always)]
fn fold(x: u64, k: u64) -> u64 {
    let product = x as u128 * k as u128;
    product as u64 ^ (product >> 64) as u64
}

/// The multiply-fold hasher; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct FoldHasher {
    state: u64,
}

/// Builds [`FoldHasher`]s: the third type parameter of every map the
/// request path probes per node or per flush (`scripts/check.sh` holds
/// `dfg.rs` and `plan_cache.rs` to it).
pub type FoldBuildHasher = BuildHasherDefault<FoldHasher>;

impl Default for FoldHasher {
    fn default() -> FoldHasher {
        FoldHasher { state: SEED }
    }
}

impl Hasher for FoldHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.state = fold(self.state ^ word, MUL);
    }

    #[inline]
    fn write_u128(&mut self, word: u128) {
        self.write_u64(word as u64);
        self.write_u64((word >> 64) as u64);
    }

    /// Everything else — narrower integers, byte strings — folds eight
    /// bytes at a time, the last word zero-padded; `Hash` impls of
    /// variable-length types already write a length or terminator.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        fold(self.state, FINISH)
    }
}

#[cfg(test)]
mod tests {
    use std::hash::BuildHasher;

    use super::*;

    /// The spread check: 4 096 consecutive depths × 8 kernels — the keys a
    /// deep tree's inline buckets take — fill the 4 096 slots the low 12
    /// bits select (mean 8) with none above 3× the mean.  A finisher that
    /// left the high key bits (the depth) out of the index bits would pile
    /// them into 8 slots of 4 096 keys each.
    #[test]
    fn consecutive_depths_spread_over_the_low_bits() {
        let build = FoldBuildHasher::default();
        let mut slots = vec![0u32; 4096];
        for depth in 0..4096u64 {
            for kernel in 0..8u32 {
                let key = (crate::dfg::inline_key(0, depth, kernel), 0u64);
                slots[build.hash_one(key) as usize & 4095] += 1;
            }
        }
        let fullest = *slots.iter().max().unwrap();
        assert!(fullest <= 24, "a low-bit slot holds {fullest} of 32 768 keys (mean 8)");
        let empty = slots.iter().filter(|&&n| n == 0).count();
        assert!(empty < 40, "{empty} of 4 096 low-bit slots empty (≈ 1 expected)");
    }

    /// Every bit of a key word — a single-word key of the lane map or the
    /// plan cache, either half of the packed inline key — moves the low 12
    /// bits and the top 7: flipping it on 64 pseudo-random keys changes
    /// them on all but a chance few (1/4 096 and 1/128 per key).
    #[test]
    fn every_key_bit_reaches_the_index_and_tag_bits() {
        let build = FoldBuildHasher::default();
        let keys: Vec<u128> = (1..=64u64)
            .map(|i| (i.wrapping_mul(MUL) as u128) << 64 | i.wrapping_mul(SEED) as u128)
            .collect();
        for bit in 0..128 {
            let (mut low, mut tag) = (0, 0);
            for &key in &keys {
                let (h0, h1) = (build.hash_one(key), build.hash_one(key ^ 1 << bit));
                low += usize::from(h0 & 0xFFF != h1 & 0xFFF);
                tag += usize::from(h0 >> 57 != h1 >> 57);
            }
            assert!(low >= 62 && tag >= 56, "bit {bit}: low bits moved {low}/64, tag {tag}/64");
        }
    }
}
