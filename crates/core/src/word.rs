//! Status words: the bit-per-instance packing of the bitwise status array.
//!
//! §6 of the paper packs the status of one vertex for all concurrent BFS
//! instances into a single variable, and notes that CUDA vector types
//! (`int4`, `long4`, ...) widen it further: "the number of bits in each
//! variable affects the number of concurrent BFS, e.g., if BSA is
//! implemented with `int` type, one variable can represent the statuses for
//! 32 BFS instances". [`StatusWord`] abstracts that choice: `u32` ≈ `int`,
//! `u64` ≈ `long`, `u128` ≈ `int4`, [`W256`] ≈ `long4`.

/// A fixed-width bit vector holding one status bit per BFS instance.
pub trait StatusWord: Copy + Eq + std::fmt::Debug + Send + Sync + 'static {
    /// Number of instances the word can hold.
    const BITS: u32;

    /// 64-bit lanes the word spans: [`StatusWord::lane`] takes `0..LANES`.
    const LANES: usize = (Self::BITS as usize).div_ceil(64);

    /// Bits `64k..64k + 64` of the word as a `u64`; a word narrower than
    /// 64 bits reads zero above its top bit.
    fn lane(self, k: usize) -> u64;

    /// The all-zeros word (no instance has visited the vertex).
    fn zero() -> Self;

    /// The word with exactly bit `i` set.
    fn bit(i: u32) -> Self;

    /// The word with the low `n` bits set — "all visited" for a group of
    /// `n` instances. `n == 0` gives zero.
    fn low_mask(n: u32) -> Self;

    /// Bitwise OR.
    fn or(self, other: Self) -> Self;

    /// Bitwise AND.
    fn and(self, other: Self) -> Self;

    /// Bitwise XOR — the paper's top-down frontier identification
    /// (`BSA_{k+1}[v] XOR BSA_k[v]`).
    fn xor(self, other: Self) -> Self;

    /// Bitwise NOT.
    fn not(self) -> Self;

    /// Whether bit `i` is set.
    fn has_bit(self, i: u32) -> bool {
        self.and(Self::bit(i)) != Self::zero()
    }

    /// Whether the word is all zeros.
    fn is_zero(self) -> bool {
        self == Self::zero()
    }

    /// Number of set bits.
    fn count_ones(self) -> u32;

    /// Index of the lowest set bit, or `BITS` when zero.
    fn trailing_zeros(self) -> u32;

    /// Indices of the set bits, ascending.
    fn iter_ones(self) -> OnesIter<Self> {
        OnesIter { word: self }
    }

    /// Bytes occupied in the (simulated) device memory.
    fn bytes() -> u32 {
        Self::BITS / 8
    }
}

/// Iterator over set-bit indices of a [`StatusWord`], skipping zero runs
/// with [`StatusWord::trailing_zeros`] so cost is O(popcount), not O(BITS).
pub struct OnesIter<W: StatusWord> {
    word: W,
}

impl<W: StatusWord> Iterator for OnesIter<W> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.word.is_zero() {
            return None;
        }
        let i = self.word.trailing_zeros();
        self.word = self.word.and(W::bit(i).not());
        Some(i)
    }
}

macro_rules! impl_word_for_uint {
    ($t:ty, $bits:expr) => {
        impl StatusWord for $t {
            const BITS: u32 = $bits;

            #[inline]
            fn lane(self, k: usize) -> u64 {
                debug_assert!(k < Self::LANES);
                (self as u128 >> (64 * k)) as u64
            }

            #[inline]
            fn zero() -> Self {
                0
            }

            #[inline]
            fn bit(i: u32) -> Self {
                debug_assert!(i < Self::BITS);
                1 << i
            }

            #[inline]
            fn low_mask(n: u32) -> Self {
                debug_assert!(n <= Self::BITS);
                if n == 0 {
                    0
                } else if n == Self::BITS {
                    <$t>::MAX
                } else {
                    (1 << n) - 1
                }
            }

            #[inline]
            fn or(self, other: Self) -> Self {
                self | other
            }

            #[inline]
            fn and(self, other: Self) -> Self {
                self & other
            }

            #[inline]
            fn xor(self, other: Self) -> Self {
                self ^ other
            }

            #[inline]
            fn not(self) -> Self {
                !self
            }

            #[inline]
            fn count_ones(self) -> u32 {
                <$t>::count_ones(self)
            }

            #[inline]
            fn trailing_zeros(self) -> u32 {
                <$t>::trailing_zeros(self)
            }
        }
    };
}

impl_word_for_uint!(u32, 32);
impl_word_for_uint!(u64, 64);
impl_word_for_uint!(u128, 128);

/// A 256-bit status word — the `long4` vector type of the paper, packing
/// four 64-bit lanes fetched in one vectorized access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct W256(pub [u64; 4]);

impl StatusWord for W256 {
    const BITS: u32 = 256;

    #[inline]
    fn lane(self, k: usize) -> u64 {
        self.0[k]
    }

    #[inline]
    fn zero() -> Self {
        W256([0; 4])
    }

    #[inline]
    fn bit(i: u32) -> Self {
        debug_assert!(i < 256);
        let mut w = [0u64; 4];
        w[(i / 64) as usize] = 1u64 << (i % 64);
        W256(w)
    }

    #[inline]
    fn low_mask(n: u32) -> Self {
        debug_assert!(n <= 256);
        let mut w = [0u64; 4];
        for (lane, slot) in w.iter_mut().enumerate() {
            let lo = lane as u32 * 64;
            if n > lo {
                let bits = (n - lo).min(64);
                *slot = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
            }
        }
        W256(w)
    }

    #[inline]
    fn or(self, o: Self) -> Self {
        W256([
            self.0[0] | o.0[0],
            self.0[1] | o.0[1],
            self.0[2] | o.0[2],
            self.0[3] | o.0[3],
        ])
    }

    #[inline]
    fn and(self, o: Self) -> Self {
        W256([
            self.0[0] & o.0[0],
            self.0[1] & o.0[1],
            self.0[2] & o.0[2],
            self.0[3] & o.0[3],
        ])
    }

    #[inline]
    fn xor(self, o: Self) -> Self {
        W256([
            self.0[0] ^ o.0[0],
            self.0[1] ^ o.0[1],
            self.0[2] ^ o.0[2],
            self.0[3] ^ o.0[3],
        ])
    }

    #[inline]
    fn not(self) -> Self {
        W256([!self.0[0], !self.0[1], !self.0[2], !self.0[3]])
    }

    #[inline]
    fn count_ones(self) -> u32 {
        self.0.iter().map(|x| x.count_ones()).sum()
    }

    #[inline]
    fn trailing_zeros(self) -> u32 {
        for (lane, &x) in self.0.iter().enumerate() {
            if x != 0 {
                return lane as u32 * 64 + x.trailing_zeros();
            }
        }
        256
    }
}

/// Transposes a 64×64 bit matrix in place, row `i` being `a[i]` and column
/// `j` its bit `1 << j`: afterwards bit `j` of `a[i]` is the old bit `i` of
/// `a[j]`. Six rounds of shift-and-mask (Hacker's Delight §7-3): round `w`
/// swaps the off-diagonal `w×w` blocks of every `2w×2w` diagonal block.
pub(crate) fn transpose64(a: &mut [u64; 64]) {
    // Per round, the columns whose bit `w` is clear.
    const MASKS: [u64; 6] = [
        0x0000_0000_FFFF_FFFF,
        0x0000_FFFF_0000_FFFF,
        0x00FF_00FF_00FF_00FF,
        0x0F0F_0F0F_0F0F_0F0F,
        0x3333_3333_3333_3333,
        0x5555_5555_5555_5555,
    ];
    for (round, m) in MASKS.into_iter().enumerate() {
        let w = 32 >> round;
        for block in a.chunks_exact_mut(2 * w) {
            let (top, bottom) = block.split_at_mut(w);
            for (x, y) in top.iter_mut().zip(bottom) {
                // Bit `c` of `t` flags that cell (row x, column c | w)
                // differs from cell (row y, column c); XOR swaps both.
                let t = ((*x >> w) ^ *y) & m;
                *y ^= t;
                *x ^= t << w;
            }
        }
    }
}

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// A [`StatusWord`] width selectable at run time (CLI `--width`, bench
/// configs). Each variant names the register type §6 maps it to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WordWidth {
    /// 32-bit word (`int`).
    W32,
    /// 64-bit word (`long`) — the MS-BFS register width and the default.
    #[default]
    W64,
    /// 128-bit word (`int4`).
    W128,
    /// 256-bit word (`long4`).
    W256,
}

impl WordWidth {
    /// Instances one status word of this width can hold.
    pub fn bits(self) -> u32 {
        match self {
            WordWidth::W32 => 32,
            WordWidth::W64 => 64,
            WordWidth::W128 => 128,
            WordWidth::W256 => 256,
        }
    }

    /// Parses `32`/`64`/`128`/`256`.
    pub fn parse(s: &str) -> Option<WordWidth> {
        match s {
            "32" => Some(WordWidth::W32),
            "64" => Some(WordWidth::W64),
            "128" => Some(WordWidth::W128),
            "256" => Some(WordWidth::W256),
            _ => None,
        }
    }

    /// All widths, narrowest first.
    pub fn all() -> [WordWidth; 4] {
        [WordWidth::W32, WordWidth::W64, WordWidth::W128, WordWidth::W256]
    }
}

impl std::fmt::Display for WordWidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.bits())
    }
}

/// A shared-memory cell holding one [`StatusWord`], updatable concurrently.
///
/// `u32`/`u64` map to native atomics; `u128`/[`W256`] are stored as 2/4
/// `AtomicU64` lanes updated lane-by-lane. A multi-lane [`AtomicStatus::load`]
/// may observe lanes from different moments ("torn" across lanes), and a
/// multi-lane [`AtomicStatus::fetch_or`] is atomic per lane only. Both are
/// sound for the BFS status arrays because status bits are *monotone* — they
/// are only ever set, never cleared, within a level — so any torn view is a
/// valid earlier state, exactly like the GPU engines' non-atomic wide-word
/// reads. Cross-lane snapshots are only taken between barrier-synced phases,
/// where no writer is live.
pub trait AtomicStatus: Send + Sync + 'static {
    /// The word value this cell holds.
    type Word: StatusWord;

    /// A zeroed cell.
    fn zeroed() -> Self;

    /// Loads the word (per-lane atomic; see the trait docs on tearing).
    fn load(&self) -> Self::Word;

    /// Stores the word (per-lane atomic).
    fn store(&self, w: Self::Word);

    /// ORs `w` in and returns the *previous* word (per-lane atomic; for a
    /// multi-lane word, each lane's previous value is from the instant that
    /// lane's RMW committed).
    fn fetch_or(&self, w: Self::Word) -> Self::Word;
}

/// One `AtomicU32` — the native cell for `u32` status words.
pub struct AtomicW32(AtomicU32);

impl AtomicStatus for AtomicW32 {
    type Word = u32;

    fn zeroed() -> Self {
        AtomicW32(AtomicU32::new(0))
    }

    #[inline]
    fn load(&self) -> u32 {
        self.0.load(Ordering::Relaxed)
    }

    #[inline]
    fn store(&self, w: u32) {
        self.0.store(w, Ordering::Relaxed);
    }

    #[inline]
    fn fetch_or(&self, w: u32) -> u32 {
        self.0.fetch_or(w, Ordering::Relaxed)
    }
}

/// One `AtomicU64` — the native cell for `u64` status words.
pub struct AtomicW64(AtomicU64);

impl AtomicStatus for AtomicW64 {
    type Word = u64;

    fn zeroed() -> Self {
        AtomicW64(AtomicU64::new(0))
    }

    #[inline]
    fn load(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    #[inline]
    fn store(&self, w: u64) {
        self.0.store(w, Ordering::Relaxed);
    }

    #[inline]
    fn fetch_or(&self, w: u64) -> u64 {
        self.0.fetch_or(w, Ordering::Relaxed)
    }
}

/// Two `AtomicU64` lanes backing a `u128` status word.
pub struct AtomicW128([AtomicU64; 2]);

impl AtomicStatus for AtomicW128 {
    type Word = u128;

    fn zeroed() -> Self {
        AtomicW128([AtomicU64::new(0), AtomicU64::new(0)])
    }

    #[inline]
    fn load(&self) -> u128 {
        let lo = self.0[0].load(Ordering::Relaxed) as u128;
        let hi = self.0[1].load(Ordering::Relaxed) as u128;
        lo | (hi << 64)
    }

    #[inline]
    fn store(&self, w: u128) {
        self.0[0].store(w as u64, Ordering::Relaxed);
        self.0[1].store((w >> 64) as u64, Ordering::Relaxed);
    }

    #[inline]
    fn fetch_or(&self, w: u128) -> u128 {
        let lo = if w as u64 != 0 {
            self.0[0].fetch_or(w as u64, Ordering::Relaxed)
        } else {
            self.0[0].load(Ordering::Relaxed)
        };
        let hi = if (w >> 64) as u64 != 0 {
            self.0[1].fetch_or((w >> 64) as u64, Ordering::Relaxed)
        } else {
            self.0[1].load(Ordering::Relaxed)
        };
        lo as u128 | ((hi as u128) << 64)
    }
}

/// Four `AtomicU64` lanes backing a [`W256`] status word.
pub struct AtomicW256([AtomicU64; 4]);

impl AtomicStatus for AtomicW256 {
    type Word = W256;

    fn zeroed() -> Self {
        AtomicW256(std::array::from_fn(|_| AtomicU64::new(0)))
    }

    #[inline]
    fn load(&self) -> W256 {
        W256(std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed)))
    }

    #[inline]
    fn store(&self, w: W256) {
        for (lane, &v) in self.0.iter().zip(&w.0) {
            lane.store(v, Ordering::Relaxed);
        }
    }

    #[inline]
    fn fetch_or(&self, w: W256) -> W256 {
        W256(std::array::from_fn(|i| {
            if w.0[i] != 0 {
                self.0[i].fetch_or(w.0[i], Ordering::Relaxed)
            } else {
                self.0[i].load(Ordering::Relaxed)
            }
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<W: StatusWord>() {
        assert!(W::zero().is_zero());
        assert_eq!(W::low_mask(0), W::zero());
        let full = W::low_mask(W::BITS);
        assert_eq!(full.count_ones(), W::BITS);
        for i in [0, 1, W::BITS / 2, W::BITS - 1] {
            let b = W::bit(i);
            assert_eq!(b.count_ones(), 1);
            assert!(b.has_bit(i));
            assert!(!b.has_bit((i + 1) % W::BITS) || W::BITS == 1);
            assert_eq!(b.or(b), b);
            assert_eq!(b.and(b), b);
            assert_eq!(b.xor(b), W::zero());
            assert!(full.has_bit(i));
            assert_eq!(b.not().and(b), W::zero());
            assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![i]);
        }
        // low_mask(n) has exactly bits 0..n.
        let n = W::BITS / 2 + 1;
        let m = W::low_mask(n);
        assert_eq!(m.count_ones(), n);
        assert_eq!(m.iter_ones().collect::<Vec<_>>(), (0..n).collect::<Vec<_>>());
        assert_eq!(W::bytes(), W::BITS / 8);
        // The lanes reassemble the word; a word narrower than its lanes
        // reads zero above its top bit.
        for w in [full, m, W::bit(0), W::bit(W::BITS - 1)] {
            for i in 0..64 * W::LANES as u32 {
                let in_lane = w.lane(i as usize / 64) >> (i % 64) & 1 == 1;
                assert_eq!(in_lane, i < W::BITS && w.has_bit(i), "{w:?} bit {i}");
            }
        }
    }

    #[test]
    fn u32_word() {
        exercise::<u32>();
    }

    #[test]
    fn u64_word() {
        exercise::<u64>();
    }

    #[test]
    fn u128_word() {
        exercise::<u128>();
    }

    #[test]
    fn w256_word() {
        exercise::<W256>();
    }

    #[test]
    fn lane_counts_cover_each_width() {
        assert_eq!([u32::LANES, u64::LANES, u128::LANES, W256::LANES], [1, 1, 2, 4]);
    }

    #[test]
    fn transpose64_swaps_rows_and_columns() {
        let cell = |a: &[u64; 64], i: usize, j: usize| a[i] >> j & 1 == 1;
        let mut rng = ibfs_util::rng::Rng::seed_from_u64(64);
        let random: [u64; 64] = std::array::from_fn(|_| rng.next_u64());
        let identity: [u64; 64] = std::array::from_fn(|i| 1 << i);
        let mut single = [0u64; 64];
        single[5] = 1 << 40;
        for a in [random, identity, single, [u64::MAX; 64]] {
            let mut t = a;
            transpose64(&mut t);
            for i in 0..64 {
                for j in 0..64 {
                    assert_eq!(cell(&t, i, j), cell(&a, j, i), "cell ({i}, {j})");
                }
            }
        }
    }

    #[test]
    fn w256_crosses_lane_boundaries() {
        let b = W256::bit(64);
        assert_eq!(b.0, [0, 1, 0, 0]);
        let m = W256::low_mask(130);
        assert_eq!(m.0, [u64::MAX, u64::MAX, 0b11, 0]);
        assert_eq!(m.count_ones(), 130);
    }

    fn exercise_atomic<A: AtomicStatus>() {
        let cell = A::zeroed();
        assert!(cell.load().is_zero());
        let b0 = A::Word::bit(0);
        let bl = A::Word::bit(A::Word::BITS - 1);
        assert!(cell.fetch_or(b0).is_zero());
        assert_eq!(cell.fetch_or(bl), b0);
        assert_eq!(cell.load(), b0.or(bl));
        let m = A::Word::low_mask(A::Word::BITS / 2 + 1);
        cell.store(m);
        assert_eq!(cell.load(), m);
        // OR of an already-set mask is a no-op on the value.
        assert_eq!(cell.fetch_or(b0), m);
        assert_eq!(cell.load(), m);
    }

    #[test]
    fn atomic_cells_match_word_semantics() {
        exercise_atomic::<AtomicW32>();
        exercise_atomic::<AtomicW64>();
        exercise_atomic::<AtomicW128>();
        exercise_atomic::<AtomicW256>();
    }

    #[test]
    fn atomic_wide_words_cross_lane_boundaries() {
        let c = AtomicW128::zeroed();
        c.fetch_or(1u128 << 100);
        c.fetch_or(1u128);
        assert_eq!(c.load(), (1u128 << 100) | 1);

        let c = AtomicW256::zeroed();
        c.fetch_or(W256::bit(200));
        c.fetch_or(W256::bit(3));
        assert_eq!(c.load(), W256::bit(200).or(W256::bit(3)));
    }

    #[test]
    fn word_width_parses_and_reports_bits() {
        for w in WordWidth::all() {
            assert_eq!(WordWidth::parse(&w.to_string()), Some(w));
        }
        assert_eq!(WordWidth::parse("48"), None);
        assert_eq!(WordWidth::default().bits(), 64);
    }

    #[test]
    fn xor_identifies_new_bits() {
        // The top-down frontier identification: bits in BSA_{k+1} but not
        // BSA_k.
        let before = u32::bit(3).or(u32::bit(7));
        let after = before.or(u32::bit(12));
        assert_eq!(after.xor(before), u32::bit(12));
    }
}
