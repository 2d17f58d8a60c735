//! The bit-packed Index Table arena (paper Section 5 storage model).
//!
//! The paper's storage claims rest on Index Table entries being exactly
//! `w = ceil(log2(n))` bits wide — a pointer into an `n`-deep Filter /
//! Bit-vector Table — not a machine word. [`PackedWords`] realizes that:
//! a fixed-length array of `w`-bit values (`1 <= w <= 64`) packed
//! back-to-back into 64-bit words, backed by cache-line (64-byte) aligned
//! storage so one Index Table probe touches the minimum number of lines
//! and hardware-style burst reads stay line-aligned.
//!
//! The Index Table itself never needs more than 32 pointer bits (a
//! 4-billion-deep Filter Table is far past any provisioning), so the hot
//! [`PackedWords::get`]/[`PackedWords::set`] accessors stay `u32`; the
//! `*_wide` pair exposes the full width for arenas that pack wider
//! payloads (and for exercising the boundary math at `w = 64`, where an
//! entry can cover two whole backing words).
//!
//! Entries may straddle a word boundary; reads and writes therefore go
//! through a two-word window folded into a `u128`, which keeps the access
//! branch-free (the arena always provisions one trailing pad word). The
//! arena is `Clone + PartialEq` so engine images built from it can be
//! compared byte-for-byte by the determinism suite.

/// One cache line of packed storage. `repr(C, align(64))` pins both the
/// layout (eight consecutive `u64`s) and the alignment of the backing
/// allocation.
#[repr(C, align(64))]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct CacheLine([u64; 8]);

const WORDS_PER_LINE: usize = 8;

/// A fixed-length array of `w`-bit values packed into cache-line aligned
/// 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedWords {
    lines: Vec<CacheLine>,
    /// Number of addressable entries.
    len: usize,
    /// Entry width `w` in bits (`1..=64`).
    value_bits: u32,
    /// `2^w - 1`, cached for the access paths.
    mask: u64,
    /// Number of live (non-pad) backing words.
    words: usize,
}

impl PackedWords {
    /// Creates a zero-filled arena of `len` entries of `value_bits` bits.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= value_bits <= 64`.
    pub fn new(len: usize, value_bits: u32) -> Self {
        // ASSERT-OK: documented `# Panics` contract on a setup-time
        // constructor.
        assert!(
            (1..=64).contains(&value_bits),
            "entry width {value_bits} out of range 1..=64"
        );
        let words = (len * value_bits as usize).div_ceil(64);
        // One pad word keeps the two-word read window (and the SIMD
        // gathers of `flat[wi + 1]`) in bounds for the last entry.
        let lines = vec![CacheLine::default(); (words + 1).div_ceil(WORDS_PER_LINE)];
        PackedWords {
            lines,
            len,
            value_bits,
            mask: if value_bits == 64 {
                u64::MAX
            } else {
                (1u64 << value_bits) - 1
            },
            words,
        }
    }

    /// Reconstructs an arena from its raw backing words (the
    /// [`PackedWords::backing_words`] serialization). Returns `None` —
    /// instead of panicking — when the words cannot describe `len`
    /// entries of `value_bits` bits: width out of range, wrong word
    /// count, overflowing geometry, or set bits in the tail beyond
    /// `len * value_bits`. The image loader uses this to reject corrupt
    /// bytes.
    pub fn from_backing_words(len: usize, value_bits: u32, words: &[u64]) -> Option<Self> {
        if !(1..=64).contains(&value_bits) {
            return None;
        }
        let bits = len.checked_mul(value_bits as usize)?;
        if words.len() != bits.div_ceil(64) {
            return None;
        }
        let tail_bits = bits % 64;
        if tail_bits != 0 && words[words.len() - 1] >> tail_bits != 0 {
            return None;
        }
        let mut arena = Self::new(len, value_bits);
        arena.flat_mut()[..words.len()].copy_from_slice(words);
        Some(arena)
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the arena holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entry width in bits (the paper's `w`).
    #[inline]
    pub fn value_bits(&self) -> u32 {
        self.value_bits
    }

    /// Logical storage in bits: `len * value_bits` — what the Section 5
    /// storage model charges for the Index Table.
    #[inline]
    pub fn logical_bits(&self) -> u64 {
        self.len as u64 * self.value_bits as u64
    }

    /// Physical storage in bits: whole 64-bit backing words, excluding
    /// the alignment tail. Word-packing overhead is at most 63 bits.
    #[inline]
    pub fn arena_bits(&self) -> u64 {
        self.words as u64 * 64
    }

    /// The live backing words (pad word excluded) — what a hardware image
    /// serializes.
    pub fn backing_words(&self) -> &[u64] {
        &self.flat()[..self.words]
    }

    /// The whole backing arena as words, pad included — in-crate only:
    /// the SIMD kernels gather `flat[wi]`/`flat[wi + 1]` pairs and rely
    /// on the pad line the constructors provision.
    #[inline]
    pub(crate) fn flat(&self) -> &[u64] {
        // SAFETY: `CacheLine` is `repr(C)` over `[u64; 8]`, so a `Vec` of
        // lines is one contiguous, properly-aligned run of
        // `lines.len() * 8` initialized `u64`s.
        unsafe {
            std::slice::from_raw_parts(
                self.lines.as_ptr().cast::<u64>(),
                self.lines.len() * WORDS_PER_LINE,
            )
        }
    }

    #[inline]
    fn flat_mut(&mut self) -> &mut [u64] {
        // SAFETY: as in `flat`, plus `&mut self` guarantees uniqueness.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.lines.as_mut_ptr().cast::<u64>(),
                self.lines.len() * WORDS_PER_LINE,
            )
        }
    }

    /// Reads entry `i` (hot-path `u32` accessor for pointer-width
    /// entries; use [`PackedWords::get_wide`] when `w > 32`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        debug_assert!(
            self.value_bits <= 32,
            "u32 accessor on a {}-bit arena",
            self.value_bits
        );
        self.get_wide(i) as u32
    }

    /// Writes entry `i`. Bits of `value` above `value_bits` must be zero.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len` or the value does not fit the entry width.
    #[inline]
    pub fn set(&mut self, i: usize, value: u32) {
        self.set_wide(i, value as u64);
    }

    /// Reads entry `i` at full width.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get_wide(&self, i: usize) -> u64 {
        // ASSERT-OK: documented `# Panics` bounds contract; the bit
        // arithmetic below is unchecked, so it must hold in release.
        assert!(i < self.len, "entry {i} out of range {}", self.len);
        let bit = i * self.value_bits as usize;
        let (wi, sh) = (bit >> 6, (bit & 63) as u32);
        let flat = self.flat();
        // A `w <= 64` entry at any bit offset lives inside this two-word
        // window (at `w = 64`, `sh = 63` it spans bits 63..127 of it).
        let pair = flat[wi] as u128 | ((flat[wi + 1] as u128) << 64);
        (pair >> sh) as u64 & self.mask
    }

    /// Writes entry `i` at full width. Bits of `value` above
    /// `value_bits` must be zero.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len` or the value does not fit the entry width.
    #[inline]
    pub fn set_wide(&mut self, i: usize, value: u64) {
        // ASSERT-OK: documented `# Panics` bounds/width contract; both
        // checks keep the packed write in range in release builds.
        assert!(i < self.len, "entry {i} out of range {}", self.len);
        assert!(
            value & !self.mask == 0,
            "value {value:#x} exceeds {} bits",
            self.value_bits
        );
        let bit = i * self.value_bits as usize;
        let (wi, sh) = (bit >> 6, (bit & 63) as u32);
        let clear = !((self.mask as u128) << sh);
        let flat = self.flat_mut();
        let pair =
            (flat[wi] as u128 | ((flat[wi + 1] as u128) << 64)) & clear | ((value as u128) << sh);
        flat[wi] = pair as u64;
        flat[wi + 1] = (pair >> 64) as u64;
    }

    /// Zeroes every entry.
    pub fn clear(&mut self) {
        self.lines.fill(CacheLine::default());
    }

    /// Prefetches the cache line holding entry `i`.
    #[inline]
    pub fn prefetch(&self, i: usize) {
        debug_assert!(i < self.len);
        let wi = (i * self.value_bits as usize) >> 6;
        crate::prefetch_read(&self.flat()[wi]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        for w in 1..=32u32 {
            let n = 517; // odd length exercises straddling entries
            let mask = if w == 32 { u32::MAX } else { (1 << w) - 1 };
            let mut t = PackedWords::new(n, w);
            for i in 0..n {
                t.set(i, (i as u32).wrapping_mul(0x9E37_79B9) & mask);
            }
            for i in 0..n {
                assert_eq!(
                    t.get(i),
                    (i as u32).wrapping_mul(0x9E37_79B9) & mask,
                    "w={w} i={i}"
                );
            }
        }
    }

    #[test]
    fn neighbors_do_not_clobber() {
        let mut t = PackedWords::new(64, 21); // 21 bits straddles words
        t.set(3, 0x1F_FFFF);
        t.set(2, 0);
        t.set(4, 0);
        assert_eq!(t.get(3), 0x1F_FFFF);
        t.set(3, 0);
        assert_eq!((0..64).map(|i| t.get(i)).sum::<u32>(), 0);
    }

    #[test]
    fn storage_accounting() {
        let t = PackedWords::new(1000, 17);
        assert_eq!(t.logical_bits(), 17_000);
        assert_eq!(t.arena_bits(), 17_000u64.div_ceil(64) * 64);
        assert!(t.arena_bits() - t.logical_bits() < 64);
        assert_eq!(t.backing_words().len() as u64 * 64, t.arena_bits());
    }

    #[test]
    fn backing_is_cache_line_aligned() {
        for n in [1usize, 63, 64, 1000] {
            let t = PackedWords::new(n, 13);
            assert_eq!(t.lines.as_ptr() as usize % 64, 0);
        }
    }

    #[test]
    fn clear_and_equality() {
        let mut a = PackedWords::new(100, 9);
        let b = PackedWords::new(100, 9);
        a.set(57, 0x1FF);
        assert_ne!(a, b);
        a.clear();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversized_value_rejected() {
        let mut t = PackedWords::new(8, 4);
        t.set(0, 16);
    }

    #[test]
    fn single_bit_entries() {
        // w = 1: 64 entries per backing word, every offset a boundary
        // case of the shift math.
        let n = 130; // 2 full words + 2 straddling the pad boundary
        let mut t = PackedWords::new(n, 1);
        for i in 0..n {
            t.set(i, (i % 3 == 0) as u32);
        }
        for i in 0..n {
            assert_eq!(t.get(i), (i % 3 == 0) as u32, "i={i}");
        }
        assert_eq!(t.logical_bits(), n as u64);
        assert_eq!(t.arena_bits(), 192); // ceil(130/64) = 3 words
    }

    #[test]
    fn full_word_entries() {
        // w = 64: entries coincide exactly with backing words; the
        // two-word read window must not pull in a neighbor.
        let n = 9;
        let mut t = PackedWords::new(n, 64);
        for i in 0..n {
            t.set_wide(i, (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1 << 63);
        }
        for i in 0..n {
            assert_eq!(
                t.get_wide(i),
                (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1 << 63,
                "i={i}"
            );
        }
        assert_eq!(t.logical_bits(), 64 * n as u64);
    }

    #[test]
    fn wide_straddling_entries() {
        // w = 63: every entry past the first straddles a word boundary,
        // sliding one bit further each time — the worst case for the
        // folded two-word window.
        let n = 100;
        let mask = u64::MAX >> 1;
        let mut t = PackedWords::new(n, 63);
        for i in 0..n {
            t.set_wide(i, (i as u64).wrapping_mul(0xD134_2543_DE82_EF95) & mask);
        }
        for i in 0..n {
            assert_eq!(
                t.get_wide(i),
                (i as u64).wrapping_mul(0xD134_2543_DE82_EF95) & mask,
                "i={i}"
            );
        }
        // Overwrite in reverse order; earlier neighbors must survive.
        for i in (0..n).rev() {
            t.set_wide(i, !(i as u64) & mask);
        }
        for i in 0..n {
            assert_eq!(t.get_wide(i), !(i as u64) & mask, "i={i}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn width_65_rejected() {
        let _ = PackedWords::new(8, 65);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_width_rejected() {
        let _ = PackedWords::new(8, 0);
    }

    #[test]
    fn empty_arena() {
        let t = PackedWords::new(0, 8);
        assert!(t.is_empty());
        assert_eq!(t.logical_bits(), 0);
        assert_eq!(t.backing_words().len(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The obviously-correct reference: one `u64` per entry, no packing.
    struct Naive {
        values: Vec<u64>,
        mask: u64,
    }

    impl Naive {
        fn new(len: usize, value_bits: u32) -> Self {
            Naive {
                values: vec![0; len],
                mask: if value_bits == 64 {
                    u64::MAX
                } else {
                    (1u64 << value_bits) - 1
                },
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn packed_matches_naive_reference(
            value_bits in 1u32..=64,
            len in 1usize..200,
            writes in proptest::collection::vec((any::<u16>(), any::<u64>()), 0..300),
        ) {
            let mut packed = PackedWords::new(len, value_bits);
            let mut naive = Naive::new(len, value_bits);
            for &(i, v) in &writes {
                let i = i as usize % len;
                let v = v & naive.mask;
                packed.set_wide(i, v);
                naive.values[i] = v;
            }
            for (i, &want) in naive.values.iter().enumerate() {
                prop_assert_eq!(packed.get_wide(i), want, "w={} i={}", value_bits, i);
            }
        }

        #[test]
        fn clear_resets_every_width(value_bits in 1u32..=64, len in 1usize..128) {
            let mut packed = PackedWords::new(len, value_bits);
            let mask = if value_bits == 64 { u64::MAX } else { (1u64 << value_bits) - 1 };
            for i in 0..len {
                packed.set_wide(i, mask);
            }
            packed.clear();
            for i in 0..len {
                prop_assert_eq!(packed.get_wide(i), 0);
            }
        }
    }
}
