//! Vectorized Index Table probes (`simd` feature).
//!
//! Each Index Table probe is a dependent memory read plus pure ALU work —
//! split a bit offset into a word index and shift, read a two-word
//! window, shift/mask, XOR-accumulate. This module vectorizes that
//! extraction *across batch lanes*: one AVX2 gather group resolves the
//! `j`-th probe of [`LANE_WIDTH`] keys at once against a shared arena,
//! XOR-accumulating over `j = 0..k` in four 64-bit lanes.
//!
//! Three contracts keep this safe and honest:
//!
//! - **Bit-identical fallback.** [`xor_lanes_scalar`] implements the
//!   exact `u128`-window math of `PackedWords::get_wide`; the AVX2 path
//!   computes the same values with `srlv`/`sllv` (a shift count of 64
//!   yields 0, exactly like the window shifted by `sh = 0`). Every build
//!   exposes both so differential tests can compare them on any host.
//! - **Runtime detection.** The vector path runs only when the `simd`
//!   feature is compiled in *and* the CPU reports AVX2; the result of
//!   `is_x86_feature_detected!` is cached in an atomic.
//! - **In-bounds gathers.** [`xor_lanes`] asserts every offset's two-word
//!   window lies inside the arena (the pad line provisioned by
//!   `PackedWords` keeps `wi + 1` valid for any live entry) before
//!   entering the `unsafe` kernel.

use crate::PackedWords;

/// Number of keys one across-lane gather group resolves at once (the
/// width of an AVX2 64-bit gather).
pub const LANE_WIDTH: usize = 4;

/// Whether the vectorized kernel will actually be used on this host:
/// compiled in (`simd` feature, x86-64) and supported by the CPU (AVX2).
#[inline]
pub fn simd_active() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        use std::sync::atomic::{AtomicU8, Ordering};
        // 0 = unprobed, 1 = unavailable, 2 = available.
        static AVX2: AtomicU8 = AtomicU8::new(0);
        // ORDERING: idempotent memoization of a CPUID probe — racing
        // threads compute the same value, and the cell guards no other
        // data, so no edge is needed in either direction.
        match AVX2.load(Ordering::Relaxed) {
            2 => true,
            1 => false,
            _ => {
                let have = std::arch::is_x86_feature_detected!("avx2");
                // ORDERING: same idempotent-probe cell as the load above.
                AVX2.store(if have { 2 } else { 1 }, Ordering::Relaxed);
                have
            }
        }
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

/// XOR-accumulates `k = bit_offsets.len()` probes for [`LANE_WIDTH`] keys
/// against one arena: `bit_offsets[j][l]` is the arena bit offset of
/// probe `j` of lane `l`, and `out[l]` receives the masked XOR over `j`
/// of the `value_bits`-wide entries at those offsets.
///
/// Dispatches to the AVX2 gather kernel when [`simd_active`], otherwise
/// to [`xor_lanes_scalar`]; the two are bit-identical by construction
/// and by differential test.
///
/// # Panics
///
/// Panics if any offset's two-word window would leave the arena.
#[inline]
pub fn xor_lanes(
    words: &PackedWords,
    bit_offsets: &[[usize; LANE_WIDTH]],
    out: &mut [u64; LANE_WIDTH],
) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if simd_active() {
        let flat = words.flat();
        for row in bit_offsets {
            for &bit in row {
                // ASSERT-OK: bounds gate for the unchecked SIMD gather
                // below; it must hold in release or the gather reads
                // out of the arena.
                assert!((bit >> 6) + 1 < flat.len(), "probe offset out of arena");
            }
        }
        let mask = if words.value_bits() == 64 {
            u64::MAX
        } else {
            (1u64 << words.value_bits()) - 1
        };
        // SAFETY: AVX2 is dynamically verified by `simd_active` above,
        // and every gathered word index (`bit >> 6` and its `+ 1`
        // neighbor) was just bounds-checked against `flat`.
        *out = unsafe { avx2::xor_lanes_avx2(flat, bit_offsets, mask) };
        return;
    }
    xor_lanes_scalar(words, bit_offsets, out);
}

/// The forced-scalar reference for [`xor_lanes`]: the same two-word
/// `u128` window extraction `PackedWords::get_wide` performs, applied
/// offset-by-offset. Public so the SIMD-vs-scalar differential suite can
/// pin bit-identity on hosts where the vector path is live.
///
/// # Panics
///
/// Panics if any offset's two-word window would leave the arena.
#[inline]
pub fn xor_lanes_scalar(
    words: &PackedWords,
    bit_offsets: &[[usize; LANE_WIDTH]],
    out: &mut [u64; LANE_WIDTH],
) {
    let flat = words.flat();
    let mask = if words.value_bits() == 64 {
        u64::MAX
    } else {
        (1u64 << words.value_bits()) - 1
    };
    let mut acc = [0u64; LANE_WIDTH];
    for row in bit_offsets {
        for (a, &bit) in acc.iter_mut().zip(row) {
            let (wi, sh) = (bit >> 6, (bit & 63) as u32);
            let pair = flat[wi] as u128 | ((flat[wi + 1] as u128) << 64);
            *a ^= (pair >> sh) as u64;
        }
    }
    for (o, a) in out.iter_mut().zip(acc) {
        *o = a & mask;
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2 {
    use super::LANE_WIDTH;
    use core::arch::x86_64::{
        __m256i, _mm256_and_si256, _mm256_mask_i64gather_epi64, _mm256_or_si256,
        _mm256_set1_epi64x, _mm256_set_epi64x, _mm256_setzero_si256, _mm256_sllv_epi64,
        _mm256_srlv_epi64, _mm256_storeu_si256, _mm256_sub_epi64, _mm256_xor_si256,
        _mm_setzero_si128,
    };

    /// The AVX2 gather kernel behind `xor_lanes`.
    ///
    /// # Safety
    ///
    /// The caller must guarantee (a) AVX2 is available on the running
    /// CPU and (b) for every offset in `bit_offsets`,
    /// `(bit >> 6) + 1 < flat.len()` — both gathered words of each
    /// two-word window must be inside `flat`.
    // SAFETY: only reachable through `xor_lanes`, which checks
    // `simd_active()` (AVX2 cpuid) and derives every offset from
    // `probe_bits_into` over the padded arena, meeting both contracts.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn xor_lanes_avx2(
        flat: &[u64],
        bit_offsets: &[[usize; LANE_WIDTH]],
        mask: u64,
    ) -> [u64; LANE_WIDTH] {
        // SAFETY: (whole body) callees are plain AVX2 data ops on values
        // we construct; the only memory accesses are the two gathers per
        // row, whose indices the caller certified in-bounds, loading
        // through `base` which points at `flat`'s initialized words.
        unsafe {
            let base = flat.as_ptr().cast::<i64>();
            let ones = _mm256_set1_epi64x(1);
            let sixty_four = _mm256_set1_epi64x(64);
            let shift_mask = _mm256_set1_epi64x(63);
            let full = _mm256_set1_epi64x(-1);
            let mut acc = _mm256_setzero_si256();
            for row in bit_offsets {
                let bits =
                    _mm256_set_epi64x(row[3] as i64, row[2] as i64, row[1] as i64, row[0] as i64);
                // wi = bit >> 6 (srlv by a broadcast 6), sh = bit & 63.
                let wi = _mm256_srlv_epi64(bits, _mm256_set1_epi64x(6));
                let sh = _mm256_and_si256(bits, shift_mask);
                let lo = _mm256_mask_i64gather_epi64::<8>(_mm256_setzero_si256(), base, wi, full);
                let hi = _mm256_mask_i64gather_epi64::<8>(
                    _mm256_setzero_si256(),
                    base,
                    _mm256_add_epi64_shim(wi, ones),
                    full,
                );
                // value = (lo >> sh) | (hi << (64 - sh)); a variable
                // shift count of 64 (sh = 0) yields 0, matching the
                // u128-window semantics bit for bit.
                let v = _mm256_or_si256(
                    _mm256_srlv_epi64(lo, sh),
                    _mm256_sllv_epi64(hi, _mm256_sub_epi64(sixty_four, sh)),
                );
                acc = _mm256_xor_si256(acc, v);
            }
            let masked = _mm256_and_si256(acc, _mm256_set1_epi64x(mask as i64));
            let mut out = [0u64; LANE_WIDTH];
            _mm256_storeu_si256(out.as_mut_ptr().cast::<__m256i>(), masked);
            let _ = _mm_setzero_si128();
            out
        }
    }

    /// `_mm256_add_epi64` spelled as a helper so the import list above
    /// stays explicit about every intrinsic the kernel uses.
    #[inline(always)]
    fn _mm256_add_epi64_shim(a: __m256i, b: __m256i) -> __m256i {
        // SAFETY: `_mm256_add_epi64` is a pure register operation; the
        // enclosing kernel already runs under `target_feature(avx2)`.
        unsafe { core::arch::x86_64::_mm256_add_epi64(a, b) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena(len: usize, w: u32) -> PackedWords {
        let mut words = PackedWords::new(len, w);
        let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
        for i in 0..len {
            words.set_wide(i, (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask);
        }
        words
    }

    fn offsets_for(words: &PackedWords, idx: [usize; LANE_WIDTH]) -> [usize; LANE_WIDTH] {
        idx.map(|i| i * words.value_bits() as usize)
    }

    #[test]
    fn scalar_lanes_match_get_wide() {
        for w in [1u32, 7, 17, 21, 32, 33, 63, 64] {
            let words = arena(200, w);
            let groups = [[0usize, 1, 2, 3], [7, 99, 150, 199], [5, 5, 5, 5]];
            let rows: Vec<[usize; LANE_WIDTH]> =
                groups.iter().map(|&g| offsets_for(&words, g)).collect();
            let mut out = [0u64; LANE_WIDTH];
            xor_lanes_scalar(&words, &rows, &mut out);
            for l in 0..LANE_WIDTH {
                let want = groups
                    .iter()
                    .fold(0u64, |acc, g| acc ^ words.get_wide(g[l]));
                assert_eq!(out[l], want, "w={w} lane {l}");
            }
        }
    }

    #[test]
    fn vector_path_matches_scalar_reference() {
        // On AVX2 hosts this pins the gather kernel against the scalar
        // reference; elsewhere both sides take the scalar path and the
        // test degenerates to self-consistency (the CI differential step
        // runs on x86-64 where the vector path is live).
        let mut state = 0x0123_4567_89AB_CDEFu64;
        for w in [5u32, 17, 20, 31, 33, 64] {
            let words = arena(300, w);
            for _ in 0..50 {
                let mut idx = [[0usize; LANE_WIDTH]; 3];
                for row in idx.iter_mut() {
                    for slot in row.iter_mut() {
                        state = state
                            .wrapping_mul(0x5851_F42D_4C95_7F2D)
                            .wrapping_add(0x1405_7B7E_F767_814F);
                        *slot = (state >> 33) as usize % 300;
                    }
                }
                let rows: Vec<[usize; LANE_WIDTH]> =
                    idx.iter().map(|&g| offsets_for(&words, g)).collect();
                let (mut fast, mut slow) = ([0u64; LANE_WIDTH], [0u64; LANE_WIDTH]);
                xor_lanes(&words, &rows, &mut fast);
                xor_lanes_scalar(&words, &rows, &mut slow);
                assert_eq!(fast, slow, "w={w}");
            }
        }
    }

    #[test]
    fn simd_active_is_stable() {
        // Whatever the host supports, repeated queries must agree (the
        // cached atomic cannot flap).
        let first = simd_active();
        for _ in 0..10 {
            assert_eq!(simd_active(), first);
        }
    }
}
