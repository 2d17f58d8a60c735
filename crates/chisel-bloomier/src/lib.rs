//! Bloomier filter: collision-free static function encoding with
//! incremental extensions (paper Sections 3 and 4.4).
//!
//! A Bloomier filter stores a function `key -> value` such that lookups are
//! a constant-time XOR over `k` table locations — no chaining, no probing,
//! no collisions. This crate implements:
//!
//! - [`BloomierFilter`]: the filter itself, built with the stack-based
//!   peeling *setup algorithm* of Section 3.2 and encoded with the XOR
//!   scheme of Equations 1/2/4.
//! - Incremental inserts via *singleton* locations (Section 4.4.2) —
//!   `O(1)` additions whenever one of the new key's hash locations is
//!   untouched by every other live key.
//! - [`PartitionedBloomier`]: the `d`-way logical partitioning that bounds
//!   worst-case re-setup time to one small sub-table.
//! - [`analytics`]: the setup-failure probability bound (Equation 3)
//!   behind Figures 2 and 3.
//!
//! Lookups of keys *not* in the encoded set return arbitrary values (the
//! false-positive problem); eliminating those exactly is the job of the
//! Chisel engine's Filter Table in `chisel-core`.
//!
//! ```
//! use chisel_bloomier::BloomierFilter;
//!
//! let keys: Vec<(u128, u32)> = (0..100).map(|i| (i * 7919, i as u32)).collect();
//! let built = BloomierFilter::build(3, 300, 42, &keys).unwrap();
//! assert!(built.spilled.is_empty());
//! for &(k, v) in &keys {
//!     assert_eq!(built.filter.lookup(k), v);
//! }
//! ```

pub mod analytics;
mod checksum;
mod error;
mod filter;
mod packed;
mod partition;
pub mod simd;

pub use checksum::ChecksumBloomier;
pub use error::BloomierError;
pub use filter::{index_xor_lookup, BloomierFilter, Built};
pub use packed::PackedWords;
pub use partition::{PartitionedBloomier, RebuildCandidate};

/// Hints the CPU to pull the cache line holding `value` toward L1.
///
/// Used by the software-pipelined batch lookup to overlap the dependent
/// Index → Filter → Result table reads of one key with the independent
/// probes of its lane neighbors. Compiles to `prefetcht0` on x86-64 and
/// `prfm pldl1keep` on aarch64, and to nothing elsewhere — it is purely a
/// scheduling hint, never required for correctness.
#[inline(always)]
pub fn prefetch_read<T>(value: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` has no memory-safety requirements — it is a
    // hint and may be passed any address, valid or not.
    unsafe {
        core::arch::x86_64::_mm_prefetch(
            std::ptr::from_ref(value).cast::<i8>(),
            core::arch::x86_64::_MM_HINT_T0,
        );
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: `prfm` is architecturally a hint: it cannot fault, cannot
    // trap, and touches no registers beyond reading the address operand
    // (`core::arch::aarch64::_prefetch` is nightly-only, hence inline
    // asm on stable). Any address is permissible, valid or not.
    unsafe {
        core::arch::asm!(
            "prfm pldl1keep, [{addr}]",
            addr = in(reg) std::ptr::from_ref(value),
            options(readonly, nostack, preserves_flags)
        );
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = value;
}
