//! The engine/image invariant verifier: re-walks every inserted prefix
//! through all four tables and reports each broken invariant instead of
//! silently mis-routing.
//!
//! Chisel's correctness argument is a chain of structural invariants,
//! each tied to a paper claim:
//!
//! - **Collision-freeness** (Section 4.1): the Bloomier Index Table maps
//!   distinct collapsed keys to *distinct* Filter Table rows — two live
//!   keys may never share a slot, and replaying the k-segment XOR of a
//!   stored key must land exactly on its row (`duplicate-key`,
//!   `data-path-binding`, `index-replay`).
//! - **Pointer ranges** (Section 4.2): every decoded Index Table pointer
//!   for an encoded key lies in `[0, n)` where `n` is the Filter Table
//!   depth, and entries are packed at exactly `w = ceil(log2 n)` bits
//!   (`index-pointer-range`, `index-entry-width`).
//! - **Rank consistency** (Section 4.3): a group's bit-vector popcount
//!   equals its Result Table block occupancy, every set leaf's
//!   `ptr + rank - 1` read returns the next hop the group's shadow
//!   resolves for that leaf, and blocks never overlap or escape the
//!   table (`popcount-mismatch`, `next-hop-mismatch`, `block-overlap`,
//!   `result-out-of-bounds`).
//! - **Update hygiene** (Section 4.4): dirty rows are fully drained
//!   (empty shadow, zero vector, released block), spillover TCAM entries
//!   bind their key to the slot that actually stores it, and the free
//!   slot accounting matches the live row count (`stale-*`,
//!   `spill-binding`, `slot-accounting`, `live-group-count`).
//!
//! Two entry points cover the two halves of the deployment model:
//! [`crate::ChiselLpm::verify`] checks the software shadow (it can see
//! shadows and block capacities), while [`verify_image`] checks a raw
//! [`HardwareImage`] using nothing but the exported memory words — the
//! view the hardware engine actually loads. `chisel-router check <table>`
//! runs both plus a route-set roundtrip; `debug_assert!` hooks re-verify
//! the touched slot after every incremental update.

use std::collections::HashMap;
use std::fmt;

use chisel_prefix::bits::addr_bits;

use crate::image::HardwareImage;

/// One broken invariant, with enough context to locate the bad word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Sub-cell index, or `None` for engine-wide checks.
    pub cell: Option<usize>,
    /// Filter/Bit-vector slot, when the check is per-slot.
    pub slot: Option<u32>,
    /// Stable kebab-case name of the violated check.
    pub check: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.cell, self.slot) {
            (Some(c), Some(s)) => write!(f, "cell {c} slot {s}: {}: {}", self.check, self.message),
            (Some(c), None) => write!(f, "cell {c}: {}: {}", self.check, self.message),
            _ => write!(f, "engine: {}: {}", self.check, self.message),
        }
    }
}

/// Outcome of a verification pass: coverage counters plus every
/// violation found (the verifier never stops at the first one).
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Sub-cells walked.
    pub cells: usize,
    /// Live (valid, non-dirty) Filter Table rows re-walked.
    pub live_slots: usize,
    /// Original prefixes re-walked through the data path.
    pub routes: usize,
    /// Every invariant violation found.
    pub violations: Vec<Violation>,
}

impl VerifyReport {
    /// Whether every invariant held.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    pub(crate) fn push(
        &mut self,
        cell: Option<usize>,
        slot: Option<u32>,
        check: &'static str,
        message: String,
    ) {
        self.violations.push(Violation {
            cell,
            slot,
            check,
            message,
        });
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "verified {} routes across {} live groups in {} sub-cells: {} violation(s)",
            self.routes,
            self.live_slots,
            self.cells,
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// Verifies a raw [`HardwareImage`] using only the exported memory words
/// — the exact view the hardware engine loads (Section 4.4).
///
/// The image has no shadows, so semantic next-hop checks stay with
/// [`crate::ChiselLpm::verify`]; this pass proves the *structural*
/// claims the hardware relies on: collision-free key→row binding via
/// data-path replay, `w = ceil(log2 n)` packing, result pointers in
/// bounds over written words, and drained dirty/invalid rows.
pub fn verify_image(image: &HardwareImage) -> VerifyReport {
    let mut report = VerifyReport {
        cells: image.cells.len(),
        ..VerifyReport::default()
    };
    for (ci, cell) in image.cells.iter().enumerate() {
        let cv = Some(ci);
        let n = cell.filter.len();
        if cell.bitvec.len() != n {
            report.push(
                cv,
                None,
                "table-depth-mismatch",
                format!("filter depth {n} != bit-vector depth {}", cell.bitvec.len()),
            );
            continue;
        }
        // Section 5 storage model: every partition packs entries at
        // exactly w = ceil(log2 n) bits.
        let w = addr_bits(n);
        for (pi, part) in cell.index_parts.iter().enumerate() {
            if part.words.value_bits() != w {
                report.push(
                    cv,
                    None,
                    "index-entry-width",
                    format!(
                        "partition {pi} packs {} bits/entry, expected ceil(log2 {n}) = {w}",
                        part.words.value_bits()
                    ),
                );
            }
        }
        let mut keys: HashMap<u128, u32> = HashMap::new();
        for slot in 0..n as u32 {
            let sv = Some(slot);
            let fw = &cell.filter[slot as usize];
            let bw = &cell.bitvec[slot as usize];
            if fw.dirty && !fw.valid {
                report.push(
                    cv,
                    sv,
                    "dirty-invalid",
                    "dirty bit set on an invalid row".into(),
                );
            }
            if fw.valid {
                if let Some(prev) = keys.insert(fw.key, slot) {
                    report.push(
                        cv,
                        sv,
                        "duplicate-key",
                        format!("key {:#x} also stored at slot {prev} (collision)", fw.key),
                    );
                }
                // Replay the Figure 6 front end: spillover TCAM first,
                // then the partitioned k-segment XOR. The decoded pointer
                // must come back to this very row.
                let replayed = match cell.spill.iter().find(|&&(k, _)| k == fw.key) {
                    Some(&(_, s)) => s,
                    None => {
                        let d = cell.index_parts.len();
                        let digest = cell.selector.digest(fw.key);
                        let part = &cell.index_parts[cell.selector.hash_one_digest(0, digest, d)];
                        // The shared XOR datapath, same as the live engine.
                        chisel_bloomier::index_xor_lookup(&part.family, &part.words, digest) as u32
                    }
                };
                if replayed != slot {
                    report.push(
                        cv,
                        sv,
                        "index-replay",
                        format!("key {:#x} decodes to pointer {replayed}", fw.key),
                    );
                }
            }
            let ones = bw.vector.count_ones();
            if fw.valid && !fw.dirty {
                report.live_slots += 1;
                if ones == 0 {
                    report.push(cv, sv, "empty-live-group", "live row covers no leaf".into());
                }
            } else if ones != 0 {
                report.push(
                    cv,
                    sv,
                    "stale-vector",
                    format!("{ones} leaf bit(s) set on a non-live row"),
                );
            }
            match bw.pointer {
                Some(ptr) => {
                    if !fw.valid || fw.dirty {
                        report.push(
                            cv,
                            sv,
                            "stale-block",
                            "result pointer on a non-live row".into(),
                        );
                    } else if ptr as usize + ones > cell.result.len() {
                        report.push(
                            cv,
                            sv,
                            "result-out-of-bounds",
                            format!(
                                "block [{ptr}, {ptr}+{ones}) exceeds result table of {}",
                                cell.result.len()
                            ),
                        );
                    } else {
                        // The compacted occupancy ptr..ptr+ones must all
                        // be written next hops (unused slots carry the
                        // u32::MAX fill).
                        for off in 0..ones {
                            if cell.result[ptr as usize + off] == u32::MAX {
                                report.push(
                                    cv,
                                    sv,
                                    "unwritten-result-entry",
                                    format!("rank {off} reads the unwritten fill"),
                                );
                            }
                        }
                    }
                }
                None => {
                    if ones > 0 {
                        report.push(
                            cv,
                            sv,
                            "missing-block",
                            format!("{ones} leaf bit(s) set but no result block"),
                        );
                    }
                }
            }
        }
        let mut spill_keys: HashMap<u128, u32> = HashMap::new();
        for &(k, s) in &cell.spill {
            if let Some(prev) = spill_keys.insert(k, s) {
                report.push(
                    cv,
                    Some(s),
                    "duplicate-spill-key",
                    format!("key {k:#x} also spilled to slot {prev}"),
                );
            }
            if s as usize >= n {
                report.push(
                    cv,
                    Some(s),
                    "spill-slot-range",
                    format!("spill slot {s} outside filter depth {n}"),
                );
            } else {
                let fw = &cell.filter[s as usize];
                if !fw.valid || fw.key != k {
                    report.push(
                        cv,
                        Some(s),
                        "spill-binding",
                        format!("spilled key {k:#x} not stored at its slot"),
                    );
                }
            }
        }
    }
    report
}
