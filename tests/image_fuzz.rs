//! Corruption fuzzing for the hardware-image loader and the update
//! journal scanner.
//!
//! The loader's contract (ISSUE 5): loading a serialized image must
//! *never* panic, and must never yield an engine that passes the image
//! verifier yet answers lookups differently from the image the bytes
//! came from. This suite drives that contract three ways — a
//! deterministic 10k-bit-flip sweep, an exhaustive truncation sweep, and
//! proptest-generated garbage/mutations — against a small engine so the
//! whole file stays fast in debug tier-1 runs.
//!
//! The journal scanner (ISSUE 10) carries the sibling contract: scanning
//! a damaged journal must never panic, an `Ok` scan must return a
//! byte-exact *prefix* of the original record sequence (torn tails are
//! truncated, never invented), and interior damage must surface as a
//! typed error — so the same three fuzz modes run against journal bytes
//! too.

use std::sync::OnceLock;

use chisel::core::journal::{scan_journal, JournalRecord, JournalWriter};
use chisel::core::{verify_image, HardwareImage, ImageError, RouteUpdate};
use chisel::prefix::bits::mask;
use chisel::{AddressFamily, ChiselConfig, ChiselLpm, Key, NextHop, Prefix, RoutingTable};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One small engine (≈300 prefixes), its canonical bytes, and a probe
/// set with expected answers — built once for the whole suite.
struct Baseline {
    bytes: Vec<u8>,
    probes: Vec<(Key, Option<NextHop>)>,
}

fn baseline() -> &'static Baseline {
    static CELL: OnceLock<Baseline> = OnceLock::new();
    CELL.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0x1A6E);
        let mut t = RoutingTable::new_v4();
        while t.len() < 300 {
            let len = rng.gen_range(1..=32u8);
            let bits = rng.gen::<u128>() & mask(len);
            t.insert(
                Prefix::new(AddressFamily::V4, bits, len).expect("masked bits fit"),
                NextHop::new(rng.gen_range(0..64)),
            );
        }
        let engine = ChiselLpm::build(&t, ChiselConfig::ipv4()).expect("build");
        let image = engine.export_image();
        let bytes = image.to_bytes();
        let probes = (0..2_000)
            .map(|_| {
                let key = Key::from_raw(AddressFamily::V4, rng.gen::<u32>() as u128);
                (key, image.lookup(key))
            })
            .collect();
        Baseline { bytes, probes }
    })
}

/// The load-side contract check for one (possibly corrupted) byte
/// stream: loading must not panic, and if the loader accepts the bytes
/// AND the structural verifier passes, every probe must still answer
/// exactly as the original image did.
fn assert_contract(bytes: &[u8], what: &str) {
    match HardwareImage::from_bytes(bytes) {
        Err(_) => {} // typed rejection is always acceptable
        Ok(img) => {
            if verify_image(&img).is_ok() {
                for &(key, want) in &baseline().probes {
                    assert_eq!(
                        img.lookup(key),
                        want,
                        "{what}: verifier-passing image answers {key} differently"
                    );
                }
            }
        }
    }
}

#[test]
fn canonical_bytes_round_trip() {
    let b = baseline();
    let img = HardwareImage::from_bytes(&b.bytes).expect("canonical bytes load");
    let report = verify_image(&img);
    assert!(report.is_ok(), "{report}");
    assert_eq!(img.to_bytes(), b.bytes, "round trip must be byte-exact");
    for &(key, want) in &b.probes {
        assert_eq!(img.lookup(key), want);
    }
}

#[test]
fn truncations_are_rejected_without_panic() {
    let b = baseline();
    // Every short length near the front (where the frame fields live),
    // then stepped through the body.
    for len in (0..200.min(b.bytes.len())).chain((200..b.bytes.len()).step_by(97)) {
        let got = HardwareImage::from_bytes(&b.bytes[..len]);
        assert!(got.is_err(), "truncation to {len} bytes was accepted");
    }
}

#[test]
fn ten_thousand_bit_flips_never_panic_or_lie() {
    let b = baseline();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut accepted = 0usize;
    for round in 0..10_000 {
        // xorshift64*: deterministic byte/bit choices, no clock, no env.
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let byte = (r as usize >> 8) % b.bytes.len();
        let bit = (r & 7) as u8;
        let mut mutated = b.bytes.clone();
        mutated[byte] ^= 1 << bit;
        if HardwareImage::from_bytes(&mutated).is_ok() {
            accepted += 1;
        }
        assert_contract(
            &mutated,
            &format!("bit flip #{round} (byte {byte} bit {bit})"),
        );
    }
    // The checksums make single-bit acceptance astronomically unlikely;
    // if flips start passing, the framing has regressed.
    assert_eq!(accepted, 0, "single-bit flips slipped past the checksums");
}

#[test]
fn typed_rejections_name_the_damage() {
    let b = baseline();
    let mut magic = b.bytes.clone();
    magic[2] = b'X';
    assert_eq!(
        HardwareImage::from_bytes(&magic).unwrap_err(),
        ImageError::BadMagic
    );

    let mut version = b.bytes.clone();
    version[4] = 0x39;
    version[5] = 0x05;
    assert_eq!(
        HardwareImage::from_bytes(&version).unwrap_err(),
        ImageError::UnsupportedVersion { version: 0x0539 }
    );

    // Magic(4) + version(2) + header frame(12) = header body at 18.
    let mut checksum = b.bytes.clone();
    checksum[18] ^= 0x01;
    assert_eq!(
        HardwareImage::from_bytes(&checksum).unwrap_err(),
        ImageError::ChecksumMismatch { section: "header" }
    );

    let mut trailing = b.bytes.clone();
    trailing.extend_from_slice(&[0, 0, 0]);
    assert_eq!(
        HardwareImage::from_bytes(&trailing).unwrap_err(),
        ImageError::Malformed { what: "image" }
    );

    assert_eq!(
        HardwareImage::from_bytes(&[]).unwrap_err(),
        ImageError::Truncated { what: "magic" }
    );
}

/// FNV-1a over `bytes` — the section checksum of the wire format.
fn fnv1a32(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0x811C_9DC5u32, |sum, &byte| {
        (sum ^ u32::from(byte)).wrapping_mul(0x0100_0193)
    })
}

/// Re-frames the first cell section of `bytes` with `f` applied to its
/// body and the checksum recomputed, so the forgery is *internally
/// consistent* and only the loader's semantic checks can catch it.
fn forge_first_cell(bytes: &[u8], f: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let hlen = u64::from_le_bytes(bytes[6..14].try_into().unwrap()) as usize;
    let cell = 18 + hlen;
    let clen = u64::from_le_bytes(bytes[cell..cell + 8].try_into().unwrap()) as usize;
    let mut body = bytes[cell + 12..cell + 12 + clen].to_vec();
    f(&mut body);
    let mut forged = bytes[..cell].to_vec();
    forged.extend((body.len() as u64).to_le_bytes());
    forged.extend(fnv1a32(&body).to_le_bytes());
    forged.extend_from_slice(&body);
    forged.extend_from_slice(&bytes[cell + 12 + clen..]);
    forged
}

/// Only the flat Index Table layout loads. A checksum-consistent image
/// whose first partition carries layout tag 1 — the retired blocked
/// layout, with the block geometry such images declared — must get the
/// typed unsupported-layout error, and a flat tag with a non-zero block
/// size stays malformed.
#[test]
fn consistent_layout_tag_forgery_is_rejected() {
    let b = baseline();
    // Cell body: base 1 + stride 1 + selector 20 + part count 4 + part
    // family 20 + entry width 4 puts the layout tag at 50 and the block
    // entries at 51..55.
    let forged = forge_first_cell(&b.bytes, |body| {
        assert_eq!(body[50], 0, "engine images use the flat layout");
        assert_eq!(body[51..55], [0; 4], "flat images declare no blocks");
        let width = u32::from_le_bytes(body[46..50].try_into().unwrap());
        body[50] = 1;
        body[51..55].copy_from_slice(&(512 / width).to_le_bytes());
    });
    assert_eq!(
        HardwareImage::from_bytes(&forged).unwrap_err(),
        ImageError::UnsupportedLayoutTag { tag: 1 }
    );
    let sized = forge_first_cell(&b.bytes, |body| body[51] = 1);
    assert_eq!(
        HardwareImage::from_bytes(&sized).unwrap_err(),
        ImageError::Malformed {
            what: "index block entries"
        }
    );
    // The untouched re-frame still loads: the rejections above are real.
    assert!(HardwareImage::from_bytes(&forge_first_cell(&b.bytes, |_| {})).is_ok());
}

/// Canonical journal bytes (64 records over a /24 flap set, mixed
/// announce/withdraw, two events per record) plus the parsed records —
/// built once, through the real writer, for the whole suite.
struct JournalBaseline {
    bytes: Vec<u8>,
    records: Vec<JournalRecord>,
}

fn journal_baseline() -> &'static JournalBaseline {
    static CELL: OnceLock<JournalBaseline> = OnceLock::new();
    CELL.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("chisel-jfuzz-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join("baseline.journal");
        let mut rng = StdRng::seed_from_u64(0x0CC5);
        let mut writer =
            JournalWriter::create(&path, AddressFamily::V4, false).expect("journal create");
        for generation in 1..=64u64 {
            let events: Vec<RouteUpdate> = (0..2)
                .map(|_| {
                    let p = Prefix::new(
                        AddressFamily::V4,
                        0xC0_0000 | u128::from(rng.gen_range(0..64u32)),
                        24,
                    )
                    .expect("masked bits fit");
                    if rng.gen_bool(0.7) {
                        RouteUpdate::Announce(p, NextHop::new(rng.gen_range(0..64)))
                    } else {
                        RouteUpdate::Withdraw(p)
                    }
                })
                .collect();
            writer.append(generation, &events).expect("append");
        }
        drop(writer);
        let bytes = std::fs::read(&path).expect("read journal back");
        let records = scan_journal(&bytes).expect("canonical scan").records;
        assert_eq!(records.len(), 64);
        JournalBaseline { bytes, records }
    })
}

/// The scan-side contract for one (possibly corrupted) journal stream:
/// scanning must not panic, and an `Ok` scan must hand back a prefix of
/// the original records with the byte accounting intact — corruption may
/// shorten history, never rewrite or extend it.
fn assert_journal_contract(bytes: &[u8], what: &str) {
    let original = &journal_baseline().records;
    match scan_journal(bytes) {
        Err(_) => {} // typed rejection is always acceptable
        Ok(scan) => {
            if scan.family != AddressFamily::V4 {
                // The one-byte family tag is not checksummed at scan
                // level; `read_journal`'s expected-family cross-check
                // (driven off the checkpoint) is the guard. A flip here
                // must still have actually hit that byte.
                assert_ne!(bytes[6], 4, "{what}: family changed without tag damage");
                return;
            }
            assert!(
                scan.records.len() <= original.len(),
                "{what}: scan invented records"
            );
            assert_eq!(
                scan.records,
                original[..scan.records.len()],
                "{what}: accepted records are not a prefix of the originals"
            );
            assert_eq!(
                scan.valid_len + scan.truncated_bytes,
                bytes.len() as u64,
                "{what}: byte accounting leaks"
            );
        }
    }
}

#[test]
fn journal_truncations_replay_a_prefix_at_every_cut() {
    let b = journal_baseline();
    for len in 0..b.bytes.len() {
        match scan_journal(&b.bytes[..len]) {
            Ok(scan) => {
                assert_eq!(scan.records, b.records[..scan.records.len()]);
                assert_eq!(scan.valid_len + scan.truncated_bytes, len as u64);
                // A cut strictly inside record k's frame keeps records
                // 0..k; only a cut at a frame boundary keeps everything
                // scanned so far with no torn remainder.
                if scan.truncated_bytes == 0 {
                    assert_eq!(scan.valid_len, len as u64);
                }
            }
            // Every cut of a well-formed journal is a torn tail, never
            // corruption — even inside the 7-byte header (died
            // mid-create: empty scan).
            Err(e) => panic!("cut at {len} was rejected as corruption: {e}"),
        }
    }
}

#[test]
fn journal_bit_flips_never_panic_or_rewrite_history() {
    let b = journal_baseline();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut clean = 0usize;
    for round in 0..10_000 {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        let byte = (r as usize >> 8) % b.bytes.len();
        let bit = (r & 7) as u8;
        let mut mutated = b.bytes.clone();
        mutated[byte] ^= 1 << bit;
        if scan_journal(&mutated)
            .is_ok_and(|s| s.family == AddressFamily::V4 && s.records == b.records)
        {
            clean += 1;
        }
        assert_journal_contract(
            &mutated,
            &format!("journal bit flip #{round} (byte {byte} bit {bit})"),
        );
    }
    assert_eq!(
        clean, 0,
        "single-bit flips slipped past the record checksums"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary garbage never panics the journal scanner.
    #[test]
    fn journal_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..768)) {
        let _ = scan_journal(&bytes);
    }

    /// Multi-byte splices into a canonical journal keep the
    /// prefix-replay contract: damaged history shrinks, never mutates.
    #[test]
    fn journal_splices_keep_prefix_contract(
        offset in any::<u32>(),
        splice in proptest::collection::vec(any::<u8>(), 1..24),
    ) {
        let b = journal_baseline();
        let at = offset as usize % b.bytes.len();
        let mut mutated = b.bytes.clone();
        for (i, &v) in splice.iter().enumerate() {
            if at + i < mutated.len() {
                mutated[at + i] = v;
            }
        }
        assert_journal_contract(&mutated, "journal splice");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary garbage never panics the loader.
    #[test]
    fn random_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..768)) {
        let _ = HardwareImage::from_bytes(&bytes);
    }

    /// Garbage wearing the right magic and version still cannot panic
    /// or smuggle in a wrong-but-verifying engine.
    #[test]
    fn framed_garbage_never_panics(body in proptest::collection::vec(any::<u8>(), 0..768)) {
        let mut bytes = Vec::with_capacity(body.len() + 6);
        bytes.extend(*b"CHSL");
        bytes.extend(2u16.to_le_bytes());
        bytes.extend(&body);
        assert_contract(&bytes, "framed garbage");
    }

    /// Multi-byte splices into the canonical stream (a harsher model
    /// than single-bit flips) keep the load contract.
    #[test]
    fn spliced_corruption_keeps_contract(
        offset in any::<u32>(),
        splice in proptest::collection::vec(any::<u8>(), 1..24),
    ) {
        let b = baseline();
        let at = offset as usize % b.bytes.len();
        let mut mutated = b.bytes.clone();
        for (i, &v) in splice.iter().enumerate() {
            if at + i < mutated.len() {
                mutated[at + i] = v;
            }
        }
        assert_contract(&mutated, "splice");
    }
}
