//! Hardware memory images.
//!
//! The paper's deployment model (Section 4.4) keeps a software shadow on
//! the line card and loads "the new memory contents … into the hardware
//! engine". A [`HardwareImage`] is exactly that payload: the raw words of
//! every Index / Filter / Bit-vector / Result table plus the hash-unit
//! configuration — nothing else. `HardwareImage::lookup` executes the
//! Figure 6 data path *purely from the image*, which both documents the
//! hardware table layout and proves the image is complete (the test
//! suite replays lookups against the live engine).
//!
//! # Wire format (version 2)
//!
//! The byte stream a line card would DMA is framed for corruption
//! rejection: a 4-byte magic, a little-endian `u16` format version, then
//! one *section* per logical unit — a header section (family, default
//! route, cell count) followed by one section per sub-cell. Each section
//! is `u64` body length, `u32` FNV-1a checksum of the body, body bytes.
//! [`HardwareImage::from_bytes`] verifies every checksum, bounds every
//! declared length against the remaining bytes *before* allocating, and
//! rejects trailing garbage, so a bit flip anywhere in the stream yields
//! a typed [`ImageError`] rather than a panic or a silently wrong engine.

use chisel_bloomier::{index_xor_lookup, PackedWords};
use chisel_hash::HashFamily;
use chisel_prefix::bits::extract_msb;
use chisel_prefix::{AddressFamily, Key, NextHop};

use crate::bitvector::LeafVector;

/// Magic bytes opening every serialized image.
const MAGIC: [u8; 4] = *b"CHSL";

/// Current wire-format version. Version 1 was the unframed stream
/// without magic, version, or checksums; loaders reject anything else.
pub const FORMAT_VERSION: u16 = 2;

/// Why a serialized image was rejected by [`HardwareImage::from_bytes`].
///
/// Every variant is a *rejection*, never a panic: the loader treats the
/// input as untrusted line-card DMA and refuses to construct an engine
/// from bytes it cannot fully validate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ImageError {
    /// The stream ended before the named field could be read.
    Truncated {
        /// Field being decoded when the bytes ran out.
        what: &'static str,
    },
    /// The stream does not open with the `CHSL` magic.
    BadMagic,
    /// The stream declares a format version this loader does not speak.
    UnsupportedVersion {
        /// The declared version.
        version: u16,
    },
    /// A section body does not hash to its stored checksum.
    ChecksumMismatch {
        /// Which section failed verification.
        section: &'static str,
    },
    /// A field decoded but holds a value no valid engine can produce
    /// (out-of-range geometry, invalid flag combination, stray bits).
    Malformed {
        /// The offending field.
        what: &'static str,
    },
    /// An Index Table partition declares a layout other than the flat
    /// one (tag 0). Tag 1 marks the retired cache-line-blocked layout
    /// that older images and checkpoints carry; such a stream must be
    /// rebuilt from its routing table, not reinterpreted.
    UnsupportedLayoutTag {
        /// The layout tag the stream declares.
        tag: u8,
    },
}

impl std::fmt::Display for ImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageError::Truncated { what } => {
                write!(f, "image truncated while reading {what}")
            }
            ImageError::BadMagic => write!(f, "image does not start with CHSL magic"),
            ImageError::UnsupportedVersion { version } => {
                write!(f, "unsupported image format version {version}")
            }
            ImageError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in {section} section")
            }
            ImageError::Malformed { what } => write!(f, "malformed image field: {what}"),
            ImageError::UnsupportedLayoutTag { tag } => write!(
                f,
                "index layout tag {tag} is not supported (only the flat layout, \
                 tag 0, loads); rebuild the image from its routing table"
            ),
        }
    }
}

impl std::error::Error for ImageError {}

/// One Index Table partition: its memory words and its hash unit.
#[derive(Debug, Clone)]
pub struct IndexPartImage {
    /// The XOR-encoded pointer entries, bit-packed at `w` bits each —
    /// exactly the hardware memory layout of the Section 5 storage model.
    pub words: PackedWords,
    /// The partition's `k` hash functions.
    pub family: HashFamily,
}

/// One Filter Table word: the stored key plus the valid and dirty bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterWord {
    /// The collapsed key.
    pub key: u128,
    /// Slot holds a live entry.
    pub valid: bool,
    /// Entry withdrawn but retained for route-flap absorption.
    pub dirty: bool,
}

/// One Bit-vector Table word: the leaf vector and its Result Table
/// pointer (absent when the group covers no leaf).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitVectorWord {
    /// The `2^stride`-bit leaf vector.
    pub vector: LeafVector,
    /// Base address of the group's Result Table block.
    pub pointer: Option<u32>,
}

/// One sub-cell's memories.
#[derive(Debug, Clone)]
pub struct CellImage {
    /// Collapsed base length.
    pub base: u8,
    /// Collapse stride.
    pub stride: u8,
    /// Partition-selector hash unit.
    pub selector: HashFamily,
    /// Index Table partitions.
    pub index_parts: Vec<IndexPartImage>,
    /// Filter Table words.
    pub filter: Vec<FilterWord>,
    /// Bit-vector Table words (parallel to `filter`).
    pub bitvec: Vec<BitVectorWord>,
    /// Off-chip Result Table words (next-hop ids).
    pub result: Vec<u32>,
    /// Spillover TCAM contents: `(collapsed key, slot)`.
    pub spill: Vec<(u128, u32)>,
}

/// A complete engine memory image.
#[derive(Debug, Clone)]
pub struct HardwareImage {
    /// Address family served.
    pub family: AddressFamily,
    /// Sub-cell images, ascending base length.
    pub cells: Vec<CellImage>,
    /// The default route register.
    pub default_route: Option<NextHop>,
}

impl HardwareImage {
    /// Executes a lookup purely from the image, mirroring the hardware
    /// data path of Figure 6.
    ///
    /// The path is total: an inconsistent image (stale pointer, slot past
    /// the Filter Table, leaf past the vector) makes the cell miss rather
    /// than panic, because a loaded image is line-card state, not a
    /// trusted in-process engine.
    pub fn lookup(&self, key: Key) -> Option<NextHop> {
        debug_assert_eq!(key.family(), self.family);
        let width = self.family.width();
        for cell in self.cells.iter().rev() {
            let collapsed = extract_msb(key.value(), width, 0, cell.base);
            // Spillover TCAM first, then the partitioned Index Table.
            let slot = match cell.spill.iter().find(|&&(k, _)| k == collapsed) {
                Some(&(_, s)) => s,
                None => {
                    // One pass of the hash unit: the selector and every
                    // partition share the digest front end, so the key is
                    // digested once and each probe is a cheap derivation.
                    let d = cell.index_parts.len();
                    let digest = cell.selector.digest(collapsed);
                    let Some(part) = cell
                        .index_parts
                        .get(cell.selector.hash_one_digest(0, digest, d))
                    else {
                        continue;
                    };
                    // The shared XOR datapath keeps the replay bit-exact
                    // with the live engine.
                    index_xor_lookup(&part.family, &part.words, digest) as u32
                }
            };
            let Some(fw) = cell.filter.get(slot as usize) else {
                continue;
            };
            if !fw.valid || fw.dirty || fw.key != collapsed {
                continue;
            }
            let Some(bw) = cell.bitvec.get(slot as usize) else {
                continue;
            };
            let leaf = extract_msb(key.value(), width, cell.base, cell.stride) as usize;
            if leaf >= bw.vector.leaves() || !bw.vector.get(leaf) {
                continue;
            }
            let rank = bw.vector.rank(leaf);
            let Some(ptr) = bw.pointer else {
                continue;
            };
            let Some(&hop) = cell.result.get(ptr as usize + (rank - 1)) else {
                continue;
            };
            return Some(NextHop::new(hop));
        }
        self.default_route
    }

    /// Total image payload in bits, charging each table its hardware
    /// word width (index: `w` packed pointer bits per entry; filter: key +
    /// 2 flag bits; bit-vector: `2^stride` + pointer bits; result: 32-bit
    /// next hops).
    pub fn payload_bits(&self) -> u64 {
        use chisel_prefix::bits::addr_bits;
        let mut total = 0u64;
        for cell in &self.cells {
            total += cell
                .index_parts
                .iter()
                .map(|p| p.words.logical_bits())
                .sum::<u64>();
            total += cell.filter.len() as u64 * (self.family.width() as u64 + 2);
            let rptr = addr_bits(cell.result.len().max(2)) as u64;
            total += cell.bitvec.len() as u64 * ((1u64 << cell.stride) + rptr);
            total += cell.result.len() as u64 * 32;
        }
        total
    }

    /// Serializes every table word into one canonical little-endian byte
    /// stream in the framed, checksummed version-2 format. Two engines
    /// whose hardware state is identical produce identical bytes — the
    /// determinism suite compares parallel and serial builds through
    /// this.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend(MAGIC);
        out.extend(FORMAT_VERSION.to_le_bytes());
        let mut header = Vec::new();
        header.push(match self.family {
            AddressFamily::V4 => 4u8,
            AddressFamily::V6 => 6u8,
        });
        push_opt_u32(&mut header, self.default_route.map(|nh| nh.id()));
        header.extend((self.cells.len() as u32).to_le_bytes());
        push_section(&mut out, &header);
        for cell in &self.cells {
            let mut body = Vec::new();
            body.push(cell.base);
            body.push(cell.stride);
            push_family(&mut body, &cell.selector);
            body.extend((cell.index_parts.len() as u32).to_le_bytes());
            for part in &cell.index_parts {
                push_family(&mut body, &part.family);
                body.extend(part.words.value_bits().to_le_bytes());
                // Layout section: a tag byte plus a `u32` of entries per
                // block. Only the flat layout (tag 0, zero block entries)
                // is written or loaded; the fields stay on the wire so a
                // stream in the retired blocked layout (tag 1) is named
                // and rejected rather than misread.
                body.push(0);
                body.extend(0u32.to_le_bytes());
                body.extend((part.words.len() as u64).to_le_bytes());
                for w in part.words.backing_words() {
                    body.extend(w.to_le_bytes());
                }
            }
            body.extend((cell.filter.len() as u64).to_le_bytes());
            for f in &cell.filter {
                body.extend(f.key.to_le_bytes());
                body.push(u8::from(f.valid) | (u8::from(f.dirty) << 1));
            }
            for b in &cell.bitvec {
                push_opt_u32(&mut body, b.pointer);
                for w in b.vector.words() {
                    body.extend(w.to_le_bytes());
                }
            }
            body.extend((cell.result.len() as u64).to_le_bytes());
            for r in &cell.result {
                body.extend(r.to_le_bytes());
            }
            body.extend((cell.spill.len() as u32).to_le_bytes());
            for &(k, s) in &cell.spill {
                body.extend(k.to_le_bytes());
                body.extend(s.to_le_bytes());
            }
            push_section(&mut out, &body);
        }
        out
    }

    /// Deserializes a byte stream produced by [`HardwareImage::to_bytes`],
    /// treating it as untrusted: every length is bounded against the
    /// remaining input before allocation, every checksum is verified,
    /// every geometry field is range-checked against what a real engine
    /// can emit, and trailing bytes anywhere are rejected. Corrupt input
    /// yields a typed [`ImageError`]; this function never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<HardwareImage, ImageError> {
        let mut r = Reader::new(bytes);
        if r.take(4, "magic")? != MAGIC {
            return Err(ImageError::BadMagic);
        }
        let version = r.u16("version")?;
        if version != FORMAT_VERSION {
            return Err(ImageError::UnsupportedVersion { version });
        }
        let mut h = r.section("header")?;
        let family = match h.u8("family")? {
            4 => AddressFamily::V4,
            6 => AddressFamily::V6,
            _ => return Err(ImageError::Malformed { what: "family" }),
        };
        let default_route = read_opt_u32(&mut h, "default route")?.map(NextHop::new);
        let ncells = h.u32("cell count")? as usize;
        h.finish("header")?;
        if ncells > 256 {
            return Err(ImageError::Malformed { what: "cell count" });
        }
        let mut cells = Vec::with_capacity(ncells);
        for _ in 0..ncells {
            let body = r.section("cell")?;
            cells.push(read_cell(body, family)?);
        }
        r.finish("image")?;
        Ok(HardwareImage {
            family,
            cells,
            default_route,
        })
    }
}

/// FNV-1a over a section body: cheap, dependency-free, and plenty to
/// catch the bit flips and truncations a DMA transfer can suffer (this
/// is an integrity check, not an authenticity one). Shared with the
/// update journal (`crate::journal`), which frames its records with the
/// same discipline.
pub(crate) fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h = 0x811C_9DC5u32;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

fn push_section(out: &mut Vec<u8>, body: &[u8]) {
    out.extend((body.len() as u64).to_le_bytes());
    out.extend(fnv1a32(body).to_le_bytes());
    out.extend_from_slice(body);
}

fn push_opt_u32(out: &mut Vec<u8>, v: Option<u32>) {
    match v {
        Some(v) => {
            out.push(1);
            out.extend(v.to_le_bytes());
        }
        None => out.push(0),
    }
}

fn push_family(out: &mut Vec<u8>, family: &HashFamily) {
    out.extend((family.k() as u32).to_le_bytes());
    out.extend(family.seed().to_le_bytes());
    // The digest front end is configured independently of the derived
    // mixers (shared across a cell's partitions), so it is part of the
    // hash unit's state and must be in the canonical stream.
    out.extend(family.digest_seed().to_le_bytes());
}

/// Bounds-checked little-endian cursor over untrusted bytes. Every read
/// is fallible; nothing indexes past the slice.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], ImageError> {
        if n > self.remaining() {
            return Err(ImageError::Truncated { what });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, ImageError> {
        Ok(self.take(1, what)?[0])
    }

    fn u16(&mut self, what: &'static str) -> Result<u16, ImageError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, ImageError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, ImageError> {
        let b = self.take(8, what)?;
        let mut w = [0u8; 8];
        w.copy_from_slice(b);
        Ok(u64::from_le_bytes(w))
    }

    fn u128(&mut self, what: &'static str) -> Result<u128, ImageError> {
        let b = self.take(16, what)?;
        let mut w = [0u8; 16];
        w.copy_from_slice(b);
        Ok(u128::from_le_bytes(w))
    }

    /// Reads a declared length, refusing counts the remaining bytes
    /// cannot possibly satisfy at `elem_bytes` per element — the guard
    /// that keeps a corrupted length field from driving a huge
    /// allocation before the stream runs dry.
    fn len(&mut self, elem_bytes: usize, what: &'static str) -> Result<usize, ImageError> {
        let n = self.u64(what)?;
        let n = usize::try_from(n).map_err(|_| ImageError::Truncated { what })?;
        match n.checked_mul(elem_bytes) {
            Some(total) if total <= self.remaining() => Ok(n),
            _ => Err(ImageError::Truncated { what }),
        }
    }

    /// Reads one section frame (length, checksum, body), verifies the
    /// checksum, and returns a cursor over the body.
    fn section(&mut self, what: &'static str) -> Result<Reader<'a>, ImageError> {
        let n = self.u64(what)?;
        let n = usize::try_from(n).map_err(|_| ImageError::Truncated { what })?;
        let sum = self.u32(what)?;
        let body = self.take(n, what)?;
        if fnv1a32(body) != sum {
            return Err(ImageError::ChecksumMismatch { section: what });
        }
        Ok(Reader::new(body))
    }

    /// Rejects trailing bytes — a frame that decodes but has leftover
    /// input is corrupt, not generously padded.
    fn finish(&self, what: &'static str) -> Result<(), ImageError> {
        if self.remaining() != 0 {
            return Err(ImageError::Malformed { what });
        }
        Ok(())
    }
}

fn read_opt_u32(r: &mut Reader<'_>, what: &'static str) -> Result<Option<u32>, ImageError> {
    match r.u8(what)? {
        0 => Ok(None),
        1 => Ok(Some(r.u32(what)?)),
        _ => Err(ImageError::Malformed { what }),
    }
}

fn read_family(r: &mut Reader<'_>, what: &'static str) -> Result<HashFamily, ImageError> {
    let k = r.u32(what)? as usize;
    if !(1..=64).contains(&k) {
        return Err(ImageError::Malformed { what });
    }
    let seed = r.u64(what)?;
    let digest_seed = r.u64(what)?;
    Ok(HashFamily::with_shared_digest(k, digest_seed, seed))
}

fn read_cell(mut r: Reader<'_>, family: AddressFamily) -> Result<CellImage, ImageError> {
    let width = family.width() as usize;
    let base = r.u8("cell base")?;
    let stride = r.u8("cell stride")?;
    // `extract_msb` requires base + stride <= width; LeafVector bounds
    // stride itself, but reject early so geometry errors name the field.
    if base as usize + stride as usize > width || stride > 24 {
        return Err(ImageError::Malformed {
            what: "cell geometry",
        });
    }
    let selector = read_family(&mut r, "selector hash unit")?;
    let nparts = r.u32("partition count")? as usize;
    if nparts == 0 || nparts > 4096 {
        return Err(ImageError::Malformed {
            what: "partition count",
        });
    }
    let mut index_parts = Vec::with_capacity(nparts);
    for _ in 0..nparts {
        let part_family = read_family(&mut r, "partition hash unit")?;
        let value_bits = r.u32("index entry width")?;
        if !(1..=64).contains(&value_bits) {
            return Err(ImageError::Malformed {
                what: "index entry width",
            });
        }
        let tag = r.u8("index layout")?;
        if tag != 0 {
            return Err(ImageError::UnsupportedLayoutTag { tag });
        }
        if r.u32("index block entries")? != 0 {
            return Err(ImageError::Malformed {
                what: "index block entries",
            });
        }
        let len = r.len(0, "index length")?;
        let nwords = len
            .checked_mul(value_bits as usize)
            .map(|bits| bits.div_ceil(64))
            .ok_or(ImageError::Malformed {
                what: "index length",
            })?;
        if nwords.checked_mul(8).is_none_or(|b| b > r.remaining()) {
            return Err(ImageError::Truncated {
                what: "index words",
            });
        }
        let mut raw = Vec::with_capacity(nwords);
        for _ in 0..nwords {
            raw.push(r.u64("index words")?);
        }
        let words = PackedWords::from_backing_words(len, value_bits, &raw).ok_or(
            ImageError::Malformed {
                what: "index words",
            },
        )?;
        index_parts.push(IndexPartImage {
            words,
            family: part_family,
        });
    }
    let flen = r.len(17, "filter length")?;
    let mut filter = Vec::with_capacity(flen);
    for _ in 0..flen {
        let key = r.u128("filter key")?;
        let flags = r.u8("filter flags")?;
        // Bits beyond valid|dirty must be clear, and a dirty bit without
        // its valid bit names a state no engine transition produces.
        if flags & !3 != 0 || flags == 2 {
            return Err(ImageError::Malformed {
                what: "filter flags",
            });
        }
        filter.push(FilterWord {
            key,
            valid: flags & 1 != 0,
            dirty: flags & 2 != 0,
        });
    }
    let vec_words = (1usize << stride).div_ceil(64);
    let mut bitvec = Vec::with_capacity(flen);
    for _ in 0..flen {
        let pointer = read_opt_u32(&mut r, "bit-vector pointer")?;
        if vec_words.checked_mul(8).is_none_or(|b| b > r.remaining()) {
            return Err(ImageError::Truncated {
                what: "bit-vector words",
            });
        }
        let mut raw = Vec::with_capacity(vec_words);
        for _ in 0..vec_words {
            raw.push(r.u64("bit-vector words")?);
        }
        let vector = LeafVector::from_words(stride, &raw).ok_or(ImageError::Malformed {
            what: "bit-vector words",
        })?;
        bitvec.push(BitVectorWord { vector, pointer });
    }
    let rlen = r.len(4, "result length")?;
    let mut result = Vec::with_capacity(rlen);
    for _ in 0..rlen {
        result.push(r.u32("result words")?);
    }
    let slen = r.u32("spill count")? as usize;
    if slen.checked_mul(20).is_none_or(|b| b > r.remaining()) {
        return Err(ImageError::Truncated {
            what: "spill entries",
        });
    }
    let mut spill = Vec::with_capacity(slen);
    for _ in 0..slen {
        let key = r.u128("spill key")?;
        let slot = r.u32("spill slot")?;
        if slot as usize >= flen {
            return Err(ImageError::Malformed { what: "spill slot" });
        }
        spill.push((key, slot));
    }
    r.finish("cell")?;
    Ok(CellImage {
        base,
        stride,
        selector,
        index_parts,
        filter,
        bitvec,
        result,
        spill,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChiselConfig, ChiselLpm};
    use chisel_prefix::{NextHop, Prefix, RoutingTable};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_engine(seed: u64, n: usize) -> ChiselLpm {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = RoutingTable::new_v4();
        while t.len() < n {
            let len = rng.gen_range(1..=32u8);
            let bits = rng.gen::<u128>() & chisel_prefix::bits::mask(len);
            t.insert(
                Prefix::new(AddressFamily::V4, bits, len).unwrap(),
                NextHop::new(rng.gen_range(0..256)),
            );
        }
        ChiselLpm::build(&t, ChiselConfig::ipv4()).unwrap()
    }

    #[test]
    fn image_replays_engine_lookups() {
        let engine = random_engine(1, 3_000);
        let image = engine.export_image();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..20_000 {
            let key = Key::from_raw(AddressFamily::V4, rng.gen::<u32>() as u128);
            assert_eq!(
                image.lookup(key),
                engine.lookup(key),
                "image diverged at {key}"
            );
        }
    }

    #[test]
    fn image_survives_updates() {
        let mut engine = random_engine(3, 1_000);
        let mut rng = StdRng::seed_from_u64(4);
        for i in 0..2_000u32 {
            let len = rng.gen_range(1..=32u8);
            let bits = rng.gen::<u128>() & chisel_prefix::bits::mask(len);
            let p = Prefix::new(AddressFamily::V4, bits, len).unwrap();
            if rng.gen_bool(0.4) {
                engine.withdraw(p).unwrap();
            } else {
                engine.announce(p, NextHop::new(i)).unwrap();
            }
        }
        let image = engine.export_image();
        for _ in 0..10_000 {
            let key = Key::from_raw(AddressFamily::V4, rng.gen::<u32>() as u128);
            assert_eq!(image.lookup(key), engine.lookup(key));
        }
    }

    #[test]
    fn payload_accounting_nonzero_and_monotone() {
        let small = random_engine(5, 500).export_image();
        let large = random_engine(5, 4_000).export_image();
        assert!(small.payload_bits() > 0);
        assert!(large.payload_bits() > small.payload_bits());
    }

    #[test]
    fn default_route_in_image() {
        let mut t = RoutingTable::new_v4();
        t.insert(Prefix::default_route(AddressFamily::V4), NextHop::new(9));
        let engine = ChiselLpm::build(&t, ChiselConfig::ipv4()).unwrap();
        let image = engine.export_image();
        assert_eq!(
            image.lookup("1.2.3.4".parse().unwrap()),
            Some(NextHop::new(9))
        );
    }

    #[test]
    fn bytes_round_trip_exactly() {
        let engine = random_engine(7, 1_500);
        let image = engine.export_image();
        let bytes = image.to_bytes();
        let loaded = HardwareImage::from_bytes(&bytes).expect("canonical bytes load");
        assert_eq!(loaded.to_bytes(), bytes, "round trip must be byte-exact");
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..10_000 {
            let key = Key::from_raw(AddressFamily::V4, rng.gen::<u32>() as u128);
            assert_eq!(loaded.lookup(key), engine.lookup(key));
        }
    }

    #[test]
    fn loader_rejects_bad_magic_and_version() {
        let bytes = random_engine(9, 200).export_image().to_bytes();
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(
            HardwareImage::from_bytes(&bad).unwrap_err(),
            ImageError::BadMagic
        );
        let mut old = bytes.clone();
        old[4] = 1;
        old[5] = 0;
        assert_eq!(
            HardwareImage::from_bytes(&old).unwrap_err(),
            ImageError::UnsupportedVersion { version: 1 }
        );
        assert_eq!(
            HardwareImage::from_bytes(&bytes[..3]).unwrap_err(),
            ImageError::Truncated { what: "magic" }
        );
    }

    #[test]
    fn loader_rejects_checksum_damage_and_trailing_bytes() {
        let bytes = random_engine(10, 200).export_image().to_bytes();
        // Flip one byte inside the header section body (magic 4 +
        // version 2 + frame 12 puts the body at offset 18).
        let mut flipped = bytes.clone();
        flipped[18] ^= 0x40;
        assert_eq!(
            HardwareImage::from_bytes(&flipped).unwrap_err(),
            ImageError::ChecksumMismatch { section: "header" }
        );
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(
            HardwareImage::from_bytes(&padded).unwrap_err(),
            ImageError::Malformed { what: "image" }
        );
    }
}
