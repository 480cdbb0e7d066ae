//! Persistent log entries shared by undo logs (the `libpmemobj` baseline),
//! redo logs (Pangolin and allocator metadata), and allocation intents.
//!
//! Every entry is checksummed and tagged with the owning lane's generation
//! number (paper §3.4: "Pangolin garbage-collects its logs" — the
//! collection is logical). A lane's log starts at entry 0 and is the run
//! of entries that carry one generation `g`, which the tag of entry 0
//! names relative to the lane header word `h` ([`resolve_gen`]): a lane
//! writes its logs under `[h, h + GEN_LIVE)`, and a tag that maps past
//! that names an entry 0 left below the header, refused by its tag alone
//! (its payload is never read). A lane's next log overwrites entry 0
//! under `g + 1`, so a log dies either when the lane writes its next one
//! or when the header rises past `g` ([`crate::lane`] says who raises it
//! and when). A torn entry fails its checksum and terminates log replay,
//! which is exactly the commit-record protocol's requirement.
//!
//! # Entry layout
//!
//! An entry is a 16-byte [`EntryHeader`] followed by its payload, padded
//! to 8 bytes:
//!
//! | bytes | field |
//! |---|---|
//! | 0..8 | one word: target offset (bits 0–47), kind (48–51), commit flag (52), generation tag (53–63) |
//! | 8..12 | payload length (`u32`) |
//! | 12..16 | CRC32 |
//!
//! The tag is the low [`GEN_TAG_BITS`] bits of the lane generation the
//! entry was written under; the CRC covers the payload, then the *full*
//! 64-bit generation, then the header's first 12 bytes (as `libpmemobj`'s
//! ulog folds `gen_num` into its entry checksum after the entry). The
//! generation and the header go last, 20 bytes together, so that setting
//! the commit flag on a staged entry re-CRCs those 20 bytes from the
//! payload's CRC, whatever the payload's size.
//!
//! **Commit.** The last entry of a committed log carries the commit flag:
//! the transaction sets it on its last staged entry
//! ([`crate::lane::LaneHandle::persist_commit`]) and appends a payload-less
//! [`EntryKind::Commit`] entry (which always carries the flag) only when
//! nothing is staged. A walk stops at the first flagged entry, and a log
//! is committed iff its walk ends on one ([`is_committed`]). A torn
//! earlier entry ends the walk before the flag, so that log is not
//! committed.
//!
//! **Stale entries.** An entry of another generation `g'` of the same
//! lane is rejected by its tag unless `g' ≡ g (mod 2^11)`, and then by its
//! CRC: two CRCs of the same bytes folded with `g` and with `g'` differ by
//! the CRC's linear part of `g ⊕ g'` followed by zeros, which vanishes
//! only if the CRC polynomial divides `g ⊕ g'` — a polynomial whose set
//! bits span at least 33 positions. With the low 11 bits equal, that
//! needs a set bit at or above bit 43. Lane generations start at 1 and
//! grow by one per transaction, so no stale entry is ever accepted before
//! a lane has run 2^43 transactions; past that, a stale entry that also
//! sits exactly on an entry boundary of the current log is accepted with
//! probability about 2^-32 (the CRC's ordinary residual). The same
//! argument refuses an entry 0 left more than [`GEN_LIVE`] generations
//! below the header, whose tag maps into the lane's live half: its CRC
//! fails.

use pgl_nvm::impl_pod;
use pgl_nvm::pod::{bytes_of, from_bytes};

use crate::error::Result;
use crate::util::{crc32, crc32_seed};

/// On-media entry header (16 bytes), followed by the payload padded to 8
/// bytes. See the module docs for the layout of [`EntryHeader::word`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct EntryHeader {
    /// Target offset, kind, commit flag and generation tag.
    pub word: u64,
    /// Payload length in bytes (unpadded).
    pub len: u32,
    /// CRC32 of the payload, the full generation and the header's first
    /// 12 bytes (see [`seal`]).
    pub csum: u32,
}
impl_pod!(EntryHeader, 16);

/// Size of the on-media entry header.
pub const ENTRY_HEADER_SIZE: u64 = 16;

/// Bits of the lane generation an entry header carries as its tag.
pub const GEN_TAG_BITS: u32 = 11;

/// Generations the tags map onto relative to a lane header word `h`:
/// `[h, h + GEN_WINDOW)`, one per tag value.
pub const GEN_WINDOW: u64 = 1 << GEN_TAG_BITS;

/// Generations a lane writes its logs under: `[h, h + GEN_LIVE)`. A tag
/// that maps to the upper half of the window names a generation up to
/// `GEN_LIVE` below the header (a retired log's entry 0).
pub const GEN_LIVE: u64 = GEN_WINDOW / 2;

/// Largest target offset an entry can name (48 bits).
const MAX_ENTRY_OFF: u64 = (1 << 48) - 1;

const KIND_SHIFT: u32 = 48;
const COMMIT_BIT: u64 = 1 << 52;
const TAG_SHIFT: u32 = 53;

/// The header tag of generation `gen`.
#[inline]
fn gen_tag(gen: u64) -> u64 {
    gen & ((1 << GEN_TAG_BITS) - 1)
}

impl EntryHeader {
    /// A header with its CRC still zero (see [`seal`]).
    pub fn new(kind: EntryKind, off: u64, commit: bool, gen: u64, len: u32) -> EntryHeader {
        assert!(off <= MAX_ENTRY_OFF, "log target {off:#x} does not fit 48 bits");
        let word = off
            | (kind as u64) << KIND_SHIFT
            | if commit { COMMIT_BIT } else { 0 }
            | gen_tag(gen) << TAG_SHIFT;
        EntryHeader { word, len, csum: 0 }
    }

    /// Target pool offset.
    fn off(&self) -> u64 {
        self.word & MAX_ENTRY_OFF
    }

    /// The raw 4-bit kind.
    fn kind_bits(&self) -> u64 {
        (self.word >> KIND_SHIFT) & 0xF
    }

    /// Whether the entry carries the commit flag.
    fn commit(&self) -> bool {
        self.word & COMMIT_BIT != 0
    }

    /// The generation tag.
    fn tag(&self) -> u64 {
        self.word >> TAG_SHIFT
    }
}

/// Sets `hdr.csum`: the entry's payload CRC (`payload_crc`, its
/// [`crc32`]) continued over the full generation `gen` and the header's
/// first 12 bytes.
#[inline]
pub fn seal(hdr: &mut EntryHeader, payload_crc: u32, gen: u64) {
    let mut tail = [0u8; 20];
    tail[..8].copy_from_slice(&gen.to_le_bytes());
    tail[8..].copy_from_slice(&bytes_of(hdr)[..12]);
    hdr.csum = crc32_seed(payload_crc, &tail);
}

/// Log entry kinds (a 4-bit field of the header word).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EntryKind {
    /// Object data: old content for undo logs, new content for redo logs.
    Data = 1,
    /// OR a mask into the bitmap word at `off` (allocation publish).
    SetBits = 2,
    /// AND-NOT a mask into the bitmap word at `off` (free publish).
    ClearBits = 3,
    /// Overwrite the 16-byte chunk-metadata entry at `off`.
    WriteCm = 4,
    /// Format a run header at chunk base `off` (payload: block size, count).
    RunFmt = 5,
    /// Pangolin: a region at `off` (payload: length) is being constructed
    /// outside the log; recovery must recompute its parity columns.
    AllocIntent = 6,
    /// Standalone commit record, for a commit with no staged entry to
    /// carry the flag: all preceding entries are intended to be applied.
    /// Always flagged.
    Commit = 7,
    /// Log continuation: the log continues in an overflow heap chunk
    /// (payload: primary offset, replica offset or 0, capacity).
    LogExt = 8,
    /// Cross-shard commit marker (Pangolin sharded parity domains): this
    /// committed lane also covers the entries of a *secondary* lane
    /// (payload: lane index, expected generation). Recovery rolls the
    /// secondary's entries forward iff its generation still matches —
    /// the ordered two-shard commit writes the secondary's own commit
    /// only after this lane's commit fence.
    CrossShard = 9,
}

impl EntryKind {
    fn from_bits(v: u64) -> Option<EntryKind> {
        Some(match v {
            1 => EntryKind::Data,
            2 => EntryKind::SetBits,
            3 => EntryKind::ClearBits,
            4 => EntryKind::WriteCm,
            5 => EntryKind::RunFmt,
            6 => EntryKind::AllocIntent,
            7 => EntryKind::Commit,
            8 => EntryKind::LogExt,
            9 => EntryKind::CrossShard,
            _ => return None,
        })
    }

    /// The payload length every entry of this kind carries, `None` for
    /// [`EntryKind::Data`] (any length).
    fn payload_len(self) -> Option<usize> {
        match self {
            EntryKind::Data => None,
            EntryKind::Commit => Some(0),
            EntryKind::SetBits
            | EntryKind::ClearBits
            | EntryKind::RunFmt
            | EntryKind::AllocIntent => Some(8),
            EntryKind::CrossShard => Some(12),
            EntryKind::WriteCm => Some(16),
            EntryKind::LogExt => Some(24),
        }
    }
}

/// A decoded log entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Entry kind.
    pub kind: EntryKind,
    /// Target pool offset.
    pub off: u64,
    /// Whether the entry carries the commit flag (it ends its log).
    pub commit: bool,
    /// Payload bytes (length as written, unpadded).
    pub payload: Vec<u8>,
}

/// Bytes an entry with `payload_len` occupies in the log (header plus
/// payload padded to 8 bytes).
#[inline]
pub fn entry_space(payload_len: usize) -> u64 {
    ENTRY_HEADER_SIZE + ((payload_len as u64 + 7) & !7)
}

/// Serializes an entry onto the end of `out` (the lane's staged log tail);
/// `gen` tags it to the owning lane generation. A [`EntryKind::Commit`]
/// entry carries the commit flag, any other kind does not (see
/// [`set_commit`]). Returns the payload's CRC, which [`set_commit`] takes.
pub fn encode_entry(out: &mut Vec<u8>, kind: EntryKind, off: u64, payload: &[u8], gen: u64) -> u32 {
    let mut hdr = EntryHeader::new(kind, off, kind == EntryKind::Commit, gen, payload.len() as u32);
    let crc = crc32(payload);
    seal(&mut hdr, crc, gen);
    let end = out.len() + entry_space(payload.len()) as usize;
    out.extend_from_slice(bytes_of(&hdr));
    out.extend_from_slice(payload);
    out.resize(end, 0); // pad to 8 bytes
    crc
}

/// Sets the commit flag on the encoded entry of generation `gen` starting
/// at `entry` and re-CRCs its header from the payload CRC that
/// [`encode_entry`] returned: the payload is not read again.
pub fn set_commit(entry: &mut [u8], payload_crc: u32, gen: u64) {
    let mut hdr: EntryHeader = from_bytes(&entry[..ENTRY_HEADER_SIZE as usize]);
    hdr.word |= COMMIT_BIT;
    seal(&mut hdr, payload_crc, gen);
    entry[..ENTRY_HEADER_SIZE as usize].copy_from_slice(bytes_of(&hdr));
}

/// The generation a log whose entry 0 is the header at `bytes` was
/// written under, given lane header word `base`: the one in
/// `[base, base + GEN_LIVE)` whose tag it carries. `None` when the tag
/// maps past that (an entry left below the header) or `bytes` is shorter
/// than a header word: no log. Only a generation, not a verdict: the
/// entry is still decoded (and its CRC checked) under it.
pub fn resolve_gen(bytes: &[u8], base: u64) -> Option<u64> {
    let word = u64::from_le_bytes(bytes.get(..8)?.try_into().expect("8 bytes"));
    let ahead = (word >> TAG_SHIFT).wrapping_sub(base) & (GEN_WINDOW - 1);
    (ahead < GEN_LIVE).then_some(base + ahead)
}

/// Parses the header at `bytes` if it can start an entry of `gen`: the
/// generation's tag, a known kind, for a fixed-size kind exactly its
/// payload length, and the flag on a standalone commit.
fn header_for(bytes: &[u8], gen: u64) -> Option<(EntryHeader, EntryKind)> {
    if bytes.len() < ENTRY_HEADER_SIZE as usize {
        return None;
    }
    let hdr: EntryHeader = from_bytes(&bytes[..ENTRY_HEADER_SIZE as usize]);
    if hdr.tag() != gen_tag(gen) {
        return None;
    }
    let kind = EntryKind::from_bits(hdr.kind_bits())?;
    let sized = kind.payload_len().is_none_or(|len| len == hdr.len as usize);
    let flagged = kind != EntryKind::Commit || hdr.commit();
    (sized && flagged).then_some((hdr, kind))
}

/// Bytes a reader must hold at an entry boundary before [`decode_entry`]
/// can decide it: a header's worth when `bytes` is shorter than one, the
/// whole entry's space when the header can start an entry of `gen`, and
/// `None` when it cannot (the end of the log). A windowed log scan uses
/// this to tell "cut by my window" from "log ends here".
pub fn entry_need(bytes: &[u8], gen: u64) -> Option<u64> {
    if bytes.len() < ENTRY_HEADER_SIZE as usize {
        return Some(ENTRY_HEADER_SIZE);
    }
    header_for(bytes, gen).map(|(hdr, _)| entry_space(hdr.len as usize))
}

/// Decodes the entry at `bytes` (which must start at an entry boundary).
///
/// Returns `Ok(None)` if the bytes do not form a valid entry for `gen`
/// (wrong generation tag, bad kind, a fixed-size kind with the wrong
/// payload length, an unflagged commit, bad checksum, or truncated) — the
/// normal "end of log" condition. A decoded entry's payload therefore
/// always has the length its kind's `payload::parse_*` helper expects.
pub fn decode_entry(bytes: &[u8], gen: u64) -> Result<Option<(Entry, u64)>> {
    let Some((hdr, kind)) = header_for(bytes, gen) else {
        return Ok(None);
    };
    let space = entry_space(hdr.len as usize);
    if (bytes.len() as u64) < space {
        return Ok(None);
    }
    let payload = &bytes[ENTRY_HEADER_SIZE as usize..ENTRY_HEADER_SIZE as usize + hdr.len as usize];
    let mut check = hdr;
    seal(&mut check, crc32(payload), gen);
    if check.csum != hdr.csum {
        return Ok(None);
    }
    let entry = Entry { kind, off: hdr.off(), commit: hdr.commit(), payload: payload.to_vec() };
    Ok(Some((entry, space)))
}

/// Walks a log image, decoding consecutive valid entries for `gen` up to
/// and including the first flagged one.
pub fn walk(log: &[u8], gen: u64) -> Result<Vec<Entry>> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < log.len() {
        match decode_entry(&log[pos..], gen)? {
            Some((entry, space)) => {
                let done = entry.commit;
                out.push(entry);
                pos += space as usize;
                if done {
                    break;
                }
            }
            None => break,
        }
    }
    Ok(out)
}

/// Returns `true` if the decoded entry list ends with a commit: a flagged
/// entry, carrying data or a standalone [`EntryKind::Commit`] (which the
/// decoder accepts only flagged).
pub fn is_committed(entries: &[Entry]) -> bool {
    entries.last().is_some_and(|e| e.commit)
}

/// Helper constructors for metadata payloads.
pub mod payload {
    /// Payload of a [`super::EntryKind::SetBits`]/`ClearBits` entry.
    pub fn mask(mask: u64) -> [u8; 8] {
        mask.to_le_bytes()
    }

    /// Payload of a [`super::EntryKind::RunFmt`] entry.
    pub fn run_fmt(block_size: u32, nblocks: u32) -> [u8; 8] {
        let mut p = [0u8; 8];
        p[..4].copy_from_slice(&block_size.to_le_bytes());
        p[4..].copy_from_slice(&nblocks.to_le_bytes());
        p
    }

    /// Decodes a [`super::EntryKind::RunFmt`] payload.
    pub fn parse_run_fmt(p: &[u8]) -> (u32, u32) {
        let bs = u32::from_le_bytes(p[..4].try_into().expect("len checked"));
        let nb = u32::from_le_bytes(p[4..8].try_into().expect("len checked"));
        (bs, nb)
    }

    /// Decodes a mask payload.
    pub fn parse_mask(p: &[u8]) -> u64 {
        u64::from_le_bytes(p[..8].try_into().expect("len checked"))
    }

    /// Payload of a [`super::EntryKind::LogExt`] entry.
    pub fn log_ext(primary: u64, replica: u64, cap: u64) -> [u8; 24] {
        let mut p = [0u8; 24];
        p[..8].copy_from_slice(&primary.to_le_bytes());
        p[8..16].copy_from_slice(&replica.to_le_bytes());
        p[16..].copy_from_slice(&cap.to_le_bytes());
        p
    }

    /// Decodes a [`super::EntryKind::LogExt`] payload.
    pub fn parse_log_ext(p: &[u8]) -> (u64, u64, u64) {
        let a = u64::from_le_bytes(p[..8].try_into().expect("len checked"));
        let b = u64::from_le_bytes(p[8..16].try_into().expect("len checked"));
        let c = u64::from_le_bytes(p[16..24].try_into().expect("len checked"));
        (a, b, c)
    }

    /// Payload of a [`super::EntryKind::CrossShard`] entry: the secondary
    /// lane's index and the generation its entries were written under.
    pub fn cross_shard(lane: u32, gen: u64) -> [u8; 12] {
        let mut p = [0u8; 12];
        p[..4].copy_from_slice(&lane.to_le_bytes());
        p[4..].copy_from_slice(&gen.to_le_bytes());
        p
    }

    /// Decodes a [`super::EntryKind::CrossShard`] payload into
    /// `(lane, generation)`.
    pub fn parse_cross_shard(p: &[u8]) -> (u32, u64) {
        let lane = u32::from_le_bytes(p[..4].try_into().expect("len checked"));
        let gen = u64::from_le_bytes(p[4..12].try_into().expect("len checked"));
        (lane, gen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let mut buf = Vec::new();
        encode_entry(&mut buf, EntryKind::Data, 0x1000, b"hello world", 3);
        assert_eq!(buf.len() as u64, entry_space(11));
        let (e, space) = decode_entry(&buf, 3).unwrap().expect("valid");
        assert_eq!(space as usize, buf.len());
        assert_eq!(e.kind, EntryKind::Data);
        assert_eq!(e.off, 0x1000);
        assert_eq!(e.payload, b"hello world");
        assert!(!e.commit);
    }

    #[test]
    fn set_commit_rewrites_the_header_only() {
        let mut buf = Vec::new();
        let crc = encode_entry(&mut buf, EntryKind::Data, 0x1000, &[0x5A; 40], 9);
        let before = buf.clone();
        set_commit(&mut buf, crc, 9);
        assert_eq!(buf[ENTRY_HEADER_SIZE as usize..], before[ENTRY_HEADER_SIZE as usize..]);
        let (e, _) = decode_entry(&buf, 9).unwrap().expect("re-CRCed");
        assert!(e.commit && e.payload == [0x5A; 40]);
        // A standalone commit record is flagged as written.
        let mut rec = Vec::new();
        encode_entry(&mut rec, EntryKind::Commit, 0, &[], 9);
        assert_eq!(rec.len() as u64, ENTRY_HEADER_SIZE);
        assert!(decode_entry(&rec, 9).unwrap().expect("valid").0.commit);
    }

    #[test]
    fn wrong_generation_is_invisible() {
        let mut buf = Vec::new();
        encode_entry(&mut buf, EntryKind::Commit, 0, &[], 5);
        assert!(decode_entry(&buf, 6).unwrap().is_none());
        assert!(decode_entry(&buf, 5).unwrap().is_some());
    }

    #[test]
    fn torn_entry_fails_checksum() {
        let mut buf = Vec::new();
        encode_entry(&mut buf, EntryKind::Data, 64, &[0xAB; 40], 1);
        buf[40] ^= 0xFF; // corrupt payload
        assert!(decode_entry(&buf, 1).unwrap().is_none());
    }

    #[test]
    fn truncated_entry_is_rejected() {
        let mut buf = Vec::new();
        encode_entry(&mut buf, EntryKind::Data, 64, &[7; 100], 1);
        assert!(decode_entry(&buf[..50], 1).unwrap().is_none());
    }

    #[test]
    fn walk_stops_at_first_invalid() {
        let mut log = Vec::new();
        encode_entry(&mut log, EntryKind::Data, 0, b"first", 2);
        encode_entry(&mut log, EntryKind::SetBits, 8, &payload::mask(0b1010), 2);
        encode_entry(&mut log, EntryKind::Commit, 0, &[], 2);
        // Stale garbage after the commit record (old generation).
        encode_entry(&mut log, EntryKind::Data, 0, b"stale", 1);

        let entries = walk(&log, 2).unwrap();
        assert_eq!(entries.len(), 3);
        assert!(is_committed(&entries));
        assert_eq!(payload::parse_mask(&entries[1].payload), 0b1010);
    }

    #[test]
    fn zeroed_log_walks_empty() {
        let log = vec![0u8; 4096];
        assert!(walk(&log, 1).unwrap().is_empty());
        assert!(!is_committed(&[]));
    }

    #[test]
    fn payload_helpers_roundtrip() {
        let p = payload::run_fmt(128, 500);
        assert_eq!(payload::parse_run_fmt(&p), (128, 500));
        assert_eq!(payload::parse_mask(&payload::mask(u64::MAX)), u64::MAX);
        let p = payload::cross_shard(7, 0xDEAD_BEEF_0042);
        assert_eq!(payload::parse_cross_shard(&p), (7, 0xDEAD_BEEF_0042));
    }

    #[test]
    fn cross_shard_marker_roundtrip() {
        let mut buf = Vec::new();
        encode_entry(&mut buf, EntryKind::CrossShard, 0, &payload::cross_shard(3, 9), 2);
        let (e, _) = decode_entry(&buf, 2).unwrap().expect("valid");
        assert_eq!(e.kind, EntryKind::CrossShard);
        assert_eq!(payload::parse_cross_shard(&e.payload), (3, 9));
    }
}
