//! Persistent log entries shared by undo logs (the `libpmemobj` baseline),
//! redo logs (Pangolin and allocator metadata), and allocation intents.
//!
//! Every entry is checksummed and tagged with the owning lane's generation
//! number; invalidating a whole log is a single persisted generation bump
//! (paper §3.4: "Pangolin garbage-collects its logs" — the collection is
//! logical). A torn entry fails its checksum and terminates log replay,
//! which is exactly the commit-record protocol's requirement.

use pgl_nvm::impl_pod;
use pgl_nvm::pod::{bytes_of, from_bytes};

use crate::error::Result;
use crate::util::{crc32, crc32_seed};

/// On-media entry header (32 bytes), followed by the payload padded to 8
/// bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub struct EntryHeader {
    /// Entry kind (see [`EntryKind`]).
    pub kind: u16,
    /// Reserved flags.
    pub flags: u16,
    /// Payload length in bytes (unpadded).
    pub len: u32,
    /// Target pool offset the entry applies to.
    pub off: u64,
    /// Owning lane generation at append time.
    pub gen: u64,
    /// CRC32 over the header (with this field zeroed) and the payload.
    pub csum: u32,
    /// Reserved.
    pub pad: u32,
}
impl_pod!(EntryHeader, 32);

/// Size of the on-media entry header.
pub const ENTRY_HEADER_SIZE: u64 = 32;

/// Log entry kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
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
    /// Commit record: all preceding entries are intended to be applied.
    Commit = 7,
    /// Log continuation: the log continues in an overflow heap chunk
    /// (payload: primary offset, replica offset or 0, capacity).
    LogExt = 8,
    /// Cross-shard commit marker (Pangolin sharded parity domains): this
    /// committed lane also covers the entries of a *secondary* lane
    /// (payload: lane index, expected generation). Recovery rolls the
    /// secondary's entries forward iff its generation still matches —
    /// the ordered two-shard commit writes the secondary's own commit
    /// record only after this lane's commit fence.
    CrossShard = 9,
}

impl EntryKind {
    fn from_u16(v: u16) -> Option<EntryKind> {
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
/// `gen` tags it to the owning lane generation.
pub fn encode_entry(out: &mut Vec<u8>, kind: EntryKind, off: u64, payload: &[u8], gen: u64) {
    let mut hdr = EntryHeader {
        kind: kind as u16,
        flags: 0,
        len: payload.len() as u32,
        off,
        gen,
        csum: 0,
        pad: 0,
    };
    hdr.csum = crc32_seed(crc32(bytes_of(&hdr)), payload);
    let end = out.len() + entry_space(payload.len()) as usize;
    out.extend_from_slice(bytes_of(&hdr));
    out.extend_from_slice(payload);
    out.resize(end, 0); // pad to 8 bytes
}

/// Parses the header at `bytes` if it can start an entry of `gen`: a known
/// kind and, for a fixed-size kind, exactly its payload length.
fn header_for(bytes: &[u8], gen: u64) -> Option<(EntryHeader, EntryKind)> {
    if bytes.len() < ENTRY_HEADER_SIZE as usize {
        return None;
    }
    let hdr: EntryHeader = from_bytes(bytes);
    let kind = EntryKind::from_u16(hdr.kind)?;
    let sized = kind.payload_len().is_none_or(|len| len == hdr.len as usize);
    (hdr.gen == gen && sized).then_some((hdr, kind))
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
/// (wrong generation, bad kind, a fixed-size kind with the wrong payload
/// length, bad checksum, or truncated) — the normal "end of log"
/// condition. A decoded entry's payload therefore always has the length
/// its kind's `payload::parse_*` helper expects.
pub fn decode_entry(bytes: &[u8], gen: u64) -> Result<Option<(Entry, u64)>> {
    let Some((hdr, kind)) = header_for(bytes, gen) else {
        return Ok(None);
    };
    let space = entry_space(hdr.len as usize);
    if (bytes.len() as u64) < space {
        return Ok(None);
    }
    let payload = &bytes[ENTRY_HEADER_SIZE as usize..ENTRY_HEADER_SIZE as usize + hdr.len as usize];
    let claimed = hdr.csum;
    let hdr = EntryHeader { csum: 0, ..hdr };
    if crc32_seed(crc32(bytes_of(&hdr)), payload) != claimed {
        return Ok(None);
    }
    Ok(Some((Entry { kind, off: hdr.off, payload: payload.to_vec() }, space)))
}

/// Walks a log image, decoding consecutive valid entries for `gen`.
pub fn walk(log: &[u8], gen: u64) -> Result<Vec<Entry>> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos < log.len() {
        match decode_entry(&log[pos..], gen)? {
            Some((entry, space)) => {
                out.push(entry);
                pos += space as usize;
            }
            None => break,
        }
    }
    Ok(out)
}

/// Returns `true` if the decoded entry list ends with a commit record.
pub fn is_committed(entries: &[Entry]) -> bool {
    matches!(entries.last(), Some(e) if e.kind == EntryKind::Commit)
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
