//! Hostile-log battery: the log decoder (`ulog::decode_entry`,
//! `ulog::entry_need`), the windowed segment scan (`lane::walk_copy`) and
//! the `LogExt` link against images no writer produced — arbitrary bytes,
//! every single-bit flip and every truncation of a committed log, lengths
//! up to `u32::MAX`, unknown kinds, a commit flag on a middle entry,
//! stale entries whose generation tag matches the lane's, and link chains
//! that loop. The decoder
//! must never panic, never read (or size a buffer) past its segment, and
//! never accept what was not written under the lane's generation.
//!
//! Smoke depth by default; `PGL_DEEP_SWEEP=1` runs sixteen times the
//! cases.

use std::cell::Cell;
use std::sync::Arc;

use pgl_nvm::{DeviceConfig, NvmDevice};
use pgl_pmemobj::lane::{walk_copy, Lanes, LogMirror, LANE_HEADER_SIZE};
use pgl_pmemobj::ulog::{
    self, decode_entry, encode_entry, entry_need, entry_space, payload, seal, set_commit, Entry,
    EntryHeader, EntryKind, ENTRY_HEADER_SIZE, GEN_TAG_BITS,
};
use pgl_pmemobj::util::crc32;
use pgl_pmemobj::{Layout, ObjError, PoolConfig, PoolIo};
use proptest::prelude::*;

/// `smoke` cases, or sixteen times as many under `PGL_DEEP_SWEEP=1`.
fn cases(smoke: u32) -> ProptestConfig {
    let deep = std::env::var("PGL_DEEP_SWEEP").as_deref() == Ok("1");
    ProptestConfig::with_cases(if deep { 16 * smoke } else { smoke })
}

/// Scans `image` as one copy of a `segment`-byte log segment (bytes past
/// the image read as zeros) and checks that every read stays inside the
/// segment. Returns the entries and the largest read.
fn scan(image: &[u8], segment: usize, gen: u64) -> (Vec<Entry>, usize) {
    let largest = Cell::new(0);
    let entries = walk_copy(segment, gen, |at, buf| {
        let at = at as usize;
        assert!(at + buf.len() <= segment, "read {at}+{} past a {segment}-byte segment", buf.len());
        largest.set(largest.get().max(buf.len()));
        for (i, b) in buf.iter_mut().enumerate() {
            *b = image.get(at + i).copied().unwrap_or(0);
        }
        Ok(())
    })
    .expect("walk_copy never fails on readable bytes");
    (entries, largest.get())
}

/// A committed three-entry log under `gen`: a Data entry, a SetBits entry
/// and a flagged Data entry. Returns the image and the entries it holds.
fn committed_log(gen: u64, a: usize, c: usize, fill: u8) -> (Vec<u8>, Vec<Entry>) {
    let mut log = Vec::new();
    encode_entry(&mut log, EntryKind::Data, 0x1000, &vec![fill; a], gen);
    encode_entry(&mut log, EntryKind::SetBits, 0x2008, &payload::mask(0b1010), gen);
    let last = log.len();
    let crc = encode_entry(&mut log, EntryKind::Data, 0x3000, &vec![!fill; c], gen);
    set_commit(&mut log[last..], crc, gen);
    let entries = ulog::walk(&log, gen).unwrap();
    assert_eq!(entries.len(), 3);
    assert!(ulog::is_committed(&entries) && entries[2].commit);
    (log, entries)
}

/// What a damaged copy of `good` may decode to: all of it (the damage hit
/// padding, which no CRC covers) or a strict prefix that is not committed.
fn refused_or_harmless(got: &[Entry], good: &[Entry], case: &str) {
    if got != good {
        assert!(got.len() < good.len() && got == &good[..got.len()], "{case}: decoded {got:?}");
        assert!(!ulog::is_committed(got), "{case}: a damaged log committed");
    }
}

proptest! {
    #![proptest_config(cases(64))]

    /// Arbitrary bytes, a tag that matches the generation half the time:
    /// no panic, every decoded entry inside its bytes, every read inside
    /// the segment.
    #[test]
    fn arbitrary_bytes_never_panic_nor_read_past_the_segment(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
        gen in any::<u64>(),
        tagged in any::<bool>(),
        slack in 0usize..64,
    ) {
        let mut bytes = bytes.clone();
        if tagged && bytes.len() >= 8 {
            let word = u64::from_le_bytes(bytes[..8].try_into().unwrap());
            let tag = gen & ((1 << GEN_TAG_BITS) - 1);
            let word = (word & !(u64::MAX << 53)) | tag << 53;
            bytes[..8].copy_from_slice(&word.to_le_bytes());
        }
        for at in (0..bytes.len()).step_by(8) {
            let rest = &bytes[at..];
            if let Some((e, space)) = decode_entry(rest, gen).unwrap() {
                prop_assert!(space as usize <= rest.len());
                prop_assert!(e.payload.len() as u64 + ENTRY_HEADER_SIZE <= space);
            }
            let _ = entry_need(rest, gen);
        }
        let segment = bytes.len() + slack;
        let (entries, largest) = scan(&bytes, segment, gen);
        prop_assert!(largest <= segment);
        prop_assert_eq!(entries, ulog::walk(&bytes, gen).unwrap());
    }

    /// Every single-bit flip and every truncation of a committed
    /// three-entry log decodes to the log itself or to an uncommitted
    /// prefix of it, through `walk` and through the windowed scan alike.
    #[test]
    fn every_bit_flip_and_truncation_of_a_committed_log_is_refused(
        gen in 1u64..1 << 40,
        a in 0usize..200,
        c in 0usize..200,
        fill in any::<u8>(),
    ) {
        let (log, good) = committed_log(gen, a, c, fill);
        prop_assert_eq!(&scan(&log, log.len(), gen).0, &good);
        let mut bad = log.clone();
        for bit in 0..8 * log.len() {
            bad[bit / 8] ^= 1 << (bit % 8);
            let case = format!("bit {bit}");
            let got = ulog::walk(&bad, gen).unwrap();
            refused_or_harmless(&got, &good, &case);
            prop_assert_eq!(&scan(&bad, bad.len(), gen).0, &got);
            bad[bit / 8] ^= 1 << (bit % 8);
        }
        for n in 0..log.len() {
            let case = format!("cut at {n}");
            let got = ulog::walk(&log[..n], gen).unwrap();
            refused_or_harmless(&got, &good, &case);
            prop_assert!(got.len() < good.len(), "{case}: the whole log decoded");
            prop_assert_eq!(&scan(&log[..n], n, gen).0, &got);
        }
    }

    /// An entry of another generation whose low bits match the lane's
    /// passes the tag check (`entry_need` sizes it) and is refused by its
    /// CRC, which folds in the full generation: as a first entry, as
    /// the flagged last one, and as a standalone commit.
    #[test]
    fn a_stale_entry_with_the_lanes_tag_is_refused_by_its_crc(
        gen in 1u64..1 << 40,
        k in 1u64..1 << 20,
        older in any::<bool>(),
        len in 0usize..100,
    ) {
        let step = k << GEN_TAG_BITS;
        let stale = if older && gen > step { gen - step } else { gen + step };
        for (kind, body) in [
            (EntryKind::Data, vec![0x5A; len]),
            (EntryKind::SetBits, payload::mask(1).to_vec()),
            (EntryKind::Commit, vec![]),
        ] {
            let mut entry = Vec::new();
            let crc = encode_entry(&mut entry, kind, 0x4000, &body, stale);
            set_commit(&mut entry, crc, stale);
            prop_assert_eq!(entry_need(&entry, gen), Some(entry_space(body.len())));
            prop_assert!(decode_entry(&entry, gen).unwrap().is_none(), "{kind:?} accepted");
            prop_assert!(decode_entry(&entry, stale).unwrap().is_some());

            // Behind a valid entry of the lane's generation, the stale
            // flagged entry does not commit the log.
            let mut log = Vec::new();
            encode_entry(&mut log, EntryKind::Data, 0x1000, &[1; 24], gen);
            log.extend_from_slice(&entry);
            let got = ulog::walk(&log, gen).unwrap();
            prop_assert_eq!(got.len(), 1);
            prop_assert!(!ulog::is_committed(&got));
            prop_assert_eq!(scan(&log, log.len() + 64, gen).0, got);
        }
    }
}

/// A header of `kind` claiming `len` payload bytes, tagged and sealed
/// for `gen` over no payload at all.
fn claim(kind: EntryKind, len: u32, gen: u64) -> Vec<u8> {
    let mut hdr = EntryHeader::new(kind, 0x1000, false, gen, len);
    seal(&mut hdr, crc32(&[]), gen);
    pgl_nvm::pod::bytes_of(&hdr).to_vec()
}

#[test]
fn lengths_up_to_u32_max_never_size_a_read_past_the_segment() {
    let gen = 7;
    const SEGMENT: usize = 1 << 16;
    for len in [u32::MAX, u32::MAX - 7, 1 << 31, SEGMENT as u32 - 15, SEGMENT as u32, 1 << 17] {
        let hdr = claim(EntryKind::Data, len, gen);
        assert!(decode_entry(&hdr, gen).unwrap().is_none(), "len {len}");
        assert_eq!(entry_need(&hdr, gen), Some(entry_space(len as usize)), "len {len}");
        // As the first entry and behind a valid one.
        let mut behind = Vec::new();
        encode_entry(&mut behind, EntryKind::Data, 0x2000, &[3; 40], gen);
        behind.extend_from_slice(&hdr);
        for (image, expect) in [(&hdr, 0), (&behind, 1)] {
            let (entries, largest) = scan(image, SEGMENT, gen);
            assert_eq!(entries.len(), expect, "len {len}");
            assert!(largest <= SEGMENT, "len {len}: a {largest}-byte read");
        }
        assert_eq!(ulog::walk(&behind, gen).unwrap().len(), 1);
    }
    // A fixed-size kind claiming another length ends the log at its header.
    for kind in [EntryKind::SetBits, EntryKind::WriteCm, EntryKind::LogExt, EntryKind::Commit] {
        for len in [u32::MAX, 1, 7, 9, 25] {
            assert_eq!(entry_need(&claim(kind, len, gen), gen), None, "{kind:?} {len}");
        }
    }
}

#[test]
fn unknown_kind_nibbles_end_the_log() {
    let gen = 0x1234_5678;
    for nibble in [0u64, 10, 11, 12, 13, 14, 15] {
        let (mut log, _) = committed_log(gen, 16, 16, 0xC3);
        // Re-kind the first entry and re-seal it: a valid CRC, a kind no
        // writer emits.
        let mut hdr: EntryHeader = pgl_nvm::pod::from_bytes(&log[..16]);
        hdr.word = (hdr.word & !(0xF << 48)) | nibble << 48;
        seal(&mut hdr, crc32(&[0xC3; 16]), gen);
        log[..16].copy_from_slice(pgl_nvm::pod::bytes_of(&hdr));
        assert!(decode_entry(&log, gen).unwrap().is_none(), "nibble {nibble}");
        assert_eq!(entry_need(&log, gen), None, "nibble {nibble}");
        assert!(ulog::walk(&log, gen).unwrap().is_empty());
        assert!(scan(&log, log.len(), gen).0.is_empty());
    }
}

#[test]
fn a_flag_on_a_middle_entry_ends_the_walk_there() {
    let gen = 99;
    let mut log = Vec::new();
    encode_entry(&mut log, EntryKind::Data, 0x1000, &[1; 30], gen);
    let mid = log.len();
    let crc = encode_entry(&mut log, EntryKind::ClearBits, 0x2000, &payload::mask(4), gen);
    encode_entry(&mut log, EntryKind::Data, 0x3000, &[2; 30], gen);
    assert!(!ulog::is_committed(&ulog::walk(&log, gen).unwrap()));
    set_commit(&mut log[mid..], crc, gen);
    let got = ulog::walk(&log, gen).unwrap();
    assert_eq!(
        got.iter().map(|e| (e.kind, e.commit)).collect::<Vec<_>>(),
        [(EntryKind::Data, false), (EntryKind::ClearBits, true)]
    );
    assert!(ulog::is_committed(&got));
    assert_eq!(scan(&log, 4096, gen).0, got, "the scan stops at the flag too");
}

#[test]
fn an_unflagged_standalone_commit_is_refused() {
    let gen = 5;
    let mut hdr = EntryHeader::new(EntryKind::Commit, 0, false, gen, 0);
    seal(&mut hdr, crc32(&[]), gen);
    assert!(decode_entry(pgl_nvm::pod::bytes_of(&hdr), gen).unwrap().is_none());
}

/// Lane 0 of a fresh unmirrored lane array holding `log`.
fn lane_with(log: &[u8]) -> (PoolIo, Layout, u64) {
    let cfg = PoolConfig::small();
    let layout = Layout::new(cfg).unwrap();
    let io = PoolIo::new(Arc::new(NvmDevice::new(cfg.size, DeviceConfig::fast()).unwrap()));
    Lanes::format(&io, &layout, LogMirror::None).unwrap();
    let gen = Lanes::read_gen(&io, &layout, 0, LogMirror::None).unwrap();
    let at = layout.lane_off(0) + LANE_HEADER_SIZE;
    io.write(at, log).unwrap();
    (io, layout, gen)
}

#[test]
fn hostile_log_ext_links_end_the_log() {
    let gen = 1; // a formatted lane's generation
    let size = PoolConfig::small().size as u64;
    for (target, cap) in
        [(size, 4096), (size - 8, 4096), (u64::MAX - 4095, u64::MAX), (0, u64::MAX)]
    {
        let mut log = Vec::new();
        encode_entry(&mut log, EntryKind::Data, 0x1000, &[9; 16], gen);
        encode_entry(&mut log, EntryKind::LogExt, 0, &payload::log_ext(target, 0, cap), gen);
        let (io, layout, lane_gen) = lane_with(&log);
        assert_eq!(lane_gen, gen);
        let entries = Lanes::read_entries(&io, &layout, 0, LogMirror::None).unwrap();
        assert_eq!(entries.len(), 2, "link to {target:#x}: the chain ends, the prefix stays");
        assert!(!ulog::is_committed(&entries));
    }
    // A flagged link is the log's last entry: it commits, and is not
    // followed into whatever it names.
    let mut log = Vec::new();
    encode_entry(&mut log, EntryKind::Data, 0x1000, &[9; 16], gen);
    let at = log.len();
    let ext = payload::log_ext(0x8000, 0, 1 << 20);
    let crc = encode_entry(&mut log, EntryKind::LogExt, 0, &ext, gen);
    set_commit(&mut log[at..], crc, gen);
    let (io, layout, _) = lane_with(&log);
    let mut elsewhere = Vec::new();
    encode_entry(&mut elsewhere, EntryKind::Commit, 0, &[], gen);
    io.write(0x8000, &elsewhere).unwrap();
    let entries = Lanes::read_entries(&io, &layout, 0, LogMirror::None).unwrap();
    assert_eq!(entries.len(), 2);
    assert!(ulog::is_committed(&entries) && entries[1].kind == EntryKind::LogExt);
}

/// The windowed scan's first read of a segment (`lane::SCAN_WINDOW`).
const SCAN_WINDOW: u64 = 4096;

/// Reads lane 0's entries, expecting a `Corruption` for a looping chain
/// through `distinct` segments, and returns the bytes read doing it.
fn refused_loop(io: &PoolIo, layout: &Layout, distinct: u64) -> u64 {
    let s0 = io.dev().stats();
    let err = Lanes::read_entries(io, layout, 0, LogMirror::None).unwrap_err();
    assert!(matches!(err, ObjError::Corruption { what: "log-extension chain", .. }), "{err:?}");
    let read = io.dev().stats().delta_since(&s0).bytes_read;
    // One scan window per distinct segment, plus the 8-byte generation.
    assert!(read <= distinct * SCAN_WINDOW + 8, "read {read} B over {distinct} segment(s)");
    read
}

#[test]
fn a_log_ext_naming_its_own_segment_is_refused_at_once() {
    let gen = 1;
    let layout = Layout::new(PoolConfig::small()).unwrap();
    let own = layout.lane_off(0) + LANE_HEADER_SIZE;
    let cap = PoolConfig::small().lane_size as u64 - LANE_HEADER_SIZE;
    let mut log = Vec::new();
    encode_entry(&mut log, EntryKind::Data, 0x1000, &[9; 16], gen);
    encode_entry(&mut log, EntryKind::LogExt, 0, &payload::log_ext(own, 0, cap), gen);
    let (io, layout, _) = lane_with(&log);
    refused_loop(&io, &layout, 1);
}

#[test]
fn a_two_segment_log_ext_cycle_is_refused_at_once() {
    // The lane links to a segment at 0x8000, which links back.
    let gen = 1;
    let layout = Layout::new(PoolConfig::small()).unwrap();
    let own = layout.lane_off(0) + LANE_HEADER_SIZE;
    let cap = PoolConfig::small().lane_size as u64 - LANE_HEADER_SIZE;
    let mut log = Vec::new();
    encode_entry(&mut log, EntryKind::Data, 0x1000, &[9; 16], gen);
    encode_entry(&mut log, EntryKind::LogExt, 0, &payload::log_ext(0x8000, 0, SCAN_WINDOW), gen);
    let (io, layout, _) = lane_with(&log);
    let mut back = Vec::new();
    encode_entry(&mut back, EntryKind::Data, 0x2000, &[7; 24], gen);
    encode_entry(&mut back, EntryKind::LogExt, 0, &payload::log_ext(own, 0, cap), gen);
    io.write(0x8000, &back).unwrap();
    refused_loop(&io, &layout, 2);
}
