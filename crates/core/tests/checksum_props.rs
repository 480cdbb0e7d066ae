//! Differential property suite for the data-path kernels: `adler32` /
//! `adler32_update` (by whichever block kernel this CPU selects, AVX2 or
//! the portable lane kernel) and the fused diff+zero-skip XOR paths are
//! pinned against straight-from-the-spec byte-wise reference
//! implementations across random lengths, misalignments and edit
//! sequences, and at the kernels' own block boundaries — and the
//! per-segment sums a commit maintains against a full recomputation of
//! every segment.
//!
//! Smoke depth by default; `PGL_DEEP_SWEEP=1` runs sixteen times the
//! cases.

use std::collections::BTreeSet;
use std::sync::Arc;

use pangolin::checksum::{adler32, adler32_update};
use pangolin::parity::ParityEngine;
use pangolin::segment;
use pgl_nvm::{DeviceConfig, NvmDevice};
use pgl_pmemobj::{Layout, PoolConfig, PoolIo};
use proptest::{any, prop_assert, prop_assert_eq, proptest, ProptestConfig, Strategy};

const MOD: u32 = 65521;

/// `smoke` cases, or sixteen times as many under `PGL_DEEP_SWEEP=1`.
fn cases(smoke: u32) -> ProptestConfig {
    let deep = std::env::var("PGL_DEEP_SWEEP").as_deref() == Ok("1");
    ProptestConfig::with_cases(if deep { 16 * smoke } else { smoke })
}

/// Byte-wise reference Adler32 (per-byte modulo; deliberately naive).
fn ref_adler32(data: &[u8]) -> u32 {
    let mut a: u32 = 1;
    let mut b: u32 = 0;
    for &d in data {
        a = (a + d as u32) % MOD;
        b = (b + a) % MOD;
    }
    (b << 16) | a
}

/// Byte-wise reference incremental update: the decrement-with-wrap weight
/// walk the SWAR implementation replaced.
fn ref_adler32_update(csum: u32, total_len: u64, off: u64, old: &[u8], new: &[u8]) -> u32 {
    let m = MOD as i64;
    let mut da: i64 = 0;
    let mut db: i64 = 0;
    let mut weight = ((total_len - off) % MOD as u64) as i64;
    for (&o, &n) in old.iter().zip(new.iter()) {
        let delta = n as i64 - o as i64;
        da += delta;
        db += weight * delta;
        weight = if weight == 0 { m - 1 } else { weight - 1 };
    }
    let a = (((csum & 0xFFFF) as i64 + da) % m + m) % m;
    let b = (((csum >> 16) as i64 + db) % m + m) % m;
    ((b as u32) << 16) | a as u32
}

/// Deterministic filler bytes.
fn pattern(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed | 1;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

#[test]
fn adler32_at_block_boundaries_and_every_misalignment() {
    // Lengths that straddle the lane kernel's 16-byte rows and 256-byte
    // sub-blocks, the AVX2 kernel's 32-byte rows (every length from 4 063
    // to 4 097 ends a 4 KiB block on each row offset) and the 4 KiB
    // deferred-modulo blocks, from every slice-start misalignment.
    let data = pattern((1 << 16) + 32, 7);
    let lens = [
        0, 1, 15, 16, 17, 31, 32, 33, 255, 256, 257, 271, 272, 4351, 4352, 8191, 8192, 8193, 65535,
        65536, 65537,
    ];
    for len in lens.into_iter().chain(4063..=4097) {
        for skew in 0..16 {
            let d = &data[skew..skew + len];
            assert_eq!(adler32(d), ref_adler32(d), "len {len} skew {skew}");
        }
    }
    // The lane-overflow bound: every accumulator at its maximum.
    let ff = vec![0xFFu8; 1 << 20];
    assert_eq!(adler32(&ff), ref_adler32(&ff));
}

#[test]
fn adler32_update_at_block_boundaries() {
    // Ranges around and beyond one update block, all-0x00 → all-0xFF (the
    // largest per-block delta) and patterned, at misaligned offsets.
    let total = 40_000usize;
    let base = pattern(total, 11);
    let csum = adler32(&base);
    for elen in [255, 256, 257, 4095, 4096, 4097, 8192, 3 * 4096 + 17] {
        for off in [0usize, 1, 13, 4095, 4096, total - elen] {
            for new in [vec![0xFFu8; elen], vec![0u8; elen], pattern(elen, off as u64 + 3)] {
                let old = &base[off..off + elen];
                let got = adler32_update(csum, total as u64, off as u64, old, &new);
                assert_eq!(
                    got,
                    ref_adler32_update(csum, total as u64, off as u64, old, &new),
                    "elen {elen} off {off}"
                );
                let mut data = base.clone();
                data[off..off + elen].copy_from_slice(&new);
                assert_eq!(got, ref_adler32(&data), "recompute, elen {elen} off {off}");
            }
        }
    }
}

/// Byte-wise model of `xor_diff_range` with the device's accounting
/// units — single bytes up to the first 8-byte device boundary and after
/// the last, whole words between: returns the bytes counted as written
/// and the cache lines dirtied.
fn xor_diff_model(off: u64, old: &[u8], new: &[u8]) -> (u64, BTreeSet<u64>) {
    let len = old.len();
    let head = (((8 - off % 8) % 8) as usize).min(len);
    let words_end = head + (len - head) / 8 * 8;
    let units = (0..head)
        .map(|i| (i, 1))
        .chain((head..words_end).step_by(8).map(|i| (i, 8)))
        .chain((words_end..len).map(|i| (i, 1)));
    let mut touched = 0u64;
    let mut lines = BTreeSet::new();
    for (i, n) in units {
        if old[i..i + n] != new[i..i + n] {
            touched += n as u64;
            lines.insert((off + i as u64) / 64);
        }
    }
    (touched, lines)
}

/// Runs `xor_diff_range(off, old, new)` over `base` on `dev` and checks it
/// against [`xor_diff_model`]: bytes, return value, the two byte counters
/// and the flushed-line count, and on a `precise` device the exact
/// dirty-line set.
fn check_xor_diff(dev: &NvmDevice, precise: bool, off: u64, base: &[u8], old: &[u8], new: &[u8]) {
    let (want_bytes, want_lines) = xor_diff_model(off, old, new);
    dev.write(off, base).unwrap();
    dev.persist(off, base.len()).unwrap();
    assert!(dev.dirty_line_choices().is_empty(), "settled before the call");
    let s0 = dev.stats();
    let touched = dev.xor_diff_range(off, old, new).unwrap();
    let d = dev.stats().delta_since(&s0);
    assert_eq!(touched, old != new, "at {off} len {}", old.len());
    assert_eq!(d.xor_bytes, want_bytes, "at {off} len {}", old.len());
    assert_eq!(d.bytes_written, want_bytes);
    assert_eq!(d.lines_flushed, want_lines.len() as u64, "at {off} len {}", old.len());
    let got = dev.read_slice(off, base.len()).unwrap();
    for i in 0..base.len() {
        assert_eq!(got[i], base[i] ^ old[i] ^ new[i], "byte {i} at {off}");
    }
    if precise {
        let dirty: BTreeSet<u64> =
            dev.dirty_line_choices().into_iter().map(|(line, _)| line).collect();
        assert_eq!(dirty, want_lines, "at {off} len {}", old.len());
    }
}

/// One random edit: offset fraction, length, fill pattern.
fn edit_strategy() -> impl Strategy<Value = (u64, usize, u8)> {
    (any::<u64>(), 1usize..700, any::<u8>())
}

proptest! {
    #![proptest_config(cases(96))]

    #[test]
    fn swar_adler32_matches_bytewise_reference(
        data in proptest::collection::vec(any::<u8>(), 0..9000),
        skew in 0usize..8,
    ) {
        // `skew` slices off a few leading bytes so word loops start at
        // every possible misalignment relative to the data.
        let data = &data[skew.min(data.len())..];
        prop_assert_eq!(adler32(data), ref_adler32(data));
    }

    #[test]
    fn swar_update_matches_reference_and_recompute(
        len in 1usize..6000,
        seed in any::<u64>(),
        edits in proptest::collection::vec(edit_strategy(), 1..12),
    ) {
        let mut data: Vec<u8> =
            (0..len).map(|i| (seed.wrapping_mul(i as u64 + 1) >> 11) as u8).collect();
        let mut csum = adler32(&data);
        for (off_frac, elen, fill) in edits.iter().copied() {
            let elen = elen.min(len);
            let off = (off_frac % (len - elen + 1) as u64) as usize;
            let new: Vec<u8> = (0..elen).map(|i| fill.wrapping_add(i as u8)).collect();
            let old = data[off..off + elen].to_vec();
            let by_swar =
                adler32_update(csum, len as u64, off as u64, &old, &new);
            let by_ref =
                ref_adler32_update(csum, len as u64, off as u64, &old, &new);
            prop_assert_eq!(by_swar, by_ref, "SWAR vs byte-wise update");
            data[off..off + elen].copy_from_slice(&new);
            csum = by_swar;
            prop_assert_eq!(csum, ref_adler32(&data), "update vs full recompute");
        }
    }

    #[test]
    fn per_segment_deltas_over_random_ranges_match_a_full_recompute(
        len in 1usize..3000,
        seed in any::<u64>(),
        edits in proptest::collection::vec(edit_strategy(), 1..10),
    ) {
        // What a commit does to a segmented object (`pangolin::segment`):
        // each range is cut at segment boundaries, a segment overwritten
        // whole is summed afresh and any other one takes the incremental
        // update at its segment-relative offset. The sums must equal a
        // full recomputation of every segment after every edit.
        let mut data = pattern(len, seed);
        let size = len as u64;
        let t = (segment::table_off(size) as usize).min(segment::footprint(size) as usize);
        let mut image = data.clone();
        image.resize(segment::footprint(size) as usize, 0);
        let mut head = segment::fill_table(&data, &mut image[t..]);
        for (off_frac, elen, fill) in edits.iter().copied() {
            let elen = elen.min(len);
            let off = (off_frac % (len - elen + 1) as u64) as usize;
            let new: Vec<u8> = (0..elen).map(|i| fill.wrapping_add((i as u8).wrapping_mul(3))).collect();
            let (k0, k1) = segment::covering(off as u64, elen as u64);
            for k in k0..=k1 {
                let (s, e) = segment::bounds(size, k);
                let lo = (off as u64).max(s) as usize;
                let hi = ((off + elen) as u64).min(e) as usize;
                let fresh = &new[lo - off..hi - off];
                let sum = |image: &[u8]| match k {
                    0 => head,
                    k => {
                        let at = segment::entry_off(size, k) as usize;
                        u32::from_le_bytes(image[at..at + 4].try_into().unwrap())
                    }
                };
                let was = sum(&image);
                let now = if (lo as u64, hi as u64) == (s, e) {
                    adler32(fresh)
                } else {
                    adler32_update(was, e - s, lo as u64 - s, &data[lo..hi], fresh)
                };
                match k {
                    0 => head = now,
                    k => {
                        let at = segment::entry_off(size, k) as usize;
                        image[at..at + 4].copy_from_slice(&now.to_le_bytes());
                    }
                }
            }
            data[off..off + elen].copy_from_slice(&new);
            image[..len].copy_from_slice(&data);
            let hdr = pgl_pmemobj::ObjectHeader { size, type_num: 1, csum: head };
            prop_assert_eq!(segment::check_all(&hdr, &image), Ok(()), "edit at {} +{}", off, elen);
            let mut want = image.clone();
            let want_head = segment::fill_table(&data, &mut want[t..]);
            prop_assert_eq!((head, &image), (want_head, &want), "vs a full recompute");
        }
    }

    #[test]
    fn swar_update_huge_objects_cross_weight_wrap(
        total_shift in 17u32..40,
        off_frac in any::<u64>(),
        old in proptest::collection::vec(any::<u8>(), 1..3000),
        fill in any::<u8>(),
    ) {
        // Weights wrap mod 65521 many times across a huge object; the
        // block-wise weight arithmetic must agree with the per-byte walk
        // at arbitrary absolute offsets (sparse-object commits hit this).
        let total = (1u64 << total_shift) + 12345;
        let off = off_frac % (total - old.len() as u64);
        let new: Vec<u8> = (0..old.len()).map(|i| fill.wrapping_mul(i as u8 | 1)).collect();
        let csum = 0x9ABC_DEF1; // any well-formed starting state
        prop_assert_eq!(
            adler32_update(csum, total, off, &old, &new),
            ref_adler32_update(csum, total, off, &old, &new)
        );
    }

    #[test]
    fn fused_xor_diff_matches_bytewise_model(
        base in proptest::collection::vec(any::<u8>(), 1..600),
        off in 0u64..200,
        zero_mask in any::<u64>(),
    ) {
        let dev = NvmDevice::new(16 << 12, DeviceConfig::fast()).unwrap();
        dev.write(off, &base).unwrap();
        // old/new agree wherever the mask bit is set, creating runs of
        // all-zero diff words the fused path must skip (and only skip).
        let old: Vec<u8> = (0..base.len()).map(|i| (i as u8).wrapping_mul(13)).collect();
        let new: Vec<u8> = old
            .iter()
            .enumerate()
            .map(|(i, &o)| if zero_mask >> (i % 64) & 1 == 1 { o } else { o ^ 0xA5 })
            .collect();
        let touched = dev.xor_diff_range(off, &old, &new).unwrap();
        prop_assert_eq!(touched, old != new);
        let got = dev.read_slice(off, base.len()).unwrap();
        for i in 0..base.len() {
            prop_assert_eq!(got[i], base[i] ^ old[i] ^ new[i], "byte {}", i);
        }
    }

    #[test]
    fn xor_diff_range_matches_word_walk_model(
        off in 0u64..20_000,
        len in 0usize..8193,
        density in 0u32..4,
        seed in any::<u64>(),
    ) {
        // Random device offsets (unaligned head and tail), lengths up to
        // two pages, and diffs from empty through sparse (most lines
        // equal) to dense. Bytes, return value and the two byte counters
        // on a fast device; on a precise one also the exact dirty-line set.
        // Then, on the fast device, every 1-24-byte span at each of the 64
        // start alignments in a line, cut from the same diff: the
        // partial-line word walk over one to four device words, inside one
        // line or across two.
        let base = pattern(len, seed);
        let old = pattern(len, seed ^ 0x9E37_79B9);
        let flips = pattern(len, seed ^ 0x7F4A_7C15);
        let new: Vec<u8> = (0..len)
            .map(|i| {
                // Per 64-byte stretch: changed with probability 0, 1/16,
                // 1/2, 1; inside a changed stretch about half the bytes.
                let roll = flips[i / 64 * 64] % 16;
                let changed = match density { 0 => false, 1 => roll == 0, 2 => roll < 8, _ => true };
                if changed && (density == 3 || flips[i] & 1 == 1) { old[i] ^ (flips[i] | 1) } else { old[i] }
            })
            .collect();
        let devs = [(DeviceConfig::fast(), false), (DeviceConfig::precise(), true)]
            .map(|(cfg, precise)| (NvmDevice::new(8 << 12, cfg).unwrap(), precise));
        for (dev, precise) in &devs {
            check_xor_diff(dev, *precise, off, &base, &old, &new);
        }
        let at = (len.saturating_sub(24) / 2).min(64);
        for start in 0..64u64 {
            for n in 1..=len.min(24) {
                let cut = at..at + n;
                let (b, o, w) = (&base[cut.clone()], &old[cut.clone()], &new[cut]);
                check_xor_diff(&devs[0].0, false, 4096 + start, b, o, w);
            }
        }
    }

    #[test]
    fn parity_update_paths_preserve_invariant(
        writes in proptest::collection::vec(
            (0u64..6000, 1usize..2048, any::<u8>()), 1..16),
    ) {
        // Random protected writes, 1 B to 2 KiB at any alignment, each
        // patched under its span's guard: partial lines, whole lines and
        // lock-granule straddles; the zone parity invariant must survive
        // all of it.
        let cfg = PoolConfig::small();
        let layout = Layout::new(cfg).unwrap();
        let dev = Arc::new(NvmDevice::new(cfg.size, DeviceConfig::fast()).unwrap());
        let io = PoolIo::new(dev);
        let eng = ParityEngine::new(layout);
        let base = layout.chunk_base(0, layout.zone.cm_chunks);
        let span: u64 = 8 << 10;
        for (off_frac, len, fill) in writes.iter().copied() {
            let off = base + off_frac % (span - len as u64);
            let new: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8 / 7)).collect();
            let guard = eng.lock_span(off, len as u64).unwrap();
            let mut old = vec![0u8; len];
            io.read(off, &mut old).unwrap();
            io.write(off, &new).unwrap();
            io.persist(off, len).unwrap();
            if eng.patch(&guard, &io, off, &old, &new).unwrap() {
                io.drain();
            }
        }
        prop_assert!(eng.verify_all(&io).unwrap().is_empty());
    }
}
