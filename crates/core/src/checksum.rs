//! Object checksums: Adler32 with O(modified-range) incremental updates.
//!
//! Pangolin checksums every object's user data. CRC32 would force a full
//! recompute on every update, so the paper picks Adler32, whose structure
//! (`A` = byte sum, `B` = position-weighted byte sum) allows updating the
//! checksum from just the old and new bytes of the modified range —
//! "the cost of updating an object's checksum proportional to the size of
//! the modified range rather than the object size" (paper §3.5).
//!
//! # Kernels
//!
//! One function, `block_sums`, serves both entry points: the two sums
//! `S` and `T` (below) of a block of at most 4 KiB. It has two bodies,
//! which agree bit for bit and are each pinned against a byte-wise
//! reference (here and in `tests/checksum_props.rs`):
//!
//! * on x86-64 CPUs with AVX2, and blocks of 32 bytes or more, an AVX2
//!   kernel over 32-byte rows: `_mm256_sad_epu8` for `S`, and
//!   `_mm256_maddubs_epi16` with weights 32…1 plus a running prefix of
//!   `S` for `T`. It is selected at run time by `is_x86_feature_detected!`,
//!   and a 256-byte segment sums in about 40 % of the lane kernel's time
//!   (EXPERIMENTS.md, "Checksum kernels");
//! * everywhere else, the portable lane kernel described next.
//!
//! Either way the last `len mod 32` (or `mod 16`) bytes take the byte
//! recurrence.
//!
//! # The portable lane kernel
//!
//! It walks a block in rows of sixteen bytes and keeps, per byte lane
//! `j`, a running sum `va[j]` and a running prefix sum `vb[j]` (the sum of
//! `va[j]` before each row) in `u16` accumulators — plain array
//! arithmetic the compiler turns into 128-bit vector adds on any target,
//! with no `std::arch` and no `unsafe`. After `R` rows
//! `va[j] = Σᵣ x[r][j]` and `vb[j] = Σᵣ (R−1−r)·x[r][j]`, so for the
//! `m = 16·R` bytes of such a sub-block
//!
//! * the **byte sum** is `S = Σⱼ va[j]`, and
//! * the **descending-weighted sum** `T = Σᵢ (m−i)·xᵢ` is
//!   `Σⱼ (16−j)·va[j] + 16·vb[j]`,
//!
//! which are exactly Adler32's increments over the sub-block:
//! `B += m·A + T; A += S`. Sixteen rows bound the lanes (`va ≤ 16·255`,
//! `vb ≤ 120·255 < 2¹⁶`), so a sub-block is 256 bytes. Sub-blocks
//! accumulate the same way one level up, in `u32` lanes: `sa[j] += va[j]`,
//! `wb[j] += vb[j]`, and `pa[j]` takes the prefix sums of `sa[j]` (every
//! byte of an earlier sub-block gains weight 256 per later one). One
//! horizontal fold per block of at most 4 KiB —
//! `T = Σⱼ 256·pa[j] + (16−j)·sa[j] + 16·wb[j]` — and one modulo per block
//! finish the job. A block whose row count is not a multiple of sixteen
//! puts its short sub-block *first* (sub-blocks need no alignment), so it
//! rides the same accumulators; only the last `len mod 16` bytes take the
//! byte recurrence.
//!
//! [`adler32_update`] needs `Σ wᵢ·Δᵢ` with the weight of byte `i` of a
//! block congruent to `w₀ − i`; writing that as `(w₀ − n) + (n − i)` turns
//! the block's contribution into `(w₀ − n)·ΔS + ΔT` — the same two sums of
//! the old and the new bytes, one multiply and one reduction per block.

const MOD: u64 = 65521;

/// Bytes per deferred-modulo block, for both entry points. Over one block
/// the `u32` lanes stay below `sa ≤ 2¹⁶`, `pa, wb ≤ 120·4080 < 2¹⁹`, and
/// the folded sums below `S ≤ 4096·255 < 2²¹` and
/// `T ≤ 255·4096·4097/2 < 2³²`, so the `u64` (and, in
/// [`adler32_update`], `i64`) combinations stay far from overflow with one
/// reduction per block.
const BLOCK: usize = 4096;

/// Byte lanes per row.
const LANES: usize = 16;

/// Bytes per lane-accumulator sub-block: sixteen rows, the most the `u16`
/// prefix sums can take (see the module docs).
const SUB_BLOCK: usize = 16 * LANES;

/// Per-lane sums and prefix sums over `rows` (whole rows, at most
/// sixteen): `va[j] = Σᵣ x[r][j]`, `vb[j] = Σᵣ (R−1−r)·x[r][j]`.
#[inline(always)]
fn lane_sums(rows: &[u8]) -> ([u16; LANES], [u16; LANES]) {
    let mut va = [0u16; LANES];
    let mut vb = [0u16; LANES];
    for row in rows.chunks_exact(LANES) {
        let row: &[u8; LANES] = row.try_into().expect("exact 16-byte row");
        // Wrapping adds (here and in `block_sums`) only keep the release
        // profile's overflow checks out of the vector loops; the lane
        // bounds above show nothing ever wraps.
        for j in 0..LANES {
            vb[j] = vb[j].wrapping_add(va[j]);
            va[j] = va[j].wrapping_add(row[j] as u16);
        }
    }
    (va, vb)
}

/// `(S, T)` over `data` (at most [`BLOCK`] bytes): `S = Σ xᵢ` and
/// `T = Σ (n−i)·xᵢ` with `n = data.len()` and `i` the 0-based index — the
/// increments Adler32's `A` and `B` take over `data` when entered with
/// `A = 0`. Takes the AVX2 kernel where the CPU has it, the lane kernel
/// everywhere else.
#[inline]
fn block_sums(data: &[u8]) -> (u64, u64) {
    debug_assert!(data.len() <= BLOCK);
    #[cfg(target_arch = "x86_64")]
    if data.len() >= avx2::ROW && std::is_x86_feature_detected!("avx2") {
        let (rows, tail) = data.split_at(data.len() / avx2::ROW * avx2::ROW);
        // SAFETY: `avx2` was detected on this CPU just above.
        return with_tail(unsafe { avx2::row_sums(rows) }, tail);
    }
    portable_block_sums(data)
}

/// [`block_sums`] by the portable lane kernel.
#[inline]
fn portable_block_sums(data: &[u8]) -> (u64, u64) {
    let (rows, tail) = data.split_at(data.len() / LANES * LANES);
    // Inputs shorter than a row (word-sized checksum deltas) skip the
    // lane machinery and its fold altogether.
    with_tail(if rows.is_empty() { (0, 0) } else { row_sums(rows) }, tail)
}

/// The sums `(s, t)` of some bytes, extended over the `tail` that follows
/// them by the byte recurrence: every earlier byte gains one weight per
/// tail byte.
#[inline(always)]
fn with_tail((mut s, mut t): (u64, u64), tail: &[u8]) -> (u64, u64) {
    for &d in tail {
        s += d as u64;
        t += s;
    }
    (s, t)
}

/// [`block_sums`] over whole rows.
#[inline]
fn row_sums(rows: &[u8]) -> (u64, u64) {
    let (head, rest) = rows.split_at(rows.len() / LANES % 16 * LANES);
    let (va, vb) = lane_sums(head);
    let mut sa = [0u32; LANES];
    let mut wb = [0u32; LANES];
    let mut pa = [0u32; LANES];
    for j in 0..LANES {
        sa[j] = va[j] as u32;
        wb[j] = vb[j] as u32;
    }
    for sub in rest.chunks_exact(SUB_BLOCK) {
        let (va, vb) = lane_sums(sub);
        for j in 0..LANES {
            pa[j] = pa[j].wrapping_add(sa[j]);
            sa[j] = sa[j].wrapping_add(va[j] as u32);
            wb[j] = wb[j].wrapping_add(vb[j] as u32);
        }
    }
    // The fold. `Σⱼ (16−j)·sa[j]` is the byte recurrence run over the
    // lane sums (`w` adds every prefix of `s`), which keeps per-lane
    // constants — and with them lane shuffles — out of the loops above.
    // All four sums stay below 2²⁵ (sixteen lanes of less than 2²¹).
    let (mut s, mut w, mut p, mut q) = (0u32, 0u32, 0u32, 0u32);
    for j in 0..LANES {
        s = s.wrapping_add(sa[j]);
        w = w.wrapping_add(s);
        p = p.wrapping_add(pa[j]);
        q = q.wrapping_add(wb[j]);
    }
    (s as u64, SUB_BLOCK as u64 * p as u64 + w as u64 + LANES as u64 * q as u64)
}

/// [`block_sums`] over whole 32-byte rows by AVX2: per row,
/// `_mm256_sad_epu8` adds the bytes into `S` and `_mm256_maddubs_epi16`
/// weighs them 32…1 into `T`, while a running prefix of `S` gives every
/// earlier row its 32 per later one.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_loadu_si256, _mm256_madd_epi16, _mm256_maddubs_epi16,
        _mm256_sad_epu8, _mm256_set1_epi16, _mm256_set_epi8, _mm256_setzero_si256,
        _mm256_slli_epi32, _mm256_storeu_si256,
    };

    /// Bytes per row.
    pub(super) const ROW: usize = 32;

    /// `(S, T)` over `rows`, a whole number of rows and at most
    /// [`super::BLOCK`] bytes. For `R ≤ 128` rows every 32-bit lane stays
    /// below 2³¹: an `S` lane (eight bytes a row) below `R·2040`, its prefix
    /// times 32 below `32·R²/2·2040 < 2³⁰`, a weighted lane (four bytes,
    /// weights ≤ 122 in all) below `R·31110`.
    ///
    /// # Safety
    ///
    /// The CPU must support `avx2`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn row_sums(rows: &[u8]) -> (u64, u64) {
        debug_assert!(rows.len() % ROW == 0 && rows.len() <= super::BLOCK);
        let zero = _mm256_setzero_si256();
        let weights = _mm256_set_epi8(
            1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24,
            25, 26, 27, 28, 29, 30, 31, 32,
        );
        let ones = _mm256_set1_epi16(1);
        let (mut s, mut prefix, mut t) = (zero, zero, zero);
        for row in rows.chunks_exact(ROW) {
            // SAFETY: `row` is 32 readable bytes, the load is unaligned,
            // and this function runs only where `avx2` was detected.
            let v = unsafe { _mm256_loadu_si256(row.as_ptr().cast()) };
            prefix = _mm256_add_epi32(prefix, s);
            s = _mm256_add_epi32(s, _mm256_sad_epu8(v, zero));
            t = _mm256_add_epi32(t, _mm256_madd_epi16(_mm256_maddubs_epi16(v, weights), ones));
        }
        let t = _mm256_add_epi32(t, _mm256_slli_epi32(prefix, 5));
        (lane_total(s), lane_total(t))
    }

    /// The sum of the eight 32-bit lanes of `v`.
    ///
    /// # Safety
    ///
    /// The CPU must support `avx2`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn lane_total(v: __m256i) -> u64 {
        let mut lanes = [0u32; 8];
        // SAFETY: `lanes` is 32 writable bytes, the store is unaligned,
        // and this function runs only where `avx2` was detected.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), v) };
        lanes.iter().map(|&l| l as u64).sum()
    }
}

/// Computes the Adler32 checksum of `data`.
pub fn adler32(data: &[u8]) -> u32 {
    adler32_by(block_sums, data)
}

/// [`adler32`] with `sums` as its block kernel.
#[inline(always)]
fn adler32_by(sums: impl Fn(&[u8]) -> (u64, u64), data: &[u8]) -> u32 {
    let mut a: u64 = 1;
    let mut b: u64 = 0;
    for chunk in data.chunks(BLOCK) {
        let (s, t) = sums(chunk);
        b = (b + chunk.len() as u64 * a + t) % MOD;
        a = (a + s) % MOD;
    }
    ((b as u32) << 16) | a as u32
}

/// Incrementally updates an Adler32 checksum after replacing the bytes at
/// `[off, off+len)` of an object of `total_len` bytes.
///
/// `old` and `new` are the range's previous and replacement contents (equal
/// lengths). The result equals recomputing [`adler32`] over the whole new
/// object, at cost O(`len`).
pub fn adler32_update(csum: u32, total_len: u64, off: u64, old: &[u8], new: &[u8]) -> u32 {
    assert_eq!(old.len(), new.len(), "incremental update requires equal-length ranges");
    assert!(off + old.len() as u64 <= total_len, "range exceeds object");
    let m = MOD as i64;
    // For byte i (absolute position p = off + i, weight w = total_len − p):
    //   A' = A + Σ (newᵢ − oldᵢ)
    //   B' = B + Σ w·(newᵢ − oldᵢ)
    // Per block of n ≤ BLOCK bytes, with w₀ ≡ total_len − off −
    // block_start (mod MOD) the (reduced) weight of the block's first
    // byte, the B-delta is  (w₀ − n)·(Sn − So) + (Tn − To):  the per-byte
    // weight w₀ − i is only *congruent* to the true weight mod MOD (it may
    // go negative), which is exactly what the end-of-block reduction needs.
    let mut da: i64 = 0;
    let mut db: i64 = 0;
    let mut w0 = ((total_len - off) % MOD) as i64;
    for (o, n) in old.chunks(BLOCK).zip(new.chunks(BLOCK)) {
        let (so, to) = block_sums(o);
        let (sn, tn) = block_sums(n);
        let ds = sn as i64 - so as i64;
        let w_end = w0 - o.len() as i64;
        da = (da + ds) % m;
        db = (db + w_end * ds + (tn as i64 - to as i64)) % m;
        w0 = w_end.rem_euclid(m);
    }
    let a = ((csum & 0xFFFF) as i64 + da).rem_euclid(m);
    let b = ((csum >> 16) as i64 + db).rem_euclid(m);
    ((b as u32) << 16) | a as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Straight-from-the-definition byte-wise Adler32 (the differential
    /// reference; the proptest suite in `tests/checksum_props.rs` pins the
    /// lane kernel against an independent copy of this).
    fn ref_adler32(data: &[u8]) -> u32 {
        let mut a: u32 = 1;
        let mut b: u32 = 0;
        for &d in data {
            a = (a + d as u32) % MOD as u32;
            b = (b + a) % MOD as u32;
        }
        (b << 16) | a
    }

    #[test]
    fn known_vectors() {
        assert_eq!(adler32(b""), 1);
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
    }

    #[test]
    fn swar_matches_reference_across_lengths() {
        let data: Vec<u8> =
            (0..1024u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        for len in [0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 256, 257, 1000, 1024] {
            assert_eq!(adler32(&data[..len]), ref_adler32(&data[..len]), "len {len}");
        }
        // Misaligned starts exercise the row boundaries too.
        for start in 1..17 {
            assert_eq!(adler32(&data[start..]), ref_adler32(&data[start..]), "start {start}");
        }
    }

    /// A block kernel.
    type Sums = fn(&[u8]) -> (u64, u64);

    /// Both kernels: the one `block_sums` selects on this CPU, and the
    /// portable lane kernel every other CPU runs.
    const KERNELS: [(&str, Sums); 2] =
        [("selected", block_sums), ("portable", portable_block_sums)];

    #[test]
    fn block_sums_exhaustive_per_lane() {
        // Every byte value at every position of a short leading
        // sub-block, two full ones and an odd tail, against the
        // definition of the two sums.
        const N: usize = 5 * LANES + 2 * SUB_BLOCK + 13;
        for (name, sums) in KERNELS {
            for pos in 0..N {
                for val in [1u8, 2, 0x7F, 0x80, 0xFE, 0xFF] {
                    let mut bytes = [0u8; N];
                    bytes[pos] = val;
                    let (s, t) = sums(&bytes);
                    assert_eq!(s, val as u64, "{name}: sum pos {pos} val {val}");
                    let want = (N - pos) as u64 * val as u64;
                    assert_eq!(t, want, "{name}: weighted pos {pos} val {val}");
                }
            }
            // The lane bound: a full block of 0xFF.
            let (s, t) = sums(&[0xFF; BLOCK]);
            assert_eq!(s, 255 * BLOCK as u64, "{name}");
            assert_eq!(t, 255 * (BLOCK as u64 * (BLOCK as u64 + 1) / 2), "{name}");
        }
    }

    #[test]
    fn portable_kernel_matches_reference() {
        // The lane kernel on its own, whatever this CPU selects: row and
        // sub-block edges from every start alignment, and the lane bound
        // over a 1 MiB all-0xFF object.
        let data: Vec<u8> =
            (0..8192u32).map(|i| (i.wrapping_mul(2654435761) >> 13) as u8).collect();
        for len in [0, 1, 15, 16, 17, 31, 32, 33, 255, 256, 257, 4095, 4096, 4097, 8000] {
            for skip in 0..LANES {
                let d = &data[skip..skip + len];
                assert_eq!(adler32_by(portable_block_sums, d), ref_adler32(d), "len {len}");
            }
        }
        let ff = vec![0xFFu8; 1 << 20];
        assert_eq!(adler32_by(portable_block_sums, &ff), ref_adler32(&ff));
    }

    /// ns per call of `adler32` by each kernel at 16 B … 16 KiB. Run it
    /// in release:
    /// `cargo test --release -p pangolin --lib adler32_kernel_timings -- --ignored --nocapture`.
    #[test]
    #[ignore = "a timing table, not a check"]
    fn adler32_kernel_timings() {
        use std::hint::black_box;
        use std::time::Instant;
        let data: Vec<u8> = (0..16384u32).map(|i| (i * 7 + 3) as u8).collect();
        let ns = |sums: Sums, len: usize| {
            let iters = (1 << 24) / (len + 64);
            let mut best = f64::MAX;
            for _ in 0..5 {
                let t = Instant::now();
                for _ in 0..iters {
                    black_box(adler32_by(sums, black_box(&data[..len])));
                }
                best = best.min(t.elapsed().as_nanos() as f64 / iters as f64);
            }
            best
        };
        println!("{:>6} {:>11} {:>11}", "bytes", "portable ns", "selected ns");
        for len in [16, 32, 64, 128, 256, 512, 1024, 4096, 16384] {
            let (old, new) = (ns(portable_block_sums, len), ns(block_sums, len));
            println!("{len:>6} {old:>11.1} {new:>11.1}");
        }
    }

    #[test]
    fn incremental_matches_full_recompute() {
        let mut data: Vec<u8> = (0..1000u32).map(|i| (i * 31 % 251) as u8).collect();
        let mut csum = adler32(&data);
        // A sequence of range replacements.
        let edits: Vec<(usize, Vec<u8>)> = vec![
            (0, vec![9, 9, 9]),
            (997, vec![1, 2, 3]),
            (500, (0..100).collect()),
            (42, vec![0]),
        ];
        for (off, new) in edits {
            let old = data[off..off + new.len()].to_vec();
            csum = adler32_update(csum, data.len() as u64, off as u64, &old, &new);
            data[off..off + new.len()].copy_from_slice(&new);
            assert_eq!(csum, adler32(&data), "after edit at {off}");
        }
    }

    #[test]
    fn identical_replacement_is_identity() {
        let data = vec![7u8; 64];
        let c = adler32(&data);
        assert_eq!(adler32_update(c, 64, 10, &data[10..20], &data[10..20]), c);
    }

    #[test]
    fn large_object_no_overflow() {
        // Exercise the deferred-modulo path with a large all-0xFF object.
        let data = vec![0xFFu8; 1 << 20];
        let c = adler32(&data);
        let old = &data[12345..12345 + 512];
        let new = vec![0u8; 512];
        let c2 = adler32_update(c, data.len() as u64, 12345, old, &new);
        let mut copy = data.clone();
        copy[12345..12345 + 512].copy_from_slice(&new);
        assert_eq!(c2, adler32(&copy));
    }

    #[test]
    fn update_spanning_many_blocks() {
        // A range longer than BLOCK crosses the block-wise weight
        // reduction; a huge total_len crosses the mod-65521 weight wrap.
        let total = (1u64 << 33) + 12345;
        let old = vec![0x11u8; 3 * BLOCK + 17];
        let new: Vec<u8> = (0..old.len() as u32).map(|i| (i % 254) as u8).collect();
        let base = adler32(&old);
        // Model: the object is `old` padded conceptually; compare two
        // orders of applying the same edit math.
        let via_blocks = adler32_update(base, total, total - old.len() as u64, &old, &new);
        // Byte-wise reference of the same delta.
        let mut a = (base & 0xFFFF) as i64;
        let mut b = (base >> 16) as i64;
        let m = MOD as i64;
        let off = total - old.len() as u64;
        for (i, (&o, &n)) in old.iter().zip(&new).enumerate() {
            let w = ((total - off - i as u64) % MOD) as i64;
            let d = n as i64 - o as i64;
            a = (a + d).rem_euclid(m);
            b = (b + w * d).rem_euclid(m);
        }
        assert_eq!(via_blocks, ((b as u32) << 16) | a as u32);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn mismatched_ranges_panic() {
        adler32_update(1, 10, 0, &[1, 2], &[1]);
    }
}
