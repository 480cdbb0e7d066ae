//! Small utilities: merged range sets and checksums for metadata.

/// A set of byte ranges `[start, start+len)` kept sorted and coalesced.
///
/// Used to deduplicate undo snapshots, to track written ranges for
/// commit-time flushing, and by Pangolin's micro-buffers to record modified
/// ranges (paper §3.2).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RangeSet {
    ranges: Vec<(u64, u64)>, // (start, end) sorted, non-overlapping, non-adjacent
}

impl RangeSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        RangeSet::default()
    }

    /// Returns `true` if no ranges are recorded.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Number of disjoint ranges.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Total bytes covered.
    pub fn total_bytes(&self) -> u64 {
        self.ranges.iter().map(|(s, e)| e - s).sum()
    }

    /// Inserts `[start, start+len)`, merging with neighbours.
    pub fn insert(&mut self, start: u64, len: u64) {
        if len == 0 {
            return;
        }
        let end = start + len;
        // Find insertion window: all ranges overlapping or adjacent.
        let lo = self.ranges.partition_point(|&(_, e)| e < start);
        let hi = self.ranges.partition_point(|&(s, _)| s <= end);
        if lo == hi {
            self.ranges.insert(lo, (start, end));
            return;
        }
        let new_start = self.ranges[lo].0.min(start);
        let new_end = self.ranges[hi - 1].1.max(end);
        self.ranges.drain(lo..hi);
        self.ranges.insert(lo, (new_start, new_end));
    }

    /// Returns `true` if `[start, start+len)` is fully covered.
    pub fn contains(&self, start: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        let end = start + len;
        match self.ranges.binary_search_by(|&(s, e)| {
            if start < s {
                std::cmp::Ordering::Greater
            } else if start >= e {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        }) {
            Ok(i) => self.ranges[i].1 >= end,
            Err(_) => false,
        }
    }

    /// Returns the sub-ranges of `[start, start+len)` *not* covered by the
    /// set (the pieces that still need snapshotting).
    pub fn uncovered(&self, start: u64, len: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let end = start + len;
        let mut cursor = start;
        for &(s, e) in &self.ranges {
            if e <= cursor {
                continue;
            }
            if s >= end {
                break;
            }
            if s > cursor {
                out.push((cursor, s.min(end) - cursor));
            }
            cursor = cursor.max(e);
            if cursor >= end {
                break;
            }
        }
        if cursor < end {
            out.push((cursor, end - cursor));
        }
        out
    }

    /// Iterates `(start, len)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.ranges.iter().map(|&(s, e)| (s, e - s))
    }

    /// Removes all ranges.
    pub fn clear(&mut self) {
        self.ranges.clear();
    }
}

/// Bytes the CRC kernel folds per step (slicing-by-N: one table per byte
/// position, so a step is N independent lookups instead of N dependent ones).
const CRC_SLICES: usize = 16;

/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes
/// (IEEE polynomial, reflected); `CRC_TABLES[0]` is the classic byte table.
static CRC_TABLES: [[u32; 256]; CRC_SLICES] = {
    let mut t = [[0u32; 256]; CRC_SLICES];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < CRC_SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC32 (IEEE, reflected) used to checksum metadata structures and log
/// entries.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_seed(0, data)
}

/// Shortest input the carry-less-multiply fold takes: its four
/// accumulators start from one 64-byte line. It already wins there (8.7 ns
/// against the table kernel's 27 on a Xeon with AVX-512; EXPERIMENTS.md,
/// "Checksum kernels"), so the crossover is the fold's own minimum.
#[cfg(target_arch = "x86_64")]
const CLMUL_MIN: usize = 64;

/// CRC32 continuation: feeds `data` into a running checksum.
///
/// Every log entry is checksummed with this (its payload, then its
/// 8-byte generation seed and 12 header bytes as tails), which makes it
/// the byte-proportional host cost of the log path. On x86-64 CPUs with
/// `PCLMULQDQ` (detected at run time), inputs of 64 bytes or more are
/// folded 64 bytes per step by carry-less multiplication; the fold's
/// sub-16-byte tail, shorter inputs, other CPUs and other targets take
/// [`crc32_seed_table`]. Both compute the same polynomial, so the values
/// on media do not depend on which ran; the tests pin each against the
/// bit-serial reference.
pub fn crc32_seed(seed: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= CLMUL_MIN && std::is_x86_feature_detected!("pclmulqdq") {
        // SAFETY: `pclmulqdq` was detected on this CPU just above.
        return unsafe { clmul::crc32_fold(seed, data) };
    }
    crc32_seed_table(seed, data)
}

/// The table kernel: slicing-by-16, then four bytes per step, then the
/// byte table for the last few. The only kernel on targets and CPUs
/// without a carry-less multiply, and the one every short input takes.
pub fn crc32_seed_table(seed: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = !seed;
    let mut blocks = data.chunks_exact(CRC_SLICES);
    for block in &mut blocks {
        let block: &[u8; CRC_SLICES] = block.try_into().expect("chunks_exact length");
        let head = c.to_le_bytes();
        let mut next = 0u32;
        for (i, &b) in block.iter().enumerate() {
            let b = if i < 4 { b ^ head[i] } else { b };
            next ^= t[CRC_SLICES - 1 - i][b as usize];
        }
        c = next;
    }
    let mut rest = blocks.remainder();
    while let Some((word, tail)) = rest.split_first_chunk::<4>() {
        let w = (c ^ u32::from_le_bytes(*word)).to_le_bytes();
        c = t[3][w[0] as usize] ^ t[2][w[1] as usize] ^ t[1][w[2] as usize] ^ t[0][w[3] as usize];
        rest = tail;
    }
    for &b in rest {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// CRC32 by carry-less multiplication (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
/// Intel 2009, bit-reflected variant).
///
/// Four 128-bit accumulators each fold in the 16 bytes that lie 64 bytes
/// past them, which is a multiply by `x^512 mod P` split over the
/// accumulator's two halves. The four then fold into one, that one takes
/// the remaining whole 16-byte blocks, and a reduction to 64 bits and a
/// Barrett reduction to 32 finish the job. Every constant is a power of
/// `x` modulo the polynomial (or its Barrett quotient), bit-reflected and
/// shifted left by one for the reflected domain; the tests derive each
/// from its definition.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// `x^(4·128+32)` and `x^(4·128−32)` mod P: a fold across 64 bytes.
    pub(super) const K1: i64 = 0x1_5444_2bd4;
    pub(super) const K2: i64 = 0x1_c6e4_1596;
    /// `x^(128+32)` and `x^(128−32)` mod P: a fold across 16 bytes.
    pub(super) const K3: i64 = 0x1_7519_97d0;
    pub(super) const K4: i64 = 0x0_ccaa_009e;
    /// `x^64` mod P: the 96-to-64-bit step of the final reduction.
    pub(super) const K5: i64 = 0x1_63cd_6124;
    /// The polynomial itself, and `⌊x^64 / P⌋`, for the Barrett step.
    pub(super) const P: i64 = 0x1_db71_0641;
    pub(super) const MU: i64 = 0x1_f701_1641;

    /// [`super::crc32_seed`] over `data` (at least 64 bytes).
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` (SSE2 is part of x86-64).
    #[target_feature(enable = "pclmulqdq")]
    pub(super) unsafe fn crc32_fold(seed: u32, data: &[u8]) -> u32 {
        let (blocks, tail) = data.split_at(data.len() / 16 * 16);
        let mut lines = blocks.chunks_exact(64);
        let first = lines.next().expect("at least 64 bytes");
        let mut x = [0, 1, 2, 3].map(|i| load(first, 16 * i));
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(!seed as i32));
        let k1k2 = _mm_set_epi64x(K2, K1);
        for line in &mut lines {
            for (i, acc) in x.iter_mut().enumerate() {
                *acc = fold(*acc, load(line, 16 * i), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold(fold(fold(x[0], x[1], k3k4), x[2], k3k4), x[3], k3k4);
        for block in lines.remainder().chunks_exact(16) {
            acc = fold(acc, load(block, 0), k3k4);
        }
        // 128 → 96 bits: the low half moves up past the high one ...
        let acc = _mm_xor_si128(_mm_clmulepi64_si128(acc, k3k4, 0x10), _mm_srli_si128(acc, 8));
        // ... and 96 → 64: the low 32 bits move up past the rest.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        let acc = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(acc, 4),
        );
        // Barrett: q = (acc mod x^32)·µ, then acc ⊕ (q mod x^32)·P leaves
        // the remainder in bits 32..64.
        let pmu = _mm_set_epi64x(MU, P);
        let q = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), pmu, 0x10);
        let r = _mm_clmulepi64_si128(_mm_and_si128(q, low32), pmu, 0x00);
        let crc = !(_mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(acc, r), 4)) as u32);
        super::crc32_seed_table(crc, tail)
    }

    /// The 16 bytes at `at` of `bytes`.
    #[inline(always)]
    fn load(bytes: &[u8], at: usize) -> __m128i {
        let block = &bytes[at..at + 16];
        // SAFETY: `block` is 16 readable bytes, the load is unaligned, and
        // SSE2 is part of x86-64.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `a·k_lo ⊕ a·k_hi ⊕ b`: moves `a` 128 (or 512) bits further along the
    /// message, where it lands on `b`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_xor_si128(b, _mm_clmulepi64_si128(a, k, 0x00)),
            _mm_clmulepi64_si128(a, k, 0x11),
        )
    }
}

/// The byte-at-a-time loop the table kernel replaced, with the table
/// lookup spelled out as its eight shift steps so it shares nothing with
/// [`CRC_TABLES`] or the fold: the reference both kernels must match bit
/// for bit, because on-media log entries, `ChunkMeta` and the pool header
/// carry these values.
#[cfg(test)]
pub(crate) fn crc32_seed_bytewise(seed: u32, data: &[u8]) -> u32 {
    let mut c = !seed;
    for &b in data {
        c ^= b as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
        }
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rangeset_merges_overlaps_and_adjacency() {
        let mut rs = RangeSet::new();
        rs.insert(10, 10); // [10,20)
        rs.insert(30, 10); // [30,40)
        assert_eq!(rs.len(), 2);
        rs.insert(20, 10); // adjacent on both sides -> one range [10,40)
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.total_bytes(), 30);
        assert!(rs.contains(10, 30));
        assert!(!rs.contains(9, 2));
        assert!(!rs.contains(39, 2));
    }

    #[test]
    fn rangeset_uncovered_finds_gaps() {
        let mut rs = RangeSet::new();
        rs.insert(10, 10);
        rs.insert(40, 10);
        let gaps = rs.uncovered(0, 60);
        assert_eq!(gaps, vec![(0, 10), (20, 20), (50, 10)]);
        assert!(rs.uncovered(12, 5).is_empty());
        assert_eq!(rs.uncovered(15, 10), vec![(20, 5)]);
    }

    #[test]
    fn rangeset_zero_len_is_noop() {
        let mut rs = RangeSet::new();
        rs.insert(5, 0);
        assert!(rs.is_empty());
        assert!(rs.contains(7, 0));
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn crc32_seed_concatenates() {
        // Lengths up to 300 put every head/tail remainder of the sliced
        // loop on both sides of the split.
        let data: Vec<u8> =
            (0..300u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for len in 0..=data.len() {
            let whole = crc32(&data[..len]);
            assert_eq!(whole, crc32_seed_bytewise(0, &data[..len]), "len {len}");
            for split in 0..=len {
                let (a, b) = data[..len].split_at(split);
                assert_eq!(crc32_seed(crc32(a), b), whole, "len {len} split {split}");
            }
        }
    }

    /// Lengths up to 64 KiB mixing random, all-zero and all-`0xFF` bytes.
    fn crc_input() -> impl proptest::Strategy<Value = Vec<u8>> {
        use proptest::prelude::{any, Strategy};
        (proptest::collection::vec(any::<u8>(), 0..=1 << 16), 0u8..4).prop_map(
            |(mut data, fill)| {
                // One case in four is all-ones, one all-zeros: every fold
                // lane's carries at their extremes.
                match fill {
                    0 => data.fill(0xFF),
                    1 => data.fill(0),
                    _ => {}
                }
                data
            },
        )
    }

    /// `smoke` cases, or sixteen times as many under `PGL_DEEP_SWEEP=1`.
    fn cases(smoke: u32) -> proptest::prelude::ProptestConfig {
        let deep = std::env::var("PGL_DEEP_SWEEP").as_deref() == Ok("1");
        proptest::prelude::ProptestConfig::with_cases(if deep { 16 * smoke } else { smoke })
    }

    proptest::proptest! {
        #![proptest_config(cases(256))]

        #[test]
        fn crc32_sliced_matches_bytewise(
            data in crc_input(),
            seed in proptest::prelude::any::<u32>(),
            skip in 0usize..CRC_SLICES,
        ) {
            // `skip` shifts the slice start so the kernel sees every
            // address alignment, not only the allocator's.
            let data = &data[skip.min(data.len())..];
            let want = crc32_seed_bytewise(seed, data);
            proptest::prop_assert_eq!(crc32_seed(seed, data), want);
            proptest::prop_assert_eq!(crc32_seed_table(seed, data), want);
        }
    }

    #[test]
    fn crc32_kernels_match_bytewise_at_every_edge_and_alignment() {
        // Every length to 1 088 B crosses the fold's threshold and the
        // edges of its 64-byte and 16-byte loops (and of the table
        // kernel's 16- and 4-byte steps) with one byte to spare each way;
        // the long ones sit on the 4 KiB and 64 KiB edges. All from each
        // of the 16 start alignments, patterned and all-ones.
        let long = [4095, 4096, 4097, 65535, 65536];
        let patterned: Vec<u8> =
            (0..(1 << 16) + 16u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        let ones = vec![0xFF; patterned.len()];
        for data in [&patterned, &ones] {
            for len in (0..=1088).chain(long) {
                for skip in 0..CRC_SLICES {
                    let d = &data[skip..skip + len];
                    let want = crc32_seed_bytewise(0x5EED, d);
                    assert_eq!(crc32_seed(0x5EED, d), want, "len {len} skip {skip}");
                    assert_eq!(crc32_seed_table(0x5EED, d), want, "table, len {len} skip {skip}");
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clmul_constants_are_powers_of_x_mod_the_polynomial() {
        // Normal (unreflected) bit order: bit i is x^i, x^32 implied.
        const POLY: u32 = 0x04C1_1DB7;
        let xpow =
            |n: u32| (0..n).fold(1u32, |r, _| (r << 1) ^ if r >> 31 == 1 { POLY } else { 0 });
        // A remainder, reflected and shifted left by one.
        let k = |n: u32| (xpow(n).reverse_bits() as i64) << 1;
        assert_eq!([clmul::K1, clmul::K2], [k(4 * 128 + 32), k(4 * 128 - 32)]);
        assert_eq!([clmul::K3, clmul::K4], [k(128 + 32), k(128 - 32)]);
        assert_eq!(clmul::K5, k(64));
        // ⌊x^64 / P⌋ by long division, and P itself, both reflected over
        // their 33 bits.
        let p = 1u128 << 32 | POLY as u128;
        let (mut rem, mut quot) = (1u128 << 64, 0u128);
        for bit in (0..=32).rev() {
            if rem >> (bit + 32) & 1 == 1 {
                rem ^= p << bit;
                quot |= 1 << bit;
            }
        }
        let reflect33 = |v: u128| (v as u64).reverse_bits() as i64 >> 31 & 0x1_FFFF_FFFF;
        assert_eq!([clmul::P, clmul::MU], [reflect33(p), reflect33(quot)]);
    }

    /// The crossover table behind [`CLMUL_MIN`]: ns per call of each
    /// kernel at 16 B … 16 KiB. Run it in release:
    /// `cargo test --release -p pgl-pmemobj --lib crc32_kernel_timings -- --ignored --nocapture`.
    #[cfg(target_arch = "x86_64")]
    #[test]
    #[ignore = "a timing table, not a check"]
    fn crc32_kernel_timings() {
        use std::hint::black_box;
        use std::time::Instant;
        let data: Vec<u8> = (0..16384u32).map(|i| (i * 7 + 3) as u8).collect();
        let ns = |f: &dyn Fn(&[u8]) -> u32, len: usize| {
            let iters = (1 << 24) / (len + 64);
            let mut best = f64::MAX;
            for _ in 0..5 {
                let t = Instant::now();
                for _ in 0..iters {
                    black_box(f(black_box(&data[..len])));
                }
                best = best.min(t.elapsed().as_nanos() as f64 / iters as f64);
            }
            best
        };
        println!("{:>6} {:>9} {:>9}", "bytes", "table ns", "fold ns");
        for len in [16, 32, 64, 96, 128, 192, 256, 512, 1024, 4096, 16384] {
            let table = ns(&|d| crc32_seed_table(0, d), len);
            // SAFETY: only timed where `pclmulqdq` is present, and only
            // on the 64 bytes or more the fold needs.
            let fold = (len >= 64 && std::is_x86_feature_detected!("pclmulqdq"))
                .then(|| ns(&|d| unsafe { clmul::crc32_fold(0, d) }, len));
            println!("{len:>6} {table:>9.1} {:>9.1}", fold.unwrap_or(f64::NAN));
        }
    }
}
