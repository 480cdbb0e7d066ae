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

/// CRC32 continuation: feeds `data` into a running checksum.
///
/// Table-sliced: sixteen bytes per step, then four per step, then the
/// byte table for the last few. Every log entry is checksummed with this
/// (its 8-byte generation seed and 12 header bytes are tails), which
/// makes it the byte-proportional host cost of the log path.
pub fn crc32_seed(seed: u32, data: &[u8]) -> u32 {
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

/// The byte-at-a-time loop `crc32_seed` replaced, with the table lookup
/// spelled out as its eight shift steps so it shares nothing with
/// [`CRC_TABLES`]: the reference the sliced kernel must match bit for bit,
/// because on-media log entries, `ChunkMeta` and the pool header carry
/// these values.
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

    proptest::proptest! {
        #[test]
        fn crc32_sliced_matches_bytewise(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..=4096),
            seed in proptest::prelude::any::<u32>(),
            skip in 0usize..CRC_SLICES,
        ) {
            // `skip` shifts the slice start so the kernel sees every
            // address alignment, not only the allocator's.
            let data = &data[skip.min(data.len())..];
            proptest::prop_assert_eq!(crc32_seed(seed, data), crc32_seed_bytewise(seed, data));
        }
    }
}
