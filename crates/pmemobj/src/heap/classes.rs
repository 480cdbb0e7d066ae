//! Allocation size classes for run-based small-object allocation.
//!
//! Like `libpmemobj`, small allocations are served from *runs*: chunks
//! subdivided into fixed-size blocks with a bitmap. The class table is
//! chosen so the paper's data-structure object sizes (Table 3: 56, 80, 304,
//! 408, 4136 bytes plus a 16-byte header) land in snug classes.

use crate::layout::{RUN_HEADER_SIZE, RUN_MAX_BLOCKS};

/// Block sizes (bytes) of the run classes, ascending. Each includes room
/// for the 16-byte object header.
pub const CLASS_SIZES: &[u32] = &[
    64, 96, 128, 160, 192, 224, 256, 320, 328, 384, 448, 512, 640, 768, 896, 1024, 1280, 1536,
    2048, 2560, 3072, 4160, 4224, 5120, 6144, 8192, 10240, 12288, 16384,
];

/// Number of blocks a run of `block_size` manages in a chunk of
/// `chunk_size` bytes (0 if the class does not fit).
#[inline]
pub fn nblocks(chunk_size: usize, block_size: u32) -> u32 {
    let usable = chunk_size as u64 - RUN_HEADER_SIZE;
    ((usable / block_size as u64) as usize).min(RUN_MAX_BLOCKS) as u32
}

/// Picks the smallest class that fits `alloc_size` bytes and yields at
/// least one block per chunk. Returns `None` if the allocation should use
/// whole chunks instead.
pub fn class_for(alloc_size: u64, chunk_size: usize) -> Option<usize> {
    if alloc_size > CLASS_SIZES[CLASS_SIZES.len() - 1] as u64 {
        return None;
    }
    CLASS_SIZES.iter().position(|&c| c as u64 >= alloc_size && nblocks(chunk_size, c) >= 1)
}

/// Finds the class index for an exact block size (used when rebuilding
/// volatile state from a persistent run header).
pub fn class_index_of(block_size: u32) -> Option<usize> {
    CLASS_SIZES.iter().position(|&c| c == block_size)
}

/// Number of classes.
pub fn class_count() -> usize {
    CLASS_SIZES.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_sorted_and_aligned() {
        for w in CLASS_SIZES.windows(2) {
            assert!(w[0] < w[1]);
        }
        for &c in CLASS_SIZES {
            assert_eq!(c % 8, 0, "class {c} must keep 8-byte alignment");
        }
    }

    #[test]
    fn paper_object_sizes_fit_snugly() {
        // user size + 16-byte header -> class
        let chunk = 64 << 10;
        for (user, want) in [(56u64, 96u32), (80, 96), (304, 320), (408, 448), (4136, 4160)] {
            let ci = class_for(user + 16, chunk).unwrap();
            assert_eq!(CLASS_SIZES[ci], want, "user size {user}");
        }
        // The same nodes with a per-segment sum table behind their user
        // bytes (one 4-byte entry per 256-byte segment past the first),
        // and a 256-byte object with none.
        for (stored, want) in [(304 + 4, 328u32), (4136 + 64, 4224), (256, 320)] {
            let ci = class_for(stored + 16, chunk).unwrap();
            assert_eq!(CLASS_SIZES[ci], want, "stored size {stored}");
        }
    }

    #[test]
    fn oversized_requests_use_chunks() {
        assert_eq!(class_for(16385, 64 << 10), None);
        assert!(class_for(16384, 64 << 10).is_some());
    }

    #[test]
    fn nblocks_respects_bitmap_capacity() {
        // 64 KiB chunk, 64-byte blocks: (65536-320)/64 = 1019 <= RUN_MAX_BLOCKS
        assert_eq!(nblocks(64 << 10, 64), 1019);
        assert!(nblocks(256 << 10, 64) as usize == RUN_MAX_BLOCKS, "capped by bitmap");
        // Tiny chunks still hold at least one block of small classes.
        assert!(nblocks(16 << 10, 64) >= 1);
    }

    #[test]
    fn class_for_small_chunk_skips_unfit_classes() {
        // With a 16 KiB test chunk, the 16384 class cannot fit (header
        // overhead), so such a request must fall back to whole chunks.
        assert_eq!(class_for(16384, 16 << 10), None);
        assert!(class_for(8192, 16 << 10).is_some());
    }

    #[test]
    fn class_index_roundtrip() {
        for (i, &c) in CLASS_SIZES.iter().enumerate() {
            assert_eq!(class_index_of(c), Some(i));
        }
        assert_eq!(class_index_of(100), None);
    }
}
