//! Persistent run headers and chunk metadata entries.

use pgl_nvm::impl_pod;
use pgl_nvm::pod::{bytes_of, from_bytes};

use crate::error::{ObjError, Result};
use crate::io::PoolIo;
use crate::layout::{RUN_BITMAP_WORDS, RUN_HEADER_SIZE};
use crate::util::crc32;

/// Byte offset of the bitmap words inside a run header.
pub const RUN_BITMAP_OFF: u64 = 32;

/// Bitmap words in a run header's first cache line ([`RunPrefix`]): the
/// bits of blocks `0..256`.
pub const PREFIX_BITMAP_WORDS: usize = 4;

/// Chunk types stored in chunk metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ChunkType {
    /// Unused chunk.
    Free = 0,
    /// Subdivided into fixed-size blocks (run).
    Run = 1,
    /// First chunk of a multi-chunk (large) allocation.
    Large = 2,
    /// Continuation chunk of a large allocation.
    LargeCont = 3,
    /// Reserved for pool metadata (the CM array itself).
    Meta = 4,
    /// Holds overflowed transaction logs; excluded from parity (paper §3.1).
    Log = 5,
}

impl ChunkType {
    /// Decodes a chunk type byte.
    pub fn from_u8(v: u8) -> Option<ChunkType> {
        Some(match v {
            0 => ChunkType::Free,
            1 => ChunkType::Run,
            2 => ChunkType::Large,
            3 => ChunkType::LargeCont,
            4 => ChunkType::Meta,
            5 => ChunkType::Log,
            _ => return None,
        })
    }
}

/// A 16-byte persistent chunk-metadata entry.
///
/// Pangolin checksums these (the `csum` field) and relies on zone parity to
/// recover a corrupted entry (paper §3.1); the baseline leaves `csum`
/// maintained too since it is cheap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(C)]
pub struct ChunkMeta {
    /// Chunk type (see [`ChunkType`]).
    pub ctype: u8,
    /// Reserved flags.
    pub flags: u8,
    /// Run class index (for `Run` chunks).
    pub class: u16,
    /// For `Large` heads: total chunks in the allocation.
    pub size_idx: u32,
    /// Reserved.
    pub arg: u32,
    /// CRC32 of the first 12 bytes.
    pub csum: u32,
}
impl_pod!(ChunkMeta, 16);

impl ChunkMeta {
    /// Builds an entry with a correct checksum.
    pub fn new(ctype: ChunkType, class: u16, size_idx: u32) -> ChunkMeta {
        let mut m = ChunkMeta { ctype: ctype as u8, flags: 0, class, size_idx, arg: 0, csum: 0 };
        m.csum = m.compute_csum();
        m
    }

    /// Computes the checksum over the non-checksum prefix.
    pub fn compute_csum(&self) -> u32 {
        crc32(&bytes_of(self)[..12])
    }

    /// Returns `true` if the stored checksum matches the content.
    pub fn verify(&self) -> bool {
        self.csum == self.compute_csum()
    }

    /// Decodes the chunk type, if valid.
    pub fn chunk_type(&self) -> Option<ChunkType> {
        ChunkType::from_u8(self.ctype)
    }

    /// Serializes to the 16 on-media bytes.
    pub fn to_bytes(self) -> [u8; 16] {
        let mut b = [0u8; 16];
        b.copy_from_slice(bytes_of(&self));
        b
    }

    /// Deserializes from 16 on-media bytes.
    pub fn from_slice(b: &[u8]) -> ChunkMeta {
        from_bytes(b)
    }
}

/// The persistent header at the start of every run chunk: block geometry
/// plus the allocation bitmap.
#[derive(Clone, Copy)]
#[repr(C)]
pub struct RunHeader {
    /// Size of each block in bytes.
    pub block_size: u32,
    /// Number of managed blocks.
    pub nblocks: u32,
    /// Reserved.
    pub reserved: [u64; 3],
    /// Allocation bitmap (bit set = block allocated).
    pub bitmap: [u64; RUN_BITMAP_WORDS],
}
impl_pod!(RunHeader, RUN_HEADER_SIZE as usize);

impl RunHeader {
    /// A freshly formatted run header with an empty bitmap.
    pub fn formatted(block_size: u32, nblocks: u32) -> RunHeader {
        RunHeader { block_size, nblocks, reserved: [0; 3], bitmap: [0; RUN_BITMAP_WORDS] }
    }

    /// Reads the header at `chunk_base`.
    pub fn read(io: &PoolIo, chunk_base: u64) -> Result<RunHeader> {
        let mut buf = [0u8; RUN_HEADER_SIZE as usize];
        io.read(chunk_base, &mut buf)?;
        Ok(from_bytes(&buf))
    }

    /// Validates geometry against the chunk size.
    pub fn validate(&self, chunk_size: usize) -> Result<()> {
        validate_geometry(self.block_size, self.nblocks, chunk_size)
    }

    /// Returns `true` if block `b` is allocated.
    #[inline]
    pub fn is_set(&self, b: u32) -> bool {
        self.bitmap[(b / 64) as usize] & (1 << (b % 64)) != 0
    }

    /// Iterates indices of free blocks.
    pub fn free_blocks(&self) -> Vec<u32> {
        (0..self.nblocks).filter(|&b| !self.is_set(b)).collect()
    }

    /// Offset (pool-relative) of the bitmap word covering block `b` in a
    /// run based at `chunk_base`, plus the bit mask for `b`.
    #[inline]
    pub fn bit_pos(chunk_base: u64, b: u32) -> (u64, u64) {
        (chunk_base + RUN_BITMAP_OFF + (b / 64) as u64 * 8, 1u64 << (b % 64))
    }

    /// Offset of block `b`'s storage within the run.
    #[inline]
    pub fn block_off(chunk_base: u64, block_size: u32, b: u32) -> u64 {
        chunk_base + RUN_HEADER_SIZE + b as u64 * block_size as u64
    }
}

fn validate_geometry(block_size: u32, nblocks: u32, chunk_size: usize) -> Result<()> {
    let fits = block_size >= 8
        && nblocks >= 1
        && RUN_HEADER_SIZE + block_size as u64 * nblocks as u64 <= chunk_size as u64;
    if fits {
        Ok(())
    } else {
        Err(ObjError::Corruption { off: 0, what: "run header" })
    }
}

/// The first cache line of a [`RunHeader`]: the block geometry and the
/// bitmap words of blocks `0..256` — all a liveness probe of those blocks
/// reads. A block past them costs one more 8-byte word read.
#[derive(Clone, Copy, Debug)]
#[repr(C)]
pub struct RunPrefix {
    /// Size of each block in bytes.
    pub block_size: u32,
    /// Number of managed blocks.
    pub nblocks: u32,
    /// Reserved.
    pub reserved: [u64; 3],
    /// Bitmap words `0..PREFIX_BITMAP_WORDS`.
    pub bitmap: [u64; PREFIX_BITMAP_WORDS],
}
impl_pod!(RunPrefix, 64);

impl RunPrefix {
    /// Reads the prefix of the run header at `chunk_base` (one 64-byte read).
    pub fn read(io: &PoolIo, chunk_base: u64) -> Result<RunPrefix> {
        let mut buf = [0u8; 64];
        io.read(chunk_base, &mut buf)?;
        Ok(from_bytes(&buf))
    }

    /// Validates geometry against the chunk size (as [`RunHeader::validate`]).
    pub fn validate(&self, chunk_size: usize) -> Result<()> {
        validate_geometry(self.block_size, self.nblocks, chunk_size)
    }

    /// Block `b`'s bitmap word, when the prefix holds it (`b < 256`).
    pub fn word_of(&self, b: u32) -> Option<u64> {
        self.bitmap.get((b / 64) as usize).copied()
    }
}

impl std::fmt::Debug for RunHeader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunHeader")
            .field("block_size", &self.block_size)
            .field("nblocks", &self.nblocks)
            .field("allocated", &(0..self.nblocks).filter(|&b| self.is_set(b)).count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_meta_checksum_detects_corruption() {
        let m = ChunkMeta::new(ChunkType::Run, 3, 0);
        assert!(m.verify());
        let mut bad = m;
        bad.class = 4;
        assert!(!bad.verify());
    }

    #[test]
    fn chunk_meta_roundtrip() {
        let m = ChunkMeta::new(ChunkType::Large, 0, 17);
        let b = m.to_bytes();
        let n = ChunkMeta::from_slice(&b);
        assert_eq!(m, n);
        assert_eq!(n.chunk_type(), Some(ChunkType::Large));
        assert_eq!(n.size_idx, 17);
    }

    #[test]
    fn run_header_bit_math() {
        let mut h = RunHeader::formatted(128, 100);
        assert_eq!(h.free_blocks().len(), 100);
        h.bitmap[1] = 0b1; // block 64 allocated
        assert!(h.is_set(64));
        assert!(!h.is_set(63));
        assert_eq!(h.free_blocks().len(), 99);

        let (w, m) = RunHeader::bit_pos(0x10000, 64);
        assert_eq!(w, 0x10000 + RUN_BITMAP_OFF + 8);
        assert_eq!(m, 1);
        assert_eq!(RunHeader::block_off(0x10000, 128, 2), 0x10000 + RUN_HEADER_SIZE + 256);
    }

    #[test]
    fn run_header_validation() {
        assert!(RunHeader::formatted(64, 100).validate(64 << 10).is_ok());
        assert!(RunHeader::formatted(0, 100).validate(64 << 10).is_err());
        assert!(RunHeader::formatted(64, 0).validate(64 << 10).is_err());
        // Too many blocks for the chunk.
        assert!(RunHeader::formatted(16384, 100).validate(64 << 10).is_err());
    }

    #[test]
    fn invalid_chunk_type_is_none() {
        assert_eq!(ChunkType::from_u8(99), None);
        let mut m = ChunkMeta::new(ChunkType::Free, 0, 0);
        m.ctype = 200;
        assert_eq!(m.chunk_type(), None);
    }
}
