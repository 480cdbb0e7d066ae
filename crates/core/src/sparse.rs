//! Sparse micro-buffers: shadow copies of *ranges* of very large objects.
//!
//! Micro-buffering (paper §3.2) shadows the whole object in DRAM, which is
//! right for node-sized objects but untenable for objects like the
//! hashmap's multi-megabyte bucket table (Table 3: "10 M (table)"), where
//! a transaction touches 16 bytes. Above
//! [`SPARSE_THRESHOLD`](crate::txn::SPARSE_THRESHOLD) bytes, Pangolin
//! shadows only the accessed 256-byte blocks:
//!
//! * writes load the covering blocks from NVMM (preserving
//!   read-modify-write semantics), mutate them in DRAM, and track exact
//!   modified ranges; a block is only ever loaded to be written, so it
//!   keeps its loaded image beside the working copy — the commit's
//!   pre-image, served from DRAM;
//! * commit redo-logs, writes back and parity-patches only those ranges;
//! * the object checksum updates **incrementally** from the old and new
//!   bytes of the modified ranges — the full object is never read, which
//!   is exactly the property the paper's Adler32 choice provides (§3.5);
//! * open-time whole-object verification is skipped (counted as
//!   unverified exposure in Table 4's accounting); scrubbing or
//!   [`crate::PglPool::read_verified`] still verify end to end.
//!
//! Each shadow block carries the same canary framing as a full
//! micro-buffer, so overruns within a block are still caught at commit.

use std::collections::BTreeMap;

use pgl_pmemobj::util::RangeSet;
use pgl_pmemobj::{ObjectHeader, PMEMoid, OBJ_HEADER_SIZE};

use crate::error::{PglError, Result};

/// Shadow-block size in bytes.
pub const SPARSE_BLOCK: u64 = 256;

const CANARY_SEED: u64 = 0x73_70_61_72_73_65_21_21; // "sparse!!"

/// End of the canary-framed working copy within a block's frame.
const FRAMED: usize = 8 + SPARSE_BLOCK as usize + 8;

/// A canary-framed 256-byte shadow block plus its loaded image.
struct Block {
    /// `[canary 8][data 256][canary 8][loaded 256]`.
    frame: Box<[u8]>,
}

impl Block {
    fn new(canary: u64, data: &[u8]) -> Block {
        debug_assert_eq!(data.len(), SPARSE_BLOCK as usize);
        let mut frame = vec![0u8; FRAMED + SPARSE_BLOCK as usize].into_boxed_slice();
        frame[..8].copy_from_slice(&canary.to_le_bytes());
        frame[8..FRAMED - 8].copy_from_slice(data);
        frame[FRAMED - 8..FRAMED].copy_from_slice(&canary.to_le_bytes());
        frame[FRAMED..].copy_from_slice(data);
        Block { frame }
    }

    fn data(&self) -> &[u8] {
        &self.frame[8..FRAMED - 8]
    }

    fn data_mut(&mut self) -> &mut [u8] {
        &mut self.frame[8..FRAMED - 8]
    }

    /// The block as read from NVMM.
    fn loaded(&self) -> &[u8] {
        &self.frame[FRAMED..]
    }

    fn canaries_ok(&self, canary: u64) -> bool {
        let c = canary.to_le_bytes();
        self.frame[..8] == c && self.frame[FRAMED - 8..FRAMED] == c
    }
}

/// A sparse (block-granular) micro-buffer over one large NVMM object.
pub struct SparseBuf {
    oid: PMEMoid,
    header: ObjectHeader,
    /// The header as loaded (`header` takes the refreshed checksum).
    loaded_header: ObjectHeader,
    /// Loaded shadow blocks, keyed by block index within the user data.
    blocks: BTreeMap<u64, Block>,
    /// Exact modified byte ranges (user-data relative).
    modified: RangeSet,
}

impl SparseBuf {
    fn canary(&self) -> u64 {
        CANARY_SEED ^ self.oid.off.rotate_left(23)
    }

    /// Creates an empty sparse buffer for the object described by `header`.
    pub fn new(oid: PMEMoid, header: ObjectHeader) -> SparseBuf {
        SparseBuf {
            oid,
            header,
            loaded_header: header,
            blocks: BTreeMap::new(),
            modified: RangeSet::new(),
        }
    }

    /// The shadowed object.
    pub fn oid(&self) -> PMEMoid {
        self.oid
    }

    /// The working header: as loaded at open, with the checksum
    /// [`SparseBuf::set_csum`] refreshed at commit.
    pub fn header(&self) -> ObjectHeader {
        self.header
    }

    /// The header as loaded at open: the header's pre-image at commit.
    pub fn loaded_header(&self) -> ObjectHeader {
        self.loaded_header
    }

    /// User size in bytes.
    pub fn user_size(&self) -> u64 {
        self.header.size
    }

    /// NVMM offset of the object header.
    pub fn header_off(&self) -> u64 {
        self.oid.off - OBJ_HEADER_SIZE
    }

    /// The block indices covering `[off, off+len)`.
    pub fn blocks_of(off: u64, len: u64) -> std::ops::Range<u64> {
        if len == 0 {
            return 0..0;
        }
        (off / SPARSE_BLOCK)..((off + len - 1) / SPARSE_BLOCK + 1)
    }

    /// Whether block `idx` is loaded; the caller reads missing blocks of
    /// a range ([`SparseBuf::blocks_of`]) from NVMM and installs them via
    /// [`SparseBuf::install_block`].
    pub fn has_block(&self, idx: u64) -> bool {
        self.blocks.contains_key(&idx)
    }

    /// Installs a shadow block read from NVMM (must be
    /// [`SPARSE_BLOCK`]-sized; the tail block is zero-padded by the
    /// caller).
    pub fn install_block(&mut self, idx: u64, data: &[u8]) {
        let canary = self.canary();
        self.blocks.insert(idx, Block::new(canary, data));
    }

    /// Writes `src` at `off`, marking the exact range modified. All
    /// covering blocks must already be installed.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the object or a block is missing
    /// (library-internal contract).
    pub fn write(&mut self, off: u64, src: &[u8]) {
        assert!(off + src.len() as u64 <= self.header.size, "sparse write out of bounds");
        let mut done = 0usize;
        while done < src.len() {
            let pos = off + done as u64;
            let b = pos / SPARSE_BLOCK;
            let within = (pos % SPARSE_BLOCK) as usize;
            let n = ((SPARSE_BLOCK as usize) - within).min(src.len() - done);
            let block = self.blocks.get_mut(&b).expect("block installed before write");
            block.data_mut()[within..within + n].copy_from_slice(&src[done..done + n]);
            done += n;
        }
        self.modified.insert(off, src.len() as u64);
    }

    /// Reads `dst.len()` bytes at `off` from the shadow (blocks must be
    /// installed; used for transaction-local reads of touched ranges).
    pub fn read(&self, off: u64, dst: &mut [u8]) {
        self.copy_out(off, dst, Block::data);
    }

    /// Reads `dst.len()` bytes at `off` as they were loaded from NVMM —
    /// the range's pre-image (blocks must be installed).
    pub fn read_loaded(&self, off: u64, dst: &mut [u8]) {
        self.copy_out(off, dst, Block::loaded);
    }

    fn copy_out(&self, off: u64, dst: &mut [u8], part: fn(&Block) -> &[u8]) {
        let mut done = 0usize;
        while done < dst.len() {
            let pos = off + done as u64;
            let b = pos / SPARSE_BLOCK;
            let within = (pos % SPARSE_BLOCK) as usize;
            let n = ((SPARSE_BLOCK as usize) - within).min(dst.len() - done);
            let block = self.blocks.get(&b).expect("block installed before read");
            dst[done..done + n].copy_from_slice(&part(block)[within..within + n]);
            done += n;
        }
    }

    /// Whether `[off, off+len)` is fully shadowed.
    pub fn covers(&self, off: u64, len: u64) -> bool {
        Self::blocks_of(off, len).all(|b| self.blocks.contains_key(&b))
    }

    /// The modified ranges.
    pub fn modified(&self) -> &RangeSet {
        &self.modified
    }

    /// Whether any range was modified.
    pub fn is_modified(&self) -> bool {
        !self.modified.is_empty()
    }

    /// Copies the current shadow bytes of `[off, off+len)` into a vector.
    pub fn range_bytes(&self, off: u64, len: u64) -> Vec<u8> {
        let mut out = vec![0u8; len as usize];
        self.read(off, &mut out);
        out
    }

    /// Verifies every shadow block's canaries (paper §3.2's overrun guard,
    /// at block granularity).
    pub fn check_canaries(&self) -> Result<()> {
        let canary = self.canary();
        for block in self.blocks.values() {
            if !block.canaries_ok(canary) {
                return Err(PglError::CanaryMismatch { off: self.oid.off });
            }
        }
        Ok(())
    }

    /// Updates the shadowed header's checksum field.
    pub fn set_csum(&mut self, csum: u32) {
        self.header.csum = csum;
    }

    /// Test/fault-injection helper: smash one block's canary.
    pub fn smash_a_canary(&mut self) {
        if let Some(block) = self.blocks.values_mut().next() {
            block.frame[FRAMED - 1] ^= 0xFF;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdr(size: u64) -> ObjectHeader {
        ObjectHeader { size, type_num: 1, csum: 0 }
    }

    #[test]
    fn block_math() {
        assert_eq!(SparseBuf::blocks_of(0, 1), 0..1);
        assert_eq!(SparseBuf::blocks_of(255, 2), 0..2);
        assert_eq!(SparseBuf::blocks_of(256, 256), 1..2);
        assert_eq!(SparseBuf::blocks_of(0, 0), 0..0);
    }

    #[test]
    fn write_read_roundtrip_across_blocks() {
        let mut s = SparseBuf::new(PMEMoid::new(1, 4096), hdr(1 << 20));
        for b in SparseBuf::blocks_of(250, 20) {
            assert!(!s.has_block(b));
            s.install_block(b, &[1u8; 256]);
        }
        s.write(250, &[7u8; 20]);
        let mut out = [0u8; 20];
        s.read(250, &mut out);
        assert_eq!(out, [7u8; 20]);
        s.read_loaded(250, &mut out);
        assert_eq!(out, [1u8; 20], "the loaded image survives the write");
        assert_eq!(s.modified().total_bytes(), 20);
        assert!(s.covers(250, 20));
        assert!(!s.covers(512, 1));
        s.check_canaries().unwrap();
    }

    #[test]
    fn canary_smash_detected() {
        let mut s = SparseBuf::new(PMEMoid::new(1, 4096), hdr(4096));
        s.install_block(0, &[0u8; 256]);
        s.smash_a_canary();
        assert!(matches!(s.check_canaries(), Err(PglError::CanaryMismatch { .. })));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_write_panics() {
        let mut s = SparseBuf::new(PMEMoid::new(1, 4096), hdr(100));
        s.install_block(0, &[0u8; 256]);
        s.write(90, &[0u8; 20]);
    }
}
