//! Pool geometry: where headers, lanes, zones, chunk rows and parity live.
//!
//! The layout mirrors `libpmemobj`'s pool organisation (paper Figure 1) with
//! Pangolin's zone-as-2D-array refinement (paper Figure 2):
//!
//! ```text
//! | pool hdr | pool hdr' | lanes (logs) | lanes' | zone 0 | zone 1 | ...
//!
//! zone:  | zone hdr | zone hdr' | (reserve) | row 0 | row 1 | ... | row N-1 | parity |
//!             W          W'
//! row:   | chunk | chunk | ... |                (rows are contiguous NVMM)
//! ```
//!
//! The two zone-header pages hold the zone's reserved-chunk watermark `W`
//! and its copy `W'` ([`crate::zonehdr`]): chunks numbered at or above `W`
//! have never been written since pool creation. The rest of the header
//! reserve, up to the chunk-aligned `rows_base`, holds nothing.
//!
//! The first chunks of row 0 hold the chunk-metadata (CM) array and are
//! typed `Meta` so the allocator never hands them out; being ordinary chunk
//! data, they are covered by zone parity exactly as the paper prescribes
//! ("Pangolin uses zone parity to support recovery of chunk metadata").
//!
//! All geometry is configurable so tests use tiny pools while the benchmark
//! harness approximates the paper's 16 GB-zone ratios.

use pgl_nvm::{align_down, align_up, PAGE_SIZE};

use crate::error::{ObjError, Result};

/// Size of one chunk-metadata entry in bytes.
pub const CM_ENTRY_SIZE: u64 = 16;

/// Fixed size of a run header (type/class info plus allocation bitmap) at
/// the start of every run chunk.
pub const RUN_HEADER_SIZE: u64 = 320;

/// Number of bitmap words available in a run header.
pub const RUN_BITMAP_WORDS: usize = 36;

/// Maximum blocks a single run can manage (bitmap capacity).
pub const RUN_MAX_BLOCKS: usize = RUN_BITMAP_WORDS * 64;

/// Tunable pool geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Total pool size in bytes (must be a page multiple).
    pub size: usize,
    /// Zone size in bytes (paper default 16 GiB; ours 64 MiB).
    pub zone_size: usize,
    /// Chunk size in bytes (paper default 256 KiB; ours 64 KiB).
    pub chunk_size: usize,
    /// Number of *data* chunk rows per zone (paper default 100, giving ~1 %
    /// parity overhead).
    pub chunk_rows: usize,
    /// Whether to reserve a parity row per zone (Pangolin modes).
    pub parity: bool,
    /// Number of transaction lanes.
    pub n_lanes: usize,
    /// Per-lane log space in bytes (page multiple).
    pub lane_size: usize,
}

impl PoolConfig {
    /// A small configuration for unit tests: 8 MiB pool, 4 MiB zones,
    /// 16 KiB chunks, 15 data rows + parity.
    pub fn small() -> Self {
        PoolConfig {
            size: 8 << 20,
            zone_size: 4 << 20,
            chunk_size: 16 << 10,
            chunk_rows: 15,
            parity: true,
            n_lanes: 8,
            lane_size: 128 << 10,
        }
    }

    /// The benchmark configuration scaled from the paper: 100 data rows
    /// (≈1 % parity), 64 KiB chunks, 64 MiB zones.
    pub fn bench(pool_size: usize) -> Self {
        PoolConfig {
            size: pool_size,
            zone_size: 64 << 20,
            chunk_size: 64 << 10,
            chunk_rows: 100,
            parity: true,
            n_lanes: 64,
            lane_size: 512 << 10,
        }
    }

    /// Disables the parity row (plain `libpmemobj` layout).
    pub fn without_parity(mut self) -> Self {
        self.parity = false;
        self
    }

    /// Overrides the number of data chunk rows.
    pub fn with_rows(mut self, rows: usize) -> Self {
        self.chunk_rows = rows;
        self
    }
}

/// Geometry of a single zone, all offsets relative to the zone base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneGeo {
    /// Zone header (primary) offset: 0. Holds the watermark record.
    pub hdr_off: u64,
    /// Zone header replica offset (the record's copy).
    pub hdr_replica_off: u64,
    /// Start of the chunk-row grid.
    pub rows_base: u64,
    /// Bytes per chunk row (a multiple of the chunk size).
    pub row_size: u64,
    /// Chunks per row.
    pub chunks_per_row: u64,
    /// Number of data rows.
    pub data_rows: u64,
    /// Offset of the parity row, if the pool was created with parity.
    pub parity_base: Option<u64>,
    /// Total data chunks (`chunks_per_row * data_rows`).
    pub n_chunks: u64,
    /// How many leading chunks of row 0 hold the CM array.
    pub cm_chunks: u64,
}

/// Fully resolved pool layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// The originating configuration.
    pub cfg: PoolConfig,
    /// Pool header (primary) offset: 0.
    pub hdr_off: u64,
    /// Pool header replica offset.
    pub hdr_replica_off: u64,
    /// Primary lane region offset.
    pub lanes_off: u64,
    /// Replica lane region offset (used when log replication is on).
    pub lanes_replica_off: u64,
    /// First zone offset.
    pub heap_off: u64,
    /// Number of zones.
    pub n_zones: u64,
    /// Per-zone geometry (identical for all zones).
    pub zone: ZoneGeo,
}

impl Layout {
    /// Computes the layout for `cfg`, validating all constraints.
    pub fn new(cfg: PoolConfig) -> Result<Layout> {
        let bad = |m: String| Err(ObjError::BadPool(m));
        if cfg.size == 0 || cfg.size % PAGE_SIZE != 0 {
            return bad(format!("pool size {} not a page multiple", cfg.size));
        }
        if !cfg.chunk_size.is_power_of_two() || cfg.chunk_size < PAGE_SIZE {
            return bad(format!("chunk size {} must be a power-of-two >= 4096", cfg.chunk_size));
        }
        if cfg.zone_size % cfg.chunk_size != 0 {
            return bad("zone size must be a chunk multiple".into());
        }
        if cfg.chunk_rows == 0 || cfg.n_lanes == 0 {
            return bad("need at least one chunk row and one lane".into());
        }
        if cfg.lane_size % PAGE_SIZE != 0 || cfg.lane_size < 2 * PAGE_SIZE {
            return bad("lane size must be a page multiple >= 8 KiB".into());
        }

        let hdr_off = 0u64;
        let hdr_replica_off = PAGE_SIZE as u64;
        let lanes_off = 2 * PAGE_SIZE as u64;
        let lane_region = (cfg.n_lanes * cfg.lane_size) as u64;
        let lanes_replica_off = lanes_off + lane_region;
        let heap_off = align_up((lanes_replica_off + lane_region) as usize, cfg.chunk_size) as u64;

        if heap_off as usize + cfg.zone_size > cfg.size {
            return bad("pool too small for one zone".into());
        }
        let n_zones = ((cfg.size as u64 - heap_off) / cfg.zone_size as u64).max(1);

        // Zone-internal geometry.
        let rows_base = align_up(2 * PAGE_SIZE, cfg.chunk_size) as u64;
        let row_area = cfg.zone_size as u64 - rows_base;
        let total_rows = cfg.chunk_rows as u64 + u64::from(cfg.parity);
        let row_size = align_down((row_area / total_rows) as usize, cfg.chunk_size) as u64;
        if row_size == 0 {
            return bad("zone too small: rows would be empty".into());
        }
        let chunks_per_row = row_size / cfg.chunk_size as u64;
        let data_rows = cfg.chunk_rows as u64;
        let n_chunks = chunks_per_row * data_rows;
        let parity_base = cfg.parity.then_some(rows_base + data_rows * row_size);
        let cm_bytes = n_chunks * CM_ENTRY_SIZE;
        let cm_chunks = cm_bytes.div_ceil(cfg.chunk_size as u64);
        if cm_chunks >= n_chunks {
            return bad("zone too small: chunk metadata would fill it".into());
        }

        Ok(Layout {
            cfg,
            hdr_off,
            hdr_replica_off,
            lanes_off,
            lanes_replica_off,
            heap_off,
            n_zones,
            zone: ZoneGeo {
                hdr_off: 0,
                hdr_replica_off: PAGE_SIZE as u64,
                rows_base,
                row_size,
                chunks_per_row,
                data_rows,
                parity_base,
                n_chunks,
                cm_chunks,
            },
        })
    }

    /// Base offset of zone `z`.
    #[inline]
    pub fn zone_base(&self, z: u64) -> u64 {
        self.heap_off + z * self.cfg.zone_size as u64
    }

    /// Base offset of data chunk `c` in zone `z` (chunks are numbered
    /// linearly across the contiguous data rows).
    #[inline]
    pub fn chunk_base(&self, z: u64, c: u64) -> u64 {
        self.zone_base(z) + self.zone.rows_base + c * self.cfg.chunk_size as u64
    }

    /// Offset of the CM entry describing chunk `c` of zone `z`.
    #[inline]
    pub fn cm_entry_off(&self, z: u64, c: u64) -> u64 {
        self.zone_base(z) + self.zone.rows_base + c * CM_ENTRY_SIZE
    }

    /// Offset of the primary log area of lane `l` (the lane header is the
    /// first [`crate::lane::LANE_HEADER_SIZE`] bytes).
    #[inline]
    pub fn lane_off(&self, l: u64) -> u64 {
        self.lanes_off + l * self.cfg.lane_size as u64
    }

    /// Offset of the replica log area of lane `l`.
    #[inline]
    pub fn lane_replica_off(&self, l: u64) -> u64 {
        self.lanes_replica_off + l * self.cfg.lane_size as u64
    }

    /// Maps a pool offset to `(zone, data_chunk_index, offset_in_chunk)`.
    ///
    /// Fails for offsets outside the data-chunk grid (headers, lanes,
    /// parity rows).
    pub fn chunk_of(&self, off: u64) -> Result<(u64, u64, u64)> {
        let (z, zoff) = self.zone_and_rel(off)?;
        let rel = zoff.checked_sub(self.zone.rows_base).ok_or(ObjError::InvalidOid { off })?;
        let c = rel / self.cfg.chunk_size as u64;
        if c >= self.zone.n_chunks {
            return Err(ObjError::InvalidOid { off });
        }
        Ok((z, c, rel % self.cfg.chunk_size as u64))
    }

    /// Maps a pool offset to `(zone, zone_relative_offset)`.
    pub fn zone_and_rel(&self, off: u64) -> Result<(u64, u64)> {
        if off < self.heap_off {
            return Err(ObjError::InvalidOid { off });
        }
        let z = (off - self.heap_off) / self.cfg.zone_size as u64;
        if z >= self.n_zones {
            return Err(ObjError::InvalidOid { off });
        }
        Ok((z, off - self.zone_base(z)))
    }

    /// Maps a pool offset inside the data-row grid to
    /// `(zone, row, column_offset_in_row)`.
    pub fn row_col_of(&self, off: u64) -> Result<(u64, u64, u64)> {
        let (z, zoff) = self.zone_and_rel(off)?;
        let rel = zoff.checked_sub(self.zone.rows_base).ok_or(ObjError::InvalidOid { off })?;
        let row = rel / self.zone.row_size;
        if row >= self.zone.data_rows {
            return Err(ObjError::InvalidOid { off });
        }
        Ok((z, row, rel % self.zone.row_size))
    }

    /// Offset of the parity byte for column `col` of zone `z`.
    ///
    /// # Panics
    ///
    /// Panics if the pool has no parity row (checked at pool creation for
    /// parity-dependent modes).
    #[inline]
    pub fn parity_off(&self, z: u64, col: u64) -> u64 {
        let base = self.zone.parity_base.expect("pool created without parity row");
        debug_assert!(col < self.zone.row_size);
        self.zone_base(z) + base + col
    }

    /// Total usable data chunks per zone, excluding CM chunks.
    #[inline]
    pub fn usable_chunks_per_zone(&self) -> u64 {
        self.zone.n_chunks - self.zone.cm_chunks
    }

    /// The largest single allocation the pool can hold (user bytes).
    pub fn max_alloc(&self) -> u64 {
        self.usable_chunks_per_zone() * self.cfg.chunk_size as u64 - crate::oid::OBJ_HEADER_SIZE
    }

    /// Parity bytes per zone (0 without parity).
    pub fn parity_bytes_per_zone(&self) -> u64 {
        if self.cfg.parity {
            self.zone.row_size
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_layout_is_consistent() {
        let l = Layout::new(PoolConfig::small()).unwrap();
        assert!(l.n_zones >= 1);
        assert_eq!(l.zone.row_size % l.cfg.chunk_size as u64, 0);
        assert!(l.zone.cm_chunks >= 1);
        // Parity row must start after the last data row and fit in the zone.
        let parity = l.zone.parity_base.unwrap();
        assert_eq!(parity, l.zone.rows_base + l.zone.data_rows * l.zone.row_size);
        assert!(parity + l.zone.row_size <= l.cfg.zone_size as u64);
    }

    #[test]
    fn paper_ratio_parity_is_about_one_percent() {
        // 64 MiB zone, 100 data rows + parity: parity overhead ~= 1/101.
        let l = Layout::new(PoolConfig::bench(256 << 20)).unwrap();
        let parity = l.parity_bytes_per_zone() as f64;
        let data = (l.zone.data_rows * l.zone.row_size) as f64;
        let overhead = parity / data;
        assert!(overhead > 0.009 && overhead < 0.011, "overhead {overhead}");
    }

    #[test]
    fn chunk_mapping_roundtrips() {
        let l = Layout::new(PoolConfig::small()).unwrap();
        for c in [0, 1, l.zone.n_chunks - 1] {
            let base = l.chunk_base(0, c);
            let (z, cc, rest) = l.chunk_of(base + 5).unwrap();
            assert_eq!((z, cc, rest), (0, c, 5));
        }
    }

    #[test]
    fn row_col_mapping() {
        let l = Layout::new(PoolConfig::small()).unwrap();
        let off = l.zone_base(0) + l.zone.rows_base + l.zone.row_size + 17;
        let (z, row, col) = l.row_col_of(off).unwrap();
        assert_eq!((z, row, col), (0, 1, 17));
        // Parity row offsets are not data rows.
        let p = l.parity_off(0, 0);
        assert!(l.row_col_of(p).is_err());
    }

    #[test]
    fn rejects_bad_configs() {
        let mut c = PoolConfig::small();
        c.size = 1000;
        assert!(Layout::new(c).is_err());

        let mut c = PoolConfig::small();
        c.chunk_size = 3000;
        assert!(Layout::new(c).is_err());

        let mut c = PoolConfig::small();
        c.chunk_rows = 0;
        assert!(Layout::new(c).is_err());

        let mut c = PoolConfig::small();
        c.size = 64 << 10; // smaller than one zone
        assert!(Layout::new(c).is_err());
    }

    #[test]
    fn offsets_do_not_overlap() {
        let l = Layout::new(PoolConfig::small()).unwrap();
        assert!(l.hdr_replica_off >= PAGE_SIZE as u64);
        assert!(l.lanes_off >= l.hdr_replica_off + PAGE_SIZE as u64);
        assert!(l.lanes_replica_off >= l.lanes_off + l.cfg.lane_size as u64);
        assert!(l.heap_off >= l.lanes_replica_off + l.cfg.lane_size as u64);
        assert_eq!(l.heap_off % l.cfg.chunk_size as u64, 0);
    }
}
