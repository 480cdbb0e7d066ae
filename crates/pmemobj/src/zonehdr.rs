//! The zone header: each zone's reserved-chunk watermark record.
//!
//! A zone opens with two header pages, primary and replica
//! ([`crate::layout::ZoneGeo::hdr_off`] and
//! [`crate::layout::ZoneGeo::hdr_replica_off`]). Each copy holds one
//! 8-byte record at [`RECORD_OFF`]: the zone's reserved-chunk watermark
//! `W`, the chunk index below which every chunk the library has ever
//! written lies. The rest of the header reserve is zero. Pangolin keeps
//! the invariant and raises `W` (the rule and its crash argument live in
//! `pangolin::parity`); this module only owns the on-media form.
//!
//! A record is `check << 32 | w`, with `check` a 32-bit hash of
//! `(zone, w)`. An all-zero word (every pool image written before the
//! record existed), an all-ones word, a torn or scribbled word and a
//! record copied from another zone all decode as *no record*.

use pgl_nvm::PAGE_SIZE;

use crate::error::Result;
use crate::io::PoolIo;
use crate::layout::Layout;

/// Offset of the watermark record inside each zone-header copy.
pub const RECORD_OFF: u64 = 0;

/// Hash seed of the record check ("WATERMK1").
const SEED: u64 = 0x5741_5445_524D_4B31;

fn check(zone: u64, w: u64) -> u64 {
    ((w | zone << 32) ^ SEED).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32
}

/// The record word for watermark `w` of `zone` (`w` must fit 32 bits).
pub fn encode(zone: u64, w: u64) -> u64 {
    debug_assert!(w <= u64::from(u32::MAX));
    check(zone, w) << 32 | w
}

/// The watermark a record word holds, or `None` when the word is not a
/// valid record for `zone`.
pub fn decode(zone: u64, word: u64) -> Option<u64> {
    let w = word & u64::from(u32::MAX);
    (word >> 32 == check(zone, w)).then_some(w)
}

/// Pool offsets of `zone`'s two records: primary, replica.
pub fn record_offs(layout: &Layout, zone: u64) -> [u64; 2] {
    let base = layout.zone_base(zone) + RECORD_OFF;
    [base + layout.zone.hdr_off, base + layout.zone.hdr_replica_off]
}

/// Reads both copies of `zone`'s record. A copy that is unreadable
/// (poisoned) or invalid reads as `None`.
pub fn read(io: &PoolIo, layout: &Layout, zone: u64) -> [Option<u64>; 2] {
    record_offs(layout, zone).map(|off| io.read_u64(off).ok().and_then(|w| decode(zone, w)))
}

/// The content of a zone-header page holding watermark `w`.
pub fn page_image(zone: u64, w: u64) -> Vec<u8> {
    let mut page = vec![0u8; PAGE_SIZE];
    let at = RECORD_OFF as usize;
    page[at..at + 8].copy_from_slice(&encode(zone, w).to_le_bytes());
    page
}

/// Makes watermark `w` durable in both copies of `zone`'s record: two
/// 8-byte stores and their flushes, then one fence. A copy whose page is
/// poisoned is rewritten whole, which clears the poison.
pub fn store(io: &PoolIo, layout: &Layout, zone: u64, w: u64) -> Result<()> {
    let word = encode(zone, w).to_le_bytes();
    for off in record_offs(layout, zone) {
        let page = off / PAGE_SIZE as u64;
        if io.dev().is_poisoned_page(page) {
            io.dev().repair_page(page, &page_image(zone, w))?;
        } else {
            io.write(off, &word)?;
            io.flush(off, word.len())?;
        }
    }
    io.drain();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::PoolConfig;
    use pgl_nvm::{DeviceConfig, NvmDevice};
    use std::sync::Arc;

    #[test]
    fn records_round_trip_and_reject_junk() {
        for zone in 0..1024u64 {
            for w in [0, 1, 17, 1000, u64::from(u32::MAX)] {
                assert_eq!(decode(zone, encode(zone, w)), Some(w));
                assert_eq!(decode(zone + 1, encode(zone, w)), None, "zone-bound");
            }
            assert_eq!(decode(zone, 0), None, "a pre-record (zeroed) image");
            assert_eq!(decode(zone, u64::MAX), None, "all-ones");
        }
    }

    #[test]
    fn store_writes_both_copies_with_one_fence_and_heals_poison() {
        let cfg = PoolConfig::small();
        let layout = Layout::new(cfg).unwrap();
        let dev = Arc::new(NvmDevice::new(cfg.size, DeviceConfig::fast()).unwrap());
        let io = PoolIo::new(dev.clone());
        assert_eq!(read(&io, &layout, 0), [None, None]);
        let s0 = dev.stats();
        store(&io, &layout, 0, 42).unwrap();
        let d = dev.stats().delta_since(&s0);
        assert_eq!((d.bytes_written, d.lines_flushed, d.fences), (16, 2, 1));
        assert_eq!(read(&io, &layout, 0), [Some(42), Some(42)]);

        let replica_page = record_offs(&layout, 0)[1] / PAGE_SIZE as u64;
        dev.poison_page(replica_page).unwrap();
        assert_eq!(read(&io, &layout, 0), [Some(42), None]);
        store(&io, &layout, 0, 43).unwrap();
        assert!(!dev.is_poisoned_page(replica_page));
        assert_eq!(read(&io, &layout, 0), [Some(43), Some(43)]);
    }
}
