//! The reserved-chunk watermark (`pangolin::parity` module docs): the
//! raise happens before any write and costs two 8-byte stores, images
//! written before the record existed fold every row, `verify_parity`
//! reports stray bytes above the watermark, and a hostile-watermark
//! battery — {zero, all-ones, plausible-lower, above `n_chunks`, poisoned
//! page} × {primary, replica, both}. A single fault must leave every repair
//! byte-correct; a double fault must end in the all-rows fallback or a
//! typed error, never in a wrong byte returned as verified.
//!
//! The battery's smoke depth tries one lowered value (the CM-derived
//! bound) and same-fault pairs; `PGL_DEEP_SWEEP=1` tries every lowered
//! value and every pair of faults.

use std::sync::Arc;

use pangolin::crashcheck::SweepConfig;
use pangolin::{inject, PMEMoid, PglConfig, PglError, PglPool};
use pgl_nvm::{DeviceConfig, NvmDevice, PAGE_SIZE};
use pgl_pmemobj::{zonehdr, Layout, ObjError};

const FILL: u8 = 0x5A;

fn create() -> (Arc<NvmDevice>, PglPool) {
    let cfg = PglConfig::small();
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    let pool = PglPool::create(dev.clone(), cfg).unwrap();
    (dev, pool)
}

fn reopen(dev: &Arc<NvmDevice>) -> PglPool {
    PglPool::options().open(dev.clone()).unwrap()
}

fn make(pool: &PglPool, size: u64, fill: u8) -> PMEMoid {
    pool.tx(|tx| {
        let oid = tx.alloc(size, 1)?;
        tx.write(oid, 0, &vec![fill; size as usize])?;
        Ok(oid)
    })
    .unwrap()
}

fn records(pool: &PglPool) -> [Option<u64>; 2] {
    zonehdr::read(pool.io(), pool.layout(), 0)
}

fn header_page(layout: &Layout, copy: usize) -> u64 {
    zonehdr::record_offs(layout, 0)[copy] / PAGE_SIZE as u64
}

#[test]
fn a_raise_is_durable_before_alloc_returns_and_costs_two_stores() {
    let (dev, pool) = create();
    let l = *pool.layout();
    let (cm, chunk) = (l.zone.cm_chunks, l.cfg.chunk_size as u64);
    assert_eq!(pool.watermark(0), Some(cm), "a fresh pool reserved only its CM chunks");
    assert_eq!(records(&pool), [Some(cm); 2]);
    let ops = |s0: &pgl_nvm::StatsSnapshot| {
        let d = dev.stats().delta_since(s0);
        (d.read_ops, d.bytes_written, d.lines_flushed, d.fences)
    };
    pool.tx(|tx| {
        // A Large object over four fresh chunks raises to its last chunk.
        let s0 = dev.stats();
        tx.alloc(3 * chunk, 1)?;
        assert_eq!(ops(&s0), (0, 16, 2, 1), "two 8-byte stores, one fence");
        assert_eq!(records(&pool), [Some(cm + 4); 2], "durable before alloc returns");
        // A fresh run chunk raises by one more.
        let s0 = dev.stats();
        tx.alloc(64, 2)?;
        assert_eq!((ops(&s0), pool.watermark(0)), ((0, 16, 2, 1), Some(cm + 5)));
        Ok(())
    })
    .unwrap();
    let r = pool.tx(|tx| {
        // A block of a published run lies under the watermark: no device op.
        let s0 = dev.stats();
        tx.alloc(64, 2)?;
        assert_eq!(ops(&s0), (0, 0, 0, 0), "storage under the watermark");
        tx.alloc(chunk, 3)?;
        Err::<(), _>(PglError::Config("abort".into()))
    });
    assert!(r.is_err());
    // An abort keeps its raise: the never-written chunks under it are zero.
    assert_eq!(pool.watermark(0), Some(cm + 7));
    assert!(pool.verify_parity().unwrap());
    drop(pool);
    assert_eq!(reopen(&dev).watermark(0), Some(cm + 7));
}

#[test]
fn an_old_image_folds_every_row_and_never_persists_less() {
    let (dev, pool) = create();
    let l = *pool.layout();
    let victim = make(&pool, 300, FILL);
    drop(pool);
    // Every image written before the record existed has a zeroed reserve.
    for off in zonehdr::record_offs(&l, 0) {
        dev.scribble(off, &[0; 8]).unwrap();
    }
    let pool = reopen(&dev);
    let n = l.zone.n_chunks;
    assert_eq!((pool.watermark(0), records(&pool)), (Some(n), [Some(n); 2]));

    inject::poison_object_page(&pool, victim).unwrap();
    let s0 = dev.stats();
    assert_eq!(pool.read_verified(victim).unwrap(), vec![FILL; 300]);
    let read = dev.stats().delta_since(&s0).bytes_read;
    let rows = l.zone.data_rows;
    assert!(read >= rows * PAGE_SIZE as u64, "every row folded: {read} B");
    assert!(pool.verify_parity().unwrap());

    make(&pool, 64, 1);
    make(&pool, 4 * l.cfg.chunk_size as u64, 2);
    assert_eq!(pool.watermark(0), Some(n));
    drop(pool);
    let pool = reopen(&dev);
    assert_eq!((pool.watermark(0), records(&pool)), (Some(n), [Some(n); 2]));
}

#[test]
fn verify_parity_reports_a_scribble_into_never_reserved_space() {
    let (dev, pool) = create();
    let l = *pool.layout();
    let victim = make(&pool, 300, FILL);
    let w = pool.watermark(0).unwrap();
    let stray = l.chunk_base(0, w) + 1000;
    inject::scribble_raw(&pool, stray, &[0xEE; 8]).unwrap();
    // Parity never saw it, and the fold no longer reads that row: only
    // the zero check above the watermark can tell.
    let (_, _, col) = l.row_col_of(stray).unwrap();
    let window = col / PAGE_SIZE as u64 * PAGE_SIZE as u64;
    assert_eq!(pool.verify_parity_detailed().unwrap(), vec![(0, 0, window)]);
    // Repairs fold around it.
    inject::poison_object_page(&pool, victim).unwrap();
    assert_eq!(pool.read_verified(victim).unwrap(), vec![FILL; 300]);
    dev.scribble(stray, &[0; 8]).unwrap();
    assert!(pool.verify_parity().unwrap());
}

#[test]
fn a_lost_page_in_a_never_reserved_row_is_no_second_fault() {
    let (dev, pool) = create();
    let l = *pool.layout();
    let victim = make(&pool, 300, FILL);
    let page = victim.off / PAGE_SIZE as u64;
    let below = page + l.zone.row_size / PAGE_SIZE as u64;
    dev.poison_page(page).unwrap();
    dev.poison_page(below).unwrap();
    assert_eq!(pool.read_verified(victim).unwrap(), vec![FILL; 300]);
    assert!(pool.quarantined_zones().is_empty());
    // The scrub rebuilds the never-written page as the zeros it held.
    pool.scrub_now().unwrap();
    assert!(dev.poisoned_pages().is_empty());
    assert_eq!(dev.read_slice(below * PAGE_SIZE as u64, PAGE_SIZE).unwrap(), &[0; PAGE_SIZE][..]);
    assert!(pool.verify_parity().unwrap());
}

#[test]
fn a_lost_zone_header_page_is_rebuilt_from_its_copy() {
    let (dev, pool) = create();
    let l = *pool.layout();
    make(&pool, 2 * l.cfg.chunk_size as u64, 1);
    let w = pool.watermark(0).unwrap();
    for copies in [&[0][..], &[1], &[0, 1]] {
        for &c in copies {
            dev.poison_page(header_page(&l, c)).unwrap();
        }
        let report = pool.scrub_now().unwrap();
        assert_eq!(report.pages_repaired, copies.len() as u64, "{copies:?}");
        assert!(dev.poisoned_pages().is_empty());
        assert_eq!(records(&pool), [Some(w); 2], "{copies:?}");
    }
    // At open, a lost copy is rebuilt from the other one.
    drop(pool);
    dev.poison_page(header_page(&l, 0)).unwrap();
    let pool = reopen(&dev);
    assert_eq!((pool.watermark(0), records(&pool)), (Some(w), [Some(w); 2]));
    assert!(dev.poisoned_pages().is_empty());
}

// --- The hostile-watermark battery ----------------------------------------

/// A small pool where a freed Large object left its bytes in row 1, above
/// every live chunk and right under the live victim's column. This is the
/// case the CM-derived bound (`1 +` the highest non-`Free` CM index)
/// alone gets wrong: only the persisted watermark keeps that row in the
/// fold. Returns the closed device, the victim and the true watermark.
fn stale_pool() -> (Arc<NvmDevice>, Layout, PMEMoid, u64) {
    let (dev, pool) = create();
    let l = *pool.layout();
    let victim = make(&pool, 300, FILL);
    let big = make(&pool, l.zone.row_size, 0xC3);
    pool.tx(|tx| tx.free(big)).unwrap();
    let (_, chunk, _) = l.chunk_of(victim.off).unwrap();
    let w = pool.watermark(0).unwrap();
    assert!(chunk + l.zone.chunks_per_row < w, "the victim's row-1 neighbour is stale");
    drop(pool);
    (dev, l, victim, w)
}

/// One fault in one zone-header copy.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Hit {
    Zero,
    Ones,
    /// A well-formed record with a lower watermark.
    Lower(u64),
    /// A well-formed record past the zone's last chunk.
    Above,
    Poison,
}

impl Hit {
    /// Leaves the copy without a usable value (the open ignores it).
    fn invalid(self) -> bool {
        matches!(self, Hit::Zero | Hit::Ones | Hit::Poison)
    }
}

fn hit(dev: &NvmDevice, l: &Layout, copy: usize, h: Hit) {
    let off = zonehdr::record_offs(l, 0)[copy];
    let word = match h {
        Hit::Zero => 0,
        Hit::Ones => u64::MAX,
        Hit::Lower(w) => zonehdr::encode(0, w),
        Hit::Above => zonehdr::encode(0, l.zone.n_chunks + 7),
        Hit::Poison => return dev.poison_page(off / PAGE_SIZE as u64).unwrap(),
    };
    dev.scribble(off, &word.to_le_bytes()).unwrap();
}

/// Poisons the victim's page and reads it back verified.
fn repair(pool: &PglPool, victim: PMEMoid) -> pangolin::Result<Vec<u8>> {
    inject::poison_object_page(pool, victim).unwrap();
    pool.read_verified(victim)
}

fn battery_hits(cm_bound: u64, w: u64, deep: bool) -> Vec<Hit> {
    let lowered: Vec<u64> = if deep { (cm_bound - 1..w).collect() } else { vec![cm_bound] };
    [Hit::Zero, Hit::Ones, Hit::Above, Hit::Poison]
        .into_iter()
        .chain(lowered.into_iter().map(Hit::Lower))
        .collect()
}

#[test]
fn a_single_watermark_fault_leaves_every_repair_exact() {
    let (dev, l, victim, w) = stale_pool();
    let base = dev.snapshot();
    let (_, chunk, _) = l.chunk_of(victim.off).unwrap();
    for h in battery_hits(chunk + 1, w, SweepConfig::from_env().deep) {
        for copy in 0..2 {
            dev.restore(&base).unwrap();
            hit(&dev, &l, copy, h);
            let pool = reopen(&dev);
            let case = format!("{h:?} in copy {copy}");
            assert_eq!(pool.watermark(0), Some(w), "{case}");
            assert_eq!(records(&pool), [Some(w); 2], "healed at open: {case}");
            assert_eq!(repair(&pool, victim).unwrap(), vec![FILL; 300], "{case}");
            assert!(pool.verify_parity().unwrap(), "{case}");
        }
    }
}

#[test]
fn a_double_watermark_fault_falls_back_or_fails_typed() {
    let (dev, l, victim, w) = stale_pool();
    let base = dev.snapshot();
    let n = l.zone.n_chunks;
    let (_, chunk, _) = l.chunk_of(victim.off).unwrap();
    let deep = SweepConfig::from_env().deep;
    let hits = battery_hits(chunk + 1, w, deep);
    let mut typed = 0;
    for &a in &hits {
        for &b in hits.iter().filter(|&&b| deep || b == a) {
            dev.restore(&base).unwrap();
            hit(&dev, &l, 0, a);
            hit(&dev, &l, 1, b);
            let case = format!("{a:?} + {b:?}");
            let pool = reopen(&dev);
            let got = repair(&pool, victim);
            let mark = pool.watermark(0).unwrap();
            assert!(mark > chunk, "never below the CM-derived bound: {case}");
            if [a, b].iter().all(|h| h.invalid() || *h == Hit::Above) {
                // No usable lowered value survives: fold every row.
                assert_eq!((mark, records(&pool)), (n, [Some(n); 2]), "{case}");
            }
            match got {
                Ok(bytes) => assert_eq!(bytes, vec![FILL; 300], "wrong bytes as verified: {case}"),
                // The mis-rebuilt page may hold the run header the repair
                // needs next: allocator corruption is as typed an answer.
                Err(
                    PglError::Unrecoverable { .. }
                    | PglError::ChecksumMismatch { .. }
                    | PglError::Obj(ObjError::Corruption { .. }),
                ) => {
                    assert!(mark <= chunk + l.zone.chunks_per_row, "{case}: {mark}");
                    typed += 1;
                }
                Err(e) => panic!("untyped failure for {case}: {e}"),
            }
        }
    }
    assert!(typed > 0, "no case lowered both copies under the stale row");
}

#[test]
fn watermark_faults_while_open_leave_repairs_exact_and_the_scrub_heals_them() {
    let (dev, l, victim, w) = stale_pool();
    let base = dev.snapshot();
    let (_, chunk, _) = l.chunk_of(victim.off).unwrap();
    let hits = battery_hits(chunk + 1, w, SweepConfig::from_env().deep);
    for &h in &hits {
        for copies in [&[0][..], &[1], &[0, 1]] {
            dev.restore(&base).unwrap();
            let pool = reopen(&dev);
            for &c in copies {
                hit(&dev, &l, c, h);
            }
            let case = format!("{h:?} in {copies:?}");
            // DRAM holds the watermark: the fold never rereads the copies.
            assert_eq!(repair(&pool, victim).unwrap(), vec![FILL; 300], "{case}");
            pool.scrub_now().unwrap();
            assert_eq!(records(&pool), [Some(w); 2], "scrub heals: {case}");
            drop(pool);
            assert_eq!(reopen(&dev).watermark(0), Some(w), "{case}");
        }
    }
}
