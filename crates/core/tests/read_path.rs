//! Regression tests for the read-path overhaul: the DRAM
//! verified-generation cache, range-granular verified reads, lazy
//! transactional opens, and the coherence rules that keep them honest
//! (every library mutation bumps the generation; a scrub/recovery repair
//! is never followed by a stale-verified read).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use pangolin::{inject, CsumPolicy, PMEMoid, PglConfig, PglPool};
use pgl_nvm::{DeviceConfig, NvmDevice};

fn pool_with_dev() -> (PglPool, Arc<NvmDevice>) {
    let cfg = PglConfig::small();
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    (PglPool::create(dev.clone(), cfg).unwrap(), dev)
}

fn make_object(pool: &PglPool, size: u64, fill: u8) -> PMEMoid {
    pool.tx(|tx| {
        let oid = tx.alloc(size, 1)?;
        tx.write(oid, 0, &vec![fill; size as usize])?;
        Ok(oid)
    })
    .unwrap()
}

/// The headline invariant: once an object is verified, a range read
/// issues exactly ONE range-sized NVMM read — no header read, no
/// whole-object load, zero checksum passes — and is accounted in the
/// `verified_cached` bucket.
#[test]
fn cache_hit_read_is_one_range_read_and_zero_csum_passes() {
    let (pool, dev) = pool_with_dev();
    let oid = make_object(&pool, 4096, 0xAB);

    // Populate: the first verified read misses, pays one whole-object
    // verification, and inserts the entry.
    let s0 = dev.stats();
    assert_eq!(pool.read_verified(oid).unwrap(), vec![0xAB; 4096]);
    let d = dev.stats().delta_since(&s0);
    assert_eq!(d.csum_passes, 1, "miss verifies exactly once");
    assert_eq!(d.csum_bytes, 4096);
    assert_eq!(d.vcache_hits, 0);

    // Hit: an 8-byte range read out of the 4 KiB object.
    let mut buf = [0u8; 8];
    let s1 = dev.stats();
    pool.read_verified_at(oid, 128, &mut buf).unwrap();
    let d = dev.stats().delta_since(&s1);
    assert_eq!(buf, [0xAB; 8]);
    assert_eq!(d.read_ops, 1, "exactly one NVMM read");
    assert_eq!(d.bytes_read, 8, "sized to the range, not the object");
    assert_eq!(d.csum_passes, 0, "zero checksum passes on a hit");
    assert_eq!((d.vcache_hits, d.vcache_hit_bytes), (1, 8));

    // Whole-object hits skip the checksum pass too.
    let s2 = dev.stats();
    assert_eq!(pool.read_verified(oid).unwrap(), vec![0xAB; 4096]);
    let d = dev.stats().delta_since(&s2);
    assert_eq!((d.read_ops, d.bytes_read, d.csum_passes), (1, 4096, 0));

    // And the vulnerability accounting keeps the buckets distinct.
    let v = pool.vuln();
    assert_eq!(v.verified, 4096, "one full verification");
    assert_eq!(v.verified_cached, 8 + 4096, "both hits counted as cached");
    assert_eq!(v.unverified, 0);
}

/// `read_verified_into` fills a prefix without allocating and rejects
/// buffers larger than the object.
#[test]
fn read_verified_into_respects_bounds() {
    let (pool, _dev) = pool_with_dev();
    let oid = make_object(&pool, 64, 0x3C);
    let mut buf = [0u8; 16];
    pool.read_verified_into(oid, &mut buf).unwrap();
    assert_eq!(buf, [0x3C; 16]);
    let mut big = [0u8; 128];
    assert!(
        matches!(
            pool.read_verified_into(oid, &mut big),
            Err(pangolin::PglError::TypeMismatch { .. })
        ),
        "oversized destination must not read past the object"
    );
    let mut tail = [0u8; 8];
    pool.read_verified_at(oid, 56, &mut tail).unwrap();
    assert_eq!(tail, [0x3C; 8]);
    assert!(pool.read_verified_at(oid, 60, &mut tail).is_err(), "off+len past the end");
    // `off + len` wrapping around u64 must fail, not pass the bounds
    // check — on a cache hit and on a miss alike.
    assert!(pool.read_verified_at(oid, u64::MAX - 3, &mut tail).is_err(), "wrapping offset");
    pool.read_verified_into(oid, &mut tail).unwrap(); // ensure cached
    assert!(
        matches!(
            pool.read_verified_at(oid, u64::MAX - 3, &mut tail),
            Err(pangolin::PglError::TypeMismatch { .. })
        ),
        "wrapping offset on a cached object"
    );
}

/// A commit write-back bumps the generation: the cache never serves the
/// pre-commit verification across a mutation, so a scribble landing
/// after the commit is detected by the next verified read.
#[test]
fn commit_invalidates_and_scribbles_after_commit_are_detected() {
    let (pool, dev) = pool_with_dev();
    let oid = make_object(&pool, 512, 0x11);
    assert_eq!(pool.read_verified(oid).unwrap(), vec![0x11; 512]); // cached
    pool.tx(|tx| tx.write(oid, 0, &[0x22; 32])).unwrap(); // bumps

    // Raw-device scribble the library cannot observe.
    dev.scribble(oid.off + 100, &[0xEE; 20]).unwrap();
    let s0 = dev.stats();
    let data = pool.read_verified(oid).unwrap();
    let d = dev.stats().delta_since(&s0);
    assert!(d.csum_passes >= 1, "post-commit read re-verifies (cache miss)");
    assert_eq!(&data[..32], &[0x22; 32][..]);
    assert_eq!(&data[100..120], &[0x11; 20][..], "scribble detected and repaired");
    assert!(pool.verify_parity().unwrap());
}

/// The documented exposure window: a raw-device scribble *between* a
/// verification and a cached read is served (counted as
/// `verified_cached`), but a scrub repair bumps the generation, so no
/// read after the repair ever observes the stale bytes again.
#[test]
fn scrub_repair_is_never_followed_by_stale_cached_reads() {
    let (pool, dev) = pool_with_dev();
    let oid = make_object(&pool, 256, 0x44);
    assert_eq!(pool.read_verified(oid).unwrap(), vec![0x44; 256]); // cached

    dev.scribble(oid.off + 16, &[0xEE; 8]).unwrap();
    let mut win = [0u8; 8];
    pool.read_verified_at(oid, 16, &mut win).unwrap();
    assert_eq!(win, [0xEE; 8], "the bounded exposure window is real");

    // The scrub detects the checksum mismatch, repairs from parity, and
    // bumps the generation.
    let report = pool.scrub_now().unwrap();
    assert_eq!(report.objects_repaired, 1, "scrub repaired the scribble: {report:?}");

    // Every read after the repair sees the repaired bytes — cached or not.
    pool.read_verified_at(oid, 16, &mut win).unwrap();
    assert_eq!(win, [0x44; 8], "no stale-verified read survives a repair");
    assert_eq!(pool.read_verified(oid).unwrap(), vec![0x44; 256]);
    assert!(pool.find_corrupt_objects().unwrap().is_empty());
}

/// Same guarantee through the online-recovery path: `inject::scribble_*`
/// models a cold-object scribble (it drops the cache entry), so the next
/// verified read detects, repairs, and re-populates; later cached reads
/// serve the repaired content.
#[test]
fn online_repair_repopulates_with_repaired_content() {
    let (pool, dev) = pool_with_dev();
    let oid = make_object(&pool, 300, 0x5A);
    assert_eq!(pool.read_verified(oid).unwrap(), vec![0x5A; 300]);

    inject::scribble_object(&pool, oid, 50, 120, 0xEE).unwrap();
    assert_eq!(pool.read_verified(oid).unwrap(), vec![0x5A; 300], "detected and repaired");
    assert!(pool.counters().object_recoveries.load(Ordering::Relaxed) >= 1);

    // The repair's end-to-end re-verification re-populated the cache.
    let s0 = dev.stats();
    let mut buf = [0u8; 4];
    pool.read_verified_at(oid, 60, &mut buf).unwrap();
    let d = dev.stats().delta_since(&s0);
    assert_eq!(buf, [0x5A; 4]);
    assert_eq!((d.csum_passes, d.vcache_hits), (0, 1), "served from the repaired entry");
}

/// Conservative-policy `pgl_get`s ride the cache: the first access to a
/// segment verifies that segment (256 bytes and its sum, not the object),
/// subsequent accesses are range reads.
#[test]
fn conservative_gets_verify_once_then_range_read() {
    let cfg = PglConfig::small().with_policy(CsumPolicy::Conservative);
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    let pool = PglPool::create(dev.clone(), cfg).unwrap();
    let oid = make_object(&pool, 4096, 0x21);

    let mut buf = [0u8; 8];
    let s0 = dev.stats();
    pool.read(oid, 0, &mut buf).unwrap();
    let d = dev.stats().delta_since(&s0);
    assert_eq!(d.csum_passes, 1, "first get verifies");
    assert_eq!(d.bytes_read, 16 + 256, "the header and segment 0, whose sum it holds");
    let s0 = dev.stats();
    pool.read(oid, 300, &mut buf).unwrap();
    let d = dev.stats().delta_since(&s0);
    assert_eq!((d.csum_passes, d.bytes_read), (1, 16 + 256 + 4), "segment 1 and its entry");
    for k in 2..16u64 {
        pool.read(oid, k * 256, &mut buf).unwrap();
    }

    let s1 = dev.stats();
    for i in 0..64u64 {
        pool.read(oid, (i * 8) % 4000, &mut buf).unwrap();
    }
    let d = dev.stats().delta_since(&s1);
    assert_eq!(d.csum_passes, 0, "repeated gets never re-verify");
    assert_eq!(d.bytes_read, 64 * 8, "range-sized reads only");
    assert_eq!(pool.vuln().unverified, 0, "conservative never reads unverified");
}

/// Lazy transactional opens: a read-only `tx.open` of a verified-fresh
/// object materializes no micro-buffer — its reads are range-sized — and
/// the first write pays the deferred load exactly once.
#[test]
fn lazy_open_defers_materialization_to_first_write() {
    let (pool, dev) = pool_with_dev();
    let oid = make_object(&pool, 4096, 0x66);
    assert_eq!(pool.read_verified(oid).unwrap(), vec![0x66; 4096]); // cache it

    // Read-only transaction: no O(object) load, no checksum pass.
    let s0 = dev.stats();
    let v = pool
        .tx(|tx| {
            tx.open(oid)?;
            assert_eq!(tx.obj_size(oid)?, 4096, "size served from the lazy entry");
            tx.read_pod::<u64>(oid, 8)
        })
        .unwrap();
    let d = dev.stats().delta_since(&s0);
    assert_eq!(v, u64::from_le_bytes([0x66; 8]));
    assert_eq!(d.csum_passes, 0, "lazy open skips verification");
    assert_eq!(d.bytes_read, 8, "only the requested range was read");

    // First write materializes (one whole-object read, still no checksum
    // pass — the object is verified-fresh) and commits normally.
    let s1 = dev.stats();
    pool.tx(|tx| {
        tx.open(oid)?;
        let mut probe = [0u8; 2];
        tx.read(oid, 0, &mut probe)?; // lazy range read
        tx.write(oid, 64, &[0x77; 16]) // materializes here
    })
    .unwrap();
    let d = dev.stats().delta_since(&s1);
    assert_eq!(d.csum_passes, 0, "materialization of a verified-fresh object skips the pass");
    let data = pool.read_verified(oid).unwrap();
    assert_eq!(&data[64..80], &[0x77; 16][..]);
    assert_eq!(data[0], 0x66);
    assert!(pool.verify_parity().unwrap());
}

/// Freeing an object drops its entry, so a realloc landing on the same
/// offset is never served with the dead object's cached size/content.
#[test]
fn free_and_realloc_invalidate() {
    let (pool, dev) = pool_with_dev();
    let a = make_object(&pool, 128, 0xA1);
    assert_eq!(pool.read_verified(a).unwrap(), vec![0xA1; 128]); // cached
    pool.tx(|tx| tx.free(a)).unwrap();

    // Reallocate until the allocator reuses the exact offset (same size
    // class ⇒ usually immediate).
    let mut reused = None;
    for i in 0..32u8 {
        let b = make_object(&pool, 128, 0xB0 ^ i);
        if b.off == a.off {
            reused = Some((b, 0xB0 ^ i));
            break;
        }
    }
    let Some((b, fill)) = reused else {
        return; // allocator never reused the slot; nothing to regress
    };
    let s0 = dev.stats();
    let data = pool.read_verified(b).unwrap();
    let d = dev.stats().delta_since(&s0);
    assert_eq!(data, vec![fill; 128], "new object's content, not the freed one's");
    assert_eq!(d.csum_passes, 1, "the reused slot re-verified (no stale entry)");
}

/// Concurrent readers, writers, and a scrubber: readers only ever observe
/// content their object legitimately held, while scrub passes and commit
/// invalidations race them.
#[test]
fn readers_vs_scrubber_vs_writers_race() {
    let mut cfg = PglConfig::small();
    cfg.pool.size = 32 << 20;
    cfg.pool.zone_size = 16 << 20;
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    let pool = PglPool::create(dev, cfg).unwrap();

    // Read-only victims with self-describing content.
    let readers_objs: Vec<PMEMoid> =
        (0..16).map(|i| make_object(&pool, 256, 0x10 + i as u8)).collect();
    // Writer-owned objects (the §3.4 rule: writers never touch the
    // readers' set).
    let writer_objs: Vec<Vec<PMEMoid>> = (0..2)
        .map(|w| (0..8).map(|i| make_object(&pool, 512, (w * 8 + i) as u8)).collect())
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let reads_done = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for objs in &writer_objs {
            let pool = pool.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut round = 0u8;
                while !stop.load(Ordering::Relaxed) {
                    for oid in objs {
                        pool.tx(|tx| tx.write(*oid, 0, &[round; 64])).unwrap();
                    }
                    round = round.wrapping_add(1);
                }
            });
        }
        for t in 0..2 {
            let pool = pool.clone();
            let stop = stop.clone();
            let objs = readers_objs.clone();
            let reads_done = reads_done.clone();
            s.spawn(move || {
                let mut buf = [0u8; 16];
                while !stop.load(Ordering::Relaxed) {
                    for (i, oid) in objs.iter().enumerate() {
                        let expect = 0x10 + i as u8;
                        pool.read_verified_at(*oid, (t * 32) as u64, &mut buf).unwrap();
                        assert!(buf.iter().all(|&b| b == expect), "reader saw foreign bytes");
                        let whole = pool.read_verified(*oid).unwrap();
                        assert!(whole.iter().all(|&b| b == expect));
                        reads_done.fetch_add(2, Ordering::Relaxed);
                    }
                }
            });
        }
        let pool2 = pool.clone();
        let stop2 = stop.clone();
        s.spawn(move || {
            for _ in 0..8 {
                let report = pool2.scrub_now().unwrap();
                assert_eq!(report.objects_repaired, 0, "no false repairs under load");
            }
            stop2.store(true, Ordering::Relaxed);
        });
    });
    assert!(reads_done.load(Ordering::Relaxed) > 0, "readers made progress");
    assert!(pool.verify_parity().unwrap());
    assert!(pool.find_corrupt_objects().unwrap().is_empty());
}

/// The cache can be disabled (capacity 0): every verified read then pays
/// a full verification, restoring pre-cache behaviour.
#[test]
fn zero_capacity_disables_the_cache() {
    let opts = PglPool::options().vcache_capacity(0);
    let dev = Arc::new(NvmDevice::new(opts.config().pool.size, DeviceConfig::fast()).unwrap());
    let pool = opts.create(dev.clone()).unwrap();
    let oid = make_object(&pool, 256, 0x99);
    let s0 = dev.stats();
    for _ in 0..4 {
        pool.read_verified(oid).unwrap();
    }
    let d = dev.stats().delta_since(&s0);
    assert_eq!(d.csum_passes, 4, "every read re-verifies with the cache off");
    assert_eq!(d.vcache_hits, 0);
}

/// Typed layer: `get_verified` and `read_at_verified` ride the cache.
#[test]
fn typed_verified_reads_ride_the_cache() {
    use pangolin::typed::PObj;

    #[derive(Clone, Copy, Default)]
    #[repr(C)]
    struct Rec {
        a: u64,
        b: u64,
        pad: [u64; 6],
    }
    pangolin::impl_ptype!(Rec, 64, 9);

    let (pool, dev) = pool_with_dev();
    let h: PObj<Rec> = pool.tx(|tx| tx.alloc_obj(&Rec { a: 7, b: 9, pad: [0; 6] })).unwrap();
    assert_eq!(pool.get_verified(h).unwrap().a, 7); // miss: verifies + caches
    let s0 = dev.stats();
    let b = pool.read_at_verified(h, pangolin::field!(Rec, b: u64)).unwrap();
    let d = dev.stats().delta_since(&s0);
    assert_eq!(b, 9);
    // (Debug builds add a 16-byte header read for the brand check, so pin
    // the cache-served payload, not total bytes.)
    assert_eq!((d.csum_passes, d.vcache_hit_bytes), (0, 8), "field-sized cached read");
}

/// A Conservative `pgl_get` that misses on a middle segment reads the
/// header, then the segment and its table entry apart: three reads, one
/// check of the segment's 256 bytes.
#[test]
fn conservative_miss_on_a_middle_segment_reads_the_segment_and_its_entry() {
    let cfg = PglConfig::small().with_policy(CsumPolicy::Conservative);
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    let pool = PglPool::create(dev.clone(), cfg).unwrap();
    let oid = make_object(&pool, 4096, 0x31);
    let mut buf = [0u8; 8];
    let s0 = dev.stats();
    pool.read(oid, 5 * 256 + 40, &mut buf).unwrap();
    let d = dev.stats().delta_since(&s0);
    assert_eq!(buf, [0x31; 8]);
    assert_eq!((d.read_ops, d.bytes_read), (3, 16 + 256 + 4), "header, segment, entry");
    assert_eq!((d.csum_passes, d.csum_bytes), (1, 256));
}

/// A miss on the last segment reads its bytes, the pad and its table
/// entry in one device read behind the header read.
#[test]
fn conservative_miss_on_the_last_segment_fuses_data_pad_and_table() {
    let cfg = PglConfig::small().with_policy(CsumPolicy::Conservative);
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    let pool = PglPool::create(dev.clone(), cfg).unwrap();
    let oid = make_object(&pool, 1001, 0x32);
    let mut buf = [0u8; 8];
    let s0 = dev.stats();
    pool.read(oid, 990, &mut buf).unwrap();
    let d = dev.stats().delta_since(&s0);
    assert_eq!(buf, [0x32; 8]);
    // Segment 3 is [768, 1001); its entry sits at 1004, behind 3 pad bytes.
    assert_eq!((d.read_ops, d.bytes_read), (2, 16 + (1008 - 768)), "header, then one read");
    assert_eq!((d.csum_passes, d.csum_bytes), (1, 1001 - 768));
}

/// `PglTx::read` of an object the transaction opened but has not loaded
/// checks the segments it covers against the header the open read: no
/// second header read.
#[test]
fn tx_read_miss_on_an_opened_object_checks_its_segment() {
    let (pool, dev) = pool_with_dev();
    let oid = make_object(&pool, 4096, 0x33);
    pool.tx(|tx| {
        tx.open(oid)?;
        let mut buf = [0u8; 8];
        let s0 = dev.stats();
        tx.read(oid, 2 * 256 + 8, &mut buf)?;
        let d = dev.stats().delta_since(&s0);
        assert_eq!(buf, [0x33; 8]);
        assert_eq!((d.read_ops, d.bytes_read), (2, 256 + 4), "segment and entry, no header");
        assert_eq!((d.csum_passes, d.csum_bytes), (1, 256));
        Ok(())
    })
    .unwrap();
}

/// A scribbled segment: the verified read misses, fails its check,
/// repairs the object from parity and retries exactly once.
#[test]
fn scribbled_segment_is_repaired_and_read_again_once() {
    let (pool, dev) = pool_with_dev();
    let oid = make_object(&pool, 4096, 0x34);
    inject::scribble_object(&pool, oid, 3 * 256 + 10, 20, 0xEE).unwrap();
    let mut buf = [0u8; 16];
    let r0 = pool.counters().object_recoveries.load(Ordering::Relaxed);
    let s0 = dev.stats();
    pool.read_verified_at(oid, 3 * 256 + 8, &mut buf).unwrap();
    let d = dev.stats().delta_since(&s0);
    assert_eq!(buf, [0x34; 16]);
    assert_eq!(pool.counters().object_recoveries.load(Ordering::Relaxed), r0 + 1);
    // The miss (3 reads), the repair, the header again and the one retry
    // (3 reads).
    assert_eq!((d.read_ops, d.bytes_read), (13, 5096));
    // The repair classifies the whole object and re-checks the segment it
    // rewrote; the retry checks that segment once more.
    assert_eq!((d.csum_passes, d.csum_bytes), (3, 4096 + 256 + 256));
}
