//! Sharded parity domains: routing, cross-shard transactions, per-shard
//! scrub, and recovery that does not depend on the shard count.
//!
//! The pool geometry here is 16 MiB with 2 MiB zones (≈7 heap zones), so
//! explicit shard counts up to 4 resolve without clamping.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use pangolin::{PMEMoid, PglPool};
use pgl_nvm::{CrashPoint, DeviceConfig, NvmDevice};

const OBJ: usize = 256;

fn options() -> pangolin::OpenOptions {
    PglPool::options().size(16 << 20).zone_size(2 << 20)
}

fn device(opts: &pangolin::OpenOptions) -> Arc<NvmDevice> {
    Arc::new(NvmDevice::new(opts.config().pool.size, DeviceConfig::fast()).unwrap())
}

/// Allocates one object per shard, pinned there via thread affinity, and
/// returns them indexed by shard.
fn alloc_per_shard(pool: &PglPool, fill: u8) -> Vec<PMEMoid> {
    let n = pool.shards();
    let mut oids = Vec::with_capacity(n);
    for shard in 0..n {
        pool.bind_thread_to_shard(shard);
        let oid = pool
            .tx(|tx| {
                let oid = tx.alloc(OBJ as u64, shard as u32 + 1)?;
                tx.write(oid, 0, &[fill; OBJ])?;
                Ok(oid)
            })
            .unwrap();
        assert_eq!(
            pool.shard_map().shard_of_off(oid.off),
            shard as u64,
            "affinity must place the object in its bound shard"
        );
        oids.push(oid);
    }
    pool.unbind_thread_from_shard();
    oids
}

#[test]
fn cross_shard_transaction_commits_and_survives_reopen() {
    let opts = options().shards(4);
    let dev = device(&opts);
    let pool = opts.create(dev.clone()).unwrap();
    assert_eq!(pool.shards(), 4);

    let oids = alloc_per_shard(&pool, 0x11);
    // One transaction touching every shard: exercises the ordered
    // multi-lane commit protocol end to end.
    pool.tx(|tx| {
        for oid in &oids {
            tx.write(*oid, 0, &[0x77; OBJ])?;
        }
        Ok(())
    })
    .unwrap();
    for oid in &oids {
        assert_eq!(pool.read_verified(*oid).unwrap(), vec![0x77; OBJ]);
    }
    assert!(pool.verify_parity().unwrap());
    drop(pool);

    // Reopen at the same shard count; all shards' data intact.
    let pool = PglPool::options().shards(4).open(dev).unwrap();
    for oid in &oids {
        assert_eq!(pool.read_verified(*oid).unwrap(), vec![0x77; OBJ]);
    }
    assert!(pool.verify_parity_detailed().unwrap().is_empty());
}

#[test]
fn shard_count_is_runtime_only_and_byte_compatible() {
    // Written at 4 shards, reopened at 1 and 2: the shards knob is pure
    // runtime routing, never persisted, so any count reads any pool.
    let opts = options().shards(4);
    let dev = device(&opts);
    let pool = opts.create(dev.clone()).unwrap();
    let oids = alloc_per_shard(&pool, 0x42);
    drop(pool);

    for shards in [1usize, 2] {
        let pool = PglPool::options().shards(shards).open(dev.clone()).unwrap();
        assert_eq!(pool.shards(), shards);
        for oid in &oids {
            assert_eq!(pool.read_verified(*oid).unwrap(), vec![0x42; OBJ]);
        }
        assert!(pool.verify_parity().unwrap(), "parity holds at {shards} shards");
        drop(pool);
    }
}

#[test]
fn scrub_reports_per_shard_progress() {
    let opts = options().shards(4);
    let dev = device(&opts);
    let pool = opts.create(dev.clone()).unwrap();
    let oids = alloc_per_shard(&pool, 0x33);
    let before = pool.counters();
    pool.scrub_now().unwrap();
    let after = pool.counters();

    let progress = pool.scrub_progress();
    assert_eq!(progress.len(), 4);
    for (shard, (done, total)) in progress.iter().enumerate() {
        assert_eq!(done, total, "shard {shard} cursor parked at its total");
        assert!(*total >= 1, "shard {shard} owns at least its pinned object");
        assert_eq!(
            after.scrub_passes[shard] - before.scrub_passes[shard],
            1,
            "shard {shard} records exactly one scrub pass"
        );
    }
    // Root + one object per shard: totals account for every live object.
    let total: u64 = progress.iter().map(|(_, t)| t).sum();
    assert_eq!(total, oids.len() as u64);
}

/// Runs the cross-shard overwrite of `oids` with a crash armed after
/// `boundary` device ops, and abandons the crashed pool.
fn crash_cross_shard_tx(dev: &NvmDevice, pool: PglPool, oids: &[PMEMoid], boundary: u64) {
    dev.arm_crash_after(boundary);
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
        pool.tx(|tx| {
            for oid in oids {
                tx.write(*oid, 0, &[0xEE; OBJ])?;
            }
            Ok(())
        })
    }));
    dev.disarm_crash();
    // A crashed pool handle must not run Drop cleanups.
    std::mem::forget(pool);
    match outcome {
        Err(p) if p.downcast_ref::<CrashPoint>().is_some() => {}
        Err(p) => panic::resume_unwind(p),
        Ok(r) => panic!("the transaction was expected to crash at op {boundary}, got {r:?}"),
    }
}

/// Recovery is one serial pass whatever the shard count: the same crashed
/// image reopened at 1, 2 and 4 shards recovers to byte-identical media,
/// with parity levelled and the cross-shard commit all-or-nothing.
#[test]
fn recovery_does_not_depend_on_the_shard_count() {
    let opts = options().shards(4);
    let fresh = || {
        let dev = device(&opts);
        let pool = opts.clone().create(dev.clone()).unwrap();
        let oids = alloc_per_shard(&pool, 0x11);
        (dev, pool, oids)
    };
    // Count the transaction's device ops once, then crash inside it.
    let (dev, pool, oids) = fresh();
    let armed = 1 << 40;
    dev.arm_crash_after(armed);
    pool.tx(|tx| oids.iter().try_for_each(|oid| tx.write(*oid, 0, &[0xEE; OBJ]))).unwrap();
    let ops = armed - dev.crash_countdown() as u64;
    dev.disarm_crash();
    assert!(ops > 8, "a four-shard commit is many device ops ({ops})");

    for boundary in (0..ops).step_by(4) {
        let (dev, pool, oids) = fresh();
        crash_cross_shard_tx(&dev, pool, &oids, boundary);
        let crashed = dev.snapshot();
        let mut first: Option<Vec<u8>> = None;
        for shards in [1usize, 2, 4] {
            let copy = device(&opts);
            copy.restore(&crashed).unwrap();
            let pool = PglPool::options().shards(shards).open(copy.clone()).unwrap();
            let image = copy.read_slice(0, copy.len()).unwrap().to_vec();
            match &first {
                None => first = Some(image),
                Some(want) => assert!(
                    *want == image,
                    "op {boundary}: the image recovered at {shards} shards differs from 1 shard's"
                ),
            }
            assert!(pool.verify_parity().unwrap(), "op {boundary}, {shards} shards: parity");
            let data: Vec<Vec<u8>> = oids.iter().map(|o| pool.read_verified(*o).unwrap()).collect();
            let all_old = data.iter().all(|d| d == &vec![0x11; OBJ]);
            let all_new = data.iter().all(|d| d == &vec![0xEE; OBJ]);
            assert!(all_old || all_new, "op {boundary}, {shards} shards: all-or-nothing");
        }
    }
}

#[test]
fn shard_zero_config_autosizes_from_zones() {
    let opts = options().shards(0);
    let dev = device(&opts);
    let pool = opts.create(dev).unwrap();
    let zones = pool.shard_map().n_zones();
    assert_eq!(pool.shards() as u64, zones.min(8), "auto = min(n_zones, 8)");
}

#[test]
fn explicit_shards_clamp_to_zone_count() {
    let opts = options().shards(64);
    let dev = device(&opts);
    let pool = opts.create(dev).unwrap();
    assert_eq!(pool.shards() as u64, pool.shard_map().n_zones());
}

#[test]
fn mismatched_affinity_binding_wraps() {
    let opts = options().shards(2);
    let dev = device(&opts);
    let pool = opts.create(dev).unwrap();
    // Binding beyond the shard count wraps instead of panicking.
    pool.bind_thread_to_shard(7);
    let oid = pool.tx(|tx| tx.alloc(64, 1)).unwrap();
    assert_eq!(pool.shard_map().shard_of_off(oid.off), 7 % 2);
    pool.unbind_thread_from_shard();
    let _ = pool.read_verified(oid).unwrap();
}
