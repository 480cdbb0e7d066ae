//! Exhaustive crash-point testing of undo-log transactions.
//!
//! For every device-operation boundary inside a transaction, this test
//! simulates a power failure there (with randomized cache-eviction
//! outcomes), reopens the pool (running recovery) and verifies that the
//! transaction was atomic: all effects or none, and allocator metadata
//! stays consistent.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use pgl_nvm::{CrashPoint, DeviceConfig, NvmDevice, RandomPlan};
use pgl_pmemobj::{ObjError, PMEMoid, PmemPool, PoolConfig};

const OBJ_SIZE: u64 = 200;

fn small_cfg() -> PoolConfig {
    PoolConfig::small()
}

/// Runs `work` against a fresh pool; returns the number of device ops the
/// workload performs when uninterrupted.
fn count_ops(setup: impl Fn(&PmemPool) -> PMEMoid, work: impl Fn(&PmemPool, PMEMoid)) -> u64 {
    let cfg = small_cfg();
    let dev = Arc::new(NvmDevice::new(cfg.size, DeviceConfig::precise()).unwrap());
    let pool = PmemPool::create(dev.clone(), cfg).unwrap();
    let oid = setup(&pool);
    const BIG: u64 = 1 << 40;
    dev.arm_crash_after(BIG);
    work(&pool, oid);
    let remaining = dev.crash_countdown();
    dev.disarm_crash();
    assert!(remaining >= 0);
    BIG - remaining as u64
}

/// Crash at op `k` of `work`, recover, and hand the reopened pool to
/// `verify`.
fn crash_at(
    k: u64,
    seed: u64,
    setup: &impl Fn(&PmemPool) -> PMEMoid,
    work: &impl Fn(&PmemPool, PMEMoid),
    verify: &impl Fn(&PmemPool, PMEMoid, bool),
) {
    let cfg = small_cfg();
    let dev = Arc::new(NvmDevice::new(cfg.size, DeviceConfig::precise()).unwrap());
    let pool = PmemPool::create(dev.clone(), cfg).unwrap();
    let oid = setup(&pool);
    dev.arm_crash_after(k);
    let result = panic::catch_unwind(AssertUnwindSafe(|| work(&pool, oid)));
    dev.disarm_crash();
    let crashed = match result {
        Ok(()) => false,
        Err(payload) => {
            assert!(payload.downcast_ref::<CrashPoint>().is_some(), "unexpected panic");
            true
        }
    };
    drop(pool);
    dev.simulate_crash(&mut RandomPlan::seeded(seed)).unwrap();
    let pool = PmemPool::open(dev).expect("recovery must always succeed");
    verify(&pool, oid, crashed);
}

#[test]
fn overwrite_tx_is_atomic_at_every_crash_point() {
    let setup = |pool: &PmemPool| {
        pool.tx(|tx| {
            let oid = tx.alloc(OBJ_SIZE, 1)?;
            tx.write(oid, 0, &[0xAA; OBJ_SIZE as usize])?;
            Ok(oid)
        })
        .unwrap()
    };
    let work = |pool: &PmemPool, oid: PMEMoid| {
        pool.tx(|tx| tx.write(oid, 0, &[0xBB; OBJ_SIZE as usize])).unwrap();
    };
    let verify = |pool: &PmemPool, oid: PMEMoid, _crashed: bool| {
        let oid = PMEMoid::new(pool.uuid(), oid.off);
        let mut buf = [0u8; OBJ_SIZE as usize];
        pool.read(oid, 0, &mut buf).unwrap();
        let all_old = buf.iter().all(|&b| b == 0xAA);
        let all_new = buf.iter().all(|&b| b == 0xBB);
        assert!(all_old || all_new, "object must be entirely old or entirely new after recovery");
    };

    // The sweep must cross every window of the undo protocol: snapshot
    // persist (NT span + fence), the in-place store, its persist (flush +
    // fence), the commit record (NT span + fence) and the generation bump
    // (store + flush + fence) — ten device operations at the least.
    let total = count_ops(setup, work);
    assert!(total >= 10, "workload too trivial: {total} ops");
    for k in 0..total {
        crash_at(k, k.wrapping_mul(0x9E37_79B9_7F4A_7C15), &setup, &work, &verify);
    }
}

#[test]
fn alloc_and_link_tx_is_atomic_at_every_crash_point() {
    // The classic Listing-1 pattern: allocate a node and link it from the
    // root, in one transaction. After a crash either both happened or
    // neither.
    let setup = |pool: &PmemPool| pool.root(16, 0).unwrap();
    let work = |pool: &PmemPool, root: PMEMoid| {
        pool.tx(|tx| {
            let node = tx.alloc(64, 2)?;
            tx.write(node, 0, &[0xCD; 64])?;
            tx.write_pod(root, 0, &node.off)?; // link
            Ok(())
        })
        .unwrap();
    };
    let verify = |pool: &PmemPool, _root: PMEMoid, _crashed: bool| {
        let root = pool.root_oid().unwrap();
        let link: u64 = pool.read_pod(root, 0).unwrap();
        let live = pool.live_objects().unwrap();
        // The root object itself is live too.
        let nodes: Vec<_> = live.iter().filter(|(_, h)| h.type_num == 2).collect();
        if link == 0 {
            assert!(nodes.is_empty(), "unlinked node must not survive recovery");
        } else {
            assert_eq!(nodes.len(), 1, "exactly one node after commit");
            assert_eq!(nodes[0].0.off, link, "link points at the live node");
            let mut buf = [0u8; 64];
            pool.read(PMEMoid::new(pool.uuid(), link), 0, &mut buf).unwrap();
            assert_eq!(buf, [0xCD; 64], "committed node content intact");
        }
        // Allocator stays usable either way.
        pool.tx(|tx| tx.alloc(64, 3)).unwrap();
    };

    let total = count_ops(setup, work);
    for k in 0..total {
        crash_at(k, k.wrapping_mul(0xD129_0D3B), &setup, &work, &verify);
    }
}

#[test]
fn free_tx_is_atomic_at_every_crash_point() {
    let setup = |pool: &PmemPool| {
        pool.tx(|tx| {
            let oid = tx.alloc(128, 5)?;
            tx.write(oid, 0, &[0x11; 128])?;
            Ok(oid)
        })
        .unwrap()
    };
    let work = |pool: &PmemPool, oid: PMEMoid| {
        let oid = PMEMoid::new(pool.uuid(), oid.off);
        pool.tx(|tx| tx.free(oid)).unwrap();
    };
    let verify = |pool: &PmemPool, oid: PMEMoid, _crashed: bool| {
        let live = pool.live_objects().unwrap();
        let still_there = live.iter().any(|(o, _)| o.off == oid.off);
        if still_there {
            // Free did not commit: content must be intact.
            let mut buf = [0u8; 128];
            pool.read(PMEMoid::new(pool.uuid(), oid.off), 0, &mut buf).unwrap();
            assert_eq!(buf, [0x11; 128]);
        }
        // Either way the allocator is consistent: allocating the same class
        // must work and never hand out an offset that is still live.
        let fresh = pool.tx(|tx| tx.alloc(128, 5)).unwrap();
        let live_after = pool.live_objects().unwrap();
        let count = live_after.iter().filter(|(o, _)| o.off == fresh.off).count();
        assert_eq!(count, 1, "no double allocation of {:#x}", fresh.off);
    };

    let total = count_ops(setup, work);
    for k in 0..total {
        crash_at(k, k.wrapping_mul(31), &setup, &work, &verify);
    }
}

#[test]
fn aborted_tx_then_crash_leaves_old_state() {
    let cfg = small_cfg();
    let dev = Arc::new(NvmDevice::new(cfg.size, DeviceConfig::precise()).unwrap());
    let pool = PmemPool::create(dev.clone(), cfg).unwrap();
    let oid = pool
        .tx(|tx| {
            let oid = tx.alloc(64, 1)?;
            tx.write(oid, 0, &[1u8; 64])?;
            Ok(oid)
        })
        .unwrap();
    let _ = pool.tx(|tx| -> pgl_pmemobj::Result<()> {
        tx.write(oid, 0, &[2u8; 64])?;
        Err(ObjError::Aborted("test".into()))
    });
    drop(pool);
    dev.simulate_crash(&mut RandomPlan::seeded(7)).unwrap();
    let pool = PmemPool::open(dev).unwrap();
    let mut buf = [0u8; 64];
    pool.read(PMEMoid::new(pool.uuid(), oid.off), 0, &mut buf).unwrap();
    assert_eq!(buf, [1u8; 64]);
}

#[test]
fn double_crash_during_recovery_is_idempotent() {
    // Crash mid-transaction, then crash again *during recovery*, then
    // recover fully: recovery must be re-executable (paper §3.6).
    let cfg = small_cfg();
    let dev = Arc::new(NvmDevice::new(cfg.size, DeviceConfig::precise()).unwrap());
    let pool = PmemPool::create(dev.clone(), cfg).unwrap();
    let oid = pool
        .tx(|tx| {
            let oid = tx.alloc(OBJ_SIZE, 1)?;
            tx.write(oid, 0, &[0xAA; OBJ_SIZE as usize])?;
            Ok(oid)
        })
        .unwrap();

    // Crash in the middle of an overwrite: the snapshot is durable and the
    // in-place store is flushed but not fenced, so recovery has an undo
    // entry to roll back.
    dev.arm_crash_after(4);
    let crashed = panic::catch_unwind(AssertUnwindSafe(|| {
        pool.tx(|tx| tx.write(oid, 0, &[0xBB; OBJ_SIZE as usize]))
    }));
    dev.disarm_crash();
    assert!(crashed.is_err(), "the overwrite must not run to completion");
    drop(pool);
    dev.simulate_crash(&mut RandomPlan::seeded(1)).unwrap();

    // First recovery attempt crashes partway.
    for k in 0..60 {
        dev.arm_crash_after(k);
        let attempt = panic::catch_unwind(AssertUnwindSafe(|| PmemPool::open(dev.clone())));
        dev.disarm_crash();
        if let Ok(Ok(pool)) = attempt {
            // Recovery finished early (fewer than k ops); verify and stop.
            let mut buf = [0u8; OBJ_SIZE as usize];
            pool.read(PMEMoid::new(pool.uuid(), oid.off), 0, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 0xAA) || buf.iter().all(|&b| b == 0xBB));
            return;
        }
        drop(attempt);
        dev.simulate_crash(&mut RandomPlan::seeded(k + 100)).unwrap();
        // Final recovery must succeed and restore atomicity.
        let pool = PmemPool::open(dev.clone()).expect("second recovery succeeds");
        let mut buf = [0u8; OBJ_SIZE as usize];
        pool.read(PMEMoid::new(pool.uuid(), oid.off), 0, &mut buf).unwrap();
        assert!(
            buf.iter().all(|&b| b == 0xAA) || buf.iter().all(|&b| b == 0xBB),
            "object torn after crash-during-recovery at op {k}"
        );
        drop(pool);
    }
}
