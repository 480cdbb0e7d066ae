//! Functional tests of the Pangolin API across all operation modes.

use std::sync::Arc;

use pangolin::{PglConfig, PglError, PglMode, PglPool};
use pgl_nvm::{DeviceConfig, NvmDevice};

fn pool_with(mode: PglMode) -> PglPool {
    let mut cfg = PglConfig::small().with_mode(mode);
    if !mode.has_parity() {
        cfg.pool.parity = false;
    }
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    PglPool::create(dev, cfg).unwrap()
}

fn all_modes() -> [PglMode; 4] {
    [PglMode::Baseline, PglMode::Ml, PglMode::Mlp, PglMode::Mlpc]
}

#[test]
fn alloc_write_read_in_every_mode() {
    for mode in all_modes() {
        let pool = pool_with(mode);
        let oid = pool
            .tx(|tx| {
                let oid = tx.alloc(100, 7)?;
                tx.write(oid, 0, b"pangolin mode test")?;
                tx.write_pod(oid, 64, &0x1234_5678u64)?;
                Ok(oid)
            })
            .unwrap();
        let mut buf = [0u8; 18];
        pool.read(oid, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"pangolin mode test", "mode {mode:?}");
        assert_eq!(pool.read_pod::<u64>(oid, 64).unwrap(), 0x1234_5678);
        if mode.has_parity() {
            assert!(pool.verify_parity().unwrap(), "parity invariant in {mode:?}");
        }
        assert!(pool.find_corrupt_objects().unwrap().is_empty());
    }
}

#[test]
fn overwrite_updates_checksum_and_parity() {
    let pool = pool_with(PglMode::Mlpc);
    let oid = pool
        .tx(|tx| {
            let oid = tx.alloc(256, 1)?;
            tx.write(oid, 0, &[0xAA; 256])?;
            Ok(oid)
        })
        .unwrap();
    pool.tx(|tx| tx.write(oid, 100, &[0xBB; 50])).unwrap();
    let data = pool.read_verified(oid).unwrap();
    assert_eq!(&data[..100], &[0xAA; 100][..]);
    assert_eq!(&data[100..150], &[0xBB; 50][..]);
    assert!(pool.verify_parity().unwrap());
}

#[test]
fn abort_leaves_no_trace() {
    let pool = pool_with(PglMode::Mlpc);
    let oid = pool
        .tx(|tx| {
            let oid = tx.alloc(64, 1)?;
            tx.write(oid, 0, &[1; 64])?;
            Ok(oid)
        })
        .unwrap();
    let err = pool.tx(|tx| -> pangolin::Result<()> {
        tx.write(oid, 0, &[2; 64])?;
        let _garbage = tx.alloc(128, 2)?;
        Err(PglError::unrecoverable("user abort"))
    });
    assert!(err.is_err());
    let data = pool.read_verified(oid).unwrap();
    assert_eq!(data, vec![1; 64], "aborted modification stayed in DRAM only");
    assert_eq!(pool.live_objects().unwrap().len(), 1, "aborted alloc vanished");
    assert!(pool.verify_parity().unwrap());
}

#[test]
fn free_and_reuse() {
    let pool = pool_with(PglMode::Mlpc);
    let oid = pool.tx(|tx| tx.alloc(200, 3)).unwrap();
    pool.tx(|tx| tx.free(oid)).unwrap();
    assert!(pool.live_objects().unwrap().is_empty());
    let oid2 = pool.tx(|tx| tx.alloc(200, 3)).unwrap();
    assert_eq!(oid2.off, oid.off, "storage reused");
    assert!(pool.verify_parity().unwrap());
}

#[test]
fn transaction_isolation_within_tx() {
    let pool = pool_with(PglMode::Mlpc);
    let oid = pool
        .tx(|tx| {
            let oid = tx.alloc(16, 1)?;
            tx.write_pod(oid, 0, &1u64)?;
            Ok(oid)
        })
        .unwrap();
    pool.tx(|tx| {
        tx.write_pod(oid, 0, &2u64)?;
        // Reads inside the tx see the micro-buffer (isolation)...
        assert_eq!(tx.read_pod::<u64>(oid, 0)?, 2);
        Ok(())
    })
    .unwrap();
    // ...and the commit made it durable.
    assert_eq!(pool.read_pod::<u64>(oid, 0).unwrap(), 2);
}

#[test]
fn reopen_recovers_everything() {
    let cfg = PglConfig::small();
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    let pool = PglPool::create(dev.clone(), cfg).unwrap();
    let root = pool.root(64, 0).unwrap();
    let oid = pool
        .tx(|tx| {
            let oid = tx.alloc(128, 9)?;
            tx.write(oid, 0, b"survives reopen")?;
            tx.write_pod(root, 0, &oid.off)?;
            Ok(oid)
        })
        .unwrap();
    drop(pool);

    let pool = PglPool::options().open(dev).unwrap();
    assert_eq!(pool.mode(), PglMode::Mlpc, "mode restored from header");
    let root = pool.root_oid().unwrap();
    let off: u64 = pool.read_pod(root, 0).unwrap();
    assert_eq!(off, oid.off);
    let data = pool.read_verified(pangolin::PMEMoid::new(pool.uuid(), off)).unwrap();
    assert_eq!(&data[..15], b"survives reopen");
    assert!(pool.verify_parity().unwrap());
}

#[test]
fn single_object_open_commit() {
    // The paper's Listing 2: pgl_open / modify / pgl_commit.
    let pool = pool_with(PglMode::Mlpc);
    let oid = pool
        .tx(|tx| {
            let oid = tx.alloc(48, 4)?;
            tx.write_pod(oid, 0, &10u64)?;
            Ok(oid)
        })
        .unwrap();
    let mut obj = pool.open_object(oid).unwrap();
    // Unmarked, paper-style field assignment through the buffer.
    obj.user_mut()[0..8].copy_from_slice(&99u64.to_le_bytes());
    pool.commit_object(obj).unwrap();
    assert_eq!(pool.read_pod::<u64>(oid, 0).unwrap(), 99);
    assert!(pool.verify_parity().unwrap());
    assert!(pool.find_corrupt_objects().unwrap().is_empty());
}

#[test]
fn commit_object_without_changes_is_noop() {
    let pool = pool_with(PglMode::Mlpc);
    let oid = pool.tx(|tx| tx.alloc(32, 1)).unwrap();
    let before = pool.io().dev().stats();
    let obj = pool.open_object(oid).unwrap();
    pool.commit_object(obj).unwrap();
    let after = pool.io().dev().stats();
    assert_eq!(
        after.bytes_written_nt, before.bytes_written_nt,
        "no write-back for an unchanged object"
    );
}

#[test]
fn large_objects_spanning_rows() {
    let pool = pool_with(PglMode::Mlpc);
    // PoolConfig::small: 16 KiB chunks, 15 chunks per row. Allocate an
    // object spanning several chunks and cross-check integrity.
    let big = 5 * 16 * 1024;
    let oid = pool
        .tx(|tx| {
            let oid = tx.alloc(big, 11)?;
            let pattern: Vec<u8> = (0..big).map(|i| (i % 241) as u8).collect();
            tx.write(oid, 0, &pattern)?;
            Ok(oid)
        })
        .unwrap();
    let data = pool.read_verified(oid).unwrap();
    assert!(data.iter().enumerate().all(|(i, &b)| b == (i % 241) as u8));
    assert!(pool.verify_parity().unwrap());
    // Large in-place update exercising the vectorized parity path.
    pool.tx(|tx| tx.write(oid, 1000, &vec![0xEE; 20 << 10])).unwrap();
    assert!(pool.verify_parity().unwrap());
    assert!(pool.find_corrupt_objects().unwrap().is_empty());
}

#[test]
fn concurrent_transactions_scale_safely() {
    let pool = pool_with(PglMode::Mlpc);
    let oids: Vec<_> = (0..8)
        .map(|i| {
            pool.tx(|tx| {
                let oid = tx.alloc(512, i)?;
                tx.write(oid, 0, &[i as u8; 512])?;
                Ok(oid)
            })
            .unwrap()
        })
        .collect();
    std::thread::scope(|s| {
        for (t, oid) in oids.iter().enumerate() {
            let pool = pool.clone();
            let oid = *oid;
            s.spawn(move || {
                for round in 0..30u32 {
                    pool.tx(|tx| {
                        tx.write(oid, (round as u64 % 8) * 64, &[(t as u8) ^ round as u8; 64])
                    })
                    .unwrap();
                }
            });
        }
    });
    assert!(pool.verify_parity().unwrap(), "parity survives concurrent commits");
    assert!(pool.find_corrupt_objects().unwrap().is_empty());
}

#[test]
fn tx_stats_track_table3_quantities() {
    let pool = pool_with(PglMode::Mlpc);
    let (oid, stats) = pool
        .tx_with_stats(|tx| {
            let oid = tx.alloc(56, 1)?;
            tx.write_pod(oid, 0, &1u64)?;
            Ok(oid)
        })
        .unwrap();
    assert_eq!(stats.allocated_bytes, 56);
    assert_eq!(stats.alloc_objects, 1);
    assert_eq!(stats.modified_bytes, 0, "writes to new objects are not 'Mod'");

    let (_, stats) = pool
        .tx_with_stats(|tx| {
            tx.write_pod(oid, 0, &2u64)?;
            tx.write_pod(oid, 16, &3u64)?;
            Ok(())
        })
        .unwrap();
    assert_eq!(stats.modified_bytes, 16);
    assert_eq!(stats.modified_objects, 1);
    assert_eq!(stats.alloc_objects, 0);
}

#[test]
fn read_only_tx_commits_nothing() {
    let pool = pool_with(PglMode::Mlpc);
    let oid = pool.tx(|tx| tx.alloc(64, 1)).unwrap();
    let before = pool.io().dev().stats();
    pool.tx(|tx| {
        let mut buf = [0u8; 64];
        tx.read(oid, 0, &mut buf)?;
        Ok(())
    })
    .unwrap();
    let after = pool.io().dev().stats();
    assert_eq!(after.bytes_written_nt, before.bytes_written_nt);
    assert_eq!(after.lines_flushed, before.lines_flushed, "read-only tx is free");
}

/// An object of `size` bytes in a pool big enough to hold a 256 KiB one.
fn pool_and_obj(size: u64) -> (PglPool, pangolin::PMEMoid) {
    let mut cfg = PglConfig::small();
    cfg.pool.size = 32 << 20;
    cfg.pool.zone_size = 16 << 20;
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    let pool = PglPool::create(dev, cfg).unwrap();
    let oid = pool.tx(|tx| tx.alloc(size, 1)).unwrap();
    (pool, oid)
}

fn is_invalid_oid(e: &PglError) -> bool {
    matches!(e, PglError::Obj(pgl_pmemobj::ObjError::InvalidOid { .. }))
}

#[test]
fn out_of_range_write_is_a_typed_error_not_a_panic() {
    // `off + len` wraps: it must fail the bounds check, not pass it (or
    // panic under overflow checks), for one segment or a thousand.
    for size in [64, 256 << 10] {
        let (pool, oid) = pool_and_obj(size);
        for off in [u64::MAX - 2, size - 5, size + 1] {
            let e = pool.tx(|tx| tx.write(oid, off, b"abcdef")).unwrap_err();
            assert!(is_invalid_oid(&e), "write at {off}: {e:?}");
            let e = pool.tx(|tx| tx.add_range(oid, off, 6)).unwrap_err();
            assert!(is_invalid_oid(&e), "add_range at {off}: {e:?}");
        }
        let e = pool.tx(|tx| tx.add_range(oid, 8, u64::MAX)).unwrap_err();
        assert!(is_invalid_oid(&e), "add_range with a huge length: {e:?}");
        pool.tx(|tx| tx.write(oid, size - 6, b"abcdef")).unwrap();
        assert!(pool.verify_parity().unwrap());
    }
}

#[test]
fn out_of_range_read_of_an_open_object_is_a_typed_error_not_a_panic() {
    let read_past = |pool: &PglPool, oid, size: u64, prepare: &dyn Fn(&mut pangolin::PglTx<'_>)| {
        for (off, len) in [(size - 3, 6usize), (size + 1, 1), (u64::MAX - 2, 6)] {
            let e = pool
                .tx(|tx| {
                    prepare(tx);
                    tx.read(oid, off, &mut vec![0u8; len])
                })
                .unwrap_err();
            assert!(matches!(e, PglError::TypeMismatch { .. }), "read {len} at {off}: {e:?}");
        }
        // The last in-range bytes still read fine.
        pool.tx(|tx| {
            prepare(tx);
            tx.read(oid, size - 6, &mut [0u8; 6])
        })
        .unwrap();
    };
    // One segment, resident.
    let (pool, oid) = pool_and_obj(64);
    read_past(&pool, oid, 64, &|tx| tx.write(oid, 0, b"x").unwrap());
    // Lazily opened: verified-fresh, nothing written.
    pool.read_verified(oid).unwrap();
    read_past(&pool, oid, 64, &|tx| tx.open(oid).unwrap());
    // 1 024 segments: one resident, the read past the end in another.
    let big = 256 << 10;
    let (pool, oid) = pool_and_obj(big);
    read_past(&pool, oid, big, &|tx| tx.write(oid, 0, b"x").unwrap());
    // Not open at all: the offset itself must not wrap.
    let e = pool.tx(|tx| tx.read(oid, u64::MAX - 2, &mut [0u8; 6])).unwrap_err();
    assert!(is_invalid_oid(&e) || matches!(e, PglError::TypeMismatch { .. }), "{e:?}");
}
