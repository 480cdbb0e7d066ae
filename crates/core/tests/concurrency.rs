//! Concurrency stress tests: the freeze protocol (paper §3.6) must let
//! online recovery run *while* other threads keep committing, and the
//! background scrubber must coexist with writers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pangolin::{inject, CsumPolicy, PMEMoid, PglConfig, PglPool};
use pgl_nvm::{DeviceConfig, NvmDevice};

fn big_pool() -> PglPool {
    let mut cfg = PglConfig::small();
    cfg.pool.size = 32 << 20;
    cfg.pool.zone_size = 16 << 20;
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    PglPool::create(dev, cfg).unwrap()
}

#[test]
fn online_recovery_races_committing_threads() {
    let pool = big_pool();
    // Each worker owns its objects (the paper's no-shared-object rule).
    let n_workers = 3usize;
    let per = 16usize;
    let mut sets: Vec<Vec<PMEMoid>> = Vec::new();
    for w in 0..n_workers {
        sets.push(
            (0..per)
                .map(|i| {
                    pool.tx(|tx| {
                        let oid = tx.alloc(512, w as u32)?;
                        tx.write(oid, 0, &[(w * per + i) as u8; 512])?;
                        Ok(oid)
                    })
                    .unwrap()
                })
                .collect(),
        );
    }
    // A victim pool the injector poisons, never written by workers.
    let victims: Vec<PMEMoid> = (0..8)
        .map(|i| {
            pool.tx(|tx| {
                let oid = tx.alloc(256, 99)?;
                tx.write(oid, 0, &[0x56 + i as u8; 256])?;
                Ok(oid)
            })
            .unwrap()
        })
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        // Writers hammer their own objects.
        for (w, oids) in sets.iter().enumerate() {
            let pool = pool.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut round = 0u8;
                while !stop.load(Ordering::Relaxed) {
                    for oid in oids {
                        pool.tx(|tx| tx.write(*oid, 0, &[round ^ w as u8; 512])).unwrap();
                    }
                    round = round.wrapping_add(1);
                }
            });
        }
        // The fault thread repeatedly poisons victim pages and reads them
        // back (triggering freeze + reconstruction under full commit load).
        let pool2 = pool.clone();
        let stop2 = stop.clone();
        s.spawn(move || {
            for round in 0..20 {
                let victim = victims[round % victims.len()];
                inject::poison_object_page(&pool2, victim).unwrap();
                let data = pool2.read_verified(victim).unwrap();
                assert_eq!(data[0], 0x56 + (round % victims.len()) as u8, "round {round}");
            }
            stop2.store(true, Ordering::Relaxed);
        });
    });

    assert!(pool.counters().page_recoveries >= 20, "every injection recovered online");
    assert!(pool.verify_parity().unwrap(), "parity after recovery-under-load");
    assert!(pool.find_corrupt_objects().unwrap().is_empty());
}

#[test]
fn background_scrubber_coexists_with_writers() {
    let mut cfg = PglConfig::small();
    cfg.pool.size = 32 << 20;
    cfg.pool.zone_size = 16 << 20;
    cfg.policy = CsumPolicy::ScrubEvery(50);
    cfg.background_scrub = true;
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    let pool = PglPool::create(dev, cfg).unwrap();

    let oids: Vec<PMEMoid> = (0..32)
        .map(|i| {
            pool.tx(|tx| {
                let oid = tx.alloc(128, 1)?;
                tx.write(oid, 0, &[i as u8; 128])?;
                Ok(oid)
            })
            .unwrap()
        })
        .collect();

    std::thread::scope(|s| {
        for chunk in oids.chunks(16) {
            let pool = pool.clone();
            s.spawn(move || {
                for round in 0..200u32 {
                    for oid in chunk {
                        pool.tx(|tx| tx.write(*oid, 0, &[round as u8; 64])).unwrap();
                    }
                }
            });
        }
    });
    // Give the background scrubber a moment to drain its queue.
    for _ in 0..100 {
        if pool.scrub_totals().shard_passes > 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(pool.scrub_totals().shard_passes >= 1, "background scrub passes ran");
    assert!(pool.verify_parity().unwrap());
    assert!(pool.find_corrupt_objects().unwrap().is_empty());
}

/// The Figure 9 / §3.5 stress: ≥4 threads × ≥1k mixed alloc/write/free
/// transactions on ONE pool, through cheap shared handles. Afterwards the
/// full parity invariant must hold (verify_all reports every mismatching
/// column — the list must be empty) and every object checksum must match.
#[test]
fn stress_mixed_txns_across_threads_keep_parity_clean() {
    let pool = big_pool();
    let n_threads = 4u64;
    let txns_per_thread = 300u64; // 1200 transactions total
    std::thread::scope(|s| {
        for t in 0..n_threads {
            let pool = pool.clone();
            s.spawn(move || {
                let mut mine: Vec<PMEMoid> = Vec::new();
                for i in 0..txns_per_thread {
                    match i % 3 {
                        // Allocate + initialize a fresh object.
                        0 => {
                            let size = 64 + ((t * 131 + i * 17) % 1500);
                            let oid = pool
                                .tx(|tx| {
                                    let oid = tx.alloc(size, t as u32)?;
                                    tx.write(oid, 0, &[t as u8 ^ i as u8; 48])?;
                                    Ok(oid)
                                })
                                .unwrap();
                            mine.push(oid);
                        }
                        // Overwrite a range of an object this thread owns.
                        1 => {
                            if let Some(&oid) = mine.last() {
                                pool.tx(|tx| {
                                    tx.write(oid, 8, &[i as u8; 40])?;
                                    Ok(())
                                })
                                .unwrap();
                            }
                        }
                        // Free an older object.
                        _ => {
                            if mine.len() > 8 {
                                let victim = mine.swap_remove(mine.len() / 2);
                                pool.tx(|tx| tx.free(victim)).unwrap();
                            }
                        }
                    }
                }
                // Everything still owned reads back verified.
                for oid in &mine {
                    pool.read_verified(*oid).unwrap();
                }
            });
        }
    });
    let mismatches = pool.verify_parity_detailed().unwrap();
    assert!(mismatches.is_empty(), "parity mismatches after 4x300 mixed txns: {mismatches:?}");
    assert!(pool.find_corrupt_objects().unwrap().is_empty());
    assert!(pool.counters().commits >= 1000, "the workload really committed >1k transactions");
}

/// The scrubber must coexist with live transactions WITHOUT freezing the
/// pool for its object sweep: it takes the same parity range-locks
/// committing writers hold, object by object.
#[test]
fn synchronous_scrubs_race_committing_writers() {
    let pool = big_pool();
    let oids: Vec<PMEMoid> = (0..48)
        .map(|i| {
            pool.tx(|tx| {
                let oid = tx.alloc(256, 5)?;
                tx.write(oid, 0, &[i as u8; 256])?;
                Ok(oid)
            })
            .unwrap()
        })
        .collect();

    std::thread::scope(|s| {
        for chunk in oids.chunks(16) {
            let pool = pool.clone();
            s.spawn(move || {
                for round in 0..120u32 {
                    for oid in chunk {
                        pool.tx(|tx| tx.write(*oid, 0, &[round as u8; 128])).unwrap();
                    }
                }
            });
        }
        // Scrub repeatedly from a fourth thread while the writers run.
        let pool2 = pool.clone();
        s.spawn(move || {
            for _ in 0..10 {
                let report = pool2.scrub_now().unwrap();
                assert_eq!(report.objects_repaired, 0, "no false scribble repairs");
            }
        });
    });
    assert!(pool.counters().full_scrubs >= 10);
    assert!(pool.verify_parity().unwrap());
    assert!(pool.find_corrupt_objects().unwrap().is_empty());
}

#[test]
fn many_threads_allocate_and_free_concurrently() {
    let pool = big_pool();
    std::thread::scope(|s| {
        for t in 0..4u32 {
            let pool = pool.clone();
            s.spawn(move || {
                let mut mine = Vec::new();
                for i in 0..150u32 {
                    let size = 64 + ((t * 37 + i * 13) % 900) as u64;
                    let oid = pool
                        .tx(|tx| {
                            let oid = tx.alloc(size, t)?;
                            tx.write(oid, 0, &[t as u8; 32])?;
                            Ok(oid)
                        })
                        .unwrap();
                    mine.push(oid);
                    if i % 3 == 0 {
                        let victim = mine.swap_remove(mine.len() / 2);
                        pool.tx(|tx| tx.free(victim)).unwrap();
                    }
                }
                // Everything this thread still owns has its content.
                for oid in &mine {
                    let data = pool.read_verified(*oid).unwrap();
                    assert_eq!(&data[..32], &[t as u8; 32]);
                }
            });
        }
    });
    assert!(pool.verify_parity().unwrap());
    assert!(pool.find_corrupt_objects().unwrap().is_empty());
}
