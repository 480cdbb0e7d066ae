//! Exhaustive crash-point testing of Pangolin's redo-log commit protocol,
//! built on the [`pangolin::crashcheck`] harness.
//!
//! Each workload is swept at every device-operation boundary under the
//! full plan matrix (AllOld, AllNew, seeded random evictions, and the
//! exhaustive line-outcome enumeration where the dirty-line space is
//! small). Every case reopens the pool (redo replay + parity
//! recomputation, paper §3.6) and checks:
//!
//! * **atomicity** — the DRAM model oracle: the recovered state equals
//!   exactly the committed state before or after the interrupted
//!   transaction;
//! * **the parity invariant** — every column equals the XOR of its data
//!   rows, so a later media error would still be recoverable;
//! * **checksum integrity** — every live object passes verification and a
//!   scrub pass changes nothing.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use pangolin::crashcheck::{self, FnWorkload, PlanSpec, SweepConfig};
use pangolin::{PMEMoid, PglConfig, PglError, PglPool};
use pgl_nvm::{DeviceConfig, NvmDevice, RandomPlan};

const OBJ_SIZE: u64 = 192;

/// Finds the single live object with `type_num`, failing the transaction
/// machinery's way when absent.
fn find_by_type(pool: &PglPool, type_num: u32) -> pangolin::Result<PMEMoid> {
    pool.live_objects()?
        .into_iter()
        .find(|(_, h)| h.type_num == type_num)
        .map(|(oid, _)| PMEMoid::new(pool.uuid(), oid.off))
        .ok_or_else(|| PglError::Config(format!("no live object of type {type_num}")))
}

#[test]
fn overwrite_tx_atomic_and_parity_consistent_at_every_crash_point() {
    let workload = FnWorkload::new(
        "overwrite-tx",
        |pool| {
            pool.tx(|tx| {
                let oid = tx.alloc(OBJ_SIZE, 1)?;
                tx.write(oid, 0, &[0xAA; OBJ_SIZE as usize])
            })
        },
        |pool, ctx| {
            let oid = find_by_type(pool, 1)?;
            pool.tx(|tx| tx.write(oid, 0, &[0xBB; OBJ_SIZE as usize]))?;
            ctx.commit_point(pool)
        },
    )
    .with_verify(|pool, _committed| {
        // The oracle already proved all-or-nothing against the recorded
        // snapshots; pin the user-visible form of it too.
        let oid = find_by_type(pool, 1)?;
        let data = pool.read_verified(oid)?;
        let all_old = data.iter().all(|&b| b == 0xAA);
        let all_new = data.iter().all(|&b| b == 0xBB);
        if !(all_old || all_new) {
            return Err(PglError::Config("torn overwrite after recovery".into()));
        }
        Ok(())
    });

    let report = crashcheck::sweep(&workload);
    // The fused whole-object commit (one redo entry, one write-back store,
    // one parity patch that flushes its own lines) needs only ten device
    // ops for this shape.
    assert!(report.boundaries >= 10, "workload too trivial: {} ops", report.boundaries);
    assert_eq!(report.swept, report.boundaries, "every boundary crashed");
}

#[test]
fn alloc_and_link_tx_atomic_at_every_crash_point() {
    let workload = FnWorkload::new(
        "alloc-and-link",
        |pool| pool.root(16, 0).map(|_| ()),
        |pool, ctx| {
            let root = pool.root_oid()?;
            pool.tx(|tx| {
                let node = tx.alloc(64, 2)?;
                tx.write(node, 0, &[0xCD; 64])?;
                tx.write_pod(root, 0, &node.off)
            })?;
            ctx.commit_point(pool)
        },
    )
    .with_verify(|pool, _committed| {
        let root = pool.root_oid()?;
        let link: u64 = pool.read_pod(root, 0)?;
        let nodes: Vec<_> =
            pool.live_objects()?.into_iter().filter(|(_, h)| h.type_num == 2).collect();
        if link == 0 {
            if !nodes.is_empty() {
                return Err(PglError::Config("unlinked node visible after recovery".into()));
            }
        } else {
            if nodes.len() != 1 || nodes[0].0.off != link {
                return Err(PglError::Config(format!(
                    "link {link:#x} does not resolve to the single type-2 node"
                )));
            }
            let data = pool.read_verified(PMEMoid::new(pool.uuid(), link))?;
            if data != vec![0xCD; 64] {
                return Err(PglError::Config("linked node content damaged".into()));
            }
        }
        // Allocator must remain usable after any crash.
        pool.tx(|tx| tx.alloc(64, 3))?;
        if !pool.verify_parity()? {
            return Err(PglError::Config("parity broken by post-recovery alloc".into()));
        }
        Ok(())
    });

    // Allocator metadata multiplies both the boundary count and each
    // boundary's dirty-line outcome space, so the full sweep is by far the
    // slowest in this file: sample every 4th boundary in the smoke run and
    // leave the exhaustive walk to the nightly deep config (which ignores
    // the sampling request).
    crashcheck::sweep_with(&workload, &SweepConfig::from_env().sampled(4));
}

#[test]
fn free_tx_atomic_at_every_crash_point() {
    let workload = FnWorkload::new(
        "free-tx",
        |pool| {
            pool.tx(|tx| {
                let oid = tx.alloc(128, 5)?;
                tx.write(oid, 0, &[0x11; 128])
            })
        },
        |pool, ctx| {
            let oid = find_by_type(pool, 5)?;
            pool.tx(|tx| tx.free(oid))?;
            ctx.commit_point(pool)
        },
    )
    .with_verify(|pool, _committed| {
        // (The oracle already checked the freed object is atomically
        // present-with-old-content or gone.) The allocator must not hand
        // the same slot out twice.
        let fresh = pool.tx(|tx| tx.alloc(128, 5))?;
        let live = pool.live_objects()?;
        if live.iter().filter(|(o, _)| o.off == fresh.off).count() != 1 {
            return Err(PglError::Config("double allocation after crash".into()));
        }
        Ok(())
    });

    crashcheck::sweep(&workload);
}

#[test]
fn multi_object_tx_atomic_at_sampled_crash_points() {
    // A transaction touching two existing objects plus an allocation:
    // either all three effects landed or none. The model oracle checks
    // exactly this (snapshot 0 = {1s, 2s}, snapshot 1 = {11s, 22s, 33s});
    // the explicit verify below keeps the user-visible assertions from the
    // pre-harness version of this test.
    let workload = FnWorkload::new(
        "multi-object-tx",
        |pool| {
            pool.tx(|tx| {
                let a = tx.alloc(64, 1)?;
                tx.write(a, 0, &[1; 64])?;
                let b = tx.alloc(64, 2)?;
                tx.write(b, 0, &[2; 64])
            })
        },
        |pool, ctx| {
            let a = find_by_type(pool, 1)?;
            let b = find_by_type(pool, 2)?;
            pool.tx(|tx| {
                tx.write(a, 0, &[11; 64])?;
                tx.write(b, 0, &[22; 64])?;
                let c = tx.alloc(64, 3)?;
                tx.write(c, 0, &[33; 64])
            })?;
            ctx.commit_point(pool)
        },
    )
    .with_verify(|pool, committed| {
        let da = pool.read_verified(find_by_type(pool, 1)?)?;
        let db = pool.read_verified(find_by_type(pool, 2)?)?;
        let c_exists = pool.live_objects()?.iter().any(|(_, h)| h.type_num == 3);
        if committed == 1 {
            if da[0] != 11 || db[0] != 22 || !c_exists {
                return Err(PglError::Config("all effects must commit together".into()));
            }
        } else if da[0] != 1 || db[0] != 2 || c_exists {
            return Err(PglError::Config("no effect may leak from the torn tx".into()));
        }
        Ok(())
    });

    // Sample every third op to keep smoke runtime modest (the other tests
    // cover exhaustive single-object sweeps); the nightly deep config
    // ignores the sampling request and sweeps every boundary.
    crashcheck::sweep_with(&workload, &SweepConfig::from_env().sampled(3));
}

#[test]
fn big_object_ranges_atomic_at_every_crash_point() {
    // A 96 KiB object (384 segments): the transaction loads only the
    // segments its ranges cover. One commit carries a range at offset 0
    // (which takes the header along in its span), a range that spans two
    // earlier-loaded runs plus the gap between them (merged into one run),
    // and a range in a second, distant run — all or none of them.
    const BIG: u64 = 96 << 10;
    const RANGES: [(u64, usize); 3] = [(0, 40), (1050, 300), (80_000, 200)];
    let workload = FnWorkload::new(
        "big-object-ranges",
        |pool| {
            pool.tx(|tx| {
                let oid = tx.alloc(BIG, 7)?;
                tx.write(oid, 0, &vec![0xAA; BIG as usize])
            })
        },
        |pool, ctx| {
            let oid = find_by_type(pool, 7)?;
            pool.tx(|tx| {
                tx.write(oid, 1000, &[0xB1; 100])?;
                tx.write(oid, 1300, &[0xB2; 100])?;
                for (off, len) in RANGES {
                    tx.write(oid, off, &vec![0xBB; len])?;
                }
                Ok(())
            })?;
            ctx.commit_point(pool)
        },
    )
    .with_verify(|pool, committed| {
        let data = pool.read_verified(find_by_type(pool, 7)?)?;
        let mut want = vec![0xAA; BIG as usize];
        if committed == 1 {
            want[1000..1050].fill(0xB1);
            want[1350..1400].fill(0xB2);
            for (off, len) in RANGES {
                want[off as usize..off as usize + len].fill(0xBB);
            }
        }
        if data != want {
            return Err(PglError::Config("torn big-object commit after recovery".into()));
        }
        Ok(())
    });
    let report = crashcheck::sweep(&workload);
    assert_eq!(report.swept, report.boundaries, "every boundary crashed");
}

/// The multi-segment shape: a 4 136-byte object (17 segments, the last
/// one 40 bytes with its sum-table entry right behind it).
const SEGMENTED: u64 = 4136;

/// `SEGMENTED`'s content after the first `n` operations of
/// `multi_segment_object_atomic_at_every_crash_point` (the CAS, op 3, is
/// decided by its recovery report and applied by the caller).
fn segmented_after(n: usize) -> Vec<u8> {
    let mut want: Vec<u8> = (0..SEGMENTED as usize).map(|i| (i % 241) as u8).collect();
    if n >= 1 {
        want[5 * 256 + 16..5 * 256 + 40].fill(0x51);
        want[4100..4110].fill(0x52);
    }
    if n >= 2 {
        want[40..56].fill(0x53);
    }
    if n >= 3 {
        want.fill(0xC3);
    }
    want
}

#[test]
fn multi_segment_object_atomic_at_every_crash_point() {
    // Every way a commit touches a segmented object, each its own commit
    // point: sparse writes into segment 5 (its entry, a span of its own)
    // and segment 16 (the write runs on over the entry behind the user
    // bytes); a write into segment 0 (the header's sum); a whole overwrite
    // (header, user bytes and table in one span); then a detectable CAS
    // into segment 7, which folds its delta into that segment's entry.
    // Whatever the crash point, the recovered object is one of the
    // committed states and every segment checks against its sum.
    const CAS_AT: u64 = 7 * 256 + 64;
    const CAS_NEW: u64 = 0x1122_3344_5566_7788;
    let workload = FnWorkload::new(
        "multi-segment",
        |pool| {
            pool.tx(|tx| {
                let oid = tx.alloc(SEGMENTED, 8)?;
                tx.write(oid, 0, &segmented_after(0))
            })
        },
        |pool, ctx| {
            let oid = find_by_type(pool, 8)?;
            pool.tx(|tx| {
                tx.write(oid, 5 * 256 + 16, &[0x51; 24])?;
                tx.write(oid, 4100, &[0x52; 10])
            })?;
            ctx.commit_point(pool)?;
            pool.tx(|tx| tx.write(oid, 40, &[0x53; 16]))?;
            ctx.commit_point(pool)?;
            pool.tx(|tx| tx.write(oid, 0, &segmented_after(3)))?;
            ctx.commit_point(pool)?;
            let res =
                pool.atomic_update(oid, CAS_AT, u64::from_le_bytes([0xC3; 8]), CAS_NEW, 42)?;
            assert!(res.is_applied());
            ctx.commit_point(pool)
        },
    )
    .with_verify(|pool, committed| {
        let oid = find_by_type(pool, 8)?;
        let mut want = segmented_after(committed.min(3));
        let cas_done = committed == 4
            || (committed == 3
                && pool
                    .cas_recoveries()
                    .iter()
                    .any(|r| r.tag == 42 && r.outcome == pangolin::CasOutcome::Completed));
        if cas_done {
            want[CAS_AT as usize..CAS_AT as usize + 8].copy_from_slice(&CAS_NEW.to_le_bytes());
        }
        if pool.read_verified(oid)? != want {
            return Err(PglError::Config(format!("torn segmented object (committed {committed})")));
        }
        Ok(())
    });
    let report = crashcheck::sweep(&workload);
    assert_eq!(report.swept, report.boundaries, "every boundary crashed");
}

#[test]
fn watermark_raise_precedes_every_write_into_fresh_chunks() {
    // Setup fills the rest of row 0, and row 1's first chunk, with
    // one-chunk objects, so the swept transaction's storage lands in row 1
    // above the watermark and over them: a fresh run chunk (chunk column
    // 1) and a Large object over two fresh chunks (columns 2 and 3).
    // Whatever the crash point, the fold of those columns must still
    // count every byte the transaction put there — so each recovered pool
    // loses a page of the lower row in each column and must rebuild it.
    const FILLER: u32 = 1;
    const LARGE: u64 = 20_000; // two 16 KiB chunks with its header
    let filler = |pool: &PglPool, chunk: u64| {
        let l = pool.layout();
        let oid = PMEMoid::new(pool.uuid(), l.chunk_base(0, chunk) + 16);
        // The largest object whose header, user bytes and sum table fill
        // exactly one chunk.
        let room = l.cfg.chunk_size as u64 - 16;
        let size = (1..=room).rev().find(|&s| pangolin::segment::footprint(s) <= room).unwrap();
        (oid, vec![0x40 ^ chunk as u8; size as usize])
    };
    let workload = FnWorkload::new(
        "watermark-raise",
        move |pool| {
            let l = *pool.layout();
            pool.tx(|tx| {
                for chunk in l.zone.cm_chunks..=l.zone.chunks_per_row {
                    let (_, bytes) = filler(pool, chunk);
                    let o = tx.alloc(bytes.len() as u64, FILLER)?;
                    tx.write(o, 0, &bytes)?;
                }
                Ok(())
            })
        },
        |pool, ctx| {
            pool.tx(|tx| {
                let a = tx.alloc(64, 2)?;
                tx.write(a, 0, &[0xA2; 64])?;
                let b = tx.alloc(LARGE, 3)?;
                tx.write(b, 0, &vec![0xB3; LARGE as usize])
            })?;
            ctx.commit_point(pool)
        },
    )
    .with_verify(move |pool, committed| {
        let l = *pool.layout();
        let cpr = l.zone.chunks_per_row;
        if committed == 1 && pool.watermark(0) < Some(cpr + 4) {
            return Err(PglError::Config(format!("watermark {:?} below row 1", pool.watermark(0))));
        }
        // Lose a filler page in each column — a header page under the run
        // chunk, data pages under the Large object — and rebuild it on a
        // verified read.
        for (chunk, page_in_chunk) in [(1, 0), (2, 1), (3, 1)] {
            let (oid, want) = filler(pool, chunk);
            let off = l.chunk_base(0, chunk) + page_in_chunk * pgl_nvm::PAGE_SIZE as u64;
            pangolin::inject::poison_page(pool, off / pgl_nvm::PAGE_SIZE as u64)?;
            let mut got = vec![0u8; want.len()];
            pool.read_verified_into(oid, &mut got)?;
            if got != want {
                return Err(PglError::Config(format!("chunk {chunk} rebuilt wrong")));
            }
        }
        if !pool.verify_parity()? {
            return Err(PglError::Config("parity broken after the rebuilds".into()));
        }
        Ok(())
    });
    // Every boundary under AllOld, AllNew and two random plans in the
    // smoke run (~10 s in a debug build); the nightly deep config adds its
    // twelve seeds and the exhaustive line enumeration.
    let mut config = SweepConfig::from_env();
    if !config.deep {
        config.exhaustive_max_lines = 0;
        config.seeds.truncate(2);
    }
    let report = crashcheck::sweep_with(&workload, &config);
    assert_eq!(report.swept, report.boundaries, "every boundary crashed");
}

#[test]
fn crash_then_media_error_still_recovers() {
    // The end-to-end story: crash mid-commit, recover, then lose a page —
    // the recomputed parity must still reconstruct it. This scenario layers
    // a media error on top of the crash, which the sweep driver does not
    // model, so it drives the device directly.
    let cfg = PglConfig::small();
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::precise()).unwrap());
    let pool = PglPool::create(dev.clone(), cfg).unwrap();
    let oid = pool
        .tx(|tx| {
            let oid = tx.alloc(OBJ_SIZE, 1)?;
            tx.write(oid, 0, &[0xAA; OBJ_SIZE as usize])?;
            Ok(oid)
        })
        .unwrap();

    // Count the overwrite's device ops on a scratch run of the same shape.
    let total = {
        let cfg = PglConfig::small();
        let sdev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::precise()).unwrap());
        let spool = PglPool::create(sdev.clone(), cfg).unwrap();
        let soid = spool
            .tx(|tx| {
                let o = tx.alloc(OBJ_SIZE, 1)?;
                tx.write(o, 0, &[0xAA; OBJ_SIZE as usize])?;
                Ok(o)
            })
            .unwrap();
        const BIG: u64 = 1 << 40;
        sdev.arm_crash_after(BIG);
        spool.tx(|tx| tx.write(soid, 0, &[0xBB; OBJ_SIZE as usize])).unwrap();
        let remaining = sdev.crash_countdown();
        sdev.disarm_crash();
        BIG - remaining as u64
    };

    // Crash somewhere in the middle of the commit sequence.
    dev.arm_crash_after(total / 2);
    let _ = panic::catch_unwind(AssertUnwindSafe(|| {
        pool.tx(|tx| tx.write(oid, 0, &[0xBB; OBJ_SIZE as usize]))
    }));
    dev.disarm_crash();
    drop(pool);
    dev.simulate_crash(&mut RandomPlan::seeded(99)).unwrap();
    let pool = PglPool::options().open(dev.clone()).unwrap();
    assert!(pool.verify_parity().unwrap());

    // Now lose the object's page entirely.
    let oid = PMEMoid::new(pool.uuid(), oid.off);
    let page = oid.off / pgl_nvm::PAGE_SIZE as u64;
    dev.poison_page(page).unwrap();
    let data = pool.read_verified(oid).unwrap();
    assert!(
        data.iter().all(|&b| b == 0xAA) || data.iter().all(|&b| b == 0xBB),
        "post-crash parity reconstructs a consistent object"
    );
}

// ---------------------------------------------------------------------
// Harness self-tests: the checker must catch bugs and report them
// reproducibly, and its coverage numbers must hold.
// ---------------------------------------------------------------------

fn tiny_overwrite() -> impl crashcheck::CrashWorkload {
    FnWorkload::new(
        "tiny-overwrite",
        |pool| {
            pool.tx(|tx| {
                let oid = tx.alloc(64, 9)?;
                tx.write(oid, 0, &[0x55; 64])
            })
        },
        |pool, ctx| {
            let oid = find_by_type(pool, 9)?;
            pool.tx(|tx| tx.write(oid, 0, &[0x66; 64]))?;
            ctx.commit_point(pool)
        },
    )
}

#[test]
fn harness_engages_exhaustive_small_model_mode() {
    let config = SweepConfig::smoke();
    let report = crashcheck::sweep_with(&tiny_overwrite(), &config);
    assert_eq!(report.swept, report.boundaries);
    // Base matrix: AllOld + AllNew + one random plan per seed, every
    // boundary; exhaustive combinations come on top.
    let base = report.swept * (2 + config.seeds.len() as u64);
    assert!(report.cases >= base, "{} cases < base matrix {}", report.cases, base);
    assert!(
        report.exhaustive_boundaries > 0,
        "no boundary small enough for exhaustive mode: {report}"
    );
    assert!(report.max_outcome_space >= 2, "outcome space never exceeded one combination");
}

#[test]
fn harness_failure_reports_standalone_reproducible_tuple() {
    // A workload whose verify is deliberately wrong: it rejects the
    // committed outcome. The sweep must fail, and the reported (op, plan)
    // tuple must reproduce the same failure from scratch.
    let broken = FnWorkload::new(
        "deliberately-broken",
        |pool| {
            pool.tx(|tx| {
                let oid = tx.alloc(64, 9)?;
                tx.write(oid, 0, &[0x55; 64])
            })
        },
        |pool, ctx| {
            let oid = find_by_type(pool, 9)?;
            pool.tx(|tx| tx.write(oid, 0, &[0x66; 64]))?;
            ctx.commit_point(pool)
        },
    )
    .with_verify(|_pool, committed| {
        if committed == 1 {
            return Err(PglError::Config("injected oracle bug".into()));
        }
        Ok(())
    });

    let failure = crashcheck::try_sweep(&broken, &SweepConfig::smoke())
        .expect_err("sweep must catch the injected bug");
    assert!(failure.message.contains("injected oracle bug"), "{failure}");

    // The tuple alone reproduces the failure standalone.
    let again = crashcheck::run_case(&broken, failure.op, failure.plan)
        .expect_err("tuple must reproduce standalone");
    assert_eq!(again.op, failure.op);
    assert_eq!(again.plan, failure.plan);
    assert!(again.message.contains("injected oracle bug"), "{again}");

    // And a case the bug does not reach (crash at op 0 under AllOld: the
    // transaction never committed) passes standalone.
    crashcheck::run_case(&broken, 0, PlanSpec::AllOld)
        .expect("op-0 all-old case rolls back and passes");
}

#[test]
fn harness_exhaustive_specs_are_deterministic() {
    // The same (op, plan) tuple must mean the same crash twice in a row —
    // including exhaustive combination indices, which depend on replayed
    // dirty-line state being identical.
    let w = tiny_overwrite();
    for plan in [PlanSpec::AllOld, PlanSpec::AllNew, PlanSpec::Random(7), PlanSpec::Exhaustive(1)] {
        crashcheck::run_case(&w, 2, plan).unwrap_or_else(|f| panic!("{f}"));
        crashcheck::run_case(&w, 2, plan).unwrap_or_else(|f| panic!("{f}"));
    }
}
