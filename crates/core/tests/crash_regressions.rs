//! Crash-sweep regressions for interleavings previously argued only in
//! prose (PR 4/5):
//!
//! * **lazy log invalidation** — a lane's redo log is invalidated by a
//!   flushed-but-unfenced generation bump that only the lane's *next*
//!   transaction fences; a crash in the window must not let recovery
//!   replay a stale log (and replay must be idempotent across
//!   back-to-back commits reusing the lane);
//! * **parity-first Log→Free CM flips** — recovery's orphan-log sweep and
//!   the commit path's log release both flip chunk metadata Log→Free with
//!   the parity patch applied *first*; flipping CM first was PR 4's latent
//!   bug (a crash between the two left parity claiming a Log chunk that
//!   CM already called Free);
//! * **vcache generation coherence** — the DRAM verified-generation cache
//!   must never serve stale bytes after recovery: commits bump the
//!   generation, and detected corruption still repairs online;
//! * **the commit flag behind a lost line** — the flag rides on the log's
//!   last entry, in the same non-temporal span as the entries before it,
//!   so a crash at the commit fence can persist the flagged entry while an
//!   earlier entry's line is lost: nothing may be replayed.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use pangolin::crashcheck::{self, FnWorkload, SweepConfig};
use pangolin::{inject, PMEMoid, PglConfig, PglError, PglPool};
use pgl_nvm::{CrashPoint, DeviceConfig, LineOutcome, MappedPlan, NvmDevice, CACHELINE};
use pgl_pmemobj::lane::{Lanes, LogMirror, LANE_HEADER_SIZE};
use pgl_pmemobj::{ulog, PoolIo};

fn find_by_type(pool: &PglPool, type_num: u32) -> pangolin::Result<PMEMoid> {
    pool.live_objects()?
        .into_iter()
        .find(|(_, h)| h.type_num == type_num)
        .map(|(oid, _)| PMEMoid::new(pool.uuid(), oid.off))
        .ok_or_else(|| PglError::Config(format!("no live object of type {type_num}")))
}

/// Three back-to-back commits from the same thread reuse the same lane, so
/// every crash boundary in commits 2 and 3 falls inside the lazy-
/// invalidation window of the previous commit: the generation bump that
/// retires the old redo log is flushed but only fenced by the next
/// transaction's first drain. The oracle proves recovery never replays a
/// retired log (which would resurrect an earlier pattern or tear the
/// object) at any of those boundaries.
#[test]
fn lazy_log_invalidation_is_replay_idempotent_at_every_boundary() {
    const PATTERNS: [u8; 3] = [0xA1, 0xB2, 0xC3];
    let workload = FnWorkload::new(
        "lazy-log-invalidation",
        |pool| {
            pool.tx(|tx| {
                let oid = tx.alloc(256, 1)?;
                tx.write(oid, 0, &[0x10; 256])
            })
        },
        |pool, ctx| {
            let oid = find_by_type(pool, 1)?;
            for p in PATTERNS {
                pool.tx(|tx| tx.write(oid, 0, &[p; 256]))?;
                ctx.commit_point(pool)?;
            }
            Ok(())
        },
    )
    .with_verify(|pool, committed| {
        // The recovered object must hold exactly the pattern of the
        // surviving commit — a stale-log replay would show an older one.
        let expect = if committed == 0 { 0x10 } else { PATTERNS[committed - 1] };
        let data = pool.read_verified(find_by_type(pool, 1)?)?;
        if !data.iter().all(|&b| b == expect) {
            return Err(PglError::Config(format!(
                "object holds {:#04x}.. instead of commit {committed}'s {expect:#04x}",
                data[0]
            )));
        }
        // The lane must be reusable: a fresh commit after recovery lands
        // cleanly (recovery replay was idempotent, no half-retired log).
        let oid = find_by_type(pool, 1)?;
        pool.tx(|tx| tx.write(oid, 0, &[0xD4; 256]))?;
        let data = pool.read_verified(oid)?;
        if !data.iter().all(|&b| b == 0xD4) {
            return Err(PglError::Config("lane unusable after recovery".into()));
        }
        if !pool.verify_parity()? {
            return Err(PglError::Config("parity broken by post-recovery commit".into()));
        }
        Ok(())
    });

    // Three commits triple the boundary count and every case re-commits in
    // verify; sample every 3rd boundary in the smoke run (the window still
    // gets dozens of hits) and let the nightly deep config sweep them all.
    crashcheck::sweep_with(&workload, &SweepConfig::from_env().sampled(3));
}

/// A transaction whose redo payload (300 × 512 B ≈ 150 KiB) exceeds the
/// 128 KiB lane spills into heap Log chunks. Recovery must sweep the
/// orphans back to Free with the parity patch applied *before* the CM
/// flip; the sweep's per-case `verify_parity` re-pins PR 4's latent
/// CM-first bug at every crash boundary, including those inside the
/// release path at the tail of the commit.
#[test]
fn log_to_free_cm_flips_stay_parity_consistent_across_crashes() {
    const N: usize = 300;
    let workload = FnWorkload::new(
        "log-overflow-cm-flip",
        |pool| {
            for i in 0..N {
                pool.tx(|tx| {
                    let oid = tx.alloc(512, 1)?;
                    tx.write(oid, 0, &[i as u8; 512])
                })?;
            }
            Ok(())
        },
        |pool, ctx| {
            let oids: Vec<PMEMoid> = pool
                .live_objects()?
                .into_iter()
                .map(|(oid, _)| PMEMoid::new(pool.uuid(), oid.off))
                .collect();
            pool.tx(|tx| {
                for oid in &oids {
                    tx.write(*oid, 0, &[0xEE; 512])?;
                }
                Ok(())
            })?;
            ctx.commit_point(pool)
        },
    )
    .with_verify(|pool, _committed| {
        // Overflow chunks must be returned to the heap: allocation still
        // works after any crash point.
        pool.tx(|tx| tx.alloc(1024, 2))?;
        Ok(())
    });

    // The body spans thousands of device ops; crash at ~24 evenly spaced
    // boundaries in the smoke run (the budget stretches 8× nightly). The
    // densest interleavings — parity patch vs CM flip — sit at the commit
    // tail, which the even spacing still lands inside.
    crashcheck::sweep_with(&workload, &SweepConfig::from_env().budget(24));
}

/// After every crash + recovery, the verified-generation cache must stay
/// coherent: repeated verified reads agree, a committed overwrite is
/// immediately visible (generation bump), and software corruption is
/// still detected and repaired online rather than masked by a stale
/// cached generation.
#[test]
fn vcache_generations_stay_coherent_after_recovery() {
    let workload = FnWorkload::new(
        "vcache-coherence",
        |pool| {
            pool.tx(|tx| {
                let oid = tx.alloc(192, 1)?;
                tx.write(oid, 0, &[0x21; 192])
            })
        },
        |pool, ctx| {
            let oid = find_by_type(pool, 1)?;
            pool.tx(|tx| tx.write(oid, 0, &[0x42; 192]))?;
            ctx.commit_point(pool)?;
            pool.tx(|tx| tx.write(oid, 0, &[0x63; 192]))?;
            ctx.commit_point(pool)
        },
    )
    .with_verify(|pool, _committed| {
        let oid = find_by_type(pool, 1)?;
        // Two verified reads in a row: the second is served from the
        // vcache and must agree with the first.
        let first = pool.read_verified(oid)?;
        let cached = pool.read_verified(oid)?;
        if cached != first {
            return Err(PglError::Config("vcache served different bytes".into()));
        }
        // A committed overwrite bumps the generation: the next verified
        // read must see the new bytes, not the cached old generation.
        pool.tx(|tx| tx.write(oid, 0, &[0x7E; 192]))?;
        let fresh = pool.read_verified(oid)?;
        if !fresh.iter().all(|&b| b == 0x7E) {
            return Err(PglError::Config("stale vcache generation after commit".into()));
        }
        // Corruption must still be caught and repaired online — never
        // masked by the cache.
        inject::scribble_object(pool, oid, 16, 32, 0xFF)?;
        let repaired = pool.read_verified(oid)?;
        if !repaired.iter().all(|&b| b == 0x7E) {
            return Err(PglError::Config("scribble not repaired after recovery".into()));
        }
        if !pool.verify_parity()? {
            return Err(PglError::Config("parity broken after online repair".into()));
        }
        Ok(())
    });

    crashcheck::sweep_with(&workload, &SweepConfig::from_env().sampled(2));
}

/// A crash at the commit fence of a two-object overwrite, with every log
/// line persisted except one that lies wholly inside the first entry,
/// while the flagged last entry survives intact. Lost in both log copies,
/// the walk ends at the torn first entry, before the flag, so the log is
/// not committed: recovery replays nothing, and both objects and parity
/// are as before the transaction. Each of the first entry's four lines
/// is lost in turn; under `PGL_DEEP_SWEEP=1` each is also lost in one
/// copy only, where the other copy commits the log and both objects
/// replay.
#[test]
fn a_surviving_commit_flag_behind_a_lost_line_replays_nothing() {
    const SIZE: usize = 256;
    // Entry 1: A's header and bytes (16 + 16 + 256 = 288 B, lines 0..=4);
    // entry 2, flagged: B's, from byte 288 on. Lines 0..=3 hold entry 1
    // only.
    const FIRST_ENTRY_LINES: u64 = 4;
    let deep = std::env::var("PGL_DEEP_SWEEP").as_deref() == Ok("1");
    // Which log copies lose the line: both, or (deep) one of the two.
    let copies: &[[bool; 2]] =
        if deep { &[[true, true], [true, false], [false, true]] } else { &[[true, true]] };
    for (lost, &copy) in (0..FIRST_ENTRY_LINES).flat_map(|l| copies.iter().map(move |c| (l, c))) {
        let case = format!("line {lost} lost in copies {copy:?}");
        let cfg = PglConfig::small();
        let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::precise()).unwrap());
        let pool = PglPool::create(dev.clone(), cfg).unwrap();
        let layout = *pool.layout();
        let (a, b) = pool
            .tx(|tx| {
                let a = tx.alloc(SIZE as u64, 1)?;
                let b = tx.alloc(SIZE as u64, 2)?;
                tx.write(a, 0, &[0x11; SIZE])?;
                tx.write(b, 0, &[0x22; SIZE])?;
                Ok((a, b))
            })
            .unwrap();
        pool.tx(|tx| tx.write(a, 0, &[0x11; SIZE])).unwrap(); // settle the lane

        // Overwrites make no device op before the log: the two log copies
        // are ops 0 and 1, the commit fence op 2.
        dev.arm_crash_after(2);
        let crashed = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.tx(|tx| {
                tx.write(a, 0, &[0x33; SIZE])?;
                tx.write(b, 0, &[0x44; SIZE])
            })
        }));
        dev.disarm_crash();
        match crashed {
            Err(p) if p.downcast_ref::<CrashPoint>().is_some() => {}
            r => panic!("the commit fence did not crash: {:?}", r.map(|r| r.is_ok())),
        }
        drop(pool);

        // The lane whose log lines the crash left dirty.
        let line = |off: u64| off / CACHELINE as u64;
        let choices = dev.dirty_line_choices();
        let dirty = |off: u64| choices.iter().any(|&(l, _)| l == line(off));
        let lane = (0..layout.cfg.n_lanes as u64)
            .find(|&l| dirty(layout.lane_off(l) + LANE_HEADER_SIZE))
            .expect("a lane holds the unfenced log");
        let logs =
            [layout.lane_off(lane), layout.lane_replica_off(lane)].map(|o| o + LANE_HEADER_SIZE);
        assert!(logs.iter().all(|&o| o % CACHELINE as u64 == 0 && dirty(o + 6 * CACHELINE as u64)));
        let mut plan = MappedPlan::new(LineOutcome::New);
        for (log, lose) in logs.into_iter().zip(copy) {
            if lose {
                plan.set(line(log) + lost, LineOutcome::Old);
            }
        }
        dev.simulate_crash(&mut plan).unwrap();

        // On media: the flagged entry intact, behind a torn first entry
        // where the line was lost.
        let io = PoolIo::new(dev.clone());
        let gen = Lanes::read_gen(&io, &layout, lane as u32, LogMirror::SameDevice).unwrap();
        for (log, lose) in logs.into_iter().zip(copy) {
            let mut bytes = vec![0u8; 1024];
            io.read(log, &mut bytes).unwrap();
            assert_eq!(ulog::decode_entry(&bytes, gen).unwrap().is_none(), lose, "{case}");
            let (flagged, _) = ulog::decode_entry(&bytes[288..], gen).unwrap().expect("flagged");
            assert!(flagged.commit && flagged.off == b.off - 16, "{case}");
        }
        let entries =
            Lanes::read_entries(&io, &layout, lane as u32, LogMirror::SameDevice).unwrap();
        let committed = copy != [true, true];
        assert_eq!(ulog::is_committed(&entries), committed, "{case}: {entries:?}");

        let pool = PglPool::options().open(dev).unwrap();
        let (want_a, want_b) = if committed { (0x33, 0x44) } else { (0x11, 0x22) };
        assert_eq!(pool.read_verified(a).unwrap(), vec![want_a; SIZE], "{case}: A");
        assert_eq!(pool.read_verified(b).unwrap(), vec![want_b; SIZE], "{case}: B");
        assert!(pool.verify_parity().unwrap(), "{case}: parity");
        assert!(pool.find_corrupt_objects().unwrap().is_empty(), "{case}");
        let replayed = if committed { "both objects replayed" } else { "nothing replayed" };
        println!("commit flag behind a lost line ({case}): {replayed}");
    }
}
