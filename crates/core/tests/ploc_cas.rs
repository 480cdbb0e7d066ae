//! The detectable-CAS subsystem (`pangolin::ploc`): fast-path cost
//! accounting, vcache invalidation ordering, descriptor retirement
//! semantics, transactional `cas_word`, allocate-and-publish, recovery
//! against hostile descriptor targets, and crash sweeps that exercise
//! every boundary of the two-fence and four-fence protocols — including
//! the window between the descriptor's persist fence and the CAS
//! publication, and a fresh run's format.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use pangolin::crashcheck::{self, FnWorkload, SweepConfig};
use pangolin::{inject, CasOutcome, NewCas, PglConfig, PglError, PglPool, WordCas};
use pgl_nvm::{AllOld, DeviceConfig, NvmDevice};
use pgl_pmemobj::heap::run_slot;
use pgl_pmemobj::PMEMoid;

fn make_pool() -> (PglPool, Arc<NvmDevice>) {
    let cfg = PglConfig::small();
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    (PglPool::create(dev.clone(), cfg).unwrap(), dev)
}

/// Allocates a 24-byte object whose first data word shares a cache line
/// (and therefore a parity line) with the object's header word — the
/// size classes keep 8-byte granularity, so one turns up within a few
/// allocations.
fn alloc_line_sharing_object(pool: &PglPool) -> PMEMoid {
    for _ in 0..64 {
        let oid = pool
            .tx(|tx| {
                let oid = tx.alloc(24, 5)?;
                tx.write(oid, 0, &[0x11u8; 24])?;
                Ok(oid)
            })
            .unwrap();
        let line_pos = oid.off % 64;
        if line_pos >= 8 && line_pos + 8 <= 64 {
            return oid;
        }
    }
    panic!("no allocation placed a data word on the header word's line");
}

#[test]
fn cas_word_applies_durably_and_keeps_checksum_coherent() {
    let (pool, _dev) = make_pool();
    let oid = pool
        .tx(|tx| {
            let oid = tx.alloc(32, 5)?;
            tx.write(oid, 0, &[0xABu8; 32])?;
            Ok(oid)
        })
        .unwrap();
    let old = u64::from_le_bytes([0xAB; 8]);

    assert_eq!(pool.atomic_update(oid, 16, old, 0xDEAD_BEEF, 1).unwrap(), WordCas::Applied);
    // A verified read recomputes the checksum over the bytes on media:
    // it passing proves the delta patch matched the stored word.
    let bytes = pool.read_verified(oid).unwrap();
    assert_eq!(u64::from_le_bytes(bytes[16..24].try_into().unwrap()), 0xDEAD_BEEF);
    assert_eq!(&bytes[..16], &[0xAB; 16]);

    // Mismatch: reports the actual value, changes nothing.
    assert_eq!(
        pool.atomic_update(oid, 16, old, 0x5555, 2).unwrap(),
        WordCas::Mismatch(0xDEAD_BEEF)
    );
    assert_eq!(pool.read_pod::<u64>(oid, 16).unwrap(), 0xDEAD_BEEF);

    assert!(pool.verify_parity().unwrap());
    assert!(pool.find_corrupt_objects().unwrap().is_empty());
}

#[test]
fn cas_word_rejects_bad_ranges() {
    let (pool, _dev) = make_pool();
    let oid = pool.tx(|tx| tx.alloc(16, 5)).unwrap();
    assert!(pool.atomic_update(oid, 4, 0, 1, 1).is_err(), "unaligned offset");
    assert!(pool.atomic_update(oid, 16, 0, 1, 1).is_err(), "word past object end");
    assert!(pool.atomic_load(oid, 4).is_err(), "unaligned load");
}

/// Satellite: the word-CAS fast path costs exactly one parity XOR line
/// (data word and header word share the line here) and performs zero
/// whole-object pre-image reads — the span-guard commit path's costs
/// don't leak in.
#[test]
fn single_word_cas_costs_one_parity_line_and_no_preimage_reads() {
    let (pool, dev) = make_pool();
    let oid = alloc_line_sharing_object(&pool);
    let old = u64::from_le_bytes([0x11; 8]);

    let s0 = dev.stats();
    assert_eq!(pool.atomic_update(oid, 0, old, 0x2222, 3).unwrap(), WordCas::Applied);
    let d = dev.stats().delta_since(&s0);

    assert_eq!(d.fences, 2, "descriptor, then publish");
    // One CAS on the data word, one on the header (type_num, csum) word.
    assert_eq!(d.atomic_cas_ops, 2, "data-word CAS + header-word CAS");
    // Both words sit on one cache line, so one parity line is patched.
    assert_eq!(d.atomic_parity_patches, 1, "exactly one parity line XORed");
    // No whole-object pre-image read (the transactional commit path's
    // signature cost) and no checksum pass on the fast path itself.
    assert_eq!(d.commit_old_reads, 0, "no pre-image reads");
    assert_eq!(d.csum_passes, 0, "no whole-object checksum pass");

    // The patched checksum still verifies.
    let bytes = pool.read_verified(oid).unwrap();
    assert_eq!(u64::from_le_bytes(bytes[..8].try_into().unwrap()), 0x2222);
    assert!(pool.verify_parity().unwrap());
}

/// Satellite: the CAS bumps the object's verified-generation entry
/// *before* the new value becomes visible, so a verified read issued
/// after the CAS can never serve the stale cached verification.
#[test]
fn cas_invalidates_vcache_before_the_store_is_visible() {
    let (pool, dev) = make_pool();
    let oid = pool
        .tx(|tx| {
            let oid = tx.alloc(32, 5)?;
            tx.write(oid, 0, &[0x33u8; 32])?;
            Ok(oid)
        })
        .unwrap();

    // Warm the verified-generation cache and prove it serves hits.
    pool.read_verified(oid).unwrap();
    let s0 = dev.stats();
    pool.read_verified(oid).unwrap();
    assert_eq!(dev.stats().delta_since(&s0).vcache_hits, 1, "cache warm before CAS");

    let old = u64::from_le_bytes([0x33; 8]);
    assert_eq!(pool.atomic_update(oid, 8, old, 0x4444, 4).unwrap(), WordCas::Applied);

    // The read after the CAS must re-verify (miss), not trust the stale
    // generation — and must see the new value.
    let s1 = dev.stats();
    let bytes = pool.read_verified(oid).unwrap();
    let d = dev.stats().delta_since(&s1);
    assert_eq!(d.vcache_hits, 0, "generation bumped: no stale cache hit");
    assert!(d.csum_passes >= 1, "the post-CAS read re-verified the object");
    assert_eq!(u64::from_le_bytes(bytes[8..16].try_into().unwrap()), 0x4444);
}

#[test]
fn degenerate_cas_touches_no_device_state() {
    let (pool, dev) = make_pool();
    let oid = pool
        .tx(|tx| {
            let oid = tx.alloc(16, 5)?;
            tx.write(oid, 0, &7u64.to_le_bytes())?;
            Ok(oid)
        })
        .unwrap();
    let s0 = dev.stats();
    // expected == new: nothing would change, so nothing persists.
    assert_eq!(pool.atomic_update(oid, 0, 7, 7, 5).unwrap(), WordCas::Applied);
    assert_eq!(pool.atomic_update(oid, 0, 9, 9, 6).unwrap(), WordCas::Mismatch(7));
    let d = dev.stats().delta_since(&s0);
    assert_eq!(d.atomic_cas_ops, 0);
    assert_eq!(d.atomic_parity_patches, 0);
}

/// Descriptor lifecycle: a successful CAS leaves its descriptor prepared
/// (replay re-reports it, harmlessly and idempotently, as `Completed`),
/// while a failed CAS retires its descriptor with a fence so replay can
/// never promote the mismatch into a completion.
#[test]
fn descriptor_retirement_decides_replay_reports() {
    let (pool, dev) = make_pool();
    let oid = pool
        .tx(|tx| {
            let oid = tx.alloc(16, 5)?;
            tx.write(oid, 0, &1u64.to_le_bytes())?;
            Ok(oid)
        })
        .unwrap();

    // Failed CAS first (its retired descriptor is then overwritten by the
    // successful one — same thread, same preferred lane).
    assert_eq!(pool.atomic_update(oid, 0, 99, 100, 8).unwrap(), WordCas::Mismatch(1));
    assert_eq!(pool.atomic_update(oid, 0, 1, 2, 7).unwrap(), WordCas::Applied);

    drop(pool);
    let pool = PglPool::options().open(dev).unwrap();
    let reports = pool.cas_recoveries();
    assert!(
        reports.iter().any(|r| r.tag == 7 && r.outcome == CasOutcome::Completed),
        "the completed operation's descriptor replays as Completed: {reports:?}"
    );
    assert!(
        !reports.iter().any(|r| r.tag == 8),
        "the failed operation's descriptor was retired: {reports:?}"
    );
    assert_eq!(pool.read_pod::<u64>(oid, 0).unwrap(), 2);
    assert!(pool.verify_parity().unwrap());
    assert!(pool.find_corrupt_objects().unwrap().is_empty());
}

#[test]
fn tx_cas_word_is_immediate_and_rejects_buffered_objects() {
    let (pool, _dev) = make_pool();
    let oid = pool
        .tx(|tx| {
            let oid = tx.alloc(16, 5)?;
            tx.write(oid, 0, &10u64.to_le_bytes())?;
            Ok(oid)
        })
        .unwrap();

    // A CAS on an object this transaction has buffered would bypass the
    // micro-buffer (lost-update): rejected.
    let err = pool.tx(|tx| {
        tx.write(oid, 8, &5u64.to_le_bytes())?;
        tx.cas_word(oid, 0, 10, 11, 9)
    });
    assert!(matches!(err, Err(PglError::Config(_))), "buffered target must be rejected: {err:?}");

    // cas_word takes effect immediately — even if the transaction later
    // aborts, the CAS is durable (it is not undone by the redo log).
    let res: Result<(), PglError> = pool.tx(|tx| {
        assert_eq!(tx.cas_word(oid, 0, 10, 12, 10)?, WordCas::Applied);
        Err(PglError::unrecoverable("deliberate abort"))
    });
    assert!(res.is_err());
    assert_eq!(pool.read_pod::<u64>(oid, 0).unwrap(), 12);
    assert!(pool.verify_parity().unwrap());
    assert!(pool.find_corrupt_objects().unwrap().is_empty());
}

/// Bare-CAS crash sweep: four detectable CASes on the root object, a
/// commit point after each, crashed at every device-op boundary — which
/// includes the window between descriptor persist and CAS publication.
/// Recovery must report each in-flight tag as completed or rolled back,
/// never promote the deliberate mismatch, and leave checksum and parity
/// coherent (the harness checks those).
#[test]
fn bare_cas_survives_crash_sweep() {
    // (word index, expected, new, must_mismatch)
    const OPS: [(u64, u64, u64, bool); 4] =
        [(0, 0, 5, false), (1, 0, 7, false), (0, 5, 9, false), (2, 1, 3, true)];

    let w = FnWorkload::new(
        "bare-cas",
        |pool| {
            pool.root(32, 91)?;
            Ok(())
        },
        |pool, ctx| {
            let root = pool.root(32, 91)?;
            for (i, (word, expected, new, must_mismatch)) in OPS.iter().enumerate() {
                let res = pool.atomic_update(root, word * 8, *expected, *new, (i + 1) as u64)?;
                assert_eq!(!res.is_applied(), *must_mismatch, "op {i}");
                ctx.commit_point(pool)?;
            }
            Ok(())
        },
    )
    .with_verify(|pool, committed| {
        let root = pool.root(32, 91)?;
        let mut words = [0u64; 4];
        for (i, (word, _, new, must_mismatch)) in OPS.iter().enumerate() {
            let tag = (i + 1) as u64;
            let applied = if i < committed {
                !*must_mismatch
            } else {
                // The in-flight op: recovery's report decides. A mismatch
                // must never be promoted to Completed.
                let completed = pool
                    .cas_recoveries()
                    .iter()
                    .any(|r| r.tag == tag && r.outcome == CasOutcome::Completed);
                if completed && *must_mismatch {
                    return Err(PglError::unrecoverable(format!(
                        "mismatch op {i} promoted to Completed by replay"
                    )));
                }
                completed
            };
            if applied {
                words[*word as usize] = *new;
            }
            if i >= committed {
                break;
            }
        }
        let bytes = pool.read_verified(root)?;
        for (w, expect) in words.iter().enumerate() {
            let got = u64::from_le_bytes(bytes[w * 8..w * 8 + 8].try_into().unwrap());
            if got != *expect {
                return Err(PglError::unrecoverable(format!(
                    "word {w} after {committed} commits: got {got}, expected {expect}"
                )));
            }
        }
        Ok(())
    });
    crashcheck::sweep_with(&w, &SweepConfig::from_env().budget(16));
}

/// A 16-byte `[a, b]` node.
fn node(a: u64, b: u64) -> Vec<u8> {
    [a.to_le_bytes(), b.to_le_bytes()].concat()
}

fn applied(r: NewCas) -> PMEMoid {
    match r {
        NewCas::Applied(oid) => oid,
        NewCas::Mismatch(cur) => panic!("publish mismatched against {cur:#x}"),
    }
}

fn live_offsets(pool: &PglPool) -> Vec<u64> {
    pool.live_objects().unwrap().iter().map(|(oid, _)| oid.off).collect()
}

/// An allocating publish into an existing run costs exactly four fences
/// and writes, non-temporally, the node and one allocator bitmap word —
/// no redo log. The node reads back verified and parity holds.
#[test]
fn publish_new_costs_four_fences_and_no_redo_log() {
    let (pool, dev) = make_pool();
    let root = pool.root(16, 91).unwrap();
    let first = applied(pool.atomic_publish_new(root, 0, 0, 7, &node(0, 1), 1).unwrap());

    let s0 = dev.stats();
    let second =
        applied(pool.atomic_publish_new(root, 0, first.off, 7, &node(first.off, 2), 2).unwrap());
    let d = dev.stats().delta_since(&s0);

    assert_eq!(d.fences, 4, "descriptor, node, publish, allocator bit");
    assert_eq!(d.bytes_written_nt, 16 + 16 + 8, "header + content, then the bitmap word");
    assert_eq!(d.atomic_cas_ops, 2, "target word + its header word");
    assert_eq!(pool.atomic_load(root, 0).unwrap(), second.off);
    assert_eq!(pool.read_verified(second).unwrap(), node(first.off, 2));
    let live = live_offsets(&pool);
    assert!(live.contains(&first.off) && live.contains(&second.off));
    assert!(pool.verify_parity().unwrap());
    assert!(pool.find_corrupt_objects().unwrap().is_empty());
}

/// Allocate-and-publish's construction, pinned with the rest of the
/// call: the node's 32 bytes (header + content) are stored
/// non-temporally behind a pre-image read of the slot under one stripe
/// guard, like every protected write.
#[test]
fn publish_new_construction_reads_its_slot_once() {
    let (pool, dev) = make_pool();
    let root = pool.root(16, 91).unwrap();
    let first = applied(pool.atomic_publish_new(root, 0, 0, 7, &node(0, 1), 1).unwrap());
    let s0 = dev.stats();
    applied(pool.atomic_publish_new(root, 0, first.off, 7, &node(first.off, 2), 2).unwrap());
    let d = dev.stats().delta_since(&s0);
    assert_eq!(d.fences, 4, "descriptor, node, publish, allocator bit");
    // The target's header (16), the node slot's pre-image (32) and the
    // bitmap word (8).
    assert_eq!((d.read_ops, d.bytes_read), (3, 16 + 32 + 8));
    assert_eq!(d.bytes_written_nt, 32 + 8, "the node, then the bitmap word");
}

/// A publish whose compare fails allocates nothing: the reserved slot
/// stays free on media, the descriptor retires (a third fence), parity
/// holds and no reopen resurrects the node.
#[test]
fn publish_new_mismatch_leaves_the_slot_free() {
    let (pool, dev) = make_pool();
    let root = pool.root(16, 91).unwrap();
    let first = applied(pool.atomic_publish_new(root, 0, 0, 7, &node(0, 1), 1).unwrap());
    let live = live_offsets(&pool);

    let s0 = dev.stats();
    let r = pool.atomic_publish_new(root, 0, 0, 7, &node(0, 2), 2).unwrap();
    let d = dev.stats().delta_since(&s0);
    assert_eq!(r, NewCas::Mismatch(first.off));
    assert_eq!(d.fences, 3, "descriptor, node, retirement");
    assert_eq!(live_offsets(&pool), live);
    assert!(pool.verify_parity().unwrap());

    drop(pool);
    let pool = PglPool::options().open(dev).unwrap();
    assert_eq!(live_offsets(&pool), live);
    assert!(!pool.cas_recoveries().iter().any(|r| r.tag == 2), "the mismatch retired");
    assert!(pool.verify_parity().unwrap());
    assert!(pool.find_corrupt_objects().unwrap().is_empty());
}

/// A node whose link is durable but whose allocator bit is not (a crash
/// between the publish and the bit) is allocated by replay.
#[test]
fn replay_allocates_a_linked_node_whose_bit_is_clear() {
    let (pool, dev) = make_pool();
    let root = pool.root(16, 91).unwrap();
    let n = applied(pool.atomic_publish_new(root, 0, 0, 7, &node(0, 5), 1).unwrap());
    let slot = run_slot(pool.io(), pool.layout(), n.off).expect("a run block");
    let w = pool.io().read_u64(slot.bit_word).unwrap();
    inject::scribble_raw(&pool, slot.bit_word, &(w & !slot.mask).to_le_bytes()).unwrap();
    assert!(!live_offsets(&pool).contains(&n.off));

    drop(pool);
    let pool = PglPool::options().open(dev).unwrap();
    let report = pool.cas_recoveries().iter().find(|r| r.tag == 1).copied();
    assert_eq!(report.map(|r| r.outcome), Some(CasOutcome::Completed));
    assert!(live_offsets(&pool).contains(&n.off));
    assert_eq!(pool.read_verified(n).unwrap(), node(0, 5));
    assert!(pool.verify_parity().unwrap(), "replay recomputed the bitmap word's parity");
}

/// Two linkers race on one word. A's publish of `N` stops after its CAS
/// and before its allocator bit (a crash point fires in A alone), and B,
/// on another thread, links `M` past it (`M.next = N`) to completion;
/// then the machine crashes. Replay rolls A back, its word having moved
/// on, so `N` is still allocated only if B made `N`'s bit durable before
/// its own CAS. Every boundary of A's window is tried.
#[test]
fn linking_past_an_unallocated_node_makes_its_bit_durable() {
    let cfg = PglConfig::small();
    let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::precise()).unwrap());
    let pool = PglPool::create(dev.clone(), cfg).unwrap();
    let root = pool.root(16, 91).unwrap();
    let p = applied(pool.atomic_publish_new(root, 0, 0, 7, &node(0, 1), 1).unwrap());
    drop(pool);
    let base = dev.snapshot();

    let mut windows = 0;
    for k in 0.. {
        dev.restore(&base).unwrap();
        let pool = PglPool::options().open(dev.clone()).unwrap();
        dev.arm_crash_after(k);
        let a = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.atomic_publish_new(root, 0, p.off, 7, &node(p.off, 2), 2)
        }));
        dev.disarm_crash();
        if let Ok(r) = a {
            applied(r.unwrap());
            break;
        }
        let n = pool.atomic_load(root, 0).unwrap();
        if n == p.off {
            continue; // A's CAS has not taken effect
        }
        let slot = run_slot(pool.io(), pool.layout(), n).expect("a run block");
        if pool.io().read_u64(slot.bit_word).unwrap() & slot.mask != 0 {
            continue; // A's bit is set: past the window
        }
        windows += 1;
        let b = pool.clone();
        let m = std::thread::spawn(move || b.atomic_publish_new(root, 0, n, 7, &node(n, 3), 3))
            .join()
            .unwrap();
        let m = applied(m.unwrap());
        drop(pool);
        dev.simulate_crash(&mut AllOld).unwrap();

        let pool = PglPool::options().open(dev.clone()).unwrap();
        assert_eq!(pool.atomic_load(root, 0).unwrap(), m.off, "boundary {k}");
        let live = live_offsets(&pool);
        assert!(live.contains(&n), "boundary {k}: the linked node {n:#x} was freed");
        assert!(live.contains(&m.off), "boundary {k}");
        assert!(pool.verify_parity().unwrap(), "boundary {k}");
        assert!(pool.find_corrupt_objects().unwrap().is_empty(), "boundary {k}");
        let fresh = applied(pool.atomic_publish_new(root, 8, 0, 7, &node(0, 4), 4).unwrap());
        assert!(!live.contains(&fresh.off), "boundary {k}: allocated {:#x} twice", fresh.off);
    }
    assert!(windows > 0, "no boundary fell between A's CAS and its bit");
}

#[test]
fn publish_new_refuses_what_no_run_block_holds() {
    let (pool, _dev) = make_pool();
    let root = pool.root(16, 91).unwrap();
    let big = vec![0u8; pool.layout().cfg.chunk_size];
    let r = pool.atomic_publish_new(root, 0, 0, 7, &big, 1);
    assert!(matches!(r, Err(PglError::Config(_))), "{r:?}");
    assert_eq!(pool.atomic_load(root, 0).unwrap(), 0);
}

/// Allocate-and-publish crash sweep: the first publish needs a fresh run
/// (its 128-byte class has none yet), so the sweep crashes inside the
/// run's format commit and watermark raise as well as inside the four
/// fences; then a publish into that run, a mismatch, and a plain CAS.
/// Recovery must land on a committed state (the harness checks live
/// objects, bytes, checksums and parity), never promote the mismatch,
/// and leave the allocator able to hand out a block no live node holds.
#[test]
fn publish_new_survives_crash_sweep() {
    let w = FnWorkload::new(
        "publish-new",
        |pool| {
            pool.root(32, 91)?;
            Ok(())
        },
        |pool, ctx| {
            let root = pool.root(32, 91)?;
            let a = applied(pool.atomic_publish_new(root, 0, 0, 7, &[0xA1; 100], 1)?);
            let chunk = |off| pool.layout().chunk_of(off).expect("heap offset").1;
            assert_ne!(chunk(a.off), chunk(root.off), "the first node formats a run of its own");
            ctx.commit_point(pool)?;
            applied(pool.atomic_publish_new(root, 8, 0, 7, &[0xB2; 100], 2)?);
            ctx.commit_point(pool)?;
            let r = pool.atomic_publish_new(root, 0, 0, 7, &[0xC3; 100], 3)?;
            assert_eq!(r, NewCas::Mismatch(a.off));
            ctx.commit_point(pool)?;
            assert!(pool.atomic_update(root, 16, 0, 9, 4)?.is_applied());
            ctx.commit_point(pool)?;
            Ok(())
        },
    )
    .with_verify(|pool, committed| {
        for r in pool.cas_recoveries() {
            let done = r.outcome == CasOutcome::Completed;
            if done && (r.tag == 3 || r.tag as usize > committed) {
                return Err(PglError::unrecoverable(format!(
                    "tag {} reported Completed after {committed} commits",
                    r.tag
                )));
            }
        }
        let root = pool.root(32, 91)?;
        let live = live_offsets(pool);
        match pool.atomic_publish_new(root, 24, 0, 7, &[0xD4; 100], 99)? {
            NewCas::Applied(n) if !live.contains(&n.off) => Ok(()),
            r => Err(PglError::unrecoverable(format!("allocator after recovery: {r:?}"))),
        }
    });
    crashcheck::sweep_with(&w, &SweepConfig::from_env().budget(24));
}

/// A lingering descriptor whose target object's header `size` is
/// scribbled to nonsense: replay must neither overflow, allocate nor read
/// past the device end by that media word, and must not fold a checksum
/// over bytes that are not the object's. The pool reopens, serves, and the
/// header is repaired from parity at first touch.
#[test]
fn hostile_object_size_under_a_lingering_descriptor_is_bounded() {
    let dev_len = PglConfig::small().pool.size as u64;
    for case in 0..4 {
        let (pool, dev) = make_pool();
        let layout = *pool.layout();
        let max = layout.max_alloc();
        // The last case parks the target behind a filler object, far
        // enough in that `max_alloc` bytes from it run off the device.
        let filler = (case == 3)
            .then(|| dev_len - max - layout.chunk_base(0, 1) + layout.cfg.chunk_size as u64);
        let (target, other) = pool
            .tx(|tx| {
                if let Some(len) = filler {
                    tx.alloc(len, 4)?;
                }
                let a = tx.alloc(16, 5)?;
                tx.write(a, 0, &1u64.to_le_bytes())?;
                let b = tx.alloc(16, 5)?;
                tx.write(b, 0, &[0x42; 16])?;
                Ok((a, b))
            })
            .unwrap();
        assert!(pool.atomic_update(target, 0, 1, 2, 7).unwrap().is_applied());
        let size = match case {
            0 => u64::MAX,
            1 => dev_len,
            // The rest of the device: in bounds, far too big.
            2 => dev_len - target.off,
            // No larger than an allocation, but past the device end.
            _ => max,
        };
        assert!(size > max || target.off + size > dev_len, "case {case}");
        inject::scribble_raw(&pool, target.header_off(), &size.to_le_bytes()).unwrap();
        drop(pool);

        let pool = PglPool::options().open(dev).unwrap();
        let report = pool.cas_recoveries().iter().find(|r| r.tag == 7).copied();
        assert_eq!(report.map(|r| r.outcome), Some(CasOutcome::Completed), "size {size:#x}");
        assert_eq!(pool.read_verified(other).unwrap(), [0x42; 16]);
        pool.tx(|tx| tx.write(other, 0, &[0x43; 8])).unwrap();
        let mut want = 2u64.to_le_bytes().to_vec();
        want.extend([0; 8]);
        assert_eq!(pool.read_verified(target).unwrap(), want, "size {size:#x}");
        assert!(pool.quarantined_zones().is_empty());
        assert!(pool.verify_parity().unwrap());
    }
}
