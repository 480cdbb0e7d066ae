//! Seeded fault-storm soak: concurrent live transactions, a deterministic
//! [`pangolin::inject::FaultStorm`] firing media errors and scribbles at
//! live objects, and per-shard background scrub threads self-healing in
//! the gaps. The degraded-mode acceptance criteria:
//!
//! * the soak ends with the parity invariant clean everywhere outside
//!   quarantined zones;
//! * zero acked-write loss across close → reopen — every committed value
//!   either reads back verified or its zone is quarantined and the read
//!   fails with a **typed** [`PglError::Unrecoverable`], never a panic or
//!   a hang;
//! * the background scrubbers performed at least one online repair,
//!   observed through the device's [`DeviceStats`] counters.
//!
//! The storm is zone-filtered to the shard the writers do **not** touch:
//! faults land on cold objects (the paper's §4.6 methodology), so every
//! scribble is either repaired from parity or escalates to quarantine.
//! A scribble racing the victim's own overwrite sits in the documented
//! verified-read exposure window (see [`pangolin::inject`]) where silent
//! corruption can be folded into the parity delta — real storms model
//! media decay on data at rest, not wild stores racing the write path.
//!
//! Under `PGL_DEEP_SWEEP=1` (the nightly job) the soak runs ten times
//! the storm budget and a second seed.
//!
//! [`DeviceStats`]: pgl_nvm::stats::DeviceStats

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pangolin::crashcheck::SweepConfig;
use pangolin::inject::{self, FaultPlan, FaultStorm};
use pangolin::{PMEMoid, PglError, PglPool};
use pgl_nvm::{DeviceConfig, NvmDevice};

const OBJ_SIZE: u64 = 2048;
const OBJS_PER_SHARD: usize = 12;
const SHARDS: usize = 2;
const SETUP_FILL: u8 = 0x42;

/// Builds the soak pool: two parity shards, background scrub on a fast
/// cadence so self-healing races the storm.
fn soak_pool(dev: &Arc<NvmDevice>) -> PglPool {
    PglPool::options()
        .size(16 << 20)
        .zone_size(2 << 20)
        .shards(SHARDS)
        .background_scrub(true)
        .scrub_interval_ms(10)
        .create(Arc::clone(dev))
        .unwrap()
}

/// Allocates the working set: `OBJS_PER_SHARD` objects pinned to each
/// shard via thread→shard affinity, all filled with [`SETUP_FILL`].
fn working_set(pool: &PglPool) -> Vec<Vec<PMEMoid>> {
    let mut per_shard = Vec::new();
    for shard in 0..pool.shards() {
        pool.bind_thread_to_shard(shard);
        let mut oids = Vec::new();
        for i in 0..OBJS_PER_SHARD {
            oids.push(
                pool.tx(|tx| {
                    let o = tx.alloc(OBJ_SIZE, (shard * OBJS_PER_SHARD + i) as u32 + 1)?;
                    tx.write(o, 0, &[SETUP_FILL; OBJ_SIZE as usize])?;
                    Ok(o)
                })
                .unwrap(),
            );
        }
        per_shard.push(oids);
    }
    pool.unbind_thread_from_shard();
    per_shard
}

/// A writer loop pinned to shard 0: round-robin overwrites of its slice of
/// objects with an ascending fill byte, recording the last acked value per
/// object. The storm never targets this shard's zones, so every commit
/// must stick — any error here fails the soak.
fn writer_loop(
    pool: &PglPool,
    oids: &[PMEMoid],
    stop: &AtomicBool,
) -> pangolin::Result<HashMap<u64, u8>> {
    pool.bind_thread_to_shard(0);
    let mut acked = HashMap::new();
    let mut round: u8 = 0;
    while !stop.load(Ordering::Relaxed) {
        round = round.wrapping_add(1);
        let fill = round | 0x80; // never collides with the setup fill
        for &oid in oids {
            pool.tx(|tx| tx.write(oid, 0, &[fill; OBJ_SIZE as usize]))?;
            acked.insert(oid.off, fill);
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    pool.unbind_thread_from_shard();
    Ok(acked)
}

/// Scrubs until a pass finds nothing left to repair (each pass may fence
/// newly discovered double faults into quarantine first).
fn scrub_until_stable(pool: &PglPool) {
    for _ in 0..8 {
        let r = pool.scrub_now().unwrap();
        if r.objects_repaired == 0 && r.pages_repaired == 0 {
            return;
        }
    }
    panic!("scrub did not converge in 8 passes");
}

/// Asserts every acked value survived: verified read-back of `expect[off]`,
/// or a typed unrecoverable error locating a quarantined zone.
fn assert_acked_writes(pool: &PglPool, expect: &HashMap<u64, u8>) {
    let q = pool.quarantined_zones();
    for (&off, &fill) in expect {
        let oid = PMEMoid::new(pool.uuid(), off);
        match pool.read_verified(oid) {
            Ok(data) => {
                assert_eq!(data, vec![fill; OBJ_SIZE as usize], "acked write lost at {off:#x}");
            }
            Err(PglError::Unrecoverable { zone, .. }) => {
                assert!(q.contains(&zone), "unrecoverable {off:#x} outside quarantine: {q:?}");
            }
            Err(e) => panic!("untyped failure reading acked object {off:#x}: {e}"),
        }
    }
}

#[test]
fn seeded_fault_storm_soak_self_heals_and_loses_no_acked_write() {
    if SweepConfig::from_env().deep {
        soak(0xDEAD_BEEF_0042, 800);
        soak(0xDEAD_BEEF_0043, 800);
    } else {
        soak(0xDEAD_BEEF_0042, 80);
    }
}

/// One soak: `max_events` storm events drawn from `seed`.
fn soak(seed: u64, max_events: u64) {
    let dev = Arc::new(NvmDevice::new(16 << 20, DeviceConfig::fast()).unwrap());
    let pool = soak_pool(&dev);
    let sets = working_set(&pool);
    let storm_zone = {
        let (z, _) = pool.layout().zone_and_rel(sets[1][0].off).unwrap();
        z
    };
    let (hot, cold) = (&sets[0], &sets[1]);
    // The single-writer rule: two writer threads, disjoint object slices.
    let (left, right) = hot.split_at(hot.len() / 2);

    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = [left.to_vec(), right.to_vec()]
        .into_iter()
        .map(|oids| {
            let pool = pool.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || writer_loop(&pool, &oids, &stop))
        })
        .collect();

    // The storm fires only at the cold shard's zone while the hot shard
    // keeps committing — degraded-mode isolation under live traffic.
    let storm = FaultStorm::launch(
        &pool,
        FaultPlan {
            seed,
            max_events,
            mean_gap: Duration::from_micros(800),
            poison_per_mille: 250,
            zones: Some(vec![storm_zone]),
            ..FaultPlan::default()
        },
    );
    let deadline = Instant::now() + Duration::from_secs(30);
    while !storm.is_done() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let report = storm.stop();
    stop.store(true, Ordering::Relaxed);
    let mut acked = HashMap::new();
    for w in writers {
        let log = w.join().unwrap().expect("writer on storm-free shard must never fail");
        acked.extend(log);
    }
    assert_eq!(acked.len(), hot.len(), "every hot object acked at least one overwrite");
    assert!(report.injected() > 0, "storm injected nothing: {report:?}");
    let stats = dev.stats();
    assert_eq!(stats.poison_injected, report.poisons, "device poison counter matches report");
    assert!(stats.scribbles_injected >= report.scribbles, "scribble counter tracks report");

    // Provoke one guaranteed self-heal: scribble a hot object after the
    // writers stop and let the *background* scrubbers repair it — no
    // foreground read does the work.
    let (&heal_off, &heal_fill) = acked.iter().next().unwrap();
    let heal_oid = PMEMoid::new(pool.uuid(), heal_off);
    let before = dev.stats().total_scrub_repairs();
    inject::scribble_object(&pool, heal_oid, 16, 64, 0xEE).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while dev.stats().total_scrub_repairs() == before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        dev.stats().total_scrub_repairs() > before,
        "background scrub never repaired the planted scribble"
    );
    assert!(pool.scrub_totals().shard_passes > 0, "no background pass completed");
    assert_eq!(
        pool.read_verified(heal_oid).unwrap(),
        vec![heal_fill; OBJ_SIZE as usize],
        "self-healed object must read back the acked value"
    );

    // Drain remaining detectable damage, then the invariant must hold
    // everywhere outside quarantine.
    scrub_until_stable(&pool);
    assert_eq!(
        pool.verify_parity_detailed().unwrap(),
        vec![],
        "parity dirty outside quarantined zones after soak"
    );
    // Cold objects: setup fill survives the storm, or the loss is typed
    // and the zone is fenced.
    let cold_expect: HashMap<u64, u8> = cold.iter().map(|o| (o.off, SETUP_FILL)).collect();
    assert_acked_writes(&pool, &acked);
    assert_acked_writes(&pool, &cold_expect);

    // Close → reopen: quarantine persists, acked writes still all
    // accounted for, and the pool serves fresh traffic.
    let quarantined = pool.quarantined_zones();
    drop(pool);
    let pool = PglPool::options().shards(SHARDS).open(dev.clone()).unwrap();
    assert_eq!(pool.quarantined_zones(), quarantined, "quarantine set survived reopen");
    assert_eq!(pool.verify_parity_detailed().unwrap(), vec![]);
    assert_acked_writes(&pool, &acked);
    assert_acked_writes(&pool, &cold_expect);
    pool.tx(|tx| {
        let o = tx.alloc(OBJ_SIZE, 999)?;
        tx.write(o, 0, &[0x77; OBJ_SIZE as usize])
    })
    .unwrap();
}
