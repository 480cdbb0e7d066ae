//! Exhaustive crash-point sweep of the **ordered two-shard commit
//! protocol** (sharded parity domains).
//!
//! A transaction that touches two parity shards commits in a fixed order:
//! the secondary shard's lane persists its redo entries *without* a
//! commit record, then the primary lane persists `CrossShard` markers
//! plus its own `Commit` (the commit point), and only then does the
//! secondary receive its `Commit` record. The window between the first
//! and second commit fences is exactly where a naive design tears: the
//! primary says "committed" while the secondary's lane still looks
//! uncommitted. Recovery closes it by rolling the secondary forward iff
//! the primary's `CrossShard(lane, gen)` marker still matches the
//! secondary lane's live generation.
//!
//! The sweep crashes at **every device-operation boundary** — which
//! necessarily includes each point inside that window — and the oracle
//! plus the verify hook require the recovered state to be all-old or
//! all-new across *both* shards, never a mix.

use pangolin::crashcheck::{self, FnWorkload, SweepConfig};
use pangolin::{PMEMoid, PglConfig, PglError, PglPool};

const OBJ_SIZE: u64 = 192;

/// Finds the single live object with `type_num`.
fn find_by_type(pool: &PglPool, type_num: u32) -> pangolin::Result<PMEMoid> {
    pool.live_objects()?
        .into_iter()
        .find(|(_, h)| h.type_num == type_num)
        .map(|(oid, _)| PMEMoid::new(pool.uuid(), oid.off))
        .ok_or_else(|| PglError::Config(format!("no live object of type {type_num}")))
}

/// A two-shard geometry: 16 MiB pool with 4 MiB zones gives several heap
/// zones, routed over two parity shards.
fn two_shard_config() -> PglConfig {
    let mut cfg = PglConfig::small();
    cfg.pool.size = 16 << 20;
    cfg.shards = 2;
    cfg
}

#[test]
fn cross_shard_commit_atomic_at_every_crash_point() {
    let workload = FnWorkload::new(
        "cross-shard-commit",
        |pool| {
            // One object pinned in each shard, so the overwrite below is
            // forced through the two-lane ordered commit.
            for shard in 0..2u32 {
                pool.bind_thread_to_shard(shard as usize);
                pool.tx(|tx| {
                    let oid = tx.alloc(OBJ_SIZE, shard + 1)?;
                    tx.write(oid, 0, &[0x11 * (shard as u8 + 1); OBJ_SIZE as usize])
                })?;
            }
            pool.unbind_thread_from_shard();
            let a = find_by_type(pool, 1)?;
            let b = find_by_type(pool, 2)?;
            let (sa, sb) =
                (pool.shard_map().shard_of_off(a.off), pool.shard_map().shard_of_off(b.off));
            if sa == sb {
                return Err(PglError::Config(format!(
                    "setup failed to split objects across shards ({sa}, {sb})"
                )));
            }
            Ok(())
        },
        |pool, ctx| {
            // The shard count is an open-time option: a harness that
            // reopened unsharded would sweep a single-lane commit and
            // never enter the inter-fence window.
            if pool.shards() != 2 {
                return Err(PglError::Config(format!("body runs on {} shard(s)", pool.shards())));
            }
            let a = find_by_type(pool, 1)?;
            let b = find_by_type(pool, 2)?;
            pool.tx(|tx| {
                tx.write(a, 0, &[0xAA; OBJ_SIZE as usize])?;
                tx.write(b, 0, &[0xBB; OBJ_SIZE as usize])
            })?;
            ctx.commit_point(pool)
        },
    )
    .with_config(two_shard_config())
    .with_verify(|pool, _committed| {
        // The oracle already checked recovered bytes against the
        // snapshot model; pin the cross-shard pairing explicitly: A and
        // B must be on the same side of the commit point.
        let a = pool.read_verified(find_by_type(pool, 1)?)?;
        let b = pool.read_verified(find_by_type(pool, 2)?)?;
        let a_new = a.iter().all(|&x| x == 0xAA);
        let b_new = b.iter().all(|&x| x == 0xBB);
        let a_old = a.iter().all(|&x| x == 0x11);
        let b_old = b.iter().all(|&x| x == 0x22);
        if !((a_old && b_old) || (a_new && b_new)) {
            return Err(PglError::Config(format!(
                "cross-shard tear: A {} / B {}",
                if a_new { "new" } else { "old/torn" },
                if b_new { "new" } else { "old/torn" },
            )));
        }
        Ok(())
    });

    // Three mirrored log persists bracket the inter-fence window —
    // secondary entries, primary markers + commit, secondary seal, each two
    // NT spans and a fence — before two protected write-backs and two
    // lanes' invalidation: 26 boundaries in all. A single-lane commit of
    // the same two writes is 15, so more than that can only be the
    // two-lane protocol.
    let report = crashcheck::sweep_with(&workload, &SweepConfig::from_env().sampled(2));
    assert!(report.boundaries > 15, "not a two-lane commit: {} ops", report.boundaries);
}
