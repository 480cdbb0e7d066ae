//! Key-value workload drivers: the insert/remove/lookup loops behind
//! Figures 5 and 6, the transaction-size instrumentation behind Table 3,
//! and the multi-threaded driver behind the Figure 9 scaling runs.
//!
//! The concurrent driver follows the paper's concurrency rule (§3.4): the
//! *pool* is shared by all threads (one [`Store`] handle each), but no two
//! threads transact on the same *object* — each thread drives its own map
//! over its own key partition.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pgl_pmemobj::TxStats;

use crate::maps::PersistentMap;
use crate::store::{KvResult, Store};

/// Aggregated per-operation statistics for one workload phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseStats {
    /// Operations performed.
    pub ops: u64,
    /// Wall-clock seconds.
    pub secs: f64,
    /// Accumulated transaction counters.
    pub tx: TxStats,
}

impl PhaseStats {
    /// Operations per second.
    pub fn ops_per_sec(&self) -> f64 {
        if self.secs > 0.0 {
            self.ops as f64 / self.secs
        } else {
            0.0
        }
    }

    /// Average allocated bytes per operation (Table 3 "New").
    pub fn avg_new_bytes(&self) -> f64 {
        self.tx.allocated_bytes as f64 / self.ops.max(1) as f64
    }

    /// Average allocated objects per operation.
    pub fn avg_new_objects(&self) -> f64 {
        self.tx.alloc_objects as f64 / self.ops.max(1) as f64
    }

    /// Average modified bytes per operation (Table 3 "Mod").
    pub fn avg_mod_bytes(&self) -> f64 {
        self.tx.modified_bytes as f64 / self.ops.max(1) as f64
    }

    /// Average modified objects per operation.
    pub fn avg_mod_objects(&self) -> f64 {
        self.tx.modified_objects as f64 / self.ops.max(1) as f64
    }

    /// Average bytes of one log copy per operation: entry headers,
    /// payloads, allocation intents and the commit.
    pub fn avg_log_bytes(&self) -> f64 {
        self.tx.log_bytes as f64 / self.ops.max(1) as f64
    }
}

/// One step of the shuffled insert/remove scheduler. See [`MixedOps`].
#[derive(Debug, Clone, Copy)]
pub enum MixedOp {
    /// Insert the offered key.
    Insert(u64),
    /// Remove a previously inserted (still-live) key.
    Remove(u64),
}

/// The live-set insert/remove scheduler behind [`concurrent_mixed_phase`]:
/// each step either removes a random live key (with probability
/// `remove_ratio`, once any are live) or inserts the next offered key.
#[derive(Debug)]
pub struct MixedOps {
    rng: StdRng,
    live: Vec<u64>,
    remove_ratio: f64,
}

impl MixedOps {
    /// A scheduler with the given removal probability and RNG seed.
    pub fn new(remove_ratio: f64, seed: u64) -> MixedOps {
        MixedOps { rng: StdRng::seed_from_u64(seed), live: Vec::new(), remove_ratio }
    }

    /// Schedules the next step, offering `key` as the insert candidate.
    pub fn next(&mut self, key: u64) -> MixedOp {
        if !self.live.is_empty() && self.rng.gen_bool(self.remove_ratio) {
            let idx = self.rng.gen_range(0..self.live.len());
            MixedOp::Remove(self.live.swap_remove(idx))
        } else {
            self.live.push(key);
            MixedOp::Insert(key)
        }
    }
}

/// One step of the raw alloc/overwrite/free object mix the Figure 9
/// scaling bench drives: an allocation every 8th transaction, a free
/// every 8th (once the working set is warm), overwrites otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RawOp {
    /// Allocate a fresh object and write it.
    Alloc,
    /// Free one previously allocated object.
    Free,
    /// Overwrite an existing object.
    Overwrite,
}

/// The deterministic raw-mix schedule (step `i` of a thread's loop) of
/// the Figure 9 transaction scaling table.
pub fn raw_mix_op(i: usize) -> RawOp {
    match i % 8 {
        0 => RawOp::Alloc,
        1 => RawOp::Free,
        _ => RawOp::Overwrite,
    }
}

/// Generates `n` distinct pseudo-random keys (uniform, seeded).
pub fn random_keys(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys: Vec<u64> = Vec::with_capacity(n);
    let mut seen = std::collections::HashSet::with_capacity(n);
    while keys.len() < n {
        let k = rng.gen::<u64>();
        if seen.insert(k) {
            keys.push(k);
        }
    }
    keys
}

/// Inserts every key (value = key ^ mask), collecting stats.
pub fn insert_phase<M: PersistentMap, S: Store>(
    map: &M,
    store: &S,
    keys: &[u64],
) -> KvResult<PhaseStats> {
    let mut stats = PhaseStats::default();
    let start = std::time::Instant::now();
    for &k in keys {
        let (_, tx) = map.insert_with_stats(store, k, k ^ 0xDEAD_BEEF)?;
        stats.tx.absorb(&tx);
        stats.ops += 1;
    }
    stats.secs = start.elapsed().as_secs_f64();
    Ok(stats)
}

/// Removes every key, collecting stats.
pub fn remove_phase<M: PersistentMap, S: Store>(
    map: &M,
    store: &S,
    keys: &[u64],
) -> KvResult<PhaseStats> {
    let mut stats = PhaseStats::default();
    let start = std::time::Instant::now();
    for &k in keys {
        let (_, tx) = map.remove_with_stats(store, k)?;
        stats.tx.absorb(&tx);
        stats.ops += 1;
    }
    stats.secs = start.elapsed().as_secs_f64();
    Ok(stats)
}

/// Looks up every key (read-only), returning hit count and timing.
pub fn lookup_phase<M: PersistentMap, S: Store>(
    map: &M,
    store: &S,
    keys: &[u64],
) -> KvResult<PhaseStats> {
    let mut stats = PhaseStats::default();
    let start = std::time::Instant::now();
    for &k in keys {
        if map.get(store, k)?.is_some() {
            stats.ops += 1;
        }
    }
    stats.secs = start.elapsed().as_secs_f64();
    Ok(stats)
}

/// Splits `keys` into `n` near-equal contiguous partitions (the per-thread
/// key sets of the concurrent driver).
pub fn partition_keys(keys: &[u64], n: usize) -> Vec<&[u64]> {
    let n = n.max(1);
    let per = keys.len().div_ceil(n);
    keys.chunks(per.max(1)).take(n).collect()
}

/// Runs one mixed insert/remove phase per thread — each thread creates its
/// **own** map over the **shared** store and drives its partition of
/// `keys` — exercising allocate, overwrite and free concurrently. The
/// maps are created before the clock starts, and wall-clock time spans
/// the whole scope, so `ops_per_sec` is the real concurrent throughput.
/// `tx` stays zeroed: per-thread `TxStats` are not aggregated.
pub fn concurrent_mixed_phase<M: PersistentMap + Send + Sync, S: Store + Clone>(
    store: &S,
    keys: &[u64],
    threads: usize,
    remove_ratio: f64,
    seed: u64,
) -> KvResult<PhaseStats> {
    let parts = partition_keys(keys, threads);
    let maps: Vec<M> = parts.iter().map(|_| M::create(store)).collect::<KvResult<_>>()?;
    let start = std::time::Instant::now();
    let ops = std::thread::scope(|s| -> KvResult<u64> {
        let handles: Vec<_> = maps
            .iter()
            .zip(&parts)
            .map(|(map, part)| {
                let store = store.clone();
                s.spawn(move || -> KvResult<u64> {
                    let first = part.first().copied().unwrap_or(0);
                    let mut sched = MixedOps::new(remove_ratio, seed ^ first);
                    for &k in *part {
                        match sched.next(k) {
                            MixedOp::Remove(victim) => map.remove(&store, victim)?,
                            MixedOp::Insert(k) => map.insert(&store, k, k)?,
                        };
                    }
                    Ok(part.len() as u64)
                })
            })
            .collect();
        let mut total = 0;
        for h in handles {
            total += h.join().expect("workload thread panicked")?;
        }
        Ok(total)
    })?;
    Ok(PhaseStats { ops, secs: start.elapsed().as_secs_f64(), ..Default::default() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctree::CTree;
    use crate::store::PglStore;
    use pangolin::{PglConfig, PglPool};
    use pgl_nvm::{DeviceConfig, NvmDevice};
    use std::sync::Arc;

    fn store() -> PglStore {
        let mut cfg = PglConfig::small();
        cfg.pool.size = 32 << 20;
        cfg.pool.zone_size = 16 << 20;
        let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
        PglStore::new(PglPool::create(dev, cfg).unwrap())
    }

    #[test]
    fn mixed_ops_only_remove_live_keys() {
        let mut sched = MixedOps::new(0.4, 99);
        let mut live = std::collections::HashSet::new();
        for k in 0..1000u64 {
            match sched.next(k) {
                MixedOp::Insert(k) => assert!(live.insert(k)),
                MixedOp::Remove(v) => assert!(live.remove(&v), "removed dead key {v}"),
            }
        }
    }

    #[test]
    fn raw_mix_matches_the_historical_schedule() {
        assert_eq!(raw_mix_op(0), RawOp::Alloc);
        assert_eq!(raw_mix_op(1), RawOp::Free);
        assert_eq!(raw_mix_op(8), RawOp::Alloc);
        assert!((2..8).all(|i| raw_mix_op(i) == RawOp::Overwrite));
    }

    #[test]
    fn partitions_cover_all_keys() {
        let keys = random_keys(103, 7);
        let parts = partition_keys(&keys, 4);
        assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), 103);
        assert!(parts.len() <= 4);
    }

    #[test]
    fn concurrent_phases_share_one_pool() {
        let store = store();
        let keys = random_keys(400, 42);
        let ins = concurrent_mixed_phase::<CTree, _>(&store, &keys, 4, 0.0, 1).unwrap();
        assert_eq!(ins.ops, 400);
        let mixed = concurrent_mixed_phase::<CTree, _>(&store, &keys, 4, 0.3, 99).unwrap();
        assert_eq!(mixed.ops, 400);
        // The shared pool stayed consistent under 8 maps' worth of traffic.
        assert!(store.pool().verify_parity().unwrap());
        assert!(store.pool().find_corrupt_objects().unwrap().is_empty());
    }
}
