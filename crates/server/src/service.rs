//! The in-process KV service: sharded single-writer maps, bounded lane
//! queues, group-commit workers, and an admission gate. The TCP front end
//! ([`crate::server::KvServer`]) is a thin framing layer over
//! [`KvService::call`]; tests and the load driver can also call it
//! directly.
//!
//! What crosses a thread boundary is the (frame, shard) sub-batch, both
//! ways: `call` sends each shard the frame's requests for it as one lane
//! message and gets their responses back as one, so a frame costs at
//! most `shards` hand-offs out and `shards` back however many requests
//! it carries ([`KvService::lane_stats`] counts them).

use std::sync::mpsc;
use std::thread::JoinHandle;

use pgl_kv::btree::BTree;
use pgl_kv::maps::{splitmix64, PersistentMap};
use pgl_kv::store::{KvError, KvResult, Store};
use pgl_pmemobj::PMEMoid;

use crate::admission::Admission;
use crate::batcher::ShardWorker;
use crate::lane::{Job, LaneQueue, LaneStats, Refusal};
use crate::proto::{Request, Response, MAX_SCAN_LIMIT};

/// Object type number of the service's shard-directory root object.
const TYPE_SERVICE_ROOT: u32 = 200;

/// Hard cap on shards (each is one worker thread + one lane queue).
const MAX_SHARDS: usize = 64;

/// The typed error of a request whose shard worker died.
const WORKER_GONE: &str = "shard worker unavailable";

/// Merge state of one scan slot of a frame.
struct ScanMerge {
    slot: usize,
    limit: usize,
    /// Shard parts still awaited; 0 once answered, shed or failed.
    outstanding: usize,
    pairs: Vec<(u64, u64)>,
}

/// The merge state of the scan at `slot` (`scans` ascends by slot).
fn scan_of(scans: &mut [ScanMerge], slot: usize) -> &mut ScanMerge {
    let at = scans.binary_search_by_key(&slot, |s| s.slot).expect("every scan slot is recorded");
    &mut scans[at]
}

/// Service sizing knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Shard count: single-writer maps, one worker thread each. Must
    /// match the pool's directory when re-attaching an existing pool.
    pub shards: usize,
    /// Bound of each shard's request queue (overload backpressure).
    pub queue_depth: usize,
    /// Most writes grouped into one commit by a shard worker.
    pub batch_max: usize,
    /// Global in-flight request cap (admission control).
    pub max_inflight: usize,
    /// Per-frame execution deadline in milliseconds; requests still
    /// unanswered when it expires get a typed deadline error instead of
    /// holding the connection. `0` disables the deadline.
    pub request_deadline_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            shards: 4,
            queue_depth: 128,
            batch_max: 32,
            max_inflight: 1024,
            request_deadline_ms: 0,
        }
    }
}

/// The sharded group-commit KV service over any [`Store`].
///
/// Keys are routed to shards by a [`splitmix64`] hash; each shard's
/// worker thread is the sole writer of its B-tree (the paper's §3.4
/// concurrency rule), and coalesces queued writes into group commits via
/// [`Store::txn_batch`]. Dropping the service closes the lanes and joins
/// the workers.
pub struct KvService<S: Store + Clone + 'static> {
    store: S,
    lanes: Vec<LaneQueue>,
    admission: Admission,
    workers: Vec<JoinHandle<()>>,
    config: ServiceConfig,
}

impl<S: Store + Clone + 'static> KvService<S> {
    /// Starts the service: creates (first run) or re-attaches (reopened
    /// pool) the shard directory in the pool root, then spawns one
    /// batching worker per shard.
    pub fn new(store: S, config: ServiceConfig) -> KvResult<KvService<S>> {
        let shards = config.shards.clamp(1, MAX_SHARDS);
        let maps = open_shard_maps(&store, shards)?;
        let mut lanes = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for (shard, map) in maps.into_iter().enumerate() {
            let (lane, rx) = LaneQueue::new(config.queue_depth);
            let worker = ShardWorker::new(store.clone(), map, rx, config.batch_max, shard);
            workers.push(std::thread::spawn(move || worker.run()));
            lanes.push(lane);
        }
        Ok(KvService {
            store,
            lanes,
            admission: Admission::new(config.max_inflight),
            workers,
            config: ServiceConfig { shards, ..config },
        })
    }

    /// Executes one frame's worth of requests, returning positional
    /// responses. Shedding (admission or a full lane queue) yields
    /// [`Response::Busy`] for the affected requests; everything else
    /// executes exactly once.
    ///
    /// The frame is partitioned by shard in frame order — a scan puts one
    /// part in every shard's sub-batch, at its frame position — so at
    /// most one [`Job`] per shard goes out and one reply per shard comes
    /// back, whatever the frame's length.
    pub fn call(&self, reqs: &[Request]) -> Vec<Response> {
        if reqs.is_empty() {
            return Vec::new();
        }
        let n = reqs.len();
        let Some(_permit) = self.admission.try_acquire(n) else {
            return vec![Response::Busy; n];
        };
        let shards = self.lanes.len();
        let mut parts: Vec<Vec<(usize, Request)>> = (0..shards).map(|_| Vec::new()).collect();
        // Scans fan out to every shard; only their slots carry merge
        // state (ascending by slot, so replies find theirs by search).
        let mut scans: Vec<ScanMerge> = Vec::new();
        for (slot, &req) in reqs.iter().enumerate() {
            match req {
                Request::Get { key } | Request::Put { key, .. } | Request::Del { key } => {
                    parts[self.shard_of(key)].push((slot, req));
                }
                Request::Scan { start, limit } => {
                    let limit = limit.min(MAX_SCAN_LIMIT);
                    for part in &mut parts {
                        part.push((slot, Request::Scan { start, limit }));
                    }
                    scans.push(ScanMerge {
                        slot,
                        limit: limit as usize,
                        outstanding: shards,
                        pairs: Vec::new(),
                    });
                }
            }
        }
        let mut out: Vec<Option<Response>> = (0..n).map(|_| None).collect();
        let (reply, rx) = mpsc::channel();
        let mut expected = 0usize;
        for (lane, part) in self.lanes.iter().zip(parts) {
            if part.is_empty() {
                continue;
            }
            let sent = part.len();
            let Err((refused, why)) = lane.try_push(Job { reqs: part, reply: reply.clone() })
            else {
                expected += 1;
                continue;
            };
            // A full lane may still have taken a prefix.
            expected += usize::from(refused.len() < sent);
            for (slot, req) in refused {
                if let Request::Scan { .. } = req {
                    // A scan missing one part is refused as a whole; its
                    // parts from other shards are discarded below.
                    scan_of(&mut scans, slot).outstanding = 0;
                }
                out[slot].get_or_insert(match why {
                    Refusal::Full => Response::Busy,
                    Refusal::Disconnected => Response::Error(WORKER_GONE.into()),
                });
            }
        }
        drop(reply);
        let deadline = (self.config.request_deadline_ms > 0).then(|| {
            std::time::Instant::now()
                + std::time::Duration::from_millis(self.config.request_deadline_ms)
        });
        let mut timed_out = false;
        for _ in 0..expected {
            let received = match deadline {
                None => rx.recv().ok(),
                Some(dl) => {
                    // Remaining budget shrinks as earlier replies arrive;
                    // an expired budget abandons the rest of the frame
                    // (stray late replies land on a dropped receiver).
                    let now = std::time::Instant::now();
                    if now >= dl {
                        None
                    } else {
                        rx.recv_timeout(dl - now).ok()
                    }
                }
            };
            let Some(resps) = received else {
                timed_out = deadline.is_some_and(|dl| std::time::Instant::now() >= dl);
                break; // deadline expired, or a worker died
            };
            for (slot, resp) in resps {
                if !matches!(reqs[slot], Request::Scan { .. }) {
                    out[slot] = Some(resp);
                    continue;
                }
                let scan = scan_of(&mut scans, slot);
                if scan.outstanding == 0 {
                    continue; // stray part of a shed or failed scan
                }
                match resp {
                    Response::Pairs(mut pairs) => {
                        scan.pairs.append(&mut pairs);
                        scan.outstanding -= 1;
                        if scan.outstanding == 0 {
                            let mut all = std::mem::take(&mut scan.pairs);
                            all.sort_unstable(); // keys are disjoint across shards
                            all.truncate(scan.limit);
                            out[slot] = Some(Response::Pairs(all));
                        }
                    }
                    other => {
                        // A shard failed this scan: report it, drop the rest.
                        scan.outstanding = 0;
                        out[slot] = Some(other);
                    }
                }
            }
        }
        let missing = || {
            if timed_out {
                format!("request deadline exceeded ({} ms)", self.config.request_deadline_ms)
            } else {
                WORKER_GONE.to_string()
            }
        };
        out.into_iter().map(|r| r.unwrap_or_else(|| Response::Error(missing()))).collect()
    }

    /// Lane hand-off counts summed over the shards: sub-batches and
    /// requests pushed to the workers, and requests shed at a full lane
    /// (admission sheds are counted by [`KvService::admission`]).
    pub fn lane_stats(&self) -> LaneStats {
        self.lanes.iter().map(LaneQueue::stats).fold(LaneStats::default(), |a, b| LaneStats {
            jobs: a.jobs + b.jobs,
            requests: a.requests + b.requests,
            shed: a.shed + b.shed,
        })
    }

    fn shard_of(&self, key: u64) -> usize {
        (splitmix64(key) % self.lanes.len() as u64) as usize
    }

    /// The backing store handle.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// The admission gate (shed/peak/in-flight observability).
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// The resolved configuration.
    pub fn config(&self) -> ServiceConfig {
        self.config
    }
}

impl<S: Store + Clone + 'static> Drop for KvService<S> {
    fn drop(&mut self) {
        // Closing the lanes ends each worker's `recv` loop.
        self.lanes.clear();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Creates or re-attaches the per-shard maps through a directory object
/// in the pool root: `[u64 shard_count][u64 anchor_off; shard_count]`.
fn open_shard_maps<S: Store>(store: &S, shards: usize) -> KvResult<Vec<BTree>> {
    let root = store.root(8 * (MAX_SHARDS as u64 + 1), TYPE_SERVICE_ROOT)?;
    let count: u64 = store.read_pod_direct(root, 0)?;
    if count == 0 {
        let maps: Vec<BTree> =
            (0..shards).map(|_| BTree::create(store)).collect::<KvResult<_>>()?;
        store.txn(&mut |tx| {
            for (i, m) in maps.iter().enumerate() {
                tx.write_pod(root, 8 * (i as u64 + 1), &m.anchor().off)?;
            }
            tx.write_pod(root, 0, &(shards as u64))
        })?;
        Ok(maps)
    } else if count != shards as u64 {
        Err(KvError::Corrupt("service shard count does not match the pool's directory"))
    } else {
        (0..shards)
            .map(|i| {
                let off: u64 = store.read_pod_direct(root, 8 * (i as u64 + 1))?;
                if off == 0 {
                    return Err(KvError::Corrupt("missing shard anchor in service directory"));
                }
                Ok(BTree::from_anchor(PMEMoid::new(store.uuid(), off)))
            })
            .collect()
    }
}
