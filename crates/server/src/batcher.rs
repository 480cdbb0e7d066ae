//! The shard worker: drains its lane queue and coalesces queued writes
//! into **group commits**.
//!
//! The lane delivers **sub-batches** ([`Job`]: one frame's requests for
//! this shard, one reply route). The worker blocks for one, then keeps
//! taking already-queued ones until it holds at least `batch_max`
//! requests, and walks every job's requests in order. Writes accumulate
//! — across jobs, hence across connections — into one
//! [`Store::txn_batch`] call of at most `batch_max` bodies: on a
//! Pangolin store that is one micro-buffered transaction, i.e. one
//! redo-log persist, one commit fence and one parity-patch window for
//! the whole group. Reads are served directly as they are encountered
//! *without* breaking the write group: a read only forces the pending
//! group to commit first when it touches a key that group wrote (or is a
//! scan), which preserves per-key program order while keeping
//! interleaved point reads from fragmenting the batch. A job is answered
//! with **one** message, the moment its last request is answered: a
//! read-only job as soon as it has been walked, a job with writes at the
//! commit that carries its last one — never at the end of the drained
//! batch. Under light load a write still commits alone (no added
//! latency); under concurrency the queue builds while a batch commits,
//! so the next drain finds a deeper group — the classic group-commit
//! feedback loop.
//!
//! Each shard owns its map exclusively (single writer), satisfying the
//! paper's §3.4 rule without any map-level locking; concurrency across
//! shards comes from Pangolin's per-lane transactions and striped parity
//! range-locks.

use std::collections::HashSet;
use std::sync::mpsc::Sender;

use pangolin::PglError;
use pgl_kv::btree::BTree;
use pgl_kv::maps::PersistentMap;
use pgl_kv::store::{BatchOp, KvError, KvResult, Store};

use crate::lane::{Job, LaneConsumer};
use crate::proto::{Request, Response, MAX_SCAN_LIMIT};

/// Maps a store error to its wire response. Data loss beyond the parity
/// guarantee surfaces as the typed [`Response::Unrecoverable`] (carrying
/// the quarantined shard/zone) so clients can distinguish "lost, do not
/// retry" from transient execution errors.
pub fn response_for_error(e: &KvError) -> Response {
    match e {
        KvError::Pgl(PglError::Unrecoverable { shard, zone, .. }) => {
            Response::Unrecoverable { shard: *shard, zone: *zone }
        }
        other => Response::Error(other.to_string()),
    }
}

/// A drained job being answered: responses collect here and leave as
/// one message once there is one per request.
struct OpenJob {
    resps: Vec<(usize, Response)>,
    total: usize,
    reply: Sender<Vec<(usize, Response)>>,
}

/// Records one response; sends the job's reply if it was the last. A
/// send only fails when the frame's caller gave up (deadline): ignored.
fn answer(open: &mut [OpenJob], job: usize, slot: usize, resp: Response) {
    let open = &mut open[job];
    open.resps.push((slot, resp));
    if open.resps.len() == open.total {
        let _ = open.reply.send(std::mem::take(&mut open.resps));
    }
}

/// One shard's executor: a map, a store handle, and the lane consumer.
pub struct ShardWorker<S: Store> {
    store: S,
    map: BTree,
    rx: LaneConsumer,
    batch_max: usize,
    /// Service shard index — doubles as the parity-shard binding, so a
    /// worker's group commits allocate inside one parity domain and never
    /// pay the cross-shard commit protocol.
    shard: usize,
    /// The drained batch's jobs, indexed by `group`'s first field.
    open: Vec<OpenJob>,
    /// The pending write group: `(job, slot, write)`.
    group: Vec<(usize, usize, Request)>,
    /// Keys the pending group writes.
    written: HashSet<u64>,
}

impl<S: Store> ShardWorker<S> {
    /// A worker executing `rx`'s jobs against `map` on `store`, grouping
    /// at most `batch_max` writes per commit. `shard` is this worker's
    /// service-shard index, forwarded to [`Store::bind_shard`] on the
    /// worker thread at startup.
    pub fn new(
        store: S,
        map: BTree,
        rx: LaneConsumer,
        batch_max: usize,
        shard: usize,
    ) -> ShardWorker<S> {
        let batch_max = batch_max.max(1);
        ShardWorker {
            store,
            map,
            rx,
            batch_max,
            shard,
            open: Vec::new(),
            group: Vec::with_capacity(batch_max),
            written: HashSet::new(),
        }
    }

    /// Runs until every producer handle is gone (service shutdown).
    pub fn run(mut self) {
        // Align this worker (thread) with a parity shard: allocations it
        // makes prefer that shard's zones.
        self.store.bind_shard(self.shard);
        let mut jobs: Vec<Job> = Vec::new();
        loop {
            let Ok(first) = self.rx.recv() else {
                return; // all lanes dropped: clean shutdown
            };
            let mut held = first.reqs.len();
            jobs.push(first);
            while held < self.batch_max {
                match self.rx.try_recv() {
                    Ok(job) => {
                        held += job.reqs.len();
                        jobs.push(job);
                    }
                    Err(_) => break,
                }
            }
            self.execute(&mut jobs);
        }
    }

    /// Executes one drained batch. Writes accumulate into group commits
    /// of at most `batch_max`; reads are answered in place, flushing the
    /// pending group first only on a per-key conflict (a read of a key
    /// the group wrote must see that write) or a scan.
    fn execute(&mut self, jobs: &mut Vec<Job>) {
        for (idx, job) in jobs.drain(..).enumerate() {
            let total = job.reqs.len();
            self.open.push(OpenJob { resps: Vec::with_capacity(total), total, reply: job.reply });
            for (slot, req) in job.reqs {
                match req {
                    Request::Put { key, .. } | Request::Del { key } => {
                        self.written.insert(key);
                        self.group.push((idx, slot, req));
                        if self.group.len() == self.batch_max {
                            self.commit_group();
                        }
                    }
                    Request::Get { key } => {
                        if self.written.contains(&key) {
                            self.commit_group();
                        }
                        let resp = self.serve_read(&req);
                        answer(&mut self.open, idx, slot, resp);
                    }
                    Request::Scan { .. } => {
                        self.commit_group();
                        let resp = self.serve_read(&req);
                        answer(&mut self.open, idx, slot, resp);
                    }
                }
            }
        }
        self.commit_group();
        self.open.clear();
    }

    /// Commits the pending write group (if any) as one batched commit
    /// and answers its writes.
    fn commit_group(&mut self) {
        if self.group.is_empty() {
            return;
        }
        let map = &self.map;
        let mut ops: Vec<BatchOp<'_>> = self
            .group
            .iter()
            .map(|&(_, _, req)| -> BatchOp<'_> {
                match req {
                    Request::Put { key, value } => {
                        Box::new(move |tx| map.insert_tx(tx, key, value))
                    }
                    Request::Del { key } => Box::new(move |tx| map.remove_tx(tx, key)),
                    // Only writes are pushed onto the group.
                    Request::Get { .. } | Request::Scan { .. } => {
                        unreachable!("read in write group")
                    }
                }
            })
            .collect();
        let results = self.store.txn_batch(&mut ops);
        for ((idx, slot, _), result) in self.group.drain(..).zip(results) {
            let resp = match result {
                Ok(old) => Response::Value(old),
                Err(e) => response_for_error(&e),
            };
            answer(&mut self.open, idx, slot, resp);
        }
        self.written.clear();
    }

    /// Serves a read directly (no transaction): this worker is the only
    /// writer of its map, so direct reads cannot race a commit.
    fn serve_read(&self, req: &Request) -> Response {
        let result: KvResult<Response> = match *req {
            Request::Get { key } => self.map.get(&self.store, key).map(Response::Value),
            Request::Scan { start, limit } => {
                let limit = limit.min(MAX_SCAN_LIMIT) as usize;
                let mut pairs = Vec::new();
                self.map
                    .scan(&self.store, start, limit, &mut pairs)
                    .map(|()| Response::Pairs(pairs))
            }
            Request::Put { .. } | Request::Del { .. } => {
                unreachable!("write served as read")
            }
        };
        result.unwrap_or_else(|e| response_for_error(&e))
    }
}
