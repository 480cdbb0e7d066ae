//! Bounded per-shard request queues.
//!
//! Each shard (one worker thread, one single-writer map — the paper's
//! §3.4 rule needs no locks this way) is fed by one `LaneQueue`: a
//! bounded MPSC channel whose unit is the **sub-batch** — every request
//! of one client frame that routes to this shard, in frame order, with
//! one reply route for all of them. A frame therefore crosses to a
//! worker in at most one message, and comes back in at most one.
//!
//! The bound is counted in **requests**, not messages: a counter beside
//! the channel tracks requests queued and not yet taken by the worker,
//! and never passes `depth`. Producers never block. A sub-batch that
//! does not fit whole is admitted up to the longest prefix that fits and
//! the rest is handed back to be answered
//! [`crate::proto::Response::Busy`] (all-or-nothing would starve any
//! sub-batch longer than the depth), which together with the admission
//! gate keeps service memory bounded under overload. A lane whose worker
//! is gone refuses everything as [`Refusal::Disconnected`] — that is not
//! overload, and must not invite a retry.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{
    sync_channel, Receiver, RecvError, Sender, SyncSender, TryRecvError, TrySendError,
};
use std::sync::Arc;

use crate::proto::{Request, Response};

/// One frame's requests for one shard plus their reply route: the worker
/// sends back a single vector of responses, each tagged with its
/// request's `slot` (its position in the client frame).
#[derive(Debug)]
pub struct Job {
    /// `(slot, request)` in frame order; never empty.
    pub reqs: Vec<(usize, Request)>,
    /// Where the worker sends the `(slot, response)` of every request.
    pub reply: Sender<Vec<(usize, Response)>>,
}

/// Why [`LaneQueue::try_push`] handed requests back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// The lane is at its request bound: transient, answer `Busy`.
    Full,
    /// The shard's worker is gone: permanent, answer a typed error.
    Disconnected,
}

/// Producer-side lane counts (see [`LaneQueue::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Sub-batches enqueued — thread hand-offs towards the workers.
    pub jobs: u64,
    /// Requests enqueued inside those sub-batches.
    pub requests: u64,
    /// Requests refused because the lane was at its bound.
    pub shed: u64,
}

/// State shared by a lane's producers and its consumer. Every counter
/// is `Relaxed`: none publishes data (the channel does that).
#[derive(Debug, Default)]
struct Shared {
    /// Requests in the channel, not yet taken by the worker.
    queued: AtomicUsize,
    /// Set when the consumer is dropped: whatever was queued then is
    /// never taken, so `queued` alone would read as full forever.
    closed: AtomicBool,
    jobs: AtomicU64,
    requests: AtomicU64,
    shed: AtomicU64,
}

/// The producer side of a shard's bounded queue.
#[derive(Debug, Clone)]
pub struct LaneQueue {
    tx: SyncSender<Job>,
    depth: usize,
    shared: Arc<Shared>,
}

/// The consumer side: the shard worker's end of the channel.
#[derive(Debug)]
pub struct LaneConsumer {
    rx: Receiver<Job>,
    shared: Arc<Shared>,
}

impl LaneQueue {
    /// A queue holding at most `depth` pending requests; returns the
    /// consumer end for the shard worker.
    pub fn new(depth: usize) -> (LaneQueue, LaneConsumer) {
        let depth = depth.max(1);
        // A job carries at least one request, so `depth` jobs is a bound
        // the request counter reaches first: `try_send` never sees Full.
        let (tx, rx) = sync_channel(depth);
        let shared = Arc::new(Shared::default());
        (LaneQueue { tx, depth, shared: Arc::clone(&shared) }, LaneConsumer { rx, shared })
    }

    /// Non-blocking enqueue of the longest prefix of `job.reqs` that fits
    /// under the request bound. `Err` hands back the requests that were
    /// **not** enqueued — the tail beyond the prefix when the lane is
    /// [`Refusal::Full`], all of them when the worker is gone.
    pub fn try_push(&self, mut job: Job) -> Result<(), (Vec<(usize, Request)>, Refusal)> {
        if self.shared.closed.load(Ordering::Relaxed) {
            return Err((job.reqs, Refusal::Disconnected));
        }
        let queued = &self.shared.queued;
        let mut cur = queued.load(Ordering::Relaxed);
        let take = loop {
            let take = job.reqs.len().min(self.depth.saturating_sub(cur));
            match queued.compare_exchange_weak(
                cur,
                cur + take,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break take,
                Err(seen) => cur = seen,
            }
        };
        let mut refused = job.reqs.split_off(take);
        if take > 0 {
            match self.tx.try_send(job) {
                Ok(()) => {
                    self.shared.jobs.fetch_add(1, Ordering::Relaxed);
                    self.shared.requests.fetch_add(take as u64, Ordering::Relaxed);
                }
                // Only a worker that died since the check above refuses
                // a reserved push (see `new`).
                Err(TrySendError::Full(back)) | Err(TrySendError::Disconnected(back)) => {
                    queued.fetch_sub(take, Ordering::Relaxed);
                    let mut all = back.reqs;
                    all.append(&mut refused);
                    return Err((all, Refusal::Disconnected));
                }
            }
        }
        if refused.is_empty() {
            return Ok(());
        }
        self.shared.shed.fetch_add(refused.len() as u64, Ordering::Relaxed);
        Err((refused, Refusal::Full))
    }

    /// What this lane's producers have pushed and shed so far.
    pub fn stats(&self) -> LaneStats {
        LaneStats {
            jobs: self.shared.jobs.load(Ordering::Relaxed),
            requests: self.shared.requests.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
        }
    }
}

impl LaneConsumer {
    /// Blocks for the next sub-batch; `Err` once every producer is gone.
    pub fn recv(&self) -> Result<Job, RecvError> {
        self.rx.recv().inspect(|job| self.taken(job))
    }

    /// The next sub-batch if one is already queued.
    pub fn try_recv(&self) -> Result<Job, TryRecvError> {
        self.rx.try_recv().inspect(|job| self.taken(job))
    }

    fn taken(&self, job: &Job) {
        self.shared.queued.fetch_sub(job.reqs.len(), Ordering::Relaxed);
    }
}

impl Drop for LaneConsumer {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Reply = Sender<Vec<(usize, Response)>>;

    fn job(reply: &Reply, slots: std::ops::Range<usize>) -> Job {
        let reqs = slots.map(|slot| (slot, Request::Get { key: slot as u64 })).collect();
        Job { reqs, reply: reply.clone() }
    }

    #[test]
    fn full_queue_hands_the_job_back() {
        let (lane, rx) = LaneQueue::new(2);
        let (reply, _keep) = std::sync::mpsc::channel();
        assert!(lane.try_push(job(&reply, 0..1)).is_ok());
        assert!(lane.try_push(job(&reply, 1..2)).is_ok());
        let (back, why) = lane.try_push(job(&reply, 2..3)).expect_err("third request at depth 2");
        assert_eq!((back.len(), back[0].0, why), (1, 2, Refusal::Full));
        drop(rx); // worker gone: pushes bounce typed instead of hanging
        let (back, why) = lane.try_push(job(&reply, 3..4)).expect_err("no worker");
        assert_eq!((back.len(), why), (1, Refusal::Disconnected));
        assert_eq!(lane.stats(), LaneStats { jobs: 2, requests: 2, shed: 1 });
    }

    #[test]
    fn bound_counts_requests_and_admits_the_longest_prefix() {
        let (lane, rx) = LaneQueue::new(4);
        let (reply, _keep) = std::sync::mpsc::channel();
        assert!(lane.try_push(job(&reply, 0..3)).is_ok());
        // One slot left: the first request of the next sub-batch fits.
        let (back, why) = lane.try_push(job(&reply, 3..6)).expect_err("only a prefix fits");
        assert_eq!(why, Refusal::Full);
        assert_eq!(back.iter().map(|&(slot, _)| slot).collect::<Vec<_>>(), vec![4, 5]);
        assert_eq!(lane.stats(), LaneStats { jobs: 2, requests: 4, shed: 2 });
        // Taking a sub-batch frees its requests, not one message's worth.
        assert_eq!(rx.recv().unwrap().reqs.len(), 3);
        assert!(lane.try_push(job(&reply, 6..9)).is_ok());
        assert_eq!(rx.try_recv().unwrap().reqs[0].0, 3);
    }
}
