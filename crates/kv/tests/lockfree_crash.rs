//! Crash-point sweeps for the lock-free structures (`pgl_kv::lockfree`).
//!
//! Each workload drives a scripted op sequence with a commit point after
//! every operation — its one linearizing detectable CAS, which for push,
//! enqueue and insert also allocates and constructs the node it links —
//! so the oracle harness crashes at every device-op boundary in between:
//! inside a fresh node's construction, between the operation descriptor's
//! persist fence and the CAS publication, and between the CAS and the
//! node's allocator bit. Recovery must then satisfy the detectability
//! contract:
//! the in-flight operation either never happened or completed exactly
//! once, decidable from [`pgl_kv::lockfree::op_completed`] for the tag
//! that was in flight. `verify` replays the script against that rule and
//! checks the recovered structure's content word-for-word; the harness
//! itself has already checked parity, checksums, and byte-level
//! all-or-nothing state against the recorded model.

use pangolin::crashcheck::{self, CrashWorkload, SweepConfig, SweepCtx};
use pangolin::{PglConfig, PglError, PglPool, Result};
use pgl_kv::lockfree::{op_completed, LfHash, LfQueue, LfStack};
use pgl_kv::store::KvResult;
use pgl_pmemobj::PMEMoid;

/// Root object type for the sweep pools (holds the structure's anchor
/// offset so replays can re-attach).
const TYPE_ROOT: u32 = 90;

fn kv<T>(r: KvResult<T>) -> Result<T> {
    r.map_err(|e| PglError::unrecoverable(format!("kv: {e}")))
}

fn config() -> SweepConfig {
    SweepConfig::from_env().budget(12)
}

/// Stores `anchor` in the pool root so crash replays can find it.
fn publish_anchor(pool: &PglPool, anchor: PMEMoid) -> Result<()> {
    let root = pool.root(8, TYPE_ROOT)?;
    pool.tx(|tx| tx.write(root, 0, &anchor.off.to_le_bytes()))
}

fn read_anchor(pool: &PglPool) -> Result<PMEMoid> {
    let root = pool.root(8, TYPE_ROOT)?;
    let off = pool.read_pod::<u64>(root, 0)?;
    Ok(PMEMoid::new(pool.uuid(), off))
}

// ---------------------------------------------------------------------
// Treiber stack
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
enum StackOp {
    Push(u64),
    Pop,
}

impl StackOp {
    fn apply(&self, model: &mut Vec<u64>) {
        match self {
            StackOp::Push(v) => model.insert(0, *v),
            StackOp::Pop => {
                if !model.is_empty() {
                    model.remove(0);
                }
            }
        }
    }
}

fn stack_script() -> Vec<StackOp> {
    use StackOp::*;
    vec![Push(11), Push(22), Pop, Push(33), Pop, Pop, Pop]
}

struct StackWorkload;

impl CrashWorkload for StackWorkload {
    fn name(&self) -> &str {
        "lf-stack"
    }

    fn config(&self) -> PglConfig {
        PglConfig::small()
    }

    fn setup(&self, pool: &PglPool) -> Result<()> {
        let s = kv(LfStack::create(pool))?;
        publish_anchor(pool, s.anchor())
    }

    fn run(&self, pool: &PglPool, ctx: &mut SweepCtx) -> Result<()> {
        let s = LfStack::attach(read_anchor(pool)?);
        for (i, op) in stack_script().into_iter().enumerate() {
            let tag = (i + 1) as u64;
            match op {
                StackOp::Push(v) => kv(s.push(pool, v, tag))?,
                StackOp::Pop => {
                    kv(s.try_pop(pool, tag))?;
                }
            }
            ctx.commit_point(pool)?;
        }
        Ok(())
    }

    fn verify(&self, pool: &PglPool, committed: usize) -> Result<()> {
        let s = LfStack::attach(read_anchor(pool)?);
        let mut model: Vec<u64> = Vec::new();
        for (i, op) in stack_script().into_iter().enumerate() {
            let tag = (i + 1) as u64;
            if i < committed {
                op.apply(&mut model);
                continue;
            }
            // The in-flight op: its linearizing CAS is its commit point,
            // so it applied iff recovery proves the tag completed.
            if op_completed(pool, tag) {
                op.apply(&mut model);
            }
            break;
        }
        let got = kv(s.items(pool))?;
        if got != model {
            return Err(PglError::unrecoverable(format!(
                "lf-stack after {committed} commits: got {got:?}, expected {model:?}"
            )));
        }
        Ok(())
    }
}

#[test]
fn lf_stack_survives_crash_sweep() {
    crashcheck::sweep_with(&StackWorkload, &config());
}

// ---------------------------------------------------------------------
// Michael–Scott queue
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
enum QueueOp {
    Enq(u64),
    Deq,
}

impl QueueOp {
    fn apply(&self, model: &mut Vec<u64>) {
        match self {
            QueueOp::Enq(v) => model.push(*v),
            QueueOp::Deq => {
                if !model.is_empty() {
                    model.remove(0);
                }
            }
        }
    }
}

fn queue_script() -> Vec<QueueOp> {
    use QueueOp::*;
    vec![Enq(1), Enq(2), Deq, Enq(3), Deq, Deq, Deq]
}

struct QueueWorkload;

impl CrashWorkload for QueueWorkload {
    fn name(&self) -> &str {
        "lf-queue"
    }

    fn config(&self) -> PglConfig {
        PglConfig::small()
    }

    fn setup(&self, pool: &PglPool) -> Result<()> {
        let q = kv(LfQueue::create(pool))?;
        publish_anchor(pool, q.anchor())
    }

    fn run(&self, pool: &PglPool, ctx: &mut SweepCtx) -> Result<()> {
        let q = LfQueue::attach(read_anchor(pool)?);
        for (i, op) in queue_script().into_iter().enumerate() {
            let tag = (i + 1) as u64;
            match op {
                QueueOp::Enq(v) => kv(q.enqueue(pool, v, tag))?,
                QueueOp::Deq => {
                    kv(q.try_dequeue(pool, tag))?;
                }
            }
            ctx.commit_point(pool)?;
        }
        Ok(())
    }

    fn verify(&self, pool: &PglPool, committed: usize) -> Result<()> {
        let q = LfQueue::attach(read_anchor(pool)?);
        let mut model: Vec<u64> = Vec::new();
        for (i, op) in queue_script().into_iter().enumerate() {
            let tag = (i + 1) as u64;
            if i < committed {
                op.apply(&mut model);
                continue;
            }
            if op_completed(pool, tag) {
                op.apply(&mut model);
            }
            break;
        }
        let got = kv(q.items(pool))?;
        if got != model {
            return Err(PglError::unrecoverable(format!(
                "lf-queue after {committed} commits: got {got:?}, expected {model:?}"
            )));
        }
        Ok(())
    }
}

#[test]
fn lf_queue_survives_crash_sweep() {
    crashcheck::sweep_with(&QueueWorkload, &config());
}

// ---------------------------------------------------------------------
// Resizable hash
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
enum HashOp {
    Ins(u64, u64),
    Del(u64),
}

impl HashOp {
    fn apply(&self, model: &mut std::collections::BTreeMap<u64, u64>) {
        match self {
            HashOp::Ins(k, v) => {
                model.insert(*k, *v);
            }
            HashOp::Del(k) => {
                model.remove(k);
            }
        }
    }
}

/// Data ops first; the trailing stepped resize (driven in `run`) is
/// content-neutral, so `verify` only needs the data-op prefix. `Del(99)`
/// targets an absent key — a probe with no linearizing CAS.
fn hash_script() -> Vec<HashOp> {
    use HashOp::*;
    vec![Ins(5, 50), Ins(9, 90), Ins(5, 51), Del(9), Ins(13, 130), Del(99)]
}

/// Sweep capacity: large enough that the scripted inserts never trigger
/// an implicit growth (which would fold many transitions into one commit
/// point); the explicit stepped resize at the end covers migration.
const HASH_CAP: u64 = 16;

struct HashWorkload;

impl CrashWorkload for HashWorkload {
    fn name(&self) -> &str {
        "lf-hash"
    }

    fn config(&self) -> PglConfig {
        PglConfig::small()
    }

    fn setup(&self, pool: &PglPool) -> Result<()> {
        let h = kv(LfHash::create(pool, HASH_CAP))?;
        publish_anchor(pool, h.anchor())
    }

    fn run(&self, pool: &PglPool, ctx: &mut SweepCtx) -> Result<()> {
        let h = kv(LfHash::attach(pool, read_anchor(pool)?))?;
        for (i, op) in hash_script().into_iter().enumerate() {
            let tag = (i + 1) as u64;
            match op {
                HashOp::Ins(k, v) => {
                    kv(h.insert(pool, k, v, tag))?;
                }
                HashOp::Del(k) => {
                    kv(h.remove(pool, k, tag))?;
                }
            }
            ctx.commit_point(pool)?;
        }
        // Stepped resize: every transition of the migration state machine
        // (allocate, publish, per-slot copy/seal, table swing, retire) is
        // its own commit point, so crashes land between any two.
        h.resize_begin(HASH_CAP * 2);
        let mut tag = 1000u64;
        while kv(h.resize_step(pool, tag))? {
            ctx.commit_point(pool)?;
            tag += 1;
        }
        Ok(())
    }

    fn verify(&self, pool: &PglPool, committed: usize) -> Result<()> {
        let h = kv(LfHash::attach(pool, read_anchor(pool)?))?;
        let mut model = std::collections::BTreeMap::new();
        for (i, op) in hash_script().into_iter().enumerate() {
            let tag = (i + 1) as u64;
            if i < committed {
                op.apply(&mut model);
                continue;
            }
            if op_completed(pool, tag) {
                op.apply(&mut model);
            }
            break;
        }
        // Any commit points past the data ops are resize transitions,
        // which never change the mapping — the model stands as-is, and
        // lookups must work mid-migration.
        let got = kv(h.items(pool))?;
        let want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        if got != want {
            return Err(PglError::unrecoverable(format!(
                "lf-hash after {committed} commits: got {got:?}, expected {want:?}"
            )));
        }
        for k in [5u64, 9, 13, 99] {
            let got = kv(h.get(pool, k))?;
            if got != model.get(&k).copied() {
                return Err(PglError::unrecoverable(format!(
                    "lf-hash get({k}) after {committed} commits: got {got:?}, expected {:?}",
                    model.get(&k)
                )));
            }
        }
        Ok(())
    }
}

#[test]
fn lf_hash_survives_crash_sweep() {
    crashcheck::sweep_with(&HashWorkload, &config());
}
