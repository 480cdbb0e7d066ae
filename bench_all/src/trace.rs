//! Span tracing from outside the layers.
//!
//! Spans are opened only in the benchmark's own files, around calls into
//! the layers' public functions; instrumentation inside the crates is a
//! later issue. Each thread keeps its open-span stack, a preallocated raw
//! span buffer and per-name totals; a span's *self* time is its duration
//! minus the time its child spans covered, computed as spans close. When
//! tracing is off a span site costs one relaxed load.
//!
//! Recording a span costs about two clock reads, which is not small next
//! to a 100 ns store call, so the totals are compensated: the first
//! `set_enabled(true)` calibrates the cost of an empty span — the part
//! inside its own timestamps and the part that lands in its parent — and
//! every closing span takes both out of its self time. Raw spans keep
//! their uncompensated timestamps.
//!
//! Spans opened on the service's worker threads carry no request id, so
//! nothing links them to the client span that caused them: cross-thread
//! attribution (`server.*_self_us`) is by aggregate difference.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use pgl_kv::store::{BatchOp, KvResult, Store, TxOps};
use pgl_pmemobj::{PMEMoid, TxStats};

/// Span names. A `u8` index into [`NAMES`] keeps a raw span at 40 bytes.
pub type Name = u8;

pub const POOL_TX: Name = 0;
pub const TX_BODY: Name = 1;
pub const TX_WRITE: Name = 2;
pub const TX_ALLOC: Name = 3;
pub const TX_FREE: Name = 4;
pub const TX_READ: Name = 5;
pub const STORE_TXN: Name = 6;
pub const STORE_TXN_BATCH: Name = 7;
pub const STORE_READ: Name = 8;
pub const LF_QUEUE: Name = 9;
pub const LF_STACK: Name = 10;
pub const LF_HASH: Name = 11;
pub const CLIENT_CALL: Name = 12;
pub const REOPEN: Name = 13;
pub const SCRUB: Name = 14;
pub const REPAIR: Name = 15;
/// `MAP_OP + 3 * tree + op` with tree 0..3 = btree, ctree, rtree and
/// op 0..3 = put, get, del.
pub const MAP_OP: Name = 16;
const CALIBRATION: Name = 25;
const N_NAMES: usize = 26;

pub const NAMES: [&str; N_NAMES] = [
    "pool.tx",
    "tx.body",
    "tx.write",
    "tx.alloc",
    "tx.free",
    "tx.read",
    "store.txn",
    "store.txn_batch",
    "store.read_direct",
    "lf.queue",
    "lf.stack",
    "lf.hash",
    "client.call",
    "pool.reopen",
    "pool.scrub_now",
    "read_verified.repair",
    "btree.put",
    "btree.get",
    "btree.del",
    "ctree.put",
    "ctree.get",
    "ctree.del",
    "rtree.put",
    "rtree.get",
    "rtree.del",
    "trace.calibration",
];

/// Raw spans kept per thread; later spans still count in the totals.
const RAW_CAP: usize = 150_000;

static ON: AtomicBool = AtomicBool::new(false);
/// Calibrated cost of one span inside its own timestamps, and outside
/// them (in its parent), in nanoseconds.
static INNER_NS: AtomicU64 = AtomicU64::new(0);
static OUTER_NS: AtomicU64 = AtomicU64::new(0);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
/// Every thread that ever opened a span. The service's worker threads
/// outlive the traced passes, so their spans are drained from here, not
/// handed over when they exit.
static THREADS: Mutex<Vec<Arc<Mutex<Local>>>> = Mutex::new(Vec::new());

#[derive(Debug, Clone, Copy)]
pub struct RawSpan {
    pub id: u64,
    pub parent: u64,
    pub name: Name,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Totals of one span name, compensated for the cost of recording.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    /// Self time of the spans and of everything under them.
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Debug, Default)]
pub struct Collected {
    pub raw: Vec<RawSpan>,
    pub agg: [Agg; N_NAMES],
    pub dropped_raw: u64,
}

impl Collected {
    pub fn of(&self, name: Name) -> Agg {
        self.agg[name as usize]
    }

    /// Summed totals of several names.
    pub fn sum(&self, names: impl IntoIterator<Item = Name>) -> Agg {
        names.into_iter().fold(Agg::default(), |mut acc, n| {
            let a = self.of(n);
            acc.count += a.count;
            acc.total_ns += a.total_ns;
            acc.self_ns += a.self_ns;
            acc
        })
    }
}

struct Open {
    id: u64,
    name: Name,
    start_ns: u64,
    /// Raw duration, compensated total and number of the direct children.
    child_ns: u64,
    child_total_ns: u64,
    children: u64,
}

/// One thread's spans. Only its thread locks it while spans are recorded;
/// [`take`] locks it to drain what has closed.
struct Local {
    thread: u32,
    next_id: u64,
    stack: Vec<Open>,
    done: Collected,
}

thread_local! {
    static LOCAL: Arc<Mutex<Local>> = {
        let local = Arc::new(Mutex::new(Local {
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            next_id: 1,
            stack: Vec::with_capacity(16),
            done: Collected { raw: Vec::with_capacity(RAW_CAP), ..Collected::default() },
        }));
        THREADS.lock().expect("trace registry poisoned").push(local.clone());
        local
    };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns span recording on or off. Call only while no span is open on any
/// thread (between passes).
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ON.store(on, Ordering::SeqCst);
    if on && OUTER_NS.load(Ordering::Relaxed) == 0 {
        calibrate();
    }
}

/// Measures what an empty span costs: `INNER_NS` is what it records as its
/// own duration, `OUTER_NS` the rest of the time it takes, which a parent
/// span would see as its own.
fn calibrate() {
    const SPANS: u64 = 50_000;
    let start = Instant::now();
    for _ in 0..SPANS {
        let _s = span(CALIBRATION);
    }
    let per_span = start.elapsed().as_nanos() as u64 / SPANS;
    // The calibration spans are not part of any run.
    let inner = LOCAL.with(|l| {
        let mut l = l.lock().expect("trace buffer poisoned");
        l.done.raw.retain(|s| s.name != CALIBRATION);
        std::mem::take(&mut l.done.agg[CALIBRATION as usize]).total_ns / SPANS
    });
    INNER_NS.store(inner, Ordering::Relaxed);
    OUTER_NS.store(per_span.saturating_sub(inner).max(1), Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Closes its span when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct SpanGuard(bool);

/// Opens a span on the calling thread, a child of its innermost open span.
#[inline]
pub fn span(name: Name) -> SpanGuard {
    if !enabled() {
        return SpanGuard(false);
    }
    open(name);
    SpanGuard(true)
}

#[inline(never)]
fn open(name: Name) {
    LOCAL.with(|l| {
        let mut l = l.lock().expect("trace buffer poisoned");
        let id = (u64::from(l.thread) << 40) | l.next_id;
        l.next_id += 1;
        let start_ns = now_ns();
        l.stack.push(Open { id, name, start_ns, child_ns: 0, child_total_ns: 0, children: 0 });
    });
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.0 {
            close();
        }
    }
}

#[inline(never)]
fn close() {
    let end_ns = now_ns();
    LOCAL.with(|l| {
        let mut l = l.lock().expect("trace buffer poisoned");
        let Some(open) = l.stack.pop() else { return };
        let dur = end_ns.saturating_sub(open.start_ns);
        let recording =
            INNER_NS.load(Ordering::Relaxed) + open.children * OUTER_NS.load(Ordering::Relaxed);
        let self_ns = dur.saturating_sub(open.child_ns).saturating_sub(recording);
        let total_ns = self_ns + open.child_total_ns;
        let agg = &mut l.done.agg[open.name as usize];
        agg.count += 1;
        agg.total_ns += total_ns;
        agg.self_ns += self_ns;
        let parent = match l.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.child_total_ns += total_ns;
                p.children += 1;
                p.id
            }
            None => 0,
        };
        if l.done.raw.len() < RAW_CAP {
            let (name, thread, start_ns) = (open.name, l.thread, open.start_ns);
            l.done.raw.push(RawSpan { id: open.id, parent, name, thread, start_ns, end_ns });
        } else {
            l.done.dropped_raw += 1;
        }
    });
}

/// Takes the closed spans of every thread, and forgets threads that have
/// exited.
pub fn take() -> Collected {
    let mut all = Collected::default();
    let mut threads = THREADS.lock().expect("trace registry poisoned");
    for local in threads.iter() {
        let mut l = local.lock().expect("trace buffer poisoned");
        all.raw.append(&mut l.done.raw);
        all.dropped_raw += std::mem::take(&mut l.done.dropped_raw);
        for (dst, src) in all.agg.iter_mut().zip(&mut l.done.agg) {
            let src = std::mem::take(src);
            dst.count += src.count;
            dst.total_ns += src.total_ns;
            dst.self_ns += src.self_ns;
        }
    }
    // A thread-local holds the other reference while its thread lives.
    threads.retain(|local| Arc::strong_count(local) > 1);
    all
}

/// Writes raw spans as JSON lines `{id, parent, name, thread, start_ns,
/// end_ns}`.
pub fn write_jsonl(path: &std::path::Path, spans: &[RawSpan]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, NAMES[s.name as usize], s.thread, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

/// A [`Store`] that opens a span around each call into the store under it.
/// Placed under the maps and under `KvService`, it makes `store.txn`,
/// `store.txn_batch` and `store.read_direct` child spans of the map op (or
/// top-level spans on a service worker thread), and the `TxOps` calls a
/// transaction body makes child spans of `tx.body`. With tracing off every
/// method forwards at once.
#[derive(Clone)]
pub struct TracedStore<S>(pub S);

struct TracedTx<'a>(&'a mut dyn TxOps);

impl TxOps for TracedTx<'_> {
    fn alloc(&mut self, size: u64, type_num: u32) -> KvResult<PMEMoid> {
        let _s = span(TX_ALLOC);
        self.0.alloc(size, type_num)
    }
    fn alloc_zeroed(&mut self, size: u64, type_num: u32) -> KvResult<PMEMoid> {
        let _s = span(TX_ALLOC);
        self.0.alloc_zeroed(size, type_num)
    }
    fn free(&mut self, oid: PMEMoid) -> KvResult<()> {
        let _s = span(TX_FREE);
        self.0.free(oid)
    }
    fn write_bytes(&mut self, oid: PMEMoid, off: u64, src: &[u8]) -> KvResult<()> {
        let _s = span(TX_WRITE);
        self.0.write_bytes(oid, off, src)
    }
    fn read_bytes(&mut self, oid: PMEMoid, off: u64, dst: &mut [u8]) -> KvResult<()> {
        let _s = span(TX_READ);
        self.0.read_bytes(oid, off, dst)
    }
}

impl<S: Store> Store for TracedStore<S> {
    fn uuid(&self) -> u64 {
        self.0.uuid()
    }

    fn txn_with_stats<R>(
        &self,
        f: &mut dyn FnMut(&mut dyn TxOps) -> KvResult<R>,
    ) -> KvResult<(R, TxStats)> {
        if !enabled() {
            return self.0.txn_with_stats(f);
        }
        let _s = span(STORE_TXN);
        self.0.txn_with_stats(&mut |tx| {
            let _b = span(TX_BODY);
            f(&mut TracedTx(tx))
        })
    }

    fn txn_batch(&self, ops: &mut [BatchOp<'_>]) -> Vec<KvResult<Option<u64>>> {
        if !enabled() {
            return self.0.txn_batch(ops);
        }
        let _s = span(STORE_TXN_BATCH);
        let mut wrapped: Vec<BatchOp<'_>> = ops
            .iter_mut()
            .map(|op| -> BatchOp<'_> {
                Box::new(move |tx| {
                    let _b = span(TX_BODY);
                    op(&mut TracedTx(tx))
                })
            })
            .collect();
        self.0.txn_batch(&mut wrapped)
    }

    fn bind_shard(&self, shard: usize) {
        self.0.bind_shard(shard);
    }

    fn read_direct(&self, oid: PMEMoid, off: u64, dst: &mut [u8]) -> KvResult<()> {
        let _s = span(STORE_READ);
        self.0.read_direct(oid, off, dst)
    }

    fn read_verified_direct(&self, oid: PMEMoid, off: u64, dst: &mut [u8]) -> KvResult<()> {
        let _s = span(STORE_READ);
        self.0.read_verified_direct(oid, off, dst)
    }

    fn last_tx_stats(&self) -> TxStats {
        self.0.last_tx_stats()
    }

    fn root(&self, size: u64, type_num: u32) -> KvResult<PMEMoid> {
        self.0.root(size, type_num)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, because the on/off switch and the collector are global.
    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        assert_eq!(NAMES.len(), N_NAMES);
        assert_eq!(NAMES[(MAP_OP + 3 * 2 + 2) as usize], "rtree.del");
        assert_eq!(NAMES[CALIBRATION as usize], "trace.calibration");
        {
            let _off = span(POOL_TX);
        }
        assert_eq!(take().of(POOL_TX).count, 0, "spans are not recorded while off");

        set_enabled(true);
        {
            let _outer = span(POOL_TX);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span(TX_BODY);
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
        }
        let worker = std::thread::spawn(|| {
            let _s = span(STORE_TXN);
        });
        worker.join().unwrap();
        set_enabled(false);

        let c = take();
        let (outer, inner) = (c.of(POOL_TX), c.of(TX_BODY));
        assert_eq!((outer.count, inner.count, c.of(STORE_TXN).count), (1, 1, 1));
        assert!(inner.total_ns >= 4_000_000 && inner.self_ns == inner.total_ns);
        assert!(outer.total_ns >= inner.total_ns + 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        let raw_inner = c.raw.iter().find(|s| s.name == TX_BODY).unwrap();
        let raw_outer = c.raw.iter().find(|s| s.name == POOL_TX).unwrap();
        assert_eq!(raw_inner.parent, raw_outer.id);
        assert_eq!(raw_outer.parent, 0);
        assert_ne!(c.raw.iter().find(|s| s.name == STORE_TXN).unwrap().thread, raw_outer.thread);

        let path =
            std::env::temp_dir().join(format!("bench_all-trace-{}.jsonl", std::process::id()));
        write_jsonl(&path, &c.raw).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            let v = crate::json::Json::parse(line).unwrap();
            assert!(v.get("name").is_some() && v.get("end_ns").is_some());
        }
    }
}
