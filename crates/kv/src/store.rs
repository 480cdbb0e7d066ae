//! Backend abstraction: the six data structures run unchanged over the
//! `libpmemobj` baseline, its replicated mode, and every Pangolin mode —
//! exactly how the paper rewrites the PMDK toolkit benchmarks once and
//! compares library configurations (Table 2).

use std::sync::Arc;

use parking_lot::Mutex;

use pangolin::typed::{Field, PArr, PObj, PType};
use pangolin::{PglError, PglPool};
use pgl_nvm::pod::{bytes_of, bytes_of_mut, zeroed, Pod};
use pgl_pmemobj::{ObjError, PMEMoid, PmemPool, TxStats, OID_NULL};

/// Errors from either backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvError {
    /// Baseline object-store error.
    Obj(ObjError),
    /// Pangolin error.
    Pgl(PglError),
    /// Structural invariant violation detected by a data structure.
    Corrupt(&'static str),
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::Obj(e) => write!(f, "{e}"),
            KvError::Pgl(e) => write!(f, "{e}"),
            KvError::Corrupt(s) => write!(f, "structure corrupt: {s}"),
        }
    }
}

impl std::error::Error for KvError {}

impl From<ObjError> for KvError {
    fn from(e: ObjError) -> Self {
        KvError::Obj(e)
    }
}

impl From<PglError> for KvError {
    fn from(e: PglError) -> Self {
        KvError::Pgl(e)
    }
}

/// Convenience alias.
pub type KvResult<T> = Result<T, KvError>;

/// Transaction operations the data structures use.
///
/// Both backends guarantee read-your-writes inside a transaction (Pangolin
/// through its micro-buffers, the baseline through direct stores).
pub trait TxOps {
    /// Allocates an object (content undefined until written).
    fn alloc(&mut self, size: u64, type_num: u32) -> KvResult<PMEMoid>;
    /// Allocates a zero-filled object.
    fn alloc_zeroed(&mut self, size: u64, type_num: u32) -> KvResult<PMEMoid>;
    /// Frees an object.
    fn free(&mut self, oid: PMEMoid) -> KvResult<()>;
    /// Writes bytes into an object.
    fn write_bytes(&mut self, oid: PMEMoid, off: u64, src: &[u8]) -> KvResult<()>;
    /// Reads bytes from an object.
    fn read_bytes(&mut self, oid: PMEMoid, off: u64, dst: &mut [u8]) -> KvResult<()>;
}

impl dyn TxOps + '_ {
    /// Typed field write (raw-offset escape hatch; prefer
    /// `write_at`).
    pub fn write_pod<T: Pod>(&mut self, oid: PMEMoid, off: u64, val: &T) -> KvResult<()> {
        self.write_bytes(oid, off, bytes_of(val))
    }

    /// Typed field read (raw-offset escape hatch; prefer
    /// `read_at`).
    pub fn read_pod<T: Pod>(&mut self, oid: PMEMoid, off: u64) -> KvResult<T> {
        let mut v = zeroed::<T>();
        self.read_bytes(oid, off, bytes_of_mut(&mut v))?;
        Ok(v)
    }

    // --- typed-object layer (mirrors `pangolin::typed` over both
    // backends; all helpers compile down to the object-safe core) ---

    /// Allocates a new `T` object initialized to `*init`.
    pub fn alloc_obj<T: PType>(&mut self, init: &T) -> KvResult<PObj<T>> {
        let oid = self.alloc(std::mem::size_of::<T>() as u64, T::TYPE_NUM)?;
        self.write_bytes(oid, 0, bytes_of(init))?;
        Ok(PObj::from_oid(oid))
    }

    /// Allocates a zero-filled `T` object (fields are written piecemeal
    /// afterwards, which keeps transaction write sizes minimal).
    pub fn alloc_obj_zeroed<T: PType>(&mut self) -> KvResult<PObj<T>> {
        let oid = self.alloc_zeroed(std::mem::size_of::<T>() as u64, T::TYPE_NUM)?;
        Ok(PObj::from_oid(oid))
    }

    /// Typed whole-object read (straight into a stack value — node-sized
    /// reads on the kv hot paths never touch the heap).
    pub fn get_obj<T: PType>(&mut self, h: PObj<T>) -> KvResult<T> {
        let mut v = zeroed::<T>();
        self.read_bytes(h.oid(), 0, bytes_of_mut(&mut v))?;
        Ok(v)
    }

    /// Typed whole-object write.
    pub fn set_obj<T: PType>(&mut self, h: PObj<T>, v: &T) -> KvResult<()> {
        self.write_bytes(h.oid(), 0, bytes_of(v))
    }

    /// Frees a typed object.
    pub fn free_obj<T: PType>(&mut self, h: PObj<T>) -> KvResult<()> {
        self.free(h.oid())
    }

    /// Typed field read through a [`field!`](pangolin::field) offset.
    pub fn read_at<T: PType, F: Pod>(&mut self, h: PObj<T>, fld: Field<T, F>) -> KvResult<F> {
        let mut v = zeroed::<F>();
        self.read_bytes(h.oid(), fld.offset(), bytes_of_mut(&mut v))?;
        Ok(v)
    }

    /// Typed field write; only `size_of::<F>()` bytes are logged, keeping
    /// Pangolin's incremental-checksum fast path for large structs.
    pub fn write_at<T: PType, F: Pod>(
        &mut self,
        h: PObj<T>,
        fld: Field<T, F>,
        v: &F,
    ) -> KvResult<()> {
        self.write_bytes(h.oid(), fld.offset(), bytes_of(v))
    }

    /// Allocates a zero-filled array of `len` elements of `T`.
    pub fn alloc_arr<T: Pod>(&mut self, len: u64, type_num: u32) -> KvResult<PArr<T>> {
        let oid = self.alloc_zeroed(len * std::mem::size_of::<T>() as u64, type_num)?;
        Ok(PArr::from_oid(oid))
    }

    /// Typed array-element read.
    pub fn arr_get<T: Pod>(&mut self, a: PArr<T>, i: u64) -> KvResult<T> {
        let mut v = zeroed::<T>();
        self.read_bytes(a.oid(), i * std::mem::size_of::<T>() as u64, bytes_of_mut(&mut v))?;
        Ok(v)
    }

    /// Typed array-element write.
    pub fn arr_set<T: Pod>(&mut self, a: PArr<T>, i: u64, v: &T) -> KvResult<()> {
        self.write_bytes(a.oid(), i * std::mem::size_of::<T>() as u64, bytes_of(v))
    }

    /// Frees an array object.
    pub fn free_arr<T: Pod>(&mut self, a: PArr<T>) -> KvResult<()> {
        self.free(a.oid())
    }
}

/// One logical transaction's work inside a batched (group) commit: each
/// body runs against the shared transaction and returns the service's
/// optional `u64` payload (a looked-up value, a PUT's old value, …).
///
/// See [`Store::txn_batch`].
pub type BatchOp<'a> = Box<dyn FnMut(&mut dyn TxOps) -> KvResult<Option<u64>> + 'a>;

/// A persistent object store a data structure can live in.
///
/// # Thread safety
///
/// `Store` is a **shared-handle** API: implementations are `Send + Sync`,
/// methods take `&self`, and the concrete stores ([`PmemStore`],
/// [`PglStore`]) are cheap `Arc`-backed clones of one pool. Any number of
/// threads may run transactions on clones (or references) of the same
/// store concurrently — each transaction claims its own lane and commits
/// under parity range-locks. The one rule is the paper's (§3.4): two
/// *concurrent* transactions must not modify the same object. Structures
/// in this crate are single-writer per map; run one map per thread (or add
/// external synchronization) for write-parallel workloads, as
/// [`crate::workload::concurrent_mixed_phase`] does.
///
/// ```
/// use std::sync::Arc;
/// use pangolin::typed::PObj;
/// use pangolin::{impl_ptype, PglConfig, PglPool};
/// use pgl_kv::store::{PglStore, Store};
/// use pgl_nvm::{DeviceConfig, NvmDevice};
///
/// #[derive(Clone, Copy, Default)]
/// #[repr(C)]
/// struct Slot {
///     owner: u64,
/// }
/// impl_ptype!(Slot, 8, 1);
///
/// let cfg = PglConfig::small();
/// let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
/// let store = PglStore::new(PglPool::create(dev, cfg).unwrap());
///
/// // Clones share one pool; every thread transacts independently.
/// std::thread::scope(|s| {
///     for t in 0..4u64 {
///         let store = store.clone();
///         s.spawn(move || {
///             let h: PObj<Slot> = store
///                 .txn(&mut |tx| tx.alloc_obj(&Slot { owner: t }))
///                 .unwrap();
///             assert_eq!(store.get_obj_direct(h).unwrap().owner, t);
///         });
///     }
/// });
/// ```
pub trait Store: Send + Sync {
    /// The pool UUID (embedded in OIDs).
    fn uuid(&self) -> u64;

    /// Runs `f` transactionally; `Ok` commits, `Err` aborts.
    fn txn<R>(&self, f: &mut dyn FnMut(&mut dyn TxOps) -> KvResult<R>) -> KvResult<R> {
        self.txn_with_stats(f).map(|(r, _)| r)
    }

    /// Like [`Store::txn`] but also returns instrumentation counters
    /// (Table 3's New/Mod quantities).
    fn txn_with_stats<R>(
        &self,
        f: &mut dyn FnMut(&mut dyn TxOps) -> KvResult<R>,
    ) -> KvResult<(R, TxStats)>;

    /// Runs every body in `ops` transactionally, returning per-body
    /// results in order — the group-commit entry point the network
    /// service's batcher drives.
    ///
    /// The default implementation runs one transaction per body (the
    /// unbatched baseline). [`PglStore`] overrides it to commit the whole
    /// batch as **one** Pangolin transaction — one redo-log persist, one
    /// commit fence, one parity-patch window for the batch — falling back
    /// to per-body transactions if the batched attempt fails, so error
    /// isolation matches the default exactly. Either way, a body only
    /// reports `Ok` once its effects are (or will atomically become)
    /// durable, and a crash never exposes a partially applied body.
    fn txn_batch(&self, ops: &mut [BatchOp<'_>]) -> Vec<KvResult<Option<u64>>> {
        ops.iter_mut().map(|op| self.txn(&mut |tx| op(tx))).collect()
    }

    /// Pins the calling thread's allocations to one of the backing
    /// pool's parity shards (a service worker thread calls this once at
    /// startup with its shard index, so its group commits stay inside
    /// one parity domain and never pay the cross-shard commit protocol).
    /// Backends without parity shards ignore it.
    fn bind_shard(&self, _shard: usize) {}

    /// Direct (transaction-free) read — `pgl_get`-style for Pangolin,
    /// a plain DAX load for the baseline.
    fn read_direct(&self, oid: PMEMoid, off: u64, dst: &mut [u8]) -> KvResult<()>;

    /// Direct read with verification coverage where the backend has any:
    /// Pangolin serves it through the range-granular verified read path
    /// (one range-sized NVMM read on a verified-generation cache hit, one
    /// whole-object verification on a miss); the checksum-less baseline
    /// falls back to a plain read.
    fn read_verified_direct(&self, oid: PMEMoid, off: u64, dst: &mut [u8]) -> KvResult<()> {
        self.read_direct(oid, off, dst)
    }

    /// Counters of the most recently committed transaction on this handle
    /// (single-threaded instrumentation helper for the Table 3 harness).
    fn last_tx_stats(&self) -> TxStats;

    /// Typed direct read (raw-offset escape hatch; prefer
    /// [`Store::read_at_direct`]).
    fn read_pod_direct<T: Pod>(&self, oid: PMEMoid, off: u64) -> KvResult<T>
    where
        Self: Sized,
    {
        let mut v = zeroed::<T>();
        self.read_direct(oid, off, bytes_of_mut(&mut v))?;
        Ok(v)
    }

    /// Typed direct whole-object read.
    fn get_obj_direct<T: PType>(&self, h: PObj<T>) -> KvResult<T>
    where
        Self: Sized,
    {
        self.read_pod_direct(h.oid(), 0)
    }

    /// Typed direct whole-object read with verification coverage (see
    /// [`Store::read_verified_direct`]); no heap buffer either way.
    fn get_obj_verified<T: PType>(&self, h: PObj<T>) -> KvResult<T>
    where
        Self: Sized,
    {
        let mut v = zeroed::<T>();
        self.read_verified_direct(h.oid(), 0, bytes_of_mut(&mut v))?;
        Ok(v)
    }

    /// Typed direct field read through a [`field!`](pangolin::field)
    /// offset.
    fn read_at_direct<T: PType, F: Pod>(&self, h: PObj<T>, fld: Field<T, F>) -> KvResult<F>
    where
        Self: Sized,
    {
        self.read_pod_direct(h.oid(), fld.offset())
    }

    /// Typed direct array-element read.
    fn arr_get_direct<T: Pod>(&self, a: PArr<T>, i: u64) -> KvResult<T>
    where
        Self: Sized,
    {
        self.read_pod_direct(a.oid(), i * std::mem::size_of::<T>() as u64)
    }

    /// Returns (and on first use creates) the pool root object of `size`
    /// bytes.
    fn root(&self, size: u64, type_num: u32) -> KvResult<PMEMoid>;

    /// Returns (and on first use creates) the typed pool root.
    fn typed_root<T: PType>(&self) -> KvResult<PObj<T>>
    where
        Self: Sized,
    {
        Ok(PObj::from_oid(self.root(std::mem::size_of::<T>() as u64, T::TYPE_NUM)?))
    }
}

// ---------------------------------------------------------------------
// Baseline backend
// ---------------------------------------------------------------------

/// The `libpmemobj`-style backend (plain or replicated pool).
#[derive(Clone)]
pub struct PmemStore {
    pool: Arc<PmemPool>,
    last: Arc<Mutex<TxStats>>,
}

impl PmemStore {
    /// Wraps a pool.
    pub fn new(pool: Arc<PmemPool>) -> Self {
        PmemStore { pool, last: Arc::new(Mutex::new(TxStats::default())) }
    }

    /// The wrapped pool.
    pub fn pool(&self) -> &PmemPool {
        &self.pool
    }
}

struct PmemTxOps<'a, 'p>(&'a mut pgl_pmemobj::Tx<'p>);

impl TxOps for PmemTxOps<'_, '_> {
    fn alloc(&mut self, size: u64, type_num: u32) -> KvResult<PMEMoid> {
        Ok(self.0.alloc(size, type_num)?)
    }
    fn alloc_zeroed(&mut self, size: u64, type_num: u32) -> KvResult<PMEMoid> {
        Ok(self.0.alloc_zeroed(size, type_num)?)
    }
    fn free(&mut self, oid: PMEMoid) -> KvResult<()> {
        Ok(self.0.free(oid)?)
    }
    fn write_bytes(&mut self, oid: PMEMoid, off: u64, src: &[u8]) -> KvResult<()> {
        Ok(self.0.write(oid, off, src)?)
    }
    fn read_bytes(&mut self, oid: PMEMoid, off: u64, dst: &mut [u8]) -> KvResult<()> {
        Ok(self.0.read(oid, off, dst)?)
    }
}

impl Store for PmemStore {
    fn uuid(&self) -> u64 {
        self.pool.uuid()
    }

    fn txn_with_stats<R>(
        &self,
        f: &mut dyn FnMut(&mut dyn TxOps) -> KvResult<R>,
    ) -> KvResult<(R, TxStats)> {
        let mut kv_err: Option<KvError> = None;
        let result = self.pool.tx_with_stats(|tx| {
            let mut ops = PmemTxOps(tx);
            match f(&mut ops) {
                Ok(r) => Ok(r),
                Err(e) => {
                    let msg = e.to_string();
                    kv_err = Some(e);
                    Err(ObjError::Aborted(msg))
                }
            }
        });
        match result {
            Ok(pair) => {
                *self.last.lock() = pair.1;
                Ok(pair)
            }
            Err(e) => Err(kv_err.unwrap_or(KvError::Obj(e))),
        }
    }

    fn read_direct(&self, oid: PMEMoid, off: u64, dst: &mut [u8]) -> KvResult<()> {
        Ok(self.pool.read(oid, off, dst)?)
    }

    fn last_tx_stats(&self) -> TxStats {
        *self.last.lock()
    }

    fn root(&self, size: u64, type_num: u32) -> KvResult<PMEMoid> {
        Ok(self.pool.root(size, type_num)?)
    }
}

// ---------------------------------------------------------------------
// Pangolin backend
// ---------------------------------------------------------------------

/// The Pangolin backend (any [`pangolin::PglMode`]).
#[derive(Clone)]
pub struct PglStore {
    pool: PglPool,
    last: Arc<Mutex<TxStats>>,
}

impl PglStore {
    /// Wraps a pool.
    pub fn new(pool: PglPool) -> Self {
        PglStore { pool, last: Arc::new(Mutex::new(TxStats::default())) }
    }

    /// The wrapped pool.
    pub fn pool(&self) -> &PglPool {
        &self.pool
    }
}

struct PglTxOps<'a, 'p>(&'a mut pangolin::PglTx<'p>);

impl TxOps for PglTxOps<'_, '_> {
    fn alloc(&mut self, size: u64, type_num: u32) -> KvResult<PMEMoid> {
        Ok(self.0.alloc(size, type_num)?)
    }
    fn alloc_zeroed(&mut self, size: u64, type_num: u32) -> KvResult<PMEMoid> {
        // Pangolin allocations are zero-filled micro-buffers already.
        Ok(self.0.alloc(size, type_num)?)
    }
    fn free(&mut self, oid: PMEMoid) -> KvResult<()> {
        Ok(self.0.free(oid)?)
    }
    fn write_bytes(&mut self, oid: PMEMoid, off: u64, src: &[u8]) -> KvResult<()> {
        Ok(self.0.write(oid, off, src)?)
    }
    fn read_bytes(&mut self, oid: PMEMoid, off: u64, dst: &mut [u8]) -> KvResult<()> {
        Ok(self.0.read(oid, off, dst)?)
    }
}

impl Store for PglStore {
    fn uuid(&self) -> u64 {
        self.pool.uuid()
    }

    fn bind_shard(&self, shard: usize) {
        self.pool.bind_thread_to_shard(shard);
    }

    fn txn_with_stats<R>(
        &self,
        f: &mut dyn FnMut(&mut dyn TxOps) -> KvResult<R>,
    ) -> KvResult<(R, TxStats)> {
        let mut kv_err: Option<KvError> = None;
        let result = self.pool.tx_with_stats(|tx| {
            let mut ops = PglTxOps(tx);
            match f(&mut ops) {
                Ok(r) => Ok(r),
                Err(e) => {
                    let msg = e.to_string();
                    kv_err = Some(e);
                    Err(PglError::unrecoverable(msg))
                }
            }
        });
        match result {
            Ok(pair) => {
                *self.last.lock() = pair.1;
                Ok(pair)
            }
            Err(e) => Err(kv_err.unwrap_or(KvError::Pgl(e))),
        }
    }

    fn txn_batch(&self, ops: &mut [BatchOp<'_>]) -> Vec<KvResult<Option<u64>>> {
        if ops.len() < 2 {
            return ops.iter_mut().map(|op| self.txn(&mut |tx| op(tx))).collect();
        }
        let batched = self.pool.tx_batch(ops.len(), |i, tx| {
            let mut w = PglTxOps(tx);
            (ops[i])(&mut w).map_err(|e| PglError::unrecoverable(e.to_string()))
        });
        match batched {
            Ok(results) => results.into_iter().map(Ok).collect(),
            // The all-or-nothing batch aborted and rolled every body's
            // effects back; re-run the bodies as individual transactions
            // so per-body errors come out exactly as unbatched.
            Err(_) => ops.iter_mut().map(|op| self.txn(&mut |tx| op(tx))).collect(),
        }
    }

    fn read_direct(&self, oid: PMEMoid, off: u64, dst: &mut [u8]) -> KvResult<()> {
        Ok(self.pool.read(oid, off, dst)?)
    }

    fn read_verified_direct(&self, oid: PMEMoid, off: u64, dst: &mut [u8]) -> KvResult<()> {
        Ok(self.pool.read_verified_at(oid, off, dst)?)
    }

    fn last_tx_stats(&self) -> TxStats {
        *self.last.lock()
    }

    fn root(&self, size: u64, type_num: u32) -> KvResult<PMEMoid> {
        Ok(self.pool.root(size, type_num)?)
    }
}

/// The pool-id tag marking a slot that carries an inline value instead of
/// an object pointer (no real pool ever has this uuid).
const INLINE_TAG: u64 = u64::MAX;

/// A persistent 16-byte slot that holds either an **inline `u64` value**
/// or a **typed object handle** — the paper's data structures (e.g. the
/// crit-bit tree) store `PMEMoid`-shaped slots that serve both roles.
///
/// Historically this was smuggled through a fake `PMEMoid` with a sentinel
/// pool id; `ValueSlot` keeps that bit-compatible encoding but only lets
/// callers in and out through the type-checked [`ValueRef`] enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(transparent)]
pub struct ValueSlot {
    raw: PMEMoid,
}

// SAFETY: `#[repr(transparent)]` over `PMEMoid` (Pod, 16 bytes, any bit
// pattern valid).
unsafe impl Pod for ValueSlot {}

/// The decoded content of a [`ValueSlot`].
pub enum ValueRef<T: Pod> {
    /// Empty slot.
    Null,
    /// An inline `u64` value (a leaf).
    Inline(u64),
    /// A typed pointer to a `T` object (an interior node).
    Obj(PObj<T>),
}

impl<T: Pod> Clone for ValueRef<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Pod> Copy for ValueRef<T> {}

impl ValueSlot {
    /// The empty slot.
    pub const NULL: ValueSlot = ValueSlot { raw: OID_NULL };

    /// Encodes an inline value.
    pub fn inline(v: u64) -> Self {
        ValueSlot { raw: PMEMoid::new(INLINE_TAG, v) }
    }

    /// Encodes a typed object pointer.
    pub fn obj<T: Pod>(h: PObj<T>) -> Self {
        ValueSlot { raw: h.oid() }
    }

    /// `true` for the empty slot.
    pub fn is_null(self) -> bool {
        self.raw.is_null()
    }

    /// Decodes the slot, branding any object pointer as a `T` handle.
    pub fn decode<T: Pod>(self) -> ValueRef<T> {
        if self.raw.is_null() {
            ValueRef::Null
        } else if self.raw.pool == INLINE_TAG {
            ValueRef::Inline(self.raw.off)
        } else {
            ValueRef::Obj(PObj::from_oid(self.raw))
        }
    }

    /// The inline value, if the slot holds one.
    pub fn inline_value(self) -> Option<u64> {
        match self.decode::<u64>() {
            ValueRef::Inline(v) => Some(v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pangolin::PglConfig;
    use pgl_nvm::{DeviceConfig, NvmDevice};
    use pgl_pmemobj::PoolConfig;

    fn pmem_store() -> PmemStore {
        let cfg = PoolConfig::small();
        let dev = Arc::new(NvmDevice::new(cfg.size, DeviceConfig::fast()).unwrap());
        PmemStore::new(Arc::new(PmemPool::create(dev, cfg).unwrap()))
    }

    fn pgl_store() -> PglStore {
        let cfg = PglConfig::small();
        let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
        PglStore::new(PglPool::create(dev, cfg).unwrap())
    }

    #[derive(Clone, Copy, Default, PartialEq, Debug)]
    #[repr(C)]
    struct Cell {
        a: u64,
        b: u64,
    }
    pangolin::impl_ptype!(Cell, 16, 1);

    fn exercise<S: Store>(s: &S) {
        let h = s
            .txn(&mut |tx| {
                let h = tx.alloc_obj_zeroed::<Cell>()?;
                tx.write_at(h, pangolin::field!(Cell, a: u64), &42u64)?;
                Ok(h)
            })
            .unwrap();
        assert_eq!(s.get_obj_direct(h).unwrap(), Cell { a: 42, b: 0 });
        s.txn(&mut |tx| tx.set_obj(h, &Cell { a: 1, b: 2 })).unwrap();
        assert_eq!(s.read_at_direct(h, pangolin::field!(Cell, b: u64)).unwrap(), 2);

        // Error propagation keeps the original KvError.
        let err = s.txn(&mut |_tx| -> KvResult<()> { Err(KvError::Corrupt("synthetic")) });
        assert_eq!(err, Err(KvError::Corrupt("synthetic")));

        // Root is stable, typed or raw.
        let r1 = s.typed_root::<Cell>().unwrap();
        let r2 = s.typed_root::<Cell>().unwrap();
        assert_eq!(r1, r2);

        // Arrays round-trip element-wise.
        let arr = s
            .txn(&mut |tx| {
                let arr = tx.alloc_arr::<u64>(8, 3)?;
                tx.arr_set(arr, 5, &555u64)?;
                Ok(arr)
            })
            .unwrap();
        assert_eq!(s.arr_get_direct(arr, 5).unwrap(), 555);
        assert_eq!(s.arr_get_direct::<u64>(arr, 0).unwrap(), 0);
    }

    #[test]
    fn both_backends_expose_identical_semantics() {
        exercise(&pmem_store());
        exercise(&pgl_store());
    }

    #[test]
    fn value_slots_tag_and_roundtrip() {
        let v = ValueSlot::inline(777);
        assert_eq!(v.inline_value(), Some(777));
        assert!(!v.is_null());
        assert!(ValueSlot::NULL.is_null());
        assert!(matches!(ValueSlot::NULL.decode::<Cell>(), ValueRef::Null));

        let h = PObj::<Cell>::from_oid(PMEMoid::new(3, 4096));
        let s = ValueSlot::obj(h);
        assert_eq!(s.inline_value(), None);
        match s.decode::<Cell>() {
            ValueRef::Obj(back) => assert_eq!(back, h),
            _ => panic!("expected an object slot"),
        }
    }
}
