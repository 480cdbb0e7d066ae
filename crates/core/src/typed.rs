//! Typed persistent objects: `PObj<T>` handles over the raw oid engine.
//!
//! The raw Pangolin interface mirrors `libpmemobj`: untyped [`PMEMoid`]s
//! plus hand-computed byte offsets (`tx.write_pod(oid, 24, &v)`). That
//! model is error-prone — nothing stops a caller from reading a `u64` out
//! of the middle of some other struct's field. This module layers a thin,
//! zero-cost typed API on top:
//!
//! * [`PObj<T>`] — a copy-cheap typed handle: a [`PMEMoid`] branded with
//!   `PhantomData<T>`. `PObj<T>` is itself [`Pod`], so persistent structs
//!   can embed typed pointers (`next: PObj<Node>`) that survive reopen.
//! * [`PType`] — associates an allocator `TYPE_NUM` with a [`Pod`] struct,
//!   so allocations and typed roots need no loose `(size, type_num)` pairs.
//! * [`Field`] and the [`field!`](crate::field) macro — compile-time-typed
//!   field offsets, so partial updates of large structs keep the
//!   incremental-checksum fast path instead of rewriting whole objects.
//! * [`PArr<T>`] — a typed handle to a variable-length array object
//!   (element-indexed, no manual `i * size_of` arithmetic).
//!
//! All typed operations are built on the public raw interface
//! ([`PglTx::write`], [`PglTx::read`], …), which is what makes them
//! zero-cost: release builds compile down to exactly the raw calls.
//! Debug builds additionally verify the handle's brand against the object
//! header (size and `type_num`), catching cross-type aliasing early.
//!
//! The raw interface remains public and documented as the low-level escape
//! hatch (see `examples/quickstart_raw.rs`).
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use pangolin::typed::PObj;
//! use pangolin::{field, impl_ptype, PglConfig, PglPool};
//! use pgl_nvm::{DeviceConfig, NvmDevice};
//!
//! #[derive(Clone, Copy, Default)]
//! #[repr(C)]
//! struct Counter {
//!     hits: u64,
//!     misses: u64,
//! }
//! impl_ptype!(Counter, 16, 42);
//!
//! let cfg = PglConfig::small();
//! let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
//! let pool = PglPool::create(dev, cfg).unwrap();
//!
//! // Allocate a typed object and mutate it through typed transactions.
//! let c: PObj<Counter> = pool.tx(|tx| tx.alloc_obj(&Counter::default())).unwrap();
//! pool.tx(|tx| tx.update(c, |v| v.hits += 1)).unwrap();
//! // Partial update of one field: only 8 bytes are logged and re-summed.
//! pool.tx(|tx| tx.update_at(c, field!(Counter, misses: u64), |m| *m += 3)).unwrap();
//!
//! let v = pool.get_obj(c).unwrap();
//! assert_eq!((v.hits, v.misses), (1, 3));
//! ```

use std::marker::PhantomData;

use pgl_nvm::pod::{bytes_of, Pod};
use pgl_pmemobj::{PMEMoid, OID_NULL};

use crate::error::{PglError, Result};
use crate::pool::PglPool;
use crate::txn::PglTx;

/// A [`Pod`] type with a registered allocator type number.
///
/// Implement it with [`impl_ptype!`](crate::impl_ptype), which also
/// asserts the no-padding size contract of [`Pod`]:
///
/// ```
/// use pangolin::impl_ptype;
///
/// #[derive(Clone, Copy)]
/// #[repr(C)]
/// struct Node {
///     key: u64,
///     val: u64,
/// }
/// impl_ptype!(Node, 16, 7);
/// ```
pub trait PType: Pod {
    /// Allocator type number recorded in the object header; typed reads
    /// debug-assert it matches.
    const TYPE_NUM: u32;
}

/// Implements [`Pod`] (via [`impl_pod!`](crate::impl_pod), with its
/// compile-time size assertion) and [`PType`] for a `#[repr(C)]` struct.
///
/// `impl_ptype!(Ty, SIZE, TYPE_NUM)` declares that `Ty` is `SIZE` bytes
/// with no padding and that its objects carry allocator type `TYPE_NUM`.
#[macro_export]
macro_rules! impl_ptype {
    ($ty:ty, $size:expr, $type_num:expr) => {
        $crate::impl_pod!($ty, $size);
        impl $crate::typed::PType for $ty {
            const TYPE_NUM: u32 = $type_num;
        }
    };
}

/// A typed, compile-time-checked field offset inside a persistent struct.
///
/// Produced by the [`field!`](crate::field) macro; consumed by
/// [`PglTx::read_at`], [`PglTx::write_at`] and [`PglTx::update_at`].
pub struct Field<T, F> {
    off: u64,
    _marker: PhantomData<fn(T) -> F>,
}

impl<T, F> Clone for Field<T, F> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T, F> Copy for Field<T, F> {}

impl<T, F> Field<T, F> {
    /// Builds a field from a raw byte offset. Prefer the
    /// [`field!`](crate::field) macro, which derives the offset and checks
    /// the field type at compile time.
    pub const fn new(off: u64) -> Self {
        Field { off, _marker: PhantomData }
    }

    /// Byte offset of the field from the start of the struct.
    pub const fn offset(&self) -> u64 {
        self.off
    }
}

impl<T, E: Pod, const N: usize> Field<T, [E; N]> {
    /// Narrows an array field to one element (`fld.index(i)` is the typed
    /// spelling of `off + i * size_of::<E>()`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= N`.
    pub const fn index(self, i: usize) -> Field<T, E> {
        assert!(i < N, "array field index out of bounds");
        Field::new(self.off + (i * std::mem::size_of::<E>()) as u64)
    }
}

/// Builds a typed [`Field`] from a struct field path:
/// `field!(Struct, path.to.field: FieldType)`.
///
/// The offset comes from [`std::mem::offset_of!`]; the declared
/// `FieldType` is verified against the actual field type at compile time,
/// so a layout refactor cannot silently desynchronize readers.
///
/// ```
/// use pangolin::typed::Field;
/// use pangolin::{field, impl_ptype};
///
/// #[derive(Clone, Copy)]
/// #[repr(C)]
/// struct Pair {
///     a: u64,
///     b: [u32; 4],
/// }
/// impl_ptype!(Pair, 24, 9);
///
/// let b: Field<Pair, [u32; 4]> = field!(Pair, b: [u32; 4]);
/// assert_eq!(b.offset(), 8);
/// assert_eq!(b.index(2).offset(), 16);
/// ```
#[macro_export]
macro_rules! field {
    ($ty:ty, $($f:ident).+ : $fty:ty) => {{
        // Compile-time check that the path really has the declared type.
        const _: fn(&$ty) -> &$fty = |s: &$ty| {
            $(let s = &s.$f;)+
            s
        };
        $crate::typed::Field::<$ty, $fty>::new(
            ::std::mem::offset_of!($ty, $($f).+) as u64,
        )
    }};
}

/// A typed handle to one persistent object of type `T`.
///
/// Wraps a [`PMEMoid`] with a `PhantomData<T>` brand. The handle is 16
/// bytes, `Copy`, and itself [`Pod`], so persistent structs can store
/// typed pointers to each other. The brand is advisory at the bits level
/// (NVMM cannot enforce types) but every typed accessor debug-asserts the
/// object header's size and `type_num` against `T`.
#[repr(transparent)]
pub struct PObj<T: Pod> {
    oid: PMEMoid,
    _ty: PhantomData<fn() -> T>,
}

impl<T: Pod> Clone for PObj<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Pod> Copy for PObj<T> {}
impl<T: Pod> PartialEq for PObj<T> {
    fn eq(&self, other: &Self) -> bool {
        self.oid == other.oid
    }
}
impl<T: Pod> Eq for PObj<T> {}
impl<T: Pod> std::hash::Hash for PObj<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.oid.hash(state);
    }
}
impl<T: Pod> Default for PObj<T> {
    fn default() -> Self {
        Self::null()
    }
}
impl<T: Pod> std::fmt::Debug for PObj<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PObj<{}>({:#x}@{:#x})", std::any::type_name::<T>(), self.oid.off, self.oid.pool)
    }
}

// SAFETY: `#[repr(transparent)]` over `PMEMoid` (itself Pod, 16 bytes, no
// padding, any bit pattern valid); `PhantomData` is zero-sized.
unsafe impl<T: Pod> Pod for PObj<T> {}

impl<T: Pod> PObj<T> {
    /// The null handle.
    pub const fn null() -> Self {
        PObj { oid: OID_NULL, _ty: PhantomData }
    }

    /// Brands a raw OID as a `T` handle (the raw↔typed escape hatch; the
    /// brand is trusted here and debug-verified on every typed access).
    pub const fn from_oid(oid: PMEMoid) -> Self {
        PObj { oid, _ty: PhantomData }
    }

    /// The underlying raw OID.
    pub const fn oid(&self) -> PMEMoid {
        self.oid
    }

    /// `true` for the null handle.
    pub const fn is_null(&self) -> bool {
        self.oid.is_null()
    }
}

/// A typed handle to a persistent array object of `T` elements.
///
/// Unlike [`PObj`], the element count is a run-time property (read back
/// from the object header), which fits variable-size structures such as a
/// hash table that doubles. Like `PObj`, the handle is `Pod` and can be
/// embedded in persistent structs.
#[repr(transparent)]
pub struct PArr<T: Pod> {
    oid: PMEMoid,
    _ty: PhantomData<fn() -> T>,
}

impl<T: Pod> Clone for PArr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Pod> Copy for PArr<T> {}
impl<T: Pod> PartialEq for PArr<T> {
    fn eq(&self, other: &Self) -> bool {
        self.oid == other.oid
    }
}
impl<T: Pod> Eq for PArr<T> {}
impl<T: Pod> Default for PArr<T> {
    fn default() -> Self {
        Self::null()
    }
}
impl<T: Pod> std::fmt::Debug for PArr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PArr<{}>({:#x}@{:#x})", std::any::type_name::<T>(), self.oid.off, self.oid.pool)
    }
}

// SAFETY: as for `PObj<T>` — transparent over `PMEMoid`.
unsafe impl<T: Pod> Pod for PArr<T> {}

impl<T: Pod> PArr<T> {
    /// The null handle.
    pub const fn null() -> Self {
        PArr { oid: OID_NULL, _ty: PhantomData }
    }

    /// Brands a raw OID as an array-of-`T` handle.
    pub const fn from_oid(oid: PMEMoid) -> Self {
        PArr { oid, _ty: PhantomData }
    }

    /// The underlying raw OID.
    pub const fn oid(&self) -> PMEMoid {
        self.oid
    }

    /// `true` for the null handle.
    pub const fn is_null(&self) -> bool {
        self.oid.is_null()
    }

    /// Byte offset of element `i`.
    pub(crate) const fn elem_off(i: u64) -> u64 {
        i * std::mem::size_of::<T>() as u64
    }
}

const fn size_of_u64<T>() -> u64 {
    std::mem::size_of::<T>() as u64
}

// ---------------------------------------------------------------------
// Typed transaction interface
// ---------------------------------------------------------------------

impl PglTx<'_> {
    /// Allocates a new `T` object initialized to `*init`
    /// (micro-buffered; nothing reaches NVMM before commit).
    pub fn alloc_obj<T: PType>(&mut self, init: &T) -> Result<PObj<T>> {
        let oid = self.alloc(size_of_u64::<T>(), T::TYPE_NUM)?;
        self.write(oid, 0, bytes_of(init))?;
        Ok(PObj::from_oid(oid))
    }

    /// Typed whole-object read (`pgl_get`): micro-buffered content when the
    /// object is open in this transaction, a direct NVMM read otherwise.
    pub fn get<T: PType>(&self, h: PObj<T>) -> Result<T> {
        self.typed_check(h.oid(), size_of_u64::<T>(), Some(T::TYPE_NUM))?;
        self.read_pod(h.oid(), 0)
    }

    /// Typed whole-object store: replaces the object's content with `*v`.
    pub fn set<T: PType>(&mut self, h: PObj<T>, v: &T) -> Result<()> {
        self.typed_check(h.oid(), size_of_u64::<T>(), Some(T::TYPE_NUM))?;
        self.write(h.oid(), 0, bytes_of(v))
    }

    /// Read-modify-write of a whole object: snapshots it into its
    /// micro-buffer (verifying the checksum), applies `f`, and stages the
    /// result for commit. Returns the post-mutation value.
    ///
    /// For large structs prefer [`PglTx::update_at`], which logs and
    /// re-checksums only the touched field.
    pub fn update<T: PType>(&mut self, h: PObj<T>, f: impl FnOnce(&mut T)) -> Result<T> {
        self.typed_check(h.oid(), size_of_u64::<T>(), Some(T::TYPE_NUM))?;
        self.open(h.oid())?;
        let mut v: T = self.read_pod(h.oid(), 0)?;
        f(&mut v);
        self.write(h.oid(), 0, bytes_of(&v))?;
        Ok(v)
    }

    /// Frees a typed object.
    pub fn free_obj<T: PType>(&mut self, h: PObj<T>) -> Result<()> {
        self.typed_check(h.oid(), size_of_u64::<T>(), Some(T::TYPE_NUM))?;
        self.free(h.oid())
    }

    /// Typed field read (see [`field!`](crate::field)).
    pub fn read_at<T: PType, F: Pod>(&self, h: PObj<T>, fld: Field<T, F>) -> Result<F> {
        self.typed_check(h.oid(), size_of_u64::<T>(), Some(T::TYPE_NUM))?;
        self.read_pod(h.oid(), fld.offset())
    }

    /// Typed field store: marks and logs only `size_of::<F>()` bytes, so
    /// the incremental-checksum fast path applies no matter how large `T`
    /// is.
    pub fn write_at<T: PType, F: Pod>(
        &mut self,
        h: PObj<T>,
        fld: Field<T, F>,
        v: &F,
    ) -> Result<()> {
        self.typed_check(h.oid(), size_of_u64::<T>(), Some(T::TYPE_NUM))?;
        self.write(h.oid(), fld.offset(), bytes_of(v))
    }

    /// Read-modify-write of one field; the partial-update analogue of
    /// [`PglTx::update`]. Returns the post-mutation field value.
    pub fn update_at<T: PType, F: Pod>(
        &mut self,
        h: PObj<T>,
        fld: Field<T, F>,
        f: impl FnOnce(&mut F),
    ) -> Result<F> {
        let mut v: F = self.read_at(h, fld)?;
        f(&mut v);
        self.write_at(h, fld, &v)?;
        Ok(v)
    }

    /// Allocates a zero-filled array of `len` elements of `T` under
    /// `type_num` (arrays are sized at run time, so they carry an explicit
    /// type number instead of a [`PType`] impl).
    pub fn alloc_arr<T: Pod>(&mut self, len: u64, type_num: u32) -> Result<PArr<T>> {
        let oid = self.alloc(len * size_of_u64::<T>(), type_num)?;
        Ok(PArr::from_oid(oid))
    }

    /// Number of elements in the array object.
    pub fn arr_len<T: Pod>(&self, a: PArr<T>) -> Result<u64> {
        Ok(self.obj_size(a.oid())? / size_of_u64::<T>())
    }

    /// Typed element read (debug builds bounds-check the index against
    /// the stored array length).
    pub fn arr_get<T: Pod>(&self, a: PArr<T>, i: u64) -> Result<T> {
        self.typed_check(a.oid(), 0, None)?;
        #[cfg(debug_assertions)]
        {
            let len = self.arr_len(a)?;
            debug_assert!(i < len, "array index {i} out of bounds (len {len})");
        }
        self.read_pod(a.oid(), PArr::<T>::elem_off(i))
    }

    /// Typed element store (logs only one element's bytes; debug builds
    /// bounds-check the index).
    pub fn arr_set<T: Pod>(&mut self, a: PArr<T>, i: u64, v: &T) -> Result<()> {
        self.typed_check(a.oid(), 0, None)?;
        #[cfg(debug_assertions)]
        {
            let len = self.arr_len(a)?;
            debug_assert!(i < len, "array index {i} out of bounds (len {len})");
        }
        self.write(a.oid(), PArr::<T>::elem_off(i), bytes_of(v))
    }

    /// Frees an array object.
    pub fn free_arr<T: Pod>(&mut self, a: PArr<T>) -> Result<()> {
        self.free(a.oid())
    }
}

// ---------------------------------------------------------------------
// Typed pool interface
// ---------------------------------------------------------------------

impl PglPool {
    /// Debug-build brand check for the pool-level typed accessors, the
    /// counterpart of the transaction-level check (release builds compile
    /// it out; see the module docs).
    #[cfg_attr(not(debug_assertions), allow(unused_variables))]
    fn typed_check_pool(&self, oid: PMEMoid, size: u64, type_num: Option<u32>) -> Result<()> {
        #[cfg(debug_assertions)]
        {
            let (actual_size, actual_ty) = self.obj_meta(oid)?;
            if size != 0 {
                debug_assert!(
                    actual_size == size && type_num.is_none_or(|t| t == actual_ty),
                    "typed handle mismatch: object at {:#x} is {} bytes of type {}, \
                     the handle expects {} bytes of type {:?}",
                    oid.off,
                    actual_size,
                    actual_ty,
                    size,
                    type_num
                );
            }
        }
        Ok(())
    }

    /// Returns the typed root object, allocating a zeroed one on first
    /// use. The root anchors an application's object graph across reopens:
    ///
    /// ```
    /// use std::sync::Arc;
    /// use pangolin::typed::PObj;
    /// use pangolin::{impl_ptype, PglConfig, PglPool};
    /// use pgl_nvm::{DeviceConfig, NvmDevice};
    ///
    /// #[derive(Clone, Copy, Default)]
    /// #[repr(C)]
    /// struct Meta {
    ///     generation: u64,
    /// }
    /// impl_ptype!(Meta, 8, 1);
    ///
    /// let cfg = PglConfig::small();
    /// let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
    /// let pool = PglPool::create(dev.clone(), cfg).unwrap();
    ///
    /// let root: PObj<Meta> = pool.typed_root().unwrap();
    /// pool.tx(|tx| tx.update(root, |m| m.generation += 1)).unwrap();
    /// drop(pool);
    ///
    /// // Reopen: the same typed root comes back.
    /// let pool = PglPool::options().open(dev).unwrap();
    /// let root: PObj<Meta> = pool.typed_root().unwrap();
    /// assert_eq!(pool.get_obj(root).unwrap().generation, 1);
    /// ```
    pub fn typed_root<T: PType>(&self) -> Result<PObj<T>> {
        let oid = self.root(size_of_u64::<T>(), T::TYPE_NUM)?;
        Ok(PObj::from_oid(oid))
    }

    /// Returns the current typed root, or `None` when no root has been
    /// allocated yet (never allocates).
    pub fn root_obj<T: PType>(&self) -> Result<Option<PObj<T>>> {
        let oid = self.root_oid()?;
        Ok((!oid.is_null()).then(|| PObj::from_oid(oid)))
    }

    /// Typed direct read (`pgl_get`): no checksum verification under the
    /// default policy; media errors still recover online.
    pub fn get_obj<T: PType>(&self, h: PObj<T>) -> Result<T> {
        self.typed_check_pool(h.oid(), size_of_u64::<T>(), Some(T::TYPE_NUM))?;
        self.read_pod(h.oid(), 0)
    }

    /// Typed whole-object read with checksum verification (and online
    /// recovery), regardless of policy. Reads straight into a stack
    /// value — no heap buffer — and a verified-generation cache hit
    /// serves it with one `size_of::<T>()`-byte NVMM read and no
    /// checksum pass. A handle whose brand is larger than the stored
    /// object fails with [`PglError::TypeMismatch`] even in release
    /// builds.
    pub fn get_verified<T: PType>(&self, h: PObj<T>) -> Result<T> {
        self.typed_check_pool(h.oid(), size_of_u64::<T>(), Some(T::TYPE_NUM))?;
        let mut v = pgl_nvm::pod::zeroed::<T>();
        self.read_verified_into(h.oid(), pgl_nvm::pod::bytes_of_mut(&mut v))?;
        Ok(v)
    }

    /// Typed direct field read.
    pub fn read_at<T: PType, F: Pod>(&self, h: PObj<T>, fld: Field<T, F>) -> Result<F> {
        self.typed_check_pool(h.oid(), size_of_u64::<T>(), Some(T::TYPE_NUM))?;
        self.read_pod(h.oid(), fld.offset())
    }

    /// Typed field read with verification coverage: the range-granular
    /// counterpart of [`PglPool::get_verified`]. On a verified-generation
    /// cache hit only the field's bytes are read; on a miss the whole
    /// object is verified once (populating the cache).
    pub fn read_at_verified<T: PType, F: Pod>(&self, h: PObj<T>, fld: Field<T, F>) -> Result<F> {
        self.typed_check_pool(h.oid(), size_of_u64::<T>(), Some(T::TYPE_NUM))?;
        let mut v = pgl_nvm::pod::zeroed::<F>();
        self.read_verified_at(h.oid(), fld.offset(), pgl_nvm::pod::bytes_of_mut(&mut v))?;
        Ok(v)
    }

    /// Single-object typed update (paper Listing 2): opens the object's
    /// micro-buffer with verification, applies `f`, and commits it back
    /// atomically (checksum + parity updated together). A handle whose
    /// brand is larger than the stored object fails with
    /// [`PglError::TypeMismatch`] even in release builds.
    pub fn update_obj<T: PType>(&self, h: PObj<T>, f: impl FnOnce(&mut T)) -> Result<T> {
        self.typed_check_pool(h.oid(), size_of_u64::<T>(), Some(T::TYPE_NUM))?;
        let mut handle = self.open_object(h.oid())?;
        if handle.user().len() < std::mem::size_of::<T>() {
            return Err(PglError::TypeMismatch { off: h.oid().off });
        }
        let mut v: T = handle.read_pod(0);
        f(&mut v);
        handle.write_pod(0, &v);
        self.commit_object(handle)?;
        Ok(v)
    }

    /// Typed element read from an array object (debug builds bounds-check
    /// the index against the stored array length).
    pub fn arr_get<T: Pod>(&self, a: PArr<T>, i: u64) -> Result<T> {
        #[cfg(debug_assertions)]
        {
            let (size, _) = self.obj_meta(a.oid())?;
            debug_assert!(
                (i + 1) * size_of_u64::<T>() <= size,
                "array index {i} out of bounds ({} elements)",
                size / size_of_u64::<T>()
            );
        }
        self.read_pod(a.oid(), PArr::<T>::elem_off(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PglConfig;
    use pgl_nvm::{DeviceConfig, NvmDevice};
    use std::sync::Arc;

    #[derive(Clone, Copy, Default, PartialEq, Debug)]
    #[repr(C)]
    struct Node {
        val: u64,
        next: PObj<Node>,
    }
    crate::impl_ptype!(Node, 24, 77);

    #[derive(Clone, Copy)]
    #[repr(C)]
    struct Big {
        header: u64,
        payload: [u64; 64],
    }
    crate::impl_ptype!(Big, 520, 78);

    impl Default for Big {
        fn default() -> Self {
            Big { header: 0, payload: [0; 64] }
        }
    }

    fn pool() -> PglPool {
        let cfg = PglConfig::small();
        let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
        PglPool::create(dev, cfg).unwrap()
    }

    #[test]
    fn handles_are_pod_sized_and_null_by_default() {
        assert_eq!(std::mem::size_of::<PObj<Node>>(), 16);
        assert_eq!(std::mem::size_of::<PArr<u64>>(), 16);
        assert!(PObj::<Node>::default().is_null());
        assert!(PArr::<u64>::default().is_null());
    }

    #[test]
    fn typed_alloc_get_set_update_roundtrip() {
        let pool = pool();
        let h = pool
            .tx(|tx| {
                let h = tx.alloc_obj(&Node { val: 1, next: PObj::null() })?;
                assert_eq!(tx.get(h)?.val, 1, "read-your-writes");
                Ok(h)
            })
            .unwrap();
        pool.tx(|tx| tx.set(h, &Node { val: 2, next: PObj::null() })).unwrap();
        assert_eq!(pool.get_obj(h).unwrap().val, 2);
        let after = pool.tx(|tx| tx.update(h, |n| n.val *= 10)).unwrap();
        assert_eq!(after.val, 20);
        assert_eq!(pool.get_verified(h).unwrap().val, 20);
    }

    #[test]
    fn typed_links_survive_storage() {
        let pool = pool();
        let (a, b) = pool
            .tx(|tx| {
                let b = tx.alloc_obj(&Node { val: 2, next: PObj::null() })?;
                let a = tx.alloc_obj(&Node { val: 1, next: b })?;
                Ok((a, b))
            })
            .unwrap();
        let got = pool.get_obj(a).unwrap();
        assert_eq!(got.next, b);
        assert_eq!(pool.get_obj(got.next).unwrap().val, 2);
    }

    #[test]
    fn field_updates_touch_only_the_field() {
        let pool = pool();
        let h = pool.tx(|tx| tx.alloc_obj(&Big::default())).unwrap();
        let fld = field!(Big, payload: [u64; 64]).index(63);
        let (_, stats) = pool.tx_with_stats(|tx| tx.write_at(h, fld, &99u64)).unwrap();
        assert_eq!(stats.modified_bytes, 8, "partial update logs 8 bytes, not 520");
        assert_eq!(pool.read_at(h, fld).unwrap(), 99);
        let v = pool.tx(|tx| tx.update_at(h, field!(Big, header: u64), |x| *x += 5)).unwrap();
        assert_eq!(v, 5);
    }

    #[test]
    fn arrays_are_element_indexed() {
        let pool = pool();
        let a = pool
            .tx(|tx| {
                let a = tx.alloc_arr::<u64>(32, 9)?;
                for i in 0..32 {
                    tx.arr_set(a, i, &(i * i))?;
                }
                assert_eq!(tx.arr_len(a)?, 32);
                Ok(a)
            })
            .unwrap();
        assert_eq!(pool.arr_get(a, 7).unwrap(), 49);
    }

    #[test]
    fn typed_root_is_stable() {
        let pool = pool();
        let r1: PObj<Node> = pool.typed_root().unwrap();
        let r2: PObj<Node> = pool.typed_root().unwrap();
        assert_eq!(r1, r2);
        assert_eq!(pool.root_obj::<Node>().unwrap(), Some(r1));
        pool.tx(|tx| tx.update(r1, |n| n.val = 7)).unwrap();
        assert_eq!(pool.get_obj(r1).unwrap().val, 7);
    }

    #[test]
    fn free_obj_reclaims() {
        let pool = pool();
        let h = pool.tx(|tx| tx.alloc_obj(&Node { val: 3, next: PObj::null() })).unwrap();
        pool.tx(|tx| tx.free_obj(h)).unwrap();
        assert!(pool.live_objects().unwrap().is_empty());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "typed handle mismatch")]
    fn debug_builds_catch_type_confusion() {
        let pool = pool();
        let h = pool.tx(|tx| tx.alloc_obj(&Node { val: 1, next: PObj::null() })).unwrap();
        // Re-brand the Node as a Big and read through it: the header says
        // 24 bytes of type 77, the brand claims 520 of type 78.
        let wrong: PObj<Big> = PObj::from_oid(h.oid());
        let _ = pool.tx(|tx| tx.get(wrong));
    }
}
