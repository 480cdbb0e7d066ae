//! # Pangolin — a fault-tolerant persistent memory programming library
//!
//! A from-scratch Rust reproduction of *Pangolin: A Fault-Tolerant
//! Persistent Memory Programming Library* (Zhang & Swanson, USENIX ATC
//! 2019). Pangolin extends the `libpmemobj` programming model with:
//!
//! * **Micro-buffering** ([`ubuf`]): objects are modified in canary-framed
//!   DRAM shadow copies, never in place, so buffer overruns are caught
//!   before they reach NVMM and transactions use cheap redo logging.
//! * **Object checksums** ([`checksum`], [`segment`]): an
//!   incrementally-updatable Adler32 per 256-byte object segment detects
//!   software scribbles that hardware ECC cannot see; a transaction loads
//!   and checks the segments it touches, not the whole object.
//! * **Zone parity** ([`parity`]): each zone's chunk rows are protected by
//!   one XOR parity row (~1 % space), patched with plain diff XOR under
//!   the range-locks of the patched columns, whatever the write's size
//!   (the paper's small-write atomic XOR is retired; see [`parity`]).
//! * **Online detection and recovery** ([`recover`], [`scrub`]): media
//!   errors (the `SIGBUS` analogue) and checksum mismatches freeze the
//!   pool, reconstruct the lost page from its page column, and resume —
//!   no downtime, unlike replicated `libpmemobj`'s offline-only repair.
//! * **Concurrent transactions**: [`PglPool`] is a cheap `Clone`-able
//!   shared handle; each transaction claims a per-thread lane from a
//!   lock-free registry and commits under striped parity range-locks
//!   ([`parity::RangeGuard`]), so threads working on disjoint objects
//!   never serialize, and the scrubber sweeps objects concurrently with
//!   live commits by taking the same locks. One rule (paper §3.4):
//!   concurrent transactions must not modify the same object. See the
//!   workspace README's "Concurrency model" section for the lock order.
//!
//! The library runs in the paper's four incremental modes
//! ([`PglMode::Baseline`], `-ML`, `-MLP`, `-MLPC`; Table 2) and three
//! checksum-verification policies ([`CsumPolicy`]; Figure 6 / Table 4).
//!
//! # Two API levels
//!
//! * The **typed API** ([`typed`]): `PObj<T>` handles over `#[repr(C)]`
//!   [`Pod`](pgl_nvm::pod::Pod) structs, typed pool roots, and
//!   compile-time-checked [`field!`](crate::field) offsets — the
//!   application-facing layer, zero-cost over the raw calls.
//! * The **raw API**: the `libpmemobj`-shaped oid/offset engine
//!   ([`PglTx::alloc`], [`PglTx::write`], …) — the documented low-level
//!   escape hatch for dynamically-sized objects and tooling.
//!
//! Pools are constructed through one builder for both creation and
//! reopening: [`PglPool::options`] (see [`options`]).
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use pgl_nvm::{DeviceConfig, NvmDevice};
//! use pangolin::typed::PObj;
//! use pangolin::{impl_ptype, inject, PglPool};
//!
//! #[derive(Clone, Copy, Default)]
//! #[repr(C)]
//! struct Record {
//!     value: u64,
//!     flags: u64,
//! }
//! impl_ptype!(Record, 16, 1);
//!
//! let opts = PglPool::options();
//! let dev = Arc::new(NvmDevice::new(opts.config().pool.size, DeviceConfig::fast()).unwrap());
//! let pool = opts.create(dev).unwrap();
//!
//! // Build a typed persistent object transactionally.
//! let h: PObj<Record> = pool
//!     .tx(|tx| tx.alloc_obj(&Record { value: 42, flags: 1 }))
//!     .unwrap();
//!
//! // A media error strikes; the next verified read repairs it online.
//! inject::poison_object_page(&pool, h.oid()).unwrap();
//! assert_eq!(pool.get_verified(h).unwrap().value, 42);
//! ```

#![warn(missing_docs)]

pub mod checksum;
pub mod config;
pub mod counters;
pub mod crashcheck;
pub mod detect;
pub mod error;
pub mod inject;
pub mod options;
pub mod parity;
pub mod ploc;
pub mod pool;
pub mod quarantine;
pub mod recover;
pub(crate) mod scratch;
pub mod scrub;
pub mod segment;
pub mod txn;
pub mod typed;
pub mod ubuf;
pub mod vcache;

pub use config::{CsumPolicy, PglConfig, PglMode};
pub use counters::{PglCounters, STAT_SHARDS};
pub use detect::VulnSnapshot;
pub use error::{PglError, Result};
pub use inject::{FaultKind, FaultPlan, FaultStorm, StormReport};
pub use options::OpenOptions;
pub use parity::{ParityDomains, ShardMap};
pub use ploc::{CasOutcome, CasRecovery, DetectableCas, NewCas, WordCas};
pub use pool::{ObjHandle, PglPool};
pub use quarantine::QuarantineSet;
pub use scrub::ScrubReport;
pub use txn::{PglTx, TxStats};
pub use typed::{Field, PArr, PObj, PType};

// Re-export the substrate types users need. `impl_pod!` is re-exported so
// `impl_ptype!` can expand to `$crate::impl_pod!` without requiring users
// to depend on `pgl-nvm` directly.
pub use pgl_nvm::impl_pod;
pub use pgl_pmemobj::{ObjectHeader, PMEMoid, PoolConfig, OID_NULL};
