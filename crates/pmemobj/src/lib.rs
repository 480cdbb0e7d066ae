//! # pgl-pmemobj — a `libpmemobj`-equivalent persistent object store
//!
//! This crate reimplements, from scratch and in Rust, the parts of PMDK's
//! `libpmemobj` (v1.5) that the Pangolin paper builds on and benchmarks
//! against (paper §2.3):
//!
//! * a **pool** over a DAX-style device, with redundant pool headers and a
//!   root object ([`PmemPool`]);
//! * a **persistent heap**: zones split into chunk rows, run-based
//!   small-object allocation with bitmaps, multi-chunk large objects, and a
//!   crash-consistent reserve/publish protocol ([`heap`]);
//! * **lanes** holding per-transaction logs ([`lane`]);
//! * **undo-log transactions** with snapshot-before-write semantics
//!   ([`tx::Tx`], the `TX_BEGIN`/`pmemobj_tx_add_range` model);
//! * an optional **replicated mode** (`Pmemobj-R` in the paper's Table 2)
//!   that mirrors every write to a second pool and can repair media errors
//!   only offline ([`PmemPool::sync_replicas`]).
//!
//! The Pangolin library (`pangolin` crate) reuses the layout, heap, lane and
//! log-entry machinery from here, exactly as the real Pangolin reuses
//! `libpmemobj`'s internals, and replaces the transaction system with
//! micro-buffered redo transactions plus checksums and parity. The
//! workspace `README.md` maps paper sections to modules; `EXPERIMENTS.md`
//! holds the baseline-vs-Pangolin benchmark matrix this crate anchors.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use pgl_nvm::{DeviceConfig, NvmDevice};
//! use pgl_pmemobj::{PmemPool, PoolConfig};
//!
//! let cfg = PoolConfig::small();
//! let dev = Arc::new(NvmDevice::new(cfg.size, DeviceConfig::fast()).unwrap());
//! let pool = PmemPool::create(dev, cfg).unwrap();
//!
//! // A linked-list node, transactionally allocated and linked.
//! let node = pool.tx(|tx| {
//!     let node = tx.alloc_zeroed(16, 1)?;
//!     tx.write_pod(node, 0, &7u64)?; // value
//!     Ok(node)
//! }).unwrap();
//! assert_eq!(pool.read_pod::<u64>(node, 0).unwrap(), 7);
//! ```

pub mod error;
pub mod heap;
pub mod io;
pub mod lane;
pub mod layout;
pub mod oid;
pub mod pool;
pub mod tx;
pub mod ulog;
pub mod util;
pub mod zonehdr;

pub use error::{ObjError, Result};
pub use io::PoolIo;
pub use layout::{Layout, PoolConfig};
pub use oid::{ObjectHeader, PMEMoid, OBJ_HEADER_SIZE, OID_NULL};
pub use pool::{read_header, recover, write_header, PmemPool, PoolHeader};
pub use tx::{Tx, TxStats};
