//! # pgl-kv — the PMDK-toolkit persistent data structures
//!
//! Rust ports of the six key-value structures the Pangolin paper benchmarks
//! (§4.5, Table 3): crit-bit tree, red-black tree, B-tree, skip list,
//! compressed radix tree, and chained hash map. Node layouts match the
//! paper's measured object sizes (56 / 80 / 304 / 408 / 4136 / 40 bytes +
//! growing table), so transaction-size and throughput shapes carry over.
//!
//! Every structure is generic over a [`store::Store`] backend — the
//! `libpmemobj` baseline (plain or replicated) or Pangolin in any of its
//! fault-tolerance modes — so a single implementation serves the whole
//! Table 2 comparison matrix. All six are written against the typed
//! object layer (`PObj<T>` handles, `field!` offsets, [`store::ValueSlot`]
//! tagged slots) mirrored over both backends by the helpers on
//! `dyn `[`store::TxOps`]; hand-computed byte offsets no longer appear in
//! this crate. See the workspace `README.md` for how this crate sits in
//! the nvm → pmemobj → pangolin → kv → bench layering, and
//! `EXPERIMENTS.md` for the Figure 5 / Table 3 runs built on it.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use pangolin::{PglConfig, PglPool};
//! use pgl_kv::maps::PersistentMap;
//! use pgl_kv::store::PglStore;
//! use pgl_kv::BTree;
//! use pgl_nvm::{DeviceConfig, NvmDevice};
//!
//! let cfg = PglConfig::small();
//! let dev = Arc::new(NvmDevice::new(cfg.pool.size, DeviceConfig::fast()).unwrap());
//! let store = PglStore::new(PglPool::create(dev, cfg).unwrap());
//! let map = BTree::create(&store).unwrap();
//! map.insert(&store, 7, 700).unwrap();
//! assert_eq!(map.get(&store, 7).unwrap(), Some(700));
//! ```

#![warn(missing_docs)]

pub mod btree;
pub mod crashwork;
pub mod ctree;
pub mod hashmap;
pub mod lockfree;
pub mod maps;
pub mod rbtree;
pub mod rtree;
pub mod skiplist;
pub mod store;
pub mod workload;

pub use btree::BTree;
pub use ctree::CTree;
pub use hashmap::HashMap;
pub use lockfree::{LfHash, LfQueue, LfStack};
pub use maps::PersistentMap;
pub use rbtree::RbTree;
pub use rtree::RTree;
pub use skiplist::SkipList;
pub use store::{KvError, KvResult, PglStore, PmemStore, Store};
