//! The DRAM model oracle: semantic snapshots of pool state.
//!
//! A [`ModelState`] is a full, checksum-verified copy of everything a pool
//! *means*: the root link and every live object's `(type, bytes)`. The
//! sweep driver captures one from the healthy run after every transaction
//! commit; after a simulated crash + recovery the recovered pool's state
//! must equal one of the two snapshots adjacent to the crash point —
//! all-or-nothing at the semantic level, not merely "parity holds".

use std::collections::BTreeMap;

use pgl_pmemobj::PMEMoid;

use crate::error::Result;
use crate::pool::PglPool;

/// A semantic snapshot of a pool: the root link plus every live object's
/// type number and verified content, keyed by object offset.
///
/// Two states are equal iff recovery preserved exactly the same set of
/// live objects with identical bytes and the same root — the oracle's
/// definition of "this committed state".
#[derive(Clone, PartialEq, Eq)]
pub struct ModelState {
    root: u64,
    objects: BTreeMap<u64, (u32, Vec<u8>)>,
}

impl ModelState {
    /// Captures the pool's current semantic state through verified reads.
    ///
    /// Every live object is read whole and every segment of it checked
    /// against its sum, so a capture doubles as a full checksum audit of
    /// the pool. The audit publishes nothing to the verification cache: a
    /// capture between two transactions of a swept body must not change
    /// which segments the second one loads, or the recording pass and the
    /// crash replays would issue different device operations.
    pub fn capture(pool: &PglPool) -> Result<Self> {
        let root = pool.root_oid()?.off;
        let mut objects = BTreeMap::new();
        for (oid, hdr) in pool.live_objects()? {
            let data = pool.audit(PMEMoid::new(pool.uuid(), oid.off))?;
            objects.insert(oid.off, (hdr.type_num, data));
        }
        Ok(ModelState { root, objects })
    }

    /// Number of live objects in the snapshot.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// The root object offset (0 when no root is set).
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Human-readable description of how `self` (the recovered state)
    /// differs from `expected` — used in failure reports.
    pub fn describe_mismatch(&self, expected: &Self) -> String {
        if self.root != expected.root {
            return format!("root link {} != expected {}", self.root, expected.root);
        }
        for (off, (ty, data)) in &expected.objects {
            match self.objects.get(off) {
                None => return format!("object at {off:#x} (type {ty}) missing after recovery"),
                Some((gty, gdata)) => {
                    if gty != ty {
                        return format!("object at {off:#x}: type {gty} != expected {ty}");
                    }
                    if gdata != data {
                        let first = gdata
                            .iter()
                            .zip(data.iter())
                            .position(|(a, b)| a != b)
                            .map(|i| i.to_string())
                            .unwrap_or_else(|| format!("len {} vs {}", gdata.len(), data.len()));
                        return format!("object at {off:#x}: content differs (first at {first})");
                    }
                }
            }
        }
        for off in self.objects.keys() {
            if !expected.objects.contains_key(off) {
                return format!("unexpected live object at {off:#x} after recovery");
            }
        }
        "states match".to_string()
    }
}

impl std::fmt::Debug for ModelState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelState")
            .field("root", &self.root)
            .field("objects", &self.objects.len())
            .finish()
    }
}
