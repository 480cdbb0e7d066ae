//! # pgl-nvm — a simulated non-volatile main memory (NVMM) device
//!
//! This crate provides the hardware substrate for the Pangolin reproduction:
//! a byte-addressable persistent memory device with the semantics that
//! DAX-mapped NVMM exposes to user space on x86 Linux platforms:
//!
//! * **Store/flush/fence persistence model.** Regular stores land in a
//!   (simulated) CPU cache and are *not* durable until the affected cache
//!   lines are written back ([`NvmDevice::flush`], the `CLWB` analogue) and a
//!   store fence is issued ([`NvmDevice::drain`], the `SFENCE` analogue).
//!   Dirty lines may also become durable spontaneously (cache eviction), so a
//!   crash can persist *any* subset of unflushed lines — exactly the
//!   adversarial behaviour crash-consistent software must tolerate.
//! * **8-byte atomic stores** and **atomic XOR** ([`NvmDevice::atomic_store_u64`],
//!   [`NvmDevice::atomic_xor_u64`]) mirroring the x86 guarantees the
//!   paper's lock-free parity patch relies on (this library patches parity
//!   with plain stores under a stripe guard instead).
//! * **Non-temporal stores** ([`NvmDevice::write_nt`]) that bypass the cache
//!   and only await a fence.
//! * **Media errors.** 4 KB pages can be *poisoned*; loads from a poisoned
//!   page fail with [`MemError::Poisoned`] — the library-level analogue of a
//!   machine-check exception delivered as `SIGBUS`. Writing a full page of
//!   fresh data repairs it ([`NvmDevice::repair_page`]), like the
//!   ACPI/NVDIMM clear-uncorrectable flow.
//! * **Fault injection.** Scribbles (software corruption that checksums, not
//!   hardware, must catch), page poisoning, and deterministic crash plans for
//!   property-based testing ([`crash::CrashPlan`]).
//!
//! The simulation exists because this reproduction has no Optane hardware;
//! see the workspace `README.md` ("Why a simulated device") for the
//! substitution argument. The upside is that crashes, evictions and media
//! errors become deterministic and exhaustively testable. The workspace's
//! `EXPERIMENTS.md` lists the figure/table reproductions that run on top
//! of this device.
//!
//! # Examples
//!
//! ```
//! use pgl_nvm::{DeviceConfig, NvmDevice};
//!
//! let dev = NvmDevice::new(1 << 20, DeviceConfig::precise()).unwrap();
//! dev.write(128, b"hello").unwrap();
//! dev.persist(128, 5).unwrap(); // flush + drain: now durable
//! let mut buf = [0u8; 5];
//! dev.read(128, &mut buf).unwrap();
//! assert_eq!(&buf, b"hello");
//! ```

pub mod crash;
pub mod device;
pub mod error;
pub mod image;
pub mod latency;
pub mod pod;
pub mod stats;

mod poison;
mod rawbuf;
mod tracker;

pub use crash::{AllNew, AllOld, CrashPlan, LineOutcome, MappedPlan, RandomPlan};
pub use device::{CrashPoint, DeviceConfig, DeviceSnapshot, NvmDevice, PersistenceMode};
pub use error::{MemError, Result};
pub use latency::LatencyModel;
pub use pod::Pod;
pub use stats::{bump, slot, StatsSnapshot};

/// Size of a simulated CPU cache line in bytes.
pub const CACHELINE: usize = 64;

/// Size of a simulated memory page in bytes (poison granularity).
pub const PAGE_SIZE: usize = 4096;

/// Rounds `x` down to a multiple of `align` (which must be a power of two).
#[inline]
pub const fn align_down(x: usize, align: usize) -> usize {
    x & !(align - 1)
}

/// Rounds `x` up to a multiple of `align` (which must be a power of two).
#[inline]
pub const fn align_up(x: usize, align: usize) -> usize {
    (x + align - 1) & !(align - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_helpers() {
        assert_eq!(align_down(0, 64), 0);
        assert_eq!(align_down(63, 64), 0);
        assert_eq!(align_down(64, 64), 64);
        assert_eq!(align_up(0, 64), 0);
        assert_eq!(align_up(1, 64), 64);
        assert_eq!(align_up(64, 64), 64);
        assert_eq!(align_up(65, 4096), 4096);
    }
}
