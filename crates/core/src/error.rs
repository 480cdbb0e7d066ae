//! Pangolin error type.

use std::fmt;

use pgl_nvm::MemError;
use pgl_pmemobj::ObjError;

/// Errors surfaced by the Pangolin library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PglError {
    /// An error from the underlying object-store machinery.
    Obj(ObjError),
    /// A micro-buffer canary was overwritten: the application scribbled past
    /// an object boundary; the transaction aborts before the corruption can
    /// reach NVMM (paper §3.2).
    CanaryMismatch {
        /// Offset of the object whose micro-buffer was damaged.
        off: u64,
    },
    /// An object checksum did not match its content and online recovery
    /// could not restore it.
    ChecksumMismatch {
        /// Offset of the corrupt object's user data.
        off: u64,
    },
    /// A typed handle's brand (expected size or type number) does not
    /// match the object header it points at (see [`crate::typed`]).
    TypeMismatch {
        /// Offset of the object's user data.
        off: u64,
    },
    /// Data was lost beyond the fault-tolerance guarantee (e.g. two pages
    /// of the same page column). Carries the failure's location so callers
    /// (and the network service) can report exactly which parity shard and
    /// zone degraded while every other shard keeps serving; the affected
    /// zone is quarantined (see [`crate::quarantine`]).
    Unrecoverable {
        /// Parity shard owning the lost zone, or [`u64::MAX`] when the
        /// failure is not attributable to a shard (metadata, no parity).
        shard: u64,
        /// Zone index of the lost data, or [`u64::MAX`] when unknown.
        zone: u64,
        /// Pool offset nearest to the failure, or [`u64::MAX`] when
        /// unknown.
        off: u64,
        /// Human-readable description of what was lost and why.
        detail: String,
    },
    /// The configuration is internally inconsistent.
    Config(String),
    /// The image was written in a pool format this library does not open
    /// (e.g. one checksum per object instead of per segment).
    FormatVersion {
        /// The version the image's pool header carries.
        found: u32,
        /// The version this library reads and writes.
        supported: u32,
    },
}

impl fmt::Display for PglError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PglError::Obj(e) => write!(f, "{e}"),
            PglError::CanaryMismatch { off } => {
                write!(f, "micro-buffer canary destroyed for object at {off:#x}")
            }
            PglError::ChecksumMismatch { off } => {
                write!(f, "object checksum mismatch at {off:#x}")
            }
            PglError::TypeMismatch { off } => {
                write!(f, "typed handle mismatch for object at {off:#x}")
            }
            PglError::Unrecoverable { shard, zone, off, detail } => {
                write!(f, "unrecoverable")?;
                if *shard != u64::MAX {
                    write!(f, " [shard {shard}]")?;
                }
                if *zone != u64::MAX {
                    write!(f, " [zone {zone}]")?;
                }
                if *off != u64::MAX {
                    write!(f, " [near {off:#x}]")?;
                }
                write!(f, ": {detail}")
            }
            PglError::Config(s) => write!(f, "bad configuration: {s}"),
            PglError::FormatVersion { found, supported } => {
                write!(
                    f,
                    "pool format version {found} is not supported (this library: {supported})"
                )
            }
        }
    }
}

impl std::error::Error for PglError {}

impl From<ObjError> for PglError {
    fn from(e: ObjError) -> Self {
        PglError::Obj(e)
    }
}

impl From<MemError> for PglError {
    fn from(e: MemError) -> Self {
        PglError::Obj(ObjError::Mem(e))
    }
}

impl PglError {
    /// Returns the poisoned page index if this error stems from a media
    /// error (the `SIGBUS` analogue), enabling the online-recovery path.
    pub fn poisoned_page(&self) -> Option<u64> {
        match self {
            PglError::Obj(ObjError::Mem(MemError::Poisoned { page })) => Some(*page),
            _ => None,
        }
    }

    /// Builds an [`PglError::Unrecoverable`] with no location information
    /// (shard/zone/offset unknown); used where the failure cannot be
    /// attributed to a parity zone.
    pub fn unrecoverable(detail: impl Into<String>) -> PglError {
        PglError::Unrecoverable {
            shard: u64::MAX,
            zone: u64::MAX,
            off: u64::MAX,
            detail: detail.into(),
        }
    }

    /// Builds a located [`PglError::Unrecoverable`] pinned to parity
    /// `shard` and `zone` near pool offset `off` (use [`u64::MAX`] for any
    /// coordinate that is unknown).
    pub fn unrecoverable_at(
        shard: u64,
        zone: u64,
        off: u64,
        detail: impl Into<String>,
    ) -> PglError {
        PglError::Unrecoverable { shard, zone, off, detail: detail.into() }
    }

    /// Returns `true` if this is a permanent data-loss error — the one
    /// class a caller must never retry (the network client's retry loop
    /// keys off this split).
    pub fn is_unrecoverable(&self) -> bool {
        matches!(self, PglError::Unrecoverable { .. })
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, PglError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisoned_page_extraction() {
        let e = PglError::from(MemError::Poisoned { page: 42 });
        assert_eq!(e.poisoned_page(), Some(42));
        assert_eq!(PglError::CanaryMismatch { off: 0 }.poisoned_page(), None);
    }

    #[test]
    fn display_is_informative() {
        let s = PglError::CanaryMismatch { off: 0x1000 }.to_string();
        assert!(s.contains("canary"));
        assert!(s.contains("0x1000"));
    }
}
