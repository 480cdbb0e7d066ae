//! Error injection (paper §4.6).
//!
//! The paper emulates NVMM media errors with `mprotect`/`SIGSEGV` and
//! scribbles with wild stores; here the simulated device provides both
//! natively. These helpers target live objects and metadata so the
//! recovery experiments can be scripted deterministically.
//!
//! Object-targeted scribble helpers also drop the victim's
//! verified-generation cache entry ([`crate::vcache`]), so the next
//! verified read deterministically re-verifies and detects the injected
//! corruption — modelling the §4.6 experiments, which always corrupt
//! objects cold. To exercise the cache's bounded exposure window instead
//! (a scribble landing *between* a verification and a cached read), write
//! through the raw device (`pool.io().dev().scribble(..)`), which the
//! library cannot observe.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pgl_nvm::{bump, PAGE_SIZE};
use pgl_pmemobj::PMEMoid;

use crate::error::{PglError, Result};
use crate::pool::PglPool;

/// Poisons the page holding `oid`'s user data (an uncorrectable media
/// error, the MCE/`SIGBUS` analogue). Returns the page index.
pub fn poison_object_page(pool: &PglPool, oid: PMEMoid) -> Result<u64> {
    let page = oid.off / PAGE_SIZE as u64;
    pool.io().dev().poison_page(page).map_err(PglError::from)?;
    bump(&pool.cells().poison_injected, 1);
    Ok(page)
}

/// Poisons an arbitrary page.
pub fn poison_page(pool: &PglPool, page: u64) -> Result<()> {
    pool.io().dev().poison_page(page).map_err(PglError::from)?;
    bump(&pool.cells().poison_injected, 1);
    Ok(())
}

/// Scribbles `len` bytes of `oid`'s user data starting at `off` with
/// `pattern` — hardware-invisible software corruption that only the object
/// checksum can catch.
pub fn scribble_object(
    pool: &PglPool,
    oid: PMEMoid,
    off: u64,
    len: usize,
    pattern: u8,
) -> Result<()> {
    let junk = vec![pattern; len];
    pool.io().dev().scribble(oid.off + off, &junk).map_err(PglError::from)?;
    bump(&pool.cells().scribbles_injected, 1);
    pool.vcache_bump(oid.off);
    Ok(())
}

/// Scribbles the object's *header* (size/type/checksum) — the nastier
/// variant, testing header-sanity recovery.
pub fn scribble_object_header(pool: &PglPool, oid: PMEMoid, pattern: u8) -> Result<()> {
    let junk = [pattern; 16];
    pool.io().dev().scribble(oid.header_off(), &junk).map_err(PglError::from)?;
    bump(&pool.cells().scribbles_injected, 1);
    pool.vcache_bump(oid.off);
    Ok(())
}

/// Scribbles a chunk-metadata entry (metadata corruption; paper §3.1 uses
/// zone parity to recover chunk metadata).
pub fn scribble_chunk_meta(pool: &PglPool, zone: u64, chunk: u64, pattern: u8) -> Result<()> {
    let off = pool.layout().cm_entry_off(zone, chunk);
    let junk = [pattern; 16];
    pool.io().dev().scribble(off, &junk).map_err(PglError::from)?;
    bump(&pool.cells().scribbles_injected, 1);
    Ok(())
}

/// Scribbles raw pool bytes (fully general corruption).
pub fn scribble_raw(pool: &PglPool, off: u64, bytes: &[u8]) -> Result<()> {
    pool.io().dev().scribble(off, bytes).map_err(PglError::from)?;
    bump(&pool.cells().scribbles_injected, 1);
    Ok(())
}

// ---------------------------------------------------------------------------
// Fault storms: seeded, concurrent, live-target fault injection.
// ---------------------------------------------------------------------------

/// Which flavour of fault a storm event injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// An uncorrectable media error on the page holding the victim's data
    /// (detected by the device on the next read).
    Poison,
    /// A silent in-place corruption of the victim's data (detected only by
    /// the object checksum).
    Scribble,
}

/// Deterministic description of a fault storm. Identical plans replayed
/// against identically-seeded workloads inject the same fault sequence,
/// making degraded-mode soak runs reproducible.
///
/// Storms target **live objects only**. A scribble landing on freed space
/// would break the zone-parity invariant with no checksum left to say
/// which page is wrong — real media errors on dead space are caught by the
/// poison path instead, which the device reports regardless of liveness.
#[derive(Clone)]
pub struct FaultPlan {
    /// PRNG seed; equal seeds replay the same victim/kind/timing sequence.
    pub seed: u64,
    /// Maximum events to inject; `0` means "until [`FaultStorm::stop`]".
    pub max_events: u64,
    /// Mean pause between events (jittered 0.5–1.5x by the PRNG); zero
    /// means inject as fast as the pool absorbs faults.
    pub mean_gap: Duration,
    /// Per-mille of events that poison a page; the rest scribble object
    /// bytes. `1000` makes every event a media error.
    pub poison_per_mille: u32,
    /// Restrict victims to these zones (`None` targets every zone).
    pub zones: Option<Vec<u64>>,
    /// Observation hook invoked with `(event_index, kind)` just before
    /// each injection — a deterministic clock for tests that want to
    /// synchronize assertions with storm progress.
    pub on_event: Option<Arc<dyn Fn(u64, FaultKind) + Send + Sync>>,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("max_events", &self.max_events)
            .field("mean_gap", &self.mean_gap)
            .field("poison_per_mille", &self.poison_per_mille)
            .field("zones", &self.zones)
            .field("on_event", &self.on_event.as_ref().map(|_| ".."))
            .finish()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0x5061_6e67_6f6c_696e, // "Pangolin"
            max_events: 0,
            mean_gap: Duration::from_millis(2),
            poison_per_mille: 300,
            zones: None,
            on_event: None,
        }
    }
}

/// What a finished storm actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StormReport {
    /// Pages poisoned (media errors injected).
    pub poisons: u64,
    /// Objects scribbled (silent corruptions injected).
    pub scribbles: u64,
    /// Events skipped — no eligible live victim at that instant, or the
    /// victim's zone was quarantined between selection and injection.
    pub skipped: u64,
}

impl StormReport {
    /// Total faults actually injected.
    pub fn injected(&self) -> u64 {
        self.poisons + self.scribbles
    }
}

/// A running fault storm: a background thread firing [`FaultPlan`] events
/// at a live pool while transactions, scrubbing and recovery run
/// concurrently. Stop it (or let `max_events` expire) to collect the
/// [`StormReport`].
#[derive(Debug)]
pub struct FaultStorm {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<StormReport>,
}

impl FaultStorm {
    /// Launches the storm against `pool` on a dedicated thread.
    pub fn launch(pool: &PglPool, plan: FaultPlan) -> FaultStorm {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let pool = pool.clone();
        let handle = std::thread::Builder::new()
            .name("pgl-storm".into())
            .spawn(move || storm_loop(&pool, &plan, &flag))
            .expect("spawn fault-storm thread");
        FaultStorm { stop, handle }
    }

    /// Signals the storm to stop and waits for its report.
    pub fn stop(self) -> StormReport {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().unwrap_or_default()
    }

    /// `true` once the storm thread has exited (its `max_events` expired).
    pub fn is_done(&self) -> bool {
        self.handle.is_finished()
    }
}

/// SplitMix64 step — tiny, seedable, no external dependency.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// How many events pass between live-victim list refreshes.
const LIVE_REFRESH: u64 = 16;

/// Snapshots the eligible victims: live objects (already excluding
/// quarantined zones), optionally restricted to the plan's zones.
fn refresh_victims(pool: &PglPool, plan: &FaultPlan) -> Vec<(PMEMoid, u64)> {
    let Ok(live) = pool.live_objects() else { return Vec::new() };
    live.into_iter()
        .filter(|(oid, _)| match &plan.zones {
            None => true,
            Some(zs) => pool.layout().zone_and_rel(oid.off).is_ok_and(|(z, _)| zs.contains(&z)),
        })
        .map(|(oid, hdr)| (oid, hdr.size))
        .collect()
}

/// Jittered inter-event pause (0.5–1.5x the plan's mean gap).
fn storm_pause(plan: &FaultPlan, rng: &mut u64) {
    let mean = plan.mean_gap.as_micros() as u64;
    if mean == 0 {
        std::thread::yield_now();
    } else {
        std::thread::sleep(Duration::from_micros(mean / 2 + splitmix(rng) % mean.max(1)));
    }
}

fn storm_loop(pool: &PglPool, plan: &FaultPlan, stop: &AtomicBool) -> StormReport {
    let mut rng = plan.seed;
    let mut report = StormReport::default();
    let mut victims: Vec<(PMEMoid, u64)> = Vec::new();
    let mut event = 0u64;
    while !stop.load(Ordering::Relaxed) {
        if plan.max_events != 0 && event >= plan.max_events {
            break;
        }
        if event % LIVE_REFRESH == 0 || victims.is_empty() {
            victims = refresh_victims(pool, plan);
        }
        let Some(&(oid, size)) =
            victims.get((splitmix(&mut rng) % victims.len().max(1) as u64) as usize)
        else {
            report.skipped += 1;
            event += 1;
            storm_pause(plan, &mut rng);
            continue;
        };
        let kind = if splitmix(&mut rng) % 1000 < u64::from(plan.poison_per_mille) {
            FaultKind::Poison
        } else {
            FaultKind::Scribble
        };
        if let Some(hook) = &plan.on_event {
            hook(event, kind);
        }
        let outcome = match kind {
            FaultKind::Poison => poison_object_page(pool, oid).map(|_| ()),
            FaultKind::Scribble => {
                let off = splitmix(&mut rng) % size.max(1);
                let len = (size - off).clamp(1, 16) as usize;
                let pattern = (splitmix(&mut rng) as u8) | 0x01;
                scribble_object(pool, oid, off, len, pattern)
            }
        };
        match outcome {
            Ok(()) => match kind {
                FaultKind::Poison => report.poisons += 1,
                FaultKind::Scribble => report.scribbles += 1,
            },
            Err(_) => report.skipped += 1,
        }
        event += 1;
        storm_pause(plan, &mut rng);
    }
    report
}
