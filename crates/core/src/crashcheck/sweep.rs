//! The crash-sweep driver and failure reporter.
//!
//! [`sweep_with`] replays a [`CrashWorkload`] crashing at every device-op
//! boundary under a matrix of crash plans, recovers, and checks the result
//! against the DRAM model oracle ([`super::model::ModelState`]). See the
//! [module docs](super) for the three-layer architecture.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use pgl_nvm::{
    AllNew, AllOld, CrashPlan, CrashPoint, DeviceConfig, DeviceSnapshot, MappedPlan, NvmDevice,
    RandomPlan,
};

use crate::config::PglConfig;
use crate::error::Result;
use crate::pool::PglPool;

use super::model::ModelState;

/// Countdown large enough to never fire; armed to count a workload's ops.
const BIG: u64 = 1 << 40;

/// A crash-testable workload: setup, a swept body with explicit commit
/// points, and optional extra recovery checks.
///
/// Workload bodies must be **deterministic**: from identical pool state
/// they must issue the identical device-operation sequence. The driver
/// relies on this to replay the body crashing at successive boundaries
/// (all pool operations are deterministic when single-threaded, so in
/// practice this just means: no randomness, no ambient state).
pub trait CrashWorkload {
    /// Short name used in failure reports.
    fn name(&self) -> &str;

    /// Pool geometry/mode for this workload.
    fn config(&self) -> PglConfig {
        PglConfig::small()
    }

    /// Builds the initial pool content. Runs once, outside the sweep;
    /// crash points are never injected here.
    fn setup(&self, pool: &PglPool) -> Result<()>;

    /// The crash-swept body. Call [`SweepCtx::commit_point`] after **every**
    /// transaction commit so the oracle can snapshot the committed state;
    /// a commit the oracle does not know about is reported as a
    /// torn/unexpected state.
    fn run(&self, pool: &PglPool, ctx: &mut SweepCtx) -> Result<()>;

    /// Extra workload-specific checks on a recovered pool. `committed` is
    /// the number of commit points the recovered state corresponds to.
    /// The oracle's all-or-nothing check has already passed when this runs.
    fn verify(&self, _pool: &PglPool, _committed: usize) -> Result<()> {
        Ok(())
    }
}

/// A [`CrashWorkload`] assembled from closures — the concise way to write
/// sweep tests.
pub struct FnWorkload<S, R, V> {
    name: String,
    cfg: PglConfig,
    setup: S,
    run: R,
    verify: V,
}

/// Signature of the default (no-op) verify closure.
pub type NoVerify = fn(&PglPool, usize) -> Result<()>;

impl<S, R> FnWorkload<S, R, NoVerify>
where
    S: Fn(&PglPool) -> Result<()>,
    R: Fn(&PglPool, &mut SweepCtx) -> Result<()>,
{
    /// Builds a workload from a setup and a swept-body closure.
    pub fn new(name: &str, setup: S, run: R) -> Self {
        FnWorkload {
            name: name.to_string(),
            cfg: PglConfig::small(),
            setup,
            run,
            verify: |_, _| Ok(()),
        }
    }
}

impl<S, R, V> FnWorkload<S, R, V> {
    /// Replaces the pool configuration.
    pub fn with_config(mut self, cfg: PglConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Adds workload-specific recovery checks.
    pub fn with_verify<V2>(self, verify: V2) -> FnWorkload<S, R, V2>
    where
        V2: Fn(&PglPool, usize) -> Result<()>,
    {
        FnWorkload { name: self.name, cfg: self.cfg, setup: self.setup, run: self.run, verify }
    }
}

impl<S, R, V> CrashWorkload for FnWorkload<S, R, V>
where
    S: Fn(&PglPool) -> Result<()>,
    R: Fn(&PglPool, &mut SweepCtx) -> Result<()>,
    V: Fn(&PglPool, usize) -> Result<()>,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn config(&self) -> PglConfig {
        self.cfg
    }

    fn setup(&self, pool: &PglPool) -> Result<()> {
        (self.setup)(pool)
    }

    fn run(&self, pool: &PglPool, ctx: &mut SweepCtx) -> Result<()> {
        (self.run)(pool, ctx)
    }

    fn verify(&self, pool: &PglPool, committed: usize) -> Result<()> {
        (self.verify)(pool, committed)
    }
}

/// Handle passed to [`CrashWorkload::run`]; records commit points.
///
/// In the oracle-recording pass each [`SweepCtx::commit_point`] captures a
/// [`ModelState`]; in crash-replay passes it only counts, so record and
/// replay issue the identical mutating device-op sequence (captures read,
/// never write).
pub struct SweepCtx {
    recording: bool,
    commits: usize,
    states: Vec<ModelState>,
}

impl SweepCtx {
    fn record() -> Self {
        SweepCtx { recording: true, commits: 0, states: Vec::new() }
    }

    fn replay() -> Self {
        SweepCtx { recording: false, commits: 0, states: Vec::new() }
    }

    /// Marks "a transaction just committed". Call after every commit in
    /// [`CrashWorkload::run`].
    pub fn commit_point(&mut self, pool: &PglPool) -> Result<()> {
        self.commits += 1;
        if self.recording {
            self.states.push(ModelState::capture(pool)?);
        }
        Ok(())
    }

    /// Number of commit points passed so far.
    pub fn commits(&self) -> usize {
        self.commits
    }
}

/// One crash plan in the sweep matrix — together with the op index, the
/// standalone-reproducible identity of a crash case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSpec {
    /// No un-fenced data survives ([`AllOld`]).
    AllOld,
    /// Every dirty line is evicted ([`AllNew`]).
    AllNew,
    /// Seeded per-line random outcomes ([`RandomPlan::seeded`]).
    Random(u64),
    /// The n-th line-outcome combination of the exhaustive small-model
    /// enumeration ([`MappedPlan::nth_combination`] over the crashed
    /// device's dirty-line choices).
    Exhaustive(u64),
}

impl PlanSpec {
    fn build(&self, choices: &[(u64, usize)]) -> Box<dyn CrashPlan> {
        match *self {
            PlanSpec::AllOld => Box::new(AllOld),
            PlanSpec::AllNew => Box::new(AllNew),
            PlanSpec::Random(seed) => Box::new(RandomPlan::seeded(seed)),
            PlanSpec::Exhaustive(combo) => Box::new(MappedPlan::nth_combination(choices, combo)),
        }
    }
}

impl std::fmt::Display for PlanSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanSpec::AllOld => write!(f, "all-old"),
            PlanSpec::AllNew => write!(f, "all-new"),
            PlanSpec::Random(seed) => write!(f, "random(seed={seed})"),
            PlanSpec::Exhaustive(combo) => write!(f, "exhaustive(combo={combo})"),
        }
    }
}

/// Sweep matrix parameters.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Seeds for the [`PlanSpec::Random`] plans (one plan per seed).
    pub seeds: Vec<u64>,
    /// Exhaustive small-model mode engages when the crashed device has at
    /// most this many unsettled cache lines…
    pub exhaustive_max_lines: usize,
    /// …and their combined outcome space is at most this many combinations.
    pub exhaustive_max_combos: u64,
    /// Crash at every `step`-th device-op boundary (1 = every boundary).
    pub step: usize,
    /// If set, cap the number of swept boundaries: the step is raised to
    /// `total / budget` for op-heavy workloads ([`SweepConfig::budget`]).
    pub boundary_budget: Option<u64>,
    /// Deep (nightly) mode: ignores [`SweepConfig::sampled`] requests so
    /// the scheduled run always sweeps every boundary, and multiplies
    /// [`SweepConfig::budget`] by 8.
    pub deep: bool,
}

impl SweepConfig {
    /// The fast matrix run in the regular test job: AllOld, AllNew, four
    /// seeded random plans, exhaustive enumeration up to 8 dirty lines /
    /// 256 combinations.
    pub fn smoke() -> Self {
        SweepConfig {
            seeds: vec![1, 2, 3, 4],
            exhaustive_max_lines: 8,
            exhaustive_max_combos: 256,
            step: 1,
            boundary_budget: None,
            deep: false,
        }
    }

    /// The nightly matrix: more random plans and a larger exhaustive
    /// budget, and sampling requests are ignored (every boundary swept).
    pub fn deep() -> Self {
        SweepConfig {
            seeds: (1..=12).collect(),
            exhaustive_max_lines: 8,
            exhaustive_max_combos: 4096,
            step: 1,
            boundary_budget: None,
            deep: true,
        }
    }

    /// [`SweepConfig::deep`] when the environment variable `PGL_DEEP_SWEEP`
    /// is `1` (the nightly CI job sets it), [`SweepConfig::smoke`]
    /// otherwise.
    pub fn from_env() -> Self {
        if std::env::var("PGL_DEEP_SWEEP").as_deref() == Ok("1") {
            Self::deep()
        } else {
            Self::smoke()
        }
    }

    /// Requests crashing only at every `step`-th boundary — a smoke-time
    /// concession for op-heavy workloads. Deep mode ignores the request.
    pub fn sampled(mut self, step: usize) -> Self {
        if !self.deep {
            self.step = step.max(1);
        }
        self
    }

    /// Caps the sweep at roughly `boundaries` evenly spaced crash points —
    /// the knob for workloads whose op count is large or unknown up front.
    /// Deep mode sweeps 8× as many.
    pub fn budget(mut self, boundaries: u64) -> Self {
        let boundaries = boundaries.max(1);
        self.boundary_budget = Some(if self.deep { boundaries * 8 } else { boundaries });
        self
    }

    /// The effective step for a body of `total` device ops.
    fn effective_step(&self, total: u64) -> usize {
        match self.boundary_budget {
            Some(budget) => self.step.max((total / budget).max(1) as usize),
            None => self.step,
        }
    }
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self::from_env()
    }
}

/// A failed crash case: the minimal standalone reproduction tuple plus
/// what went wrong. `Display` prints the tuple in a paste-into-a-test
/// form; [`run_case`] re-runs it from scratch.
#[derive(Debug, Clone)]
pub struct CaseFailure {
    /// Workload name ([`CrashWorkload::name`]).
    pub workload: String,
    /// Device-op boundary the crash was injected at.
    pub op: u64,
    /// The crash plan that exposed the failure.
    pub plan: PlanSpec,
    /// What the oracle or invariant check reported.
    pub message: String,
}

impl std::fmt::Display for CaseFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "crash case failed: workload={} op={} plan={} — {}\n\
             reproduce standalone with: crashcheck::run_case(&workload, {}, PlanSpec::{:?})",
            self.workload, self.op, self.plan, self.message, self.op, self.plan
        )
    }
}

/// Sweep coverage summary — the numbers behind `EXPERIMENTS.md`'s
/// crash-matrix table.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Workload name.
    pub workload: String,
    /// Total device-op boundaries in the workload body.
    pub boundaries: u64,
    /// Boundaries actually crash-injected (≤ `boundaries` when sampled).
    pub swept: u64,
    /// Total (boundary × plan) cases recovered and oracle-checked.
    pub cases: u64,
    /// Boundaries where the exhaustive small-model enumeration engaged.
    pub exhaustive_boundaries: u64,
    /// Largest per-boundary outcome space seen (dirty-line combinations).
    pub max_outcome_space: u64,
}

impl std::fmt::Display for SweepReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} boundaries ({} swept), {} cases, exhaustive at {} boundaries (max space {})",
            self.workload,
            self.boundaries,
            self.swept,
            self.cases,
            self.exhaustive_boundaries,
            self.max_outcome_space
        )
    }
}

/// Internal driver state shared by the sweep and `run_case`.
struct Harness {
    dev: Arc<NvmDevice>,
    /// Healthy post-setup device checkpoint every pass rewinds to.
    base: DeviceSnapshot,
    /// Oracle snapshots: `states[j]` is the semantic state after `j`
    /// commit points.
    states: Vec<ModelState>,
    /// Mutating device-op count of the workload body.
    total_ops: u64,
    /// Parity shards every reopen runs with (the workload's config).
    shards: usize,
}

type CaseResult<T> = std::result::Result<T, String>;

/// Reopens (and thereby recovers) the pool. The shard count is an
/// open-time option, not a persistent property, so it is carried over from
/// the workload's config: a sharded workload must stay sharded in the
/// swept body and in recovery.
fn reopen(dev: Arc<NvmDevice>, shards: usize) -> CaseResult<PglPool> {
    PglPool::options().shards(shards).open(dev).map_err(|e| format!("recovery failed: {e}"))
}

impl Harness {
    /// Creates the pool, runs setup, checkpoints, and records the oracle
    /// pass (op counting + per-commit model snapshots).
    fn prepare(workload: &dyn CrashWorkload) -> CaseResult<Self> {
        silence_crash_panics();
        let cfg = workload.config();
        let dev = Arc::new(
            NvmDevice::new(cfg.pool.size, DeviceConfig::precise())
                .map_err(|e| format!("device: {e}"))?,
        );
        let pool = PglPool::create(dev.clone(), cfg).map_err(|e| format!("pool create: {e}"))?;
        workload.setup(&pool).map_err(|e| format!("setup: {e}"))?;
        drop(pool);
        let base = dev.snapshot();

        // Record pass: identical starting state to every replay (restore +
        // reopen), so the device-op sequence is byte-identical across
        // passes and `total_ops` boundaries cover the whole body.
        let pool = reopen(dev.clone(), cfg.shards)?;
        let mut ctx = SweepCtx::record();
        ctx.states.push(ModelState::capture(&pool).map_err(|e| format!("capture: {e}"))?);
        dev.arm_crash_after(BIG);
        let run = workload.run(&pool, &mut ctx);
        let total_ops = BIG - dev.crash_countdown() as u64;
        dev.disarm_crash();
        run.map_err(|e| format!("record pass: {e}"))?;
        drop(pool);
        dev.restore(&base).map_err(|e| format!("restore: {e}"))?;
        if ctx.states.len() != ctx.commits + 1 {
            return Err("internal: commit snapshots out of sync".into());
        }
        Ok(Harness { dev, base, states: ctx.states, total_ops, shards: cfg.shards })
    }

    /// Replays the body crashing at boundary `op`; returns the crashed
    /// device checkpoint (dirty-line state included) and the number of
    /// commit points that completed before the crash.
    fn crash_at(
        &self,
        workload: &dyn CrashWorkload,
        op: u64,
    ) -> CaseResult<(DeviceSnapshot, usize)> {
        self.dev.restore(&self.base).map_err(|e| format!("restore: {e}"))?;
        let pool = reopen(self.dev.clone(), self.shards)?;
        let mut ctx = SweepCtx::replay();
        self.dev.arm_crash_after(op);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| workload.run(&pool, &mut ctx)));
        self.dev.disarm_crash();
        drop(pool);
        match outcome {
            Err(payload) if payload.downcast_ref::<CrashPoint>().is_some() => {}
            Err(_) => return Err(format!("non-crash panic while replaying to op {op}")),
            Ok(_) => {
                return Err(format!(
                    "boundary {op} did not crash (body has {} ops)",
                    self.total_ops
                ))
            }
        }
        Ok((self.dev.snapshot(), ctx.commits))
    }

    /// Applies one crash plan to a crashed checkpoint, recovers, and runs
    /// the oracle + invariant checks.
    fn check_plan(
        &self,
        workload: &dyn CrashWorkload,
        crash: &DeviceSnapshot,
        committed_before: usize,
        spec: PlanSpec,
    ) -> CaseResult<()> {
        self.dev.restore(crash).map_err(|e| format!("restore: {e}"))?;
        let choices = self.dev.dirty_line_choices();
        let mut plan = spec.build(&choices);
        self.dev.simulate_crash(plan.as_mut()).map_err(|e| format!("simulate: {e}"))?;

        let pool = reopen(self.dev.clone(), self.shards)?;
        if !pool.verify_parity().map_err(|e| format!("verify_parity: {e}"))? {
            return Err("parity invariant broken after recovery".into());
        }
        let corrupt = pool.find_corrupt_objects().map_err(|e| format!("find_corrupt: {e}"))?;
        if !corrupt.is_empty() {
            return Err(format!("corrupt objects after recovery: {corrupt:x?}"));
        }

        // The semantic all-or-nothing oracle: recovery must land exactly on
        // the committed state before or after the interrupted transaction.
        let got = ModelState::capture(&pool).map_err(|e| format!("capture: {e}"))?;
        let pre = &self.states[committed_before];
        let post = self.states.get(committed_before + 1);
        let committed = if got == *pre {
            committed_before
        } else if post.is_some_and(|p| got == *p) {
            committed_before + 1
        } else {
            let vs_pre = got.describe_mismatch(pre);
            let vs_post = post.map(|p| got.describe_mismatch(p)).unwrap_or_else(|| "n/a".into());
            return Err(format!(
                "torn state: matches neither commit {committed_before} (vs pre: {vs_pre}) \
                 nor commit {} (vs post: {vs_post})",
                committed_before + 1
            ));
        };
        // A full scrub must be a semantic no-op on a recovered pool.
        pool.scrub_now().map_err(|e| format!("scrub: {e}"))?;
        let after = ModelState::capture(&pool).map_err(|e| format!("capture: {e}"))?;
        if after != got {
            return Err(format!("scrub changed semantic state: {}", after.describe_mismatch(&got)));
        }

        // Workload checks run last: they may mutate the pool (e.g. probe
        // that the allocator still works).
        workload
            .verify(&pool, committed)
            .map_err(|e| format!("workload verify (committed={committed}): {e}"))?;
        Ok(())
    }

    /// The plan matrix for one crashed checkpoint: the base plans always,
    /// plus the interior of the exhaustive enumeration when the outcome
    /// space is small enough. Combination 0 is all-Old and the last is
    /// all-New, already covered by the base plans, so they are skipped.
    fn plans_for(
        &self,
        crash: &DeviceSnapshot,
        cfg: &SweepConfig,
    ) -> CaseResult<(Vec<PlanSpec>, u64)> {
        self.dev.restore(crash).map_err(|e| format!("restore: {e}"))?;
        let choices = self.dev.dirty_line_choices();
        let combos = MappedPlan::combinations(&choices);
        let mut specs = vec![PlanSpec::AllOld, PlanSpec::AllNew];
        specs.extend(cfg.seeds.iter().map(|&s| PlanSpec::Random(s)));
        if choices.len() <= cfg.exhaustive_max_lines && combos <= cfg.exhaustive_max_combos {
            specs.extend((1..combos.saturating_sub(1)).map(PlanSpec::Exhaustive));
        }
        Ok((specs, combos))
    }
}

/// Keeps the thousands of *intentional* [`CrashPoint`] panics a sweep
/// injects out of stderr (each would otherwise print a panic message and,
/// under `RUST_BACKTRACE`, a full backtrace — drowning the nightly
/// `--nocapture` log). Every other panic still reaches the previously
/// installed hook untouched.
fn silence_crash_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<CrashPoint>().is_none() {
                prev(info);
            }
        }));
    });
}

/// Sweeps `workload` with the [`SweepConfig::from_env`] matrix.
///
/// # Panics
///
/// Panics with the failing [`CaseFailure`] tuple (after re-running it
/// standalone) if any crash case breaks an invariant; tests call this
/// directly.
pub fn sweep(workload: &dyn CrashWorkload) -> SweepReport {
    sweep_with(workload, &SweepConfig::from_env())
}

/// Sweeps `workload` with an explicit matrix; panics on failure like
/// [`sweep`].
pub fn sweep_with(workload: &dyn CrashWorkload, config: &SweepConfig) -> SweepReport {
    match try_sweep(workload, config) {
        Ok(report) => {
            // Invisible under the default test harness capture; the nightly
            // deep job runs with --nocapture so the matrix lands in its log.
            eprintln!("{report}");
            report
        }
        Err(failure) => {
            // The failure reporter: print the tuple, re-run the case from
            // scratch to prove it reproduces standalone, then fail loudly.
            eprintln!("{failure}");
            match run_case(workload, failure.op, failure.plan) {
                Err(again) => eprintln!("standalone re-run reproduces: {}", again.message),
                Ok(()) => eprintln!(
                    "standalone re-run did NOT reproduce — suspect nondeterminism in the workload"
                ),
            }
            panic!("{failure}");
        }
    }
}

/// Sweeps `workload`, returning the first failing case instead of
/// panicking — the entry point for harness self-tests.
pub fn try_sweep(
    workload: &dyn CrashWorkload,
    config: &SweepConfig,
) -> std::result::Result<SweepReport, CaseFailure> {
    let fail = |op: u64, plan: PlanSpec, message: String| CaseFailure {
        workload: workload.name().to_string(),
        op,
        plan,
        message,
    };
    let harness = Harness::prepare(workload)
        .map_err(|m| fail(0, PlanSpec::AllOld, format!("harness setup: {m}")))?;
    let mut report = SweepReport {
        workload: workload.name().to_string(),
        boundaries: harness.total_ops,
        ..SweepReport::default()
    };
    for op in (0..harness.total_ops).step_by(config.effective_step(harness.total_ops)) {
        let (crash, committed) =
            harness.crash_at(workload, op).map_err(|m| fail(op, PlanSpec::AllOld, m))?;
        let (specs, combos) =
            harness.plans_for(&crash, config).map_err(|m| fail(op, PlanSpec::AllOld, m))?;
        report.swept += 1;
        report.max_outcome_space = report.max_outcome_space.max(combos);
        if specs.iter().any(|s| matches!(s, PlanSpec::Exhaustive(_))) {
            report.exhaustive_boundaries += 1;
        }
        for spec in specs {
            harness.check_plan(workload, &crash, committed, spec).map_err(|m| fail(op, spec, m))?;
            report.cases += 1;
        }
    }
    Ok(report)
}

/// Re-runs a single crash case from scratch — the standalone reproduction
/// path for a failing `(op, plan)` tuple printed by the reporter.
pub fn run_case(
    workload: &dyn CrashWorkload,
    op: u64,
    plan: PlanSpec,
) -> std::result::Result<(), CaseFailure> {
    let fail =
        |message: String| CaseFailure { workload: workload.name().to_string(), op, plan, message };
    let harness = Harness::prepare(workload).map_err(&fail)?;
    let (crash, committed) = harness.crash_at(workload, op).map_err(&fail)?;
    harness.check_plan(workload, &crash, committed, plan).map_err(&fail)
}
