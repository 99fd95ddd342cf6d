//! The streaming campaign engine: pair-granular scheduling, typed progress
//! events, cooperative cancellation and checkpoint/resume.
//!
//! [`CampaignSession`] replaces the monolithic blocking `Latest::run()` with
//! an engine that
//!
//! * schedules work at **pair granularity** — phase 1 and the probe run
//!   once, then every ordered pair is an independent work item on its own
//!   freshly seeded platform (parallel by default, sequential on request,
//!   bitwise identical either way);
//! * emits **typed progress events** ([`CampaignEvent`]) through any number
//!   of observer hooks or a plain [`std::sync::mpsc`] channel, so UIs and
//!   loggers watch the campaign in real time;
//! * honours a **cooperative [`CancelToken`]**: cancellation is checked
//!   before each pair, unmeasured pairs are recorded as
//!   [`PairOutcome::Cancelled`], and the partial [`CampaignResult`] is a
//!   valid checkpoint;
//! * **resumes** from such a checkpoint: completed pairs are restored
//!   verbatim, only the missing ones run, and — because every pair's
//!   platform is seeded from `(campaign seed, pair)` — the resumed result
//!   is bitwise identical to an uninterrupted run.
//!
//! The engine is generic over [`PlatformFactory`], so the same scheduling,
//! eventing and checkpointing applies to any backend implementing
//! [`Platform`](crate::platform::Platform).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use latest_cluster::AdaptiveConfig;
use parking_lot::Mutex;

use crate::analysis::analyze_pair;
use crate::campaign::{CampaignResult, PairMeasurement};
use crate::config::CampaignConfig;
use crate::controller::{run_pair, PairOutcome};
use crate::error::{CoreError, CoreResult};
use crate::exec::try_par_map;
use crate::phase1::{run_phase1, Phase1Result};
use crate::platform::{PlatformFactory, SimPlatformFactory};
use crate::probe::{estimate_upper_bound, ProbeResult};
use crate::state::FreqState;

/// Why a pair produced no measurements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SkipReason {
    /// Phase 1 found the pair statistically indistinguishable.
    Indistinguishable,
    /// Power throttling made the pair unmeasurable.
    PowerLimited,
    /// Every evaluation retry failed.
    RetriesExhausted,
    /// The session was cancelled before the pair was scheduled.
    Cancelled,
}

impl SkipReason {
    fn of(outcome: &PairOutcome) -> Option<SkipReason> {
        match outcome {
            PairOutcome::Completed(_) => None,
            PairOutcome::SkippedIndistinguishable => Some(SkipReason::Indistinguishable),
            PairOutcome::PowerLimited { .. } => Some(SkipReason::PowerLimited),
            PairOutcome::RetriesExhausted { .. } => Some(SkipReason::RetriesExhausted),
            PairOutcome::Cancelled => Some(SkipReason::Cancelled),
        }
    }
}

impl std::fmt::Display for SkipReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SkipReason::Indistinguishable => "indistinguishable",
            SkipReason::PowerLimited => "power-limited",
            SkipReason::RetriesExhausted => "retries exhausted",
            SkipReason::Cancelled => "cancelled",
        };
        f.write_str(s)
    }
}

/// Typed progress events emitted by a [`CampaignSession`].
///
/// Pair-level events may interleave arbitrarily between pairs when the
/// session runs in parallel; per pair, `PairStarted` always precedes
/// `PairFinished`/`PairSkipped`.
#[derive(Clone, Debug, PartialEq)]
pub enum CampaignEvent {
    /// The session started.
    CampaignStarted {
        /// Device under measurement.
        device_name: String,
        /// Number of ordered pairs scheduled.
        n_pairs: usize,
    },
    /// Phase 1 finished characterising and validating.
    Phase1Done {
        /// Pairs whose difference interval excluded zero.
        valid_pairs: usize,
        /// Pairs excluded as indistinguishable.
        skipped_pairs: usize,
    },
    /// The probe phase produced a capture-window bound.
    ProbeDone {
        /// Largest observed latency (ms).
        max_latency_ms: f64,
    },
    /// One pair's measurement loop is starting.
    PairStarted {
        /// Position in `ordered_state_pairs` order.
        index: usize,
        /// Initial frequency state.
        init: FreqState,
        /// Target frequency state.
        target: FreqState,
    },
    /// One pair completed with measurements.
    PairFinished {
        /// Position in `ordered_state_pairs` order.
        index: usize,
        /// Initial frequency state.
        init: FreqState,
        /// Target frequency state.
        target: FreqState,
        /// Accepted measurement count.
        measurements: usize,
        /// Outlier-filtered mean latency (ms).
        mean_ms: f64,
    },
    /// One pair ended without measurements.
    PairSkipped {
        /// Position in `ordered_state_pairs` order.
        index: usize,
        /// Initial frequency state.
        init: FreqState,
        /// Target frequency state.
        target: FreqState,
        /// Why.
        reason: SkipReason,
    },
    /// One pair was restored from a resume checkpoint without re-running.
    PairRestored {
        /// Position in `ordered_state_pairs` order.
        index: usize,
        /// Initial frequency state.
        init: FreqState,
        /// Target frequency state.
        target: FreqState,
    },
    /// A [`WorkUnit`] shard began executing its pairs.
    ShardStarted {
        /// Shard position in its plan (0-based).
        shard: usize,
        /// Number of shards in the plan.
        n_shards: usize,
        /// Pairs the shard owns.
        pairs: usize,
    },
    /// A [`WorkUnit`] shard finished every pair it owns.
    ShardFinished {
        /// Shard position in its plan (0-based).
        shard: usize,
        /// Number of shards in the plan.
        n_shards: usize,
        /// Pairs the shard owns.
        pairs: usize,
    },
    /// The session finished (possibly partially, after cancellation).
    CampaignFinished {
        /// Pairs that completed with measurements.
        completed: usize,
        /// Pairs skipped for statistical/thermal reasons.
        skipped: usize,
        /// Pairs left unmeasured by cancellation.
        cancelled: usize,
    },
}

impl std::fmt::Display for CampaignEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignEvent::CampaignStarted {
                device_name,
                n_pairs,
            } => {
                write!(f, "campaign started on {device_name}: {n_pairs} pairs")
            }
            CampaignEvent::Phase1Done {
                valid_pairs,
                skipped_pairs,
            } => {
                write!(
                    f,
                    "phase 1 done: {valid_pairs} valid, {skipped_pairs} skipped"
                )
            }
            CampaignEvent::ProbeDone { max_latency_ms } => {
                write!(f, "probe done: bound {max_latency_ms:.3} ms")
            }
            CampaignEvent::PairStarted { init, target, .. } => {
                write!(f, "pair {init}->{target} MHz started")
            }
            CampaignEvent::PairFinished {
                init,
                target,
                measurements,
                mean_ms,
                ..
            } => {
                write!(
                    f,
                    "pair {init}->{target} MHz finished: n={measurements}, mean {mean_ms:.3} ms"
                )
            }
            CampaignEvent::PairSkipped {
                init,
                target,
                reason,
                ..
            } => {
                write!(f, "pair {init}->{target} MHz skipped ({reason})")
            }
            CampaignEvent::PairRestored { init, target, .. } => {
                write!(f, "pair {init}->{target} MHz restored from checkpoint")
            }
            CampaignEvent::ShardStarted {
                shard,
                n_shards,
                pairs,
            } => {
                write!(f, "shard {}/{n_shards} started: {pairs} pairs", shard + 1)
            }
            CampaignEvent::ShardFinished {
                shard,
                n_shards,
                pairs,
            } => {
                write!(f, "shard {}/{n_shards} finished: {pairs} pairs", shard + 1)
            }
            CampaignEvent::CampaignFinished {
                completed,
                skipped,
                cancelled,
            } => {
                write!(
                    f,
                    "campaign finished: {completed} completed, {skipped} skipped, {cancelled} cancelled"
                )
            }
        }
    }
}

/// Observer hook for [`CampaignEvent`]s.
///
/// Implemented for any `Fn(&CampaignEvent) + Send + Sync` closure; events
/// may arrive from worker threads when the session runs in parallel.
pub trait CampaignObserver: Send + Sync {
    /// Called for every event, in emission order per pair.
    fn event(&self, event: &CampaignEvent);
}

impl<F: Fn(&CampaignEvent) + Send + Sync> CampaignObserver for F {
    fn event(&self, event: &CampaignEvent) {
        self(event)
    }
}

/// Observer that forwards every event into an mpsc channel.
pub struct ChannelObserver {
    tx: Mutex<Sender<CampaignEvent>>,
}

impl ChannelObserver {
    /// Wrap a sender.
    pub fn new(tx: Sender<CampaignEvent>) -> Self {
        ChannelObserver { tx: Mutex::new(tx) }
    }
}

impl CampaignObserver for ChannelObserver {
    fn event(&self, event: &CampaignEvent) {
        // A dropped receiver only means nobody is listening any more.
        let _ = self.tx.lock().send(event.clone());
    }
}

/// Cooperative cancellation handle.
///
/// Clone it out of the session, hand it to another thread (or an observer),
/// and call [`CancelToken::cancel`]; the session checks it at pair
/// granularity and winds down, recording unmeasured pairs as
/// [`PairOutcome::Cancelled`].
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation (idempotent, thread-safe).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Phase 1 + probe: the once-per-campaign preamble every shard shares.
///
/// Produced by [`CampaignSession::prelude`] on a platform seeded from the
/// campaign seed alone (or restored from a resume checkpoint, which is
/// equivalent bit for bit), then handed unchanged to every
/// [`CampaignSession::run_unit`] call.
#[derive(Clone, Debug)]
pub struct CampaignPrelude {
    /// Phase-1 characterisation and pair validation.
    pub phase1: Phase1Result,
    /// Probe-phase capture-window bound.
    pub probe: ProbeResult,
}

/// One pair inside a [`WorkUnit`]: its canonical position plus the
/// `pair_seed`-derived seed its platform is constructed from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairTask {
    /// Position in `ordered_state_pairs` order.
    pub index: usize,
    /// Initial frequency state.
    pub init: FreqState,
    /// Target frequency state.
    pub target: FreqState,
    /// The platform seed for this pair:
    /// `config.state_pair_seed(init, target)`.
    pub seed: u64,
}

/// One schedulable shard of a campaign: a subset of the ordered pairs.
///
/// # Determinism contract
///
/// A work unit owns everything its pairs need. Each [`PairTask`] carries
/// the `pair_seed`-derived seed its `Platform` is built from through the
/// session's [`PlatformFactory`], and phase 1 + probe arrive as the shared
/// [`CampaignPrelude`]. No state flows between pairs or between shards, so
/// *any* partition of the pairs into units, executed in *any* order on
/// *any* number of threads (or processes), yields measurements bitwise
/// identical to a sequential run; [`CampaignResult::merge`] only has to
/// put them back in canonical order.
#[derive(Clone, Debug)]
pub struct WorkUnit {
    shard: usize,
    n_shards: usize,
    announce: bool,
    pairs: Vec<PairTask>,
}

impl WorkUnit {
    /// This shard's position in its plan (0-based).
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Number of shards in the plan this unit belongs to.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// The pairs this shard owns, in canonical order.
    pub fn pairs(&self) -> &[PairTask] {
        &self.pairs
    }

    /// Number of pairs in this shard.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the shard owns no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// Measurements produced by one [`WorkUnit`], tagged with canonical pair
/// indices so [`CampaignResult::merge`] can reassemble them in order.
#[derive(Clone, Debug)]
pub struct ShardResult {
    /// The shard that produced these measurements.
    pub shard: usize,
    /// `(canonical pair index, measurement)` for every pair of the unit.
    pub pairs: Vec<(usize, PairMeasurement)>,
}

/// An enumerable partition of a campaign's pending pairs into
/// [`WorkUnit`]s, produced by [`CampaignSession::plan`].
#[derive(Clone, Debug)]
pub struct ShardPlan {
    total_pairs: usize,
    units: Vec<WorkUnit>,
}

impl ShardPlan {
    /// The work units, in shard order.
    pub fn units(&self) -> &[WorkUnit] {
        &self.units
    }

    /// Ordered pairs in the whole campaign (including any already restored
    /// from a checkpoint and therefore absent from this plan).
    pub fn total_pairs(&self) -> usize {
        self.total_pairs
    }

    /// Pairs covered by this plan's units.
    pub fn planned_pairs(&self) -> usize {
        self.units.iter().map(WorkUnit::len).sum()
    }
}

/// Receives every freshly settled pair; see [`CampaignSession::on_settle`].
type SettleHook = Arc<dyn Fn(&CampaignResult, usize, &PairMeasurement) + Send + Sync>;

/// The streaming campaign engine. See the [module docs](self) for the tour.
pub struct CampaignSession<F: PlatformFactory = SimPlatformFactory> {
    config: CampaignConfig,
    adaptive: AdaptiveConfig,
    factory: F,
    observers: Vec<Arc<dyn CampaignObserver>>,
    cancel: CancelToken,
    sequential: bool,
    checkpoint: Option<CampaignResult>,
    settle_hook: Option<SettleHook>,
}

impl CampaignSession<SimPlatformFactory> {
    /// A session over the simulated backend described by `config.spec`.
    pub fn new(config: CampaignConfig) -> Self {
        let factory = SimPlatformFactory::new(config.spec.clone());
        CampaignSession::with_factory(config, factory)
    }
}

impl<F: PlatformFactory> CampaignSession<F> {
    /// A session over an arbitrary backend.
    pub fn with_factory(config: CampaignConfig, factory: F) -> Self {
        CampaignSession {
            config,
            adaptive: AdaptiveConfig::default(),
            factory,
            observers: Vec::new(),
            cancel: CancelToken::new(),
            sequential: false,
            checkpoint: None,
            settle_hook: None,
        }
    }

    /// Override the Algorithm-3 parameters.
    pub fn with_adaptive(mut self, adaptive: AdaptiveConfig) -> Self {
        self.adaptive = adaptive;
        self
    }

    /// Attach an observer; may be called several times.
    pub fn observe(mut self, observer: impl CampaignObserver + 'static) -> Self {
        self.observers.push(Arc::new(observer));
        self
    }

    /// Attach a channel observer and return its receiving end.
    pub fn events(&mut self) -> Receiver<CampaignEvent> {
        let (tx, rx) = channel();
        self.observers.push(Arc::new(ChannelObserver::new(tx)));
        rx
    }

    /// Share a caller-owned cancellation token with the session.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// The session's cancellation token (clone it before `run`).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Force sequential pair scheduling: every pair runs on the calling
    /// thread, in canonical order. Both schedules give bitwise-identical
    /// results.
    ///
    /// By default the work units run in parallel on the calling thread plus
    /// `available_parallelism() − 1` helper threads, so events of different
    /// pairs interleave and observers are called from several threads at
    /// once. After a unit fails, no further unit starts.
    pub fn sequential(mut self, on: bool) -> Self {
        self.sequential = on;
        self
    }

    /// Call `hook(header, index, measurement)` for every pair the run
    /// measures, right after it settles and before its worker starts the
    /// next pair. Pairs restored through [`CampaignSession::resume_from`]
    /// and pairs skipped by cancellation are not reported.
    ///
    /// `header` is the campaign with phase 1 and the probe filled in and
    /// every pair [`PairOutcome::Cancelled`]; folding the reported pairs
    /// into it at their canonical `index` gives the partial result
    /// [`CampaignSession::resume_from`] accepts. That is what a
    /// [`SettleLog`](crate::settle_log::SettleLog) persists, one line per
    /// call.
    ///
    /// The hook is called from worker threads, possibly several at once,
    /// in no particular pair order.
    pub fn on_settle(
        mut self,
        hook: impl Fn(&CampaignResult, usize, &PairMeasurement) + Send + Sync + 'static,
    ) -> Self {
        self.settle_hook = Some(Arc::new(hook));
        self
    }

    /// Resume from a partial result: pairs already measured (or skipped for
    /// statistical/thermal reasons) are restored verbatim, only
    /// [`PairOutcome::Cancelled`] pairs run.
    ///
    /// Fails fast at [`CampaignSession::run`] time if the checkpoint does
    /// not match the configuration (different device or pair set).
    pub fn resume_from(mut self, checkpoint: CampaignResult) -> Self {
        self.checkpoint = Some(checkpoint);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    fn emit(&self, event: CampaignEvent) {
        for obs in &self.observers {
            obs.event(&event);
        }
    }

    fn emit_phase1_done(&self, phase1: &Phase1Result) {
        self.emit(CampaignEvent::Phase1Done {
            valid_pairs: phase1.valid_pairs.len(),
            skipped_pairs: phase1.skipped_pairs.len(),
        });
    }

    /// Validate a checkpoint against the configured campaign.
    ///
    /// A checkpoint is only usable when it was taken by *this* campaign:
    /// same device, same seed (restored pairs would otherwise mix noise
    /// streams with re-run ones) and the exact configured pair set (the
    /// restored phase 1 must have characterised every configured
    /// frequency, or missing pairs would be silently mis-skipped as
    /// indistinguishable).
    fn check_checkpoint(&self, cp: &CampaignResult) -> CoreResult<()> {
        let expected = self.factory.device_name();
        if cp.device_name != expected {
            return Err(CoreError::CheckpointMismatch {
                reason: format!(
                    "checkpoint is for device {:?}, session runs {expected:?}",
                    cp.device_name
                ),
            });
        }
        if cp.seed != self.config.seed {
            return Err(CoreError::CheckpointMismatch {
                reason: format!(
                    "checkpoint was taken under seed {}, session is configured with seed {}",
                    cp.seed, self.config.seed
                ),
            });
        }
        let ordered = self.config.ordered_state_pairs();
        if cp.pairs().len() != ordered.len() {
            return Err(CoreError::CheckpointMismatch {
                reason: format!(
                    "checkpoint covers {} pairs, the configuration schedules {}",
                    cp.pairs().len(),
                    ordered.len()
                ),
            });
        }
        for &(init, target) in &ordered {
            if cp.pair(init, target).is_none() {
                return Err(CoreError::CheckpointMismatch {
                    reason: format!(
                        "configured pair {init}->{target} MHz is missing from the checkpoint"
                    ),
                });
            }
        }
        for state in self.config.states() {
            if cp.phase1.of(state).is_none() {
                return Err(CoreError::CheckpointMismatch {
                    reason: format!("checkpoint phase 1 never characterised {state} MHz"),
                });
            }
        }
        Ok(())
    }

    /// Run phase 1 and the probe — the once-per-campaign preamble every
    /// shard shares — emitting `CampaignStarted`, `Phase1Done` and
    /// `ProbeDone`.
    ///
    /// On a resume, phase 1 + probe are restored from the (validated)
    /// checkpoint; their platform is seeded from the campaign seed alone,
    /// so a re-run would reproduce them bit for bit anyway.
    pub fn prelude(&self) -> CoreResult<CampaignPrelude> {
        let config = &self.config;
        self.emit(CampaignEvent::CampaignStarted {
            device_name: self.factory.device_name(),
            n_pairs: config.ordered_state_pairs().len(),
        });

        if let Some(cp) = &self.checkpoint {
            self.check_checkpoint(cp)?;
        }

        // Phase1Done goes out as soon as phase 1 is known, before the
        // probe runs, so observers can time the two apart.
        let (phase1, probe) = match &self.checkpoint {
            Some(cp) => {
                self.emit_phase1_done(&cp.phase1);
                (cp.phase1.clone(), cp.probe.clone())
            }
            None => {
                if self.cancel.is_cancelled() {
                    return Err(CoreError::Cancelled);
                }
                let mut p0 = self.factory.create(config.seed)?;
                let phase1 = run_phase1(&mut p0, config)?;
                self.emit_phase1_done(&phase1);
                let probe = estimate_upper_bound(&mut p0, config, &phase1)?;
                (phase1, probe)
            }
        };
        self.emit(CampaignEvent::ProbeDone {
            max_latency_ms: probe.max_latency_ms,
        });
        Ok(CampaignPrelude { phase1, probe })
    }

    /// Whether the resume checkpoint already holds this pair's measurement.
    fn is_restored(&self, init: FreqState, target: FreqState) -> bool {
        self.checkpoint
            .as_ref()
            .and_then(|cp| cp.pair(init, target))
            .is_some_and(|p| !p.outcome.is_cancelled())
    }

    /// Pairs restorable verbatim from the resume checkpoint, as
    /// `(canonical index, measurement)` in canonical order (empty without a
    /// checkpoint). These are exactly the pairs [`CampaignSession::plan`]
    /// excludes; feed them to [`CampaignResult::merge`] as one extra
    /// [`ShardResult`] alongside the executed units.
    pub fn restored_pairs(&self) -> Vec<(usize, PairMeasurement)> {
        let Some(cp) = &self.checkpoint else {
            return Vec::new();
        };
        self.config
            .ordered_state_pairs()
            .iter()
            .enumerate()
            .filter_map(|(i, &(a, b))| {
                cp.pair(a, b)
                    .filter(|p| !p.outcome.is_cancelled())
                    .map(|p| (i, p.clone()))
            })
            .collect()
    }

    /// Partition the campaign's *pending* pairs (everything not restorable
    /// from the resume checkpoint) into at most `n_shards` [`WorkUnit`]s of
    /// near-equal size, in canonical pair order.
    ///
    /// Each unit is self-contained — canonical indices, frequencies and
    /// per-pair platform seeds — so units can be executed in any order, on
    /// any thread or process, and merged back deterministically; see the
    /// [`WorkUnit`] contract.
    pub fn plan(&self, n_shards: usize) -> ShardPlan {
        self.plan_with(n_shards, true)
    }

    fn plan_with(&self, n_shards: usize, announce: bool) -> ShardPlan {
        let ordered = self.config.ordered_state_pairs();
        let pending: Vec<PairTask> = ordered
            .iter()
            .enumerate()
            .filter(|&(_, &(init, target))| !self.is_restored(init, target))
            .map(|(index, &(init, target))| PairTask {
                index,
                init,
                target,
                seed: self.config.state_pair_seed(init, target),
            })
            .collect();
        let mut units = Vec::new();
        if !pending.is_empty() {
            let n = n_shards.clamp(1, pending.len());
            let chunk = pending.len().div_ceil(n);
            units = pending
                .chunks(chunk)
                .enumerate()
                .map(|(shard, pairs)| WorkUnit {
                    shard,
                    n_shards: 0, // patched below once the count is known
                    announce,
                    pairs: pairs.to_vec(),
                })
                .collect();
        }
        let n_units = units.len();
        for unit in &mut units {
            unit.n_shards = n_units;
        }
        ShardPlan {
            total_pairs: ordered.len(),
            units,
        }
    }

    /// Execute one [`WorkUnit`]: every pair on its own `pair_seed`-seeded
    /// platform, in the unit's canonical order, with the usual pair events
    /// (plus `ShardStarted`/`ShardFinished` for plans built through
    /// [`CampaignSession::plan`]).
    pub fn run_unit(&self, prelude: &CampaignPrelude, unit: &WorkUnit) -> CoreResult<ShardResult> {
        self.run_unit_with(prelude, unit, |_, _| {})
    }

    /// [`CampaignSession::run_unit`] with a per-pair settle hook: called
    /// after each pair of the unit is measured (not for pairs skipped by
    /// cancellation), before the next pair starts. The queue's shard
    /// scheduler uses it to fold settled pairs into cross-shard
    /// checkpoints and to poll cancellation at pair granularity.
    pub fn run_unit_with(
        &self,
        prelude: &CampaignPrelude,
        unit: &WorkUnit,
        on_settle: impl Fn(usize, &PairMeasurement),
    ) -> CoreResult<ShardResult> {
        if unit.announce {
            self.emit(CampaignEvent::ShardStarted {
                shard: unit.shard,
                n_shards: unit.n_shards,
                pairs: unit.len(),
            });
        }
        let mut pairs = Vec::with_capacity(unit.len());
        for task in &unit.pairs {
            let meas = self.measure_pair(prelude, task, &on_settle)?;
            pairs.push((task.index, meas));
        }
        if unit.announce {
            self.emit(CampaignEvent::ShardFinished {
                shard: unit.shard,
                n_shards: unit.n_shards,
                pairs: unit.len(),
            });
        }
        Ok(ShardResult {
            shard: unit.shard,
            pairs,
        })
    }

    /// Measure one pair on a freshly seeded platform (or record it as
    /// cancelled), emitting the pair events.
    fn measure_pair(
        &self,
        prelude: &CampaignPrelude,
        task: &PairTask,
        on_settle: &dyn Fn(usize, &PairMeasurement),
    ) -> CoreResult<PairMeasurement> {
        let PairTask {
            index,
            init,
            target,
            seed,
        } = *task;
        if self.cancel.is_cancelled() {
            self.emit(CampaignEvent::PairSkipped {
                index,
                init,
                target,
                reason: SkipReason::Cancelled,
            });
            return Ok(PairMeasurement {
                init,
                target,
                outcome: PairOutcome::Cancelled,
                analysis: None,
            });
        }
        self.emit(CampaignEvent::PairStarted {
            index,
            init,
            target,
        });
        let mut platform = self.factory.create(seed)?;
        let outcome = run_pair(
            &mut platform,
            &self.config,
            &prelude.phase1,
            init,
            target,
            prelude.probe.max_latency_ms,
        )?;
        let analysis = outcome
            .run()
            .map(|r| analyze_pair(&r.latencies_ms, &self.adaptive));
        match (&outcome, &analysis) {
            (PairOutcome::Completed(run), Some(a)) => {
                self.emit(CampaignEvent::PairFinished {
                    index,
                    init,
                    target,
                    measurements: run.latencies_ms.len(),
                    mean_ms: a.filtered.mean,
                });
            }
            _ => {
                if let Some(reason) = SkipReason::of(&outcome) {
                    self.emit(CampaignEvent::PairSkipped {
                        index,
                        init,
                        target,
                        reason,
                    });
                }
            }
        }
        let measurement = PairMeasurement {
            init,
            target,
            outcome,
            analysis,
        };
        on_settle(index, &measurement);
        Ok(measurement)
    }

    /// Assemble shard results (in any completion order) into this
    /// campaign's [`CampaignResult`] via [`CampaignResult::merge`].
    pub fn merge_shards(
        &self,
        prelude: &CampaignPrelude,
        shards: Vec<ShardResult>,
    ) -> CampaignResult {
        CampaignResult::merge(
            self.factory.device_name(),
            self.config.device_index,
            self.config.seed,
            prelude.phase1.clone(),
            prelude.probe.clone(),
            &self.config.ordered_state_pairs(),
            shards,
        )
    }

    /// Run the campaign to completion (or cancellation).
    ///
    /// Returns the full [`CampaignResult`]; after a cancellation the result
    /// is partial ([`CampaignResult::is_partial`]) and can be fed back
    /// through [`CampaignSession::resume_from`].
    pub fn run(&self) -> CoreResult<CampaignResult> {
        self.run_plan(None)
    }

    /// Run the campaign through the [`WorkUnit`] layer with an explicit
    /// shard count: pending pairs are partitioned into at most `n_shards`
    /// units executed (in parallel unless [`CampaignSession::sequential`])
    /// and merged — bitwise identical to [`CampaignSession::run`] for any
    /// shard count, with `ShardStarted`/`ShardFinished` progress events.
    pub fn run_sharded(&self, n_shards: usize) -> CoreResult<CampaignResult> {
        self.run_plan(Some(n_shards.max(1)))
    }

    fn run_plan(&self, shards: Option<usize>) -> CoreResult<CampaignResult> {
        let prelude = self.prelude()?;

        // The settle hook's header: built once, handed out by reference.
        let header = self
            .settle_hook
            .as_ref()
            .map(|_| self.merge_shards(&prelude, Vec::new()));
        let settle = |index: usize, meas: &PairMeasurement| {
            if let (Some(hook), Some(header)) = (&self.settle_hook, &header) {
                hook(header, index, meas);
            }
        };

        // Checkpoint hits restore without touching the device; only the
        // pending pairs are planned into work units.
        let restored = self.restored_pairs();
        for &(index, ref meas) in &restored {
            self.emit(CampaignEvent::PairRestored {
                index,
                init: meas.init,
                target: meas.target,
            });
        }

        // Without an explicit shard count, every pair is its own unit —
        // the scheduling granularity (and results) of the classic engine.
        let plan = self.plan_with(shards.unwrap_or(usize::MAX), shards.is_some());
        let run_one = |unit: &WorkUnit| self.run_unit_with(&prelude, unit, settle);
        let results: CoreResult<Vec<ShardResult>> = if self.sequential {
            plan.units().iter().map(run_one).collect()
        } else {
            try_par_map(plan.units(), run_one)
        };
        let mut shard_results = results?;
        shard_results.push(ShardResult {
            shard: shard_results.len(),
            pairs: restored,
        });

        let result = self.merge_shards(&prelude, shard_results);
        let completed = result.completed().count();
        let cancelled = result
            .pairs()
            .iter()
            .filter(|p| p.outcome.is_cancelled())
            .count();
        self.emit(CampaignEvent::CampaignFinished {
            completed,
            skipped: result.pairs().len() - completed - cancelled,
            cancelled,
        });
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{Platform, SimPlatform};
    use latest_clock_sync::{SyncConfig, SyncResult};
    use latest_cuda_sim::TimerData;
    use latest_gpu_sim::devices;
    use latest_gpu_sim::freq::FreqMhz;
    use latest_gpu_sim::transition::FixedTransition;
    use latest_gpu_sim::{KernelConfig, KernelId, ThrottleReasons};
    use latest_sim_clock::{SimDuration, SimTime};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    fn small_campaign(seed: u64) -> CampaignConfig {
        let mut spec = devices::a100_sxm4();
        spec.transition = Arc::new(FixedTransition {
            latency: SimDuration::from_millis(7),
        });
        CampaignConfig::builder(spec)
            .frequencies_mhz(&[705, 1410])
            .measurements(8, 20)
            .simulated_sms(Some(4))
            .seed(seed)
            .build()
    }

    #[test]
    fn session_reproduces_latest_results() {
        let via_latest = crate::campaign::Latest::new(small_campaign(21))
            .run()
            .unwrap();
        let via_session = CampaignSession::new(small_campaign(21)).run().unwrap();
        for (a, b) in via_latest.pairs().iter().zip(via_session.pairs()) {
            assert_eq!(a.latencies_ms(), b.latencies_ms());
        }
    }

    #[test]
    fn events_cover_every_pair_in_order() {
        let mut session = CampaignSession::new(small_campaign(22)).sequential(true);
        let rx = session.events();
        let result = session.run().unwrap();
        drop(session);
        let events: Vec<CampaignEvent> = rx.try_iter().collect();
        assert!(matches!(
            events.first(),
            Some(CampaignEvent::CampaignStarted { n_pairs: 2, .. })
        ));
        let phase1_at = events
            .iter()
            .position(|e| matches!(e, CampaignEvent::Phase1Done { .. }))
            .unwrap();
        let first_start = events
            .iter()
            .position(|e| matches!(e, CampaignEvent::PairStarted { .. }))
            .unwrap();
        assert!(phase1_at < first_start, "phase 1 must precede pair work");
        let finishes = events
            .iter()
            .filter(|e| matches!(e, CampaignEvent::PairFinished { .. }))
            .count();
        assert_eq!(finishes, result.completed().count());
        assert!(matches!(
            events.last(),
            Some(CampaignEvent::CampaignFinished { .. })
        ));
    }

    #[test]
    fn cancellation_yields_partial_checkpoint() {
        let session = CampaignSession::new(small_campaign(23)).sequential(true);
        let token = session.cancel_token();
        // Cancel as soon as the first pair finishes: the second must be
        // recorded as cancelled, not measured.
        let session = session.observe(move |e: &CampaignEvent| {
            if matches!(e, CampaignEvent::PairFinished { .. }) {
                token.cancel();
            }
        });
        let result = session.run().unwrap();
        assert!(result.is_partial());
        assert_eq!(result.completed().count(), 1);
        assert_eq!(
            result
                .pairs()
                .iter()
                .filter(|p| p.outcome.is_cancelled())
                .count(),
            1
        );
    }

    #[test]
    fn cancel_before_start_aborts_cleanly() {
        let session = CampaignSession::new(small_campaign(24));
        session.cancel_token().cancel();
        assert!(matches!(session.run(), Err(CoreError::Cancelled)));
    }

    #[test]
    fn resume_completes_a_cancelled_run_bitwise() {
        let full = CampaignSession::new(small_campaign(25))
            .sequential(true)
            .run()
            .unwrap();

        let session = CampaignSession::new(small_campaign(25)).sequential(true);
        let token = session.cancel_token();
        let session = session.observe(move |e: &CampaignEvent| {
            if matches!(e, CampaignEvent::PairFinished { .. }) {
                token.cancel();
            }
        });
        let partial = session.run().unwrap();
        assert!(partial.is_partial());

        // Round-trip the checkpoint through its serialised form, as a
        // process restart would.
        let checkpoint = CampaignResult::from_json(&partial.to_json()).unwrap();
        let resumed = CampaignSession::new(small_campaign(25))
            .sequential(true)
            .resume_from(checkpoint)
            .run()
            .unwrap();
        assert!(!resumed.is_partial());
        for (a, b) in full.pairs().iter().zip(resumed.pairs()) {
            let bits =
                |xs: Option<&[f64]>| xs.map(|v| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>());
            assert_eq!(bits(a.latencies_ms()), bits(b.latencies_ms()));
        }
    }

    #[test]
    fn periodic_checkpoints_are_resumable_and_converge() {
        let settled: Arc<Mutex<Vec<(CampaignResult, usize, PairMeasurement)>>> =
            Arc::new(Mutex::new(Vec::new()));
        let sink = settled.clone();
        let full = CampaignSession::new(small_campaign(30))
            .sequential(true)
            .on_settle(move |header, index, meas| {
                sink.lock().push((header.clone(), index, meas.clone()))
            })
            .run()
            .unwrap();

        let settled = settled.lock();
        // Two pairs: one call per settled pair, each with the same header.
        assert_eq!(settled.len(), 2);
        let header = &settled[0].0;
        assert!(header.pairs().iter().all(|p| p.outcome.is_cancelled()));
        assert_eq!(header.to_json(), settled[1].0.to_json());
        let fold = |upto: usize| {
            let pairs = settled[..upto]
                .iter()
                .map(|(_, i, m)| (*i, m.clone()))
                .collect();
            let ordered: Vec<_> = header.pairs().iter().map(|p| (p.init, p.target)).collect();
            CampaignResult::merge(
                header.device_name.clone(),
                header.device_index,
                header.seed,
                header.phase1.clone(),
                header.probe.clone(),
                &ordered,
                vec![ShardResult { shard: 0, pairs }],
            )
        };
        assert!(fold(1).is_partial(), "first checkpoint must be partial");
        assert!(!fold(2).is_partial(), "last checkpoint must be complete");

        // The header plus the first settled pair round-trips through JSON
        // (as a process restart would) and resumes to the uninterrupted
        // result, bit for bit.
        let cp = CampaignResult::from_json(&fold(1).to_json()).unwrap();
        let resumed = CampaignSession::new(small_campaign(30))
            .sequential(true)
            .resume_from(cp)
            .run()
            .unwrap();
        for (a, b) in full.pairs().iter().zip(resumed.pairs()) {
            let bits =
                |xs: Option<&[f64]>| xs.map(|v| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>());
            assert_eq!(bits(a.latencies_ms()), bits(b.latencies_ms()));
        }
        // And folding every settled pair IS the final result.
        assert_eq!(fold(2).to_json(), full.to_json());
    }

    #[test]
    fn mismatched_checkpoint_is_rejected() {
        let cp = CampaignSession::new(small_campaign(26)).run().unwrap();

        // Wrong device.
        let other = CampaignConfig::builder(devices::gh200())
            .frequencies_mhz(&[705, 1980])
            .measurements(8, 20)
            .seed(26)
            .build();
        let err = CampaignSession::new(other).resume_from(cp.clone()).run();
        assert!(matches!(err, Err(CoreError::CheckpointMismatch { .. })));

        // Wrong seed: restored pairs would mix noise streams with re-runs.
        let err = CampaignSession::new(small_campaign(27))
            .resume_from(cp.clone())
            .run();
        assert!(matches!(err, Err(CoreError::CheckpointMismatch { .. })));

        // Wrong frequency set: the checkpoint's phase 1 never characterised
        // 1095 MHz, so its pairs could not be scheduled from this resume.
        let mut spec = devices::a100_sxm4();
        spec.transition = Arc::new(FixedTransition {
            latency: SimDuration::from_millis(7),
        });
        let wider = CampaignConfig::builder(spec)
            .frequencies_mhz(&[705, 1095, 1410])
            .measurements(8, 20)
            .simulated_sms(Some(4))
            .seed(26)
            .build();
        let err = CampaignSession::new(wider).resume_from(cp).run();
        assert!(matches!(err, Err(CoreError::CheckpointMismatch { .. })));
    }

    /// A [`SimPlatformFactory`] whose platforms count kernel launches into
    /// one shared counter.
    struct LaunchCounting {
        inner: SimPlatformFactory,
        launches: Arc<AtomicUsize>,
    }

    struct CountedPlatform {
        inner: SimPlatform,
        launches: Arc<AtomicUsize>,
    }

    impl PlatformFactory for LaunchCounting {
        type Platform = CountedPlatform;

        fn create(&self, seed: u64) -> CoreResult<CountedPlatform> {
            Ok(CountedPlatform {
                inner: self.inner.create(seed)?,
                launches: self.launches.clone(),
            })
        }

        fn device_name(&self) -> String {
            self.inner.device_name()
        }
    }

    impl Platform for CountedPlatform {
        fn now(&self) -> SimTime {
            self.inner.now()
        }

        fn sleep(&mut self, d: SimDuration) {
            self.inner.sleep(d)
        }

        fn set_locked_clocks(&mut self, target: FreqMhz) -> CoreResult<FreqMhz> {
            self.inner.set_locked_clocks(target)
        }

        fn reset_locked_clocks(&mut self) -> CoreResult<FreqMhz> {
            self.inner.reset_locked_clocks()
        }

        fn current_clock(&mut self) -> FreqMhz {
            self.inner.current_clock()
        }

        fn supported_clocks(&self) -> Vec<FreqMhz> {
            self.inner.supported_clocks()
        }

        fn launch_benchmark(&mut self, config: KernelConfig) -> CoreResult<KernelId> {
            self.launches.fetch_add(1, Ordering::SeqCst);
            self.inner.launch_benchmark(config)
        }

        fn synchronize(&mut self) -> SimTime {
            self.inner.synchronize()
        }

        fn collect_records(&mut self, id: KernelId) -> CoreResult<TimerData> {
            self.inner.collect_records(id)
        }

        fn synchronize_timers(&mut self, config: &SyncConfig) -> SyncResult {
            self.inner.synchronize_timers(config)
        }

        fn throttle_reasons(&mut self) -> ThrottleReasons {
            self.inner.throttle_reasons()
        }

        fn temperature_c(&mut self) -> f64 {
            self.inner.temperature_c()
        }

        fn device_name(&self) -> String {
            self.inner.device_name()
        }
    }

    #[test]
    fn phase1_done_fires_before_the_probe_runs() {
        let config = small_campaign(31);
        let launches = Arc::new(AtomicUsize::new(0));
        let factory = LaunchCounting {
            inner: SimPlatformFactory::new(config.spec.clone()),
            launches: launches.clone(),
        };
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = seen.clone();
        let session = CampaignSession::with_factory(config, factory).observe(
            move |e: &CampaignEvent| match e {
                CampaignEvent::Phase1Done { .. } | CampaignEvent::ProbeDone { .. } => {
                    log.lock().push(launches.load(Ordering::SeqCst));
                }
                _ => {}
            },
        );
        session.prelude().unwrap();
        let counts = seen.lock().clone();
        assert_eq!(counts.len(), 2, "one Phase1Done and one ProbeDone");
        assert!(
            counts[0] < counts[1],
            "the probe launches kernels after Phase1Done: {counts:?}"
        );
    }

    /// Refuses to build the platform of one pair.
    struct FailingSeed {
        inner: SimPlatformFactory,
        seed: u64,
    }

    impl PlatformFactory for FailingSeed {
        type Platform = SimPlatform;

        fn create(&self, seed: u64) -> CoreResult<SimPlatform> {
            if seed == self.seed {
                return Err(CoreError::MemoryClocksUnsupported);
            }
            self.inner.create(seed)
        }

        fn device_name(&self) -> String {
            self.inner.device_name()
        }
    }

    #[test]
    fn a_failing_pair_stops_further_pairs_from_starting() {
        let mut config = small_campaign(32);
        config.frequencies = [705, 900, 1200, 1410].map(FreqMhz).to_vec();
        let pairs = config.ordered_state_pairs();
        let (init, target) = pairs[0];
        let bad = config.state_pair_seed(init, target);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        for sequential in [true, false] {
            let factory = FailingSeed {
                inner: SimPlatformFactory::new(config.spec.clone()),
                seed: bad,
            };
            let started = Arc::new(AtomicUsize::new(0));
            let count = started.clone();
            let session = CampaignSession::with_factory(config.clone(), factory)
                .sequential(sequential)
                .observe(move |e: &CampaignEvent| {
                    if matches!(e, CampaignEvent::PairStarted { .. }) {
                        count.fetch_add(1, Ordering::SeqCst);
                    }
                });
            let outcome = session.run();
            assert!(matches!(outcome, Err(CoreError::MemoryClocksUnsupported)));
            // The failing pair comes first: sequentially nothing follows
            // it; in parallel each other worker finishes at most the pair
            // in hand and one claimed in the same instant.
            let started = started.load(Ordering::SeqCst);
            let bound = if sequential { 1 } else { 2 * cores - 1 };
            assert!(
                started <= bound.min(pairs.len()),
                "sequential {sequential}: {started} of {} pairs started",
                pairs.len()
            );
        }
    }
}
