//! The crash-safe, directory-backed job queue.
//!
//! Layout under the queue directory:
//!
//! ```text
//! <dir>/jobs/job-000001.json        one journal file per *pending* job
//! <dir>/jobs/done/job-000001.json   settled entries, compacted out of the
//!                                   pending set on settle
//! <dir>/jobs/job-000001.cancel      cancellation request marker
//! <dir>/jobs/corrupt/job-000001.json an unparsable entry, moved aside
//! <dir>/checkpoints/job-000001.m0.log    per-member settle log (resume)
//! <dir>/store/                      the result cache (a ResultStore)
//! <dir>/events.log                  append-only event feed (`queue watch`)
//! <dir>/events.log.1                rotated previous feed generation
//! <dir>/telemetry.json              last drain's per-stage latency snapshot
//! <dir>/.lock                       cross-process advisory lock
//! ```
//!
//! The journal is compacted on settle: a job entering a terminal state
//! (`Done`/`Failed`/`Cancelled`) is written into `jobs/done/` and its
//! pending entry removed, so the hot paths a serving pool runs every poll
//! cycle — claiming, duplicate settling — parse O(pending) files, not
//! every entry ever journaled. Recovery and `queue status` still read the
//! full history ([`JobQueue::jobs`] merges both directories).
//!
//! Every state transition rewrites the job's journal file with
//! [`write_atomic`] (write temp, fsync, rename, fsync the directory — the
//! same primitive as the result store and the settle-log header), so a
//! crash or power loss at any instant leaves every job either fully in its
//! old state or fully in its new one — never torn. Submissions claim their
//! id with a hard-link publish (create-new semantics, temp file and
//! directory fsynced too), so two concurrent `queue submit` processes can
//! never land on the same id.
//!
//! Each member campaign of a running job keeps a
//! [`SettleLog`](latest_core::settle_log::SettleLog) under `checkpoints/`:
//! a header, then one line per settled pair. A restarted service replays
//! it to resume the job; [`JobQueue::live_ledger`] counts its lines for
//! `queue status`.
//!
//! One torn or corrupt journal file must not stop the queue: the scans
//! ([`JobQueue::jobs`], the pending set behind claiming, recovery) move an
//! entry that fails to parse into `jobs/corrupt/` and carry on with the
//! rest. [`JobQueue::quarantined`] lists what was moved aside.
//!
//! Scheduling is priority-first (higher `priority` runs sooner), FIFO by
//! job id within a priority class. Deduplication is key-based:
//! [`JobQueue::take_next`] never hands out a job whose [`JobKey`] is
//! already `Running`, and [`JobQueue::settle_duplicates`] marks every
//! queued job with the finished key `Done` — two submissions of the same
//! spec therefore coalesce onto one execution. A `force` submission is
//! never coalesced: it demanded a fresh measurement, so it stays queued
//! until a worker executes it itself.
//!
//! Read-modify-write cycles (claiming, cancelling, settling) serialise
//! across *processes* through an advisory lock on `<dir>/.lock`
//! ([`JobQueue::lock_exclusive`]), so a `queue cancel` racing a serving
//! pool can never overwrite a `Running` entry it did not observe.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use latest_core::durable::{sync_parent, write_atomic, write_synced};
use latest_core::settle_log;
use latest_core::spec::ScenarioSpec;
use latest_core::store::RunId;

use crate::error::{QueueError, QueueResult};
use crate::job::{CompletionVia, Job, JobId, JobKey, JobState, ShardLedger};

/// Options for one submission.
#[derive(Clone, Copy, Debug, Default)]
pub struct SubmitOptions {
    /// Scheduling priority: higher runs sooner (default 0).
    pub priority: i32,
    /// Bypass the result cache: execute even when an archived run of the
    /// identical spec exists.
    pub force: bool,
}

/// Counts of jobs per lifecycle state (the `queue status` summary line).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueCounts {
    /// Jobs waiting for a worker.
    pub queued: usize,
    /// Jobs currently executing.
    pub running: usize,
    /// Jobs finished successfully (any [`CompletionVia`]).
    pub done: usize,
    /// Jobs that failed.
    pub failed: usize,
    /// Jobs cancelled by request.
    pub cancelled: usize,
}

impl QueueCounts {
    /// Jobs still waiting or running.
    pub fn pending(&self) -> usize {
        self.queued + self.running
    }
}

/// The persistent job queue. See the [module docs](self) for the layout
/// and crash-safety discipline.
///
/// All methods take `&self` and re-read the journal from disk, so a
/// separate `queue submit` process is observed on the very next poll; the
/// worker pool serialises its own read-modify-write cycles behind a lock.
#[derive(Clone, Debug)]
pub struct JobQueue {
    dir: PathBuf,
}

/// Exclusive cross-process hold on the queue's `<dir>/.lock` file;
/// released when dropped. See [`JobQueue::lock_exclusive`].
#[derive(Debug)]
pub struct QueueLock {
    _file: fs::File,
}

/// Exclusive hold on the queue directory's *service slot*
/// (`<dir>/.serve.lock`); released when dropped. At most one worker pool
/// may serve a directory at a time — see [`JobQueue::try_lock_service`].
#[derive(Debug)]
pub struct ServiceLock {
    _file: fs::File,
}

/// One claim attempt: the job handed out (already journaled `Running`),
/// plus how many jobs were pending (`Queued` or `Running`) in the same
/// journal snapshot — so a drain loop can decide "nothing left" without
/// re-reading the journal.
#[derive(Debug)]
pub struct Claim {
    /// The claimed job, if any was eligible.
    pub job: Option<Job>,
    /// Pending (queued + running) jobs in the snapshot the claim saw.
    pub pending: usize,
    /// Every `Queued` job id in the snapshot (the claimed one included),
    /// in id order — the pool stamps queue-wait telemetry from the first
    /// scan that observes each id.
    pub queued: Vec<JobId>,
}

impl JobQueue {
    /// Open (creating if necessary) the queue rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> QueueResult<JobQueue> {
        let dir = dir.into();
        fs::create_dir_all(dir.join("jobs").join("done"))?;
        fs::create_dir_all(dir.join("checkpoints"))?;
        Ok(JobQueue { dir })
    }

    /// The queue's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The result cache directory (`<dir>/store`) the service archives
    /// into by default.
    pub fn default_store_dir(&self) -> PathBuf {
        self.dir.join("store")
    }

    /// The append-only event feed file (`<dir>/events.log`).
    pub fn events_log_path(&self) -> PathBuf {
        self.dir.join("events.log")
    }

    /// The rotated previous generation of the event feed
    /// (`<dir>/events.log.1`).
    pub fn rotated_events_log_path(&self) -> PathBuf {
        self.dir.join("events.log.1")
    }

    /// The last persisted telemetry snapshot (`<dir>/telemetry.json`),
    /// written at the end of every drain/serve call.
    pub fn telemetry_path(&self) -> PathBuf {
        self.dir.join("telemetry.json")
    }

    fn jobs_dir(&self) -> PathBuf {
        self.dir.join("jobs")
    }

    fn done_dir(&self) -> PathBuf {
        self.jobs_dir().join("done")
    }

    fn corrupt_dir(&self) -> PathBuf {
        self.jobs_dir().join("corrupt")
    }

    /// Take the queue's cross-process advisory lock, blocking until it is
    /// free. Every read-modify-write cycle that spans a load and a save
    /// (claiming, cancelling, settling duplicates, recovery) must run
    /// under this lock so concurrent *processes* — a serving pool and a
    /// `queue cancel`, say — cannot interleave and overwrite each other's
    /// state transitions. Dropping the guard releases the lock.
    pub fn lock_exclusive(&self) -> QueueResult<QueueLock> {
        let file = fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(self.dir.join(".lock"))?;
        file.lock()?;
        Ok(QueueLock { _file: file })
    }

    /// Claim the directory's service slot without blocking. `Ok(None)`
    /// means another pool is already serving this directory.
    ///
    /// Exactly one service may drive a queue directory at a time:
    /// crash recovery ([`JobQueue::recover`]) cannot tell a killed
    /// service's `Running` entries from a live sibling's, so a second
    /// pool would requeue — and re-execute — jobs that are still in
    /// flight. The worker pool therefore holds this lock for the whole
    /// of a serve/drain call and recovers only under it.
    pub fn try_lock_service(&self) -> QueueResult<Option<ServiceLock>> {
        let file = fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(self.dir.join(".serve.lock"))?;
        match file.try_lock() {
            Ok(()) => Ok(Some(ServiceLock { _file: file })),
            Err(fs::TryLockError::WouldBlock) => Ok(None),
            Err(fs::TryLockError::Error(e)) => Err(e.into()),
        }
    }

    fn path_of(&self, id: JobId) -> PathBuf {
        self.jobs_dir().join(format!("{id}.json"))
    }

    fn cancel_marker(&self, id: JobId) -> PathBuf {
        self.jobs_dir().join(format!("{id}.cancel"))
    }

    fn done_path(&self, id: JobId) -> PathBuf {
        self.done_dir().join(format!("{id}.json"))
    }

    /// The settle log (resume checkpoint) for one member campaign of a
    /// job.
    pub fn checkpoint_path(&self, id: JobId, member: usize) -> PathBuf {
        self.dir
            .join("checkpoints")
            .join(format!("{id}.m{member}.log"))
    }

    /// The job's journaled shard ledger with each member's settled-pair
    /// count read live from its settle log (the journal is written only at
    /// member setup and on requeue). `None` when the job has no ledger.
    pub fn live_ledger(&self, job: &Job) -> Option<ShardLedger> {
        let mut ledger = job.ledger.clone()?;
        for (member, progress) in ledger.members.iter_mut().enumerate() {
            if let Ok(settled) = settle_log::settled_pairs(&self.checkpoint_path(job.id, member)) {
                progress.pairs_done = settled;
            }
        }
        Some(ledger)
    }

    /// Remove every checkpoint a job left behind.
    pub fn clear_checkpoints(&self, job: &Job) -> QueueResult<()> {
        for member in 0..job.members().len() {
            match fs::remove_file(self.checkpoint_path(job.id, member)) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Validate and enqueue one scenario, returning the journaled job.
    ///
    /// Submission never coalesces by itself — every call creates a job —
    /// but jobs sharing a [`JobKey`] are executed once and settled
    /// together by the worker pool.
    pub fn submit(&self, spec: ScenarioSpec, options: SubmitOptions) -> QueueResult<Job> {
        spec.validate()?;
        let mut next = self.highest_id()?.map_or(1, |id| id.0 + 1);
        loop {
            let job = Job {
                id: JobId(next),
                priority: options.priority,
                force: options.force,
                spec: spec.clone(),
                state: JobState::Queued,
                ledger: None,
            };
            match self.publish_new(&job) {
                Ok(()) => return Ok(job),
                // Another submitter claimed this id between our scan and
                // our publish: take the next one.
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => next += 1,
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Publish a brand-new journal entry with create-new semantics: write
    /// and fsync the full content in a temp file, then hard-link it to its
    /// final name and fsync the directory — the link fails (instead of
    /// overwriting) if the id is taken, and a crash mid-write leaves only
    /// an ignorable temp file. The temp name carries the pid *and* a
    /// per-process counter: the queue is `Clone` and takes `&self`, so two
    /// threads of one process may submit concurrently and must not write
    /// through the same temp file.
    fn publish_new(&self, job: &Job) -> io::Result<()> {
        static SUBMIT_SEQ: AtomicU64 = AtomicU64::new(0);
        let path = self.path_of(job.id);
        let tmp = self.jobs_dir().join(format!(
            ".submit-{}-{}.tmp",
            std::process::id(),
            SUBMIT_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        write_synced(&tmp, job.to_json().as_bytes())?;
        let linked = fs::hard_link(&tmp, &path);
        let _ = fs::remove_file(&tmp);
        linked?;
        sync_parent(&path)
    }

    /// Rewrite a job's journal entry with [`write_atomic`] (state
    /// transitions).
    ///
    /// Compaction happens here: a job entering a terminal state is written
    /// into `jobs/done/` and its pending entry removed, so the pending
    /// directory holds exactly the queued and running jobs. Order matters
    /// for crash safety — the settled entry lands first, so a crash
    /// between the two steps leaves a pending stray that
    /// [`JobQueue::recover`] sweeps (the `done/` copy wins).
    pub fn save(&self, job: &Job) -> QueueResult<()> {
        let path = if job.state.is_pending() {
            self.path_of(job.id)
        } else {
            self.done_path(job.id)
        };
        write_atomic(&path, job.to_json().as_bytes())?;
        if !job.state.is_pending() {
            match fs::remove_file(self.path_of(job.id)) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    /// Load one job by id. The settled copy wins when both exist (the
    /// pending twin is then a crash stray awaiting recovery sweep).
    pub fn load(&self, id: JobId) -> QueueResult<Job> {
        let done = self.done_path(id);
        let path = if done.is_file() {
            done
        } else {
            self.path_of(id)
        };
        let text = fs::read_to_string(&path).map_err(|e| {
            if e.kind() == io::ErrorKind::NotFound {
                QueueError::NotFound { id: id.to_string() }
            } else {
                QueueError::Io(e)
            }
        })?;
        Job::from_json(&text).map_err(|e| QueueError::Parse {
            path,
            message: e.to_string(),
        })
    }

    /// [`JobQueue::load`] for the journal scans: an entry that does not
    /// parse is moved into `jobs/corrupt/` and skipped (`Ok(None)`).
    fn load_or_quarantine(&self, id: JobId) -> QueueResult<Option<Job>> {
        match self.load(id) {
            Ok(job) => Ok(Some(job)),
            Err(QueueError::Parse { path, .. }) => {
                fs::create_dir_all(self.corrupt_dir())?;
                fs::rename(&path, self.corrupt_dir().join(format!("{id}.json")))?;
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Journal entries moved into `jobs/corrupt/` because they did not
    /// parse, in id order.
    pub fn quarantined(&self) -> QueueResult<Vec<PathBuf>> {
        let dir = self.corrupt_dir();
        Ok(self
            .quarantined_ids()?
            .into_iter()
            .map(|id| dir.join(format!("{id}.json")))
            .collect())
    }

    fn quarantined_ids(&self) -> QueueResult<Vec<JobId>> {
        if !self.corrupt_dir().is_dir() {
            return Ok(Vec::new());
        }
        let mut ids = Self::ids_in(&self.corrupt_dir())?;
        ids.sort();
        Ok(ids)
    }

    fn ids_in(dir: &Path) -> QueueResult<Vec<JobId>> {
        let mut ids = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if !entry.file_type()?.is_file() {
                continue;
            }
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(stem) = name.strip_suffix(".json") {
                if let Ok(id) = JobId::parse(stem) {
                    ids.push(id);
                }
            }
        }
        Ok(ids)
    }

    /// Ids with a journal entry in the pending directory (a raw listing —
    /// crash strays with a settled twin included).
    fn pending_ids(&self) -> QueueResult<Vec<JobId>> {
        let mut ids = Self::ids_in(&self.jobs_dir())?;
        ids.sort();
        Ok(ids)
    }

    /// The pending (queued + running) jobs, in id order — the set the
    /// serving pool's hot paths scan. Parses O(pending) files: settled
    /// jobs live in `jobs/done/` and are never touched here.
    fn pending_jobs(&self) -> QueueResult<Vec<Job>> {
        let mut jobs = Vec::new();
        for id in self.pending_ids()? {
            // A settled twin means this pending entry is a crash stray;
            // load() already prefers the done/ copy, so skip strays whose
            // loaded state is terminal.
            match self.load_or_quarantine(id)? {
                Some(job) if job.state.is_pending() => jobs.push(job),
                _ => {}
            }
        }
        Ok(jobs)
    }

    /// Every journaled job — pending and settled — in id (submission)
    /// order. The full-history read `queue status` and recovery use;
    /// hot paths use the pending set instead.
    pub fn jobs(&self) -> QueueResult<Vec<Job>> {
        let mut ids = Self::ids_in(&self.jobs_dir())?;
        ids.extend(Self::ids_in(&self.done_dir())?);
        ids.sort();
        ids.dedup();
        let mut jobs = Vec::with_capacity(ids.len());
        for id in ids {
            jobs.extend(self.load_or_quarantine(id)?);
        }
        Ok(jobs)
    }

    /// The highest id ever allocated; quarantined entries count, so their
    /// ids are never handed out again.
    fn highest_id(&self) -> QueueResult<Option<JobId>> {
        let mut highest = Self::ids_in(&self.jobs_dir())?.into_iter().max();
        highest = highest.max(Self::ids_in(&self.done_dir())?.into_iter().max());
        highest = highest.max(self.quarantined_ids()?.into_iter().max());
        Ok(highest)
    }

    /// Per-state job counts.
    pub fn counts(&self) -> QueueResult<QueueCounts> {
        let mut counts = QueueCounts::default();
        for job in self.jobs()? {
            match job.state {
                JobState::Queued => counts.queued += 1,
                JobState::Running => counts.running += 1,
                JobState::Done { .. } => counts.done += 1,
                JobState::Failed { .. } => counts.failed += 1,
                JobState::Cancelled => counts.cancelled += 1,
            }
        }
        Ok(counts)
    }

    /// Claim the next job to execute: the highest-priority `Queued` job
    /// (FIFO by id within a priority), skipping any whose key is already
    /// `Running` — that execution will settle them. The claimed job is
    /// journaled as `Running` before being returned.
    pub fn take_next(&self) -> QueueResult<Option<Job>> {
        Ok(self.claim()?.job)
    }

    /// Like [`JobQueue::take_next`], but also reports the snapshot's
    /// pending count so a polling worker needs only one journal read per
    /// cycle. Callers coordinating across processes should hold
    /// [`JobQueue::lock_exclusive`] around the call.
    pub fn claim(&self) -> QueueResult<Claim> {
        let jobs = self.pending_jobs()?;
        let pending = jobs.len();
        let busy: Vec<JobKey> = jobs
            .iter()
            .filter(|j| j.state == JobState::Running)
            .map(Job::key)
            .collect();
        let queued: Vec<JobId> = jobs
            .iter()
            .filter(|j| j.state == JobState::Queued)
            .map(|j| j.id)
            .collect();
        let best = jobs
            .into_iter()
            .filter(|j| j.state == JobState::Queued && !busy.contains(&j.key()))
            // max_by_key keeps the *last* maximum, so compare (priority,
            // Reverse(id)) to make the earliest id win within a priority.
            .max_by_key(|j| (j.priority, std::cmp::Reverse(j.id)));
        match best {
            Some(mut job) => {
                job.state = JobState::Running;
                self.save(&job)?;
                Ok(Claim {
                    job: Some(job),
                    pending,
                    queued,
                })
            }
            None => Ok(Claim {
                job: None,
                pending,
                queued,
            }),
        }
    }

    /// Settle every still-queued duplicate of a finished key as `Done`
    /// (via `Coalesced`), returning the settled jobs.
    ///
    /// `force` submissions are exempt: they demanded a fresh measurement,
    /// so another job's completion (which may itself have been a cache
    /// hit) must not satisfy them — they stay queued and execute.
    pub fn settle_duplicates(
        &self,
        key: &JobKey,
        run_ids: &[RunId],
        exclude: JobId,
    ) -> QueueResult<Vec<Job>> {
        let mut settled = Vec::new();
        for mut job in self.pending_jobs()? {
            if job.id != exclude && !job.force && job.state == JobState::Queued && &job.key() == key
            {
                job.state = JobState::Done {
                    run_ids: run_ids.to_vec(),
                    via: CompletionVia::Coalesced,
                };
                self.save(&job)?;
                settled.push(job);
            }
        }
        Ok(settled)
    }

    /// Request cancellation of a job.
    ///
    /// A `Queued` job is marked `Cancelled` immediately. For a `Running`
    /// job a marker file is dropped; the serving pool polls markers from
    /// idle workers *and* from the executing worker's checkpoint sink, so
    /// cancellation lands within one poll interval or one checkpoint
    /// boundary even when every worker is busy. Settled jobs are left
    /// untouched (`Ok(false)`).
    ///
    /// Runs under [`JobQueue::lock_exclusive`]: without it, a serving
    /// pool could claim the job between our load and our save, and the
    /// `Cancelled` write would silently clobber its `Running` entry.
    pub fn request_cancel(&self, id: JobId) -> QueueResult<bool> {
        let _lock = self.lock_exclusive()?;
        let mut job = self.load(id)?;
        match job.state {
            JobState::Queued => {
                job.state = JobState::Cancelled;
                self.save(&job)?;
                // A shutdown-requeued job may have left resume checkpoints;
                // a cancelled job will never use them.
                self.clear_checkpoints(&job)?;
                let _ = fs::remove_file(self.cancel_marker(id));
                Ok(true)
            }
            JobState::Running => {
                fs::write(self.cancel_marker(id), b"cancel\n")?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Whether a cancellation marker is pending for a job.
    pub fn cancel_requested(&self, id: JobId) -> bool {
        self.cancel_marker(id).is_file()
    }

    /// Ids with a pending cancellation marker, in id order. A directory
    /// listing only — no journal entries are parsed — so a poll cycle can
    /// skip marker handling entirely in the (usual) no-markers case.
    pub fn pending_cancels(&self) -> QueueResult<Vec<JobId>> {
        let mut ids = Vec::new();
        for entry in fs::read_dir(self.jobs_dir())? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(stem) = name.strip_suffix(".cancel") {
                if let Ok(id) = JobId::parse(stem) {
                    ids.push(id);
                }
            }
        }
        ids.sort();
        Ok(ids)
    }

    /// Drop a job's cancellation marker (after honouring it).
    pub fn clear_cancel_request(&self, id: JobId) -> QueueResult<()> {
        match fs::remove_file(self.cancel_marker(id)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Crash recovery: revert every `Running` job to `Queued`, returning
    /// the reverted jobs. Called when a service opens a queue directory —
    /// a journal with `Running` entries but no live service is the
    /// signature of a kill; the jobs' checkpoints make the re-run resume
    /// from where the dead service stopped.
    ///
    /// Recovery also tidies the pending directory: crash strays (a
    /// pending entry whose settled twin already landed in `jobs/done/`)
    /// are swept, and terminal entries journaled by a pre-compaction
    /// version of this crate are migrated into `jobs/done/`.
    pub fn recover(&self) -> QueueResult<Vec<Job>> {
        let _lock = self.lock_exclusive()?;
        let mut reverted = Vec::new();
        for id in self.pending_ids()? {
            if self.done_path(id).is_file() {
                // Crash stray: the settled copy is authoritative.
                match fs::remove_file(self.path_of(id)) {
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e.into()),
                }
                continue;
            }
            let Some(mut job) = self.load_or_quarantine(id)? else {
                continue;
            };
            match job.state {
                JobState::Running => {
                    job.state = JobState::Queued;
                    self.save(&job)?;
                    reverted.push(job);
                }
                JobState::Queued => {}
                // Legacy terminal entry: re-save routes it to jobs/done/.
                _ => self.save(&job)?,
            }
        }
        Ok(reverted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latest_core::spec::CampaignSpec;

    fn tiny(seed: u64) -> ScenarioSpec {
        ScenarioSpec::Campaign(
            CampaignSpec::builder("a100")
                .frequencies_mhz(&[705, 1410])
                .measurements(3, 6)
                .simulated_sms(Some(2))
                .seed(seed)
                .build()
                .unwrap(),
        )
    }

    fn temp_queue(tag: &str) -> JobQueue {
        let dir =
            std::env::temp_dir().join(format!("latest_queue_test_{tag}_{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        JobQueue::open(dir).unwrap()
    }

    #[test]
    fn submit_journals_and_reloads() {
        let q = temp_queue("submit");
        let a = q
            .submit(
                tiny(1),
                SubmitOptions {
                    priority: 3,
                    force: true,
                },
            )
            .unwrap();
        let b = q.submit(tiny(2), SubmitOptions::default()).unwrap();
        assert_eq!(a.id, JobId(1));
        assert_eq!(b.id, JobId(2));
        // Reload from disk (as a restarted process would).
        let jobs = JobQueue::open(q.dir()).unwrap().jobs().unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0], a);
        assert_eq!(jobs[1], b);
        assert!(jobs[0].force && jobs[0].priority == 3);
        fs::remove_dir_all(q.dir()).ok();
    }

    #[test]
    fn invalid_specs_are_rejected_at_submission() {
        let q = temp_queue("invalid");
        let bad = ScenarioSpec::Campaign(CampaignSpec {
            device: "h100".to_string(),
            ..CampaignSpec::default()
        });
        assert!(matches!(
            q.submit(bad, SubmitOptions::default()),
            Err(QueueError::Spec(_))
        ));
        assert!(q.jobs().unwrap().is_empty(), "nothing journaled");
        fs::remove_dir_all(q.dir()).ok();
    }

    #[test]
    fn take_next_is_priority_then_fifo() {
        let q = temp_queue("order");
        let low = q
            .submit(
                tiny(1),
                SubmitOptions {
                    priority: -1,
                    force: false,
                },
            )
            .unwrap();
        let mid_a = q.submit(tiny(2), SubmitOptions::default()).unwrap();
        let mid_b = q.submit(tiny(3), SubmitOptions::default()).unwrap();
        let high = q
            .submit(
                tiny(4),
                SubmitOptions {
                    priority: 9,
                    force: false,
                },
            )
            .unwrap();
        let mut order = Vec::new();
        while let Some(mut job) = q.take_next().unwrap() {
            order.push(job.id);
            job.state = JobState::Done {
                run_ids: job.run_ids(),
                via: CompletionVia::Executed,
            };
            q.save(&job).unwrap();
        }
        assert_eq!(order, vec![high.id, mid_a.id, mid_b.id, low.id]);
        fs::remove_dir_all(q.dir()).ok();
    }

    #[test]
    fn running_keys_block_duplicates_and_settle_them() {
        let q = temp_queue("dedupe");
        let first = q.submit(tiny(7), SubmitOptions::default()).unwrap();
        let dup = q.submit(tiny(7), SubmitOptions::default()).unwrap();
        let other = q
            .submit(
                tiny(8),
                SubmitOptions {
                    priority: -5,
                    force: false,
                },
            )
            .unwrap();

        let claimed = q.take_next().unwrap().unwrap();
        assert_eq!(claimed.id, first.id);
        // The duplicate shares the running key, so the *other* job is next
        // despite its lower priority.
        let next = q.take_next().unwrap().unwrap();
        assert_eq!(next.id, other.id);
        assert!(q.take_next().unwrap().is_none(), "duplicate stays blocked");

        let settled = q
            .settle_duplicates(&claimed.key(), &claimed.run_ids(), claimed.id)
            .unwrap();
        assert_eq!(settled.len(), 1);
        assert_eq!(settled[0].id, dup.id);
        match &q.load(dup.id).unwrap().state {
            JobState::Done { run_ids, via } => {
                assert_eq!(run_ids, &claimed.run_ids());
                assert_eq!(*via, CompletionVia::Coalesced);
            }
            other => panic!("expected coalesced Done, got {other:?}"),
        }
        fs::remove_dir_all(q.dir()).ok();
    }

    #[test]
    fn force_duplicates_are_never_coalesced() {
        let q = temp_queue("force_dedupe");
        let plain = q.submit(tiny(7), SubmitOptions::default()).unwrap();
        let forced = q
            .submit(
                tiny(7),
                SubmitOptions {
                    priority: 0,
                    force: true,
                },
            )
            .unwrap();
        let claimed = q.take_next().unwrap().unwrap();
        assert_eq!(claimed.id, plain.id);
        // Settling the plain job's key must leave the forced duplicate
        // queued: it demanded a fresh execution.
        let settled = q
            .settle_duplicates(&claimed.key(), &claimed.run_ids(), claimed.id)
            .unwrap();
        assert!(settled.is_empty(), "force job must not coalesce");
        assert_eq!(q.load(forced.id).unwrap().state, JobState::Queued);
        fs::remove_dir_all(q.dir()).ok();
    }

    #[test]
    fn pending_cancels_lists_marker_ids_only() {
        let q = temp_queue("markers");
        let a = q.submit(tiny(1), SubmitOptions::default()).unwrap();
        let b = q.submit(tiny(2), SubmitOptions::default()).unwrap();
        assert!(q.pending_cancels().unwrap().is_empty());
        let running = q.take_next().unwrap().unwrap();
        assert_eq!(running.id, a.id);
        assert!(q.request_cancel(a.id).unwrap());
        assert_eq!(q.pending_cancels().unwrap(), vec![a.id]);
        // Queued cancellation settles directly and leaves no marker.
        assert!(q.request_cancel(b.id).unwrap());
        assert_eq!(q.pending_cancels().unwrap(), vec![a.id]);
        q.clear_cancel_request(a.id).unwrap();
        assert!(q.pending_cancels().unwrap().is_empty());
        fs::remove_dir_all(q.dir()).ok();
    }

    #[test]
    fn claim_reports_snapshot_pending() {
        let q = temp_queue("claim");
        q.submit(tiny(1), SubmitOptions::default()).unwrap();
        q.submit(tiny(2), SubmitOptions::default()).unwrap();
        let first = q.claim().unwrap();
        assert!(first.job.is_some());
        assert_eq!(first.pending, 2);
        assert_eq!(
            first.queued,
            vec![JobId(1), JobId(2)],
            "snapshot lists every queued id, the claimed one included"
        );
        let second = q.claim().unwrap();
        assert!(second.job.is_some());
        assert_eq!(second.pending, 2, "one running + one queued");
        assert_eq!(second.queued, vec![JobId(2)]);
        let empty = q.claim().unwrap();
        assert!(empty.job.is_none());
        assert_eq!(empty.pending, 2, "both claimed jobs still running");
        assert!(empty.queued.is_empty());
        fs::remove_dir_all(q.dir()).ok();
    }

    #[test]
    fn recover_requeues_running_jobs() {
        let q = temp_queue("recover");
        q.submit(tiny(1), SubmitOptions::default()).unwrap();
        q.submit(tiny(2), SubmitOptions::default()).unwrap();
        let claimed = q.take_next().unwrap().unwrap();
        assert_eq!(q.counts().unwrap().running, 1);
        // "Kill": reopen the directory and recover.
        let reopened = JobQueue::open(q.dir()).unwrap();
        let reverted = reopened.recover().unwrap();
        assert_eq!(reverted.len(), 1);
        assert_eq!(reverted[0].id, claimed.id);
        let counts = reopened.counts().unwrap();
        assert_eq!((counts.queued, counts.running), (2, 0));
        fs::remove_dir_all(q.dir()).ok();
    }

    #[test]
    fn cancellation_marks_queued_and_flags_running() {
        let q = temp_queue("cancel");
        let a = q.submit(tiny(1), SubmitOptions::default()).unwrap();
        let b = q.submit(tiny(2), SubmitOptions::default()).unwrap();
        let running = q.take_next().unwrap().unwrap();
        assert_eq!(running.id, a.id);
        // Queued: cancelled immediately.
        assert!(q.request_cancel(b.id).unwrap());
        assert_eq!(q.load(b.id).unwrap().state, JobState::Cancelled);
        // Running: marker only, state untouched until the pool honours it.
        assert!(q.request_cancel(a.id).unwrap());
        assert_eq!(q.load(a.id).unwrap().state, JobState::Running);
        assert!(q.cancel_requested(a.id));
        q.clear_cancel_request(a.id).unwrap();
        assert!(!q.cancel_requested(a.id));
        // Settled jobs refuse.
        assert!(!q.request_cancel(b.id).unwrap());
        fs::remove_dir_all(q.dir()).ok();
    }

    #[test]
    fn settled_jobs_compact_into_done_directory() {
        let q = temp_queue("compact");
        let a = q.submit(tiny(1), SubmitOptions::default()).unwrap();
        let b = q.submit(tiny(2), SubmitOptions::default()).unwrap();
        let mut claimed = q.take_next().unwrap().unwrap();
        claimed.state = JobState::Done {
            run_ids: claimed.run_ids(),
            via: CompletionVia::Executed,
        };
        q.save(&claimed).unwrap();
        // The settled entry moved out of the pending directory...
        assert!(!q.path_of(a.id).is_file());
        assert!(q.done_path(a.id).is_file());
        // ...but status-style reads still see the full history...
        let jobs = q.jobs().unwrap();
        assert_eq!(jobs.len(), 2);
        assert!(matches!(q.load(a.id).unwrap().state, JobState::Done { .. }));
        // ...and new submissions never reuse a settled id.
        let c = q.submit(tiny(3), SubmitOptions::default()).unwrap();
        assert_eq!(c.id, JobId(3));
        assert_eq!(q.load(b.id).unwrap().state, JobState::Queued);
        let counts = q.counts().unwrap();
        assert_eq!((counts.queued, counts.done), (2, 1));
        fs::remove_dir_all(q.dir()).ok();
    }

    #[test]
    fn recover_sweeps_strays_and_migrates_legacy_entries() {
        let q = temp_queue("compact_recover");
        let a = q.submit(tiny(1), SubmitOptions::default()).unwrap();
        let b = q.submit(tiny(2), SubmitOptions::default()).unwrap();
        // Crash stray: settled copy landed, pending twin survived the
        // crash between the two steps of save().
        let mut settled = q.load(a.id).unwrap();
        settled.state = JobState::Cancelled;
        fs::write(q.done_path(a.id), settled.to_json()).unwrap();
        // Legacy entry: a terminal job journaled in the pending directory
        // by a pre-compaction version.
        let mut legacy = q.load(b.id).unwrap();
        legacy.state = JobState::Done {
            run_ids: legacy.run_ids(),
            via: CompletionVia::Executed,
        };
        fs::write(q.path_of(b.id), legacy.to_json()).unwrap();

        let reverted = q.recover().unwrap();
        assert!(reverted.is_empty());
        assert!(!q.path_of(a.id).is_file(), "stray swept");
        assert!(!q.path_of(b.id).is_file(), "legacy entry migrated");
        assert!(q.done_path(b.id).is_file());
        assert_eq!(q.load(a.id).unwrap().state, JobState::Cancelled);
        assert!(matches!(q.load(b.id).unwrap().state, JobState::Done { .. }));
        assert!(q.take_next().unwrap().is_none(), "nothing left to claim");
        fs::remove_dir_all(q.dir()).ok();
    }

    #[test]
    fn torn_journal_entries_are_reported() {
        let q = temp_queue("torn");
        let job = q.submit(tiny(1), SubmitOptions::default()).unwrap();
        fs::write(
            q.dir().join("jobs").join(format!("{}.json", job.id)),
            "{not json",
        )
        .unwrap();
        assert!(matches!(q.load(job.id), Err(QueueError::Parse { .. })));
        assert!(matches!(
            q.load(JobId(99)),
            Err(QueueError::NotFound { .. })
        ));
        fs::remove_dir_all(q.dir()).ok();
    }
}
