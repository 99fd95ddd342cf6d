//! `queue_mix`: one worker-pool drain of a small job mix, then the same
//! submissions again, served from the result cache.
//!
//! Two workers, single-pair shards and a checkpoint after every settled
//! pair, so the scheduler, checkpoint rewrites, journal and archive writes
//! and cache reads carry a large share of the work. The mix: a cheap
//! 56-pair ladder campaign, the 12-pair `memory_plane` campaign, and an
//! in-batch duplicate of the ladder, which must coalesce; three such sets
//! at consecutive seeds, so that a pass drains 204 pairs.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use latest::core::{CampaignEvent, CampaignResult, CampaignSpec, ScenarioSpec};
use latest::queue::{
    CompletionVia, DrainStats, JobState, PoolConfig, QueueEvent, SubmitOptions, WorkerPool,
};
use latest::telemetry::{ClockSpec, Stage};

use crate::campaign::{errors_vs_truth, failed_pairs};
use crate::trace::{Layers, Tracer};
use crate::Pass;

/// The seed of `scenarios/queue_smoke.json`.
pub const DEFAULT_SEED: u64 = 90210;
const WORKERS: usize = 2;
/// Sets of (ladder, memory_plane, duplicate ladder) per pass. One set
/// drains in well under a second, where a few scheduling stalls on a
/// shared 2-core host move the figure by 15 %; three sets make a pass long
/// enough to average them.
const SETS: usize = 3;
const LADDER_MHZ: [u32; 8] = [210, 375, 540, 720, 885, 1065, 1230, 1410];

fn ladder_spec(seed: u64) -> Result<CampaignSpec, String> {
    CampaignSpec::builder("a100")
        .frequencies_mhz(&LADDER_MHZ)
        .seed(seed)
        .measurements(6, 10)
        .simulated_sms(Some(2))
        .build()
        .map_err(|e| format!("ladder spec: {e}"))
}

/// `scenarios/memory_plane.json` at `seed`.
fn memory_plane_spec(seed: u64) -> Result<CampaignSpec, String> {
    CampaignSpec::builder("a100")
        .frequencies_mhz(&[705, 1410])
        .mem_frequencies_mhz(&[810, 1215])
        .seed(seed)
        .rse_threshold(0.05)
        .measurements(8, 20)
        .simulated_sms(Some(4))
        .workload("memory-bound")
        .build()
        .map_err(|e| format!("memory_plane spec: {e}"))
}

fn pool_config(workers: usize) -> PoolConfig {
    PoolConfig {
        workers,
        checkpoint_every: 1,
        poll_interval: Duration::from_millis(25),
        store_dir: None,
        shard_pairs: 1,
        clock: ClockSpec::Monotonic,
        event_buffer: 4096,
    }
}

/// Per-pair service time as a client watching the event feed sees it: the
/// interval between consecutive pair settles delivered on one worker
/// thread. Each worker delivers the feed itself when one of its pairs
/// settles, so its thread identifies the worker. A worker's first settle
/// of a drain has no interval.
#[derive(Default)]
struct Cadence {
    last: HashMap<ThreadId, Instant>,
    intervals_ms: Vec<f64>,
}

impl Cadence {
    fn on(&mut self, event: &QueueEvent) {
        let QueueEvent::Progress { event, .. } = event else {
            return;
        };
        if !matches!(
            event,
            CampaignEvent::PairFinished { .. } | CampaignEvent::PairSkipped { .. }
        ) {
            return;
        }
        let now = Instant::now();
        if let Some(prev) = self.last.insert(std::thread::current().id(), now) {
            if matches!(event, CampaignEvent::PairFinished { .. }) {
                self.intervals_ms.push((now - prev).as_secs_f64() * 1e3);
            }
        }
    }
}

pub struct QueueMix {
    seed: u64,
    root: PathBuf,
    /// The submissions of a pass, in order; every third is a duplicate.
    specs: Vec<CampaignSpec>,
    passes: usize,
    /// The last traced pass's queue directory, kept for the 1-worker
    /// comparison.
    kept_2w: Option<PathBuf>,
    drain_2w_ms: Vec<f64>,
}

impl QueueMix {
    pub fn new(seed: u64, root: &Path) -> Self {
        QueueMix {
            seed,
            root: root.to_path_buf(),
            specs: Vec::new(),
            passes: 0,
            kept_2w: None,
            drain_2w_ms: Vec::new(),
        }
    }

    /// A fresh queue directory and pool, with the cadence observer.
    fn open_pool(
        &mut self,
        label: &str,
        workers: usize,
        cadence: &Arc<Mutex<Cadence>>,
    ) -> Result<(PathBuf, WorkerPool), String> {
        let dir = self.root.join(format!("{label}-{}", self.passes));
        self.passes += 1;
        let cad = cadence.clone();
        let pool = WorkerPool::open(&dir, pool_config(workers))
            .map_err(|e| format!("opening pool: {e}"))?
            .observe(move |e: &QueueEvent| cad.lock().expect("cadence poisoned").on(e));
        Ok((dir, pool))
    }

    fn submit_all(&self, pool: &WorkerPool) -> Result<(), String> {
        for spec in &self.specs {
            pool.queue()
                .submit(
                    ScenarioSpec::Campaign(spec.clone()),
                    SubmitOptions::default(),
                )
                .map_err(|e| format!("submitting: {e}"))?;
        }
        Ok(())
    }

    /// Submit the mix, drain, resubmit, drain from the cache, and read the
    /// archived results back.
    fn run_pass(&mut self, traced: bool, workers: usize) -> Result<(Pass, PathBuf), String> {
        let cadence = Arc::new(Mutex::new(Cadence::default()));
        let (dir, pool) = self.open_pool(if traced { "traced" } else { "q" }, workers, &cadence)?;
        let tracer = Tracer::new(traced);

        let start = Instant::now();
        tracer.span("queue.submit", || self.submit_all(&pool))?;
        let first = tracer
            .span("queue.drain", || pool.drain())
            .map_err(|e| format!("draining: {e}"))?;
        tracer.span("queue.submit", || self.submit_all(&pool))?;
        let second = tracer
            .span("queue.cache_drain", || pool.drain())
            .map_err(|e| format!("draining again: {e}"))?;
        let mut results: Vec<CampaignResult> = Vec::new();
        // Every distinct campaign; the third spec of each set is the duplicate.
        for (_, spec) in self.specs.iter().enumerate().filter(|(i, _)| i % 3 != 2) {
            let run = tracer
                .span("store.get", || pool.store().latest_for(spec))
                .map_err(|e| format!("reading back: {e}"))?
                .ok_or("an archived run is missing")?;
            results.push(run.result);
        }
        let wall_s = start.elapsed().as_secs_f64();

        self.check_jobs(&pool, &first, &second)?;
        let mut errors_ms = Vec::new();
        let mut nan = 0;
        let mut output = String::new();
        for result in &results {
            let (e, n) = errors_vs_truth(result);
            errors_ms.extend(e);
            nan += n;
            output.push_str(&result.to_json());
        }
        let scheduled: usize = results.iter().map(|r| r.pairs().len()).sum();
        let failed = results.iter().map(failed_pairs).sum::<usize>();

        let mut layers = Layers::new();
        if traced {
            layers.insert("queue.submit_ms", tracer.total_ms("queue.submit"));
            layers.insert("queue.drain_ms", tracer.total_ms("queue.drain"));
            layers.insert("queue.cache_drain_ms", tracer.total_ms("queue.cache_drain"));
            layers.insert("store.get_ms", tracer.total_ms("store.get"));
            layers.insert("queue.jobs_executed", first.executed as f64);
            layers.insert("queue.jobs_coalesced", first.coalesced as f64);
            layers.insert("queue.jobs_cached", second.cached as f64);
            layers.insert("queue.shards_executed", first.shards_executed as f64);
            let stall = first.telemetry.stage(Stage::CheckpointStall);
            layers.insert("queue.checkpoint_stall_ms", stall.sum() as f64 / 1e6);
            layers.insert(
                "queue.checkpoint_stall_p99_ms",
                stall.quantile(0.99).unwrap_or(0) as f64 / 1e6,
            );
            layers.insert(
                "queue.shard_exec_ms",
                first.telemetry.stage(Stage::ShardExec).sum() as f64 / 1e6,
            );
            layers.insert(
                "telemetry.dropped_events",
                (first.telemetry.dropped_events + second.telemetry.dropped_events) as f64,
            );
            layers.insert("core.nan_ground_truth", nan as f64);
        }
        let item_ms = std::mem::take(&mut cadence.lock().expect("cadence poisoned").intervals_ms);
        let pass = Pass {
            wall_s,
            items: first.pairs_measured,
            attempted: scheduled,
            failed: failed + first.failed + second.failed,
            item_ms,
            digest: crate::digest(&output),
            errors_ms,
            layers,
            spans: tracer.take_spans(),
        };
        Ok((pass, dir))
    }

    /// Every job ends as expected: the first batch executes each set's two
    /// distinct campaigns and coalesces its duplicate; the resubmission
    /// measures nothing, serving the distinct campaigns from the cache and
    /// coalescing the duplicates onto those cache hits.
    fn check_jobs(
        &self,
        pool: &WorkerPool,
        first: &DrainStats,
        second: &DrainStats,
    ) -> Result<(), String> {
        let (distinct, duplicates) = (2 * SETS, SETS);
        if (first.executed, first.coalesced, first.cached, first.failed)
            != (distinct, duplicates, 0, 0)
        {
            return Err(format!("first drain: {first}"));
        }
        if (
            second.executed,
            second.coalesced,
            second.cached,
            second.failed,
        ) != (0, duplicates, distinct, 0)
            || second.pairs_measured != 0
        {
            return Err(format!("cache drain: {second}"));
        }
        let jobs = pool
            .queue()
            .jobs()
            .map_err(|e| format!("listing jobs: {e}"))?;
        let mut via: BTreeMap<String, usize> = BTreeMap::new();
        for job in &jobs {
            match &job.state {
                JobState::Done { via: v, .. } => *via.entry(v.to_string()).or_default() += 1,
                other => return Err(format!("job {} ended {other:?}", job.id)),
            }
        }
        let want: BTreeMap<String, usize> = [
            (CompletionVia::Executed.to_string(), distinct),
            (CompletionVia::Coalesced.to_string(), 2 * duplicates),
            (CompletionVia::Cache.to_string(), distinct),
        ]
        .into_iter()
        .collect();
        if via != want {
            return Err(format!("jobs ended {via:?}, expected {want:?}"));
        }
        Ok(())
    }
}

impl crate::Workload for QueueMix {
    /// Build the specs and warm the service up with one drain of the
    /// `memory_plane` job alone on a throwaway queue.
    fn setup(&mut self) -> Result<(), String> {
        self.specs.clear();
        for k in 0..SETS as u64 {
            let ladder = ladder_spec(self.seed.wrapping_add(k))?;
            let memory = memory_plane_spec(self.seed.wrapping_add(k + 1))?;
            self.specs.extend([ladder.clone(), memory, ladder]);
        }
        let cadence = Arc::new(Mutex::new(Cadence::default()));
        let (dir, pool) = self.open_pool("warm", WORKERS, &cadence)?;
        pool.queue()
            .submit(
                ScenarioSpec::Campaign(self.specs[1].clone()),
                SubmitOptions::default(),
            )
            .map_err(|e| format!("submitting: {e}"))?;
        let stats = pool.drain().map_err(|e| format!("warm-up drain: {e}"))?;
        if stats.executed != 1 {
            return Err(format!("warm-up drain: {stats}"));
        }
        drop(pool);
        std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))
    }

    fn pass(&mut self, traced: bool) -> Result<Pass, String> {
        let (pass, dir) = self.run_pass(traced, WORKERS)?;
        if traced {
            self.drain_2w_ms.push(pass.layers["queue.drain_ms"]);
            if let Some(old) = self.kept_2w.replace(dir) {
                let _ = std::fs::remove_dir_all(old);
            }
        } else {
            let _ = std::fs::remove_dir_all(dir);
        }
        Ok(pass)
    }

    /// A 1-worker drain of the same mix: its archive must be byte-identical
    /// to the 2-worker one.
    fn traced_extras(&mut self, layers: &mut Layers) -> Result<(), String> {
        let kept = self
            .kept_2w
            .take()
            .ok_or("internal: no traced pass to compare")?;
        let (pass, dir) = self.run_pass(true, 1)?;
        let archive_2w = read_tree(&kept.join("store"))?;
        let archive_1w = read_tree(&dir.join("store"))?;
        if archive_1w.is_empty() || archive_1w != archive_2w {
            return Err("the 1-worker and 2-worker archives differ".to_string());
        }
        let one = pass.layers["queue.drain_ms"];
        layers.insert("queue.drain_1w_ms", one);
        layers.insert(
            "queue.scaling_2w",
            one / crate::stats::median(&self.drain_2w_ms),
        );
        let _ = std::fs::remove_dir_all(kept);
        let _ = std::fs::remove_dir_all(dir);
        Ok(())
    }
}

/// Every regular file under `dir`, by relative path, with its bytes.
fn read_tree(dir: &Path) -> Result<BTreeMap<PathBuf, Vec<u8>>, String> {
    let mut files = BTreeMap::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(d) = pending.pop() {
        let entries = std::fs::read_dir(&d).map_err(|e| format!("listing {}: {e}", d.display()))?;
        for entry in entries {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
                let rel = path
                    .strip_prefix(dir)
                    .map_err(|e| e.to_string())?
                    .to_path_buf();
                files.insert(rel, bytes);
            }
        }
    }
    Ok(files)
}
