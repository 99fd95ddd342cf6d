//! Benchmark-side tracing: spans around calls into each layer, and a timing
//! decorator over the simulated platform.
//!
//! Nothing here reaches inside the program. Spans wrap the public calls the
//! benchmark makes; the simulator substrate is timed by a [`Platform`]
//! decorator that the campaign receives through
//! `CampaignSession::with_factory`, so every simulator call a pair makes
//! passes through one place.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use latest::clock_sync::{SyncConfig, SyncResult};
use latest::core::{
    CoreResult, GroundTruth, MemoryClocks, Platform, PlatformFactory, SimPlatform,
    SimPlatformFactory,
};
use latest::cuda::TimerData;
use latest::gpu_sim::devices::DeviceSpec;
use latest::gpu_sim::freq::FreqMhz;
use latest::gpu_sim::{KernelConfig, KernelId, ThrottleReasons};
use latest::sim_clock::{SimDuration, SimTime};

/// Per-layer values of one pass, keyed by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One recorded span: a named interval and the span that enclosed it.
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder for one pass. Disabled, it only runs the closures, so the
/// untraced passes pay nothing for it.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                parent: self.open.borrow().last().copied(),
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.now_ns();
        out
    }

    /// Summed duration of every span named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    }

    /// Move the recorded spans out, for writing once the run ends.
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut self.spans.borrow_mut())
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Host time spent inside the simulator, by kind of call.
#[derive(Default)]
pub struct SimCounters {
    pub create_ns: AtomicU64,
    pub kernel_ns: AtomicU64,
    pub kernel_calls: AtomicU64,
    pub clock_ns: AtomicU64,
    pub timer_sync_ns: AtomicU64,
    pub other_ns: AtomicU64,
    /// Simulated device nanoseconds, summed over platforms when they drop.
    pub device_ns: AtomicU64,
}

impl SimCounters {
    fn ms(counter: &AtomicU64) -> f64 {
        counter.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Host milliseconds spent in every kind of simulator call.
    pub fn total_ms(&self) -> f64 {
        Self::ms(&self.create_ns)
            + Self::ms(&self.kernel_ns)
            + Self::ms(&self.clock_ns)
            + Self::ms(&self.timer_sync_ns)
            + Self::ms(&self.other_ns)
    }

    pub fn record_into(&self, layers: &mut Layers) {
        layers.insert("sim.create_ms", Self::ms(&self.create_ns));
        layers.insert("sim.kernel_ms", Self::ms(&self.kernel_ns));
        layers.insert(
            "sim.kernel_calls",
            self.kernel_calls.load(Ordering::Relaxed) as f64,
        );
        layers.insert("sim.clock_ms", Self::ms(&self.clock_ns));
        layers.insert("sim.timer_sync_ms", Self::ms(&self.timer_sync_ns));
        layers.insert("sim.other_ms", Self::ms(&self.other_ns));
        layers.insert(
            "sim.device_s",
            self.device_ns.load(Ordering::Relaxed) as f64 / 1e9,
        );
    }
}

thread_local! {
    /// Simulator host nanoseconds spent on this thread. A pair runs on one
    /// thread, so the difference across its start and finish events is
    /// exactly that pair's simulator time.
    static THREAD_SIM_NS: Cell<u64> = const { Cell::new(0) };
}

/// Simulator host nanoseconds spent on the calling thread so far.
pub fn thread_sim_ns() -> u64 {
    THREAD_SIM_NS.with(Cell::get)
}

fn timed<T>(counter: &AtomicU64, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    counter.fetch_add(ns, Ordering::Relaxed);
    THREAD_SIM_NS.with(|c| c.set(c.get() + ns));
    out
}

/// Builds [`TimingPlatform`]s over the simulated device.
pub struct TimingFactory {
    inner: SimPlatformFactory,
    counters: Arc<SimCounters>,
}

impl TimingFactory {
    pub fn new(spec: DeviceSpec, counters: Arc<SimCounters>) -> Self {
        TimingFactory {
            inner: SimPlatformFactory::new(spec),
            counters,
        }
    }
}

impl PlatformFactory for TimingFactory {
    type Platform = TimingPlatform;

    fn create(&self, seed: u64) -> CoreResult<TimingPlatform> {
        let inner = timed(&self.counters.create_ns, || self.inner.create(seed))?;
        Ok(TimingPlatform {
            born: inner.now(),
            inner,
            counters: self.counters.clone(),
        })
    }

    fn device_name(&self) -> String {
        self.inner.device_name()
    }
}

/// A [`SimPlatform`] whose every call is delegated and timed.
pub struct TimingPlatform {
    inner: SimPlatform,
    born: SimTime,
    counters: Arc<SimCounters>,
}

impl Drop for TimingPlatform {
    fn drop(&mut self) {
        let lived = self.inner.now().as_nanos() - self.born.as_nanos();
        self.counters.device_ns.fetch_add(lived, Ordering::Relaxed);
    }
}

impl Platform for TimingPlatform {
    fn now(&self) -> SimTime {
        timed(&self.counters.other_ns, || self.inner.now())
    }

    fn sleep(&mut self, d: SimDuration) {
        timed(&self.counters.other_ns, || self.inner.sleep(d))
    }

    fn set_locked_clocks(&mut self, target: FreqMhz) -> CoreResult<FreqMhz> {
        timed(&self.counters.clock_ns, || {
            self.inner.set_locked_clocks(target)
        })
    }

    fn reset_locked_clocks(&mut self) -> CoreResult<FreqMhz> {
        timed(&self.counters.clock_ns, || self.inner.reset_locked_clocks())
    }

    fn current_clock(&mut self) -> FreqMhz {
        timed(&self.counters.clock_ns, || self.inner.current_clock())
    }

    fn supported_clocks(&self) -> Vec<FreqMhz> {
        timed(&self.counters.clock_ns, || self.inner.supported_clocks())
    }

    fn launch_benchmark(&mut self, config: KernelConfig) -> CoreResult<KernelId> {
        self.counters.kernel_calls.fetch_add(1, Ordering::Relaxed);
        timed(&self.counters.kernel_ns, || {
            self.inner.launch_benchmark(config)
        })
    }

    fn synchronize(&mut self) -> SimTime {
        timed(&self.counters.kernel_ns, || self.inner.synchronize())
    }

    fn collect_records(&mut self, id: KernelId) -> CoreResult<TimerData> {
        timed(&self.counters.kernel_ns, || self.inner.collect_records(id))
    }

    fn synchronize_timers(&mut self, config: &SyncConfig) -> SyncResult {
        timed(&self.counters.timer_sync_ns, || {
            self.inner.synchronize_timers(config)
        })
    }

    fn throttle_reasons(&mut self) -> ThrottleReasons {
        timed(&self.counters.other_ns, || self.inner.throttle_reasons())
    }

    fn temperature_c(&mut self) -> f64 {
        timed(&self.counters.other_ns, || self.inner.temperature_c())
    }

    fn device_name(&self) -> String {
        self.inner.device_name()
    }

    fn as_ground_truth(&self) -> Option<&dyn GroundTruth> {
        self.inner.as_ground_truth()
    }

    // Memory-clock calls go straight to the simulator untimed: the
    // capability hands out a borrow of the inner platform. The campaign
    // workload sweeps the core clock only, so none are made.
    fn as_memory_clocks(&mut self) -> Option<&mut dyn MemoryClocks> {
        self.inner.as_memory_clocks()
    }
}
