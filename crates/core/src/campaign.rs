//! Campaign results and the classic blocking entry point.
//!
//! [`CampaignResult`] is the serialisable record of one device's campaign:
//! phase-1 characterisation, the probe bound, and every pair's measurements
//! plus Algorithm-3 analysis. It doubles as the *checkpoint* format — a
//! partial result (some pairs [`PairOutcome::Cancelled`]) can be written to
//! JSON and handed back to
//! [`CampaignSession::resume_from`](crate::session::CampaignSession::resume_from),
//! which re-runs exactly the missing pairs and reproduces the uninterrupted
//! campaign bit for bit.
//!
//! [`Latest`] is the original one-call API, kept as a thin wrapper over
//! [`CampaignSession`] so downstream code
//! migrates incrementally.

use std::collections::HashMap;

use latest_cluster::AdaptiveConfig;

use crate::analysis::PairAnalysis;
use crate::config::CampaignConfig;
use crate::controller::PairOutcome;
use crate::error::CoreResult;
use crate::phase1::Phase1Result;
use crate::probe::ProbeResult;
use crate::session::{CampaignSession, ShardResult};
use crate::state::{FreqState, PairKind};

/// One pair's full result: measurements plus analysis.
///
/// The legacy keys `init_mhz` / `target_mhz` keep core-only archives
/// byte-identical; a two-domain state serialises in place as
/// `{"core": .., "mem": ..}`.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct PairMeasurement {
    /// Initial frequency state.
    #[serde(rename = "init_mhz")]
    pub init: FreqState,
    /// Target frequency state.
    #[serde(rename = "target_mhz")]
    pub target: FreqState,
    /// How the measurement loop ended.
    pub outcome: PairOutcome,
    /// Algorithm-3 analysis of the latencies (None unless completed).
    pub analysis: Option<PairAnalysis>,
}

impl PairMeasurement {
    /// Initial core frequency (MHz).
    pub fn init_mhz(&self) -> u32 {
        self.init.core.0
    }

    /// Target core frequency (MHz).
    pub fn target_mhz(&self) -> u32 {
        self.target.core.0
    }

    /// Which domain(s) the transition moves (identity pairs, which are
    /// never scheduled, classify as [`PairKind::Core`]).
    pub fn kind(&self) -> PairKind {
        self.init.kind_to(&self.target).unwrap_or(PairKind::Core)
    }

    /// The filtered (outlier-free) summary, when available.
    pub fn filtered_summary(&self) -> Option<latest_stats::Summary> {
        self.analysis.as_ref().map(|a| a.filtered)
    }

    /// Raw latencies (ms) when the pair completed.
    pub fn latencies_ms(&self) -> Option<&[f64]> {
        self.outcome.run().map(|r| r.latencies_ms.as_slice())
    }

    /// Whether the transition increases frequency (core first, then
    /// memory for core-equal pairs).
    pub fn is_increase(&self) -> bool {
        self.target > self.init
    }
}

/// Result of a whole campaign on one device.
#[derive(Clone, Debug)]
pub struct CampaignResult {
    /// Device name measured.
    pub device_name: String,
    /// Device index.
    pub device_index: usize,
    /// The campaign seed the measurements were produced under. Resume
    /// validation refuses checkpoints taken under a different seed (their
    /// restored pairs would silently mix noise streams with re-run ones).
    pub seed: u64,
    /// Phase-1 characterisation.
    pub phase1: Phase1Result,
    /// Probe-phase result.
    pub probe: ProbeResult,
    /// All pair measurements, in `ordered_pairs` order.
    pairs: Vec<PairMeasurement>,
    /// `(init, target) → pairs index`, built once at construction so
    /// [`CampaignResult::pair`] is O(1) instead of a linear scan (heatmap
    /// renderers call it once per cell).
    index: HashMap<(FreqState, FreqState), usize>,
}

impl CampaignResult {
    /// Assemble a result; builds the pair lookup index.
    pub fn new(
        device_name: String,
        device_index: usize,
        seed: u64,
        phase1: Phase1Result,
        probe: ProbeResult,
        pairs: Vec<PairMeasurement>,
    ) -> Self {
        let index = pairs
            .iter()
            .enumerate()
            .map(|(i, p)| ((p.init, p.target), i))
            .collect();
        CampaignResult {
            device_name,
            device_index,
            seed,
            phase1,
            probe,
            pairs,
            index,
        }
    }

    /// Deterministically assemble shard results into one campaign result.
    ///
    /// # Determinism contract
    ///
    /// `ordered` — the campaign's canonical `ordered_pairs()` order — fully
    /// determines the output layout, so the shards' *completion* order is
    /// invisible: results are first sorted by shard id (making even a
    /// duplicated pair index resolve identically on every merge), each
    /// measurement is placed at its canonical index, and pairs no shard
    /// measured are recorded as [`PairOutcome::Cancelled`] placeholders.
    /// The merge of an incomplete shard set is therefore exactly the
    /// resumable-checkpoint shape
    /// [`CampaignSession::resume_from`](crate::session::CampaignSession::resume_from)
    /// accepts, and — because every pair runs on its own
    /// `pair_seed`-seeded platform — merging the shards of *any* partition
    /// of a campaign reproduces the unpartitioned result bit for bit.
    pub fn merge(
        device_name: String,
        device_index: usize,
        seed: u64,
        phase1: Phase1Result,
        probe: ProbeResult,
        ordered: &[(FreqState, FreqState)],
        mut shards: Vec<ShardResult>,
    ) -> Self {
        shards.sort_by_key(|s| s.shard);
        let mut slots: Vec<Option<PairMeasurement>> = vec![None; ordered.len()];
        for shard in shards {
            for (index, meas) in shard.pairs {
                if let Some(slot) = slots.get_mut(index) {
                    *slot = Some(meas);
                }
            }
        }
        let pairs = slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.unwrap_or_else(|| PairMeasurement {
                    init: ordered[i].0,
                    target: ordered[i].1,
                    outcome: PairOutcome::Cancelled,
                    analysis: None,
                })
            })
            .collect();
        CampaignResult::new(device_name, device_index, seed, phase1, probe, pairs)
    }

    /// All pair measurements.
    pub fn pairs(&self) -> &[PairMeasurement] {
        &self.pairs
    }

    /// Completed pairs only.
    pub fn completed(&self) -> impl Iterator<Item = &PairMeasurement> {
        self.pairs.iter().filter(|p| p.outcome.run().is_some())
    }

    /// Look up one pair in O(1). Accepts bare [`FreqMhz`] (core-only) or
    /// full [`FreqState`] coordinates.
    ///
    /// [`FreqMhz`]: latest_gpu_sim::freq::FreqMhz
    pub fn pair(
        &self,
        init: impl Into<FreqState>,
        target: impl Into<FreqState>,
    ) -> Option<&PairMeasurement> {
        self.index
            .get(&(init.into(), target.into()))
            .map(|&i| &self.pairs[i])
    }

    /// Whether any pair was left unmeasured by a cancellation — i.e. this
    /// result is a resumable checkpoint rather than a finished campaign.
    pub fn is_partial(&self) -> bool {
        self.pairs.iter().any(|p| p.outcome.is_cancelled())
    }

    /// Serialise to pretty JSON (the checkpoint / `--json` format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("campaign result serialises")
    }

    /// Parse a result back from JSON.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }
}

// Hand-written: the lookup index is derived state, rebuilt on load and
// never written to (or trusted from) the JSON.
impl serde::Serialize for CampaignResult {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("device_name".to_string(), self.device_name.to_value()),
            ("device_index".to_string(), self.device_index.to_value()),
            ("seed".to_string(), self.seed.to_value()),
            ("phase1".to_string(), self.phase1.to_value()),
            ("probe".to_string(), self.probe.to_value()),
            ("pairs".to_string(), self.pairs.to_value()),
        ])
    }
}

impl serde::Deserialize for CampaignResult {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let entries = value.as_map().ok_or_else(|| {
            serde::Error::custom(format!("expected map for CampaignResult, got {value:?}"))
        })?;
        let field = |name: &str| serde::field(entries, name, "CampaignResult");
        Ok(CampaignResult::new(
            serde::Deserialize::from_value(field("device_name")?)?,
            serde::Deserialize::from_value(field("device_index")?)?,
            serde::Deserialize::from_value(field("seed")?)?,
            serde::Deserialize::from_value(field("phase1")?)?,
            serde::Deserialize::from_value(field("probe")?)?,
            serde::Deserialize::from_value(field("pairs")?)?,
        ))
    }
}

/// The LATEST tool's classic blocking API.
///
/// `Latest::new(config).run()` is now a thin compatibility wrapper over
/// [`CampaignSession`]: same results, same
/// determinism, none of the streaming machinery. New code that wants
/// progress events, cancellation or checkpointing should use the session
/// directly.
pub struct Latest {
    config: CampaignConfig,
    adaptive: AdaptiveConfig,
}

impl Latest {
    /// Build a tool instance from a campaign configuration.
    pub fn new(config: CampaignConfig) -> Self {
        Latest {
            config,
            adaptive: AdaptiveConfig::default(),
        }
    }

    /// Override the Algorithm-3 parameters.
    pub fn with_adaptive(mut self, adaptive: AdaptiveConfig) -> Self {
        self.adaptive = adaptive;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &CampaignConfig {
        &self.config
    }

    /// Run the whole campaign to completion (blocking).
    pub fn run(&self) -> CoreResult<CampaignResult> {
        CampaignSession::new(self.config.clone())
            .with_adaptive(self.adaptive)
            .run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latest_gpu_sim::devices;
    use latest_gpu_sim::freq::FreqMhz;
    use latest_gpu_sim::transition::FixedTransition;
    use latest_sim_clock::SimDuration;
    use std::sync::Arc;

    fn small_campaign(seed: u64) -> CampaignConfig {
        let mut spec = devices::a100_sxm4();
        spec.transition = Arc::new(FixedTransition {
            latency: SimDuration::from_millis(9),
        });
        CampaignConfig::builder(spec)
            .frequencies_mhz(&[705, 1095, 1410])
            .measurements(10, 25)
            .seed(seed)
            .build()
    }

    #[test]
    fn campaign_covers_all_ordered_pairs() {
        let result = Latest::new(small_campaign(3)).run().unwrap();
        assert_eq!(result.pairs().len(), 6);
        for p in result.completed() {
            let a = p.analysis.as_ref().unwrap();
            // Fixed 9 ms device: every filtered mean must sit near 9 ms
            // (plus driver travel and detection granularity).
            assert!(
                (8.8..11.0).contains(&a.filtered.mean),
                "{}->{}: mean {} ms",
                p.init,
                p.target,
                a.filtered.mean
            );
        }
        assert!(result.pair(FreqMhz(705), FreqMhz(1410)).is_some());
        assert!(result.pair(FreqMhz(705), FreqMhz(705)).is_none());
    }

    #[test]
    fn pair_lookup_agrees_with_linear_scan() {
        let result = Latest::new(small_campaign(5)).run().unwrap();
        for p in result.pairs() {
            let (init, target) = (p.init, p.target);
            let via_index = result.pair(init, target).unwrap();
            let via_scan = result
                .pairs()
                .iter()
                .find(|q| q.init == init && q.target == target)
                .unwrap();
            assert!(std::ptr::eq(via_index, via_scan));
        }
        assert!(result.pair(FreqMhz(1), FreqMhz(2)).is_none());
    }

    #[test]
    fn campaign_is_deterministic_across_runs() {
        let a = Latest::new(small_campaign(11)).run().unwrap();
        let b = Latest::new(small_campaign(11)).run().unwrap();
        for (pa, pb) in a.pairs().iter().zip(b.pairs()) {
            assert_eq!(pa.latencies_ms(), pb.latencies_ms());
        }
        // And a different seed gives different noise.
        let c = Latest::new(small_campaign(12)).run().unwrap();
        let same = a
            .pairs()
            .iter()
            .zip(c.pairs())
            .all(|(x, y)| x.latencies_ms() == y.latencies_ms());
        assert!(!same, "different seeds produced identical campaigns");
    }

    #[test]
    fn closed_loop_measured_matches_ground_truth() {
        let result = Latest::new(small_campaign(7)).run().unwrap();
        for p in result.completed() {
            let run = p.outcome.run().unwrap();
            for (&m, &g) in run.latencies_ms.iter().zip(&run.ground_truth_ms) {
                assert!(
                    (m - g).abs() < 0.6,
                    "{}->{}: measured {m} vs truth {g}",
                    p.init,
                    p.target
                );
            }
        }
    }

    #[test]
    fn json_roundtrip_is_bitwise_faithful() {
        let result = Latest::new(small_campaign(13)).run().unwrap();
        let back = CampaignResult::from_json(&result.to_json()).unwrap();
        assert_eq!(back.device_name, result.device_name);
        assert_eq!(back.seed, result.seed);
        assert_eq!(back.pairs().len(), result.pairs().len());
        assert!(!back.is_partial());
        for (a, b) in result.pairs().iter().zip(back.pairs()) {
            let bits =
                |xs: Option<&[f64]>| xs.map(|v| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>());
            assert_eq!(bits(a.latencies_ms()), bits(b.latencies_ms()));
            assert_eq!(
                a.filtered_summary().map(|s| s.mean.to_bits()),
                b.filtered_summary().map(|s| s.mean.to_bits())
            );
        }
        // The rebuilt index must serve lookups too.
        assert!(back.pair(FreqMhz(1095), FreqMhz(705)).is_some());
        // Phase-1 state survives: validity drives resume decisions.
        assert_eq!(back.phase1.valid_pairs, result.phase1.valid_pairs);
        assert_eq!(
            back.probe.max_latency_ms.to_bits(),
            result.probe.max_latency_ms.to_bits()
        );
    }
}
