//! The merged, drain-end view of every recorder slot: one [`Histogram`]
//! per [`Stage`] plus the total dropped-event count. This is the value
//! `DrainStats` carries, `<dir>/telemetry.json` persists, and
//! `latest queue stats` renders.
//!
//! The JSON form serializes exact integer state (counts, sums, sparse
//! buckets) and additionally derived convenience fields (`p50_ns`,
//! `p90_ns`, `p99_ns`, `mean_ns`) for CI gates and humans; deserializing
//! ignores the derived fields and rebuilds from the integers, so
//! equality stays bitwise on integer state.

use serde::{Deserialize, Serialize, Value};

use crate::hist::Histogram;
use crate::stage::Stage;

/// A merged telemetry snapshot; see the [module docs](self).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// One histogram per stage, indexed by [`Stage::index`].
    pub stages: Vec<Histogram>,
    /// Events dropped across all slots because a buffer was full.
    pub dropped_events: u64,
}

impl Default for TelemetrySnapshot {
    fn default() -> Self {
        TelemetrySnapshot {
            stages: (0..Stage::COUNT).map(|_| Histogram::new()).collect(),
            dropped_events: 0,
        }
    }
}

impl TelemetrySnapshot {
    /// The distribution for one stage.
    pub fn stage(&self, stage: Stage) -> &Histogram {
        &self.stages[stage.index()]
    }

    /// Fold another snapshot into this one (element-wise histogram merge
    /// plus dropped-event addition); associative and order-independent.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for (mine, theirs) in self.stages.iter_mut().zip(other.stages.iter()) {
            mine.merge(theirs);
        }
        self.dropped_events += other.dropped_events;
    }

    /// Total samples across every stage.
    pub fn records_total(&self) -> u64 {
        self.stages.iter().map(|h| h.count()).sum()
    }

    /// Whether no stage recorded anything and nothing was dropped.
    pub fn is_empty(&self) -> bool {
        self.records_total() == 0 && self.dropped_events == 0
    }

    /// Pretty-printed JSON; deterministic for identical snapshots.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialization is infallible")
    }

    /// Parse a snapshot previously written by [`TelemetrySnapshot::to_json`].
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }
}

// Hand-written: `records_total` and the per-stage mean/quantiles are
// computed fields, written for readers and ignored on load.
impl Serialize for TelemetrySnapshot {
    fn to_value(&self) -> Value {
        let stages: Vec<(String, Value)> = Stage::ALL
            .into_iter()
            .map(|stage| {
                let hist = self.stage(stage);
                let Value::Map(mut entries) = hist.to_value() else {
                    unreachable!("histograms serialize to objects");
                };
                // Derived fields for CI gates and human readers; ignored on
                // deserialize so equality stays on exact integer state.
                entries.push((
                    "mean_ns".to_string(),
                    hist.mean().map_or(Value::Null, Value::F64),
                ));
                for (key, q) in [("p50_ns", 0.50), ("p90_ns", 0.90), ("p99_ns", 0.99)] {
                    entries.push((
                        key.to_string(),
                        hist.quantile(q).map_or(Value::Null, Value::U64),
                    ));
                }
                (stage.name().to_string(), Value::Map(entries))
            })
            .collect();
        Value::Map(vec![
            (
                "records_total".to_string(),
                Value::U64(self.records_total()),
            ),
            (
                "dropped_events".to_string(),
                Value::U64(self.dropped_events),
            ),
            ("stages".to_string(), Value::Map(stages)),
        ])
    }
}

impl Deserialize for TelemetrySnapshot {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let Value::Map(entries) = value else {
            return Err(serde::Error::custom("telemetry snapshot: expected object"));
        };
        let dropped_events = match entries
            .iter()
            .find(|(k, _)| k == "dropped_events")
            .map(|(_, v)| v)
        {
            Some(Value::U64(n)) => *n,
            Some(Value::I64(n)) if *n >= 0 => *n as u64,
            _ => {
                return Err(serde::Error::custom(
                    "telemetry snapshot: missing `dropped_events`",
                ))
            }
        };
        let Some(Value::Map(stage_entries)) =
            entries.iter().find(|(k, _)| k == "stages").map(|(_, v)| v)
        else {
            return Err(serde::Error::custom("telemetry snapshot: missing `stages`"));
        };
        let mut snap = TelemetrySnapshot {
            stages: (0..Stage::COUNT).map(|_| Histogram::new()).collect(),
            dropped_events,
        };
        for (name, hist_value) in stage_entries {
            let Some(stage) = Stage::from_name(name) else {
                return Err(serde::Error::custom(format!(
                    "telemetry snapshot: unknown stage `{name}`"
                )));
            };
            snap.stages[stage.index()] = Histogram::from_value(hist_value)?;
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::default();
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            for k in 0..(i as u64 + 1) {
                snap.stages[stage.index()].record(1_000 * (k + 1));
            }
        }
        snap.dropped_events = 3;
        snap
    }

    #[test]
    fn stage_accessor_and_totals() {
        let snap = sample();
        assert_eq!(snap.stage(Stage::QueueWait).count(), 1);
        assert_eq!(snap.stage(Stage::EventFanIn).count(), 6);
        assert_eq!(snap.records_total(), 21);
        assert!(!snap.is_empty());
        assert!(TelemetrySnapshot::default().is_empty());
    }

    #[test]
    fn merge_is_order_independent() {
        let a = sample();
        let mut b = TelemetrySnapshot::default();
        b.stages[Stage::ShardExec.index()].record(77);
        b.dropped_events = 2;
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.dropped_events, 5);
        assert_eq!(ab.stage(Stage::ShardExec).count(), 4);
    }

    #[test]
    fn json_round_trip_is_bitwise() {
        let snap = sample();
        let text = snap.to_json();
        let back = TelemetrySnapshot::from_json(&text).unwrap();
        assert_eq!(back, snap);
        // Identical snapshots render identical JSON — the property the CI
        // determinism gate compares byte-for-byte.
        assert_eq!(text, back.to_json());
    }

    #[test]
    fn json_exposes_derived_quantiles_per_stage() {
        let text = sample().to_json();
        for stage in Stage::ALL {
            assert!(text.contains(&format!("\"{}\"", stage.name())), "{stage}");
        }
        for key in ["p50_ns", "p90_ns", "p99_ns", "mean_ns", "dropped_events"] {
            assert!(text.contains(key), "missing {key}");
        }
    }

    #[test]
    fn deserialize_rejects_unknown_stage() {
        let err = TelemetrySnapshot::from_json(
            r#"{"dropped_events": 0, "stages": {"warp-drive": {"count": 0, "sum": 0, "min": 0, "max": 0, "buckets": []}}}"#,
        );
        assert!(err.is_err());
    }
}
