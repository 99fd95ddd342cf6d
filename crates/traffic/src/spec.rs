//! The traffic scenario format: shapes, validation and JSON round-trip.
//!
//! A [`TrafficSpec`] is to the governor daemon what a `CampaignSpec` is to
//! the measurement engine: a JSON file fully describing a deterministic
//! run. The same conventions apply — missing fields take defaults, unknown
//! fields are rejected, and validation enumerates *every* violation rather
//! than stopping at the first.

use std::fmt;

/// The arrival-process family of a traffic scenario.
///
/// Five shapes bracket the load patterns the related work scores governors
/// against: constant services, bursty inference traffic, day/night cycles,
/// frame-paced rendering and hard-deadline batch jobs.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(tag = "kind", rename_all = "lowercase", deny_unknown_fields)]
pub enum TrafficShape {
    /// Homogeneous Poisson arrivals at a constant rate.
    Steady {
        /// Mean arrival rate (requests per second).
        rate_hz: f64,
    },
    /// Alternating high-rate bursts and sparse gaps (open-loop inference
    /// traffic with thundering herds).
    Bursty {
        /// Arrival rate inside a burst (requests per second).
        burst_rate_hz: f64,
        /// Arrival rate inside a gap (requests per second; may be 0).
        gap_rate_hz: f64,
        /// Burst window length (ms).
        burst_ms: f64,
        /// Gap window length (ms).
        gap_ms: f64,
    },
    /// Sinusoidal day/night cycle between a trough and a peak rate
    /// (non-homogeneous Poisson, generated by thinning).
    Diurnal {
        /// Rate at the top of the cycle (requests per second).
        peak_rate_hz: f64,
        /// Rate at the bottom of the cycle (requests per second).
        trough_rate_hz: f64,
        /// Full cycle period (ms).
        period_ms: f64,
    },
    /// Frame-paced rendering load: one request per frame with small
    /// arrival jitter, a heavier request every `heavy_every` frames (scene
    /// changes), and the frame budget as each request's implicit deadline.
    Gaming {
        /// Frame rate (frames per second).
        frame_rate_hz: f64,
        /// Every n-th frame carries `heavy_factor` times the work.
        heavy_every: u64,
        /// Work multiplier of a heavy frame (≥ 1).
        heavy_factor: f64,
    },
    /// Poisson arrivals where every request carries an explicit absolute
    /// deadline offset (Ilager et al.-style deadline-driven jobs).
    Deadline {
        /// Mean arrival rate (requests per second).
        rate_hz: f64,
        /// Deadline offset from arrival (ms).
        deadline_ms: f64,
    },
}

impl TrafficShape {
    /// The shape's JSON tag (`kind` field value).
    pub fn kind(&self) -> &'static str {
        match self {
            TrafficShape::Steady { .. } => "steady",
            TrafficShape::Bursty { .. } => "bursty",
            TrafficShape::Diurnal { .. } => "diurnal",
            TrafficShape::Gaming { .. } => "gaming",
            TrafficShape::Deadline { .. } => "deadline",
        }
    }

    /// All shape tags, in canonical order.
    pub const KINDS: &'static [&'static str] =
        &["steady", "bursty", "diurnal", "gaming", "deadline"];
}

/// One constraint a traffic spec violates.
#[derive(Clone, Debug, PartialEq)]
pub enum TrafficError {
    /// The scenario has no name.
    EmptyName,
    /// The scenario duration is not positive.
    NonPositiveDuration {
        /// Offending value (ms).
        ms: f64,
    },
    /// The mean request work is not positive.
    NonPositiveWork {
        /// Offending value (ms).
        ms: f64,
    },
    /// The relative work jitter is outside `[0, 1)`.
    BadWorkJitter {
        /// Offending value.
        value: f64,
    },
    /// A rate field is not positive (or, where zero is allowed, negative).
    BadRate {
        /// Which field.
        field: &'static str,
        /// Offending value (Hz).
        hz: f64,
    },
    /// A window/period field is not positive.
    NonPositiveWindow {
        /// Which field.
        field: &'static str,
        /// Offending value (ms).
        ms: f64,
    },
    /// The diurnal trough rate exceeds the peak rate.
    TroughAbovePeak {
        /// Trough rate (Hz).
        trough_hz: f64,
        /// Peak rate (Hz).
        peak_hz: f64,
    },
    /// The gaming heavy-frame cadence is zero.
    ZeroHeavyEvery,
    /// The gaming heavy-frame factor is below 1.
    BadHeavyFactor {
        /// Offending value.
        value: f64,
    },
    /// The deadline slack factor is not positive.
    BadDeadlineSlack {
        /// Offending value.
        value: f64,
    },
    /// The explicit deadline offset is not positive.
    NonPositiveDeadline {
        /// Offending value (ms).
        ms: f64,
    },
}

impl fmt::Display for TrafficError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficError::EmptyName => write!(f, "scenario name is empty"),
            TrafficError::NonPositiveDuration { ms } => {
                write!(f, "duration_ms must be positive, got {ms}")
            }
            TrafficError::NonPositiveWork { ms } => {
                write!(f, "work_ms must be positive, got {ms}")
            }
            TrafficError::BadWorkJitter { value } => {
                write!(f, "work_jitter must be in [0, 1), got {value}")
            }
            TrafficError::BadRate { field, hz } => {
                write!(f, "{field} must be a valid rate, got {hz} Hz")
            }
            TrafficError::NonPositiveWindow { field, ms } => {
                write!(f, "{field} must be positive, got {ms} ms")
            }
            TrafficError::TroughAbovePeak { trough_hz, peak_hz } => write!(
                f,
                "trough_rate_hz ({trough_hz}) must not exceed peak_rate_hz ({peak_hz})"
            ),
            TrafficError::ZeroHeavyEvery => write!(f, "heavy_every must be at least 1"),
            TrafficError::BadHeavyFactor { value } => {
                write!(f, "heavy_factor must be at least 1, got {value}")
            }
            TrafficError::BadDeadlineSlack { value } => {
                write!(f, "deadline_slack must be positive, got {value}")
            }
            TrafficError::NonPositiveDeadline { ms } => {
                write!(f, "deadline_ms must be positive, got {ms}")
            }
        }
    }
}

/// Every constraint a spec violates, reported at once.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TrafficErrors {
    errors: Vec<TrafficError>,
}

impl TrafficErrors {
    /// `Ok(())` when `errors` is empty, the collected set otherwise.
    pub fn collect(errors: Vec<TrafficError>) -> Result<(), TrafficErrors> {
        if errors.is_empty() {
            Ok(())
        } else {
            Err(TrafficErrors { errors })
        }
    }

    /// The individual violations.
    pub fn errors(&self) -> &[TrafficError] {
        &self.errors
    }

    /// Whether any violation matches `f`.
    pub fn contains(&self, f: impl Fn(&TrafficError) -> bool) -> bool {
        self.errors.iter().any(f)
    }
}

impl fmt::Display for TrafficErrors {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid traffic spec ({} violations):",
            self.errors.len()
        )?;
        for e in &self.errors {
            write!(f, "\n  - {e}")?;
        }
        Ok(())
    }
}

impl std::error::Error for TrafficErrors {}

/// Serialisable description of one traffic scenario.
///
/// `generate()` turns it into a concrete [`TrafficTrace`](crate::stream::TrafficTrace):
/// same spec, same trace, bit for bit.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct TrafficSpec {
    /// Scenario name (labels scorecards and file names).
    pub name: String,
    /// Free-text description.
    pub description: String,
    /// Arrival-process family and its parameters.
    pub shape: TrafficShape,
    /// Scenario length (ms): arrivals stop after this instant.
    pub duration_ms: f64,
    /// Generator seed.
    pub seed: u64,
    /// Mean work per request (ms at the device's reference frequency).
    pub work_ms: f64,
    /// Relative half-width of the uniform work jitter, in `[0, 1)`.
    pub work_jitter: f64,
    /// When set, every request gets `deadline = arrival + slack × work`
    /// (its own sampled work). Shapes with intrinsic deadlines (`gaming`,
    /// `deadline`) ignore this and use their own rule.
    pub deadline_slack: Option<f64>,
}

impl Default for TrafficSpec {
    fn default() -> Self {
        TrafficSpec {
            name: "steady".to_string(),
            description: String::new(),
            shape: TrafficShape::Steady { rate_hz: 60.0 },
            duration_ms: 10_000.0,
            seed: 0,
            work_ms: 5.0,
            work_jitter: 0.2,
            deadline_slack: None,
        }
    }
}

fn bad_rate(errors: &mut Vec<TrafficError>, field: &'static str, hz: f64, allow_zero: bool) {
    let ok = hz.is_finite() && if allow_zero { hz >= 0.0 } else { hz > 0.0 };
    if !ok {
        errors.push(TrafficError::BadRate { field, hz });
    }
}

fn bad_window(errors: &mut Vec<TrafficError>, field: &'static str, ms: f64) {
    if !(ms.is_finite() && ms > 0.0) {
        errors.push(TrafficError::NonPositiveWindow { field, ms });
    }
}

impl TrafficSpec {
    /// Validate, reporting every violated constraint at once.
    pub fn validate(&self) -> Result<(), TrafficErrors> {
        let mut errors = Vec::new();
        if self.name.trim().is_empty() {
            errors.push(TrafficError::EmptyName);
        }
        if !(self.duration_ms.is_finite() && self.duration_ms > 0.0) {
            errors.push(TrafficError::NonPositiveDuration {
                ms: self.duration_ms,
            });
        }
        if !(self.work_ms.is_finite() && self.work_ms > 0.0) {
            errors.push(TrafficError::NonPositiveWork { ms: self.work_ms });
        }
        if !(self.work_jitter.is_finite() && (0.0..1.0).contains(&self.work_jitter)) {
            errors.push(TrafficError::BadWorkJitter {
                value: self.work_jitter,
            });
        }
        if let Some(slack) = self.deadline_slack {
            if !(slack.is_finite() && slack > 0.0) {
                errors.push(TrafficError::BadDeadlineSlack { value: slack });
            }
        }
        match &self.shape {
            TrafficShape::Steady { rate_hz } => {
                bad_rate(&mut errors, "rate_hz", *rate_hz, false);
            }
            TrafficShape::Bursty {
                burst_rate_hz,
                gap_rate_hz,
                burst_ms,
                gap_ms,
            } => {
                bad_rate(&mut errors, "burst_rate_hz", *burst_rate_hz, false);
                bad_rate(&mut errors, "gap_rate_hz", *gap_rate_hz, true);
                bad_window(&mut errors, "burst_ms", *burst_ms);
                bad_window(&mut errors, "gap_ms", *gap_ms);
            }
            TrafficShape::Diurnal {
                peak_rate_hz,
                trough_rate_hz,
                period_ms,
            } => {
                bad_rate(&mut errors, "peak_rate_hz", *peak_rate_hz, false);
                bad_rate(&mut errors, "trough_rate_hz", *trough_rate_hz, true);
                bad_window(&mut errors, "period_ms", *period_ms);
                if trough_rate_hz.is_finite()
                    && peak_rate_hz.is_finite()
                    && trough_rate_hz > peak_rate_hz
                {
                    errors.push(TrafficError::TroughAbovePeak {
                        trough_hz: *trough_rate_hz,
                        peak_hz: *peak_rate_hz,
                    });
                }
            }
            TrafficShape::Gaming {
                frame_rate_hz,
                heavy_every,
                heavy_factor,
            } => {
                bad_rate(&mut errors, "frame_rate_hz", *frame_rate_hz, false);
                if *heavy_every == 0 {
                    errors.push(TrafficError::ZeroHeavyEvery);
                }
                if !(heavy_factor.is_finite() && *heavy_factor >= 1.0) {
                    errors.push(TrafficError::BadHeavyFactor {
                        value: *heavy_factor,
                    });
                }
            }
            TrafficShape::Deadline {
                rate_hz,
                deadline_ms,
            } => {
                bad_rate(&mut errors, "rate_hz", *rate_hz, false);
                if !(deadline_ms.is_finite() && *deadline_ms > 0.0) {
                    errors.push(TrafficError::NonPositiveDeadline { ms: *deadline_ms });
                }
            }
        }
        TrafficErrors::collect(errors)
    }

    /// Serialise to pretty JSON (the scenario-file format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("traffic spec serialises")
    }

    /// Parse from JSON. Missing fields take defaults; unknown fields are
    /// rejected.
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bursty_spec() -> TrafficSpec {
        TrafficSpec {
            name: "bursty".into(),
            description: "test".into(),
            shape: TrafficShape::Bursty {
                burst_rate_hz: 150.0,
                gap_rate_hz: 4.0,
                burst_ms: 260.0,
                gap_ms: 420.0,
            },
            deadline_slack: Some(6.0),
            ..TrafficSpec::default()
        }
    }

    #[test]
    fn every_shape_round_trips_through_json() {
        let shapes = vec![
            TrafficShape::Steady { rate_hz: 60.0 },
            TrafficShape::Bursty {
                burst_rate_hz: 150.0,
                gap_rate_hz: 0.0,
                burst_ms: 260.0,
                gap_ms: 420.0,
            },
            TrafficShape::Diurnal {
                peak_rate_hz: 120.0,
                trough_rate_hz: 5.0,
                period_ms: 4_000.0,
            },
            TrafficShape::Gaming {
                frame_rate_hz: 60.0,
                heavy_every: 48,
                heavy_factor: 3.0,
            },
            TrafficShape::Deadline {
                rate_hz: 40.0,
                deadline_ms: 25.0,
            },
        ];
        for shape in shapes {
            let spec = TrafficSpec {
                name: shape.kind().to_string(),
                shape: shape.clone(),
                ..TrafficSpec::default()
            };
            let parsed = TrafficSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(parsed, spec, "shape {}", shape.kind());
            // A second round trip is textually identical (file format is
            // canonical).
            assert_eq!(parsed.to_json(), spec.to_json());
        }
    }

    #[test]
    fn missing_fields_take_defaults() {
        let spec =
            TrafficSpec::from_json(r#"{"shape": {"kind": "steady", "rate_hz": 10.0}}"#).unwrap();
        assert_eq!(spec.duration_ms, TrafficSpec::default().duration_ms);
        assert_eq!(spec.seed, 0);
        assert_eq!(spec.deadline_slack, None);
    }

    #[test]
    fn unknown_fields_are_rejected_at_both_levels() {
        let top = TrafficSpec::from_json(r#"{"rate_hz": 10.0}"#);
        assert!(top.is_err(), "unknown top-level field must be rejected");
        let err = top.unwrap_err().to_string();
        assert!(
            err.contains("`rate_hz`") && err.contains("known fields: name,"),
            "{err}"
        );
        let nested = [
            (r#""kind": "steady", "rate_hz": 10.0"#, "kind, rate_hz"),
            (
                r#""kind": "bursty", "burst_rate_hz": 1.0, "gap_rate_hz": 0.0, "burst_ms": 1.0, "gap_ms": 1.0"#,
                "kind, burst_rate_hz, gap_rate_hz, burst_ms, gap_ms",
            ),
            (
                r#""kind": "diurnal", "peak_rate_hz": 2.0, "trough_rate_hz": 1.0, "period_ms": 9.0"#,
                "kind, peak_rate_hz, trough_rate_hz, period_ms",
            ),
            (
                r#""kind": "gaming", "frame_rate_hz": 60.0, "heavy_every": 4, "heavy_factor": 2.0"#,
                "kind, frame_rate_hz, heavy_every, heavy_factor",
            ),
            (
                r#""kind": "deadline", "rate_hz": 10.0, "deadline_ms": 5.0"#,
                "kind, rate_hz, deadline_ms",
            ),
        ];
        for (fields, known) in nested {
            let json = format!(r#"{{"shape": {{{fields}}}}}"#);
            TrafficSpec::from_json(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
            let typo = format!(r#"{{"shape": {{{fields}, "rate_hzz": 5.0}}}}"#);
            let err = TrafficSpec::from_json(&typo)
                .expect_err("unknown shape field must be rejected")
                .to_string();
            assert!(err.contains("`rate_hzz`"), "{err}");
            assert!(err.contains(&format!("(known fields: {known})")), "{err}");
        }
        let unknown_kind = TrafficSpec::from_json(r#"{"shape": {"kind": "sawtooth"}}"#);
        assert!(unknown_kind.is_err(), "unknown shape kind must be rejected");
    }

    #[test]
    fn validation_enumerates_every_violation() {
        let spec = TrafficSpec {
            name: "  ".into(),
            duration_ms: -1.0,
            work_ms: 0.0,
            work_jitter: 1.5,
            deadline_slack: Some(0.0),
            shape: TrafficShape::Bursty {
                burst_rate_hz: 0.0,
                gap_rate_hz: -1.0,
                burst_ms: 0.0,
                gap_ms: f64::NAN,
            },
            ..TrafficSpec::default()
        };
        let errors = spec.validate().unwrap_err();
        assert!(errors.errors().len() >= 8, "{errors}");
        assert!(errors.contains(|e| matches!(e, TrafficError::EmptyName)));
        assert!(errors.contains(|e| matches!(e, TrafficError::BadWorkJitter { .. })));
        assert!(errors.contains(
            |e| matches!(e, TrafficError::BadRate { field, .. } if *field == "gap_rate_hz")
        ));
        assert!(errors.contains(
            |e| matches!(e, TrafficError::NonPositiveWindow { field, .. } if *field == "gap_ms")
        ));
        assert!(errors.contains(|e| matches!(e, TrafficError::BadDeadlineSlack { .. })));
    }

    #[test]
    fn diurnal_trough_must_not_exceed_peak() {
        let spec = TrafficSpec {
            shape: TrafficShape::Diurnal {
                peak_rate_hz: 10.0,
                trough_rate_hz: 20.0,
                period_ms: 1_000.0,
            },
            ..TrafficSpec::default()
        };
        let errors = spec.validate().unwrap_err();
        assert!(errors.contains(|e| matches!(e, TrafficError::TroughAbovePeak { .. })));
    }

    #[test]
    fn valid_spec_passes() {
        bursty_spec().validate().unwrap();
    }
}
