//! Golden shapes of the persisted JSON formats: scenario specs,
//! checkpoints, archive provenance, journal entries, shard ledgers and
//! traffic specs.
//!
//! Every check serialises one fixed instance, asserts the pretty JSON is
//! byte-identical to its fixture under `tests/fixtures/serde_shapes/`, then
//! parses the fixture back and asserts the re-serialised text is the same
//! bytes again (and, where the type has `PartialEq`, the same value). A
//! change to how any of these types is (de)serialised that moves one byte
//! fails here, whatever the reason for the change.

use std::fs;
use std::path::PathBuf;

use latest::core::analysis::PairAnalysis;
use latest::core::phase1::FreqCharacterization;
use latest::core::probe::ProbeResult;
use latest::core::spec::{CampaignSpec, FleetSpec, SpecCheckpoint};
use latest::core::{
    CampaignResult, FreqState, PairMeasurement, PairOutcome, PairRun, Phase1Result, Provenance,
    RunId,
};
use latest::gpu_sim::FreqMhz;
use latest::queue::{CompletionVia, Job, JobId, JobState, MemberLedger, ShardLedger};
use latest::stats::Summary;
use latest::traffic::{TrafficShape, TrafficSpec};

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/serde_shapes")
        .join(format!("{name}.json"))
}

/// Byte equality with the fixture, then an exact text round-trip.
fn check_bytes<T: serde::Serialize + serde::Deserialize>(name: &str, value: &T) -> T {
    let text = serde_json::to_string_pretty(value).unwrap();
    let golden =
        fs::read_to_string(fixture(name)).unwrap_or_else(|e| panic!("reading {name}: {e}"));
    assert_eq!(text, golden, "{name}: serialised bytes moved");
    let parsed: T = serde_json::from_str(&golden).unwrap_or_else(|e| panic!("parsing {name}: {e}"));
    assert_eq!(
        serde_json::to_string_pretty(&parsed).unwrap(),
        golden,
        "{name}: round-trip is not exact"
    );
    parsed
}

/// [`check_bytes`] plus value equality of the parsed fixture.
fn check<T>(name: &str, value: &T)
where
    T: serde::Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
{
    assert_eq!(
        &check_bytes(name, value),
        value,
        "{name}: parsed value differs"
    );
}

fn core(mhz: u32) -> FreqState {
    FreqState::core_only(FreqMhz(mhz))
}

fn both(core: u32, mem: u32) -> FreqState {
    FreqState::with_mem(FreqMhz(core), FreqMhz(mem))
}

fn core_spec() -> CampaignSpec {
    CampaignSpec::builder("a100")
        .description("golden core-only campaign")
        .frequencies_mhz(&[705, 1095, 1410])
        .seed(7)
        .measurements(4, 8)
        .simulated_sms(Some(2))
        .build_unchecked()
}

fn mem_spec() -> CampaignSpec {
    CampaignSpec::builder("a100")
        .description("golden memory-plane campaign")
        .frequency_subset(3)
        .mem_frequencies_mhz(&[810, 1215])
        .seed(11)
        .device_index(1)
        .hostname("node-b")
        .rse_threshold(0.1)
        .simulated_sms(None)
        .workload("memory-bound")
        .build_unchecked()
}

fn completed_pair() -> PairMeasurement {
    let latencies = vec![1.25, 1.5, 1.375, 9.0];
    PairMeasurement {
        init: core(705),
        target: core(1410),
        outcome: PairOutcome::Completed(PairRun {
            init: core(705),
            target: core(1410),
            latencies_ms: latencies.clone(),
            ground_truth_ms: vec![1.2, 1.45, 1.4, 1.3],
            retries: 2,
            thermal_events: 1,
            final_rse: 0.04,
            final_bound_ms: 12.5,
        }),
        analysis: Some(PairAnalysis {
            inliers_ms: latencies[..3].to_vec(),
            outliers_ms: vec![9.0],
            n_clusters: 1,
            silhouette: None,
            raw: Summary::of(&latencies),
            filtered: Summary::of(&latencies[..3]),
            converged: true,
        }),
    }
}

fn campaign_result() -> CampaignResult {
    let freqs = [core(705), core(1410)]
        .into_iter()
        .map(|freq| {
            let iter_ns = Summary::of(&[100.0 + freq.core.0 as f64, 101.5, 99.25]);
            (freq, FreqCharacterization { freq, iter_ns })
        })
        .collect();
    let phase1 = Phase1Result {
        freqs,
        valid_pairs: vec![(core(705), core(1410)), (core(1410), core(705))],
        skipped_pairs: vec![(both(705, 810), both(705, 1215))],
    };
    let probe = ProbeResult {
        samples: vec![(core(705), core(1410), 2.5), (core(1410), core(705), 3.75)],
        max_latency_ms: 3.75,
    };
    let pairs = vec![
        completed_pair(),
        PairMeasurement {
            init: core(1410),
            target: core(705),
            outcome: PairOutcome::Cancelled,
            analysis: None,
        },
        PairMeasurement {
            init: both(1410, 810),
            target: both(705, 1215),
            outcome: PairOutcome::RetriesExhausted {
                measurements_before: 3,
                attempts: 5,
            },
            analysis: None,
        },
    ];
    CampaignResult::new("NVIDIA A100-SXM4-40GB".into(), 0, 7, phase1, probe, pairs)
}

fn run_ids() -> Vec<RunId> {
    vec![RunId::of_spec(&core_spec()), RunId::of_spec(&mem_spec())]
}

fn ledger() -> ShardLedger {
    ShardLedger {
        members: vec![
            MemberLedger {
                pairs_done: 6,
                pairs_total: 6,
                shards_done: 2,
                shards_total: 2,
            },
            MemberLedger {
                pairs_done: 5,
                pairs_total: 12,
                shards_done: 1,
                shards_total: 4,
            },
        ],
    }
}

#[test]
fn campaign_spec_shapes() {
    check("campaign_spec_core", &core_spec());
    check("campaign_spec_mem", &mem_spec());
    check("campaign_spec_default", &CampaignSpec::default());
}

#[test]
fn fleet_spec_shape() {
    let mut ladder = core_spec();
    ladder.frequencies = latest::core::spec::FreqSelection::Ladder;
    let fleet = FleetSpec::new()
        .description("golden fleet")
        .member(ladder)
        .member(mem_spec());
    check("fleet_spec", &fleet);
}

#[test]
fn spec_checkpoint_shape() {
    let checkpoint = SpecCheckpoint {
        spec: core_spec(),
        result: campaign_result(),
    };
    check_bytes("spec_checkpoint", &checkpoint);
}

#[test]
fn provenance_shape() {
    let provenance = Provenance {
        tool_version: "0.1.0".into(),
        device_name: "NVIDIA A100-SXM4-40GB".into(),
        device_index: 0,
        hostname: "simnode".into(),
        seed: 7,
        pairs_total: 6,
        pairs_completed: 5,
        description: "golden provenance".into(),
    };
    check("provenance", &provenance);
}

#[test]
fn pair_measurement_shape() {
    check_bytes("pair_measurement", &completed_pair());
}

#[test]
fn job_state_shapes() {
    check("job_state_queued", &JobState::Queued);
    check("job_state_running", &JobState::Running);
    check(
        "job_state_done",
        &JobState::Done {
            run_ids: run_ids(),
            via: CompletionVia::Coalesced,
        },
    );
    check(
        "job_state_failed",
        &JobState::Failed {
            error: "campaign runtime error: device lost".into(),
        },
    );
    check("job_state_cancelled", &JobState::Cancelled);
    for (via, name) in [
        (CompletionVia::Executed, "executed"),
        (CompletionVia::Cache, "cache"),
    ] {
        let state = JobState::Done {
            run_ids: vec![],
            via,
        };
        let text = serde_json::to_string(&state).unwrap();
        assert_eq!(
            text,
            format!(r#"{{"state":"done","run_ids":[],"via":"{name}"}}"#)
        );
        assert_eq!(serde_json::from_str::<JobState>(&text).unwrap(), state);
    }
}

#[test]
fn ledger_shapes() {
    check("member_ledger", &ledger().members[1]);
    check("shard_ledger", &ledger());
}

#[test]
fn journal_entry_shape() {
    let job = Job {
        id: JobId(42),
        priority: -3,
        force: true,
        spec: latest::core::spec::ScenarioSpec::Campaign(core_spec()),
        state: JobState::Done {
            run_ids: run_ids(),
            via: CompletionVia::Executed,
        },
        ledger: Some(ledger()),
    };
    check("job", &job);
}

#[test]
fn traffic_shapes() {
    let shapes = [
        TrafficShape::Steady { rate_hz: 60.0 },
        TrafficShape::Bursty {
            burst_rate_hz: 150.0,
            gap_rate_hz: 0.0,
            burst_ms: 260.0,
            gap_ms: 420.5,
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
    for shape in &shapes {
        check(&format!("traffic_shape_{}", shape.kind()), shape);
    }
    let spec = TrafficSpec {
        name: "golden-bursty".into(),
        description: "golden traffic spec".into(),
        shape: shapes[1].clone(),
        duration_ms: 2_500.0,
        seed: 9,
        work_ms: 4.0,
        work_jitter: 0.1,
        deadline_slack: Some(6.0),
    };
    check("traffic_spec", &spec);
    check("traffic_spec_default", &TrafficSpec::default());
}

/// The parse rules the derives carry besides the bytes: defaults for
/// absent keys, mandatory keys, validated run ids and closed tag sets.
#[test]
fn parse_rules_hold() {
    let fleet = FleetSpec::from_json(r#"{"members": []}"#).unwrap();
    assert_eq!(fleet.description, "");
    let err = FleetSpec::from_json(r#"{"description": "no members"}"#).unwrap_err();
    assert!(err.to_string().contains("missing field `members`"), "{err}");
    let spec = CampaignSpec::from_json(r#"{"seed": 5}"#).unwrap();
    assert_eq!(
        spec,
        CampaignSpec {
            seed: 5,
            ..CampaignSpec::default()
        }
    );

    let id: RunId = serde_json::from_str(r#""run-ED86F01976FA04680146E8FDD3C32491""#).unwrap();
    assert_eq!(id.as_str(), "run-ed86f01976fa04680146e8fdd3c32491");
    let err = serde_json::from_str::<JobState>(
        r#"{"state": "done", "run_ids": ["run-1"], "via": "cache"}"#,
    )
    .unwrap_err();
    assert!(
        err.to_string().contains("malformed run id \"run-1\""),
        "{err}"
    );
    for bad in [
        r#"{"state": "paused"}"#,
        r#"{"state": "done", "run_ids": [], "via": "Cache"}"#,
    ] {
        assert!(serde_json::from_str::<JobState>(bad).is_err(), "{bad}");
    }
    let err = TrafficSpec::from_json(r#"{"shape": {"kind": "sawtooth"}}"#).unwrap_err();
    assert!(err.to_string().contains("`sawtooth`"), "{err}");
}
