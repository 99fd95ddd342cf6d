//! `govern_replay`: fit the latency predictor over an archive, then replay
//! every builtin traffic shape under every daemon policy, on the measured
//! and on the predicted latency table.
//!
//! Set-up archives the `predict_ladder` campaign at two seeds; the timed
//! pass never runs the simulator or the queue. Traffic generation, the
//! daemon loop, its power integration and the predictor do all the work.
//! The pass reads both archived runs back; their accepted latencies against
//! the simulator's ground truth are the workload's accuracy figures.

use std::path::{Path, PathBuf};
use std::time::Instant;

use latest::core::{CampaignSession, CampaignSpec, ResultStore};
use latest::governor::{
    make_policy, replay_seed, scorecards_to_json, DaemonConfig, GovernorDaemon, LatencyTable,
    PowerModel, Scorecard, TransitionReplay, ZoneLadder, POLICY_NAMES,
};
use latest::predict::{build_corpora, cross_validate, PredictModel, PredictedTable};
use latest::traffic::TrafficRegistry;

use crate::campaign::errors_vs_truth;
use crate::stats::mix;
use crate::trace::{Layers, Tracer};
use crate::Pass;

/// The seed of `scenarios/predict_ladder.json`.
pub const DEFAULT_SEED: u64 = 21;
/// Traffic seeds per pass. One replay of the five shapes under every
/// policy takes milliseconds, so a pass replays many seeds of each.
const TRAFFIC_SEEDS: u64 = 200;
/// Cross-validation folds (the `latest predict validate` default).
const FOLDS: usize = 5;
/// Relative interval width above which a prediction is withheld (the
/// `latest govern run --predicted` default).
const GATE: f64 = 0.5;

/// `scenarios/predict_ladder.json` at `seed`.
fn predict_ladder_spec(seed: u64) -> Result<CampaignSpec, String> {
    CampaignSpec::builder("a100")
        .frequencies_mhz(&[540, 705, 1095, 1410])
        .seed(seed)
        .rse_threshold(0.5)
        .measurements(6, 10)
        .build()
        .map_err(|e| format!("predict_ladder spec: {e}"))
}

pub struct GovernReplay {
    seed: u64,
    root: PathBuf,
    setups: usize,
    store: Option<ResultStore>,
    /// The archived campaigns; the first one's run is the measured table.
    specs: Vec<CampaignSpec>,
}

impl GovernReplay {
    pub fn new(seed: u64, root: &Path) -> Self {
        GovernReplay {
            seed,
            root: root.to_path_buf(),
            setups: 0,
            store: None,
            specs: Vec::new(),
        }
    }
}

/// One latency table with its policies and daemon.
struct Arm {
    table: LatencyTable,
    daemon: GovernorDaemon,
    policies: Vec<Box<dyn latest::governor::DaemonPolicy>>,
}

impl Arm {
    fn new(label: &'static str, table: LatencyTable) -> Result<Arm, String> {
        let ladder =
            ZoneLadder::from_table(&table).ok_or(format!("the {label} latency table is empty"))?;
        let daemon =
            GovernorDaemon::new(DaemonConfig::default(), PowerModel::sxm_class(ladder.max()));
        let policies = POLICY_NAMES
            .iter()
            .map(|name| make_policy(name, &table))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Arm {
            table,
            daemon,
            policies,
        })
    }
}

impl crate::Workload for GovernReplay {
    /// Archive `predict_ladder` at the workload seed and the next one into
    /// a fresh store.
    fn setup(&mut self) -> Result<(), String> {
        let dir = self.root.join(format!("store-{}", self.setups));
        self.setups += 1;
        let store = ResultStore::open(&dir).map_err(|e| format!("opening store: {e}"))?;
        self.specs = vec![
            predict_ladder_spec(self.seed)?,
            predict_ladder_spec(self.seed.wrapping_add(1))?,
        ];
        for spec in &self.specs {
            let config = spec.resolve().map_err(|e| format!("resolving: {e}"))?;
            let result = CampaignSession::new(config)
                .run()
                .map_err(|e| format!("campaign: {e}"))?;
            store
                .put(spec, &result)
                .map_err(|e| format!("archiving: {e}"))?;
        }
        self.store = Some(store);
        Ok(())
    }

    fn pass(&mut self, traced: bool) -> Result<Pass, String> {
        let store = self.store.as_ref().ok_or("internal: pass before setup")?;
        let tracer = Tracer::new(traced);
        let start = Instant::now();

        let corpora = tracer
            .span("predict.corpus", || build_corpora(store, None))
            .map_err(|e| format!("building the corpus: {e}"))?;
        let [corpus] = corpora.as_slice() else {
            return Err(format!("expected one corpus, got {}", corpora.len()));
        };
        let model = tracer
            .span("predict.fit", || PredictModel::fit(corpus))
            .map_err(|e| format!("fitting: {e}"))?;
        let report = tracer
            .span("predict.validate", || cross_validate(corpus, FOLDS))
            .map_err(|e| format!("validating: {e}"))?;
        let predicted = tracer.span("predict.table", || {
            PredictedTable::over(&model, &model.grid_freqs_mhz, GATE).to_latency_table()
        });
        let mut runs = Vec::new();
        for spec in &self.specs {
            let run = tracer
                .span("store.get", || store.latest_for(spec))
                .map_err(|e| format!("reading the archive: {e}"))?
                .ok_or("an archived run is missing")?;
            runs.push(run.result);
        }
        let arms = tracer.span("governor.table", || {
            let (measured, _skipped) = LatencyTable::from_campaign_counting(&runs[0]);
            Ok::<_, String>([
                Arm::new("measured", measured)?,
                Arm::new("predicted", predicted)?,
            ])
        })?;

        let registry = TrafficRegistry::builtin();
        let mut cards: Vec<Scorecard> = Vec::new();
        let mut replay_ms = Vec::new();
        let (mut requests, mut failed) = (0, 0);
        for i in 0..TRAFFIC_SEEDS {
            for base in registry.specs() {
                let mut traffic = base.clone();
                traffic.seed = mix(self.seed, i);
                let trace = match tracer.span("traffic.generate", || traffic.generate()) {
                    Ok(trace) => trace,
                    Err(e) => {
                        eprintln!("traffic {} seed {}: {e}", traffic.name, traffic.seed);
                        failed += arms.iter().map(|a| a.policies.len()).sum::<usize>();
                        continue;
                    }
                };
                for arm in &arms {
                    for policy in &arm.policies {
                        let seed = replay_seed(traffic.seed, policy.name(), &trace.name);
                        let t = Instant::now();
                        let card = tracer.span("governor.replay", || {
                            let mut replay = TransitionReplay::new(arm.table.clone(), seed);
                            arm.daemon.run(policy.as_ref(), &trace, &mut replay, seed)
                        });
                        replay_ms.push(t.elapsed().as_secs_f64() * 1e3);
                        requests += card.requests;
                        cards.push(card);
                    }
                }
            }
        }
        let wall_s = start.elapsed().as_secs_f64();

        // Summed over both tables and every traffic seed.
        let total = |policy: &str, traffic: Option<&str>, f: fn(&Scorecard) -> f64| -> f64 {
            cards
                .iter()
                .filter(|c| c.policy == policy && traffic.is_none_or(|t| c.traffic == t))
                .map(f)
                .sum()
        };
        let output = format!("{}\n{}", scorecards_to_json(&cards), report.to_json());
        let mut errors_ms = Vec::new();
        let mut nan = 0;
        for run in &runs {
            let (e, n) = errors_vs_truth(run);
            errors_ms.extend(e);
            nan += n;
        }

        let mut layers = Layers::new();
        if traced {
            for (span, metric) in [
                ("predict.corpus", "predict.corpus_ms"),
                ("predict.fit", "predict.fit_ms"),
                ("predict.validate", "predict.validate_ms"),
                ("predict.table", "predict.table_ms"),
                ("store.get", "store.get_ms"),
                ("governor.table", "governor.table_ms"),
                ("governor.replay", "governor.replay_ms"),
                ("traffic.generate", "traffic.generate_ms"),
            ] {
                layers.insert(metric, tracer.total_ms(span));
            }
            layers.insert("predict.mape", report.mape);
            layers.insert("predict.mae_ms", report.mae_ms);
            layers.insert("core.nan_ground_truth", nan as f64);
            layers.insert("traffic.requests", requests as f64);
            layers.insert(
                "governor.switches",
                cards.iter().map(|c| c.switches as f64).sum(),
            );
            layers.insert(
                "governor.time_in_switch_ms",
                cards.iter().map(|c| c.time_in_switch_ms).sum(),
            );
            let missed = |c: &Scorecard| c.missed_deadlines as f64;
            layers.insert(
                "governor.deadline_miss_ratio",
                total("latency-aware", None, missed)
                    / total("latency-aware", None, |c| c.with_deadline as f64),
            );
            // Latency-aware is meant to miss no more deadlines than
            // latency-oblivious on bursty traffic. On these A100 tables it
            // misses more (`latest govern run bursty --compare` shows the
            // same), so the excess is reported as a count, not gated on.
            layers.insert(
                "governor.aware_excess_misses",
                total("latency-aware", Some("bursty"), missed)
                    - total("latency-oblivious", Some("bursty"), missed),
            );
        }
        Ok(Pass {
            wall_s,
            items: requests,
            attempted: replay_ms.len() + failed,
            failed,
            item_ms: replay_ms,
            digest: crate::digest(&output),
            errors_ms,
            layers,
            spans: tracer.take_spans(),
        })
    }
}
