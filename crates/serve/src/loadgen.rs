//! Synthetic multi-link traffic generation.
//!
//! A [`LoadGenerator`] turns a list of [`SessionSpec`]s into a ready-to-run
//! [`Workload`]: it validates every spec up front (no compute is spent on a
//! workload with an invalid cell), generates **one campaign per distinct
//! scenario spec** through the scenario registry (sessions of the same
//! environment share it behind an `Arc`), fits every session's estimator on
//! its combination's training sets, and resolves every VVD training through
//! **one shared content-addressed model cache** — so the hundreds of
//! sessions of a load run that share training provenance hold `Arc`-clones
//! of a single network.  That sharing is what the engine's planner exploits:
//! same-model sessions coalesce into one batched forward pass per tick.

use crate::session::{LinkSession, SessionSpec};
use crate::store::SessionStore;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use vvd_channel::scenario::SpecParseError;
use vvd_estimation::estimator::{TrainingContext, VvdModelPool};
use vvd_estimation::registry::SpecError;
use vvd_estimation::{spec_label, EstimatorRegistry, ModelCache};
use vvd_testbed::stream::training_cirs;
use vvd_testbed::stream::CombinationDatasets;
use vvd_testbed::{combinations_for, Campaign, EvalConfig};

/// A workload failed to validate before anything was generated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeSpecError {
    /// A scenario spec was rejected by the scenario registry.
    Scenario(SpecParseError),
    /// An estimator spec was rejected by the estimator registry.
    Estimator(SpecError),
    /// A structural problem with a session spec (bad interval or
    /// combination index), described in plain text.
    Session(String),
}

impl fmt::Display for ServeSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeSpecError::Scenario(e) => write!(f, "{e}"),
            ServeSpecError::Estimator(e) => write!(f, "{e}"),
            ServeSpecError::Session(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ServeSpecError {}

impl From<SpecParseError> for ServeSpecError {
    fn from(e: SpecParseError) -> Self {
        ServeSpecError::Scenario(e)
    }
}

impl From<SpecError> for ServeSpecError {
    fn from(e: SpecError) -> Self {
        ServeSpecError::Estimator(e)
    }
}

/// A fully built, ready-to-serve workload.
pub struct Workload {
    /// The sessions, fitted and sharded-ready.
    pub store: SessionStore,
    /// The model cache shared by every session's training (its counters
    /// end up in the serve report).
    pub cache: ModelCache,
    /// The distinct campaigns, keyed by their scenario spec (in spec
    /// order).  A campaign's index here is its *slot*, which keys the
    /// engine's synthesis memo.
    pub campaigns: Vec<(String, Arc<Campaign>)>,
}

/// Builds [`Workload`]s from session specs.
#[derive(Clone)]
pub struct LoadGenerator {
    config: EvalConfig,
    prebuilt: BTreeMap<String, Arc<Campaign>>,
}

impl LoadGenerator {
    /// A generator over the given campaign configuration.
    pub fn new(config: EvalConfig) -> Self {
        LoadGenerator {
            config,
            prebuilt: BTreeMap::new(),
        }
    }

    /// The campaign configuration.
    pub fn config(&self) -> &EvalConfig {
        &self.config
    }

    /// Pre-seeds the campaign for a scenario spec, so repeated builds over
    /// the same environment (property tests, benches) skip regeneration.
    /// The campaign must have been generated from this generator's
    /// configuration and the given spec — the builder trusts the caller
    /// here.
    pub fn with_campaign(mut self, spec: impl Into<String>, campaign: Arc<Campaign>) -> Self {
        self.prebuilt.insert(spec.into(), campaign);
        self
    }

    /// Validates session specs without generating anything: scenario and
    /// estimator specs must parse, intervals must be non-zero, combination
    /// indices must be in range for this generator's configuration.
    ///
    /// [`build`](Self::build) performs exactly this validation before
    /// spending compute; the cross-process coordinator (`vvd-net`) calls it
    /// up front so an invalid workload is rejected before any worker
    /// process is spawned.
    ///
    /// # Errors
    /// Returns the first invalid scenario/estimator spec, zero interval or
    /// out-of-range combination index.
    pub fn validate(&self, specs: &[SessionSpec]) -> Result<(), ServeSpecError> {
        let registry = EstimatorRegistry::new();
        let scenario_registry =
            vvd_channel::scenario::ScenarioRegistry::new().with_cir_config(self.config.cir);
        let combos = combinations_for(self.config.n_sets, self.config.n_combinations);
        for spec in specs {
            registry.build(&spec.estimator)?;
            scenario_registry.build(&spec.scenario)?;
            if spec.interval_ticks == 0 {
                return Err(ServeSpecError::Session(format!(
                    "session `{}`/`{}` has a zero arrival interval",
                    spec.scenario, spec.estimator
                )));
            }
            if spec.combination >= combos.len() {
                return Err(ServeSpecError::Session(format!(
                    "combination index {} out of range (the configuration has {})",
                    spec.combination,
                    combos.len()
                )));
            }
        }
        Ok(())
    }

    /// Builds the workload: validate everything, generate one campaign per
    /// distinct scenario, fit every estimator (sharing trainings through
    /// one model cache), wire up the sessions.
    ///
    /// # Errors
    /// Returns the first invalid scenario/estimator spec, zero interval or
    /// out-of-range combination index — before any campaign is generated.
    pub fn build(&self, specs: &[SessionSpec]) -> Result<Workload, ServeSpecError> {
        let assigned: Vec<(usize, SessionSpec)> = specs.iter().cloned().enumerate().collect();
        self.build_assigned(&assigned, ModelCache::new())
    }

    /// Builds a workload over an explicitly identified session subset — the
    /// cross-process form of [`build`](Self::build).
    ///
    /// Each entry carries the session's *workload-global* id alongside its
    /// spec: a worker process building `[(1, a), (5, b)]` produces sessions
    /// whose ids, labels and traces are bit-identical to sessions 1 and 5
    /// of the full single-process build, so a coordinator can merge
    /// per-worker traces back into one report indistinguishable from the
    /// in-process run.  The caller supplies the model cache (workers attach
    /// the shared on-disk layer here, so same-provenance models train once
    /// cluster-wide).
    ///
    /// # Errors
    /// Same validation as [`build`](Self::build), over the subset.
    pub fn build_assigned(
        &self,
        assigned: &[(usize, SessionSpec)],
        cache: ModelCache,
    ) -> Result<Workload, ServeSpecError> {
        let subset: Vec<SessionSpec> = assigned.iter().map(|(_, s)| s.clone()).collect();
        self.validate(&subset)?;
        // Ids must be strictly increasing: the report assembler and the
        // checkpoint/resume machinery both index sessions by id order, so a
        // duplicated or shuffled assignment is a structural spec error.
        if let Some(pair) = assigned.windows(2).find(|pair| pair[1].0 <= pair[0].0) {
            return Err(ServeSpecError::Session(format!(
                "assigned session ids must be strictly increasing (got {} after {})",
                pair[1].0, pair[0].0
            )));
        }
        let registry = EstimatorRegistry::new();
        let combos = combinations_for(self.config.n_sets, self.config.n_combinations);

        // One campaign per distinct scenario spec; generation itself
        // validates the spec against the scenario registry.
        let mut campaigns: BTreeMap<String, Arc<Campaign>> = self.prebuilt.clone();
        for (_, spec) in assigned {
            if !campaigns.contains_key(&spec.scenario) {
                let campaign = Campaign::generate_spec(&self.config, &spec.scenario)?;
                campaigns.insert(spec.scenario.clone(), Arc::new(campaign));
            }
        }

        // Fit phase: sequential in session-id order (training through the
        // shared cache is deterministic, and same-provenance sessions after
        // the first are cache hits).
        let mut sessions = Vec::with_capacity(assigned.len());
        for (id, spec) in assigned {
            let (id, spec) = (*id, spec);
            let campaign = Arc::clone(&campaigns[&spec.scenario]);
            // The campaign's slot is its index in `Workload::campaigns`.
            let campaign_slot = campaigns
                .keys()
                .position(|scenario| *scenario == spec.scenario)
                .expect("every session's campaign was generated above");
            let combination = combos[spec.combination].clone();
            let cirs = training_cirs(&campaign, &combination);
            let source = CombinationDatasets::new(&campaign, &combination);
            let pool = VvdModelPool::with_cache(&self.config.vvd, &source, &cache);
            let mut estimator = registry.build(&spec.estimator)?;
            estimator.fit(&TrainingContext::new(&cirs).with_vvd(&pool));

            sessions.push(LinkSession::new(
                id,
                spec.scenario.clone(),
                spec_label(&spec.estimator),
                campaign,
                campaign_slot,
                combination,
                estimator,
                self.config.kalman_warmup_packets,
                spec.interval_ticks,
                spec.offset_ticks,
            ));
        }

        Ok(Workload {
            store: SessionStore::new(sessions),
            cache,
            campaigns: campaigns.into_iter().collect(),
        })
    }
}

/// A convenience mixed workload: `n` sessions cycling through the given
/// scenario and estimator spec lists, with heterogeneous arrival intervals
/// (1, 2 and 3 ticks) and staggered start offsets.
///
/// This is the canonical "many concurrent links" shape used by the serve
/// bench and the examples: sessions sharing a scenario share a campaign,
/// sessions sharing a VVD head share a trained network, and the interval
/// mix makes every tick's batch composition different.
///
/// Scenarios advance in blocks of two (`(i / 2) % scenarios.len()`) while
/// estimators advance every session: each estimator family is paired with
/// *every* scenario as `i` grows, so same-provenance models span the
/// round-robin worker partition and a cluster's shared disk cache is
/// actually exercised (strict per-index alternation would pin each
/// estimator family to one scenario whenever the list lengths share a
/// factor, privatising every model to a single worker).
pub fn mixed_session_specs(n: usize, scenarios: &[&str], estimators: &[&str]) -> Vec<SessionSpec> {
    assert!(
        !scenarios.is_empty() && !estimators.is_empty(),
        "mixed_session_specs needs at least one scenario and one estimator"
    );
    (0..n)
        .map(|i| {
            SessionSpec::new(
                scenarios[(i / 2) % scenarios.len()],
                estimators[i % estimators.len()],
            )
            .every((i % 3 + 1) as u64)
            .offset((i % 5) as u64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invalid_specs_fail_before_generation() {
        let gen = LoadGenerator::new(EvalConfig::smoke());
        let bad_estimator = [SessionSpec::new("paper", "nonsense")];
        assert!(matches!(
            gen.build(&bad_estimator),
            Err(ServeSpecError::Estimator(_))
        ));
        let bad_scenario = [SessionSpec::new("warp-drive", "standard")];
        assert!(matches!(
            gen.build(&bad_scenario),
            Err(ServeSpecError::Scenario(_))
        ));
        let bad_interval = [SessionSpec::new("paper", "standard").every(0)];
        assert!(matches!(
            gen.build(&bad_interval),
            Err(ServeSpecError::Session(_))
        ));
        let bad_combo = [SessionSpec::new("paper", "standard").combination(99)];
        assert!(matches!(
            gen.build(&bad_combo),
            Err(ServeSpecError::Session(_))
        ));
    }

    #[test]
    fn assigned_ids_must_be_strictly_increasing() {
        let gen = LoadGenerator::new(EvalConfig::smoke());
        let spec = SessionSpec::new("paper", "standard");
        for bad in [
            vec![(1, spec.clone()), (1, spec.clone())],
            vec![(2, spec.clone()), (0, spec.clone())],
        ] {
            assert!(matches!(
                gen.build_assigned(&bad, ModelCache::new()),
                Err(ServeSpecError::Session(_))
            ));
        }
    }

    #[test]
    fn mixed_specs_cycle_and_stagger() {
        let specs = mixed_session_specs(7, &["paper", "rayleigh:doppler=10"], &["ground-truth"]);
        assert_eq!(specs.len(), 7);
        assert_eq!(specs[0].scenario, "paper");
        assert_eq!(specs[1].scenario, "paper");
        assert_eq!(specs[2].scenario, "rayleigh:doppler=10");
        assert_eq!(specs[4].scenario, "paper");
        assert!(specs.iter().all(|s| s.interval_ticks >= 1));
        assert!(specs
            .iter()
            .any(|s| s.interval_ticks != specs[0].interval_ticks));
    }
}
