//! Exhaustively evaluated configuration datasets.
//!
//! The paper's methodology evaluates tuners *against a fixed dataset*: the
//! full parameter sweep is measured once, and every tuner's "evaluate the
//! true objective" step is a lookup. [`Dataset`] reproduces that: it holds
//! every feasible configuration of a space together with its objective
//! value, generated deterministically from an analytic model plus hash-
//! seeded noise (so the exhaustive best is a fixed, reproducible value).

use hiperbot_perfsim::faults::{FaultModel, SimOutcome};
use hiperbot_perfsim::noise::lognormal_factor;
use hiperbot_space::{Configuration, ParameterSpace, PoolCodes};

/// A fully evaluated parameter sweep: the substitute for the paper's
/// measured datasets.
///
/// A row is its configuration's mixed-radix code
/// ([`ParameterSpace::index_of`]) and its objective: 16 bytes, whatever the
/// arity. Rows are kept in code order — the order of
/// [`ParameterSpace::enumerate`] — so a lookup computes the code and
/// binary-searches it, and [`config`](Self::config) rebuilds a row's
/// configuration from its code ([`ParameterSpace::config_at`]). No
/// configuration is stored.
#[derive(Debug, Clone)]
pub struct Dataset {
    name: String,
    objective_label: String,
    space: ParameterSpace,
    /// Code of each row: the row lookup and the row's configuration.
    codes: PoolCodes,
    objectives: Vec<f64>,
}

impl Dataset {
    /// Generates a dataset by evaluating `model` on every feasible
    /// configuration of `space`, multiplying each value by deterministic
    /// lognormal noise of scale `noise_sigma` keyed on `(seed, row)`.
    ///
    /// One serial [`walk`](ParameterSpace::walk) of the space yields each
    /// row's code, and `model` runs on the configuration the walk lends,
    /// so no configuration is copied. The walk skips the product members
    /// below a prefix that fails a constraint declared on it
    /// ([`SpaceBuilder::constraint_within`](hiperbot_space::SpaceBuilder::constraint_within)),
    /// so the build costs the feasible members plus one test per prefix.
    /// `model` runs once per row, in row (code) order, so it may carry
    /// work from one row to the next: `kripke::energy_dataset` computes
    /// what a five-parameter prefix decides once for all its power caps.
    /// The columns are sized once, to the product's cardinality, and
    /// shrunk to the member count at the end: a build makes the same few
    /// allocations whatever its row count.
    ///
    /// # Panics
    /// Panics if the space has continuous parameters or no feasible
    /// configuration, or the model returns a non-positive objective.
    pub fn generate(
        name: impl Into<String>,
        objective_label: impl Into<String>,
        space: ParameterSpace,
        seed: u64,
        noise_sigma: f64,
        mut model: impl FnMut(&Configuration, &ParameterSpace) -> f64,
    ) -> Self {
        let bound = space
            .product_cardinality()
            .expect("enumeration requires a fully discrete space");
        // Capacity past the last member is never written.
        let mut codes = Vec::with_capacity(bound);
        let mut objectives = Vec::with_capacity(bound);
        {
            let mut walk = space.walk();
            while let Some((code, cfg)) = walk.next_member() {
                let clean = model(cfg, &space);
                assert!(
                    clean.is_finite() && clean > 0.0,
                    "model produced a non-positive objective for {cfg:?}"
                );
                let row = objectives.len() as u64;
                codes.push(code);
                objectives.push(clean * lognormal_factor(&[seed, row], noise_sigma));
            }
        }
        assert!(!codes.is_empty(), "space has no feasible configurations");
        codes.shrink_to_fit();
        objectives.shrink_to_fit();
        Self {
            name: name.into(),
            objective_label: objective_label.into(),
            space,
            codes: PoolCodes::new(codes).expect("a walk's codes ascend"),
            objectives,
        }
    }

    /// Builds a dataset from an explicit (configuration, objective) table,
    /// stored in code order: the rows are sorted once by code, so row
    /// positions follow [`ParameterSpace::enumerate`] whatever the input
    /// order was. Only each row's code is kept.
    ///
    /// # Panics
    /// Panics if lengths differ, the table is empty, it contains duplicate
    /// configurations, or a configuration has no code: a dataset is an
    /// exhaustive sweep, so its space must be fully discrete and every row
    /// a member of it.
    pub fn from_table(
        name: impl Into<String>,
        objective_label: impl Into<String>,
        space: ParameterSpace,
        configs: Vec<Configuration>,
        objectives: Vec<f64>,
    ) -> Self {
        assert_eq!(configs.len(), objectives.len(), "table length mismatch");
        assert!(!configs.is_empty(), "empty dataset");
        let mut rows: Vec<(usize, f64)> = configs
            .iter()
            .zip(objectives)
            .map(|(cfg, y)| match space.index_of(cfg) {
                Some(code) => (code, y),
                None => panic!("configuration without a code in this space: {cfg:?}"),
            })
            .collect();
        rows.sort_unstable_by_key(|row| row.0);
        let (codes, objectives): (Vec<usize>, Vec<f64>) = rows.into_iter().unzip();
        Self {
            name: name.into(),
            objective_label: objective_label.into(),
            space,
            codes: PoolCodes::new(codes).expect("duplicate configuration in dataset"),
            objectives,
        }
    }

    /// Dataset name (e.g. `"kripke-exec"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Human-readable objective label (e.g. `"Execution time (s)"`).
    pub fn objective_label(&self) -> &str {
        &self.objective_label
    }

    /// The parameter space the dataset sweeps.
    pub fn space(&self) -> &ParameterSpace {
        &self.space
    }

    /// Number of configurations.
    pub fn len(&self) -> usize {
        self.objectives.len()
    }

    /// Whether the dataset is empty (never true for a constructed one).
    pub fn is_empty(&self) -> bool {
        self.objectives.is_empty()
    }

    /// Every row's configuration, rebuilt from its code, in table (code)
    /// order: the pool for callers that take the rows as a slice, such as
    /// `ConfigSelector::select` in `hiperbot-baselines`. Allocates one
    /// configuration per row, so hold the list only for the call that
    /// needs it.
    pub fn to_configs(&self) -> Vec<Configuration> {
        (0..self.len()).map(|i| self.config(i)).collect()
    }

    /// All objective values, by table position.
    pub fn objectives(&self) -> &[f64] {
        &self.objectives
    }

    /// Every row's code ([`ParameterSpace::index_of`]), by table position.
    pub fn codes(&self) -> &PoolCodes {
        &self.codes
    }

    /// The configuration at table position `i`, rebuilt from its code.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn config(&self, i: usize) -> Configuration {
        self.space.config_at(self.codes.as_slice()[i])
    }

    /// The objective at table position `i`.
    pub fn objective(&self, i: usize) -> f64 {
        self.objectives[i]
    }

    /// Looks up the table position of a configuration: its code, found by
    /// binary search. `None` for a configuration not in the dataset.
    pub fn position(&self, cfg: &Configuration) -> Option<usize> {
        self.codes.position(&self.space, cfg)
    }

    /// Evaluates the "true objective" for `cfg` — the lookup that stands in
    /// for running the application (paper §IV-A: tuners are evaluated
    /// against pre-collected sweeps).
    ///
    /// # Panics
    /// Panics if `cfg` is not in the dataset (i.e. infeasible).
    pub fn evaluate(&self, cfg: &Configuration) -> f64 {
        match self.position(cfg) {
            Some(i) => self.objectives[i],
            None => panic!("configuration not in dataset (infeasible?): {cfg:?}"),
        }
    }

    /// Evaluates `cfg` under a fault model: attempt `attempt` (0-based)
    /// of this configuration may crash (transient — a retry redraws) or
    /// time out (when the looked-up objective exceeds the model's
    /// threshold; deterministic, so retries are futile). The fault draw is
    /// keyed on the configuration's table position, making a full tuning
    /// run — failures and retries included — reproducible from the seeds.
    /// With [`FaultModel::none`] this is `Completed(evaluate(cfg))`.
    ///
    /// # Panics
    /// Panics if `cfg` is not in the dataset (i.e. infeasible).
    pub fn evaluate_outcome(
        &self,
        cfg: &Configuration,
        faults: &FaultModel,
        attempt: u32,
    ) -> SimOutcome {
        match self.position(cfg) {
            Some(i) => faults.attempt_outcome(&[i as u64], attempt, self.objectives[i]),
            None => panic!("configuration not in dataset (infeasible?): {cfg:?}"),
        }
    }

    /// The exhaustive-best row: `(position, objective)` of the minimum.
    pub fn best(&self) -> (usize, f64) {
        self.objectives
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite objectives"))
            .map(|(i, &v)| (i, v))
            .expect("non-empty dataset")
    }

    /// Objective value of the best `percentile` (0–1) configuration — the
    /// `y_ℓ` of the paper's Recall metric (eq. 11).
    pub fn percentile_value(&self, percentile: f64) -> f64 {
        hiperbot_stats::quantile(&self.objectives, percentile).expect("valid percentile")
    }

    /// Number of configurations with objective ≤ `threshold` — the
    /// denominator of both Recall metrics (eqs. 11–12).
    pub fn count_within(&self, threshold: f64) -> usize {
        self.objectives.iter().filter(|&&v| v <= threshold).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hiperbot_space::{Domain, ParamDef, ParamValue};
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn space() -> ParameterSpace {
        ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1, 2])))
            .param(ParamDef::new("b", Domain::discrete_ints(&[0, 1])))
            .build()
            .unwrap()
    }

    fn linear_model(cfg: &Configuration, _s: &ParameterSpace) -> f64 {
        1.0 + cfg.value(0).index() as f64 * 2.0 + cfg.value(1).index() as f64
    }

    #[test]
    fn generation_covers_the_feasible_space() {
        let d = Dataset::generate("t", "time", space(), 1, 0.0, linear_model);
        assert_eq!(d.len(), 6);
        assert_eq!(d.to_configs().len(), d.objectives().len());
        assert_eq!(d.codes().len(), d.len());
    }

    #[test]
    fn zero_noise_matches_model_exactly() {
        let d = Dataset::generate("t", "time", space(), 1, 0.0, linear_model);
        for i in 0..d.len() {
            assert_eq!(d.objective(i), linear_model(&d.config(i), d.space()));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Dataset::generate("t", "time", space(), 7, 0.05, linear_model);
        let b = Dataset::generate("t", "time", space(), 7, 0.05, linear_model);
        assert_eq!(a.objectives(), b.objectives());
    }

    #[test]
    fn different_seeds_give_different_noise() {
        let a = Dataset::generate("t", "time", space(), 1, 0.05, linear_model);
        let b = Dataset::generate("t", "time", space(), 2, 0.05, linear_model);
        assert_ne!(a.objectives(), b.objectives());
    }

    #[test]
    fn best_is_the_minimum() {
        let d = Dataset::generate("t", "time", space(), 1, 0.0, linear_model);
        let (i, v) = d.best();
        assert_eq!(v, 1.0);
        assert_eq!(d.config(i), Configuration::from_indices(&[0, 0]));
        for j in 0..d.len() {
            assert!(d.objective(j) >= v);
        }
    }

    #[test]
    fn evaluate_looks_up_by_configuration() {
        let d = Dataset::generate("t", "time", space(), 1, 0.0, linear_model);
        let cfg = Configuration::from_indices(&[2, 1]);
        assert_eq!(d.evaluate(&cfg), 6.0);
    }

    #[test]
    #[should_panic(expected = "not in dataset")]
    fn evaluate_unknown_config_panics() {
        let d = Dataset::generate("t", "time", space(), 1, 0.0, linear_model);
        let _ = d.evaluate(&Configuration::from_indices(&[0]));
    }

    #[test]
    fn count_within_and_percentile() {
        let d = Dataset::generate("t", "time", space(), 1, 0.0, linear_model);
        // objectives: 1,2,3,4,5,6
        assert_eq!(d.count_within(3.0), 3);
        assert_eq!(d.count_within(0.5), 0);
        assert!((d.percentile_value(1.0) - 6.0).abs() < 1e-12);
        assert!((d.percentile_value(0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noise_perturbs_but_preserves_scale() {
        let clean = Dataset::generate("t", "time", space(), 3, 0.0, linear_model);
        let noisy = Dataset::generate("t", "time", space(), 3, 0.03, linear_model);
        for i in 0..clean.len() {
            let ratio = noisy.objective(i) / clean.objective(i);
            assert!(ratio > 0.85 && ratio < 1.18, "ratio {ratio}");
        }
    }

    #[test]
    fn fault_free_outcome_matches_plain_evaluation() {
        let d = Dataset::generate("t", "time", space(), 1, 0.0, linear_model);
        let m = FaultModel::none();
        for cfg in &d.to_configs() {
            assert_eq!(
                d.evaluate_outcome(cfg, &m, 0),
                SimOutcome::Completed(d.evaluate(cfg))
            );
        }
    }

    #[test]
    fn fault_outcomes_are_deterministic_and_mixed() {
        let d = Dataset::generate("t", "time", space(), 1, 0.0, linear_model);
        let m = FaultModel::new(9, 0.5);
        let first: Vec<SimOutcome> = d
            .to_configs()
            .iter()
            .map(|c| d.evaluate_outcome(c, &m, 0))
            .collect();
        let second: Vec<SimOutcome> = d
            .to_configs()
            .iter()
            .map(|c| d.evaluate_outcome(c, &m, 0))
            .collect();
        assert_eq!(first, second);
        assert!(first.iter().any(|o| o.is_completed()));
    }

    #[test]
    fn timeout_channel_uses_the_looked_up_objective() {
        let d = Dataset::generate("t", "time", space(), 1, 0.0, linear_model);
        // objectives span 1..=6; threshold 3.5 times out the slow half.
        let m = FaultModel::new(0, 0.0).with_timeout(3.5);
        let timed_out = d
            .to_configs()
            .iter()
            .filter(|c| d.evaluate_outcome(c, &m, 0) == SimOutcome::TimedOut)
            .count();
        assert_eq!(
            timed_out,
            d.count_within(f64::INFINITY) - d.count_within(3.5)
        );
        // Timeouts are retry-proof.
        let slow = d.config(d.len() - 1);
        assert_eq!(d.evaluate_outcome(&slow, &m, 5), SimOutcome::TimedOut);
    }

    fn constrained_space() -> ParameterSpace {
        ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1, 2, 3])))
            .param(ParamDef::new("b", Domain::discrete_ints(&[0, 1, 2])))
            .param(ParamDef::new("c", Domain::discrete_ints(&[0, 1])))
            .constraint("a + b != 3", |c, _| {
                c.value(0).index() + c.value(1).index() != 3
            })
            .build()
            .unwrap()
    }

    #[test]
    fn position_agrees_with_a_linear_scan() {
        let s = constrained_space();
        let d = Dataset::generate("t", "time", s.clone(), 1, 0.0, |c, _| {
            1.0 + c.value(0).index() as f64
        });
        let rows = d.to_configs();
        let scan = |cfg: &Configuration| rows.iter().position(|c| c == cfg);
        // Feasible members, infeasible members of the product, and
        // configurations outside the space.
        for i in 0..s.product_cardinality().unwrap() {
            let cfg = s.config_at(i);
            assert_eq!(d.position(&cfg), scan(&cfg), "{cfg:?}");
        }
        for cfg in [
            Configuration::from_indices(&[4, 0, 0]),
            Configuration::from_indices(&[0, 0]),
            Configuration::from_indices(&[0, 0, 0, 0]),
            Configuration::new(vec![
                ParamValue::Real(0.0),
                ParamValue::Index(0),
                ParamValue::Index(0),
            ]),
        ] {
            assert_eq!(d.position(&cfg), None);
            assert_eq!(scan(&cfg), None);
        }
    }

    #[test]
    fn rows_rebuild_the_walked_configurations() {
        let s = constrained_space();
        let d = Dataset::generate("t", "time", s.clone(), 1, 0.0, |c, _| {
            1.0 + c.value(2).index() as f64
        });
        let members = s.enumerate();
        assert_eq!(d.to_configs(), members);
        for (i, cfg) in members.iter().enumerate() {
            assert_eq!(d.codes().as_slice()[i], s.index_of(cfg).unwrap());
            assert_eq!(d.position(cfg), Some(i));
            assert_eq!(d.objective(i), 1.0 + cfg.value(2).index() as f64);
        }
    }

    #[test]
    fn from_table_finds_every_row_of_a_shuffled_table() {
        let s = constrained_space();
        let mut rows: Vec<(Configuration, f64)> = s
            .enumerate()
            .into_iter()
            .enumerate()
            .map(|(i, c)| (c, 1.0 + i as f64))
            .collect();
        rows.shuffle(&mut ChaCha8Rng::seed_from_u64(3));
        let (cfgs, ys): (Vec<_>, Vec<_>) = rows.iter().cloned().unzip();
        let d = Dataset::from_table("t", "time", s.clone(), cfgs, ys);
        assert_eq!(d.to_configs(), s.enumerate(), "rows are kept in code order");
        for (cfg, y) in &rows {
            let at = d.position(cfg).expect("every row is found");
            assert_eq!(&d.config(at), cfg);
            assert_eq!(d.objective(at), *y);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate configuration")]
    fn duplicate_rows_panic_wherever_they_sit() {
        let cfgs = vec![
            Configuration::from_indices(&[0, 0]),
            Configuration::from_indices(&[2, 1]),
            Configuration::from_indices(&[1, 0]),
            Configuration::from_indices(&[0, 0]),
        ];
        let _ = Dataset::from_table("t", "time", space(), cfgs, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "without a code")]
    fn from_table_rejects_rows_outside_the_space() {
        let cfgs = vec![Configuration::from_indices(&[3, 0])];
        let _ = Dataset::from_table("t", "time", space(), cfgs, vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "duplicate configuration")]
    fn duplicate_rows_panic() {
        let cfgs = vec![
            Configuration::from_indices(&[0, 0]),
            Configuration::from_indices(&[0, 0]),
        ];
        let _ = Dataset::from_table("t", "time", space(), cfgs, vec![1.0, 2.0]);
    }
}
