//! The [`ParameterSpace`]: definitions + feasibility constraints.

use crate::config::{Configuration, ParamValue};
use crate::param::{Domain, ParamDef};
use std::fmt;
use std::sync::Arc;

/// The predicate type a [`Constraint`] wraps.
type ConstraintFn = dyn Fn(&Configuration, &[ParamDef]) -> bool + Send + Sync;

/// A named feasibility predicate over configurations.
///
/// The measured datasets the paper uses were collected on real machines
/// where some parameter combinations are invalid (e.g. `ranks × threads`
/// exceeding a node's cores, or a group-set count that does not divide the
/// number of energy groups); those runs are simply absent, which is why the
/// datasets have non-product cardinalities. Constraints reproduce that.
///
/// A constraint may declare that the first `k` parameters decide it
/// ([`SpaceBuilder::constraint_within`]); a [`FeasibleWalk`] then tests it
/// once per distinct `k`-prefix instead of once per product member.
#[derive(Clone)]
pub struct Constraint {
    name: String,
    /// How many leading parameters decide the predicate; `None` when it
    /// may read the whole configuration.
    prefix: Option<usize>,
    predicate: Arc<ConstraintFn>,
}

impl Constraint {
    /// Creates a named constraint over whole configurations.
    pub fn new(
        name: impl Into<String>,
        predicate: impl Fn(&Configuration, &[ParamDef]) -> bool + Send + Sync + 'static,
    ) -> Self {
        Self {
            name: name.into(),
            prefix: None,
            predicate: Arc::new(predicate),
        }
    }

    /// The constraint's name (for diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Evaluates the predicate.
    pub fn is_satisfied(&self, cfg: &Configuration, defs: &[ParamDef]) -> bool {
        (self.predicate)(cfg, defs)
    }
}

impl fmt::Debug for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Constraint")
            .field("name", &self.name)
            .field("prefix", &self.prefix)
            .finish()
    }
}

/// Errors from [`SpaceBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpaceError {
    /// The space has no parameters.
    NoParameters,
    /// Two parameters share a name.
    DuplicateName(String),
    /// A discrete domain has no values.
    EmptyDomain(String),
    /// A discrete domain lists a value twice (as its text renders): two
    /// configurations would render the same command.
    DuplicateValue {
        /// The parameter's name.
        param: String,
        /// The repeated value.
        value: String,
    },
    /// A continuous domain has `lo >= hi`, a non-finite bound, or a width
    /// `hi - lo` that overflows to infinity.
    InvalidRange(String),
    /// A constraint declares a prefix of no parameters or of more
    /// parameters than the space has.
    InvalidPrefix {
        /// The constraint's name.
        constraint: String,
        /// The declared prefix length.
        prefix: usize,
        /// The space's parameter count.
        n_params: usize,
    },
}

impl fmt::Display for SpaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpaceError::NoParameters => write!(f, "parameter space has no parameters"),
            SpaceError::DuplicateName(n) => write!(f, "duplicate parameter name '{n}'"),
            SpaceError::EmptyDomain(n) => write!(f, "parameter '{n}' has an empty domain"),
            SpaceError::DuplicateValue { param, value } => {
                write!(f, "parameter '{param}' lists the value '{value}' twice")
            }
            SpaceError::InvalidRange(n) => {
                write!(f, "parameter '{n}' has an invalid continuous range")
            }
            SpaceError::InvalidPrefix {
                constraint,
                prefix,
                n_params,
            } => write!(
                f,
                "constraint '{constraint}' is declared on the first {prefix} parameters, \
                 but the space has {n_params}"
            ),
        }
    }
}

impl std::error::Error for SpaceError {}

/// Builder for [`ParameterSpace`].
///
/// Constraints come in two forms. [`constraint`](Self::constraint) takes a
/// predicate over whole configurations.
/// [`constraint_within`](Self::constraint_within) declares that the first
/// `k` parameters decide the predicate, which lets a [`FeasibleWalk`] test
/// it once per `k`-prefix and skip the members below a failing prefix;
/// put the parameters that constraints read first to gain from it. Both
/// forms define the same feasible set.
#[derive(Default)]
pub struct SpaceBuilder {
    params: Vec<ParamDef>,
    constraints: Vec<Constraint>,
}

impl SpaceBuilder {
    /// Adds a parameter.
    pub fn param(mut self, def: ParamDef) -> Self {
        self.params.push(def);
        self
    }

    /// Adds a feasibility constraint over whole configurations. A walk
    /// tests it on every product member that the declared-prefix
    /// constraints admit, in declaration order.
    pub fn constraint(
        mut self,
        name: impl Into<String>,
        predicate: impl Fn(&Configuration, &[ParamDef]) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.constraints.push(Constraint::new(name, predicate));
        self
    }

    /// Adds a feasibility constraint that the first `k` parameters decide.
    /// The predicate has the signature of [`constraint`](Self::constraint),
    /// but must read only values and definitions `0..k`: a walk hands it a
    /// `k`-long configuration and the first `k` definitions, so reading
    /// past them panics. `k` equal to the parameter count is the plain
    /// form; [`build`](Self::build) rejects `k = 0` and `k` past the
    /// parameter count with [`SpaceError::InvalidPrefix`].
    pub fn constraint_within(
        mut self,
        name: impl Into<String>,
        k: usize,
        predicate: impl Fn(&Configuration, &[ParamDef]) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.constraints.push(Constraint {
            prefix: Some(k),
            ..Constraint::new(name, predicate)
        });
        self
    }

    /// Validates and builds the space.
    pub fn build(self) -> Result<ParameterSpace, SpaceError> {
        if self.params.is_empty() {
            return Err(SpaceError::NoParameters);
        }
        let mut seen = std::collections::HashSet::new();
        for p in &self.params {
            if !seen.insert(p.name().to_string()) {
                return Err(SpaceError::DuplicateName(p.name().to_string()));
            }
            match p.domain() {
                Domain::Discrete(v) if v.is_empty() => {
                    return Err(SpaceError::EmptyDomain(p.name().to_string()))
                }
                Domain::Discrete(v) => {
                    let mut texts = std::collections::HashSet::new();
                    if let Some(dup) = v.iter().find(|x| !texts.insert(x.to_string())) {
                        return Err(SpaceError::DuplicateValue {
                            param: p.name().to_string(),
                            value: dup.to_string(),
                        });
                    }
                }
                // The width must be finite too: a draw scales it, and
                // every draw from a range whose width overflows is
                // infinite.
                Domain::Continuous { lo, hi }
                    if !(lo.is_finite() && hi.is_finite() && lo < hi && (hi - lo).is_finite()) =>
                {
                    return Err(SpaceError::InvalidRange(p.name().to_string()))
                }
                _ => {}
            }
        }
        let n = self.params.len();
        let mut staged = Vec::new();
        let mut whole = Vec::new();
        for c in self.constraints {
            match c.prefix {
                Some(k) if k == 0 || k > n => {
                    return Err(SpaceError::InvalidPrefix {
                        constraint: c.name,
                        prefix: k,
                        n_params: n,
                    })
                }
                Some(k) if k < n => staged.push((k, c)),
                _ => whole.push(c),
            }
        }
        // Shortest prefix first; the sort is stable, so ties keep their
        // declaration order.
        staged.sort_by_key(|&(k, _)| k);
        Ok(ParameterSpace {
            params: self.params,
            staged,
            whole,
        })
    }
}

/// An application's tunable parameter space (paper §III: `x = [x_1…x_n]`).
#[derive(Debug, Clone)]
pub struct ParameterSpace {
    params: Vec<ParamDef>,
    /// The constraints declared on a proper prefix of the parameters, with
    /// its length: shortest first, ties in declaration order.
    staged: Vec<(usize, Constraint)>,
    /// The constraints over whole configurations, in declaration order.
    whole: Vec<Constraint>,
}

impl ParameterSpace {
    /// Starts building a space.
    pub fn builder() -> SpaceBuilder {
        SpaceBuilder::default()
    }

    /// The parameter definitions, in configuration order.
    pub fn params(&self) -> &[ParamDef] {
        &self.params
    }

    /// Number of parameters `n`.
    pub fn n_params(&self) -> usize {
        self.params.len()
    }

    /// Looks up a parameter's position by name.
    pub fn param_index(&self, name: &str) -> Option<usize> {
        self.params.iter().position(|p| p.name() == name)
    }

    /// Whether every parameter is discrete (required for enumeration and
    /// for the Ranking selection strategy).
    pub fn is_fully_discrete(&self) -> bool {
        self.params.iter().all(|p| p.domain().is_discrete())
    }

    /// Whether `cfg` is a member of the unconstrained space: one value per
    /// parameter, of the domain's kind — a discrete index below the
    /// cardinality, or a finite continuous value within the bounds.
    /// Constraints are not evaluated (see [`is_feasible`](Self::is_feasible),
    /// which expects a member and may panic on anything else).
    pub fn contains(&self, cfg: &Configuration) -> bool {
        cfg.len() == self.params.len()
            && self
                .params
                .iter()
                .zip(cfg.values())
                .all(|(p, v)| match (p.domain(), *v) {
                    (Domain::Discrete(vals), ParamValue::Index(i)) => i < vals.len(),
                    // The builder keeps bounds finite, so NaN and ±inf fail.
                    (Domain::Continuous { lo, hi }, ParamValue::Real(r)) => {
                        (*lo..=*hi).contains(&r)
                    }
                    _ => false,
                })
    }

    /// Whether the space has any feasibility constraint; without one,
    /// every member is feasible.
    pub fn is_constrained(&self) -> bool {
        !(self.staged.is_empty() && self.whole.is_empty())
    }

    /// Whether `cfg` satisfies all feasibility constraints. Every predicate
    /// sees the whole configuration: the declared-prefix ones first,
    /// shortest prefix first, then the others in declaration order.
    pub fn is_feasible(&self, cfg: &Configuration) -> bool {
        self.staged
            .iter()
            .map(|(_, c)| c)
            .chain(&self.whole)
            .all(|c| c.is_satisfied(cfg, &self.params))
    }

    /// Cardinality of the *unconstrained* cross product; `None` if any
    /// parameter is continuous or the product overflows `usize`.
    pub fn product_cardinality(&self) -> Option<usize> {
        self.params
            .iter()
            .try_fold(1usize, |acc, p| acc.checked_mul(p.domain().cardinality()?))
    }

    /// Converts a mixed-radix index into the unconstrained product to a
    /// configuration. Index 0 is all-first-values; the **last** parameter
    /// varies fastest.
    ///
    /// # Panics
    /// Panics if the space has continuous parameters or `index` is out of
    /// range.
    pub fn config_at(&self, index: usize) -> Configuration {
        let total = self
            .product_cardinality()
            .expect("config_at requires a fully discrete space");
        assert!(index < total, "configuration index {index} out of {total}");
        let mut rem = index;
        let mut values = vec![ParamValue::Index(0); self.params.len()];
        for (v, p) in values.iter_mut().zip(&self.params).rev() {
            let card = p.domain().cardinality().expect("discrete");
            *v = ParamValue::Index(rem % card);
            rem /= card;
        }
        Configuration::new(values)
    }

    /// The mixed-radix code of `cfg`: the inverse of
    /// [`config_at`](Self::config_at), so codes ascend in enumeration
    /// order. `None` unless the space is fully discrete with a product that
    /// fits in `usize` and `cfg` is a member: one in-domain index per
    /// parameter.
    pub fn index_of(&self, cfg: &Configuration) -> Option<usize> {
        self.product_cardinality()?;
        if cfg.len() != self.params.len() {
            return None;
        }
        self.params
            .iter()
            .zip(cfg.values())
            .try_fold(0usize, |code, (p, v)| {
                let card = p.domain().cardinality()?;
                match *v {
                    ParamValue::Index(i) if i < card => Some(code * card + i),
                    _ => None,
                }
            })
    }

    /// Walks the feasible configurations in code order (see
    /// [`FeasibleWalk`]).
    ///
    /// # Panics
    /// Panics if the space has continuous parameters.
    pub fn walk(&self) -> FeasibleWalk<'_> {
        let total = self
            .product_cardinality()
            .expect("enumeration requires a fully discrete space");
        let deepest = self.staged.last().map_or(0, |&(k, _)| k);
        FeasibleWalk {
            space: self,
            probe: Configuration::new(vec![ParamValue::Index(0); self.params.len()]),
            prefix: Configuration::new(Vec::with_capacity(deepest)),
            code: 0,
            total,
            // Without staged constraints every code is settled.
            settled_until: if deepest == 0 { total } else { 0 },
            deepest,
            lent: false,
        }
    }

    /// Enumerates every **feasible** configuration in mixed-radix order,
    /// which is code order: the `i`-th member has the `i`-th smallest
    /// [`index_of`](Self::index_of). Built by one [`walk`](Self::walk),
    /// cloning only the feasible members.
    ///
    /// # Panics
    /// Panics if the space has continuous parameters.
    pub fn enumerate(&self) -> Vec<Configuration> {
        let mut walk = self.walk();
        let mut out = Vec::new();
        while let Some((_, cfg)) = walk.next_member() {
            out.push(cfg.clone());
        }
        out
    }

    /// All feasible configurations at Hamming distance exactly 1 from `cfg`
    /// (one parameter changed to a different domain value). This is the
    /// edge relation of the configuration graph that the GEIST baseline
    /// propagates labels over.
    ///
    /// # Panics
    /// Panics if the space has continuous parameters.
    pub fn neighbors(&self, cfg: &Configuration) -> Vec<Configuration> {
        assert!(
            self.is_fully_discrete(),
            "neighbors require a discrete space"
        );
        let mut out = Vec::new();
        for (i, p) in self.params.iter().enumerate() {
            let card = p.domain().cardinality().expect("discrete");
            let current = cfg.value(i).index();
            for v in 0..card {
                if v == current {
                    continue;
                }
                let mut n = cfg.clone();
                n.set_value(i, ParamValue::Index(v));
                if self.is_feasible(&n) {
                    out.push(n);
                }
            }
        }
        out
    }
}

/// The feasible members of a fully discrete space in code order: the one
/// odometer behind [`ParameterSpace::enumerate`], the Ranking pool and the
/// datasets. A single probe configuration steps through the product, last
/// parameter fastest as in [`config_at`](ParameterSpace::config_at), and is
/// lent to the caller at each feasible member, so a walk allocates once
/// however large the product is (twice with declared-prefix constraints);
/// callers clone only what they keep.
///
/// Constraints are tested in two stages. One declared on the first `k`
/// parameters ([`SpaceBuilder::constraint_within`]) runs once per distinct
/// `k`-prefix, as soon as the probe reaches it: on a `k`-long copy of the
/// probe with the first `k` definitions, shortest prefix first, ties in
/// declaration order. When it fails, the walk skips every member that
/// shares the prefix by stepping the odometer at parameter `k − 1`.
/// Constraints over whole configurations then run on each member the
/// staged ones admit, in declaration order, as
/// [`is_feasible`](ParameterSpace::is_feasible) would. A skipped member
/// fails a constraint that its prefix decides, so the walk yields exactly
/// the members `config_at` + `is_feasible` accepts, in the same order and
/// with the same codes.
#[derive(Debug)]
pub struct FeasibleWalk<'s> {
    space: &'s ParameterSpace,
    probe: Configuration,
    /// The `k`-long copy of the probe a staged predicate is handed.
    prefix: Configuration,
    /// Code of the product member the probe holds.
    code: usize,
    /// Product cardinality: one past the last code.
    total: usize,
    /// The staged predicates hold at every code below this one from the
    /// probe's: it ends the longest staged prefix that last passed them.
    settled_until: usize,
    /// The longest staged prefix; 0 without staged constraints.
    deepest: usize,
    /// Whether the probe was lent at `code` and steps before the next test.
    lent: bool,
}

impl FeasibleWalk<'_> {
    /// The next feasible member and its code, or `None` past the last.
    pub fn next_member(&mut self) -> Option<(usize, &Configuration)> {
        if std::mem::take(&mut self.lent) {
            self.step();
        }
        let space = self.space;
        loop {
            // The staged predicates hold here: test the others.
            while self.code < self.settled_until {
                if space
                    .whole
                    .iter()
                    .all(|c| c.is_satisfied(&self.probe, &space.params))
                {
                    self.lent = true;
                    return Some((self.code, &self.probe));
                }
                self.step();
            }
            if self.code >= self.total {
                return None;
            }
            self.settle();
        }
    }

    /// Runs the staged predicates whose prefixes the probe just reached,
    /// shortest first, skipping every member below a prefix that fails
    /// one, until all hold or the product ends. The probe stands at the
    /// first member of a new longest staged prefix here (its later values
    /// at their first), and its last value that is not the first, among
    /// that prefix, is the one that stepped: the shorter prefixes that end
    /// before it are unchanged, and their predicates held.
    fn settle(&mut self) {
        let space = self.space;
        'probe: while self.code < self.total {
            let stepped = (0..self.deepest)
                .rev()
                .find(|&i| self.probe.value(i).index() != 0)
                .unwrap_or(0);
            for &(k, ref c) in &space.staged {
                if k <= stepped {
                    continue;
                }
                self.prefix.assign_prefix(&self.probe, k);
                if !c.is_satisfied(&self.prefix, &space.params[..k]) {
                    self.skip(k);
                    continue 'probe;
                }
            }
            self.settled_until = self.code + self.stride(self.deepest);
            return;
        }
    }

    /// How many product members share each `k`-prefix: the product of the
    /// later parameters' cardinalities.
    fn stride(&self, k: usize) -> usize {
        self.space.params[k..]
            .iter()
            .map(|p| p.domain().cardinality().expect("discrete"))
            .product()
    }

    /// Advances the probe to the next product member.
    fn step(&mut self) {
        self.code += 1;
        self.carry(self.space.params.len());
    }

    /// Skips every member that shares the probe's first `k` values: the
    /// probe stands at the first of them (its later values at their
    /// first), so they are the next `stride(k)` codes.
    fn skip(&mut self, k: usize) {
        debug_assert!((k..self.probe.len()).all(|i| self.probe.value(i).index() == 0));
        self.code += self.stride(k);
        self.carry(k);
    }

    /// Steps the probe's value at `k − 1`, carrying into earlier
    /// parameters; the values from `k` on are at their first. Past the
    /// last member the probe wraps to the first and `code` reaches
    /// `total`. Inlined into the per-member loop, which calls it on every
    /// step.
    #[inline(always)]
    fn carry(&mut self, k: usize) {
        for (i, p) in self.space.params[..k].iter().enumerate().rev() {
            let next = self.probe.value(i).index() + 1;
            if next < p.domain().cardinality().expect("discrete") {
                self.probe.set_value(i, ParamValue::Index(next));
                return;
            }
            self.probe.set_value(i, ParamValue::Index(0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_space() -> ParameterSpace {
        ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1])))
            .param(ParamDef::new("b", Domain::categorical(&["x", "y", "z"])))
            .param(ParamDef::new("c", Domain::discrete_ints(&[10, 20])))
            .build()
            .unwrap()
    }

    #[test]
    fn contains_checks_arity_kind_and_range() {
        let s = ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1, 2, 3])))
            .param(ParamDef::new("x", Domain::continuous(-1.0, 1.0)))
            .constraint("a != 3", |c, _| c.value(0).index() != 3)
            .build()
            .unwrap();
        let cfg = |a: ParamValue, x: ParamValue| Configuration::new(vec![a, x]);
        assert!(s.contains(&cfg(ParamValue::Index(3), ParamValue::Real(1.0))));
        // Membership ignores constraints: (3, x) is a member, not feasible.
        assert!(!s.is_feasible(&cfg(ParamValue::Index(3), ParamValue::Real(0.0))));
        assert!(!s.contains(&cfg(ParamValue::Index(4), ParamValue::Real(0.0))));
        assert!(!s.contains(&cfg(ParamValue::Index(99), ParamValue::Real(0.0))));
        assert!(!s.contains(&cfg(ParamValue::Real(0.0), ParamValue::Real(0.0))));
        assert!(!s.contains(&cfg(ParamValue::Index(0), ParamValue::Index(0))));
        for bad in [1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(!s.contains(&cfg(ParamValue::Index(0), ParamValue::Real(bad))));
        }
        assert!(!s.contains(&Configuration::from_indices(&[0])));
        assert!(!s.contains(&Configuration::new(vec![
            ParamValue::Index(0),
            ParamValue::Real(0.0),
            ParamValue::Index(0),
        ])));
    }

    #[test]
    fn builder_rejects_empty_space() {
        assert_eq!(
            ParameterSpace::builder().build().unwrap_err(),
            SpaceError::NoParameters
        );
    }

    #[test]
    fn builder_rejects_duplicate_names() {
        let err = ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::discrete_ints(&[1])))
            .param(ParamDef::new("a", Domain::discrete_ints(&[2])))
            .build()
            .unwrap_err();
        assert_eq!(err, SpaceError::DuplicateName("a".into()));
    }

    #[test]
    fn builder_rejects_empty_domain() {
        let err = ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::Discrete(vec![])))
            .build()
            .unwrap_err();
        assert_eq!(err, SpaceError::EmptyDomain("a".into()));
    }

    #[test]
    fn builder_rejects_a_repeated_value() {
        let err = ParameterSpace::builder()
            .param(ParamDef::new("b", Domain::discrete_ints(&[4, 8])))
            .param(ParamDef::new("a", Domain::discrete_ints(&[1, 1, 2])))
            .build()
            .unwrap_err();
        let dup = SpaceError::DuplicateValue {
            param: "a".into(),
            value: "1".into(),
        };
        assert_eq!(err, dup);
        assert_eq!(err.to_string(), "parameter 'a' lists the value '1' twice");
        let err = ParameterSpace::builder()
            .param(ParamDef::new("c", Domain::categorical(&["x", "y", "x"])))
            .build()
            .unwrap_err();
        assert!(matches!(err, SpaceError::DuplicateValue { .. }), "{err}");
    }

    #[test]
    fn builder_rejects_bad_range() {
        let err = ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::continuous(1.0, 1.0)))
            .build()
            .unwrap_err();
        assert_eq!(err, SpaceError::InvalidRange("a".into()));
        let err = ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::continuous(0.0, f64::NAN)))
            .build()
            .unwrap_err();
        assert_eq!(err, SpaceError::InvalidRange("a".into()));
    }

    #[test]
    fn builder_rejects_a_range_whose_width_overflows() {
        for (lo, hi) in [(-1e308, 1e308), (-f64::MAX, f64::MAX), (-f64::MAX, 0.5e308)] {
            let err = ParameterSpace::builder()
                .param(ParamDef::new("k", Domain::discrete_ints(&[1, 2, 3])))
                .param(ParamDef::new("x", Domain::continuous(lo, hi)))
                .build()
                .unwrap_err();
            assert_eq!(err, SpaceError::InvalidRange("x".into()), "[{lo}, {hi}]");
        }
        // A wide range whose width is finite stays valid.
        let s = ParameterSpace::builder()
            .param(ParamDef::new("x", Domain::continuous(-1e307, 1e307)))
            .build()
            .unwrap();
        assert_eq!(s.n_params(), 1);
    }

    #[test]
    fn product_cardinality_multiplies() {
        assert_eq!(small_space().product_cardinality(), Some(12));
        let mixed = ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::discrete_ints(&[1])))
            .param(ParamDef::new("b", Domain::continuous(0.0, 1.0)))
            .build()
            .unwrap();
        assert_eq!(mixed.product_cardinality(), None);
        assert!(!mixed.is_fully_discrete());
    }

    #[test]
    fn enumerate_covers_product_without_constraints() {
        let s = small_space();
        let all = s.enumerate();
        assert_eq!(all.len(), 12);
        let set: std::collections::HashSet<_> = all.iter().cloned().collect();
        assert_eq!(set.len(), 12);
    }

    #[test]
    fn enumerate_respects_constraints() {
        let s = ParameterSpace::builder()
            .param(ParamDef::new("ranks", Domain::discrete_ints(&[1, 2, 4])))
            .param(ParamDef::new("omp", Domain::discrete_ints(&[1, 2, 4])))
            .constraint("ranks*omp <= 4", |cfg, defs| {
                cfg.numeric_value(0, &defs[0]) * cfg.numeric_value(1, &defs[1]) <= 4.0
            })
            .build()
            .unwrap();
        let all = s.enumerate();
        // (1,1) (1,2) (1,4) (2,1) (2,2) (4,1) = 6 feasible
        assert_eq!(all.len(), 6);
        for c in &all {
            assert!(s.is_feasible(c));
        }
    }

    #[test]
    fn config_at_uses_last_param_fastest() {
        let s = small_space();
        assert_eq!(s.config_at(0), Configuration::from_indices(&[0, 0, 0]));
        assert_eq!(s.config_at(1), Configuration::from_indices(&[0, 0, 1]));
        assert_eq!(s.config_at(2), Configuration::from_indices(&[0, 1, 0]));
        assert_eq!(s.config_at(11), Configuration::from_indices(&[1, 2, 1]));
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn config_at_out_of_range_panics() {
        let _ = small_space().config_at(12);
    }

    #[test]
    fn neighbors_change_exactly_one_param() {
        let s = small_space();
        let c = Configuration::from_indices(&[0, 1, 0]);
        let ns = s.neighbors(&c);
        // (2-1) + (3-1) + (2-1) = 4 neighbors
        assert_eq!(ns.len(), 4);
        for n in &ns {
            let diff = (0..3).filter(|&i| n.value(i) != c.value(i)).count();
            assert_eq!(diff, 1);
        }
    }

    #[test]
    fn neighbors_exclude_infeasible() {
        let s = ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1, 2])))
            .constraint("a != 1", |cfg, _| cfg.value(0).index() != 1)
            .build()
            .unwrap();
        let ns = s.neighbors(&Configuration::from_indices(&[0]));
        assert_eq!(ns, vec![Configuration::from_indices(&[2])]);
    }

    #[test]
    fn neighbor_relation_is_symmetric() {
        let s = small_space();
        for c in s.enumerate() {
            for n in s.neighbors(&c) {
                assert!(s.neighbors(&n).contains(&c));
            }
        }
    }

    #[test]
    fn param_index_lookup() {
        let s = small_space();
        assert_eq!(s.param_index("b"), Some(1));
        assert_eq!(s.param_index("missing"), None);
    }

    proptest! {
        #[test]
        fn index_config_roundtrip(
            cards in proptest::collection::vec(1usize..5, 1..5),
            seed in 0usize..1000,
        ) {
            let mut b = ParameterSpace::builder();
            for (i, &c) in cards.iter().enumerate() {
                let vals: Vec<i64> = (0..c as i64).collect();
                b = b.param(ParamDef::new(format!("p{i}"), Domain::discrete_ints(&vals)));
            }
            let s = b.build().unwrap();
            let total = s.product_cardinality().unwrap();
            let idx = seed % total;
            prop_assert_eq!(s.index_of(&s.config_at(idx)), Some(idx));
        }

        #[test]
        fn enumeration_is_sorted_by_index(
            cards in proptest::collection::vec(1usize..4, 1..4),
        ) {
            let mut b = ParameterSpace::builder();
            for (i, &c) in cards.iter().enumerate() {
                let vals: Vec<i64> = (0..c as i64).collect();
                b = b.param(ParamDef::new(format!("p{i}"), Domain::discrete_ints(&vals)));
            }
            let s = b.build().unwrap();
            let all = s.enumerate();
            let idxs: Vec<usize> = all.iter().map(|c| s.index_of(c).unwrap()).collect();
            let mut sorted = idxs.clone();
            sorted.sort_unstable();
            prop_assert_eq!(idxs, sorted);
        }
    }
}
