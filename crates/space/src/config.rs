//! Configurations: full assignments of values to every parameter.

use crate::param::{DiscreteValue, ParamDef};
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

/// The value a configuration assigns to one parameter.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub enum ParamValue {
    /// Index into the discrete domain's value list.
    Index(usize),
    /// A continuous value.
    Real(f64),
}

impl ParamValue {
    /// The discrete index.
    ///
    /// # Panics
    /// Panics if the value is continuous.
    pub fn index(&self) -> usize {
        match self {
            ParamValue::Index(i) => *i,
            ParamValue::Real(_) => panic!("continuous value has no index"),
        }
    }

    /// Numeric view. For a discrete value this is the *index* — use
    /// [`Configuration::numeric_value`] to resolve through the domain to the
    /// actual level (e.g. thread count 8 rather than index 3).
    pub fn as_f64(&self) -> f64 {
        match self {
            ParamValue::Index(i) => *i as f64,
            ParamValue::Real(r) => *r,
        }
    }
}

impl PartialEq for ParamValue {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (ParamValue::Index(a), ParamValue::Index(b)) => a == b,
            (ParamValue::Real(a), ParamValue::Real(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

impl Eq for ParamValue {}

impl Hash for ParamValue {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            ParamValue::Index(i) => {
                state.write_u8(0);
                state.write_usize(*i);
            }
            ParamValue::Real(r) => {
                state.write_u8(1);
                state.write_u64(r.to_bits());
            }
        }
    }
}

/// A configuration: one value per parameter, in parameter-definition order.
///
/// Equality and hashing are exact (bit-level for continuous values), which
/// is what the Ranking selection strategy relies on to "eliminate the
/// scenario where duplicate samples are selected" (paper §VIII).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Configuration {
    values: Vec<ParamValue>,
}

impl Configuration {
    /// Creates a configuration from per-parameter values.
    pub fn new(values: Vec<ParamValue>) -> Self {
        Self { values }
    }

    /// Creates an all-discrete configuration from domain indices.
    pub fn from_indices(indices: &[usize]) -> Self {
        Self {
            values: indices.iter().map(|&i| ParamValue::Index(i)).collect(),
        }
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the configuration has no parameters.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value of parameter `i`.
    pub fn value(&self, i: usize) -> ParamValue {
        self.values[i]
    }

    /// All values.
    pub fn values(&self) -> &[ParamValue] {
        &self.values
    }

    /// Mutable access to the value of parameter `i` (used by neighbor
    /// generation).
    pub fn set_value(&mut self, i: usize, v: ParamValue) {
        self.values[i] = v;
    }

    /// Makes this configuration the first `k` values of `of`, reusing its
    /// allocation.
    pub(crate) fn assign_prefix(&mut self, of: &Configuration, k: usize) {
        self.values.clear();
        self.values.extend_from_slice(&of.values[..k]);
    }

    /// Resolves parameter `i` through its definition to the domain value.
    ///
    /// # Panics
    /// Panics if the value is an index but the parameter is continuous, or
    /// the index is out of the domain's range.
    pub fn resolve<'d>(&self, i: usize, def: &'d ParamDef) -> Option<&'d DiscreteValue> {
        match self.values[i] {
            ParamValue::Index(idx) => Some(&def.values()[idx]),
            ParamValue::Real(_) => None,
        }
    }

    /// The numeric level of parameter `i` given its definition: the domain
    /// value for `Int`/`Float` discrete parameters, the index for pure
    /// categories, and the raw value for continuous parameters.
    pub fn numeric_value(&self, i: usize, def: &ParamDef) -> f64 {
        match self.values[i] {
            ParamValue::Real(r) => r,
            ParamValue::Index(idx) => def.values()[idx].as_f64().unwrap_or(idx as f64),
        }
    }

    /// Renders the configuration with parameter names, e.g.
    /// `nesting=DGZ omp=8 ranks=32`.
    pub fn display_with(&self, defs: &[ParamDef]) -> String {
        assert_eq!(defs.len(), self.values.len());
        let mut out = String::new();
        for (i, def) in defs.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            match self.values[i] {
                ParamValue::Index(idx) => {
                    out.push_str(&format!("{}={}", def.name(), def.values()[idx]))
                }
                ParamValue::Real(r) => out.push_str(&format!("{}={r:.4}", def.name())),
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Domain;
    use std::collections::HashSet;

    #[test]
    fn from_indices_roundtrip() {
        let c = Configuration::from_indices(&[0, 3, 1]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.value(1).index(), 3);
    }

    #[test]
    fn equality_and_hash_for_discrete() {
        let a = Configuration::from_indices(&[1, 2]);
        let b = Configuration::from_indices(&[1, 2]);
        let c = Configuration::from_indices(&[2, 1]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
        assert!(!set.contains(&c));
    }

    #[test]
    fn continuous_values_hash_bitwise() {
        let a = Configuration::new(vec![ParamValue::Real(0.5)]);
        let b = Configuration::new(vec![ParamValue::Real(0.5)]);
        let c = Configuration::new(vec![ParamValue::Real(0.5000001)]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn index_and_real_never_equal() {
        let a = Configuration::new(vec![ParamValue::Index(1)]);
        let b = Configuration::new(vec![ParamValue::Real(1.0)]);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "no index")]
    fn index_of_real_panics() {
        ParamValue::Real(1.0).index();
    }

    #[test]
    fn numeric_value_resolves_domain_levels() {
        let def = ParamDef::new("omp", Domain::discrete_ints(&[1, 2, 4, 8]));
        let c = Configuration::from_indices(&[3]);
        assert_eq!(c.numeric_value(0, &def), 8.0);

        let cat = ParamDef::new("layout", Domain::categorical(&["DGZ", "DZG"]));
        let c = Configuration::from_indices(&[1]);
        assert_eq!(c.numeric_value(0, &cat), 1.0); // falls back to index
    }

    #[test]
    fn display_with_names() {
        let defs = vec![
            ParamDef::new("layout", Domain::categorical(&["DGZ", "DZG"])),
            ParamDef::new("omp", Domain::discrete_ints(&[1, 2, 4])),
        ];
        let c = Configuration::from_indices(&[0, 2]);
        assert_eq!(c.display_with(&defs), "layout=DGZ omp=4");
    }
}
