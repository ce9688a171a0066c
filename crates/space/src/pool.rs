//! Flattened pool encodings for the batch-scoring engine.
//!
//! The Ranking selection strategy scores *every* unseen configuration of an
//! enumerated pool each iteration. Walking `Vec<Configuration>` for that is
//! cache-hostile: each candidate is a separate heap allocation of tagged
//! [`ParamValue`](crate::config::ParamValue)s. A [`PoolEncoding`] flattens a
//! fully discrete pool once into a contiguous **config-major** buffer of
//! domain indices (`[cfg0_p0, cfg0_p1, …, cfg1_p0, …]`), narrowed to `u16`
//! when every index fits (the common case — HPC domains have at most a few
//! dozen levels), so the scoring loop is a linear sweep over dense memory.
//!
//! A space's own pool is *code-addressed*:
//! [`PoolEncoding::enumerate`] writes the rows straight from one
//! [`walk`](ParameterSpace::walk), with no `Configuration` per member, and
//! returns each row's mixed-radix code
//! ([`index_of`](ParameterSpace::index_of)) as [`PoolCodes`]. Codes ascend
//! with the rows, so code order, enumeration order and pool position agree:
//! a configuration finds its position by code and binary search
//! ([`PoolCodes::position`]), and a position becomes a configuration again
//! through [`PoolEncoding::config`].
//!
//! [`PoolMask`] is the companion per-pool-position bitset: the tuner marks
//! evaluated positions instead of hashing full configurations against the
//! history on every candidate visit.

use crate::config::{Configuration, ParamValue};
use crate::space::ParameterSpace;

/// An index type a pool can be encoded with.
pub trait PoolIndex: Copy + Send + Sync {
    /// Widens the stored index back to `usize`.
    fn as_usize(self) -> usize;
}

impl PoolIndex for u16 {
    #[inline]
    fn as_usize(self) -> usize {
        self as usize
    }
}

impl PoolIndex for u32 {
    #[inline]
    fn as_usize(self) -> usize {
        self as usize
    }
}

/// The contiguous config-major index buffer backing a [`PoolEncoding`].
#[derive(Debug, Clone)]
pub enum IndexBuffer {
    /// Narrow encoding: every domain index fits in 16 bits.
    U16(Vec<u16>),
    /// Wide encoding for (pathologically) large domains.
    U32(Vec<u32>),
}

/// A `&[Configuration]` pool flattened into one contiguous index buffer.
///
/// Built once per pool (the pool itself is built once per tuning run) and
/// reused across iterations; see the crate docs of [`pool`](self).
#[derive(Debug, Clone)]
pub struct PoolEncoding {
    n_configs: usize,
    n_params: usize,
    buf: IndexBuffer,
}

impl PoolEncoding {
    /// Flattens `pool`. Returns `None` if the pool cannot be encoded: a
    /// configuration holds a continuous value, or configurations disagree
    /// on arity (callers fall back to the exact per-`Configuration` path).
    pub fn encode(pool: &[Configuration]) -> Option<Self> {
        let n_configs = pool.len();
        let n_params = pool.first().map_or(0, |c| c.len());
        let mut max_index = 0usize;
        for cfg in pool {
            if cfg.len() != n_params {
                return None;
            }
            for &v in cfg.values() {
                match v {
                    ParamValue::Index(i) => max_index = max_index.max(i),
                    ParamValue::Real(_) => return None,
                }
            }
        }
        let buf = if max_index <= u16::MAX as usize {
            IndexBuffer::U16(
                pool.iter()
                    .flat_map(|c| c.values().iter().map(|v| v.index() as u16))
                    .collect(),
            )
        } else {
            IndexBuffer::U32(
                pool.iter()
                    .flat_map(|c| c.values().iter().map(|v| v.index() as u32))
                    .collect(),
            )
        };
        Some(Self {
            n_configs,
            n_params,
            buf,
        })
    }

    /// Encodes the feasible configurations of a fully discrete `space` in
    /// one [`walk`](ParameterSpace::walk), without materializing them, and
    /// returns the rows' codes: row `i` is the `i`-th configuration of
    /// [`enumerate`](ParameterSpace::enumerate), at position `i` of the
    /// codes. Rows are `u16` when every domain has at most 65,536 values.
    /// The rows and codes are each allocated once and shrunk once,
    /// whatever the member count.
    ///
    /// # Panics
    /// Panics if the space has continuous parameters.
    pub fn enumerate(space: &ParameterSpace) -> (Self, PoolCodes) {
        let narrow = space
            .params()
            .iter()
            .all(|p| p.domain().cardinality().is_some_and(|c| c <= 1 << 16));
        let mut codes = Vec::new();
        let buf = if narrow {
            IndexBuffer::U16(walk_rows(space, &mut codes, |i| i as u16))
        } else {
            IndexBuffer::U32(walk_rows(space, &mut codes, |i| i as u32))
        };
        codes.shrink_to_fit();
        let encoding = Self {
            n_configs: codes.len(),
            n_params: space.n_params(),
            buf,
        };
        (encoding, PoolCodes(codes))
    }

    /// Number of configurations in the encoded pool.
    pub fn n_configs(&self) -> usize {
        self.n_configs
    }

    /// Arity (values per configuration).
    pub fn n_params(&self) -> usize {
        self.n_params
    }

    /// The raw config-major buffer (length `n_configs * n_params`).
    pub fn buffer(&self) -> &IndexBuffer {
        &self.buf
    }

    /// The domain index of parameter `param` in configuration `config`.
    ///
    /// # Panics
    /// Panics if either coordinate is out of range.
    pub fn index(&self, config: usize, param: usize) -> usize {
        assert!(config < self.n_configs && param < self.n_params);
        let at = config * self.n_params + param;
        match &self.buf {
            IndexBuffer::U16(b) => b[at] as usize,
            IndexBuffer::U32(b) => b[at] as usize,
        }
    }

    /// Configuration `config`, materialized from its row.
    ///
    /// # Panics
    /// Panics if `config` is out of range.
    pub fn config(&self, config: usize) -> Configuration {
        Configuration::new(
            (0..self.n_params)
                .map(|p| ParamValue::Index(self.index(config, p)))
                .collect(),
        )
    }
}

/// The rows and codes of one walk over `space`'s feasible members, each
/// index narrowed by `narrow`. Both buffers are sized once, to the
/// product's cardinality, which bounds the member count, so neither grows
/// by copying; capacity that is never written is never resident, and the
/// caller shrinks both to the member count.
fn walk_rows<T>(space: &ParameterSpace, codes: &mut Vec<usize>, narrow: fn(usize) -> T) -> Vec<T> {
    let bound = space
        .product_cardinality()
        .expect("enumeration requires a fully discrete space");
    codes.reserve_exact(bound);
    let mut rows = Vec::with_capacity(bound * space.n_params());
    let mut walk = space.walk();
    while let Some((code, cfg)) = walk.next_member() {
        codes.push(code);
        rows.extend(cfg.values().iter().map(|v| narrow(v.index())));
    }
    rows.shrink_to_fit();
    rows
}

/// The codes of a code-addressed pool, strictly ascending: position `i`
/// holds the code ([`ParameterSpace::index_of`]) of pool member `i`.
#[derive(Debug, Clone)]
pub struct PoolCodes(Vec<usize>);

impl PoolCodes {
    /// Wraps `codes`, or returns `None` unless they strictly ascend (a
    /// repeated code is a duplicate member).
    pub fn new(codes: Vec<usize>) -> Option<Self> {
        codes.windows(2).all(|w| w[0] < w[1]).then_some(Self(codes))
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The codes, by position.
    pub fn as_slice(&self) -> &[usize] {
        &self.0
    }

    /// The position of `cfg`: its code, found by binary search. `None` for
    /// a configuration of `space` that is not in the pool, or one that has
    /// no code.
    pub fn position(&self, space: &ParameterSpace, cfg: &Configuration) -> Option<usize> {
        let code = space.index_of(cfg)?;
        self.0.binary_search(&code).ok()
    }
}

/// A fixed-length bitset over pool positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolMask {
    words: Vec<u64>,
    len: usize,
}

impl PoolMask {
    /// Creates an all-clear mask over `len` positions.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask covers zero positions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets position `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "mask position {i} out of {}", self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clears position `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn unset(&mut self, i: usize) {
        assert!(i < self.len, "mask position {i} out of {}", self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Whether position `i` is set.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "mask position {i} out of {}", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Number of set positions.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_config_major_u16() {
        let pool = vec![
            Configuration::from_indices(&[0, 2]),
            Configuration::from_indices(&[1, 0]),
            Configuration::from_indices(&[3, 1]),
        ];
        let enc = PoolEncoding::encode(&pool).unwrap();
        assert_eq!(enc.n_configs(), 3);
        assert_eq!(enc.n_params(), 2);
        assert!(matches!(enc.buffer(), IndexBuffer::U16(_)));
        for (c, cfg) in pool.iter().enumerate() {
            for p in 0..2 {
                assert_eq!(enc.index(c, p), cfg.value(p).index());
            }
        }
        if let IndexBuffer::U16(b) = enc.buffer() {
            assert_eq!(b, &vec![0, 2, 1, 0, 3, 1]);
        }
    }

    #[test]
    fn widens_to_u32_for_large_domains() {
        let pool = vec![Configuration::from_indices(&[70_000, 1])];
        let enc = PoolEncoding::encode(&pool).unwrap();
        assert!(matches!(enc.buffer(), IndexBuffer::U32(_)));
        assert_eq!(enc.index(0, 0), 70_000);
    }

    #[test]
    fn continuous_values_are_unencodable() {
        let pool = vec![Configuration::new(vec![ParamValue::Real(0.5)])];
        assert!(PoolEncoding::encode(&pool).is_none());
    }

    #[test]
    fn ragged_pools_are_unencodable() {
        let pool = vec![
            Configuration::from_indices(&[0, 1]),
            Configuration::from_indices(&[0]),
        ];
        assert!(PoolEncoding::encode(&pool).is_none());
    }

    #[test]
    fn empty_pool_encodes_trivially() {
        let enc = PoolEncoding::encode(&[]).unwrap();
        assert_eq!(enc.n_configs(), 0);
        assert_eq!(enc.n_params(), 0);
    }

    #[test]
    fn enumerated_rows_and_codes_follow_the_walk() {
        use crate::param::{Domain, ParamDef};
        let space = ParameterSpace::builder()
            .param(ParamDef::new("a", Domain::discrete_ints(&[0, 1, 2])))
            .param(ParamDef::new("b", Domain::discrete_ints(&[0, 1])))
            .constraint("a + b != 2", |c, _| {
                c.value(0).index() + c.value(1).index() != 2
            })
            .build()
            .unwrap();
        let (enc, codes) = PoolEncoding::enumerate(&space);
        assert_eq!((enc.n_configs(), enc.n_params()), (4, 2));
        assert!(matches!(enc.buffer(), IndexBuffer::U16(_)));
        assert_eq!(enc.config(3), Configuration::from_indices(&[2, 1]));
        assert_eq!(codes.as_slice(), &[0, 1, 2, 5]);
        // Infeasible members of the product and non-members have no
        // position.
        for absent in [[1, 1], [2, 0], [3, 0], [0, 2]] {
            assert_eq!(
                codes.position(&space, &Configuration::from_indices(&absent)),
                None
            );
        }
        let wide = ParameterSpace::builder()
            .param(ParamDef::new(
                "w",
                Domain::discrete_ints(&(0..70_000).collect::<Vec<i64>>()),
            ))
            .build()
            .unwrap();
        let (enc, codes) = PoolEncoding::enumerate(&wide);
        assert!(matches!(enc.buffer(), IndexBuffer::U32(_)));
        assert_eq!(enc.index(69_999, 0), 69_999);
        assert_eq!(codes.len(), 70_000);
    }

    #[test]
    fn codes_must_strictly_ascend() {
        assert!(PoolCodes::new(vec![0, 3, 4]).is_some());
        assert!(PoolCodes::new(Vec::new()).is_some_and(|c| c.is_empty()));
        assert!(PoolCodes::new(vec![0, 3, 3]).is_none());
        assert!(PoolCodes::new(vec![4, 3]).is_none());
    }

    #[test]
    fn mask_set_get_count() {
        let mut m = PoolMask::new(130);
        assert_eq!(m.len(), 130);
        assert!(!m.get(0) && !m.get(129));
        m.set(0);
        m.set(63);
        m.set(64);
        m.set(129);
        assert!(m.get(0) && m.get(63) && m.get(64) && m.get(129));
        assert!(!m.get(1) && !m.get(128));
        assert_eq!(m.count(), 4);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn mask_bounds_are_checked() {
        let m = PoolMask::new(10);
        let _ = m.get(10);
    }
}
