//! The log-scaled latency histogram: HDR-style power-of-two octaves with
//! 32 sub-buckets each, so any `u64` nanosecond value lands in one of
//! [`Histogram::NUM_BUCKETS`] fixed buckets with a relative quantization
//! error bounded by [`Histogram::RELATIVE_ERROR_BOUND`].
//!
//! Values below 32 are recorded exactly (one bucket per value). Above
//! that, the value's octave (position of its most significant bit) picks
//! a run of 32 buckets and the next 5 bits pick the sub-bucket — so
//! bucket width grows with magnitude and the *relative* resolution stays
//! constant, which is exactly what latency distributions spanning
//! nanoseconds to seconds need.
//!
//! `merge` adds bucket counts and exact counters element-wise: it is
//! associative, commutative, and produces bitwise-identical state for any
//! partition of the same records — the property the drain-end
//! snapshot-by-merge design and the CI determinism gate rely on.

use serde::{Deserialize, Serialize, Value};

/// Sub-bucket resolution: 2^5 = 32 sub-buckets per power-of-two octave.
const SUB_BITS: u32 = 5;
const SUB_BUCKETS: usize = 1 << SUB_BITS;

/// Bucket index for a value; always `< Histogram::NUM_BUCKETS`.
#[inline]
pub(crate) fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let octave = (msb - SUB_BITS + 1) as usize;
    let sub = ((value >> (msb - SUB_BITS)) as usize) - SUB_BUCKETS;
    octave * SUB_BUCKETS + sub
}

/// Half-open `[lo, hi)` value range of a bucket, in `u128` because the
/// top bucket's upper bound is `2^64`.
pub(crate) fn bucket_bounds(index: usize) -> (u128, u128) {
    if index < SUB_BUCKETS {
        return (index as u128, index as u128 + 1);
    }
    let octave = index / SUB_BUCKETS;
    let sub = index % SUB_BUCKETS;
    let width = 1u128 << (octave - 1);
    let lo = (SUB_BUCKETS as u128 + sub as u128) << (octave - 1);
    (lo, lo + width)
}

/// Midpoint of a bucket, saturated to `u64`.
fn bucket_mid(index: usize) -> u64 {
    let (lo, hi) = bucket_bounds(index);
    let mid = lo + (hi - lo) / 2;
    mid.min(u64::MAX as u128) as u64
}

/// A fixed-size log-scaled histogram of `u64` samples (nanoseconds, by
/// convention). See the [module docs](self) for the bucket layout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Box<[u64]>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Total number of buckets: 32 exact values plus 59 octaves × 32
    /// sub-buckets, covering the full `u64` range.
    pub const NUM_BUCKETS: usize = SUB_BUCKETS * (64 - SUB_BITS as usize + 1);

    /// Documented quantile error bound: a reported quantile `q` satisfies
    /// `|q - exact| <= exact / 32 + 1` (the bucket width never exceeds
    /// 1/32 of its lower bound, and quantiles report bucket midpoints).
    pub const RELATIVE_ERROR_BOUND: f64 = 1.0 / 32.0;

    /// An empty histogram. Allocates the bucket array once; recording
    /// never allocates.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![0u64; Self::NUM_BUCKETS].into_boxed_slice(),
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact minimum, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact mean, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `q`-quantile (`0.0 ..= 1.0`, clamped) by nearest rank, `None`
    /// when empty. Exact for values below 32; otherwise the midpoint of
    /// the containing bucket clamped into `[min, max]`, so the relative
    /// error is bounded by [`Histogram::RELATIVE_ERROR_BOUND`].
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bucket_mid(index).clamp(self.min, self.max));
            }
        }
        // Unreachable while count matches the bucket sum; be safe anyway.
        Some(self.max)
    }

    /// Fold another histogram into this one. Element-wise addition:
    /// associative, commutative, and bitwise deterministic — any
    /// partition of the same records merges to identical state.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += *theirs;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(index, count)`, in index order (the sparse
    /// serialized form).
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
    }

    pub(crate) fn from_parts(
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
        sparse: &[(usize, u64)],
    ) -> Result<Self, String> {
        let mut hist = Histogram::new();
        for &(index, n) in sparse {
            if index >= Self::NUM_BUCKETS {
                return Err(format!("bucket index {index} out of range"));
            }
            hist.buckets[index] = n;
        }
        hist.count = count;
        hist.sum = sum;
        if count > 0 {
            hist.min = min;
            hist.max = max;
        }
        Ok(hist)
    }
}

// Hand-written: buckets are stored sparse (only non-zero `[index, n]`
// pairs) and min/max are computed.
impl Serialize for Histogram {
    fn to_value(&self) -> Value {
        let buckets: Vec<Value> = self
            .nonzero_buckets()
            .map(|(i, n)| Value::Seq(vec![Value::U64(i as u64), Value::U64(n)]))
            .collect();
        Value::Map(vec![
            ("count".to_string(), Value::U64(self.count)),
            ("sum".to_string(), Value::U64(self.sum)),
            (
                "min".to_string(),
                Value::U64(self.min().unwrap_or_default()),
            ),
            (
                "max".to_string(),
                Value::U64(self.max().unwrap_or_default()),
            ),
            ("buckets".to_string(), Value::Seq(buckets)),
        ])
    }
}

fn field_u64(entries: &[(String, Value)], key: &str) -> Result<u64, serde::Error> {
    match entries.iter().find(|(k, _)| k == key).map(|(_, v)| v) {
        Some(Value::U64(u)) => Ok(*u),
        Some(Value::I64(i)) if *i >= 0 => Ok(*i as u64),
        _ => Err(serde::Error::custom(format!(
            "histogram: missing or invalid `{key}`"
        ))),
    }
}

impl Deserialize for Histogram {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let Value::Map(entries) = value else {
            return Err(serde::Error::custom("histogram: expected object"));
        };
        let count = field_u64(entries, "count")?;
        let sum = field_u64(entries, "sum")?;
        let min = field_u64(entries, "min")?;
        let max = field_u64(entries, "max")?;
        let Some(Value::Seq(raw)) = entries.iter().find(|(k, _)| k == "buckets").map(|(_, v)| v)
        else {
            return Err(serde::Error::custom("histogram: missing `buckets`"));
        };
        let mut sparse = Vec::with_capacity(raw.len());
        for item in raw {
            let Value::Seq(pair) = item else {
                return Err(serde::Error::custom("histogram: bucket must be [idx, n]"));
            };
            let [Value::U64(index), Value::U64(n)] = pair.as_slice() else {
                return Err(serde::Error::custom("histogram: bucket must be [idx, n]"));
            };
            sparse.push((*index as usize, *n));
        }
        Histogram::from_parts(count, sum, min, max, &sparse).map_err(serde::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact_buckets() {
        for v in 0..32u64 {
            assert_eq!(bucket_index(v), v as usize);
            let (lo, hi) = bucket_bounds(v as usize);
            assert_eq!((lo, hi), (v as u128, v as u128 + 1));
        }
    }

    #[test]
    fn bucket_index_is_contiguous_and_monotone() {
        // Every value maps into a bucket whose bounds contain it, and the
        // bucket index never decreases as the value grows.
        let mut values: Vec<u64> = (0..64u32)
            .flat_map(|shift| [0u64, 1, 3].map(|delta| (1u64 << shift).saturating_add(delta)))
            .collect();
        values.sort_unstable();
        let mut last = 0usize;
        for v in values {
            let index = bucket_index(v);
            assert!(index < Histogram::NUM_BUCKETS, "{v} -> {index}");
            let (lo, hi) = bucket_bounds(index);
            assert!(
                (lo..hi).contains(&(v as u128)),
                "{v} not in bucket {index} [{lo},{hi})"
            );
            assert!(index >= last, "index went backwards at {v}");
            last = index;
        }
        assert_eq!(bucket_index(u64::MAX), Histogram::NUM_BUCKETS - 1);
    }

    #[test]
    fn exact_counters_and_small_quantiles() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        for v in [5u64, 1, 9, 3, 7] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 25);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(9));
        assert_eq!(h.mean(), Some(5.0));
        // Values below 32 are exact: the quantiles are the true order
        // statistics.
        assert_eq!(h.quantile(0.0), Some(1));
        assert_eq!(h.quantile(0.5), Some(5));
        assert_eq!(h.quantile(1.0), Some(9));
    }

    #[test]
    fn quantiles_stay_within_the_documented_bound() {
        let mut h = Histogram::new();
        let mut values: Vec<u64> = (0..1000u64).map(|i| i * i * 37 + 11).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for q in [0.1, 0.5, 0.9, 0.99] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let got = h.quantile(q).unwrap();
            let err = (got as i128 - exact as i128).unsigned_abs() as f64;
            assert!(
                err <= exact as f64 * Histogram::RELATIVE_ERROR_BOUND + 1.0,
                "q={q}: got {got}, exact {exact}"
            );
        }
    }

    #[test]
    fn merge_is_element_wise_and_identical_to_single_stream() {
        let values: Vec<u64> = (0..500u64).map(|i| i * 7919 + 13).collect();
        let mut whole = Histogram::new();
        for &v in &values {
            whole.record(v);
        }
        let mut left = Histogram::new();
        let mut right = Histogram::new();
        for (i, &v) in values.iter().enumerate() {
            if i % 2 == 0 {
                left.record(v);
            } else {
                right.record(v);
            }
        }
        let mut merged = Histogram::new();
        merged.merge(&right);
        merged.merge(&left);
        assert_eq!(merged, whole, "merge must be order-independent and exact");
    }

    #[test]
    fn json_round_trip_is_bitwise() {
        let mut h = Histogram::new();
        for v in [0u64, 31, 32, 1_000_000, u64::MAX] {
            h.record(v);
        }
        let text = serde_json::to_string(&h).unwrap();
        let back: Histogram = serde_json::from_str(&text).unwrap();
        assert_eq!(back, h);
        let empty: Histogram =
            serde_json::from_str(&serde_json::to_string(&Histogram::new()).unwrap()).unwrap();
        assert_eq!(empty, Histogram::new());
    }
}
