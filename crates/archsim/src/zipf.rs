//! A deterministic Zipf-distributed sampler (CDF inversion).
//!
//! Database- and web-style reference streams are classically modelled as
//! Zipfian over records/documents; the TPC-C- and SPECWEB-like generators
//! in [`crate::workload`] build on this sampler.

use rand::Rng;

/// Samples ranks `0..n` with probability ∝ `1/(rank+1)^s`.
///
/// Construction precomputes the normalised CDF and a guide table over it
/// (`O(n)` memory). A draw `u` looks up the guide entry of its bucket,
/// the first rank whose CDF value passes the bucket's lower edge, and
/// scans the CDF forward from there: a few adjacent values per draw
/// (four on average at eight ranks per bucket), where a binary search
/// over the CDF would read `log2 n` scattered ones. The rank is the one
/// that binary search returns, for every `u`.
///
/// ```
/// use nm_archsim::zipf::Zipf;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let z = Zipf::new(1000, 1.0);
/// let mut rng = StdRng::seed_from_u64(7);
/// let mut head = 0;
/// for _ in 0..10_000 {
///     if z.sample(&mut rng) < 10 {
///         head += 1;
///     }
/// }
/// // The top 1 % of ranks draws a large share of samples.
/// assert!(head > 2000, "head = {head}");
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[g]` is the number of CDF values at or below
    /// `g / guide.len()`; the length is a power of two, so the bucket
    /// edges and a draw's bucket index are exact in `f64`.
    guide: Vec<u32>,
}

/// CDF values per guide bucket of a large sampler, on average; a draw's
/// expected forward scan is half of this. The guide then takes a
/// sixteenth of the CDF's memory.
const RANKS_PER_BUCKET: usize = 8;

/// A small sampler gets up to four buckets per rank, but no more than
/// this many in all: its guide is cheap, and a scan that stops at once
/// is cheaper than one whose length varies from draw to draw.
const SMALL_BUCKETS: usize = 8192;

impl Zipf {
    /// Builds a sampler over `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or above `u32::MAX`, or `s` is
    /// negative/non-finite — all static configuration errors.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        assert!(u32::try_from(n).is_ok(), "zipf ranks must fit in u32");
        assert!(s.is_finite() && s >= 0.0, "zipf exponent must be ≥ 0");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 0..n {
            acc += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for value in &mut cdf {
            *value /= total;
        }
        let buckets = (n / RANKS_PER_BUCKET)
            .max((4 * n).min(SMALL_BUCKETS))
            .next_power_of_two();
        let mut guide = Vec::with_capacity(buckets);
        let mut rank = 0;
        for g in 0..buckets {
            let edge = g as f64 / buckets as f64;
            while rank < n && cdf[rank] <= edge {
                rank += 1;
            }
            // `rank <= n`, which `new` checked fits in u32.
            guide.push(rank as u32);
        }
        Zipf { cdf, guide }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// `true` when the sampler has a single rank (never empty).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draws one rank in `0..len()`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.rank(rng.gen())
    }

    /// The rank a uniform draw `u` maps to: the last rank whose CDF value
    /// equals `u` if there is one, else the first whose value exceeds
    /// it, clamped to the last rank. This is the rank that
    /// `binary_search_by` with `total_cmp` finds on the CDF, for every
    /// `f64`, NaN included.
    fn rank(&self, u: f64) -> usize {
        let n = self.cdf.len();
        if u.is_nan() {
            // `total_cmp` puts a NaN below or above every CDF value.
            return if u.is_sign_negative() { 0 } else { n - 1 };
        }
        let buckets = self.guide.len();
        // Exact: `buckets` is a power of two, so `g / buckets <= u`.
        // Negative draws saturate to bucket 0, large ones to the last.
        let g = ((u * buckets as f64) as usize).min(buckets - 1);
        let mut above = self.guide[g] as usize;
        while above < n && self.cdf[above] <= u {
            above += 1;
        }
        if above > 0 && self.cdf[above - 1] == u {
            above - 1
        } else {
            above.min(n - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::OnceLock;

    /// The binary search the guide table replaced, kept as its oracle.
    fn searched_rank(z: &Zipf, u: f64) -> usize {
        match z.cdf.binary_search_by(|probe| probe.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(z.cdf.len() - 1),
        }
    }

    /// The workload generators' shapes, a single rank, a uniform one, and
    /// a steep one whose tail rounds to a long run of CDF values of 1.0.
    fn shapes() -> &'static [Zipf] {
        static SHAPES: OnceLock<Vec<Zipf>> = OnceLock::new();
        SHAPES.get_or_init(|| {
            [
                (256 * 1024, 0.95),
                (64 * 1024, 1.2),
                (2048, 0.8),
                (512, 1.0),
                (1, 1.0),
                (4096, 0.0),
                (64 * 1024, 6.0),
            ]
            .iter()
            .map(|&(n, s)| Zipf::new(n, s))
            .collect()
        })
    }

    /// Draws that probe the guide table's edges in `z`: the CDF value of
    /// rank `pick % n` and its two neighbours, the gap between the last
    /// value below 1.0 and 1.0 itself, and the values `total_cmp` orders
    /// apart (signed zeros, infinities, NaNs).
    fn edge_draws(z: &Zipf, pick: u64) -> Vec<f64> {
        let value = z.cdf[pick as usize % z.len()];
        let mut draws = vec![value, value.next_up(), value.next_down()];
        if let Some(&below) = z.cdf.iter().rev().find(|&&v| v < 1.0) {
            draws.extend([below.next_up(), (below + 1.0) / 2.0]);
        }
        draws.extend([
            1.0f64.next_down(),
            1.0,
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ]);
        draws
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The guide-table rank is the binary-search rank: for draws in
        /// `[0, 1)`, for any `f64` bit pattern, and at every edge of
        /// [`edge_draws`], over the fixed shapes, one rank at any
        /// exponent, and uniform samplers of any size.
        #[test]
        fn guide_rank_matches_binary_search(
            shape in 0usize..9,
            n in 1usize..5000,
            s in 0.0f64..8.0,
            pick in any::<u64>(),
            u in 0.0f64..1.0,
        ) {
            let owned;
            let z = match shape {
                7 => {
                    owned = Zipf::new(1, s);
                    &owned
                }
                8 => {
                    owned = Zipf::new(n, 0.0);
                    &owned
                }
                i => &shapes()[i],
            };
            let mut draws = edge_draws(z, pick);
            draws.extend([u, f64::from_bits(pick)]);
            for u in draws {
                prop_assert_eq!(z.rank(u), searched_rank(z, u), "n {} u {:e}", z.len(), u);
            }
        }
    }

    /// Every CDF value of the smaller fixed shapes, and its neighbours,
    /// draws the binary-search rank.
    #[test]
    fn guide_rank_matches_binary_search_at_every_cdf_value() {
        for z in shapes().iter().filter(|z| z.len() <= 4096) {
            for &value in &z.cdf {
                for u in [value, value.next_up(), value.next_down()] {
                    assert_eq!(z.rank(u), searched_rank(z, u), "n {} u {u:e}", z.len());
                }
            }
        }
    }

    #[test]
    fn uniform_when_s_is_zero() {
        let z = Zipf::new(4, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((8000..12000).contains(&c), "counts = {counts:?}");
        }
    }

    #[test]
    fn rank_zero_most_popular() {
        let z = Zipf::new(100, 1.2);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = vec![0usize; 100];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[90]);
    }

    #[test]
    fn samples_within_range() {
        let z = Zipf::new(7, 0.8);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 7);
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let z = Zipf::new(1000, 1.0);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..10).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(9), draw(9));
        assert_ne!(draw(9), draw(10));
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        let _ = Zipf::new(0, 1.0);
    }
}
