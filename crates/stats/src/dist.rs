//! Random distributions implemented directly on [`rand::Rng`].
//!
//! Only the distributions the reproduction actually needs are provided, each
//! with an explicit constructor that validates its parameters. All samplers
//! take `&mut impl Rng` so callers control seeding and stream splitting.

// Parameter validation deliberately uses negated comparisons (`!(x > 0.0)`)
// so NaN fails validation too; the positive form would accept NaN.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

use rand::Rng;

/// Error returned when a distribution is constructed with invalid parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistError(pub &'static str);

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid distribution parameter: {}", self.0)
    }
}

impl std::error::Error for DistError {}

/// Normal (Gaussian) distribution sampled with the Marsaglia polar method.
///
/// The polar method produces two independent variates per acceptance; the
/// spare is cached per *call pair* is not kept (the struct is immutable), so
/// each call performs its own rejection loop. This keeps the sampler `Sync`
/// and trivially usable from multiple threads with independent RNGs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution with the given mean and standard
    /// deviation. `std_dev` must be finite and non-negative.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, DistError> {
        if !mean.is_finite() {
            return Err(DistError("normal mean must be finite"));
        }
        if !std_dev.is_finite() || std_dev < 0.0 {
            return Err(DistError("normal std_dev must be finite and >= 0"));
        }
        Ok(Self { mean, std_dev })
    }

    /// Samples one variate.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std_dev * standard_normal(rng)
    }

    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The distribution standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }
}

/// Samples a standard normal variate via the Marsaglia polar method.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u = rng.gen_range(-1.0f64..1.0);
        let v = rng.gen_range(-1.0f64..1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Advances `rng` past `n` calls of [`standard_normal`] without computing
/// them: the same pair draws and the same acceptance test `u² + v² ∈ (0, 1)`,
/// but no `ln` or `sqrt`, and no branch on the outcome — an accepted pair
/// just counts. Afterwards `rng` is exactly where the `n` samples would have
/// left it, so a clone taken here generates sample `n` onwards. This is
/// what lets a long stream of normals be split into independently
/// generated chunks (`asgd_tensor::init::layers_init`).
pub fn skip_standard_normals<R: Rng + ?Sized>(rng: &mut R, n: usize) {
    let mut left = n;
    while left > 0 {
        let u = rng.gen_range(-1.0f64..1.0);
        let v = rng.gen_range(-1.0f64..1.0);
        let s = u * u + v * v;
        left -= usize::from((s > 0.0) & (s < 1.0));
    }
}

/// Log-normal distribution: `exp(N(mu, sigma))`.
///
/// Used by the GPU simulator's jitter process and by the synthetic dataset
/// generator for per-sample non-zero counts, both of which the paper
/// identifies as right-skewed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    norm: Normal,
}

impl LogNormal {
    /// Creates a log-normal from the parameters of the underlying normal.
    pub fn new(mu: f64, sigma: f64) -> Result<Self, DistError> {
        Ok(Self {
            norm: Normal::new(mu, sigma)?,
        })
    }

    /// Creates a log-normal whose *resulting* distribution has the given mean
    /// and coefficient of variation `cv = std/mean` (both must be positive,
    /// `cv` may be zero for a degenerate point mass).
    pub fn from_mean_cv(mean: f64, cv: f64) -> Result<Self, DistError> {
        if !(mean > 0.0) || !mean.is_finite() {
            return Err(DistError("log-normal mean must be positive"));
        }
        if !(cv >= 0.0) || !cv.is_finite() {
            return Err(DistError("log-normal cv must be >= 0"));
        }
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        Self::new(mu, sigma2.sqrt())
    }

    /// Samples one variate (always positive).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.norm.sample(rng).exp()
    }
}

/// Zipf distribution over ranks `1..=n` with exponent `s > 0`:
/// `P(k) ∝ k^-s`.
///
/// Sampling uses rejection-inversion (W. Hörmann & G. Derflinger,
/// "Rejection-inversion to generate variates from monotone discrete
/// distributions", 1996), which is O(1) per sample for any `n` — important
/// because the XML generators draw from label spaces with up to hundreds of
/// thousands of ranks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Zipf {
    n: u64,
    s: f64,
    // Precomputed constants of the rejection-inversion scheme.
    h_x1: f64,
    h_n: f64,
    dist: f64,
}

impl Zipf {
    /// Creates a Zipf distribution over `1..=n` with exponent `s`.
    pub fn new(n: u64, s: f64) -> Result<Self, DistError> {
        if n == 0 {
            return Err(DistError("zipf n must be >= 1"));
        }
        if !(s > 0.0) || !s.is_finite() {
            return Err(DistError("zipf exponent must be positive"));
        }
        let h = |x: f64| -> f64 { h_integral(x, s) };
        let h_x1 = h(1.5) - 1.0;
        let h_n = h(n as f64 + 0.5);
        Ok(Self {
            n,
            s,
            h_x1,
            h_n,
            dist: h_x1 - h_n,
        })
    }

    /// Number of ranks.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Exponent.
    pub fn exponent(&self) -> f64 {
        self.s
    }

    /// Samples one rank in `1..=n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        loop {
            let u = self.h_n + rng.gen::<f64>() * self.dist;
            let x = h_integral_inv(u, self.s);
            let k64 = x.round().clamp(1.0, self.n as f64);
            let k = k64 as u64;
            // Accept when u is above the hat restricted to this integer.
            if u >= h_integral(k64 + 0.5, self.s) - (-(k64.ln()) * self.s).exp()
                || u >= h_integral(k64 - 0.5, self.s)
            {
                return k;
            }
        }
    }
}

/// `H(x) = ∫ x^-s dx` — the antiderivative used by rejection-inversion,
/// written to stay numerically stable near `s = 1`.
fn h_integral(x: f64, s: f64) -> f64 {
    let log_x = x.ln();
    helper2((1.0 - s) * log_x) * log_x
}

/// Inverse of [`h_integral`].
fn h_integral_inv(x: f64, s: f64) -> f64 {
    let mut t = x * (1.0 - s);
    if t < -1.0 {
        t = -1.0;
    }
    (helper1(t) * x).exp()
}

/// `log1p(x)/x`, stable at 0.
fn helper1(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))
    }
}

/// `expm1(x)/x`, stable at 0.
fn helper2(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x * 0.5 * (1.0 + x * (1.0 / 3.0) * (1.0 + 0.25 * x))
    }
}

/// Poisson distribution.
///
/// Uses Knuth's multiplication method for small `lambda` and a normal
/// approximation (rounded, clamped at zero) for large `lambda`, which is
/// accurate enough for workload-size draws.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Creates a Poisson distribution with rate `lambda > 0`.
    pub fn new(lambda: f64) -> Result<Self, DistError> {
        if !(lambda > 0.0) || !lambda.is_finite() {
            return Err(DistError("poisson lambda must be positive"));
        }
        Ok(Self { lambda })
    }

    /// Samples one count.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.lambda < 30.0 {
            let l = (-self.lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0f64;
            loop {
                p *= rng.gen::<f64>();
                if p <= l {
                    return k;
                }
                k += 1;
            }
        } else {
            let x = self.lambda + self.lambda.sqrt() * standard_normal(rng);
            x.round().max(0.0) as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn normal_rejects_bad_params() {
        assert!(Normal::new(f64::NAN, 1.0).is_err());
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(0.0, f64::INFINITY).is_err());
    }

    #[test]
    fn normal_moments_match() {
        let d = Normal::new(3.0, 2.0).unwrap();
        let mut r = rng(1);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let x = d.sample(&mut r);
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!((mean - 3.0).abs() < 0.03, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn skipping_normals_leaves_the_stream_where_sampling_does() {
        for n in [0usize, 1, 2, 7, 1000] {
            let (mut sampled, mut skipped) = (rng(9), rng(9));
            for _ in 0..n {
                standard_normal(&mut sampled);
            }
            skip_standard_normals(&mut skipped, n);
            assert_eq!(skipped, sampled, "after {n} samples");
        }
    }

    #[test]
    fn normal_zero_stddev_is_degenerate() {
        let d = Normal::new(5.0, 0.0).unwrap();
        let mut r = rng(2);
        for _ in 0..10 {
            assert_eq!(d.sample(&mut r), 5.0);
        }
    }

    #[test]
    fn lognormal_positive_and_mean_cv() {
        let d = LogNormal::from_mean_cv(76.0, 0.8).unwrap();
        let mut r = rng(3);
        let n = 200_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = d.sample(&mut r);
            assert!(x > 0.0);
            sum += x;
        }
        let mean = sum / n as f64;
        assert!((mean - 76.0).abs() / 76.0 < 0.02, "mean {mean}");
    }

    #[test]
    fn lognormal_rejects_bad_params() {
        assert!(LogNormal::from_mean_cv(0.0, 1.0).is_err());
        assert!(LogNormal::from_mean_cv(1.0, -0.5).is_err());
    }

    #[test]
    fn zipf_rank_bounds() {
        let d = Zipf::new(1000, 1.2).unwrap();
        let mut r = rng(4);
        for _ in 0..50_000 {
            let k = d.sample(&mut r);
            assert!((1..=1000).contains(&k));
        }
    }

    #[test]
    fn zipf_is_monotone_decreasing_in_rank() {
        let d = Zipf::new(100, 1.0).unwrap();
        let mut r = rng(5);
        let mut counts = [0u64; 101];
        for _ in 0..400_000 {
            counts[d.sample(&mut r) as usize] += 1;
        }
        // Rank 1 must dominate rank 10 must dominate rank 100.
        assert!(counts[1] > counts[10]);
        assert!(counts[10] > counts[100]);
        // Ratio P(1)/P(2) should be close to 2 for s = 1.
        let ratio = counts[1] as f64 / counts[2] as f64;
        assert!((ratio - 2.0).abs() < 0.25, "ratio {ratio}");
    }

    #[test]
    fn zipf_n_one_always_returns_one() {
        let d = Zipf::new(1, 2.0).unwrap();
        let mut r = rng(6);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut r), 1);
        }
    }

    #[test]
    fn zipf_rejects_bad_params() {
        assert!(Zipf::new(0, 1.0).is_err());
        assert!(Zipf::new(10, 0.0).is_err());
        assert!(Zipf::new(10, f64::NAN).is_err());
    }

    #[test]
    fn poisson_small_lambda_mean() {
        let d = Poisson::new(4.5).unwrap();
        let mut r = rng(7);
        let n = 100_000;
        let mut sum = 0u64;
        for _ in 0..n {
            sum += d.sample(&mut r);
        }
        let mean = sum as f64 / n as f64;
        assert!((mean - 4.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn poisson_large_lambda_mean() {
        let d = Poisson::new(300.0).unwrap();
        let mut r = rng(8);
        let n = 50_000;
        let mut sum = 0u64;
        for _ in 0..n {
            sum += d.sample(&mut r);
        }
        let mean = sum as f64 / n as f64;
        assert!((mean - 300.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn determinism_across_identical_seeds() {
        let d = Zipf::new(5000, 1.1).unwrap();
        let a: Vec<u64> = {
            let mut r = rng(99);
            (0..100).map(|_| d.sample(&mut r)).collect()
        };
        let b: Vec<u64> = {
            let mut r = rng(99);
            (0..100).map(|_| d.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
