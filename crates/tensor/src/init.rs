//! Seeded weight initialization.
//!
//! The paper initializes every algorithm from the *same* model whose weights
//! are drawn from a normal distribution with standard deviation derived from
//! the layer's unit count (§V-A). These helpers reproduce that scheme with an
//! explicit RNG so all algorithms can share one initial model bit-for-bit.

use asgd_stats::Normal;
use rand::Rng;

/// Fills a layer's weights in place, in order, with the paper's scheme:
/// `N(0, 1 / sqrt(fan_in))` samples, where `fan_in` is the number of units
/// feeding the layer (the rows of a `fan_in × units` weight block).
pub fn layer_init<R: Rng + ?Sized>(out: &mut [f32], fan_in: usize, rng: &mut R) {
    let std_dev = 1.0 / (fan_in.max(1) as f64).sqrt();
    let dist = Normal::new(0.0, std_dev).expect("invalid std_dev");
    for v in out {
        *v = dist.sample(rng) as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn layer(rows: usize, cols: usize, seed: u64) -> Vec<f32> {
        let mut w = vec![0.0; rows * cols];
        layer_init(&mut w, rows, &mut StdRng::seed_from_u64(seed));
        w
    }

    #[test]
    fn init_is_deterministic_per_seed() {
        assert_eq!(layer(16, 8, 7), layer(16, 8, 7));
        assert_ne!(layer(16, 8, 7), layer(16, 8, 8));
    }

    #[test]
    fn init_std_matches_fan_in() {
        let m = layer(400, 50, 1);
        let n = m.len() as f64;
        let mean: f64 = m.iter().map(|&x| x as f64).sum::<f64>() / n;
        let var: f64 = m.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n;
        let want = 1.0 / 400.0;
        assert!(mean.abs() < 0.002, "mean {mean}");
        assert!((var - want).abs() / want < 0.1, "var {var} want {want}");
    }
}
