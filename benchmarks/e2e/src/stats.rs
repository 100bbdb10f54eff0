//! Median and quartiles, computed the way Python's `statistics` module does
//! (`median`, and `quantiles(values, n=4)` with its default exclusive method),
//! so a spread computed here equals the one a reader computes from the raw
//! values.

use std::time::Instant;

/// Order statistics of one metric over the repetitions of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summary of `values`; a single value is its own quartiles.
    ///
    /// # Panics
    /// Panics on an empty slice or a NaN.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "summary of no values");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a measured value"));
        let n = v.len();
        let quartile = |i: usize| -> f64 {
            if n == 1 {
                return v[0];
            }
            // statistics.quantiles, method="exclusive": position i·(n+1)/4.
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            n,
            min: v[0],
            q1: quartile(1),
            median: if n % 2 == 1 {
                v[n / 2]
            } else {
                (v[n / 2 - 1] + v[n / 2]) / 2.0
            },
            q3: quartile(3),
            max: v[n - 1],
        }
    }

    /// A value that is not a sample of repeated timing (a count, a simulated
    /// quantity that repeats exactly).
    pub fn single(value: f64) -> Self {
        Summary::of(&[value])
    }

    /// Distance between the quartiles.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Calls `f` `n` times (at least once); returns the last result and the
/// host seconds of each call.
pub fn timed_n<T>(n: usize, mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    timed_for(0.0, n.max(1), &mut f, |_| {})
}

/// Calls `f` at least `min_reps` times, and on until `seconds` have been
/// measured; `each` sees every result outside the timed region. Returns the
/// last result and the host seconds of each call.
pub fn timed_for<T>(
    seconds: f64,
    min_reps: usize,
    mut f: impl FnMut() -> T,
    mut each: impl FnMut(&T),
) -> (T, Vec<f64>) {
    let mut secs = Vec::new();
    let mut last = None;
    let began = Instant::now();
    while secs.len() < min_reps.max(1) || began.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let out = f();
        secs.push(t.elapsed().as_secs_f64());
        each(&out);
        last = Some(out);
    }
    (last.expect("at least one call"), secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_calls_count_and_keep_the_last_result() {
        let mut calls = 0;
        let (last, secs) = timed_n(3, || {
            calls += 1;
            calls
        });
        assert_eq!((last, secs.len()), (3, 3));
        let mut seen = Vec::new();
        let (_, secs) = timed_for(0.0, 2, || 7, |v| seen.push(*v));
        assert_eq!((secs.len(), seen), (2, vec![7, 7]));
        assert_eq!(timed_n(0, || ()).1.len(), 1);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        assert_eq!((s.min, s.max, s.n), (1.0, 5.0, 5));
        // statistics.quantiles([10,20,30,40,50,60,70,80,90,100], n=4)
        //   == [27.5, 55.0, 82.5]
        let v: Vec<f64> = (1..=10).map(|i| (i * 10) as f64).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (27.5, 55.0, 82.5));
        assert_eq!(s.iqr(), 55.0);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn even_count_median_averages_the_middle_pair() {
        assert_eq!(Summary::of(&[4.0, 1.0, 3.0, 2.0]).median, 2.5);
    }

    #[test]
    fn single_value_is_its_own_summary() {
        let s = Summary::single(7.25);
        assert_eq!(
            (s.n, s.min, s.q1, s.median, s.q3, s.max),
            (1, 7.25, 7.25, 7.25, 7.25, 7.25)
        );
        assert_eq!(s.iqr(), 0.0);
    }
}
