//! Order statistics over timing samples.
//!
//! Interference on the shared host is one-sided (a sample is only ever
//! slowed down), so every gated time is the lower quartile of its
//! samples; the median and p90 are printed beside it.

/// Timing samples of one quantity, in measurement order.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new() -> Samples {
        Samples(Vec::new())
    }

    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Quantile `q` in `[0, 1]` by linear interpolation between order
    /// statistics; 0 for an empty set (a layer that never ran).
    pub fn quantile(&self, q: f64) -> f64 {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        match v.len() {
            0 => 0.0,
            n => {
                let pos = q * (n - 1) as f64;
                let lo = pos.floor() as usize;
                let hi = pos.ceil() as usize;
                v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
            }
        }
    }

    pub fn p25(&self) -> f64 {
        self.quantile(0.25)
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Samples {
        Samples(iter.into_iter().collect())
    }
}

/// Times of a fixed set of operations, each run once per pass.
///
/// The gated figure is each operation at its *fastest* observed time:
/// interference on the shared host only ever adds time and comes in
/// bursts shorter than a run, so the per-operation minimum over the
/// passes is the steadiest estimate of what the code costs (measured:
/// see README, "Why the fastest time of each operation").
#[derive(Debug, Clone)]
pub struct OpTimes(Vec<Samples>);

impl OpTimes {
    pub fn new(ops: usize) -> OpTimes {
        OpTimes(vec![Samples::new(); ops])
    }

    pub fn push(&mut self, op: usize, seconds: f64) {
        self.0[op].push(seconds);
    }

    /// Fastest observed time of operation `op`.
    pub fn best(&self, op: usize) -> f64 {
        self.0[op].quantile(0.0)
    }

    /// One pass with every operation at its fastest.
    pub fn best_sum(&self) -> f64 {
        (0..self.0.len()).map(|i| self.best(i)).sum()
    }

    /// Median over the operations of their fastest times.
    pub fn best_median(&self) -> f64 {
        (0..self.0.len())
            .map(|i| self.best(i))
            .collect::<Samples>()
            .p50()
    }
}

/// Geometric mean — the average of ratios to a baseline.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s: Samples = [4.0, 1.0, 3.0, 2.0].into_iter().collect();
        assert_eq!(s.p50(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
        assert_eq!(s.p25(), 1.75);
        assert_eq!(Samples::new().p25(), 0.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
