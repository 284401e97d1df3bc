//! Order statistics over timing samples.

/// Timing samples of one quantity, in milliseconds or seconds as the
/// caller records them.
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn median(&self) -> Option<f64> {
        let v = self.sorted();
        let n = v.len();
        match n {
            0 => None,
            _ if n % 2 == 1 => Some(v[n / 2]),
            _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
        }
    }

    /// Nearest-rank percentile `p` in (0, 1), or `None` when fewer than
    /// ten samples lie beyond it — a tail read from fewer is noise.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        let n = self.len();
        if (n as f64) * (1.0 - p) < 10.0 - 1e-9 {
            return None;
        }
        let v = self.sorted();
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
        Some(v[rank - 1])
    }

    pub fn max(&self) -> Option<f64> {
        self.0.iter().copied().reduce(f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(Samples(vec![3.0, 1.0, 2.0]).median(), Some(2.0));
        assert_eq!(Samples(vec![4.0, 1.0, 2.0, 3.0]).median(), Some(2.5));
        assert_eq!(Samples::default().median(), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let s = Samples((1..=99).map(f64::from).collect());
        assert_eq!(s.percentile(0.9), None);
        let s = Samples((1..=100).map(f64::from).collect());
        assert_eq!(s.percentile(0.9), Some(90.0));
        assert_eq!(s.percentile(0.99), None);
        let s = Samples((1..=1000).map(f64::from).collect());
        assert_eq!(s.percentile(0.99), Some(990.0));
    }
}
