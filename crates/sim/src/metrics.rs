//! Small aggregation helpers shared by the scenario drivers.

/// Mean of a slice; 0 for empty input.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// A streaming ratio counter (numerator over denominator).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ratio {
    /// Numerator.
    pub hits: u64,
    /// Denominator.
    pub total: u64,
}

impl Ratio {
    /// Records one observation.
    pub fn record(&mut self, hit: bool) {
        self.total += 1;
        if hit {
            self.hits += 1;
        }
    }

    /// The ratio; 0 when nothing was recorded.
    pub fn value(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.hits as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_slices() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn ratio_counts() {
        let mut r = Ratio::default();
        assert_eq!(r.value(), 0.0);
        r.record(true);
        r.record(false);
        r.record(true);
        assert!((r.value() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.total, 3);
    }
}
