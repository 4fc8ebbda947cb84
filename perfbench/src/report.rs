//! What a pass measured and checked, and the order statistics behind it.

/// Length of the windows a measured phase is cut into. Rates, CPU costs
/// and latency medians are computed per window and reported as the
/// median over windows, so a transient stall moves one window, not the
/// run.
pub const WINDOW_S: f64 = 1.0;

/// Metrics, failed checks and operation counts gathered by one pass.
#[derive(Debug, Default)]
pub struct Report {
    /// `(name, value, unit)` in the order measured.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Correctness checks that failed, as human-readable reasons.
    pub failures: Vec<String>,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Of those, operations that failed (Busy, Error, transport).
    pub failed: u64,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .rev()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    pub fn absorb(&mut self, other: Report) {
        self.metrics.extend(other.metrics);
        self.failures.extend(other.failures);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
