//! Metric collection, order statistics and the result line.

use std::collections::BTreeMap;

/// Quantile `q` in [0, 1] by linear interpolation between order
/// statistics (NaN for no samples).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size (`VmHWM`) of this process, in bytes.
pub fn peak_rss_bytes() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb * 1024.0)
}

/// Named metrics with units, kept in name order.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|&(v, _)| v)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&String, &(f64, &'static str))> {
        self.0.iter()
    }
}

/// Request and correctness accounting of one run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks, by description.
    pub check_failures: Vec<String>,
}

impl Tally {
    /// Count one request; `ok == false` counts it failed.
    pub fn request(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record a correctness check outside any single request.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            let what = what.into();
            eprintln!("e2e_profile: CHECK FAILED: {what}");
            self.check_failures.push(what);
        }
    }

    /// A request that also carries a check: counted, and a failure is
    /// recorded by description.
    pub fn checked_request(&mut self, ok: bool, what: impl Into<String>) {
        self.request(ok);
        self.check(ok, what);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty()
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints the shortest string that round-trips: all digits.
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(tally: &Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, &(v, unit))| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct(),
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}
