//! Robust summaries of the timings a run collects.

use std::collections::BTreeMap;

/// Median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        0.5 * (sorted[mid - 1] + sorted[mid])
    } else {
        sorted[mid]
    }
}

/// Items per second of an operation mix, robust to slow outliers.
///
/// Operations of one kind do the same work, but the host's speed drifts
/// over seconds; the rate is the items of one operation of every kind over
/// the sum of each kind's median time, so a few slow operations do not move
/// it and a run that did a kind once more than another run is not skewed.
#[derive(Debug, Default)]
pub struct KindRates {
    kinds: BTreeMap<u64, (f64, Vec<f64>)>,
}

impl KindRates {
    /// Records one operation of `kind` that made `items` in `seconds`.
    pub fn record(&mut self, kind: u64, items: f64, seconds: f64) {
        let entry = self.kinds.entry(kind).or_insert((items, Vec::new()));
        entry.0 = items;
        entry.1.push(seconds);
    }

    /// The mix's items per second (0 before any operation).
    pub fn rate(&self) -> f64 {
        let items: f64 = self.kinds.values().map(|(items, _)| items).sum();
        let seconds: f64 = self.kinds.values().map(|(_, s)| median(s)).sum();
        if seconds > 0.0 {
            items / seconds
        } else {
            0.0
        }
    }
}
