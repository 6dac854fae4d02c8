//! The statistics of the `pairs` bin: alternated parent/change runs of one
//! benchmark workload, and whether they show a gain.
//!
//! Two sittings of the same code can differ by more than a change does, so
//! a gain is argued from *pairs*: each pair runs the parent and the change
//! back to back (which runs first alternates), and over at least
//! [`MIN_PAIRS`] pairs the change must win nine in ten.  Its median must
//! also beat the parent's by more than the parent's own inter-quartile
//! distance, so that a gain is larger than the spread of the code it is
//! measured against.

/// The fewest pairs a gain can rest on.
pub const MIN_PAIRS: usize = 10;

/// Whether a smaller or a larger value of the metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Times, costs, sizes.
    Lower,
    /// Rates.
    Higher,
}

impl Better {
    /// Whether `change` is better than `parent`.
    #[must_use]
    pub fn wins(self, change: f64, parent: f64) -> bool {
        match self {
            Better::Lower => change < parent,
            Better::Higher => change > parent,
        }
    }
}

/// The benchmark's end-to-end metrics and which way each is better.
pub const END_TO_END: [(&str, Better); 5] = [
    ("op_ms", Better::Lower),
    ("work_per_s", Better::Higher),
    ("cpu_s", Better::Lower),
    ("peak_rss_mb", Better::Lower),
    ("setup_s", Better::Lower),
];

/// Which way `metric` is better, if it is one of the [`END_TO_END`]
/// metrics a gain can be claimed on.
#[must_use]
pub fn direction(metric: &str) -> Option<Better> {
    END_TO_END
        .iter()
        .find(|(name, _)| *name == metric)
        .map(|&(_, better)| better)
}

/// The median and quartiles of one side's runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Spread {
    /// The quartiles of `samples`, linearly interpolated between order
    /// statistics (the "type 7" rule of most statistics packages).
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or a NaN.
    #[must_use]
    pub fn of(samples: &[f64]) -> Spread {
        assert!(!samples.is_empty(), "a spread needs at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
        let at = |q: f64| {
            let pos = q * (sorted.len() - 1) as f64;
            let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        };
        Spread {
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
        }
    }

    /// The inter-quartile distance.
    #[must_use]
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// What a set of pairs shows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs run.
    pub pairs: usize,
    /// The parent's runs.
    pub parent: Spread,
    /// The change's runs.
    pub change: Spread,
    /// At least [`MIN_PAIRS`] pairs, nine wins in ten, and the medians
    /// apart by more than the parent's inter-quartile distance, in the
    /// better direction.
    pub gain: bool,
}

impl Verdict {
    /// Judges `pairs` of `(parent, change)` values of a metric.
    ///
    /// # Panics
    ///
    /// Panics on no pairs.
    #[must_use]
    pub fn of(pairs: &[(f64, f64)], better: Better) -> Verdict {
        let parent = Spread::of(&pairs.iter().map(|p| p.0).collect::<Vec<_>>());
        let change = Spread::of(&pairs.iter().map(|p| p.1).collect::<Vec<_>>());
        let wins = pairs.iter().filter(|(p, c)| better.wins(*c, *p)).count();
        let apart = (change.median - parent.median).abs() > parent.iqr();
        let gain = pairs.len() >= MIN_PAIRS
            && wins * 10 >= pairs.len() * 9
            && apart
            && better.wins(change.median, parent.median);
        Verdict {
            wins,
            pairs: pairs.len(),
            parent,
            change,
            gain,
        }
    }
}

/// The value of `metric` in a benchmark result line
/// (`{"correct": …, "metrics": {"op_ms": {"value": 61.2, "unit": "ms"}, …}}`).
#[must_use]
pub fn metric_value(json: &str, metric: &str) -> Option<f64> {
    let key = format!("\"{metric}\": {{\"value\": ");
    let rest = &json[json.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// The number after `"field": ` at the top of a result line.
#[must_use]
pub fn field(json: &str, field: &str) -> Option<u64> {
    let key = format!("\"{field}\": ");
    let rest = &json[json.find(&key)? + key.len()..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate_between_order_statistics() {
        let spread = Spread::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(
            spread,
            Spread {
                q1: 2.0,
                median: 3.0,
                q3: 4.0
            }
        );
        let even = Spread::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(
            even,
            Spread {
                q1: 1.75,
                median: 2.5,
                q3: 3.25
            }
        );
        assert_eq!(Spread::of(&[7.0]).iqr(), 0.0);
    }

    fn pairs(parent: &[f64], change: &[f64]) -> Vec<(f64, f64)> {
        parent.iter().copied().zip(change.iter().copied()).collect()
    }

    const PARENT: [f64; 10] = [90.0, 95.0, 92.0, 97.0, 91.0, 94.0, 93.0, 96.0, 90.0, 95.0];

    #[test]
    fn nine_wins_and_medians_apart_by_more_than_the_parents_iqr_is_a_gain() {
        let mut change = [62.0; 10];
        change[3] = 99.0; // one loss in ten is allowed
        let verdict = Verdict::of(&pairs(&PARENT, &change), Better::Lower);
        assert_eq!((verdict.wins, verdict.pairs), (9, 10));
        assert!(verdict.gain);
    }

    #[test]
    fn two_losses_in_ten_are_no_gain() {
        let mut change = [62.0; 10];
        change[3] = 99.0;
        change[7] = 99.0;
        let verdict = Verdict::of(&pairs(&PARENT, &change), Better::Lower);
        assert_eq!(verdict.wins, 8);
        assert!(!verdict.gain);
    }

    #[test]
    fn a_gain_inside_the_parents_spread_is_no_gain() {
        // Every pair won, by less than the parent's inter-quartile distance.
        let change: Vec<f64> = PARENT.iter().map(|p| p - 1.0).collect();
        let verdict = Verdict::of(&pairs(&PARENT, &change), Better::Lower);
        assert_eq!(verdict.wins, 10);
        assert!(verdict.parent.iqr() > 1.0);
        assert!(!verdict.gain);
    }

    #[test]
    fn fewer_than_ten_pairs_are_no_gain() {
        let verdict = Verdict::of(&pairs(&PARENT[..9], &[62.0; 9]), Better::Lower);
        assert_eq!(verdict.wins, 9);
        assert!(!verdict.gain);
    }

    #[test]
    fn the_direction_is_the_metrics() {
        let change: Vec<f64> = PARENT.iter().map(|p| p * 1.5).collect();
        assert!(Verdict::of(&pairs(&PARENT, &change), Better::Higher).gain);
        let verdict = Verdict::of(&pairs(&PARENT, &change), Better::Lower);
        assert_eq!(verdict.wins, 0);
        assert!(!verdict.gain);
    }

    #[test]
    fn each_end_to_end_metric_is_judged_in_its_own_direction() {
        assert_eq!(direction("op_ms"), Some(Better::Lower));
        assert_eq!(direction("work_per_s"), Some(Better::Higher));
        assert_eq!(direction("peak_rss_mb"), Some(Better::Lower));
        assert_eq!(direction("spill_batches"), None);
        // A throughput drop is no gain on `work_per_s`, though every pair
        // has the smaller value.
        let parent = [16.0, 16.5, 15.8, 16.2, 16.1, 15.9, 16.4, 16.0, 16.3, 15.7];
        let change: Vec<f64> = parent.iter().map(|p| p / 1.5).collect();
        let better = direction("work_per_s").expect("an end-to-end metric");
        let verdict = Verdict::of(&pairs(&parent, &change), better);
        assert_eq!(verdict.wins, 0);
        assert!(!verdict.gain);
        let verdict = Verdict::of(&pairs(&change, &parent), better);
        assert_eq!(verdict.wins, 10);
        assert!(verdict.gain);
    }

    #[test]
    fn values_come_out_of_a_result_line() {
        let line = "{\"correct\": true, \"attempted\": 190, \"failed\": 0, \"metrics\": \
                    {\"op_ms\": {\"value\": 61.25, \"unit\": \"ms\"}, \
                    \"work_per_s\": {\"value\": 16.3, \"unit\": \"1/s\"}}}";
        assert_eq!(metric_value(line, "op_ms"), Some(61.25));
        assert_eq!(metric_value(line, "work_per_s"), Some(16.3));
        assert_eq!(metric_value(line, "cpu_s"), None);
        assert_eq!(field(line, "attempted"), Some(190));
        assert_eq!(field(line, "failed"), Some(0));
    }
}
