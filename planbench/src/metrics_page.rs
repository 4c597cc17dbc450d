//! Deltas of the daemon's `GET /metrics` exposition page over a timed
//! phase: counters, and per-stage histogram means and bucket quantiles.

use std::collections::BTreeMap;

/// One scraped page: series (`name{labels}`) to value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Page(BTreeMap<String, f64>);

impl Page {
    /// Parses `series value` lines; comments and malformed lines are
    /// skipped.
    pub fn parse(text: &str) -> Page {
        Page(
            text.lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| l.rsplit_once(' '))
                .filter_map(|(k, v)| Some((k.trim().to_string(), v.trim().parse().ok()?)))
                .collect(),
        )
    }

    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// `self - before`, series by series.
    pub fn delta(&self, before: &Page) -> Page {
        Page(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.get(k)))
                .collect(),
        )
    }

    /// Observations recorded for a stage histogram.
    pub fn stage_count(&self, stage: &str) -> f64 {
        self.get(&format!("xhc_stage_latency_ns_count{{stage=\"{stage}\"}}"))
    }

    /// Mean of a stage histogram in milliseconds; 0 with no
    /// observations.
    pub fn stage_mean_ms(&self, stage: &str) -> f64 {
        let count = self.stage_count(stage);
        if count == 0.0 {
            return 0.0;
        }
        self.get(&format!("xhc_stage_latency_ns_sum{{stage=\"{stage}\"}}")) / count / 1e6
    }

    /// Upper bound, in milliseconds, of the bucket holding the `q`
    /// quantile of a stage histogram (twice the last finite bound for
    /// the `+Inf` bucket, as the daemon's own estimate does); 0 with no
    /// observations.
    pub fn stage_quantile_ms(&self, stage: &str, q: f64) -> f64 {
        let count = self.stage_count(stage);
        if count == 0.0 {
            return 0.0;
        }
        let prefix = format!("xhc_stage_latency_ns_bucket{{stage=\"{stage}\",le=\"");
        let mut buckets: Vec<(f64, f64)> = self
            .0
            .iter()
            .filter_map(|(k, &v)| {
                let le = k.strip_prefix(&prefix)?.strip_suffix("\"}")?;
                Some((le.parse().unwrap_or(f64::INFINITY), v))
            })
            .collect();
        buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
        let target = (q * count).ceil().max(1.0);
        let last_finite = buckets
            .iter()
            .rev()
            .find(|b| b.0.is_finite())
            .map_or(0.0, |b| b.0);
        let bound = buckets
            .iter()
            .find(|&&(_, cumulative)| cumulative >= target)
            .map_or(f64::INFINITY, |b| b.0);
        let bound = if bound.is_finite() {
            bound
        } else {
            2.0 * last_finite
        };
        bound / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = include_str!("../tests/fixtures/metrics_before.txt");
    const AFTER: &str = include_str!("../tests/fixtures/metrics_after.txt");

    #[test]
    fn delta_of_captured_pages() {
        let before = Page::parse(BEFORE);
        let after = Page::parse(AFTER);
        let d = after.delta(&before);
        let hits = d.get("xhc_cache_hits_total");
        let misses = d.get("xhc_cache_misses_total");
        assert_eq!(hits + misses, d.stage_count("decode"));
        assert_eq!(d.get("xhc_requests_total"), d.stage_count("total"));
        assert_eq!(
            d.get("xhc_responses_total{status=\"200\"}"),
            d.get("xhc_requests_total")
        );
        for stage in ["queue_wait", "decode", "lint", "total"] {
            let mean = d.stage_mean_ms(stage);
            let p99 = d.stage_quantile_ms(stage, 0.99);
            assert!(mean > 0.0, "{stage}");
            assert!(p99 > 0.0 && p99.is_finite(), "{stage}");
        }
        // Route time covers its stages.
        assert!(d.stage_mean_ms("total") > d.stage_mean_ms("lint"));
        assert_eq!(d.stage_mean_ms("verify"), 0.0);
    }

    #[test]
    fn quantile_walks_cumulative_buckets() {
        let page = Page::parse(
            "xhc_stage_latency_ns_bucket{stage=\"t\",le=\"10000\"} 90\n\
             xhc_stage_latency_ns_bucket{stage=\"t\",le=\"50000\"} 99\n\
             xhc_stage_latency_ns_bucket{stage=\"t\",le=\"5000000000\"} 99\n\
             xhc_stage_latency_ns_bucket{stage=\"t\",le=\"+Inf\"} 100\n\
             xhc_stage_latency_ns_sum{stage=\"t\"} 2000000\n\
             xhc_stage_latency_ns_count{stage=\"t\"} 100\n\
             # comment\n",
        );
        assert_eq!(page.stage_quantile_ms("t", 0.5), 0.01);
        assert_eq!(page.stage_quantile_ms("t", 0.99), 0.05);
        assert_eq!(page.stage_quantile_ms("t", 1.0), 10_000.0);
        assert_eq!(page.stage_mean_ms("t"), 0.02);
        assert_eq!(page.stage_mean_ms("absent"), 0.0);
    }
}
