//! Stage spans: the snapshot types for wall-clock brackets around every
//! engine stage, per job and per rank.
//!
//! Where the [`Trace`](crate::trace::Trace) records *what moved*, spans
//! record *where time went*. The fabric's one
//! [`TraceCollector`](crate::trace::TraceCollector) records both against
//! one stage table: each
//! [`Communicator::set_stage`](crate::comm::Communicator::set_stage) call
//! closes the rank's open span and opens the next, so the engines'
//! per-stage annotations are the only stage clock. A [`SpanLog`] is what
//! readers get back — one job's spans in
//! [`ClusterRun::spans`](crate::cluster::ClusterRun::spans), or the
//! collector's bounded history ring — and the engines' stage walls,
//! `cts stats` and the Chrome timeline are all computed from it.
//!
//! ```
//! use cts_net::span::{SpanLog, StageSpan};
//!
//! let log = SpanLog {
//!     names: vec!["Map".to_string()],
//!     spans: vec![StageSpan { job: 1, rank: 0, stage: 0, start_ns: 10, end_ns: 40 }],
//! };
//! assert_eq!(log.stage_durations_ns("Map"), vec![30]);
//! assert_eq!(log.for_job(1).stage_name(0), "Map");
//! ```

/// One closed stage bracket on one rank of one job. Times are nanoseconds
/// since the owning collector's origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageSpan {
    /// The job this span belongs to (0 for exclusive/one-shot runs).
    pub job: u32,
    /// The rank whose stage this is.
    pub rank: u16,
    /// Index into the collector's interned stage names.
    pub stage: u16,
    /// Span open time (ns since collector origin).
    pub start_ns: u64,
    /// Span close time (ns since collector origin).
    pub end_ns: u64,
}

impl StageSpan {
    /// The span's duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A snapshot of recorded spans plus the stage-name table.
#[derive(Clone, Debug, Default)]
pub struct SpanLog {
    /// Stage names, indexed by [`StageSpan::stage`].
    pub names: Vec<String>,
    /// Retained spans, oldest first.
    pub spans: Vec<StageSpan>,
}

impl SpanLog {
    /// The stage name for index `idx` (`"?"` when out of range).
    pub fn stage_name(&self, idx: u16) -> &str {
        self.names.get(idx as usize).map_or("?", |s| s.as_str())
    }

    /// The stage index for `name`, if any span used it.
    pub fn stage_index(&self, name: &str) -> Option<u16> {
        self.names.iter().position(|s| s == name).map(|i| i as u16)
    }

    /// The log restricted to one job's spans (name table shared).
    pub fn for_job(&self, job: u32) -> SpanLog {
        SpanLog {
            names: self.names.clone(),
            spans: self
                .spans
                .iter()
                .filter(|s| s.job == job)
                .copied()
                .collect(),
        }
    }

    /// Distinct job ids present, ascending.
    pub fn jobs(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.spans.iter().map(|s| s.job).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Per-rank durations (ns) of the named stage, one sample per span —
    /// the sample set `cts stats` feeds into a latency histogram.
    pub fn stage_durations_ns(&self, name: &str) -> Vec<u64> {
        let Some(idx) = self.stage_index(name) else {
            return Vec::new();
        };
        self.spans
            .iter()
            .filter(|s| s.stage == idx)
            .map(|s| s.dur_ns())
            .collect()
    }

    /// The stage's wall-clock extent across ranks: latest end minus
    /// earliest start (ns). This is the paper's per-stage breakdown
    /// convention — a stage lasts until its slowest rank finishes.
    pub fn stage_wall_ns(&self, name: &str) -> u64 {
        let Some(idx) = self.stage_index(name) else {
            return 0;
        };
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for s in self.spans.iter().filter(|s| s.stage == idx) {
            lo = lo.min(s.start_ns);
            hi = hi.max(s.end_ns);
        }
        hi.saturating_sub(lo)
    }

    /// Stage names in first-appearance order among the retained spans.
    pub fn stages_in_order(&self) -> Vec<&str> {
        let mut seen: Vec<u16> = Vec::new();
        for s in &self.spans {
            if !seen.contains(&s.stage) {
                seen.push(s.stage);
            }
        }
        seen.into_iter().map(|i| self.stage_name(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(job: u32, rank: u16, stage: u16, start: u64, end: u64) -> StageSpan {
        StageSpan {
            job,
            rank,
            stage,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn job_filter_and_stage_queries() {
        let (map, shuffle) = (0, 1);
        let log = SpanLog {
            names: vec!["Map".to_string(), "Shuffle".to_string()],
            spans: vec![
                span(1, 0, map, 0, 100),
                span(2, 0, map, 10, 40),
                span(1, 1, map, 5, 120),
                span(1, 0, shuffle, 120, 200),
            ],
        };
        assert_eq!(log.jobs(), vec![1, 2]);
        let j1 = log.for_job(1);
        assert_eq!(j1.spans.len(), 3);
        assert_eq!(j1.stage_durations_ns("Map"), vec![100, 115]);
        // Wall extent: earliest Map start 0, latest Map end 120.
        assert_eq!(j1.stage_wall_ns("Map"), 120);
        assert_eq!(j1.stages_in_order(), vec!["Map", "Shuffle"]);
        assert_eq!(log.for_job(2).stage_durations_ns("Map"), vec![30]);
        assert!(log.for_job(9).spans.is_empty());
    }

    #[test]
    fn unknown_stage_queries_are_empty() {
        let log = SpanLog::default();
        assert_eq!(log.stage_wall_ns("Nope"), 0);
        assert!(log.stage_durations_ns("Nope").is_empty());
        assert_eq!(log.stage_name(7), "?");
    }
}
