//! Batch submission: many [`CheckRequest`]s in, one ordered
//! [`BatchReport`] out.
//!
//! A [`BatchRequest`] is an ordered collection of requests;
//! [`Session::run_batch`](crate::Session::run_batch) schedules them all
//! concurrently over the session's worker pool and returns the reports
//! in submission order (deterministic regardless of completion order),
//! together with [`BatchStats`] aggregates. [`BatchRequest::litmus_dir`]
//! is the loader the `c11check --litmus <dir>` batch mode is built on.

use crate::json::Json;
use crate::{CheckError, CheckReport, CheckRequest};
use c11_explore::Stats;
use std::time::Duration;

/// An ordered collection of requests to run as one batch.
#[derive(Clone, Debug, Default)]
pub struct BatchRequest {
    requests: Vec<CheckRequest>,
}

impl BatchRequest {
    /// An empty batch.
    pub fn new() -> BatchRequest {
        BatchRequest::default()
    }

    /// Appends a request (chainable).
    pub fn with(mut self, req: CheckRequest) -> Self {
        self.requests.push(req);
        self
    }

    /// Appends a request.
    pub fn push(&mut self, req: CheckRequest) {
        self.requests.push(req);
    }

    /// Number of requests in the batch.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// `true` iff the batch holds no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// A litmus-verdict request per `*.litmus` file in `dir` (sorted by
    /// file name — the deterministic order the reports come back in).
    pub fn litmus_dir(dir: &std::path::Path) -> Result<BatchRequest, CheckError> {
        let tests =
            c11_litmus::load_litmus_dir(dir).map_err(|e| CheckError::Parse(e.to_string()))?;
        Ok(BatchRequest {
            requests: tests.into_iter().map(CheckRequest::litmus).collect(),
        })
    }

    /// Consumes the batch into its requests (submission order).
    pub(crate) fn into_requests(self) -> Vec<CheckRequest> {
        self.requests
    }
}

impl IntoIterator for BatchRequest {
    type Item = CheckRequest;
    type IntoIter = std::vec::IntoIter<CheckRequest>;

    /// Consumes the batch into its requests, e.g. to rewrite them
    /// (`batch.into_iter().map(|r| r.engine(e)).collect()`).
    fn into_iter(self) -> Self::IntoIter {
        self.requests.into_iter()
    }
}

impl From<Vec<CheckRequest>> for BatchRequest {
    fn from(requests: Vec<CheckRequest>) -> BatchRequest {
        BatchRequest { requests }
    }
}

impl FromIterator<CheckRequest> for BatchRequest {
    fn from_iter<I: IntoIterator<Item = CheckRequest>>(iter: I) -> BatchRequest {
        BatchRequest {
            requests: iter.into_iter().collect(),
        }
    }
}

/// Aggregate statistics of one batch run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Requests in the batch.
    pub jobs: usize,
    /// Requests that produced a report.
    pub ok: usize,
    /// Requests that failed before execution (parse/mode errors).
    pub errors: usize,
    /// Requests rejected by queue backpressure
    /// ([`CheckError::Overloaded`]) — not genuine job failures, so they
    /// do not affect [`BatchReport::all_ok`].
    pub overloaded: usize,
    /// Reports cut short by a deadline or cancellation (their status is
    /// `"timed_out"`/`"cancelled"`); they count into `ok` as well, and
    /// like `overloaded` they do not affect [`BatchReport::all_ok`].
    pub interrupted: usize,
    /// Reports served from the session cache during this batch.
    pub cache_hits: usize,
    /// Litmus reports whose verdicts did not match expectations.
    pub litmus_failed: usize,
    /// Exploration stats merged over every successful report (sizes
    /// add, truncation ors; cached reports contribute their original
    /// exploration's numbers).
    pub explore: Stats,
    /// Wall-clock time of the whole batch, in microseconds (not the sum
    /// of per-job times — jobs overlap on the pool).
    pub wall_micros: u128,
}

impl BatchStats {
    /// Folds one request's result into the aggregates. Cache hits are
    /// counted off the report's own `cache_hit` flag, not off the
    /// session-global counter, so concurrent activity on the same
    /// session is never misattributed.
    pub fn record(&mut self, result: Result<&CheckReport, &CheckError>) {
        self.jobs += 1;
        match result {
            Ok(r) => {
                self.ok += 1;
                self.cache_hits += usize::from(r.cache_hit());
                self.interrupted += usize::from(r.interrupt().is_some());
                self.explore = self.explore.merged(&r.stats());
                if let CheckReport::Litmus(l) = r {
                    // An interrupted litmus run never completed its
                    // verdict — a deadline hit is not a failure.
                    if !l.pass && r.interrupt().is_none() {
                        self.litmus_failed += 1;
                    }
                }
            }
            Err(CheckError::Overloaded) => self.overloaded += 1,
            // A cancelled waiter is an interruption, not a job failure —
            // mirror the report-level statuses.
            Err(CheckError::Cancelled) => self.interrupted += 1,
            Err(_) => self.errors += 1,
        }
    }
}

/// The response to a [`BatchRequest`]: per-request results in submission
/// order plus the aggregates.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// One entry per request, in submission order. Errors are
    /// per-item — a malformed request does not poison its batch.
    pub reports: Vec<Result<CheckReport, CheckError>>,
    /// The aggregates.
    pub stats: BatchStats,
}

impl BatchReport {
    /// Builds the report from collected per-job results (submission
    /// order) and the batch's wall time.
    pub(crate) fn aggregate(
        reports: Vec<Result<CheckReport, CheckError>>,
        wall: Duration,
    ) -> BatchReport {
        let mut stats = BatchStats {
            wall_micros: wall.as_micros(),
            ..BatchStats::default()
        };
        for report in &reports {
            stats.record(report.as_ref());
        }
        BatchReport { reports, stats }
    }

    /// `true` iff every request produced a report and every litmus
    /// verdict matched expectations.
    pub fn all_ok(&self) -> bool {
        self.stats.errors == 0 && self.stats.litmus_failed == 0
    }

    /// The aggregates as a `c11check/v1` `batch-summary` JSON object.
    /// `c11serve`'s trailer line carries these same keys (plus a
    /// session-level `explorations` counter).
    pub fn summary_json(&self) -> Json {
        let s = &self.stats;
        Json::obj(vec![
            ("schema", Json::str("c11check/v1")),
            ("mode", Json::str("batch-summary")),
            ("jobs", Json::from(s.jobs)),
            ("ok", Json::from(s.ok)),
            ("errors", Json::from(s.errors)),
            ("overloaded", Json::from(s.overloaded)),
            ("interrupted", Json::from(s.interrupted)),
            ("cache_hits", Json::from(s.cache_hits)),
            ("litmus_failed", Json::from(s.litmus_failed)),
            (
                "stats",
                Json::obj(vec![
                    ("unique", Json::from(s.explore.unique)),
                    ("generated", Json::from(s.explore.generated)),
                    ("finals", Json::from(s.explore.finals)),
                    ("truncated", Json::from(s.explore.truncated)),
                    ("stuck", Json::from(s.explore.stuck)),
                    ("wall_micros", Json::from(s.explore.wall_micros)),
                ]),
            ),
            ("wall_micros", Json::from(s.wall_micros)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Session, SessionConfig};

    #[test]
    fn batch_reports_come_back_in_submission_order() {
        let progs = [
            "vars x; thread t { x := 1; }",
            "vars x y; thread t1 { x := 1; } thread t2 { y := 1; }",
            "vars z; thread t { z := 3; z := 4; }",
        ];
        let batch: BatchRequest = progs.iter().map(|p| CheckRequest::program(*p)).collect();
        let session = Session::new(SessionConfig::default().workers(3));
        let out = session.run_batch(batch);
        assert_eq!(out.stats.jobs, 3);
        assert_eq!(out.stats.ok, 3);
        assert_eq!(out.stats.errors, 0);
        assert!(out.all_ok());
        // Order is submission order: the single-writer program first.
        let first = out.reports[0].as_ref().unwrap();
        assert_eq!(first.stats().finals, 1);
    }

    #[test]
    fn batch_errors_are_per_item() {
        let batch = BatchRequest::new()
            .with(CheckRequest::program("vars x; thread t { x := 1; }"))
            .with(CheckRequest::program("vars x; thread t { y := 1; }"));
        let session = Session::default();
        let out = session.run_batch(batch);
        assert_eq!(out.stats.jobs, 2);
        assert_eq!(out.stats.ok, 1);
        assert_eq!(out.stats.errors, 1);
        assert!(!out.all_ok());
        assert!(out.reports[0].is_ok());
        assert!(matches!(out.reports[1], Err(CheckError::Parse(_))));
    }

    #[test]
    fn summary_json_has_the_documented_shape() {
        let session = Session::default();
        let out = session.run_batch(
            BatchRequest::new().with(CheckRequest::program("vars x; thread t { x := 1; }")),
        );
        let v = Json::parse(&out.summary_json().render()).unwrap();
        assert_eq!(v.get("schema").and_then(Json::as_str), Some("c11check/v1"));
        assert_eq!(v.get("mode").and_then(Json::as_str), Some("batch-summary"));
        assert_eq!(v.get("jobs").and_then(Json::as_usize), Some(1));
        assert_eq!(v.get("ok").and_then(Json::as_usize), Some(1));
        assert!(v.get("stats").and_then(|s| s.get("unique")).is_some());
    }
}
