//! The service core behind both transports, `c11serve` (request lines
//! on stdio) and `c11netd` (length-prefixed frames over TCP). A
//! transport only moves bytes; everything between one request document
//! and its response line happens here, once:
//!
//! - [`parse_flags`] maps the session flags both binaries share to a
//!   [`SessionConfig`] ([`SESSION_USAGE`] documents them);
//! - [`Service::accept`] parses a request, takes its id, recognises the
//!   `{"stats": true}` probe, builds the request and submits it;
//! - [`Service::answer`] waits for the result, renders the response line
//!   and folds the result into the run's [`BatchStats`] tally;
//! - [`Service::summary`] renders the final `batch-summary` line.
//!
//! Accepting and answering are separate steps so `c11serve` can keep
//! submitting ahead of its in-order writer while `c11netd` answers each
//! frame inline.

use crate::json::Json;
use crate::net::{
    error_line, overloaded_line, report_line, request_from_json, stats_line, stats_request,
};
use crate::{BatchReport, BatchStats, CheckError, JobId, Session, SessionConfig};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The session flags' synopsis and help, shared by both binaries'
/// usage texts.
pub const SESSION_USAGE: &str = "[--workers N] [--no-cache] [--auto-parallel T] \
     [--job-timeout-ms MS] [--cache-capacity N] [--max-queue N] [--cache-path FILE]\n\
     --workers N: session pool size (default 2)\n\
     --no-cache: disable the fingerprint-keyed result cache\n\
     --auto-parallel T: run reduction-free sequential requests whose \
     program has ≥ T threads on the parallel engine (default 4; 0 \
     disables; reduced requests are never upgraded)\n\
     --job-timeout-ms MS: default per-job deadline (a request's own \
     timeout_ms wins when tighter)\n\
     --cache-capacity N: bound the result cache to N reports (LRU)\n\
     --max-queue N: reject submissions beyond N queued jobs with \
     status \"overloaded\"\n\
     --cache-path FILE: load the result cache from FILE on start and \
     snapshot it back on drain";

/// The rest of a command line, for a flag to take its value from.
pub struct Args<I>(I);

impl<I: Iterator<Item = String>> Args<I> {
    /// The value after `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.0.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value after `flag`, as a count.
    pub fn num(&mut self, flag: &str) -> Result<usize, String> {
        self.value(flag)?
            .parse()
            .map_err(|e| format!("bad {flag}: {e}"))
    }
}

/// Parses a service command line. The session flags fill the returned
/// [`SessionConfig`]; any other flag goes to `own`, which takes its
/// value from the [`Args`] and returns `Ok(false)` for a flag it does
/// not know. `-h`/`--help` yields `Err(usage)`.
pub fn parse_flags<I: Iterator<Item = String>>(
    args: I,
    usage: &str,
    mut own: impl FnMut(&str, &mut Args<I>) -> Result<bool, String>,
) -> Result<SessionConfig, String> {
    let mut cfg = SessionConfig::default().parallel_threshold(4);
    let mut args = Args(args);
    while let Some(flag) = args.0.next() {
        cfg = match flag.as_str() {
            "--workers" => cfg.workers(args.num(&flag)?),
            "--no-cache" => cfg.cache(false),
            "--auto-parallel" => cfg.parallel_threshold(args.num(&flag)?),
            "--job-timeout-ms" => cfg.job_timeout(Duration::from_millis(args.num(&flag)? as u64)),
            "--cache-capacity" => cfg.cache_capacity(args.num(&flag)?),
            "--max-queue" => cfg.max_queue_depth(args.num(&flag)?),
            "--cache-path" => cfg.cache_path(args.value(&flag)?),
            "-h" | "--help" => return Err(usage.to_string()),
            other if own(other, &mut args)? => cfg,
            other => return Err(format!("unknown argument {other:?}")),
        };
    }
    Ok(cfg)
}

/// One accepted request document, to be answered in its turn.
pub struct Ticket {
    id: String,
    pending: Pending,
}

enum Pending {
    Job(JobId),
    /// The `{"stats": true}` probe: answered with the counters current
    /// when its turn comes, and not a job.
    Stats,
    /// A malformed request: the message, answered verbatim.
    Malformed(String),
    /// A submission the session refused (a full queue).
    Refused(CheckError),
}

impl Ticket {
    /// A request the transport could not read at all (oversized, not
    /// UTF-8, a broken frame): answered with `msg`, tallied as an error.
    pub fn malformed(id: String, msg: String) -> Ticket {
        Ticket {
            id,
            pending: Pending::Malformed(msg),
        }
    }
}

/// A [`Session`] plus the tally of every request it answered.
pub struct Service {
    session: Session,
    tally: Mutex<BatchStats>,
    started: Instant,
}

impl Service {
    /// Starts the session (loading its cache snapshot, if configured).
    pub fn new(cfg: SessionConfig) -> Service {
        Service {
            session: Session::new(cfg),
            tally: Mutex::new(BatchStats::default()),
            started: Instant::now(),
        }
    }

    /// The session underneath.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Accepts one request document: parses it, takes its `id` (or
    /// `fallback_id()`), recognises a stats probe, and submits a
    /// well-formed request to the pool.
    pub fn accept(&self, text: &str, fallback_id: impl FnOnce() -> String) -> Ticket {
        let v = match Json::parse(text) {
            Ok(v) => v,
            Err(e) => return Ticket::malformed(fallback_id(), e.to_string()),
        };
        let id = v
            .get("id")
            .and_then(Json::as_str)
            .map_or_else(fallback_id, str::to_string);
        let pending = match stats_request(&v) {
            Some(Ok(())) => Pending::Stats,
            Some(Err(msg)) => Pending::Malformed(msg),
            None => match request_from_json(&v) {
                Ok(req) => match self.session.submit(req) {
                    Ok(job) => Pending::Job(job),
                    Err(e) => Pending::Refused(e),
                },
                Err(msg) => Pending::Malformed(msg),
            },
        };
        Ticket { id, pending }
    }

    /// Answers a ticket with its response line (no trailing newline),
    /// blocking until its job is done, and tallies the result.
    pub fn answer(&self, ticket: Ticket) -> String {
        let Ticket { id, pending } = ticket;
        let result = match pending {
            Pending::Stats => return stats_line(&id, &self.session.stats()),
            Pending::Malformed(msg) => {
                let line = error_line(&id, &msg);
                // A malformed request counts as a request parse error.
                let err = CheckError::Parse(msg);
                self.tally.lock().unwrap().record(Err(&err));
                return line;
            }
            Pending::Refused(e) => Err(e),
            Pending::Job(job) => self.session.wait(job),
        };
        let line = match &result {
            Ok(report) => report_line(&id, report),
            Err(CheckError::Overloaded) => overloaded_line(&id),
            Err(e) => error_line(&id, &e.to_string()),
        };
        self.tally.lock().unwrap().record(result.as_ref());
        line
    }

    /// The run's `batch-summary` line — [`BatchReport::summary_json`]
    /// plus the session's `explorations` counter — and whether every
    /// request produced a report and every litmus verdict passed.
    pub fn summary(&self) -> (String, bool) {
        let mut stats = *self.tally.lock().unwrap();
        stats.wall_micros = self.started.elapsed().as_micros();
        let batch = BatchReport {
            reports: Vec::new(),
            stats,
        };
        let Json::Obj(mut pairs) = batch.summary_json() else {
            unreachable!("summaries are objects");
        };
        pairs.push((
            "explorations".to_string(),
            Json::from(self.session.stats().explorations),
        ));
        (Json::Obj(pairs).render(), batch.all_ok())
    }
}
