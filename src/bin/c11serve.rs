//! `c11serve` — the long-lived checking service: `c11check/v1` request
//! JSON lines in on stdin, one report JSON line out per request, plus a
//! final `batch-summary` line. Built on the [`Session`] API: requests
//! are scheduled concurrently over a worker pool and answered from the
//! fingerprint-keyed result cache when possible, while responses stream
//! out in request order. The request pipeline, the session flags and the
//! tally live in `c11_api::service`, shared with `c11netd`; this binary
//! is the capped line reader and the ordered writer.
//!
//! ```sh
//! c11serve [--workers N] [--no-cache] [--auto-parallel T]
//!          [--job-timeout-ms MS] [--cache-capacity N] [--max-queue N]
//!          [--cache-path FILE]
//!
//! # One request per line. Exactly one of program / litmus_path /
//! # litmus_source selects the input; everything else is optional:
//! echo '{"id":"sb","program":"vars x y; thread t1 { x := 1; r0 <- y; } \
//!        thread t2 { y := 1; r0 <- x; }","mode":"outcomes"}' | c11serve
//!
//! # Pipe a litmus corpus through the service:
//! for f in litmus/*.litmus; do
//!   printf '{"id":"%s","litmus_path":"%s"}\n' "$(basename "$f")" "$f"
//! done | c11serve --workers 4
//! ```
//!
//! Request-line schema (`c11check/v1`; unknown keys are rejected, and a
//! value outside a key's set gets an error line naming the valid set):
//!
//! | key            | value                                              |
//! |----------------|----------------------------------------------------|
//! | `id`           | string echoed into the report line (default: line number) |
//! | `program`      | DSL source text                                    |
//! | `litmus_path`  | path to a `.litmus` file                           |
//! | `litmus_source`| inline `.litmus` file text                         |
//! | `model`        | `"ra"` (default) / `"sc"` / `"pre-execution"`      |
//! | `mode`         | `"outcomes"` (default) / `"count"` / `"litmus"` (litmus inputs' default) |
//! | `engine`       | `"sequential"` (default) / `"parallel"`, or `{"kind":"parallel","workers":N}` |
//! | `reduction`    | `"none"` (default) / `"source-set"`, or `{"kind":…,"contract":…}` |
//! | `bounds`       | `{"max_events":N,"max_states":N,"max_depth":N}` (each optional) |
//! | `store`        | `"flat"` (default) / `"sym"` — visited-state store |
//! | `symmetry`     | bool — quotient visited states by thread-permutation symmetry |
//! | `traces`       | bool — witness schedules per outcome               |
//! | `dot`          | integer — render up to N final executions as DOT   |
//! | `timeout_ms`   | integer — per-request deadline, measured from when compute starts |
//!
//! Each response line is the `c11check/v1` report object with `id`
//! prepended after `schema`; its `status` is `"ok"`, `"timed_out"` or
//! `"cancelled"` (a deadline-hit report is still a report — partial
//! stats, not an error). A `{"stats": true}` control line (optionally
//! with an `id`) is answered in stream order with the live
//! `SessionStats` counters as a `"mode":"session-stats"` line instead
//! of a report (including per-reduction exploration counts:
//! `explorations_none` / `explorations_source_set`), and is not
//! counted as a job. Malformed lines produce
//! `{"schema":"c11check/v1","id":…,"status":"error","error":"…"}`;
//! submissions bounced by a full queue (`--max-queue`) produce
//! `"status":"overloaded"` lines. Input lines are capped at 1 MiB:
//! longer lines (and lines that are not valid UTF-8) are answered with
//! a positioned error and the stream continues. On EOF — or SIGTERM /
//! SIGINT on Unix — the service stops reading, drains every in-flight
//! job, flushes the `--cache-path` snapshot (if any), prints the
//! summary and exits. The exit code is 0 iff every line was ok and
//! every litmus verdict passed; overload rejections and deadline hits
//! are service conditions, not genuine errors, and do not fail it.

use c11_operational::api::net::shutdown;
use c11_operational::api::service::{self, Service, Ticket, SESSION_USAGE};
use std::io::{BufRead, Write as _};
use std::process::ExitCode;
use std::sync::mpsc;

/// Longest accepted request line; longer lines are dropped with a
/// positioned error instead of buffering unboundedly.
const MAX_LINE_BYTES: usize = 1 << 20;

/// One raw request line, read with a hard byte cap.
enum Line {
    Eof,
    Text(String),
    /// Line exceeded [`MAX_LINE_BYTES`]; payload is the dropped length
    /// seen before giving up (the line was consumed through its newline).
    TooLong(usize),
    /// Line bytes were not valid UTF-8; payload is the offset of the
    /// first bad byte.
    BadUtf8(usize),
    Io(String),
}

/// Reads one newline-terminated line as bytes, enforcing the length cap
/// without buffering the excess. An oversized line is consumed to its
/// newline so the *next* line still parses — one hostile line must not
/// poison the rest of the stream.
fn read_line_capped(reader: &mut impl BufRead, cap: usize) -> Line {
    let mut buf: Vec<u8> = Vec::new();
    let mut saw_input = false;
    let mut dropped = false;
    let mut dropped_len = 0usize;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Line::Io(e.to_string()),
        };
        if chunk.is_empty() {
            break; // EOF (a final unterminated line still counts)
        }
        saw_input = true;
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        if dropped {
            dropped_len += take;
        } else if buf.len() + take > cap {
            dropped = true;
            dropped_len = buf.len() + take;
        } else {
            buf.extend_from_slice(&chunk[..take]);
        }
        let consumed = take + usize::from(newline.is_some());
        reader.consume(consumed);
        if newline.is_some() {
            break;
        }
    }
    if dropped {
        return Line::TooLong(dropped_len);
    }
    if !saw_input {
        return Line::Eof;
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    match String::from_utf8(buf) {
        Ok(text) => Line::Text(text),
        Err(e) => Line::BadUtf8(e.utf8_error().valid_up_to()),
    }
}

fn main() -> ExitCode {
    let usage = format!(
        "usage: c11serve {SESSION_USAGE}\n\
         reads c11check/v1 request JSON lines on stdin, writes one report \
         JSON line per request and a final batch-summary line on stdout"
    );
    let cfg = match service::parse_flags(std::env::args().skip(1), &usage, |_, _| Ok(false)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    // SIGTERM and SIGINT both request the same graceful drain: stop
    // reading, finish in-flight jobs, snapshot the cache, summarise.
    shutdown::install();
    let service = Service::new(cfg);
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<Ticket>();
        // Writer: answers tickets in request order, one line each,
        // flushed per request — this is a stream, not a buffer.
        let service = &service;
        scope.spawn(move || {
            let stdout = std::io::stdout();
            for ticket in rx {
                let line = service.answer(ticket);
                let mut out = stdout.lock();
                let _ = writeln!(out, "{line}");
                let _ = out.flush();
            }
        });
        // Reader: submits each line as it arrives, until EOF, an
        // unrecoverable read error, or a drain signal.
        let stdin = std::io::stdin();
        let mut reader = stdin.lock();
        let mut n = 0usize;
        while !shutdown::requested() {
            n += 1;
            let id = || format!("line-{n}");
            let ticket = match read_line_capped(&mut reader, MAX_LINE_BYTES) {
                Line::Eof => break,
                Line::Io(e) => {
                    let _ = tx.send(Ticket::malformed(id(), format!("stdin read error: {e}")));
                    break;
                }
                Line::TooLong(len) => Ticket::malformed(
                    id(),
                    format!(
                        "line {n} exceeds the {MAX_LINE_BYTES}-byte cap ({len} bytes); dropped"
                    ),
                ),
                Line::BadUtf8(at) => Ticket::malformed(
                    id(),
                    format!("line {n} is not valid UTF-8 (first invalid byte at offset {at})"),
                ),
                Line::Text(line) if line.trim().is_empty() => continue,
                Line::Text(line) => service.accept(&line, id),
            };
            let _ = tx.send(ticket);
        }
        // Dropping `tx` lets the writer drain every in-flight job.
    });
    // Snapshot the warm cache now that the pool is quiet (the session's
    // drop would too, but failing loudly beats failing silently).
    if let Err(e) = service.session().flush_cache() {
        eprintln!("cache snapshot failed: {e}");
    }
    let (summary, all_ok) = service.summary();
    println!("{summary}");
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
