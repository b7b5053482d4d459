//! `c11netd` — the checking service over TCP: the same `c11check/v1`
//! request/response documents `c11serve` speaks over stdio, carried in
//! length-prefixed frames (4-byte big-endian payload length + one JSON
//! document; see `c11_api::net`). One long-lived [`Session`] backs every
//! connection, so the fingerprint-keyed result cache, LRU bounds,
//! per-job deadlines and `Overloaded` backpressure all apply per frame
//! — and with `--cache-path`, warm results survive restarts.
//!
//! ```sh
//! c11netd [--listen ADDR] [--port-file FILE] [--max-conns N]
//!         [--read-timeout-ms MS] [--write-timeout-ms MS]
//!         [--cache-path FILE] [--workers N] [--no-cache]
//!         [--auto-parallel T] [--job-timeout-ms MS]
//!         [--cache-capacity N] [--max-queue N]
//! ```
//!
//! Connections are served thread-per-connection up to `--max-conns`;
//! a connection past the cap is answered with one `"overloaded"` frame
//! and closed. Within a connection, frames are answered in order: a
//! request frame gets a report / `"error"` / `"overloaded"` frame, and
//! a `{"stats": true}` frame gets the live session counters (with
//! per-reduction exploration counts). Request documents carry the full
//! `c11serve` schema, including the `engine` × `reduction` pair and the
//! `store` (`"flat"`/`"sym"`) and `symmetry` storage knobs. A request
//! naming a value outside those sets is answered with an `"error"`
//! frame that names the valid set.
//! The request pipeline, the session flags and the tally live in
//! `c11_api::service`, shared with `c11serve`; this binary is the accept
//! loop and the per-connection frame loop. A frame
//! that violates the protocol (oversized length, mid-frame truncation
//! or stall) is answered once (best effort) and the connection closed —
//! the stream cannot be resynchronised.
//!
//! On SIGTERM or SIGINT the server stops accepting, finishes every
//! frame already in flight, snapshots the cache to `--cache-path` (if
//! set), prints a final `batch-summary` line on stdout and exits 0.
//! Per-frame client errors do not fail the exit code — a network
//! service outlives its worst client; startup failures exit 2.

use c11_operational::api::net::{self, overloaded_line, shutdown, FrameIn};
use c11_operational::api::service::{self, Service, Ticket, SESSION_USAGE};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

struct Opts {
    listen: String,
    port_file: Option<String>,
    max_conns: usize,
    read_timeout: Duration,
    write_timeout: Duration,
}

fn parse_args() -> Result<(Opts, c11_operational::api::SessionConfig), String> {
    let usage = format!(
        "usage: c11netd [--listen ADDR] [--port-file FILE] [--max-conns N] \
         [--read-timeout-ms MS] [--write-timeout-ms MS] {SESSION_USAGE}\n\
         serves c11check/v1 requests over length-prefixed TCP frames\n\
         --listen ADDR: bind address (default 127.0.0.1:7411; port 0 picks one)\n\
         --port-file FILE: write the bound port to FILE once listening\n\
         --max-conns N: concurrent connection cap (default 64)\n\
         --read-timeout-ms MS: per-connection socket read timeout (default 1000)\n\
         --write-timeout-ms MS: per-connection socket write timeout (default 5000)"
    );
    let mut opts = Opts {
        listen: "127.0.0.1:7411".to_string(),
        port_file: None,
        max_conns: 64,
        read_timeout: Duration::from_millis(1000),
        write_timeout: Duration::from_millis(5000),
    };
    let ms = |n: usize| Duration::from_millis(n.max(1) as u64);
    let cfg = service::parse_flags(std::env::args().skip(1), &usage, |flag, args| {
        match flag {
            "--listen" => opts.listen = args.value(flag)?,
            "--port-file" => opts.port_file = Some(args.value(flag)?),
            "--max-conns" => opts.max_conns = args.num(flag)?.max(1),
            "--read-timeout-ms" => opts.read_timeout = ms(args.num(flag)?),
            "--write-timeout-ms" => opts.write_timeout = ms(args.num(flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok((opts, cfg))
}

/// Serves one connection: frames in, responses out, until EOF, a
/// protocol error, or drain. Returns when the connection is done.
fn serve_conn(mut conn: TcpStream, conn_no: usize, service: &Service, opts: &Opts) {
    let _ = conn.set_read_timeout(Some(opts.read_timeout));
    let _ = conn.set_write_timeout(Some(opts.write_timeout));
    let mut frame_no = 0usize;
    while !shutdown::requested() {
        let ticket = match net::read_frame(&mut conn) {
            Ok(FrameIn::Eof) => return,
            // Idle at a frame boundary: poll the drain flag, keep going.
            Ok(FrameIn::Idle) => continue,
            Err(e) => {
                // Protocol violation or I/O failure: one best-effort
                // error frame, then close (the stream can't resync).
                let id = format!("conn-{conn_no}-{}", frame_no + 1);
                let line = service.answer(Ticket::malformed(id, e));
                let _ = net::write_frame(&mut conn, line.as_bytes());
                return;
            }
            Ok(FrameIn::Frame(payload)) => {
                frame_no += 1;
                let id = || format!("conn-{conn_no}-{frame_no}");
                match std::str::from_utf8(&payload) {
                    Ok(text) => service.accept(text, id),
                    Err(e) => Ticket::malformed(id(), format!("frame is not valid UTF-8: {e}")),
                }
            }
        };
        // Block this connection's thread on the result while other
        // connections keep submitting — the pool under the session is
        // the concurrency limit, not this wait.
        let response = service.answer(ticket);
        if net::write_frame(&mut conn, response.as_bytes()).is_err() {
            return; // peer gone or stalled past the write timeout
        }
    }
}

fn main() -> ExitCode {
    let (opts, cfg) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    shutdown::install();
    let service = Service::new(cfg);
    let s = service.session().stats();
    if s.persist_loaded > 0 || s.persist_skipped > 0 {
        eprintln!(
            "cache snapshot: {} entries loaded, {} lines skipped",
            s.persist_loaded, s.persist_skipped
        );
    }

    let listener = match TcpListener::bind(&opts.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot listen on {}: {e}", opts.listen);
            return ExitCode::from(2);
        }
    };
    let local = listener
        .local_addr()
        .expect("bound listener has an address");
    // Non-blocking accept so the loop can poll the drain flag.
    if let Err(e) = listener.set_nonblocking(true) {
        eprintln!("cannot make the listener non-blocking: {e}");
        return ExitCode::from(2);
    }
    if let Some(port_file) = &opts.port_file {
        // Temp-file + rename so a poller never reads a half-written port.
        let tmp = format!("{port_file}.tmp");
        let write = std::fs::write(&tmp, format!("{}\n", local.port()))
            .and_then(|()| std::fs::rename(&tmp, port_file));
        if let Err(e) = write {
            eprintln!("cannot write {port_file}: {e}");
            return ExitCode::from(2);
        }
    }
    eprintln!("c11netd listening on {local}");

    let active = AtomicUsize::new(0);
    let mut conn_no = 0usize;
    // Connection threads are scoped: leaving the scope is the drain,
    // joining every connection after its in-flight frame (their loops
    // observe the flag at the next frame boundary).
    std::thread::scope(|scope| {
        while !shutdown::requested() {
            match listener.accept() {
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    eprintln!("accept failed: {e}");
                    std::thread::sleep(Duration::from_millis(25));
                }
                Ok((mut conn, _peer)) => {
                    conn_no += 1;
                    if active.load(Ordering::Acquire) >= opts.max_conns {
                        // Answer with backpressure instead of silently
                        // dropping: the client learns to retry later.
                        let _ = conn.set_write_timeout(Some(opts.write_timeout));
                        let line = overloaded_line(&format!("conn-{conn_no}"));
                        let _ = net::write_frame(&mut conn, line.as_bytes());
                        continue;
                    }
                    active.fetch_add(1, Ordering::AcqRel);
                    let (service, opts, active) = (&service, &opts, &active);
                    std::thread::Builder::new()
                        .name(format!("c11netd-conn-{conn_no}"))
                        .spawn_scoped(scope, move || {
                            serve_conn(conn, conn_no, service, opts);
                            active.fetch_sub(1, Ordering::AcqRel);
                        })
                        .expect("spawn connection thread");
                }
            }
        }
        // Stop accepting before the drain.
        drop(listener);
    });
    match service.session().flush_cache() {
        Ok(n) if n > 0 => eprintln!("cache snapshot: {n} entries written"),
        Ok(_) => {}
        Err(e) => eprintln!("cache snapshot failed: {e}"),
    }
    // A clean drain is success: per-frame client errors were already
    // answered to the clients that caused them.
    println!("{}", service.summary().0);
    ExitCode::SUCCESS
}
