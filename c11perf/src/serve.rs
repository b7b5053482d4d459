//! The service workloads: a fresh `c11netd` (default flags, no cache
//! snapshot) driven over TCP by an open-loop load generator — one
//! process, two threads, one connection each, pipelining frames on a
//! fixed schedule and timing every request from its *scheduled* send.
//!
//! * `serve-warm`: set-up sends each distinct request once, so every
//!   timed request is a cache hit.
//! * `serve-cold`: every request is a distinct seeded program (with a
//!   seeded share of 4-thread programs for the parallel engine), so
//!   none is.
//!
//! The timed phase is a fixed-rate run followed by saturation bursts for
//! `max_rate_rps`. The stats probe before and after it must show zero
//! explorations (warm) or zero cache hits (cold). After the timed phase
//! every response is checked: it echoes its id and equals the report
//! the benchmark computes in process (ignoring `cache_hit` and
//! `wall_micros`), and that report matches the known answer.

use crate::gen::{self, Stratum};
use crate::oracle;
use crate::stats::{fastest, percentile};
use crate::trace::{Span, Spans};
use crate::{peak_rss_mb_of, Metrics, Outcome};
use c11_api::json::Json;
use c11_api::net::{report_line, request_from_json, write_frame};
use c11_api::{CheckReport, CheckRequest, Session, SessionConfig};
use c11_litmus::LitmusTest;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Which service workload.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every timed request is a cache hit.
    Warm,
    /// Every request is a distinct program: every one is a miss.
    Cold,
}

/// Load-generator connections (one thread each).
const CONNS: usize = 2;
/// The fixed offered rate, requests per second over all connections.
const FIXED_RPS: f64 = 400.0;
/// Share of `--seconds` spent at the fixed rate; the bursts take the rest.
const FIXED_SHARE: f64 = 0.4;
/// `max_rate_rps` comes from this many bursts of [`BURST`] requests sent
/// as fast as the generator can, one at the start of each equal slot of
/// the rest of the run. (Not a ladder of offered rates: its highest rung
/// meeting p99 ≤ 100 ms flips between neighbours from run to run, and the
/// throughput on its last rung depends on how far past saturation that
/// rung is.)
const BURSTS: usize = 10;
const BURST: usize = 500;
/// `max_rate_rps` is this percentile of the bursts' throughputs. The
/// shared host has slow phases lasting seconds; spread over the run, the
/// bursts they catch fall to the bottom of the ranking.
const BURST_PERCENTILE: f64 = 80.0;
/// Uncounted requests after each phase (one per connection and spare).
const PADDING: usize = 2 * CONNS;
/// The fixed phase's p99 is the median over this many windows' p99s.
const P99_WINDOWS: usize = 10;
/// The distinct programs `serve-warm` cycles through (plus the litmus files).
const WARM_MIX: [Stratum; 2] = [Stratum::new(48, 2, 3, 3), Stratum::new(4, 3, 3, 3)];
/// `serve-cold`'s program stream, by weight: mostly 2-thread, a seeded
/// 3% share of 3-thread and 3% of 4-thread programs (the latter go to the
/// parallel engine under `c11netd --auto-parallel 4`). The wide strata
/// are kept short and the values few: one 4-thread program with two
/// statements per thread can cost 100× the median, and a handful of
/// those per run would make the tail metrics depend on the seed, not on
/// the service; and every response is checked against the axiomatic
/// oracle, whose cost grows as the value universe to the power of the
/// reads.
const COLD_MIX: [Stratum; 3] = [
    Stratum::new(94, 2, 3, 2),
    Stratum::new(3, 3, 2, 2),
    Stratum::new(3, 4, 1, 1),
];

/// One request the generator can send.
struct Request {
    /// Index into the distinct inputs (its known answer).
    input: usize,
    /// The frame payload.
    payload: Vec<u8>,
    /// The id inside the payload.
    id: String,
}

/// A distinct input of a service run.
enum ServeInput {
    Program(String),
    /// A litmus test and the file text it travels as.
    Litmus(LitmusTest, String),
}

impl ServeInput {
    fn json(&self, id: &str) -> Vec<u8> {
        // Only the engine/reduction axes are named; never "backend".
        let mut pairs = vec![("id", Json::str(id))];
        match self {
            ServeInput::Program(src) => pairs.push(("program", Json::str(src.as_str()))),
            ServeInput::Litmus(_, text) => pairs.push(("litmus_source", Json::str(text.as_str()))),
        }
        pairs.push(("engine", Json::str("sequential")));
        pairs.push(("reduction", Json::str("none")));
        Json::obj(pairs).render().into_bytes()
    }

    /// The same request built directly, without the JSON front door.
    fn request(&self) -> CheckRequest {
        use c11_api::{Engine, Reduction};
        let req = match self {
            ServeInput::Program(src) => CheckRequest::program(src.as_str()),
            ServeInput::Litmus(t, _) => CheckRequest::litmus(t.clone()),
        };
        req.engine(Engine::Sequential).reduction(Reduction::None)
    }
}

/// The run's inputs and requests. Timed requests are generated ahead of
/// each phase (never inside one) and consumed in order.
struct Plan {
    inputs: Vec<ServeInput>,
    /// Warm: one request per distinct input, sent during set-up.
    warmup: Vec<Request>,
    /// The timed phase's requests.
    timed: Vec<Request>,
    /// Cold: where further distinct programs come from.
    stream: Option<gen::Stream>,
    /// Requests handed out so far.
    taken: usize,
}

impl Plan {
    fn new(root: &Path, kind: Kind, seed: u64) -> Result<Plan, String> {
        let mut plan = Plan {
            inputs: Vec::new(),
            warmup: Vec::new(),
            timed: Vec::new(),
            stream: None,
            taken: 0,
        };
        match kind {
            Kind::Warm => {
                for file in gen::LITMUS_FILES {
                    let path = root.join("litmus").join(file);
                    let text = std::fs::read_to_string(&path)
                        .map_err(|e| format!("{}: {e}", path.display()))?;
                    let test = c11_litmus::parse_litmus(&text)
                        .map_err(|e| format!("{}: {e}", path.display()))?;
                    plan.inputs.push(ServeInput::Litmus(test, text));
                }
                let programs = gen::programs(seed, &WARM_MIX);
                plan.inputs
                    .extend(programs.into_iter().map(ServeInput::Program));
                plan.warmup = (0..plan.inputs.len())
                    .map(|i| plan.request(i, format!("warm-{i}")))
                    .collect();
            }
            Kind::Cold => plan.stream = Some(gen::Stream::new(seed, &COLD_MIX)),
        }
        Ok(plan)
    }

    fn request(&self, input: usize, id: String) -> Request {
        Request {
            input,
            payload: self.inputs[input].json(&id),
            id,
        }
    }

    /// Hands out the next `n` timed requests (generating any not yet
    /// generated) and returns their indices.
    fn take(&mut self, n: usize) -> Vec<usize> {
        self.reserve(n);
        self.taken += n;
        (self.taken - n..self.taken).collect()
    }

    /// Makes sure the next `n` timed requests exist: warm requests cycle
    /// through the distinct inputs, cold ones each get a fresh program.
    fn reserve(&mut self, n: usize) {
        while self.timed.len() < self.taken + n {
            let k = self.timed.len();
            let input = match &mut self.stream {
                None => k % self.inputs.len(),
                Some(stream) => {
                    let src = stream.next().expect("the program stream is endless");
                    self.inputs.push(ServeInput::Program(src));
                    self.inputs.len() - 1
                }
            };
            let id = format!("{}{k}", if self.stream.is_some() { "c" } else { "w" });
            let req = self.request(input, id);
            self.timed.push(req);
        }
    }
}

/// Builds `c11netd` from the checkout (a no-op once built) into its own
/// target directory and returns the binary.
fn build_netd(root: &Path, out: &Path) -> Result<PathBuf, String> {
    let target = out.join("c11perf-netd");
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "c11netd",
        ])
        .current_dir(root)
        .env("CARGO_TARGET_DIR", &target)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("running cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building c11netd failed: {status}"));
    }
    Ok(target.join("release").join("c11netd"))
}

/// A running `c11netd`, killed (and reaped) on drop.
struct Server {
    child: Child,
    port: u16,
}

impl Server {
    fn start(bin: &Path, dir: &Path, k: usize) -> Result<Server, String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let port_file = dir.join(format!("port-{}-{k}", std::process::id()));
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(bin)
            .arg("--listen")
            .arg("127.0.0.1:0")
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let mut server = Server { child, port: 0 };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(port) = text.trim().parse() {
                    server.port = port;
                    let _ = std::fs::remove_file(&port_file);
                    return Ok(server);
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("c11netd exited at start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("c11netd did not report its port".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb_of(&self.child.id().to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `ppoll(2)`: socket read timeouts are jiffy-granular (up to 4 ms
/// late), far too coarse for an open-loop schedule; `ppoll` sleeps on a
/// high-resolution timer.
mod sys {
    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    pub const POLLIN: i16 = 1;
    pub const POLLOUT: i16 = 4;

    extern "C" {
        pub fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }

    /// Waits up to `wait` for `events` on `fd`.
    pub fn wait(fd: i32, events: i16, wait: std::time::Duration) {
        let mut pfd = PollFd {
            fd,
            events,
            revents: 0,
        };
        let ts = Timespec {
            tv_sec: wait.as_secs() as i64,
            tv_nsec: i64::from(wait.subsec_nanos()),
        };
        // SAFETY: one valid pollfd and timespec, no signal mask; an
        // error or interruption just ends the wait early.
        unsafe {
            ppoll(&mut pfd, 1, &ts, std::ptr::null());
        }
    }
}

/// One client connection (non-blocking) with a frame reassembly buffer.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(port: u16) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    fn fd(&self) -> i32 {
        use std::os::fd::AsRawFd;
        self.stream.as_raw_fd()
    }

    /// Sends one frame as a single write.
    fn send(&mut self, payload: &[u8]) -> Result<(), String> {
        let mut frame = Vec::with_capacity(4 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(payload);
        let mut at = 0;
        while at < frame.len() {
            match self.stream.write(&frame[at..]) {
                Ok(n) => at += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    sys::wait(self.fd(), sys::POLLOUT, Duration::from_millis(10));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("send: {e}")),
            }
        }
        Ok(())
    }

    /// Waits up to `wait` for bytes and appends every completed frame,
    /// stamped with its arrival time, to `out`.
    fn poll(&mut self, wait: Duration, out: &mut Vec<(Instant, Vec<u8>)>) -> Result<(), String> {
        let mut chunk = [0u8; 1 << 16];
        let n = match self.stream.read(&mut chunk) {
            Ok(0) => return Err("c11netd closed the connection".into()),
            Ok(n) => n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                sys::wait(self.fd(), sys::POLLIN, wait);
                return Ok(());
            }
            Err(e) => return Err(format!("recv: {e}")),
        };
        let now = Instant::now();
        self.buf.extend_from_slice(&chunk[..n]);
        let mut at = 0;
        while self.buf.len() - at >= 4 {
            let len = u32::from_be_bytes(self.buf[at..at + 4].try_into().unwrap()) as usize;
            if self.buf.len() - at - 4 < len {
                break;
            }
            out.push((now, self.buf[at + 4..at + 4 + len].to_vec()));
            at += 4 + len;
        }
        self.buf.drain(..at);
        Ok(())
    }

    /// One request/response exchange (probes; nothing else in flight).
    fn call(&mut self, payload: &[u8]) -> Result<Vec<u8>, String> {
        self.send(payload)?;
        let deadline = Instant::now() + Duration::from_secs(30);
        let mut got = Vec::new();
        while got.is_empty() {
            if Instant::now() > deadline {
                return Err("no answer within 30 s".into());
            }
            self.poll(Duration::from_millis(100), &mut got)?;
        }
        Ok(got.remove(0).1)
    }
}

/// One timed request: when it was due, sent and answered (relative to
/// the phase start), and the answer.
struct Sample {
    req: usize,
    sched: f64,
    sent: f64,
    recv: Option<f64>,
    resp: Vec<u8>,
}

impl Sample {
    fn latency_ms(&self) -> Option<f64> {
        self.recv.map(|r| (r - self.sched) * 1e3)
    }

    fn rtt_ms(&self) -> Option<f64> {
        self.recv.map(|r| (r - self.sent) * 1e3)
    }
}

/// Drives one connection through its share of an open-loop schedule:
/// `due[i]` seconds after `start`, send request `reqs[i]`.
fn drive(
    conn: &mut Conn,
    start: Instant,
    reqs: &[usize],
    due: &[f64],
    requests: &[Request],
) -> Result<Vec<Sample>, String> {
    let mut out: Vec<Sample> = Vec::with_capacity(reqs.len());
    let mut inflight = VecDeque::new();
    let mut frames = Vec::new();
    let last_due = due.last().copied().unwrap_or(0.0);
    let give_up = start + Duration::from_secs_f64(last_due + 20.0);
    loop {
        let now = Instant::now();
        if out.len() < reqs.len() {
            let i = out.len();
            let when = start + Duration::from_secs_f64(due[i]);
            if now >= when {
                conn.send(&requests[reqs[i]].payload)?;
                out.push(Sample {
                    req: reqs[i],
                    sched: due[i],
                    sent: start.elapsed().as_secs_f64(),
                    recv: None,
                    resp: Vec::new(),
                });
                inflight.push_back(i);
                continue;
            }
            conn.poll(when - now, &mut frames)?;
        } else if !inflight.is_empty() {
            if now > give_up {
                break; // unanswered requests count as failed
            }
            conn.poll(Duration::from_millis(50), &mut frames)?;
        } else {
            break;
        }
        for (at, frame) in frames.drain(..) {
            let i = inflight
                .pop_front()
                .ok_or("a frame arrived with no request in flight")?;
            out[i].recv = Some(at.duration_since(start).as_secs_f64());
            out[i].resp = frame;
        }
    }
    Ok(out)
}

/// Runs `reqs` open loop at `rate` requests per second over both
/// connections (request `k` goes to connection `k % CONNS`), one
/// thread per connection. Returns the samples in schedule order.
fn open_loop(
    conns: &mut [Conn],
    rate: f64,
    reqs: &[usize],
    requests: &[Request],
) -> Result<Vec<Sample>, String> {
    let start = Instant::now() + Duration::from_millis(2);
    let share = |c: usize| -> (Vec<usize>, Vec<f64>) {
        (c..reqs.len())
            .step_by(CONNS)
            .map(|k| (reqs[k], k as f64 / rate))
            .unzip()
    };
    let (c0, rest) = conns.split_at_mut(1);
    let (r0, d0) = share(0);
    let (r1, d1) = share(1);
    let (a, b) = std::thread::scope(|s| {
        let other = s.spawn(|| drive(&mut rest[0], start, &r1, &d1, requests));
        let mine = drive(&mut c0[0], start, &r0, &d0, requests);
        (mine, other.join().expect("load thread panicked"))
    });
    let mut all = a?;
    all.extend(b?);
    all.sort_by(|x, y| x.sched.total_cmp(&y.sched));
    Ok(all)
}

/// Session counters from the `{"stats":true}` probe.
#[derive(Clone, Copy, Default)]
struct Probe {
    submitted: u64,
    cache_hits: u64,
    explorations: u64,
    evictions: u64,
    overloaded: u64,
}

fn probe(conn: &mut Conn, n: usize) -> Result<Probe, String> {
    let line = conn.call(format!("{{\"stats\":true,\"id\":\"probe-{n}\"}}").as_bytes())?;
    let text = String::from_utf8(line).map_err(|e| e.to_string())?;
    let v = Json::parse(&text).map_err(|e| format!("stats probe: {e}"))?;
    let get = |k: &str| {
        v.get(k)
            .and_then(Json::as_u128)
            .map(|n| n as u64)
            .ok_or(format!("stats probe lacks {k:?}: {text}"))
    };
    Ok(Probe {
        submitted: get("submitted")?,
        cache_hits: get("cache_hits")?,
        explorations: get("explorations")?,
        evictions: get("evictions")?,
        overloaded: get("overloaded")?,
    })
}

/// Answers per second from the first send to the last answer.
fn throughput(samples: &[Sample]) -> f64 {
    let first = samples.iter().map(|s| s.sent).fold(f64::INFINITY, f64::min);
    let last = samples.iter().filter_map(|s| s.recv).fold(first, f64::max);
    let answered = samples.iter().filter(|s| s.recv.is_some()).count();
    answered as f64 / (last - first).max(1e-9)
}

/// Everything the timed phase collected.
struct Timed {
    fixed: Vec<Sample>,
    bursts: Vec<Sample>,
    /// Requests sent after each phase's last counted one, so that one
    /// too has a following request to carry its ACK (checked, not timed).
    padding: Vec<Sample>,
    max_rate: f64,
    /// The server's peak memory up to the end of the fixed-rate phase
    /// (the saturation bursts only add allocator noise).
    rss_mb: f64,
    before: Probe,
    after: Probe,
}

impl Timed {
    /// Every request the timed phase sent.
    fn all(&self) -> impl Iterator<Item = &Sample> {
        self.fixed.iter().chain(&self.bursts).chain(&self.padding)
    }
}

fn fixed_count(seconds: f64) -> usize {
    (FIXED_RPS * seconds * FIXED_SHARE).ceil() as usize
}

/// Runs `n` counted requests open loop at `rate`, followed by
/// [`PADDING`] uncounted ones: returns (counted, padding) samples.
fn phase(
    conns: &mut [Conn],
    plan: &mut Plan,
    rate: f64,
    n: usize,
) -> Result<(Vec<Sample>, Vec<Sample>), String> {
    let reqs = plan.take(n + PADDING);
    let mut samples = open_loop(conns, rate, &reqs, &plan.timed)?;
    let padding = samples.split_off(n);
    Ok((samples, padding))
}

/// The fixed-rate phase, then the bursts. After each burst, in the idle
/// rest of its slot, `measure_setup` times one more complete set-up (a
/// server of its own), so set-up times are sampled across the run.
fn timed_phase(
    conns: &mut [Conn],
    plan: &mut Plan,
    server: &Server,
    seconds: f64,
    measure_setup: &mut dyn FnMut() -> Result<(), String>,
) -> Result<Timed, String> {
    let before = probe(&mut conns[0], 0)?;
    let (fixed, mut padding) = phase(conns, plan, FIXED_RPS, fixed_count(seconds))?;
    let rss_mb = server.peak_rss_mb()?;

    // Saturation: bursts sent as fast as the generator can, each
    // answered at the service's full throughput, spread over the rest of
    // the run.
    let slot = Duration::from_secs_f64(seconds * (1.0 - FIXED_SHARE) / BURSTS as f64);
    let start = Instant::now();
    let mut bursts = Vec::new();
    let mut rates = Vec::new();
    for k in 0..BURSTS {
        if let Some(idle) = (start + slot * k as u32).checked_duration_since(Instant::now()) {
            std::thread::sleep(idle);
        }
        let (samples, pad) = phase(conns, plan, f64::INFINITY, BURST)?;
        rates.push(throughput(&samples));
        bursts.extend(samples);
        padding.extend(pad);
        measure_setup()?;
    }
    let max_rate = percentile(&mut rates, BURST_PERCENTILE);
    let after = probe(&mut conns[0], 1)?;
    Ok(Timed {
        fixed,
        bursts,
        padding,
        max_rate,
        rss_mb,
        before,
        after,
    })
}

/// Starts a server, connects and (warm) primes its cache: the set-up
/// `setup_s` times.
fn setup_once(
    root: &Path,
    bin: &Path,
    dir: &Path,
    kind: Kind,
    seed: u64,
    seconds: f64,
    k: usize,
) -> Result<(Plan, Server, Vec<Conn>, Vec<Sample>), String> {
    let mut plan = Plan::new(root, kind, seed)?;
    plan.reserve(fixed_count(seconds));
    let server = Server::start(bin, dir, k)?;
    let mut conns = (0..CONNS)
        .map(|_| Conn::open(server.port))
        .collect::<Result<Vec<_>, _>>()?;
    let all: Vec<usize> = (0..plan.warmup.len()).collect();
    let warm = open_loop(&mut conns, f64::INFINITY, &all, &plan.warmup)?;
    Ok((plan, server, conns, warm))
}

/// Runs a service workload; `trace` selects the per-layer metrics.
pub fn run(
    root: &Path,
    out: &Path,
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: &Path,
) -> Result<Outcome, String> {
    let bin = build_netd(root, out)?;
    let dir = out.join("c11perf-run");
    let t0 = Instant::now();
    let (mut plan, server, mut conns, warm) = setup_once(root, &bin, &dir, kind, seed, seconds, 0)?;
    let mut setups = vec![t0.elapsed().as_secs_f64()];
    let mut measure_setup = || {
        let t = Instant::now();
        let other = setup_once(root, &bin, &dir, kind, seed, seconds, setups.len())?;
        setups.push(t.elapsed().as_secs_f64());
        // Torn down outside the timing.
        drop(other);
        Ok(())
    };
    let timed = timed_phase(&mut conns, &mut plan, &server, seconds, &mut measure_setup)?;
    drop(conns);
    drop(server);
    // Other tenants of a shared host only ever add time.
    let setup_s = fastest(&setups);

    // Checking, outside the timed phase and set-up.
    let mut mismatches = Vec::new();
    let mut failed = 0u64;
    let expected = expected_reports(&plan, &mut mismatches);
    let mut check = |s: &Sample, req: &Request| {
        let line = String::from_utf8_lossy(&s.resp);
        if s.recv.is_none() || !line.contains("\"status\":\"ok\"") {
            failed += 1;
            return;
        }
        // An input whose own check failed is already recorded.
        if let Some(want) = &expected[req.input] {
            if oracle::normalized(&line) != oracle::normalized(&report_line(&req.id, want)) {
                mismatches.push(format!(
                    "{}: response differs from the in-process report",
                    req.id
                ));
            }
        }
    };
    for s in &warm {
        check(s, &plan.warmup[s.req]);
    }
    for s in timed.all() {
        check(s, &plan.timed[s.req]);
    }
    let sent = timed.all().count() as u64;
    let (b, a) = (timed.before, timed.after);
    let explorations = a.explorations - b.explorations;
    let hits = a.cache_hits - b.cache_hits;
    match kind {
        Kind::Warm if explorations != 0 => {
            mismatches.push(format!(
                "serve-warm ran {explorations} explorations in the timed phase"
            ));
        }
        Kind::Cold if hits != 0 => {
            mismatches.push(format!(
                "serve-cold got {hits} cache hits in the timed phase"
            ));
        }
        _ => {}
    }
    if a.submitted - b.submitted != sent {
        mismatches.push(format!(
            "the server saw {} requests, the generator sent {sent}",
            a.submitted - b.submitted
        ));
    }

    let attempted = (warm.len() as u64 + sent).max(1);
    let metrics = if trace {
        traced_metrics(&plan, &timed, spans_out)?
    } else {
        let mut lat: Vec<f64> = timed.fixed.iter().filter_map(Sample::latency_ms).collect();
        let mut rtt: Vec<f64> = timed.fixed.iter().filter_map(Sample::rtt_ms).collect();
        // The tail as the median of per-window p99s: one stray burst
        // moves one window, not the run's figure.
        let mut window_p99: Vec<f64> = lat
            .chunks(lat.len().div_ceil(P99_WINDOWS).max(1))
            .map(|w| percentile(&mut w.to_vec(), 99.0))
            .collect();
        // Phase times are relative to the first scheduled send.
        let last = timed
            .fixed
            .iter()
            .filter_map(|s| s.recv)
            .fold(0.0, f64::max);
        let mut m = Metrics::default();
        m.push("setup_s", setup_s, "s");
        // The service's verdict time: actual send to answer.
        m.push("verdict_ms_p50", percentile(&mut rtt, 50.0), "ms");
        m.push("verdict_ms_p90", percentile(&mut rtt, 90.0), "ms");
        m.push("programs_per_s", rtt.len() as f64 / last, "1/s");
        m.push("latency_ms_p50", percentile(&mut lat, 50.0), "ms");
        m.push("latency_ms_p99", percentile(&mut window_p99, 50.0), "ms");
        m.push("max_rate_rps", timed.max_rate, "1/s");
        m.push("peak_rss_mb", timed.rss_mb, "MB");
        m
    };
    Ok(Outcome {
        attempted,
        failed,
        mismatches,
        metrics,
    })
}

/// The in-process report of every input (each one was sent), computed
/// the way `c11netd` computes it and checked against its known answer.
/// `None` for inputs whose own check failed (recorded in `mismatches`).
fn expected_reports(plan: &Plan, mismatches: &mut Vec<String>) -> Vec<Option<CheckReport>> {
    // Like the server's session (auto-parallel at 4 threads), uncached.
    let session = Session::new(SessionConfig::default().cache(false).parallel_threshold(4));
    let checked = oracle::par_map(&plan.inputs, |input| {
        let report = session
            .run(input.request())
            .map_err(|e| format!("in-process check failed: {e}"))?;
        match input {
            ServeInput::Program(src) => {
                oracle::axiomatic_finals(src).and_then(|f| oracle::check_program(&report, &f))
            }
            ServeInput::Litmus(t, _) => oracle::check_litmus(&report, t),
        }
        .map(|()| report)
    });
    checked
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            r.map_err(|e| mismatches.push(format!("input {i}: {e}")))
                .ok()
        })
        .collect()
}

/// The per-layer metrics of a service run: generator lag and round
/// trips from the timed phase, the session counters from the probes,
/// and the server's pipeline replayed in process on the same frames.
fn traced_metrics(plan: &Plan, timed: &Timed, spans_out: &Path) -> Result<Metrics, String> {
    let mut spans = Spans::new();
    let mut lag: Vec<f64> = timed
        .fixed
        .iter()
        .map(|s| (s.sent - s.sched) * 1e3)
        .collect();
    let mut rtt: Vec<f64> = timed.fixed.iter().filter_map(Sample::rtt_ms).collect();
    for (k, s) in timed.fixed.iter().enumerate() {
        let ns = |t: f64| (t * 1e9) as u64;
        let root = spans.record(Span {
            name: "load.request",
            start: ns(s.sched),
            end: ns(s.recv.unwrap_or(s.sent)),
            parent: None,
            request: k,
        });
        spans.record(Span {
            name: "net.rtt",
            start: ns(s.sent),
            end: ns(s.recv.unwrap_or(s.sent)),
            parent: Some(root),
            request: k,
        });
    }

    // Misses: compute time from the report, the rest is queue/transport.
    let mut compute = Vec::new();
    let mut wait = Vec::new();
    let mut parallel = 0usize;
    for s in &timed.fixed {
        let Ok(v) = Json::parse(&String::from_utf8_lossy(&s.resp)) else {
            continue;
        };
        if v.get("cache_hit").and_then(Json::as_bool) != Some(false) {
            continue;
        }
        let micros = v
            .get("stats")
            .and_then(|st| st.get("wall_micros"))
            .and_then(Json::as_u128)
            .unwrap_or(0) as f64;
        compute.push(micros / 1e3);
        if let Some(r) = s.rtt_ms() {
            wait.push(r - micros / 1e3);
        }
        let kind = v
            .get("backend")
            .and_then(|b| b.get("kind"))
            .and_then(Json::as_str);
        parallel += usize::from(kind == Some("parallel"));
    }

    let pipeline = replay_pipeline(plan, timed, &mut spans)?;
    spans
        .write(spans_out)
        .map_err(|e| format!("{}: {e}", spans_out.display()))?;

    let (b, a) = (timed.before, timed.after);
    let submitted = (a.submitted - b.submitted).max(1) as f64;
    let rtt_p50 = percentile(&mut rtt, 50.0);
    let mut m = Metrics::default();
    m.push("load.lag_ms_p99", percentile(&mut lag, 99.0), "ms");
    m.push("net.rtt_ms_p50", rtt_p50, "ms");
    let mut stage_sum_us = 0.0;
    for (name, mut us) in pipeline.stages {
        let p50 = percentile(&mut us, 50.0);
        stage_sum_us += p50;
        m.push(name, p50, "us");
    }
    m.push("net.unaccounted_ms_p50", rtt_p50 - stage_sum_us / 1e3, "ms");
    m.push(
        "session.cache_hit_frac",
        (a.cache_hits - b.cache_hits) as f64 / submitted,
        "ratio",
    );
    m.push(
        "session.explorations",
        (a.explorations - b.explorations) as f64,
        "count",
    );
    m.push(
        "session.evictions",
        (a.evictions - b.evictions) as f64,
        "count",
    );
    m.push(
        "session.overloaded",
        (a.overloaded - b.overloaded) as f64,
        "count",
    );
    m.push("serve.compute_ms_p50", percentile(&mut compute, 50.0), "ms");
    m.push("serve.wait_ms_p99", percentile(&mut wait, 99.0), "ms");
    m.push(
        "explore.parallel_frac",
        if compute.is_empty() {
            0.0
        } else {
            parallel as f64 / compute.len() as f64
        },
        "ratio",
    );
    m.push("trace.overhead_ms", pipeline.overhead_ms, "ms");
    Ok(m)
}

/// Per-stage replay timings, microseconds per request.
struct Pipeline {
    stages: Vec<(&'static str, Vec<f64>)>,
    /// Span recording cost: the traced replay pass minus the plain one,
    /// per request.
    overhead_ms: f64,
}

/// Fixed-phase frames replayed in process (the first ones, in order).
const REPLAY_FRAMES: usize = 400;

/// Replays what `c11netd` does with each fixed-phase frame, in process:
/// `Json::parse` → `request_from_json` → `Session::submit`/`wait` →
/// `report_line` → `write_frame` onto a loopback socket. The session is
/// configured like the server's and, for `serve-warm`, primed the same
/// way, so hits stay hits and misses stay misses.
fn replay_pipeline(plan: &Plan, timed: &Timed, spans: &mut Spans) -> Result<Pipeline, String> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let mut tx = TcpStream::connect(listener.local_addr().map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let (mut rx, _) = listener.accept().map_err(|e| e.to_string())?;
    let mut sink = vec![0u8; 1 << 20];
    let names = [
        "api.json_parse.us_p50",
        "api.request_from_json.us_p50",
        "api.session.submit.us_p50",
        "api.session.wait.us_p50",
        "api.report_line.us_p50",
        "net.write_frame.us_p50",
    ];
    let frames = &timed.fixed[..timed.fixed.len().min(REPLAY_FRAMES)];
    let mut totals = [0.0f64; 2];
    let mut stages: Vec<(&'static str, Vec<f64>)> =
        names.iter().map(|n| (*n, Vec::new())).collect();
    // Two passes over fresh sessions: plain, then recording spans.
    for (pass, total) in totals.iter_mut().enumerate() {
        let session = Session::new(SessionConfig::default().workers(2).parallel_threshold(4));
        let text =
            |r: &Request| String::from_utf8(r.payload.clone()).expect("payloads are rendered JSON");
        for r in &plan.warmup {
            let v = Json::parse(&text(r)).map_err(|e| e.to_string())?;
            let id = session
                .submit(request_from_json(&v)?)
                .map_err(|e| e.to_string())?;
            session.wait(id).map_err(|e| e.to_string())?;
        }
        let t_pass = Instant::now();
        for (k, s) in frames.iter().enumerate() {
            let payload = text(&plan.timed[s.req]);
            let traced = pass == 1;
            let root = traced.then(|| spans.open("replay.request", None, k));
            let mut lap = Instant::now();
            let mut times = [0.0f64; 6];
            let mut mark = |i: usize, spans: &mut Spans, name: &'static str| {
                let now = Instant::now();
                times[i] = now.duration_since(lap).as_secs_f64() * 1e6;
                if traced {
                    let end = spans.now();
                    let start = end - (times[i] * 1e3) as u64;
                    spans.record(Span {
                        name,
                        start,
                        end,
                        parent: root,
                        request: k,
                    });
                }
                lap = Instant::now();
            };
            let v = Json::parse(&payload).map_err(|e| e.to_string())?;
            mark(0, spans, "api.json_parse");
            let id_str = v
                .get("id")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string();
            let req = request_from_json(&v)?;
            mark(1, spans, "api.request_from_json");
            let id = session.submit(req).map_err(|e| e.to_string())?;
            mark(2, spans, "api.session.submit");
            let report: CheckReport = session.wait(id).map_err(|e| e.to_string())?;
            mark(3, spans, "api.session.wait");
            let line = report_line(&id_str, &report);
            mark(4, spans, "api.report_line");
            write_frame(&mut tx, line.as_bytes()).map_err(|e| e.to_string())?;
            mark(5, spans, "net.write_frame");
            if let Some(root) = root {
                spans.close(root);
            }
            // Drain the frame so the socket never fills (not timed).
            let mut left = 4 + line.len();
            while left > 0 {
                let n = rx
                    .read(&mut sink[..left.min(1 << 20)])
                    .map_err(|e| e.to_string())?;
                left -= n;
            }
            if pass == 0 {
                for (i, t) in times.iter().enumerate() {
                    stages[i].1.push(*t);
                }
            }
        }
        *total = t_pass.elapsed().as_secs_f64() * 1e3 / frames.len().max(1) as f64;
    }
    Ok(Pipeline {
        stages,
        overhead_ms: totals[1] - totals[0],
    })
}
