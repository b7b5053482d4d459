//! Transport parity: one request stream sent through `c11serve` as
//! stdin lines and through `c11netd` as frames on one connection gets
//! the same answers. Every response line is byte-identical once the
//! `wall_micros` timings are removed and each transport's stand-in id
//! for an id-less request (`line-N` on stdio, `conn-1-N` over TCP) is
//! mapped to a common token, and the two `batch-summary` lines agree on
//! every tally.
//!
//! Both servers run one worker with auto-parallel off, so which of two
//! identical requests computes and which hits the cache is decided by
//! stream order, not by a pool race.

use c11_operational::api::json::Json;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const SB: &str = "vars x y; thread t1 { x := 1; r0 <- y; } thread t2 { y := 1; r0 <- x; }";
const MP: &str = "vars d f; thread t1 { d := 5; f :=R 1; } thread t2 { r0 <-A f; r1 <- d; }";
const SERVICE_FLAGS: [&str; 4] = ["--workers", "1", "--auto-parallel", "0"];

/// The request stream: programs and litmus inputs across modes, models,
/// engines and reductions, a repeat (a cache hit), a malformed line, an
/// unknown key, a retired key and a malformed stats probe.
fn stream() -> Vec<String> {
    let litmus_source = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("litmus/sb_rlx.litmus"),
    )
    .unwrap();
    let litmus_source = Json::str(litmus_source).render();
    [
        format!(r#"{{"id":"sb","program":"{SB}","traces":true}}"#),
        format!(r#"{{"id":"sb-count","program":"{SB}","mode":"count"}}"#),
        format!(r#"{{"id":"sb-sc","program":"{SB}","model":"sc"}}"#),
        format!(r#"{{"id":"sb-pre","program":"{SB}","model":"pre-execution","mode":"count"}}"#),
        format!(r#"{{"id":"mp-none","program":"{MP}","reduction":{{"kind":"none"}}}}"#),
        format!(r#"{{"id":"mp-source","program":"{MP}","reduction":{{"kind":"source-set"}}}}"#),
        format!(r#"{{"id":"mp-sym","program":"{MP}","store":"sym","symmetry":true}}"#),
        format!(r#"{{"id":"mp-again","program":"{MP}","reduction":"none"}}"#),
        r#"{"id":"mp-file","litmus_path":"litmus/mp_ra.litmus"}"#.to_string(),
        r#"{"id":"corr-src","litmus_path":"litmus/corr.litmus","reduction":"source-set"}"#
            .to_string(),
        r#"{"id":"lb-out","litmus_path":"litmus/lb_rlx.litmus","mode":"outcomes"}"#.to_string(),
        format!(r#"{{"id":"sb-inline","litmus_source":{litmus_source},"engine":"sequential"}}"#),
        format!(
            r#"{{"id":"sb-par","program":"{SB}","engine":{{"kind":"parallel","workers":1}}}}"#
        ),
        "this is not json".to_string(),
        format!(r#"{{"id":"unknown","program":"{SB}","frobnicate":1}}"#),
        format!(r#"{{"id":"retired","program":"{SB}","backend":"dpor"}}"#),
        format!(r#"{{"id":"bad-parallel","program":"{SB}","engine":"parallel","reduction":"source-set"}}"#),
        r#"{"id":"bad-prog","program":"vars x; thread t { y := 1; }"}"#.to_string(),
        r#"{"id":"bad-stats","stats":1}"#.to_string(),
    ]
    .into()
}

/// `v` with every `wall_micros` key removed, at any depth.
fn without_wall_micros(v: &Json) -> Json {
    match v {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .iter()
                .filter(|(k, _)| k != "wall_micros")
                .map(|(k, v)| (k.clone(), without_wall_micros(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(without_wall_micros).collect()),
        other => other.clone(),
    }
}

/// The comparable form of the `n`th (1-based) response line: timings
/// removed, and the transport's stand-in id (`fallback`) for an id-less
/// request replaced by a common token.
fn normalise(line: &str, n: usize, fallback: &str) -> String {
    let v = Json::parse(line).unwrap_or_else(|e| panic!("bad response ({e}): {line}"));
    let Json::Obj(mut pairs) = without_wall_micros(&v) else {
        panic!("response is not an object: {line}");
    };
    for (key, value) in &mut pairs {
        if key == "id" && value.as_str() == Some(fallback) {
            *value = Json::str(format!("request-{n}"));
        }
    }
    Json::Obj(pairs).render()
}

fn c11serve(requests: &[String]) -> Vec<String> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_c11serve"))
        .args(SERVICE_FLAGS)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn c11serve");
    let input: String = requests.iter().map(|r| format!("{r}\n")).collect();
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

fn c11netd(requests: &[String]) -> Vec<String> {
    let dir = std::env::temp_dir().join(format!("c11-parity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let port_file = dir.join("port");
    let _ = std::fs::remove_file(&port_file);
    let child = Command::new(env!("CARGO_BIN_EXE_c11netd"))
        .args(["--listen", "127.0.0.1:0", "--port-file"])
        .arg(&port_file)
        .args(SERVICE_FLAGS)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn c11netd");
    let deadline = Instant::now() + Duration::from_secs(30);
    let port = loop {
        if let Some(port) = std::fs::read_to_string(&port_file)
            .ok()
            .and_then(|text| text.trim().parse::<u16>().ok())
        {
            break port;
        }
        assert!(Instant::now() < deadline, "c11netd never published a port");
        std::thread::sleep(Duration::from_millis(25));
    };
    let mut conn = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut lines = Vec::new();
    for request in requests {
        conn.write_all(&(request.len() as u32).to_be_bytes())
            .unwrap();
        conn.write_all(request.as_bytes()).unwrap();
        let mut header = [0u8; 4];
        conn.read_exact(&mut header).expect("response header");
        let mut payload = vec![0u8; u32::from_be_bytes(header) as usize];
        conn.read_exact(&mut payload).expect("response payload");
        lines.push(String::from_utf8(payload).unwrap());
    }
    drop(conn);
    Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    let out = child.wait_with_output().expect("wait c11netd");
    assert!(out.status.success(), "c11netd drains cleanly");
    let stdout = String::from_utf8(out.stdout).unwrap();
    lines.push(stdout.lines().last().expect("a summary line").to_string());
    lines
}

#[test]
fn stdio_and_tcp_transports_answer_a_stream_identically() {
    let requests = stream();
    let serve = c11serve(&requests);
    let netd = c11netd(&requests);
    assert_eq!(serve.len(), requests.len() + 1, "{serve:#?}");
    assert_eq!(netd.len(), requests.len() + 1, "{netd:#?}");
    for n in 1..=requests.len() {
        let (a, b) = (&serve[n - 1], &netd[n - 1]);
        assert_eq!(
            normalise(a, n, &format!("line-{n}")),
            normalise(b, n, &format!("conn-1-{n}")),
            "response {n} differs:\nc11serve: {a}\nc11netd:  {b}"
        );
    }
    // The stream exercises what it claims to: reports, a cache hit and
    // every kind of error answer.
    let statuses: Vec<Json> = serve.iter().map(|l| Json::parse(l).unwrap()).collect();
    let count = |key: &str, value: &str| {
        statuses
            .iter()
            .filter(|v| v.get(key).and_then(Json::as_str) == Some(value))
            .count()
    };
    assert_eq!(count("status", "error"), 6, "{serve:#?}");
    assert!(serve[7].contains("\"cache_hit\":true"), "{}", serve[7]);

    let (a, b) = (serve.last().unwrap(), netd.last().unwrap());
    let summary = |line: &str| without_wall_micros(&Json::parse(line).unwrap());
    assert_eq!(summary(a), summary(b), "\nc11serve: {a}\nc11netd:  {b}");
    let tally = summary(a);
    assert_eq!(
        tally.get("mode").and_then(Json::as_str),
        Some("batch-summary")
    );
    assert_eq!(
        tally.get("jobs").and_then(Json::as_usize),
        Some(requests.len())
    );
    assert_eq!(tally.get("errors").and_then(Json::as_usize), Some(6));
    assert_eq!(tally.get("cache_hits").and_then(Json::as_usize), Some(1));
}
