//! JSON report smoke tests: the `c11check --json` machine-readable output
//! is parsed by a minimal recursive-descent JSON reader (the workspace is
//! offline — no serde) and validated against the `c11check/v1` schema
//! documented in the README, both through the library front door and
//! through the installed binary (`cargo run --bin c11check`).

use c11_operational::prelude::*;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------
// A tiny JSON parser (validation only; numbers as u128, no floats —
// the report schema emits none).
// ---------------------------------------------------------------------

#[derive(Clone, Debug, PartialEq, Eq)]
enum V {
    Null,
    Bool(bool),
    Num(u128),
    Str(String),
    Arr(Vec<V>),
    Obj(BTreeMap<String, V>),
}

impl V {
    fn get(&self, key: &str) -> Option<&V> {
        match self {
            V::Obj(m) => m.get(key),
            _ => None,
        }
    }

    fn str(&self) -> Option<&str> {
        match self {
            V::Str(s) => Some(s),
            _ => None,
        }
    }

    fn num(&self) -> Option<u128> {
        match self {
            V::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn arr(&self) -> Option<&[V]> {
        match self {
            V::Arr(a) => Some(a),
            _ => None,
        }
    }
}

struct P<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> P<'a> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at {}", c as char, self.i))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.s.get(self.i).copied()
    }

    fn lit(&mut self, word: &str) -> bool {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            true
        } else {
            false
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let c = *self.s.get(self.i).ok_or("eof in string")?;
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self.s.get(self.i).ok_or("eof in escape")?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.s[self.i..self.i + 4])
                                .map_err(|e| e.to_string())?;
                            let cp = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            self.i += 4;
                            out.push(char::from_u32(cp).ok_or("bad codepoint")?);
                        }
                        other => return Err(format!("bad escape {:?}", other as char)),
                    }
                }
                c => {
                    // Collect the full UTF-8 sequence starting at c.
                    let start = self.i - 1;
                    let len = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    self.i = start + len;
                    out.push_str(
                        std::str::from_utf8(&self.s[start..self.i]).map_err(|e| e.to_string())?,
                    );
                }
            }
        }
    }

    fn value(&mut self) -> Result<V, String> {
        match self.peek().ok_or("eof")? {
            b'{' => {
                self.eat(b'{')?;
                let mut m = BTreeMap::new();
                if self.peek() == Some(b'}') {
                    self.eat(b'}')?;
                    return Ok(V::Obj(m));
                }
                loop {
                    let k = self.string()?;
                    self.eat(b':')?;
                    let v = self.value()?;
                    if m.insert(k.clone(), v).is_some() {
                        return Err(format!("duplicate key {k:?}"));
                    }
                    match self.peek() {
                        Some(b',') => self.eat(b',')?,
                        _ => break,
                    }
                }
                self.eat(b'}')?;
                Ok(V::Obj(m))
            }
            b'[' => {
                self.eat(b'[')?;
                let mut a = Vec::new();
                if self.peek() == Some(b']') {
                    self.eat(b']')?;
                    return Ok(V::Arr(a));
                }
                loop {
                    a.push(self.value()?);
                    match self.peek() {
                        Some(b',') => self.eat(b',')?,
                        _ => break,
                    }
                }
                self.eat(b']')?;
                Ok(V::Arr(a))
            }
            b'"' => Ok(V::Str(self.string()?)),
            b't' => {
                self.ws();
                if self.lit("true") {
                    Ok(V::Bool(true))
                } else {
                    Err("bad literal".into())
                }
            }
            b'f' => {
                self.ws();
                if self.lit("false") {
                    Ok(V::Bool(false))
                } else {
                    Err("bad literal".into())
                }
            }
            b'n' => {
                self.ws();
                if self.lit("null") {
                    Ok(V::Null)
                } else {
                    Err("bad literal".into())
                }
            }
            c if c.is_ascii_digit() => {
                self.ws();
                let start = self.i;
                while self.s.get(self.i).is_some_and(|c| c.is_ascii_digit()) {
                    self.i += 1;
                }
                let n: u128 = std::str::from_utf8(&self.s[start..self.i])
                    .unwrap()
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?;
                Ok(V::Num(n))
            }
            c => Err(format!("unexpected {:?}", c as char)),
        }
    }
}

fn parse_json(s: &str) -> V {
    let mut p = P {
        s: s.as_bytes(),
        i: 0,
    };
    let v = p.value().unwrap_or_else(|e| panic!("bad JSON ({e}): {s}"));
    p.ws();
    assert_eq!(p.i, s.len(), "trailing garbage in JSON: {s}");
    v
}

fn check_stats(stats: &V, ctx: &str) {
    for key in ["unique", "generated", "finals", "stuck", "wall_micros"] {
        assert!(
            stats.get(key).and_then(V::num).is_some(),
            "{ctx}: stats.{key} must be a number"
        );
    }
    assert!(
        matches!(stats.get("truncated"), Some(V::Bool(_))),
        "{ctx}: stats.truncated must be a bool"
    );
}

// ---------------------------------------------------------------------
// Library-level schema checks.
// ---------------------------------------------------------------------

const SB: &str = "vars x y;
     thread t1 { x := 1; r0 <- y; }
     thread t2 { y := 1; r0 <- x; }";

#[test]
fn outcomes_json_schema_is_stable() {
    let report = CheckRequest::program(SB)
        .engine(Engine::Parallel { workers: 4 })
        .traces(true)
        .run()
        .unwrap();
    let v = parse_json(&report.to_json());
    assert_eq!(v.get("schema").and_then(V::str), Some("c11check/v1"));
    assert_eq!(v.get("mode").and_then(V::str), Some("outcomes"));
    assert_eq!(v.get("model").and_then(V::str), Some("ra"));
    let backend = v.get("backend").expect("backend object");
    assert_eq!(backend.get("kind").and_then(V::str), Some("parallel"));
    assert_eq!(backend.get("workers").and_then(V::num), Some(4));
    assert_eq!(
        v.get("cache_hit"),
        Some(&V::Bool(false)),
        "one-shot runs never hit the session cache"
    );
    check_stats(v.get("stats").expect("stats"), "outcomes");
    assert_eq!(v.get("invalid_finals").and_then(V::num), Some(0));
    let outcomes = v.get("outcomes").and_then(V::arr).expect("outcomes array");
    assert_eq!(outcomes.len(), 4, "SB has 4 distinct outcomes under RA");
    for row in outcomes {
        assert!(row.get("count").and_then(V::num).is_some());
        let threads = row.get("threads").and_then(V::arr).unwrap();
        assert_eq!(threads.len(), 2);
        assert!(
            row.get("witness").and_then(V::arr).is_some(),
            "traces(true)"
        );
    }
}

#[test]
fn litmus_json_schema_is_stable() {
    let test = c11_operational::litmus::corpus()
        .into_iter()
        .find(|t| t.name == "MP-ra")
        .unwrap();
    let report = CheckRequest::litmus(test).run().unwrap();
    let v = parse_json(&report.to_json());
    assert_eq!(v.get("mode").and_then(V::str), Some("litmus"));
    assert_eq!(v.get("cache_hit"), Some(&V::Bool(false)));
    assert_eq!(v.get("name").and_then(V::str), Some("MP-ra"));
    assert_eq!(v.get("expect_ra").and_then(V::str), Some("forbidden"));
    assert_eq!(v.get("observed_ra"), Some(&V::Bool(false)));
    assert_eq!(v.get("pass"), Some(&V::Bool(true)));
    check_stats(v.get("ra").expect("ra stats"), "litmus.ra");
    check_stats(v.get("sc").expect("sc stats"), "litmus.sc");
}

// ---------------------------------------------------------------------
// Binary-level smoke: `c11check --json --workers 4` end to end.
// ---------------------------------------------------------------------

fn run_c11check(args: &[&str], stdin: Option<&str>) -> (bool, String) {
    use std::process::{Command, Stdio};
    let mut cmd = Command::new(env!("CARGO"));
    cmd.args(["run", "--quiet", "--bin", "c11check", "--"])
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn cargo run c11check");
    if let Some(input) = stdin {
        use std::io::Write as _;
        child
            .stdin
            .take()
            .unwrap()
            .write_all(input.as_bytes())
            .unwrap();
    }
    let out = child.wait_with_output().unwrap();
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn c11check_json_workers_emits_valid_report() {
    let (ok, stdout) = run_c11check(&["-", "--json", "--workers", "4"], Some(SB));
    assert!(ok, "c11check exited nonzero:\n{stdout}");
    let v = parse_json(&stdout);
    assert_eq!(v.get("schema").and_then(V::str), Some("c11check/v1"));
    assert_eq!(
        v.get("backend")
            .and_then(|b| b.get("workers"))
            .and_then(V::num),
        Some(4)
    );
    let outcomes = v.get("outcomes").and_then(V::arr).expect("outcomes");
    assert_eq!(outcomes.len(), 4);
    // The parallel backend's report must be byte-identical to the
    // sequential one modulo backend identity and wall time.
    let (ok, seq_stdout) = run_c11check(&["-", "--json"], Some(SB));
    assert!(ok);
    let seq = parse_json(&seq_stdout);
    assert_eq!(seq.get("outcomes"), v.get("outcomes"));
}

#[test]
fn c11check_litmus_json_covers_the_directory() {
    let (ok, stdout) = run_c11check(&["--litmus", "litmus", "--json"], None);
    assert!(ok, "litmus corpus must pass:\n{stdout}");
    let v = parse_json(&stdout);
    assert_eq!(v.get("schema").and_then(V::str), Some("c11check-litmus/v1"));
    assert_eq!(v.get("failed").and_then(V::num), Some(0));
    let tests = v.get("tests").and_then(V::arr).expect("tests array");
    assert!(tests.len() >= 12, "shipped corpus files + the new shapes");
    for t in tests {
        assert_eq!(t.get("pass"), Some(&V::Bool(true)));
        check_stats(t.get("ra").expect("ra stats"), "litmus dir");
    }
    // The shapes added by PR 3 and PR 4 are present.
    let names: Vec<&str> = tests
        .iter()
        .filter_map(|t| t.get("name").and_then(V::str))
        .collect();
    for expected in ["IRIW-acq", "WRC-ra", "2+2W-rlx", "R", "S", "ISA2"] {
        assert!(names.contains(&expected), "missing {expected}: {names:?}");
    }
}
