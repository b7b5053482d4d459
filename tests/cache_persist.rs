//! Disk-backed cache persistence end to end over the `Session` API:
//! a snapshot written on drop (or `flush_cache`) warms a fresh session
//! so resubmissions answer `cache_hit: true` with the byte-identical
//! report, corrupt or mismatched lines are skipped (and counted) —
//! lines naming selections that no longer exist included — and
//! interrupted results never round-trip through the file.

use c11_operational::prelude::*;
use std::path::{Path, PathBuf};
use std::time::Duration;

const SB: &str = "vars x y; thread t1 { x := 1; r0 <- y; } thread t2 { y := 1; r0 <- x; }";

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("c11-cache-persist-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{name}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn litmus_file() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("litmus/mp_ra.litmus")
}

/// The report's JSON with only the cache flag cleared: a warm hit must
/// be byte-identical to the cold run *including* its wall times, since
/// the persisted entry carries the original measurement.
fn sans_cache_flag(report: &CheckReport) -> String {
    report
        .to_json()
        .replace("\"cache_hit\":true", "\"cache_hit\":false")
}

#[test]
fn snapshot_on_drop_warms_a_fresh_session_byte_identically() {
    let path = temp_path("warm-restart");
    let mp = c11_operational::litmus::load_litmus_file(&litmus_file()).unwrap();
    let cold_program;
    let cold_litmus;
    {
        let session = Session::new(SessionConfig::default().workers(2).cache_path(&path));
        assert_eq!(session.stats().persist_loaded, 0, "no file yet: cold start");
        cold_program = session.run(CheckRequest::program(SB).traces(true)).unwrap();
        cold_litmus = session.run(CheckRequest::litmus(mp.clone())).unwrap();
        assert!(!cold_program.cache_hit() && !cold_litmus.cache_hit());
        // Dropping the session writes the snapshot.
    }
    let text = std::fs::read_to_string(&path).expect("snapshot written on drop");
    assert_eq!(text.lines().count(), 2, "one line per cached result");
    assert!(
        !text.contains("\"cache_hit\":true"),
        "entries persist as cold results"
    );

    let warm = Session::new(SessionConfig::default().workers(2).cache_path(&path));
    let stats = warm.stats();
    assert_eq!(stats.persist_loaded, 2, "both entries load");
    assert_eq!(stats.persist_skipped, 0);
    let hit_program = warm.run(CheckRequest::program(SB).traces(true)).unwrap();
    let hit_litmus = warm.run(CheckRequest::litmus(mp)).unwrap();
    assert!(hit_program.cache_hit(), "program warmed from disk");
    assert!(hit_litmus.cache_hit(), "litmus warmed from disk");
    assert_eq!(
        warm.stats().explorations,
        0,
        "a warmed session explores nothing"
    );
    // Byte identity modulo the cache flag — wall times included, since
    // the hit replays the persisted measurement.
    assert_eq!(sans_cache_flag(&hit_program), cold_program.to_json());
    assert_eq!(sans_cache_flag(&hit_litmus), cold_litmus.to_json());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupt_and_mismatched_lines_are_skipped_and_counted() {
    let path = temp_path("corrupt");
    {
        let session = Session::new(SessionConfig::default().workers(1).cache_path(&path));
        session.run(CheckRequest::program(SB)).unwrap();
    }
    let good = std::fs::read_to_string(&path).unwrap();
    let good_line = good.lines().next().unwrap();
    // A snapshot mangled in every way the loader must survive: truncated
    // mid-record, plain garbage, a wrong schema version, and a smuggled
    // cache_hit flag — plus blank lines, which are not errors.
    let mangled = format!(
        "{}\n{}\nnot json at all\n{}\n\n{}\n",
        good_line,
        &good_line[..good_line.len() / 2],
        good_line.replace("c11check/v1", "c11check/v0"),
        good_line.replace("\"cache_hit\":false", "\"cache_hit\":true"),
    );
    std::fs::write(&path, mangled).unwrap();

    let session = Session::new(SessionConfig::default().workers(1).cache_path(&path));
    let stats = session.stats();
    assert_eq!(stats.persist_loaded, 1, "only the intact line loads");
    assert_eq!(stats.persist_skipped, 4, "every mangled line is counted");
    assert!(
        session.run(CheckRequest::program(SB)).unwrap().cache_hit(),
        "the intact entry still serves"
    );
    let _ = std::fs::remove_file(&path);
}

/// Snapshots written while the sleep-set reduction and the hash-consed
/// store still existed keep loading: a line naming either is skipped
/// and counted, nothing panics, and the other lines still serve warm.
#[test]
fn lines_naming_removed_selections_are_skipped_and_counted() {
    let path = temp_path("removed-selections");
    let mp = "vars d f; thread t1 { d := 5; f :=R 1; } thread t2 { r0 <-A f; r1 <- d; }";
    {
        let session = Session::new(SessionConfig::default().workers(1).cache_path(&path));
        session.run(CheckRequest::program(SB)).unwrap();
        session.run(CheckRequest::program(mp)).unwrap();
    }
    let good = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = good.lines().collect();
    assert_eq!(lines.len(), 2);
    let backend = "\"backend\":{\"kind\":\"sequential\"},";
    let sleep_set = lines[0].replace(
        backend,
        &format!("{backend}\"reduction\":{{\"kind\":\"sleep-set\",\"contract\":\"exhaustive\"}},"),
    );
    let shared = lines[1].replace("\"store\":\"flat\"", "\"store\":\"shared\"");
    assert_ne!(sleep_set, lines[0], "the report names sleep-set");
    assert_ne!(shared, lines[1], "the key names the shared store");
    let old = format!("{}\n{sleep_set}\n{shared}\n{}\n", lines[0], lines[1]);
    std::fs::write(&path, old).unwrap();

    let session = Session::new(SessionConfig::default().workers(1).cache_path(&path));
    let stats = session.stats();
    assert_eq!(stats.persist_loaded, 2, "the current lines load");
    assert_eq!(
        stats.persist_skipped, 2,
        "both removed selections are counted"
    );
    for program in [SB, mp] {
        assert!(
            session
                .run(CheckRequest::program(program))
                .unwrap()
                .cache_hit(),
            "the other lines still serve warm"
        );
    }
    let _ = std::fs::remove_file(&path);
}

/// An invariant cannot be answered under the finals-only contract: the
/// request falls back to no reduction, and its report says so.
#[test]
fn invariant_under_source_set_reports_the_none_fallback() {
    let inv = Invariant::new("anything", |_v| true);
    let report = CheckRequest::program(SB)
        .mode(Mode::Invariant(inv))
        .reduction(Reduction::SourceSet)
        .run()
        .unwrap();
    assert_eq!(report.meta().reduction, Reduction::None);
    assert!(
        report
            .to_json()
            .contains("\"reduction\":{\"kind\":\"none\",\"contract\":\"exhaustive\"}"),
        "{}",
        report.to_json()
    );
}

#[test]
fn interrupted_results_never_reach_the_snapshot() {
    let path = temp_path("interrupted");
    let contended = "vars x; \
         thread t1 { x := 1; x := 2; x := 3; x := 4; } \
         thread t2 { x := 5; x := 6; x := 7; x := 8; } \
         thread t3 { x := 9; x := 10; x := 11; x := 12; }";
    {
        let session = Session::new(SessionConfig::default().workers(1).cache_path(&path));
        let report = session
            .run(CheckRequest::program(contended).timeout(Duration::ZERO))
            .unwrap();
        assert!(report.interrupt().is_some(), "deadline 0 must interrupt");
        assert_eq!(session.flush_cache().unwrap(), 0, "nothing persistable");
    }
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    assert_eq!(
        text.trim(),
        "",
        "an interrupted result must never round-trip via disk"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn cache_capacity_is_enforced_against_loaded_snapshots() {
    let path = temp_path("capacity");
    {
        let session = Session::new(SessionConfig::default().workers(1).cache_path(&path));
        for i in 0..3 {
            let src = format!("vars x; thread t {{ x := {i}; }}");
            session.run(CheckRequest::program(src.as_str())).unwrap();
        }
        assert_eq!(session.flush_cache().unwrap(), 3);
    }
    let session = Session::new(
        SessionConfig::default()
            .workers(1)
            .cache_capacity(1)
            .cache_path(&path),
    );
    let stats = session.stats();
    assert_eq!(stats.persist_loaded, 3, "every line parses");
    assert_eq!(
        session.cache_len(),
        1,
        "the capacity bound holds against a larger snapshot"
    );
    assert_eq!(stats.evictions, 2, "the overflow is evicted (and counted)");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn flush_without_a_path_is_a_quiet_no_op() {
    let session = Session::new(SessionConfig::default().workers(1));
    session.run(CheckRequest::program(SB)).unwrap();
    assert_eq!(session.flush_cache().unwrap(), 0);
    // And with caching disabled, a configured path stays untouched.
    let path = temp_path("no-cache");
    let session = Session::new(
        SessionConfig::default()
            .workers(1)
            .cache(false)
            .cache_path(&path),
    );
    session.run(CheckRequest::program(SB)).unwrap();
    assert_eq!(session.flush_cache().unwrap(), 0);
    drop(session);
    assert!(!path.exists(), "cache off: no snapshot file appears");
}

#[test]
fn held_snapshot_lock_skips_load_and_flush_with_counted_stat() {
    let path = temp_path("flock-held");
    {
        let session = Session::new(SessionConfig::default().workers(1).cache_path(&path));
        session.run(CheckRequest::program(SB)).unwrap();
        // Dropping the session writes the snapshot (lock uncontended).
    }
    assert!(path.exists(), "snapshot written on drop");
    // "Another process" holds the sidecar lock: flock conflicts are per
    // open file description, so a second open within this process
    // conflicts exactly like a foreign one.
    let foreign = std::fs::OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(path.with_extension("lock"))
        .unwrap();
    foreign.try_lock().expect("the sidecar lock starts free");
    let session = Session::new(SessionConfig::default().workers(1).cache_path(&path));
    let stats = session.stats();
    assert_eq!(
        stats.persist_loaded, 0,
        "held lock: the warm load is skipped"
    );
    assert_eq!(stats.persist_locked, 1, "…and the skip is counted");
    session.run(CheckRequest::program(SB)).unwrap();
    assert_eq!(
        session.flush_cache().unwrap(),
        0,
        "held lock: the rewrite is skipped, not raced"
    );
    assert_eq!(session.stats().persist_locked, 2);
    drop(foreign);
    assert_eq!(
        session.flush_cache().unwrap(),
        1,
        "released lock: the rewrite proceeds"
    );
    assert_eq!(
        session.stats().persist_locked,
        2,
        "no further skips counted"
    );
    drop(session);
    let warm = Session::new(SessionConfig::default().workers(1).cache_path(&path));
    assert_eq!(
        warm.stats().persist_loaded,
        1,
        "the snapshot survived intact"
    );
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(path.with_extension("lock"));
}
