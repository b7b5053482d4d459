//! Known answers that do not come from the operational checker under
//! test: the axiomatic oracle for programs, the files' own expectations
//! for litmus tests, and the paper's theorem for Peterson.

use c11_api::{CheckReport, OutcomeRow};
use c11_axiomatic::justify::is_justifiable;
use c11_core::model::PreExecutionModel;
use c11_explore::{ExploreConfig, Explorer, RegSnapshot};
use c11_lang::ThreadId;
use c11_litmus::{LitmusTest, Verdict};
use std::collections::BTreeSet;

/// A set of final register states: per thread, its written registers.
pub type Finals = BTreeSet<Vec<Vec<(u8, u32)>>>;

/// A rendered report or response line with `cache_hit` and every
/// `wall_micros` blanked: the parts that may differ between two answers
/// to the same question (a re-run, the service, the in-process check).
pub fn normalized(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find("\"wall_micros\":") {
        let (head, tail) = rest.split_at(at + "\"wall_micros\":".len());
        out.push_str(head);
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out.replace("\"cache_hit\":true", "\"cache_hit\":false")
}

/// `f` over `items` on every core, results in order. Answer checking
/// runs after the timed phase, so it may use the whole machine.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = items.len().div_ceil(cores).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| s.spawn(|| part.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("answer checking panicked"))
            .collect()
    })
}

/// The final register states the axiomatic semantics admits for `src`:
/// every terminated pre-execution (reads return any value of the
/// program's universe) that some `(rf, mo)` justifies (Definition 4.3;
/// the Theorem 4.8 round trip).
pub fn axiomatic_finals(src: &str) -> Result<Finals, String> {
    let prog = c11_lang::parse_program(src).map_err(|e| e.to_string())?;
    let pe = Explorer::new(PreExecutionModel::for_program(&prog));
    let res = pe.explore(&prog, ExploreConfig::default().record_traces(false));
    if res.truncated {
        return Err("pre-execution exploration hit a bound".into());
    }
    let mut finals = Finals::new();
    for f in res.finals.iter().filter(|f| is_justifiable(&f.mem)) {
        let snap = RegSnapshot::of(f);
        finals.insert(
            (1..=snap.num_threads() as u8)
                .map(|t| regs_of(snap.thread_regs(ThreadId(t))))
                .collect(),
        );
    }
    Ok(finals)
}

fn regs_of(regs: Vec<(c11_lang::RegId, c11_lang::Val)>) -> Vec<(u8, u32)> {
    regs.into_iter().map(|(r, v)| (r.0, v)).collect()
}

/// The final register states an outcomes report lists.
pub fn report_finals(rows: &[OutcomeRow]) -> Finals {
    rows.iter()
        .map(|row| row.threads.iter().cloned().map(regs_of).collect())
        .collect()
}

/// Checks a program's outcomes report against the oracle's finals.
pub fn check_program(report: &CheckReport, expected: &Finals) -> Result<(), String> {
    let CheckReport::Outcomes(o) = report else {
        return Err(format!(
            "expected an outcomes report, got {}",
            report.mode_str()
        ));
    };
    if report.status_str() != "ok" || o.stats.truncated {
        return Err(format!("undecided (status {})", report.status_str()));
    }
    if o.invalid_finals != 0 {
        return Err(format!("{} finals fail the RA axioms", o.invalid_finals));
    }
    let got = report_finals(&o.outcomes);
    if &got != expected {
        return Err(format!(
            "final register states differ from the axiomatic oracle: {} reported, {} admitted",
            got.len(),
            expected.len()
        ));
    }
    Ok(())
}

/// Checks a litmus report against the verdicts the test file states.
pub fn check_litmus(report: &CheckReport, test: &LitmusTest) -> Result<(), String> {
    let CheckReport::Litmus(l) = report else {
        return Err(format!(
            "expected a litmus report, got {}",
            report.mode_str()
        ));
    };
    let allowed = |v: Verdict| v == Verdict::Allowed;
    if report.status_str() != "ok" {
        return Err(format!("undecided (status {})", report.status_str()));
    }
    if l.observed_ra != allowed(test.expect_ra) || l.observed_sc != allowed(test.expect_sc) {
        return Err(format!(
            "observed ra={} sc={}, file expects ra={:?} sc={:?}",
            l.observed_ra, l.observed_sc, test.expect_ra, test.expect_sc
        ));
    }
    Ok(())
}

/// Checks a mutual-exclusion report against the expected verdict.
pub fn check_mutex(report: &CheckReport, holds: bool) -> Result<(), String> {
    let CheckReport::Invariant(r) = report else {
        return Err(format!(
            "expected an invariant report, got {}",
            report.mode_str()
        ));
    };
    if report.status_str() != "ok" {
        return Err(format!("undecided (status {})", report.status_str()));
    }
    if r.holds != holds {
        return Err(format!(
            "mutual exclusion holds={}, expected {holds}",
            r.holds
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalized_blanks_only_wall_times_and_cache_hits() {
        let a =
            r#"{"cache_hit":true,"stats":{"unique":3,"wall_micros":1234},"ra":{"wall_micros":9}}"#;
        assert_eq!(
            normalized(a),
            r#"{"cache_hit":false,"stats":{"unique":3,"wall_micros":},"ra":{"wall_micros":}}"#
        );
    }

    #[test]
    fn store_buffering_admits_all_four_read_pairs() {
        let finals = axiomatic_finals(
            "vars x y; thread t1 { x := 1; r0 <- y; } thread t2 { y := 1; r0 <- x; }",
        )
        .unwrap();
        let pairs: BTreeSet<(u32, u32)> = finals.iter().map(|f| (f[0][0].1, f[1][0].1)).collect();
        assert_eq!(pairs, BTreeSet::from([(0, 0), (0, 1), (1, 0), (1, 1)]));
    }

    #[test]
    fn release_acquire_message_passing_forbids_the_stale_read() {
        let finals = axiomatic_finals(
            "vars d f; thread t1 { d := 5; f :=R 1; } thread t2 { r0 <-A f; r1 <- d; }",
        )
        .unwrap();
        assert!(!finals.is_empty());
        for f in &finals {
            let regs = &f[1];
            assert!(
                !(regs[0].1 == 1 && regs[1].1 == 0),
                "stale read admitted: {f:?}"
            );
        }
    }
}
