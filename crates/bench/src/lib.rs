//! Shared workloads for the benchmark harnesses: the `explore_e2e` bench
//! target and the c11perf benchmark draw their programs and states from
//! these generators.

use c11_core::state::C11State;
use c11_core::Event;
use c11_lang::{parse_program, Action, Prog, ThreadId, VarId};

pub mod latency;

/// A single-variable history: `chain_len` writes by one thread, each read
/// once by a second thread, with `rf`/`mo` fully wired. Scales the derived-
/// relation benchmarks (E2).
pub fn chain_state(chain_len: usize) -> C11State {
    let x = VarId(0);
    let mut s = C11State::initial(&[0]);
    let mut prev = 0usize;
    for i in 0..chain_len {
        let (mut s2, w) = s.append_event(Event::new(
            ThreadId(1),
            Action::Wr {
                var: x,
                val: (i + 1) as u32,
                release: i % 2 == 0,
            },
        ));
        s2.mo_mut().add(prev, w);
        // keep mo transitive
        let preds: Vec<usize> = s2.mo().preimage(prev).collect();
        for p in preds {
            s2.mo_mut().add(p, w);
        }
        let (mut s3, r) = s2.append_event(Event::new(
            ThreadId(2),
            Action::Rd {
                var: x,
                val: (i + 1) as u32,
                acquire: i % 2 == 0,
            },
        ));
        s3.rf_mut().add(w, r);
        prev = w;
        s = s3;
    }
    s
}

/// The E13 widening workload as DSL source (what `c11load` sends over
/// the wire): `k` variables, one writer thread, one reader thread.
pub fn wide_workload_src(k: usize) -> String {
    let vars: Vec<String> = (0..k).map(|i| format!("v{i}")).collect();
    let mut t1 = String::new();
    let mut t2 = String::new();
    for (i, v) in vars.iter().enumerate() {
        t1.push_str(&format!("{v} := {}; ", i + 1));
        t2.push_str(&format!("r{i} <- {v}; "));
    }
    format!(
        "vars {};\nthread t1 {{ {t1} }}\nthread t2 {{ {t2} }}",
        vars.join(" ")
    )
}

/// The widening write/read workload of E13: `k` variables, one writer
/// thread, one reader thread.
pub fn wide_workload(k: usize) -> Prog {
    parse_program(&wide_workload_src(k)).expect("workload parses")
}

/// The E16 contended workload as DSL source: `k` writes by each of two
/// threads to a single variable.
pub fn contended_workload_src(k: usize) -> String {
    let stmt = |base: usize| {
        (0..k)
            .map(|i| format!("x := {}; ", base + i))
            .collect::<String>()
    };
    format!(
        "vars x;\nthread t1 {{ {} }}\nthread t2 {{ {} }}",
        stmt(1),
        stmt(100)
    )
}

/// A contended workload: `k` writes by each of two threads to a single
/// variable (mo-insertion-heavy; used by the exploration ablation E16).
pub fn contended_workload(k: usize) -> Prog {
    parse_program(&contended_workload_src(k)).expect("workload parses")
}

/// A symmetric fan workload as DSL source: one release-writer publishing
/// `k` variables behind a flag, and `readers` byte-identical acquire
/// readers. The identical readers form one symmetry class, so the
/// state-storage benchmarks quotient their interleavings away.
pub fn sym_fan_workload_src(k: usize, readers: usize) -> String {
    let vars: Vec<String> = (0..k).map(|i| format!("v{i}")).collect();
    let mut writer = String::new();
    let mut reader = String::new();
    for (i, v) in vars.iter().enumerate() {
        writer.push_str(&format!("{v} := {}; ", i + 1));
        reader.push_str(&format!("r{i} <- {v}; "));
    }
    writer.push_str("f :=R 1; ");
    let mut out = format!("vars {} f;\nthread w {{ {writer} }}\n", vars.join(" "));
    for i in 0..readers {
        // The flag lands in r9 so data registers stay at r0..r(k-1).
        out.push_str(&format!("thread rd{i} {{ r9 <-A f; {reader} }}\n"));
    }
    out
}

/// The symmetric fan workload of the state-storage benchmarks: one
/// writer, `readers` identical acquire readers over `k` variables.
pub fn sym_fan_workload(k: usize, readers: usize) -> Prog {
    parse_program(&sym_fan_workload_src(k, readers)).expect("workload parses")
}

/// A symmetric contended workload as DSL source: `threads` byte-identical
/// threads, each issuing `k` writes (of the same values — identical
/// bodies are what makes the thread-permutation group act) to one
/// variable. The whole program is a single symmetry class of size
/// `threads`, the quotient's best case.
pub fn sym_contended_workload_src(k: usize, threads: usize) -> String {
    let body: String = (0..k).map(|i| format!("x := {}; ", i + 1)).collect();
    let mut out = String::from("vars x;\n");
    for i in 0..threads {
        out.push_str(&format!("thread t{i} {{ {body} }}\n"));
    }
    out
}

/// The symmetric contended workload: `threads` identical threads × `k`
/// single-variable writes each.
pub fn sym_contended_workload(k: usize, threads: usize) -> Prog {
    parse_program(&sym_contended_workload_src(k, threads)).expect("workload parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_state_is_valid_shape() {
        let s = chain_state(6);
        assert_eq!(s.len(), 1 + 12);
        assert!(s.mo().is_strict_total_order_on(&s.writes()));
        assert!(s.eco().is_irreflexive());
    }

    #[test]
    fn workloads_parse() {
        assert_eq!(wide_workload(3).num_vars(), 3);
        assert_eq!(contended_workload(2).num_threads(), 2);
    }

    #[test]
    fn symmetric_workloads_have_identical_thread_bodies() {
        let fan = sym_fan_workload(2, 3);
        assert_eq!(fan.num_threads(), 4);
        assert_eq!(fan.threads[1], fan.threads[2]);
        assert_eq!(fan.threads[2], fan.threads[3]);
        assert_ne!(fan.threads[0], fan.threads[1]);
        let cc = sym_contended_workload(2, 4);
        assert_eq!(cc.num_threads(), 4);
        assert!(cc.threads.windows(2).all(|w| w[0] == w[1]));
    }
}
