//! Seeded inputs: a bounded program grammar plus the fixed shapes every
//! check run carries. The same seed always yields byte-identical inputs.

use c11_litmus::LitmusTest;
use std::collections::HashSet;

/// splitmix64: a tiny, fully determined generator (no platform or
/// library state), so a seed names the same inputs everywhere.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed` (mixed, so nearby seeds diverge).
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        // `splitmix64` adds the golden-ratio increment itself.
        let z = self.0;
        self.0 = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        c11_core::fingerprint::splitmix64(z)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

const VARS: [&str; 2] = ["x", "y"];

/// At most this many writes and swaps to one variable in a program. The
/// axiomatic oracle enumerates modification orders, and its cost grows
/// factorially in them: one 2-thread program with six swaps of `x` took
/// it 87 s, one with four swaps and a write to `y` 0.9 s; the worst
/// programs within this limit take it under 0.5 s.
pub const MAX_WRITES_PER_VAR: usize = 4;

/// One program of the grammar: `threads` threads, each with 1 to
/// `max_stmts` statements (a seeded count) drawn from {write,
/// release-write, read, acquire-read, swap} over the two variables `x`
/// and `y`. Written values come from `1..=values`; every read or swap
/// lands in a fresh register, so each one is observable in the final
/// register state.
pub fn program(rng: &mut Rng, threads: usize, max_stmts: usize, values: usize) -> String {
    let stmts: Vec<usize> = (0..threads).map(|_| 1 + rng.below(max_stmts)).collect();
    shaped_program(rng, &stmts, values)
}

/// One program of the grammar whose thread `t` has exactly `stmts[t]`
/// statements, each drawn as in [`program`]. A draw with more than
/// [`MAX_WRITES_PER_VAR`] writes and swaps to one variable is drawn
/// again.
pub fn shaped_program(rng: &mut Rng, stmts: &[usize], values: usize) -> String {
    loop {
        let mut writes = [0; VARS.len()];
        let mut src = String::from("vars x y;");
        for (t, &count) in stmts.iter().enumerate() {
            src.push_str(&format!(" thread t{} {{", t + 1));
            let mut reg = 0;
            for _ in 0..count {
                let v = rng.below(VARS.len());
                let var = VARS[v];
                let val = 1 + rng.below(values);
                let kind = rng.below(5);
                let stmt = match kind {
                    0 => format!("{var} := {val};"),
                    1 => format!("{var} :=R {val};"),
                    2 => format!("r{reg} <- {var};"),
                    3 => format!("r{reg} <-A {var};"),
                    _ => format!("r{reg} <- {var}.swap({val});"),
                };
                if !matches!(kind, 2 | 3) {
                    writes[v] += 1;
                }
                if stmt.starts_with('r') {
                    reg += 1;
                }
                src.push(' ');
                src.push_str(&stmt);
            }
            src.push_str(" }");
        }
        if writes.iter().all(|&w| w <= MAX_WRITES_PER_VAR) {
            return src;
        }
    }
}

/// One stratum of a seeded program set: `count` programs of one shape.
#[derive(Clone, Copy, Debug)]
pub struct Stratum {
    /// Programs in the stratum.
    pub count: usize,
    /// Threads per program.
    pub threads: usize,
    /// Statements per thread, at most.
    pub max_stmts: usize,
    /// Written values range over `1..=values`.
    pub values: usize,
}

impl Stratum {
    /// `count` programs of `threads` threads × ≤ `max_stmts` statements.
    pub const fn new(count: usize, threads: usize, max_stmts: usize, values: usize) -> Stratum {
        Stratum {
            count,
            threads,
            max_stmts,
            values,
        }
    }
}

/// Distinct seeded programs, stratum by stratum, then shuffled (seeded)
/// so every prefix has the full mix. Within a stratum the per-thread
/// statement counts are not drawn but dealt: program `j` takes the
/// `j`-th of the `max_stmts^threads` count vectors, cyclically, so every
/// seed has the same number of programs of each size and the seed only
/// picks the statements. (Size sets most of a program's cost; drawn
/// sizes made the set's quantiles depend on the seed.) Distinct by source
/// text, which the generator's fixed layout makes the same as distinct by
/// parsed program (the service's cache key).
pub fn programs(seed: u64, strata: &[Stratum]) -> Vec<String> {
    let mut rng = Rng::new(seed);
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for s in strata {
        for j in 0..s.count {
            let stmts: Vec<usize> = (0..s.threads)
                .map(|t| 1 + j / s.max_stmts.pow(t as u32) % s.max_stmts)
                .collect();
            loop {
                let src = shaped_program(&mut rng, &stmts, s.values);
                if seen.insert(src.clone()) {
                    out.push(src);
                    break;
                }
            }
        }
    }
    // Interleave the strata so any prefix has the full mix.
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i + 1));
    }
    out
}

/// An endless seeded stream of distinct programs: each draws its
/// stratum by weight (a seeded share, not an exact count), so a run can
/// take as many as it ends up needing and the prefix is the same for a
/// given seed however far the stream is read.
pub struct Stream {
    rng: Rng,
    seen: HashSet<String>,
    strata: Vec<(usize, Stratum)>,
}

impl Stream {
    /// A stream over `strata`, each drawn with probability proportional
    /// to its `count`.
    pub fn new(seed: u64, strata: &[Stratum]) -> Stream {
        Stream {
            rng: Rng::new(seed),
            seen: HashSet::new(),
            strata: strata.iter().map(|s| (s.count, *s)).collect(),
        }
    }
}

impl Iterator for Stream {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        let total: usize = self.strata.iter().map(|(w, _)| w).sum();
        let mut pick = self.rng.below(total);
        let s = self
            .strata
            .iter()
            .find(|(w, _)| {
                let hit = pick < *w;
                pick = pick.saturating_sub(*w);
                hit
            })
            .map(|(_, s)| *s)?;
        loop {
            let src = program(&mut self.rng, s.threads, s.max_stmts, s.values);
            if self.seen.insert(src.clone()) {
                return Some(src);
            }
        }
    }
}

/// The litmus files every check run carries, by file name under
/// `litmus/`. A fixed list (not a directory scan), so adding a file to
/// the corpus does not silently change what the benchmark measures.
pub const LITMUS_FILES: [&str; 15] = [
    "cc_sym_4.litmus",
    "corr.litmus",
    "coww_final.litmus",
    "iriw_acq.litmus",
    "isa2_ra.litmus",
    "lb_rlx.litmus",
    "mp_fan_sym.litmus",
    "mp_ra.litmus",
    "mp_rlx.litmus",
    "r_ra.litmus",
    "s_ra.litmus",
    "sb_ring_sym.litmus",
    "sb_rlx.litmus",
    "two_plus_two_w_rlx.litmus",
    "wrc_ra.litmus",
];

/// Event bound for the two Peterson programs (they loop forever).
pub const PETERSON_EVENTS: usize = 14;

/// One input of a check run, with what its known answer is keyed on.
#[derive(Clone, Debug)]
pub enum Input {
    /// A straight-line program; its known answer is the oracle's set of
    /// final register states.
    Program {
        /// Display name (`gen-17`, `E13-wide-4`, …).
        name: String,
        /// DSL source text.
        src: String,
    },
    /// A litmus test; its known answer is the file's expected verdicts.
    Litmus(LitmusTest),
    /// A looping two-thread program checked for mutual exclusion (both
    /// threads at label 5) within [`PETERSON_EVENTS`] events.
    Mutex {
        /// Display name.
        name: String,
        /// DSL source text.
        src: String,
        /// The known answer: does mutual exclusion hold?
        holds: bool,
    },
}

impl Input {
    /// The input's display name.
    pub fn name(&self) -> &str {
        match self {
            Input::Program { name, .. } | Input::Mutex { name, .. } => name,
            Input::Litmus(t) => &t.name,
        }
    }
}

/// Seeded programs in a check run: mostly 2-thread, 1% 3-thread. Many
/// and short, so a pass's cost and its quantiles hardly depend on the
/// seed: a 3-thread program with three statements per thread can cost
/// 100× the median, and a handful of those would swing the figures by
/// seed. With 4000 2-thread programs the p99 lies among the largest of
/// them (3 + 3 statements), which 444 programs sample, not among a few
/// outliers; with 400 its spread over five seeds was 0.22.
pub const CHECK_MIX: [Stratum; 2] = [Stratum::new(4000, 2, 3, 3), Stratum::new(40, 3, 2, 3)];

/// The check workloads' input set: the litmus files, the E13-wide and
/// E16-contended shapes, Peterson and its relaxed variant, and
/// [`CHECK_MIX`] seeded programs. Reads the litmus files from `root`.
pub fn check_inputs(root: &std::path::Path, seed: u64) -> Result<Vec<Input>, String> {
    let mut out = Vec::new();
    for file in LITMUS_FILES {
        let path = root.join("litmus").join(file);
        let test =
            c11_litmus::load_litmus_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push(Input::Litmus(test));
    }
    out.push(Input::Program {
        name: "E13-wide-4".into(),
        src: c11_bench::wide_workload_src(4),
    });
    out.push(Input::Program {
        name: "E16-contended-4".into(),
        src: c11_bench::contended_workload_src(4),
    });
    let pretty = c11_lang::pretty::prog_to_string;
    out.push(Input::Mutex {
        name: "peterson".into(),
        src: pretty(&c11_verify::peterson::peterson_program()),
        holds: true,
    });
    out.push(Input::Mutex {
        name: "peterson-relaxed".into(),
        src: pretty(&c11_verify::peterson::peterson_relaxed_program()),
        holds: false,
    });
    for (i, src) in programs(seed, &CHECK_MIX).into_iter().enumerate() {
        out.push(Input::Program {
            name: format!("gen-{i}"),
            src,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let mix = [
            Stratum::new(40, 2, 3, 3),
            Stratum::new(5, 3, 3, 3),
            Stratum::new(5, 4, 2, 1),
        ];
        let a = programs(7, &mix);
        assert_eq!(a, programs(7, &mix));
        assert_ne!(a, programs(8, &mix));
        assert_eq!(a.len(), 50);
        let distinct: HashSet<&String> = a.iter().collect();
        assert_eq!(distinct.len(), 50);
    }

    #[test]
    fn every_seed_deals_the_same_program_sizes() {
        // Statements per thread, per program, as a sorted list.
        let sizes = |seed| {
            let mut v: Vec<Vec<usize>> = programs(seed, &[Stratum::new(18, 2, 3, 3)])
                .iter()
                .map(|src| {
                    src.split(" thread ")
                        .skip(1)
                        .map(|t| t.matches(';').count())
                        .collect()
                })
                .collect();
            v.sort();
            v
        };
        let a = sizes(1);
        assert_eq!(a, sizes(2));
        // Each of the 3 × 3 size pairs exactly twice.
        for s1 in 1..=3 {
            for s2 in 1..=3 {
                assert_eq!(a.iter().filter(|v| **v == [s1, s2]).count(), 2);
            }
        }
    }

    #[test]
    fn streams_are_seeded_prefix_stable_and_distinct() {
        let mix = [Stratum::new(94, 2, 3, 2), Stratum::new(6, 4, 2, 1)];
        let a: Vec<String> = Stream::new(9, &mix).take(300).collect();
        let b: Vec<String> = Stream::new(9, &mix).take(100).collect();
        assert_eq!(a[..100], b[..]);
        assert_eq!(a.iter().collect::<HashSet<_>>().len(), 300);
        let wide = a.iter().filter(|s| s.contains("thread t4")).count();
        assert!(
            (5..=40).contains(&wide),
            "{wide} four-thread programs in 300"
        );
    }

    #[test]
    fn generated_programs_stay_inside_the_grammar() {
        let mix = [
            Stratum::new(30, 2, 3, 3),
            Stratum::new(10, 3, 3, 3),
            Stratum::new(10, 4, 2, 1),
        ];
        for src in programs(3, &mix) {
            let prog = c11_lang::parse_program(&src).unwrap_or_else(|e| panic!("{src}: {e}"));
            assert!((2..=4).contains(&prog.num_threads()), "{src}");
            assert_eq!(prog.num_vars(), 2);
            let stmts = src.matches(';').count() - 1;
            assert!(stmts <= 3 * prog.num_threads(), "{src}");
        }
    }

    #[test]
    fn check_inputs_are_deterministic() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let a = check_inputs(&root, 11).unwrap();
        let b = check_inputs(&root, 11).unwrap();
        let names = |v: &[Input]| v.iter().map(|i| i.name().to_string()).collect::<Vec<_>>();
        assert_eq!(names(&a), names(&b));
        assert_eq!(
            a.len(),
            15 + 4 + CHECK_MIX.iter().map(|s| s.count).sum::<usize>()
        );
        for input in &a {
            if let Input::Mutex { src, .. } = input {
                c11_lang::parse_program(src).expect("pretty-printed Peterson parses");
            }
        }
    }
}
