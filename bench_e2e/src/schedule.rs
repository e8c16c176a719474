//! The request streams: which workloads exist, why, and what each
//! sends. Everything here is a pure function of `(workload, seed,
//! cycle)` — the daemon only ever sees what these functions generate.
//!
//! A run is set-up, then whole **cycles** until the measuring time is
//! up. A cycle is a fixed piece of work that visits every program of
//! the workload's corpus equally, so per-cycle rates are comparable
//! and a run's numbers do not depend on where its window happened to
//! end.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Sequences in `SequenceSpace::paper()`: 10⁵ unroll-free plus
/// 5 × 3 × 10⁴ with one unroll. The schedule tests pin it.
pub const SPACE: u64 = 250_000;

/// Warm (program, sequence) pairs per program.
pub const WARM_PAIRS: u64 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    CompileCold,
    CompileWarm,
    SearchCold,
    SearchPredict,
    Mixed,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::CompileCold,
        Kind::CompileWarm,
        Kind::SearchCold,
        Kind::SearchPredict,
        Kind::Mixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::CompileCold => "compile_cold",
            Kind::CompileWarm => "compile_warm",
            Kind::SearchCold => "search_cold",
            Kind::SearchPredict => "search_predict",
            Kind::Mixed => "mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Closed-loop connections (each waits for its reply, as
    /// `icc --remote` and a search driver do).
    pub fn connections(self) -> usize {
        match self {
            Kind::Mixed => 2,
            _ => 1,
        }
    }

    /// Leading cycles whose answers make up `best_vs_o0`. Every run
    /// completes them, whatever its machine's speed, so the metric is a
    /// function of the seed alone. `search_predict` has six programs and
    /// short cycles: eight of them steady the mean.
    pub fn quality_cycles(self) -> u64 {
        match self {
            Kind::SearchPredict => 8,
            _ => 1,
        }
    }

    /// Whether a seed fixes every answer. Not on `search_predict`: the
    /// daemon writes its engines through to the knowledge base in
    /// `HashMap` iteration order, the training rows follow that order,
    /// and the trained model — so which candidates a search verifies —
    /// follows the rows. The request stream still repeats.
    pub fn answers_repeat(self) -> bool {
        self != Kind::SearchPredict
    }

    /// The class whose round trips are the workload's headline latency.
    pub fn headline(self, class: Class) -> bool {
        match self {
            Kind::CompileCold | Kind::CompileWarm | Kind::Mixed => {
                matches!(class, Class::WarmCompile | Class::NewCompile)
            }
            Kind::SearchCold | Kind::SearchPredict => class == Class::Search,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// A compile the daemon has answered before.
    WarmCompile,
    /// A compile with a sequence this daemon has never seen.
    NewCompile,
    Search,
    Characterize,
    Flush,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Compile with the sequence at this dense index of the paper space.
    Compile {
        sequence: u64,
    },
    Search {
        budget: u32,
        seed: u64,
    },
    Characterize,
    Flush,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Step {
    /// Index into the workload's corpus (unused for `Flush`).
    pub program: u32,
    /// Added to the context's fuel: a new epoch is a first-sight
    /// context (see `corpus::Program::ctx`).
    pub epoch: u64,
    pub op: Op,
    pub class: Class,
}

/// How many programs the stream draws on. `mixed` numbers its Small
/// programs first and its few Full ones after them.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub programs: u32,
    /// Programs `0..small` are the Small corpus (all of them except on
    /// `mixed`).
    pub small: u32,
}

pub fn mix(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    // splitmix64 finaliser over a running sum: cheap, and every input
    // bit reaches every output bit.
    let mut z = seed;
    for v in [a, b, c] {
        z = z
            .wrapping_add(v)
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 29;
    }
    z
}

/// The `k`-th sequence of program `p`'s walk through the space: an
/// affine walk `start + k·stride (mod SPACE)` with a seeded start and a
/// seeded stride coprime to the space, so a program's sequences never
/// repeat and neighbours share no pipeline prefix by construction.
pub fn walk(seed: u64, p: u32, k: u64) -> u64 {
    let h = mix(seed, u64::from(p), 0x5eed, 0);
    let start = h % SPACE;
    // ≡ 7 (mod 10): coprime to 250 000 = 2⁴·5⁶; 30 007..80 007.
    let stride = 10 * (3_000 + (h >> 32) % 5_000) + 7;
    ((u128::from(start) + u128::from(k) * u128::from(stride)) % u128::from(SPACE)) as u64
}

/// Evaluations per search: the paper's Fig. 2(b) prices RANDOM at >80.
pub const BUDGET: u32 = 80;

const COLD_PER_PROGRAM: u64 = 10;
const WARM_PER_CYCLE: usize = 4_000;

/// `mixed`, per connection per cycle: 70 % warm compiles, 20 % compiles
/// with a new sequence, 8 % budget-40 searches on a warm Small context,
/// 0.5 % budget-80 searches on a Full context, the rest `Characterize`.
/// With four Full programs, each is searched once per cycle.
const MIXED_WARM: usize = 280;
const MIXED_NEW: usize = 80;
const MIXED_SEARCH_SMALL: usize = 32;
const MIXED_SEARCH_FULL: usize = 2;
const MIXED_CHARACTERIZE: usize = 6;
pub const MIXED_PER_CONN: usize =
    MIXED_WARM + MIXED_NEW + MIXED_SEARCH_SMALL + MIXED_SEARCH_FULL + MIXED_CHARACTERIZE;

/// Requests sent before the clock starts (all checked like timed ones).
pub fn prime(kind: Kind, seed: u64, shape: Shape) -> Vec<Step> {
    let compile = |p: u32, k: u64, class| Step {
        program: p,
        epoch: 0,
        op: Op::Compile {
            sequence: walk(seed, p, k),
        },
        class,
    };
    match kind {
        Kind::CompileCold | Kind::SearchCold => Vec::new(),
        Kind::CompileWarm => (0..shape.programs)
            .flat_map(|p| (0..WARM_PAIRS).map(move |k| (p, k)))
            .map(|(p, k)| compile(p, k, Class::NewCompile))
            .collect(),
        // Exact searches (no model yet): the rows the cost model is
        // trained on.
        Kind::SearchPredict => (0..shape.programs)
            .map(|p| Step {
                program: p,
                epoch: 0,
                op: Op::Search {
                    budget: BUDGET,
                    seed: mix(seed, u64::MAX, u64::from(p), 1),
                },
                class: Class::Search,
            })
            .collect(),
        Kind::Mixed => (0..shape.programs)
            .flat_map(|p| {
                let pairs = if p < shape.small { WARM_PAIRS } else { 1 };
                (0..pairs).map(move |k| (p, k))
            })
            .map(|(p, k)| compile(p, k, Class::NewCompile))
            .collect(),
    }
}

/// Cycle `cycle` of the timed phase: one list per connection.
pub fn cycle(kind: Kind, seed: u64, cycle: u64, shape: Shape) -> Vec<Vec<Step>> {
    match kind {
        // Round-robin over programs, so cycle 0's first pass is all
        // first-sight contexts; every sequence is new to the daemon.
        Kind::CompileCold => vec![(0..COLD_PER_PROGRAM)
            .flat_map(|k| (0..shape.programs).map(move |p| (p, k)))
            .map(|(p, k)| Step {
                program: p,
                epoch: 0,
                op: Op::Compile {
                    sequence: walk(seed, p, cycle * COLD_PER_PROGRAM + k),
                },
                class: Class::NewCompile,
            })
            .collect()],
        Kind::CompileWarm => {
            let mut rng = SmallRng::seed_from_u64(mix(seed, cycle, 0, 2));
            vec![(0..WARM_PER_CYCLE)
                .map(|_| {
                    let p = rng.gen_range(0..shape.programs);
                    let k = rng.gen_range(0..WARM_PAIRS);
                    Step {
                        program: p,
                        epoch: 0,
                        op: Op::Compile {
                            sequence: walk(seed, p, k),
                        },
                        class: Class::WarmCompile,
                    }
                })
                .collect()]
        }
        // One search per program; a new epoch each cycle keeps every
        // context first-sight.
        Kind::SearchCold | Kind::SearchPredict => vec![(0..shape.programs)
            .map(|p| Step {
                program: p,
                epoch: if kind == Kind::SearchCold { cycle } else { 0 },
                op: Op::Search {
                    budget: BUDGET,
                    seed: mix(seed, cycle, u64::from(p), 3),
                },
                class: Class::Search,
            })
            .collect()],
        Kind::Mixed => (0..2u64)
            .map(|conn| mixed_connection(seed, cycle, conn, shape))
            .collect(),
    }
}

fn mixed_connection(seed: u64, cycle: u64, conn: u64, shape: Shape) -> Vec<Step> {
    // Both connections derive the same per-cycle permutations and take
    // alternate entries, so together they visit every program equally
    // often: a cycle's cost then depends on the sequences and seeds
    // drawn, not on which programs a seed happened to pick.
    let mut shared = SmallRng::seed_from_u64(mix(seed, cycle, 0, 4));
    let mut deal = |range: std::ops::Range<u32>, take: usize| -> Vec<u32> {
        let mut all: Vec<u32> = range.collect();
        shuffle(&mut all, &mut shared);
        (0..take)
            .map(|i| all[(2 * i + conn as usize) % all.len()])
            .collect()
    };
    let new_programs = deal(0..shape.small, MIXED_NEW);
    let search_small = deal(0..shape.small, MIXED_SEARCH_SMALL);
    let search_full = deal(shape.small..shape.programs, MIXED_SEARCH_FULL);
    let mut rng = SmallRng::seed_from_u64(mix(seed, cycle, 1 + conn, 4));
    let stream = cycle * 2 + conn;
    let mut steps = Vec::with_capacity(MIXED_PER_CONN + 1);
    for _ in 0..MIXED_WARM {
        let p = rng.gen_range(0..shape.small);
        let k = rng.gen_range(0..WARM_PAIRS);
        steps.push(Step {
            program: p,
            epoch: 0,
            op: Op::Compile {
                sequence: walk(seed, p, k),
            },
            class: Class::WarmCompile,
        });
    }
    for (j, &p) in new_programs.iter().enumerate() {
        // Past the warm pairs, and distinct per (cycle, connection, j).
        let k = WARM_PAIRS + stream * MIXED_NEW as u64 + j as u64;
        steps.push(Step {
            program: p,
            epoch: 0,
            op: Op::Compile {
                sequence: walk(seed, p, k),
            },
            class: Class::NewCompile,
        });
    }
    let searches = search_small
        .iter()
        .map(|&p| (p, BUDGET / 2))
        .chain(search_full.iter().map(|&p| (p, BUDGET)));
    for (j, (p, budget)) in searches.enumerate() {
        steps.push(Step {
            program: p,
            epoch: 0,
            op: Op::Search {
                budget,
                seed: mix(seed, stream, j as u64, 5),
            },
            class: Class::Search,
        });
    }
    for _ in 0..MIXED_CHARACTERIZE {
        steps.push(Step {
            program: rng.gen_range(0..shape.programs),
            epoch: 0,
            op: Op::Characterize,
            class: Class::Characterize,
        });
    }
    shuffle(&mut steps, &mut rng);
    if conn == 0 {
        // Write-through while the other connection keeps reading.
        steps.insert(
            MIXED_PER_CONN / 2,
            Step {
                program: 0,
                epoch: 0,
                op: Op::Flush,
                class: Class::Flush,
            },
        );
    }
    steps
}

/// Fisher–Yates.
fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// FNV-1a over a cycle's steps — what `--check` compares between seeds.
pub fn digest(lists: &[Vec<Step>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for list in lists {
        eat(list.len() as u64);
        for s in list {
            eat(u64::from(s.program));
            eat(s.epoch);
            match s.op {
                Op::Compile { sequence } => {
                    eat(1);
                    eat(sequence);
                }
                Op::Search { budget, seed } => {
                    eat(2);
                    eat(u64::from(budget));
                    eat(seed);
                }
                Op::Characterize => eat(3),
                Op::Flush => eat(4),
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    const SHAPE: Shape = Shape {
        programs: 63,
        small: 63,
    };
    const MIXED_SHAPE: Shape = Shape {
        programs: 67,
        small: 63,
    };

    fn shape(kind: Kind) -> Shape {
        if kind == Kind::Mixed {
            MIXED_SHAPE
        } else {
            SHAPE
        }
    }

    #[test]
    fn space_constant_matches_the_paper_space() {
        assert_eq!(ic_search::SequenceSpace::paper().count(), SPACE);
    }

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        for kind in Kind::ALL {
            let s = shape(kind);
            assert_eq!(prime(kind, 1, s), prime(kind, 1, s));
            for c in 0..3 {
                assert_eq!(cycle(kind, 1, c, s), cycle(kind, 1, c, s));
                assert_ne!(
                    digest(&cycle(kind, 1, c, s)),
                    digest(&cycle(kind, 2, c, s)),
                    "{}: another seed must change the stream",
                    kind.name()
                );
            }
            assert_ne!(
                digest(&cycle(kind, 1, 0, s)),
                digest(&cycle(kind, 1, 1, s)),
                "{}: cycles differ",
                kind.name()
            );
        }
    }

    #[test]
    fn a_walk_never_repeats() {
        for p in 0..5 {
            let seen: HashSet<u64> = (0..20_000).map(|k| walk(9, p, k)).collect();
            assert_eq!(seen.len(), 20_000);
            assert!(seen.iter().all(|&s| s < SPACE));
        }
    }

    #[test]
    fn cold_compiles_are_new_and_warm_compiles_were_primed() {
        let mut sent: HashSet<(u32, u64)> = HashSet::new();
        for c in 0..20 {
            for s in &cycle(Kind::CompileCold, 3, c, SHAPE)[0] {
                let Op::Compile { sequence } = s.op else {
                    panic!("compile_cold sends compiles only")
                };
                assert!(sent.insert((s.program, sequence)), "repeated pair");
            }
        }
        // The first pass of cycle 0 names each program once.
        let first: Vec<u32> = cycle(Kind::CompileCold, 3, 0, SHAPE)[0][..63]
            .iter()
            .map(|s| s.program)
            .collect();
        assert_eq!(first, (0..63).collect::<Vec<u32>>());

        let primed: HashSet<Step> = prime(Kind::CompileWarm, 3, SHAPE)
            .into_iter()
            .map(|s| Step {
                class: Class::WarmCompile,
                ..s
            })
            .collect();
        assert_eq!(primed.len(), 63 * WARM_PAIRS as usize);
        for s in &cycle(Kind::CompileWarm, 3, 5, SHAPE)[0] {
            assert!(primed.contains(s));
        }
    }

    #[test]
    fn mixed_keeps_its_declared_shares() {
        let lists = cycle(Kind::Mixed, 4, 0, MIXED_SHAPE);
        assert_eq!(lists.len(), 2);
        assert_eq!(lists[0].len(), MIXED_PER_CONN + 1);
        assert_eq!(lists[1].len(), MIXED_PER_CONN);
        let count = |list: &[Step], class| list.iter().filter(|s| s.class == class).count();
        for list in &lists {
            assert_eq!(count(list, Class::WarmCompile), MIXED_WARM);
            assert_eq!(count(list, Class::NewCompile), MIXED_NEW);
            assert_eq!(
                count(list, Class::Search),
                MIXED_SEARCH_SMALL + MIXED_SEARCH_FULL
            );
        }
        assert_eq!(count(&lists[0], Class::Flush), 1);
        assert_eq!(count(&lists[1], Class::Flush), 0);
        // Budget-80 searches go to Full contexts only.
        for s in lists.iter().flatten() {
            if let Op::Search { budget, .. } = s.op {
                assert_eq!(budget == BUDGET, s.program >= MIXED_SHAPE.small);
            }
        }
        // New-sequence compiles stay new across cycles and connections.
        let mut sent: HashSet<(u32, u64)> = prime(Kind::Mixed, 4, MIXED_SHAPE)
            .iter()
            .map(|s| match s.op {
                Op::Compile { sequence } => (s.program, sequence),
                _ => unreachable!(),
            })
            .collect();
        for c in 0..10 {
            for s in cycle(Kind::Mixed, 4, c, MIXED_SHAPE).iter().flatten() {
                if let (Class::NewCompile, Op::Compile { sequence }) = (s.class, s.op) {
                    assert!(sent.insert((s.program, sequence)));
                }
            }
        }
    }

    #[test]
    fn search_cold_contexts_are_first_sight_every_cycle() {
        for c in 0..3 {
            assert!(cycle(Kind::SearchCold, 1, c, SHAPE)[0]
                .iter()
                .all(|s| s.epoch == c));
            assert!(cycle(Kind::SearchPredict, 1, c, SHAPE)[0]
                .iter()
                .all(|s| s.epoch == 0));
        }
    }
}
