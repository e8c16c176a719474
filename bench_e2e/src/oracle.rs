//! Correctness oracle: what every answer from the daemon must satisfy.
//! Anything else — an error response, `Busy`, a wrong value — is a
//! failed request.

use crate::corpus::Program;
use crate::schedule::{Op, Step};
use ic_passes::Opt;
use ic_serve::proto::RequestStats;
use ic_serve::Response;

/// What a checked answer contributes to the metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Answer {
    /// Candidate evaluations the request stands for (a compile or a
    /// characterize is one; a search is its `evaluations`).
    pub evals: u64,
    /// Raw simulations the daemon ran for it (`stats.eval_misses`).
    pub sims: u64,
    pub queue_ms: f64,
    pub service_ms: f64,
    /// Simulated cost over the program's −O0 cost: the compiled
    /// program's cycles for a compile, the best found for a search.
    pub vs_o0: Option<f64>,
    /// The cost the request was answered with (cycles or best cost).
    pub cost: f64,
    /// FNV-1a over everything the answer says about the program — what
    /// the in-process replay must reproduce bit for bit.
    pub digest: u64,
}

/// Digest of a simulated run as a compile or characterize response
/// reports it: cycles, instructions, return value, every counter.
pub fn run_digest(
    cycles: f64,
    instructions: u64,
    result: i64,
    counters: impl Iterator<Item = u64>,
) -> u64 {
    let mut h = Fnv::new();
    h.eat(cycles.to_bits());
    h.eat(instructions);
    h.eat(result as u64);
    counters.for_each(|c| h.eat(c));
    h.0
}

/// Digest of a search outcome: best cost, whole trajectory, best
/// sequence.
pub fn search_digest<'a>(
    best_cost: f64,
    best_so_far: &[f64],
    best_sequence: impl Iterator<Item = &'a str>,
) -> u64 {
    let mut h = Fnv::new();
    h.eat(best_cost.to_bits());
    best_so_far.iter().for_each(|c| h.eat(c.to_bits()));
    for name in best_sequence {
        name.bytes().for_each(|b| h.eat(u64::from(b)));
        h.eat(0xff);
    }
    h.0
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn from_stats(stats: &RequestStats, evals: u64) -> Answer {
    Answer {
        evals,
        sims: stats.eval_misses,
        queue_ms: stats.queue_ms,
        service_ms: stats.service_ms,
        ..Answer::default()
    }
}

pub fn check(step: &Step, program: &Program, response: &Response) -> Result<Answer, String> {
    let name = &program.workload.name;
    match (step.op, response) {
        (Op::Compile { .. }, Response::Compile(c)) => {
            if !(c.cycles.is_finite() && c.cycles > 0.0) {
                return Err(format!(
                    "{name}: compile ran out of fuel or cost {}",
                    c.cycles
                ));
            }
            if c.result != program.expected {
                return Err(format!(
                    "{name}: compiled program returned {} (reference {})",
                    c.result, program.expected
                ));
            }
            let counters = c.counters.iter().map(|(_, v)| *v);
            Ok(Answer {
                vs_o0: Some(c.cycles / program.o0_cycles),
                cost: c.cycles,
                digest: run_digest(c.cycles, c.instructions, c.result, counters),
                ..from_stats(&c.stats, 1)
            })
        }
        (Op::Search { budget, .. }, Response::Search(s)) => {
            if s.evaluations != budget as usize || s.best_so_far.len() != budget as usize {
                return Err(format!(
                    "{name}: search answered {} of {budget} evaluations",
                    s.evaluations
                ));
            }
            if s.best_so_far.windows(2).any(|w| w[1] > w[0]) {
                return Err(format!("{name}: best_so_far increases"));
            }
            if s.best_so_far.last() != Some(&s.best_cost) || !s.best_cost.is_finite() {
                return Err(format!(
                    "{name}: trajectory ends at {:?}, best_cost {}",
                    s.best_so_far.last(),
                    s.best_cost
                ));
            }
            if s.best_sequence.iter().any(|o| Opt::from_name(o).is_none()) {
                return Err(format!("{name}: best sequence {:?}", s.best_sequence));
            }
            Ok(Answer {
                vs_o0: Some(s.best_cost / program.o0_cycles),
                cost: s.best_cost,
                digest: search_digest(
                    s.best_cost,
                    &s.best_so_far,
                    s.best_sequence.iter().map(String::as_str),
                ),
                ..from_stats(&s.stats, s.evaluations as u64)
            })
        }
        (Op::Characterize, Response::Characterize(c)) => {
            // The default tier against the legacy interpreter, exactly.
            if c.cycles != program.o0_cycles {
                return Err(format!(
                    "{name}: characterize reports {} cycles (legacy interpreter {})",
                    c.cycles, program.o0_cycles
                ));
            }
            let counters = c.counters.iter().map(|(_, v)| *v);
            Ok(Answer {
                cost: c.cycles,
                digest: run_digest(c.cycles, 0, 0, counters),
                ..from_stats(&c.stats, 1)
            })
        }
        (Op::Flush, Response::Admin(a)) if a.action == "flush" => Ok(Answer::default()),
        (_, Response::Error(e)) => Err(format!("{name}: {} ({})", e.message, e.code)),
        (op, other) => Err(format!("{name}: {op:?} answered with {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::Class;
    use ic_serve::proto::{CompileResponse, SearchResponse};

    fn program() -> Program {
        Program {
            workload: ic_workloads::adpcm_scaled(64, 1),
            expected: 42,
            o0_cycles: 1000.0,
        }
    }

    fn search_step() -> Step {
        Step {
            program: 0,
            epoch: 0,
            op: Op::Search { budget: 3, seed: 1 },
            class: Class::Search,
        }
    }

    fn search(best_so_far: Vec<f64>, best_cost: f64) -> Response {
        Response::Search(SearchResponse {
            best_sequence: vec!["dce".into()],
            best_cost,
            evaluations: best_so_far.len(),
            best_so_far,
            stats: RequestStats::default(),
        })
    }

    #[test]
    fn a_search_must_descend_to_its_best_cost() {
        let ok = check(
            &search_step(),
            &program(),
            &search(vec![900.0, 900.0, 500.0], 500.0),
        );
        assert_eq!(ok.unwrap().vs_o0, Some(0.5));
        for bad in [
            search(vec![900.0, 950.0, 500.0], 500.0),
            search(vec![900.0, 800.0, 500.0], 400.0),
            search(vec![900.0, 500.0], 500.0),
        ] {
            assert!(check(&search_step(), &program(), &bad).is_err());
        }
    }

    #[test]
    fn a_compile_must_return_the_reference_value() {
        let step = Step {
            program: 0,
            epoch: 0,
            op: Op::Compile { sequence: 0 },
            class: Class::NewCompile,
        };
        let answer = |result, cycles| {
            Response::Compile(CompileResponse {
                cycles,
                instructions: 1,
                result,
                counters: Vec::new(),
                ir: None,
                stats: RequestStats::default(),
            })
        };
        assert!(check(&step, &program(), &answer(42, 800.0)).is_ok());
        assert!(check(&step, &program(), &answer(41, 800.0)).is_err());
        assert!(check(&step, &program(), &answer(42, f64::INFINITY)).is_err());
    }
}
