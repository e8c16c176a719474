//! The programs a workload runs over, each with the reference its
//! answers are checked against.
//!
//! The reference never comes from the tier under test: the return
//! value is the registry's hand-computed `expected` where there is one
//! (and the legacy interpreter must agree with it), otherwise a −O0 run
//! on the legacy tree-walking interpreter made during set-up. The same
//! run gives the −O0 cycle count that `best_vs_o0` divides by.

use ic_machine::{simulate_legacy, MachineConfig, Memory};
use ic_serve::JobContext;
use ic_workloads::{registry_scaled, SuiteScale, Workload};
use std::time::Instant;

/// The two programs whose single simulation is 5–8 M instructions at
/// either scale. One search over either is a third of a run, so which
/// sequences a seed draws for them would decide the whole run's number;
/// no workload includes them.
pub const GIANTS: [&str; 2] = ["mcf", "spmv"];

/// Machine every benchmark request names.
pub const MACHINE: &str = "vliw";

pub struct Program {
    pub workload: Workload,
    /// The program's return value, which no optimization may change.
    pub expected: i64,
    /// Legacy-interpreter −O0 cycles.
    pub o0_cycles: f64,
}

impl Program {
    /// The request context for this program. `epoch` is added to the
    /// fuel budget: fuel is part of the context fingerprint and is
    /// never reached, so each epoch is a first-sight context with
    /// unchanged behaviour.
    pub fn ctx(&self, epoch: u64) -> JobContext {
        JobContext {
            name: self.workload.name.clone(),
            source: self.workload.source.clone(),
            machine: MACHINE.into(),
            fuel: self.workload.fuel + epoch,
            deadline_ms: 0,
        }
    }
}

pub fn machine() -> MachineConfig {
    ic_serve::machine_by_name(MACHINE).expect("the benchmark's machine is a built-in")
}

pub struct Corpus {
    pub programs: Vec<Program>,
    /// Wall time of `registry_scaled` alone.
    pub gen_ms: f64,
}

/// Build the giant-free corpus at `scale` and run every program's
/// reference. Panics when a reference run fails or disagrees with the
/// registry: the benchmark cannot check anything then.
pub fn build(scale: SuiteScale, hand_written_only: bool) -> Corpus {
    let t0 = Instant::now();
    let rows = registry_scaled(scale);
    let gen_ms = t0.elapsed().as_secs_f64() * 1e3;
    let config = machine();
    let programs = rows
        .into_iter()
        .filter(|e| !GIANTS.contains(&e.workload.name.as_str()))
        .filter(|e| !hand_written_only || !e.workload.meta.as_ref().is_some_and(|m| m.generated))
        .map(|e| {
            let module = e.workload.compile();
            let run = simulate_legacy(
                &module,
                &config,
                Memory::for_module(&module),
                e.workload.fuel,
            )
            .unwrap_or_else(|err| panic!("reference run of {}: {err}", e.workload.name));
            let ret = run
                .ret_i64()
                .unwrap_or_else(|| panic!("{} returns no value", e.workload.name));
            if let Some(expected) = e.expected {
                assert_eq!(
                    ret, expected,
                    "legacy interpreter disagrees with the registry on {}",
                    e.workload.name
                );
            }
            Program {
                expected: ret,
                o0_cycles: run.cycles() as f64,
                workload: e.workload,
            }
        })
        .collect();
    Corpus { programs, gen_ms }
}
