//! # ic-machine — cycle-level simulated targets
//!
//! The paper's experiments ran on a TI C6713 VLIW DSP and an AMD Opteron
//! with PAPI hardware counters. This crate is the substitute substrate: a
//! deterministic cycle-level simulator that executes `ic-ir` modules under
//! a configurable [`MachineConfig`] and reports a PAPI-style
//! [`PerfCounters`] vector.
//!
//! The timing model is an in-order machine with:
//!
//! * a bounded issue width per cycle with true-dependence stalls tracked
//!   through per-register ready times (so the list-scheduling and
//!   unrolling passes have the effect they have on a real in-order VLIW);
//! * a two-level set-associative write-allocate/write-back data-cache
//!   hierarchy with LRU replacement ([`cache`]);
//! * a 2-bit saturating-counter branch predictor ([`branch`]);
//! * a small fully-associative data TLB ([`tlb`]).
//!
//! There are two execution tiers with identical observable behaviour:
//!
//! * [`decode`] — the production path: a module lowered once into a
//!   flat [`DecodedProgram`] of fixed-size micro-ops (operands
//!   pre-resolved, targets as dense op offsets, latencies baked in),
//!   executed per-op by [`DecodedSim`]. A shared [`DecodeCache`]
//!   memoizes the lowering across evaluations.
//! * [`interp`] — the legacy tree-walking interpreter, kept as the
//!   differential-testing oracle ([`simulate_legacy`], or force it
//!   everywhere at runtime with `IC_SIM_LEGACY=1`).
//!
//! Both tiers are *resumable*: `step` runs a bounded number of
//! instructions and can be interleaved with other cores (the multicore
//! model in [`multicore`] shares one L2 between per-core simulators) or
//! sampled in windows (the dynamic-optimization runtime monitor in
//! `ic-core` uses this), and slicing is bit-identical to a one-shot run.
//!
//! [`microbench`] implements Yotov-style microbenchmark characterization
//! of a machine config: it *measures* cache sizes and latencies by running
//! probe programs, rather than reading the config — the knowledge-base
//! entries for architectures are produced this way.

pub mod branch;
pub mod cache;
pub mod config;
pub mod counters;
pub mod decode;
pub mod interp;
pub mod mem;
pub mod microbench;
pub mod multicore;
pub mod tlb;

pub use config::MachineConfig;
pub use counters::{Counter, PerfCounters};
pub use decode::{DecodeCache, DecodeCacheConfig, DecodedProgram, DecodedSim};
pub use interp::{RunResult, Sim, SimError};
pub use mem::Memory;
// The decode-cache stats type lives in ic-obs so every stats surface
// shares one shape; re-exported here for simulator-side convenience.
pub use ic_obs::DecodeCacheStats;

use std::sync::Arc;

/// True when `IC_SIM_LEGACY=1` forces the tree-walking interpreter
/// everywhere (the escape hatch for differential debugging). Checked once.
pub fn legacy_forced() -> bool {
    static FORCED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *FORCED.get_or_init(|| std::env::var_os("IC_SIM_LEGACY").is_some_and(|v| v == "1"))
}

/// Execute `module` to completion on a machine described by `config`,
/// with `mem` as the initial array contents and an instruction budget of
/// `fuel`.
///
/// Runs on the decoded tier (decoding the module fresh; callers with
/// repeated evaluations should hold a [`DecodeCache`] and call
/// [`simulate_decoded`] directly). Bit-identical to [`simulate_legacy`].
pub fn simulate(
    module: &ic_ir::Module,
    config: &MachineConfig,
    mem: Memory,
    fuel: u64,
) -> Result<RunResult, SimError> {
    if legacy_forced() {
        return simulate_legacy(module, config, mem, fuel);
    }
    let prog = Arc::new(DecodedProgram::decode(module, config));
    simulate_decoded(&prog, config, mem, fuel)
}

/// Execute an already-decoded program to completion on the decoded tier.
pub fn simulate_decoded(
    prog: &Arc<DecodedProgram>,
    config: &MachineConfig,
    mem: Memory,
    fuel: u64,
) -> Result<RunResult, SimError> {
    let mut l2 = cache::Cache::new(&config.l2);
    let mut sim = DecodedSim::new(Arc::clone(prog), config, mem);
    match sim.step(fuel, &mut l2)? {
        interp::StepOutcome::Finished(ret) => Ok(sim.into_result(ret)),
        interp::StepOutcome::Running => Err(SimError::OutOfFuel),
    }
}

/// Execute `module` on the legacy tree-walking interpreter — the
/// differential-testing oracle for the decoded engine.
pub fn simulate_legacy(
    module: &ic_ir::Module,
    config: &MachineConfig,
    mem: Memory,
    fuel: u64,
) -> Result<RunResult, SimError> {
    let mut l2 = cache::Cache::new(&config.l2);
    let mut sim = Sim::new(module, config, mem);
    match sim.step(fuel, &mut l2)? {
        interp::StepOutcome::Finished(ret) => Ok(sim.into_result(ret)),
        interp::StepOutcome::Running => Err(SimError::OutOfFuel),
    }
}

/// Run a module on a fresh zeroed memory. Most tests use this.
pub fn simulate_default(
    module: &ic_ir::Module,
    config: &MachineConfig,
    fuel: u64,
) -> Result<RunResult, SimError> {
    simulate(module, config, Memory::for_module(module), fuel)
}
