//! Differential testing of the execution tiers: the pre-decoded
//! threaded-code simulator must be **bit-identical** to the legacy
//! tree-walking interpreter — same
//! performance counters, same cycle count, same return word, same final
//! memory — on every module, under every step quantum, including the
//! error paths (division by zero, out-of-fuel mid-run).
//!
//! Random modules are generated directly at the IR level so every
//! instruction kind the decoder handles is exercised, including `Select`
//! and the float ops that the MinC frontend rarely emits.

use ic_ir::builder::FunctionBuilder;
use ic_ir::{BinOp, ElemClass, Inst, Module, Operand, Reg, Ty, UnOp};
use ic_machine::cache::Cache;
use ic_machine::interp::{Sim, StepOutcome};
use ic_machine::{DecodedProgram, DecodedSim, MachineConfig, Memory, PerfCounters, SimError};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Everything observable about a (possibly failed) simulation.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: Result<Option<u64>, SimError>,
    counters: PerfCounters,
    cycle: u64,
    mem_checksum: u64,
}

fn run_legacy(m: &Module, cfg: &MachineConfig, fuel: u64, quantum: u64) -> Observed {
    let mut l2 = Cache::new(&cfg.l2);
    let mut sim = Sim::new(m, cfg, Memory::for_module(m));
    let mut left = fuel;
    let outcome = loop {
        let n = quantum.min(left);
        match sim.step(n, &mut l2) {
            Ok(StepOutcome::Finished(v)) => break Ok(v),
            Ok(StepOutcome::Running) => {
                left -= n;
                if left == 0 {
                    break Err(SimError::OutOfFuel);
                }
            }
            Err(e) => break Err(e),
        }
    };
    Observed {
        outcome,
        counters: sim.counters().clone(),
        cycle: sim.cycle(),
        mem_checksum: sim.mem().checksum(),
    }
}

fn run_decoded(m: &Module, cfg: &MachineConfig, fuel: u64, quantum: u64) -> Observed {
    let prog = Arc::new(DecodedProgram::decode(m, cfg));
    let mut l2 = Cache::new(&cfg.l2);
    let mut sim = DecodedSim::new(prog, cfg, Memory::for_module(m));
    let mut left = fuel;
    let outcome = loop {
        let n = quantum.min(left);
        match sim.step(n, &mut l2) {
            Ok(StepOutcome::Finished(v)) => break Ok(v),
            Ok(StepOutcome::Running) => {
                left -= n;
                if left == 0 {
                    break Err(SimError::OutOfFuel);
                }
            }
            Err(e) => break Err(e),
        }
    };
    Observed {
        outcome,
        counters: sim.counters().clone(),
        cycle: sim.cycle(),
        mem_checksum: sim.mem().checksum(),
    }
}

/// A random, mostly-terminating module: bounded loops over int and float
/// arrays, a callable helper with a data-dependent branch, every
/// instruction kind (Select spliced in raw, since the builder has no
/// surface for it). Division by a register is allowed rarely, so the
/// DivByZero error path gets differential coverage too.
fn gen_module(seed: u64) -> Module {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut m = Module::new("diff");
    let ia = m.add_array("ints", ElemClass::Int, 64);
    let fa = m.add_array("floats", ElemClass::Float, 32);

    // Helper callee: mix(x, y) with a data-dependent branch.
    let mut hb = FunctionBuilder::new("mix", &[Ty::I64, Ty::I64], Some(Ty::I64));
    let p = hb.params();
    let t = hb.bin(BinOp::Mul, p[0], 31i64);
    let t2 = hb.bin(BinOp::Add, t, p[1]);
    let neg = hb.new_block();
    let pos = hb.new_block();
    let c = hb.bin(BinOp::Lt, t2, 0i64);
    hb.branch(c, neg, pos);
    hb.switch_to(neg);
    let nn = hb.un(UnOp::Neg, t2);
    hb.ret(Some(nn.into()));
    hb.switch_to(pos);
    hb.ret(Some(t2.into()));
    let mix = m.add_func(hb.finish());

    let mut b = FunctionBuilder::new("main", &[], Some(Ty::I64));
    let ints: Vec<Reg> = (0..4)
        .map(|k| {
            let r = b.new_reg(Ty::I64);
            b.mov(r, rng.gen_range(-40i64..40) + k);
            r
        })
        .collect();
    let floats: Vec<Reg> = (0..2)
        .map(|_| {
            let r = b.new_reg(Ty::F64);
            b.mov(r, rng.gen_range(-4i64..4) as f64 + 0.5);
            r
        })
        .collect();

    let int_ops = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::Lt,
        BinOp::Eq,
        BinOp::Ge,
    ];
    let float_ops = [BinOp::FAdd, BinOp::FSub, BinOp::FMul, BinOp::FDiv];
    let float_cmps = [BinOp::FLt, BinOp::FGe, BinOp::FNe];

    for _ in 0..rng.gen_range(1..=3) {
        let i = b.new_reg(Ty::I64);
        b.mov(i, 0i64);
        let bound = rng.gen_range(3i64..24);
        let head = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(head);
        b.switch_to(head);
        let c = b.bin(BinOp::Lt, i, bound);
        b.branch(c, body, exit);
        b.switch_to(body);
        for _ in 0..rng.gen_range(2..=8) {
            let dst = ints[rng.gen_range(0..ints.len())];
            let src = |rng: &mut SmallRng| -> Operand {
                if rng.gen_bool(0.5) {
                    Operand::Reg(ints[rng.gen_range(0..4usize)])
                } else {
                    Operand::ImmI(rng.gen_range(-30i64..30))
                }
            };
            match rng.gen_range(0..10) {
                0..=2 => {
                    let op = int_ops[rng.gen_range(0..int_ops.len())];
                    let a = src(&mut rng);
                    let c = src(&mut rng);
                    b.bin_to(dst, op, a, c);
                }
                3 => {
                    // Division: usually by a nonzero immediate, sometimes
                    // by a register (which may be zero — both engines
                    // must fail identically).
                    let op = if rng.gen_bool(0.5) {
                        BinOp::Div
                    } else {
                        BinOp::Rem
                    };
                    let divisor = if rng.gen_bool(0.85) {
                        Operand::ImmI(rng.gen_range(1i64..9))
                    } else {
                        Operand::Reg(ints[rng.gen_range(0..4usize)])
                    };
                    let a = src(&mut rng);
                    b.bin_to(dst, op, a, divisor);
                }
                4 => {
                    let v = b.load(Ty::I64, ia, src(&mut rng));
                    b.bin_to(dst, BinOp::Add, dst, v);
                }
                5 => {
                    let idx = src(&mut rng);
                    let val = src(&mut rng);
                    b.store(ia, idx, val);
                }
                6 => {
                    let a = src(&mut rng);
                    let c = src(&mut rng);
                    let r = b.call(Ty::I64, mix, vec![a, c]);
                    b.bin_to(dst, BinOp::Xor, dst, r);
                }
                7 => {
                    let op = if rng.gen_bool(0.5) {
                        UnOp::Neg
                    } else {
                        UnOp::Not
                    };
                    let a = src(&mut rng);
                    let r = b.un(op, a);
                    b.bin_to(dst, BinOp::Add, dst, r);
                }
                8 => {
                    // Float pipeline: load, arithmetic, compare, store.
                    let fd = floats[rng.gen_range(0..2usize)];
                    let op = float_ops[rng.gen_range(0..float_ops.len())];
                    let fv = b.load(Ty::F64, fa, src(&mut rng));
                    b.bin_to(fd, op, fd, fv);
                    b.store(fa, src(&mut rng), fd);
                    let cmp = float_cmps[rng.gen_range(0..float_cmps.len())];
                    b.bin_to(dst, cmp, floats[0], floats[1]);
                }
                _ => {
                    let conv = b.un(UnOp::I2F, src(&mut rng));
                    let back = b.un(UnOp::F2I, conv);
                    b.bin_to(dst, BinOp::Sub, dst, back);
                }
            }
        }
        b.bin_to(i, BinOp::Add, i, 1i64);
        b.jump(head);
        b.switch_to(exit);
    }
    let sum = b.bin(BinOp::Add, ints[0], ints[1]);
    let sum2 = b.bin(BinOp::Add, sum, ints[2]);
    let sum3 = b.bin(BinOp::Add, sum2, ints[3]);
    b.ret(Some(sum3.into()));
    let mut f = b.finish();

    // Splice raw Selects (no builder surface): pick non-entry blocks and
    // conditionally overwrite one of the pool registers.
    for _ in 0..rng.gen_range(1..=3) {
        let bi = rng
            .gen_range(1..f.blocks.len().max(2))
            .min(f.blocks.len() - 1);
        let at = rng.gen_range(0..=f.blocks[bi].insts.len());
        f.blocks[bi].insts.insert(
            at,
            Inst::Select {
                dst: ints[rng.gen_range(0..4usize)],
                cond: Operand::Reg(ints[rng.gen_range(0..4usize)]),
                t: Operand::ImmI(rng.gen_range(-9i64..9)),
                f: Operand::Reg(ints[rng.gen_range(0..4usize)]),
            },
        );
    }
    let main = m.add_func(f);
    m.entry = main;
    m
}

fn config(pick: u8) -> MachineConfig {
    match pick % 3 {
        0 => MachineConfig::test_tiny(),
        1 => MachineConfig::vliw_c6713_like(),
        _ => MachineConfig::superscalar_amd_like(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

    /// The headline contract: for random modules, machines, budgets and
    /// step quanta, the decoded engine observes exactly what the legacy
    /// interpreter observes — even when either run ends in an error.
    #[test]
    fn decoded_is_bit_identical_to_legacy(
        seed in 0u64..100_000,
        cfg_pick in 0u8..3,
        fuel in prop::sample::select(vec![300u64, 7_000, 2_000_000]),
        legacy_q in prop::sample::select(vec![1u64, 13, 977, u64::MAX]),
        decoded_q in prop::sample::select(vec![1u64, 17, 100, u64::MAX]),
    ) {
        let m = gen_module(seed);
        ic_ir::verify::verify_module(&m).expect("generator emits valid IR");
        let cfg = config(cfg_pick);
        let legacy = run_legacy(&m, &cfg, fuel, legacy_q.min(fuel));
        let decoded = run_decoded(&m, &cfg, fuel, decoded_q.min(fuel));
        prop_assert_eq!(&legacy, &decoded, "seed {} diverged (decoded)", seed);
    }
}

/// Deterministic spot-check of the division-by-zero error path: both
/// engines must report the same interned function name, with identical
/// counters up to and including the faulting instruction.
#[test]
fn div_by_zero_is_identical_and_names_the_function() {
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new("main", &[], Some(Ty::I64));
    let z = b.bin(BinOp::Add, 0i64, 0i64);
    let x = b.bin(BinOp::Div, 1i64, z);
    b.ret(Some(x.into()));
    m.add_func(b.finish());
    let cfg = MachineConfig::test_tiny();
    let legacy = run_legacy(&m, &cfg, 1000, u64::MAX);
    let decoded = run_decoded(&m, &cfg, 1000, u64::MAX);
    assert_eq!(legacy, decoded);
    match &decoded.outcome {
        Err(SimError::DivByZero { func }) => assert_eq!(func.as_str(), "main"),
        other => panic!("expected DivByZero, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Generated-corpus slice: the suite generator's self-checking programs,
// compiled by the real frontend, run through both engines.
// ---------------------------------------------------------------------

use ic_workloads::gen::{generate, Family, GenSpec, SizeClass};

/// Run one generated spec through both engines on every machine
/// config and assert bit-identity plus the generator's mirrored return
/// value.
fn check_generated(spec: &GenSpec) {
    let g = generate(spec);
    let m = ic_lang::compile(&spec.name(), &g.source)
        .unwrap_or_else(|e| panic!("{spec:?}: {e}\n{}", g.source));
    for pick in 0u8..3 {
        let cfg = config(pick);
        let legacy = run_legacy(&m, &cfg, g.fuel, u64::MAX);
        let decoded = run_decoded(&m, &cfg, g.fuel, 977.min(g.fuel));
        assert_eq!(legacy, decoded, "{spec:?} diverged on config {pick}");
        assert_eq!(
            decoded.outcome,
            Ok(Some(g.expected as u64)),
            "{spec:?} config {pick}: decoded engine disagrees with the generator's mirror"
        );
    }
}

/// Seed-pinned CI slice: one tiny program per family through both
/// engines on all three machine configs.
#[test]
fn decoded_matches_legacy_on_generated_corpus_sample() {
    for (family, seed) in Family::ALL.into_iter().zip([11u64, 23, 37, 58, 91]) {
        check_generated(&GenSpec {
            family,
            seed,
            size: SizeClass::Tiny,
        });
    }
}

/// The larger sweep behind `--ignored` (nightly CI): every family ×
/// twenty seeds × tiny and small sizes.
#[test]
#[ignore = "nightly: run with --ignored"]
fn decoded_matches_legacy_on_generated_corpus_full() {
    for family in Family::ALL {
        for seed in 0u64..20 {
            for size in [SizeClass::Tiny, SizeClass::Small] {
                check_generated(&GenSpec { family, seed, size });
            }
        }
    }
}

/// Decode-cache eviction coverage: a byte budget small enough for only a
/// couple of resident programs forces the LRU to evict while a round of
/// generated programs cycles through twice. Every re-decoded program
/// must still observe bit-identical results, and the stats must show the
/// evictions actually happened.
#[test]
fn decode_cache_eviction_preserves_results() {
    use ic_machine::{simulate_decoded, DecodeCache, DecodeCacheConfig};

    let cfg = MachineConfig::test_tiny();
    let specs: Vec<GenSpec> = Family::ALL
        .into_iter()
        .map(|family| GenSpec {
            family,
            seed: 5,
            size: SizeClass::Tiny,
        })
        .collect();
    let programs: Vec<(GenSpec, Module, i64, u64)> = specs
        .iter()
        .map(|s| {
            let g = generate(s);
            let m = ic_lang::compile(&s.name(), &g.source).unwrap();
            (*s, m, g.expected, g.fuel)
        })
        .collect();

    // Budget for roughly one decoded program: every switch evicts.
    let one = DecodedProgram::decode(&programs[0].1, &cfg);
    let tiny_cache = DecodeCache::new(DecodeCacheConfig {
        byte_budget: one.approx_bytes() + one.approx_bytes() / 2,
    });
    let roomy_cache = DecodeCache::new(DecodeCacheConfig::default());

    let run = |cache: &DecodeCache, m: &Module, fuel: u64| {
        let prog = cache.get_or_decode(m, &cfg);
        simulate_decoded(&prog, &cfg, Memory::for_module(m), fuel)
    };
    for round in 0..2 {
        for (spec, m, expected, fuel) in &programs {
            let thrashed = run(&tiny_cache, m, *fuel).unwrap_or_else(|e| panic!("{spec:?}: {e}"));
            let roomy = run(&roomy_cache, m, *fuel).unwrap();
            assert_eq!(
                thrashed.ret_i64(),
                Some(*expected),
                "{spec:?} round {round}: eviction changed the result"
            );
            assert_eq!(thrashed.ret_i64(), roomy.ret_i64(), "{spec:?}");
            assert_eq!(thrashed.cycles(), roomy.cycles(), "{spec:?}");
            assert_eq!(thrashed.mem.checksum(), roomy.mem.checksum(), "{spec:?}");
        }
    }

    let thrashed_stats = tiny_cache.stats();
    let roomy_stats = roomy_cache.stats();
    assert!(
        thrashed_stats.evictions > 0,
        "tiny budget must evict: {thrashed_stats:?}"
    );
    assert_eq!(
        roomy_stats.evictions, 0,
        "default budget must hold the whole round: {roomy_stats:?}"
    );
    assert!(
        roomy_stats.hits >= programs.len() as u64,
        "second round must hit the roomy cache: {roomy_stats:?}"
    );
}

/// The decoded engine honours the same step-slicing contract as the
/// legacy one: any quantum schedule is bit-identical to one-shot.
#[test]
fn decoded_step_slicing_matches_one_shot() {
    let m = gen_module(424_242);
    let cfg = MachineConfig::test_tiny();
    let one_shot = run_decoded(&m, &cfg, 2_000_000, u64::MAX);
    for quantum in [1u64, 3, 17, 100, 1000] {
        assert_eq!(
            one_shot,
            run_decoded(&m, &cfg, 2_000_000, quantum),
            "quantum {quantum}"
        );
    }
}
