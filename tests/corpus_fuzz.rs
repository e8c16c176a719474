//! Generator-driven differential fuzzing across the whole stack: one
//! seeded program source (`ic_workloads::gen`), three oracles —
//!
//! 1. the legacy tree-walking interpreter,
//! 2. the pre-decoded threaded-code simulator,
//! 3. the prefix-cached compile pipeline (shared `PrefixCache` +
//!    `DecodeCache`, the path search engines actually take),
//!
//! all of which must agree bit-for-bit with each other AND with the
//! generator's pure-Rust mirror of the program's self-checking return
//! value, under every optimization sequence. A divergence prints the
//! reproducing `(family, seed, sequence)` triple.
//!
//! The proptest subset is the tier-1 CI gate; `corpus_fuzz_deep` is the
//! nightly N seeds × M sequences sweep behind `--ignored`.

use intelligent_compilers::machine::{
    simulate_decoded, simulate_legacy, DecodeCache, DecodeCacheConfig, MachineConfig, Memory,
};
use intelligent_compilers::passes::{apply_sequence, Opt, PrefixCache};
use intelligent_compilers::workloads::gen::{generate, Family, GenSpec, SizeClass};
use proptest::prelude::*;

/// What every oracle must agree on.
#[derive(Debug, Clone, PartialEq)]
struct Verdict {
    ret: Option<i64>,
    cycles: u64,
    mem_checksum: u64,
}

/// Run one generated spec under one optimization sequence through all
/// three oracles; panic with the reproducing triple on any divergence.
fn run_three_oracles(spec: &GenSpec, seq: &[Opt], decode_cache: &DecodeCache) {
    let g = generate(spec);
    let m0 = intelligent_compilers::lang::compile(&spec.name(), &g.source)
        .unwrap_or_else(|e| panic!("REPRO ({:?}, {}, {seq:?}): {e}", spec.family, spec.seed));

    // Oracle 3's compile path: the prefix cache applies `seq` to the
    // base module (primed so the trie is genuinely exercised).
    let prefix_cache = PrefixCache::new(m0.clone());
    if seq.len() > 1 {
        prefix_cache.apply_cached(&seq[..seq.len() - 1]);
    }
    let (m_cached, _) = prefix_cache.apply_cached(seq);

    // Reference compile path: plain apply_sequence.
    let mut m_plain = m0;
    apply_sequence(&mut m_plain, seq);

    let cfg = cfg();
    let legacy = simulate_legacy(&m_plain, &cfg, Memory::for_module(&m_plain), g.fuel)
        .unwrap_or_else(|e| repro(spec, seq, &format!("legacy interpreter failed: {e}")));
    let decoded_prog = decode_cache.get_or_decode(&m_plain, &cfg);
    let decoded = simulate_decoded(&decoded_prog, &cfg, Memory::for_module(&m_plain), g.fuel)
        .unwrap_or_else(|e| repro(spec, seq, &format!("decoded simulator failed: {e}")));
    let cached_prog = decode_cache.get_or_decode(&m_cached, &cfg);
    let cached = simulate_decoded(&cached_prog, &cfg, Memory::for_module(&m_cached), g.fuel)
        .unwrap_or_else(|e| repro(spec, seq, &format!("prefix-cached pipeline failed: {e}")));

    let v = |r: &intelligent_compilers::machine::RunResult| Verdict {
        ret: r.ret_i64(),
        cycles: r.cycles(),
        mem_checksum: r.mem.checksum(),
    };
    let (vl, vd, vc) = (v(&legacy), v(&decoded), v(&cached));
    if vl != vd {
        repro(spec, seq, &format!("legacy vs decoded: {vl:?} vs {vd:?}"));
    }
    if vd != vc {
        repro(
            spec,
            seq,
            &format!("decoded vs prefix-cached: {vd:?} vs {vc:?}"),
        );
    }
    if vl.ret != Some(g.expected) {
        repro(
            spec,
            seq,
            &format!(
                "self-check broken: returned {:?}, mirror expects {}",
                vl.ret, g.expected
            ),
        );
    }
}

/// Fail with the reproducing `(family, seed, sequence)` triple.
fn repro(spec: &GenSpec, seq: &[Opt], what: &str) -> ! {
    panic!(
        "REPRO: family={:?} seed={} size={:?} sequence={:?}\n{}",
        spec.family, spec.seed, spec.size, seq, what
    )
}

fn cfg() -> MachineConfig {
    MachineConfig::test_tiny()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, .. ProptestConfig::default() })]

    /// The tier-1 gate: random (family, seed, sequence) triples through
    /// all three oracles.
    #[test]
    fn three_oracles_agree_on_random_programs_and_sequences(
        family in prop::sample::select(Family::ALL.to_vec()),
        seed in 0u64..1_000_000,
        seq in prop::collection::vec(prop::sample::select(Opt::ALL.to_vec()), 0..=6),
    ) {
        let cache = DecodeCache::new(DecodeCacheConfig::default());
        run_three_oracles(
            &GenSpec { family, seed, size: SizeClass::Tiny },
            &seq,
            &cache,
        );
    }
}

/// Seed-pinned smoke subset: a handful of named cases that always run,
/// sharing one decode cache so the cached-program path is hit too.
#[test]
fn three_oracles_agree_on_pinned_cases() {
    let cache = DecodeCache::new(DecodeCacheConfig::default());
    let cases: &[(Family, u64, &[Opt])] = &[
        (Family::Stencil, 3, &[Opt::Unroll4, Opt::Cse]),
        (Family::HashJoin, 14, &[Opt::ConstProp, Opt::Dce]),
        (Family::Sort, 159, &[Opt::IfConvert, Opt::Peephole]),
        (Family::Sparse, 2653, &[Opt::PtrCompress, Opt::Licm]),
        (Family::Reduction, 58979, &[Opt::StrengthRed, Opt::Schedule]),
    ];
    for (family, seed, seq) in cases {
        let spec = GenSpec {
            family: *family,
            seed: *seed,
            size: SizeClass::Tiny,
        };
        run_three_oracles(&spec, seq, &cache);
        // Same spec again: second time around both caches serve hits.
        run_three_oracles(&spec, seq, &cache);
    }
    assert!(cache.stats().hits > 0, "decode cache never hit");
}

/// Eviction torture for the decode cache: squeezed to a few KB, it must
/// constantly evict and re-decode programs while every oracle keeps
/// agreeing — catches any decode-order or cache-lifetime dependence
/// (e.g. a stale program served for a fingerprint after its eviction).
#[test]
fn decoded_tier_survives_decode_cache_eviction() {
    let tiny = DecodeCache::new(DecodeCacheConfig {
        byte_budget: 8 << 10,
    });
    let specs: Vec<GenSpec> = Family::ALL
        .into_iter()
        .flat_map(|family| {
            (0..3).map(move |seed| GenSpec {
                family,
                seed: 7919 * seed + 13,
                size: SizeClass::Tiny,
            })
        })
        .collect();
    // Two passes over the whole set: the second pass re-decodes programs
    // the first pass evicted, on a cache whose budget can't hold them.
    for _ in 0..2 {
        for spec in &specs {
            run_three_oracles(spec, &[Opt::ConstProp, Opt::Dce], &tiny);
        }
    }
    let stats = tiny.stats();
    assert!(
        stats.evictions > 0,
        "torture budget never forced an eviction: {stats:?}"
    );
    assert!(
        (stats.bytes as usize) <= 8 << 10,
        "cache exceeded its byte budget: {stats:?}"
    );
}

/// Nightly sweep: N seeds × M sequences per family, one shared decode
/// cache, emitting the iteration count as an observability snapshot.
#[test]
#[ignore = "nightly: run with --ignored"]
fn corpus_fuzz_deep() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let cache = DecodeCache::new(DecodeCacheConfig::default());
    let mut rng = SmallRng::seed_from_u64(0x00C0_FFEE);
    let mut iterations = 0u64;
    for family in Family::ALL {
        for _ in 0..12 {
            let seed = rng.gen_range(0u64..10_000_000);
            let spec = GenSpec {
                family,
                seed,
                size: SizeClass::Tiny,
            };
            for _ in 0..6 {
                let len = rng.gen_range(0..=6);
                let seq: Vec<Opt> = (0..len)
                    .map(|_| Opt::ALL[rng.gen_range(0..Opt::ALL.len())])
                    .collect();
                run_three_oracles(&spec, &seq, &cache);
                iterations += 1;
            }
        }
    }
    // Record what ran: corpus composition plus the fuzz work, in the
    // unified snapshot schema nightly logs can archive.
    let mut snap = intelligent_compilers::obs::Snapshot::for_context("corpus_fuzz_deep");
    snap.corpus = intelligent_compilers::workloads::corpus_stats(
        intelligent_compilers::workloads::SuiteScale::Small,
    );
    snap.corpus.fuzz_iterations = iterations;
    println!("{}", snap.to_json());
}
