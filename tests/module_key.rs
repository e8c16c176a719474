//! The whole-module structural key and the interned compile cache built
//! on it.
//!
//! * Soundness: across the full optimization registry on two corpus
//!   programs, equal [`ModuleKey`]s only ever name `==` modules, and
//!   `ptr-compress`'s only effect — a narrower `elem_size` — changes the
//!   key.
//! * Retention: after a compile_cold-style stream (never-repeated
//!   sequences on two Small programs), the cache's resident bytes are
//!   exactly the bytes of its *distinct* modules, and at most half of
//!   what one module copy per trie node would hold.

use intelligent_compilers::ir::{ElemClass, Inst, Module, ModuleKey, Operand, Reg};
use intelligent_compilers::passes::prefix_cache::approx_module_bytes;
use intelligent_compilers::passes::{apply_sequence, Opt, PrefixCache};
use intelligent_compilers::search::SequenceSpace;
use intelligent_compilers::workloads::{registry_scaled, SuiteScale};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};
use std::sync::OnceLock;

fn programs() -> &'static [Module] {
    static MODULES: OnceLock<Vec<Module>> = OnceLock::new();
    MODULES.get_or_init(|| {
        let suite = registry_scaled(SuiteScale::Small);
        ["mcf", "dijkstra"]
            .iter()
            .map(|name| {
                let e = suite
                    .iter()
                    .find(|e| e.workload.name == *name)
                    .expect("in suite");
                e.workload.compile()
            })
            .collect()
    })
}

/// Remember `m` under its key; a key already seen must name an equal
/// module.
fn check_sound(seen: &mut HashMap<ModuleKey, Module>, m: &Module) {
    let key = ModuleKey::of(m);
    match seen.get(&key) {
        Some(prev) => assert_eq!(prev, m, "equal keys, different modules"),
        None => {
            seen.insert(key, m.clone());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    #[test]
    fn equal_keys_mean_equal_modules(
        seqs in prop::collection::vec(
            prop::collection::vec(prop::sample::select(Opt::ALL.to_vec()), 1..=5),
            1..=4,
        ),
    ) {
        for base in programs() {
            let mut seen = HashMap::new();
            check_sound(&mut seen, base);
            for seq in &seqs {
                let mut m = base.clone();
                for &opt in seq {
                    opt.apply(&mut m);
                    check_sound(&mut seen, &m);
                    // Toggling only the element size of the pointer
                    // arrays — all `ptr-compress` ever changes — must
                    // change the key.
                    let mut other = m.clone();
                    for a in &mut other.arrays {
                        if a.class == ElemClass::Ptr {
                            a.elem_size = if a.elem_size == 8 { 4 } else { 8 };
                        }
                    }
                    if other.arrays != m.arrays {
                        prop_assert_ne!(ModuleKey::of(&m), ModuleKey::of(&other));
                    }
                }
            }
        }
    }
}

#[test]
fn the_registry_reaches_ptr_compress_on_a_pointer_program() {
    let mcf = &programs()[0];
    assert!(mcf.arrays.iter().any(|a| a.class == ElemClass::Ptr));
    let mut narrowed = mcf.clone();
    assert!(
        Opt::PtrCompress.apply(&mut narrowed),
        "ptr-compress bites on mcf"
    );
    assert_eq!(
        narrowed.funcs, mcf.funcs,
        "ptr-compress touches only arrays"
    );
    assert_ne!(ModuleKey::of(mcf), ModuleKey::of(&narrowed));
}

#[test]
fn float_immediates_key_by_their_bits() {
    // `0.0 == -0.0`, but the two fold differently downstream, so a
    // cache must never share one for the other.
    let with = |v: f64| {
        let mut m = programs()[1].clone();
        m.funcs[0].blocks[0].insts.push(Inst::Mov {
            dst: Reg(0),
            src: Operand::ImmF(v),
        });
        m
    };
    assert_eq!(with(0.0), with(-0.0));
    assert_ne!(ModuleKey::of(&with(0.0)), ModuleKey::of(&with(-0.0)));
}

#[test]
fn compile_cache_holds_each_distinct_module_once() {
    // compile_cold's shape: per program, never-repeated sequences at a
    // fixed stride through the paper's dense sequence space.
    let space = SequenceSpace::paper();
    let mut per_node = 0usize;
    let mut distinct = 0usize;
    for (p, base) in programs().iter().enumerate() {
        let cache = PrefixCache::new(base.clone());
        let seqs: Vec<Vec<Opt>> = (0..60u64)
            .map(|k| space.decode((1_234 + 7_919 * p as u64 + k * 30_007) % space.count()))
            .collect();
        for seq in &seqs {
            cache.apply_cached(seq);
        }
        // With no eviction, the trie holds every proper prefix once.
        let prefixes: BTreeSet<&[Opt]> = seqs
            .iter()
            .flat_map(|s| (1..s.len()).map(move |d| &s[..d]))
            .collect();
        let mut modules: HashMap<ModuleKey, Module> = HashMap::new();
        let mut program_per_node = 0;
        for prefix in &prefixes {
            let mut m = base.clone();
            apply_sequence(&mut m, prefix);
            program_per_node += approx_module_bytes(&m);
            check_sound(&mut modules, &m);
        }
        let program_distinct: usize = modules.values().map(approx_module_bytes).sum();
        let s = cache.stats();
        assert_eq!(s.evictions, 0, "the default budget holds this stream");
        assert_eq!(s.nodes, prefixes.len());
        assert_eq!(
            s.bytes, program_distinct,
            "bytes = distinct resident modules"
        );
        per_node += program_per_node;
        distinct += program_distinct;
    }
    assert!(
        distinct * 2 <= per_node,
        "interning must at least halve retained bytes: {distinct} distinct vs {per_node} per node"
    );
}
