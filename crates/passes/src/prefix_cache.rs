//! Prefix-tree compilation cache — elide shared pipeline prefixes.
//!
//! Sequence search evaluates hundreds of thousands of candidate pass
//! pipelines against the *same* `-O0` module, and lexicographic
//! enumeration (see `ic-search::exhaustive`) means consecutive candidates
//! typically share a length-4 prefix. Re-running that shared prefix for
//! every candidate wastes most of the compile time: the whole-sequence
//! evaluation cache (`ic-search::CachedEvaluator`) only dedups *identical*
//! sequences.
//!
//! [`PrefixCache`] is a thread-safe trie keyed by pass-sequence prefixes.
//! Each node holds the IR module *after* applying that prefix to the base
//! module, shared behind an `Arc`; applying a sequence walks down to the
//! deepest cached prefix, copies that module out (copy-on-write into the
//! next pass), and only runs the suffix passes. The trie is stored as a
//! flat `prefix -> node` map — equivalent to a pointer-linked trie, but a
//! node stays useful even after its ancestors are evicted.
//!
//! The cache **elides work, never changes it**: [`PrefixCache::apply_cached`]
//! returns a module (and changed-pass count) bit-identical to
//! `base.clone()` + [`crate::apply_sequence`]. Passes are deterministic
//! functions of the module, so a cached post-prefix module is
//! indistinguishable from a freshly computed one.
//!
//! Nodes are **hash-consed**: many prefixes produce the same module (a
//! pass that reports no change, or two orders that meet), so each
//! distinct module is stored once and shared by every node that holds
//! it. A pass that reports no change shares its parent's `Arc`; a
//! changed module is looked up by its [`ModuleKey`], confirmed with `==`,
//! and otherwise stored.
//!
//! Memory is bounded by an LRU over trie nodes with a configurable byte
//! budget ([`PrefixCacheConfig::byte_budget`]). The budget counts each
//! resident distinct module once (sizes are estimated, see
//! [`approx_module_bytes`]); eviction drops the least-recently-touched
//! node first, and a module's bytes are freed with the last node that
//! holds it. Only *proper* prefixes are cached —
//! the full-length module is returned to the caller, not stored, because
//! identical whole sequences are already deduped one level up by the
//! evaluation cache.
//!
//! Concurrency: one `parking_lot` mutex guards the trie; it is held for
//! map walks and insertions only, never across a pass application, a
//! module clone or a module comparison. Concurrent misses on the same
//! prefix may both compute it (the results are identical; first insert
//! wins), exactly like the evaluation cache's miss path.

use crate::Opt;
use ic_ir::{Module, ModuleKey};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Tuning knobs for a [`PrefixCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefixCacheConfig {
    /// LRU byte budget over cached post-prefix modules (estimated via
    /// [`approx_module_bytes`]). The default is sized for the paper's
    /// length-5 sequences over 13 opts: a lexicographic sweep keeps at
    /// most a few thousand warm prefix nodes of workload-sized modules,
    /// which fits comfortably in 64 MiB.
    pub byte_budget: usize,
}

impl Default for PrefixCacheConfig {
    fn default() -> Self {
        PrefixCacheConfig {
            byte_budget: 64 << 20,
        }
    }
}

/// A point-in-time view of compile-cache activity.
///
/// Since the `ic-obs` unification this is the workspace-wide
/// [`ic_obs::CompileCacheStats`], re-exported under its historical
/// path; it slots directly into an [`ic_obs::Snapshot`]'s
/// `compile_cache` field.
pub use ic_obs::CompileCacheStats;

/// Rough resident size of a module, for LRU accounting. Counts
/// instructions, blocks, registers and array declarations at fixed
/// per-item costs; exact heap usage is unknowable cheaply and the budget
/// only needs the right order of magnitude.
pub fn approx_module_bytes(m: &Module) -> usize {
    let mut bytes = std::mem::size_of::<Module>() + m.name.len();
    for f in &m.funcs {
        bytes += std::mem::size_of::<ic_ir::Function>() + f.name.len();
        bytes += f.reg_tys.len() * 8 + f.params.len() * 8;
        for b in &f.blocks {
            bytes += std::mem::size_of::<ic_ir::Block>();
            bytes += b.insts.len() * std::mem::size_of::<ic_ir::Inst>();
        }
    }
    bytes += m.arrays.len() * std::mem::size_of::<ic_ir::ArrayDecl>();
    bytes
}

/// A trie node: the (shared) module after applying the node's prefix to
/// the base module, plus how many of those prefix passes reported a
/// change (so cached applications return the same changed count as
/// uncached ones).
struct Node {
    module: Arc<Module>,
    key: ModuleKey,
    /// False only when the module key collided with a different resident
    /// module: the node then holds (and is charged for) a private copy.
    interned: bool,
    changed: usize,
    last_touch: u64,
}

/// One distinct resident module and the number of nodes holding it.
#[derive(Clone)]
struct Interned {
    module: Arc<Module>,
    bytes: usize,
    nodes: usize,
}

/// Flat trie state under the mutex. `bytes` sums the distinct resident
/// modules of `store` plus any private collision copies.
struct Trie {
    map: HashMap<Box<[Opt]>, Node>,
    store: HashMap<ModuleKey, Interned>,
    bytes: usize,
    tick: u64,
}

impl Trie {
    /// Drop the least-recently-touched node, freeing its module's bytes
    /// if no other node holds it.
    fn evict_lru(&mut self) {
        let lru = self
            .map
            .iter()
            .min_by_key(|(_, n)| n.last_touch)
            .map(|(k, _)| k.clone())
            .expect("non-empty map");
        let node = self.map.remove(&lru).expect("present");
        if !node.interned {
            self.bytes -= approx_module_bytes(&node.module);
            return;
        }
        let slot = self.store.get_mut(&node.key).expect("interned node");
        slot.nodes -= 1;
        if slot.nodes == 0 {
            self.bytes -= slot.bytes;
            self.store.remove(&node.key);
        }
    }
}

/// A thread-safe prefix-tree compilation cache over a fixed base module.
///
/// See the module docs for the design; in short:
/// [`PrefixCache::apply_cached`] is a drop-in replacement for
/// `base.clone()` + [`crate::apply_sequence`] that skips the longest
/// already-compiled prefix.
pub struct PrefixCache {
    base: Arc<Module>,
    base_key: ModuleKey,
    inner: Mutex<Trie>,
    budget: usize,
    profiler: Option<ic_obs::PassProfiler>,
    hits: AtomicU64,
    misses: AtomicU64,
    passes_run: AtomicU64,
    passes_elided: AtomicU64,
    evictions: AtomicU64,
}

impl PrefixCache {
    /// A cache over `base` with the default byte budget.
    pub fn new(base: Module) -> Self {
        PrefixCache::with_config(base, PrefixCacheConfig::default())
    }

    /// A cache over `base` with an explicit configuration.
    pub fn with_config(base: Module, config: PrefixCacheConfig) -> Self {
        PrefixCache::with_profiler(base, config, None)
    }

    /// A cache that also records every pass it actually runs into
    /// `profiler` (elided prefix passes are, by definition, not run and
    /// not recorded). Profiling is observation-only: cached results
    /// stay bit-identical to the unprofiled path.
    pub fn with_profiler(
        base: Module,
        config: PrefixCacheConfig,
        profiler: Option<ic_obs::PassProfiler>,
    ) -> Self {
        PrefixCache {
            base_key: ModuleKey::of(&base),
            base: Arc::new(base),
            inner: Mutex::new(Trie {
                map: HashMap::new(),
                store: HashMap::new(),
                bytes: 0,
                tick: 0,
            }),
            budget: config.byte_budget,
            profiler,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            passes_run: AtomicU64::new(0),
            passes_elided: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The profiler recording this cache's pass applications, if any.
    pub fn profiler(&self) -> Option<&ic_obs::PassProfiler> {
        self.profiler.as_ref()
    }

    /// The unoptimized base module every sequence is applied to.
    pub fn base(&self) -> &Module {
        &self.base
    }

    /// Current statistics.
    pub fn stats(&self) -> CompileCacheStats {
        let (nodes, bytes) = {
            let t = self.inner.lock();
            (t.map.len(), t.bytes)
        };
        CompileCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            passes_run: self.passes_run.load(Ordering::Relaxed),
            passes_elided: self.passes_elided.load(Ordering::Relaxed),
            nodes,
            bytes,
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Apply `seq` to the base module, reusing the deepest cached prefix.
    /// Returns the optimized module and the number of passes that
    /// reported a change — both bit-identical to
    /// `{ let mut m = base.clone(); apply_sequence(&mut m, seq) }`.
    pub fn apply_cached(&self, seq: &[Opt]) -> (Module, usize) {
        // Find the deepest cached proper prefix (Arc clone only; the
        // deep copy happens outside the lock).
        let found = {
            let mut t = self.inner.lock();
            t.tick += 1;
            let tick = t.tick;
            (1..seq.len()).rev().find_map(|d| {
                let node = t.map.get_mut(&seq[..d])?;
                node.last_touch = tick;
                Some((Arc::clone(&node.module), node.key, d, node.changed))
            })
        };
        let (start, start_key, depth, mut changed) =
            found.unwrap_or_else(|| (Arc::clone(&self.base), self.base_key, 0, 0));
        if !seq.is_empty() {
            if depth > 0 {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.passes_elided
                    .fetch_add(depth as u64, Ordering::Relaxed);
            } else {
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
        }

        // Copy-on-write: the cached post-prefix module stays shared; the
        // suffix passes mutate a private copy. `same` is the interned
        // module the copy still equals, until a pass reports a change.
        let mut module = (*start).clone();
        let mut same = Some((start, start_key));
        for (i, &opt) in seq.iter().enumerate().skip(depth) {
            let applied = match &self.profiler {
                Some(prof) => opt.apply_profiled(&mut module, prof),
                None => opt.apply(&mut module),
            };
            if applied {
                changed += 1;
                same = None;
            }
            self.passes_run.fetch_add(1, Ordering::Relaxed);
            debug_assert!(
                ic_ir::verify::verify_module(&module).is_ok(),
                "pass {} corrupted the module: {:?}",
                opt.name(),
                ic_ir::verify::verify_module(&module).err()
            );
            debug_assert!(
                same.as_ref().is_none_or(|s| s.1 == ModuleKey::of(&module)),
                "pass {} reported no change but changed the module",
                opt.name()
            );
            if i + 1 < seq.len() {
                same = self.insert(&seq[..=i], &module, same, changed);
            }
        }
        (module, changed)
    }

    /// Insert a post-prefix module if absent, then enforce the byte
    /// budget. `same` is an interned module equal to `module`, if the
    /// caller knows one; otherwise the module is interned by key. Returns
    /// the node's interned module, for an unchanged next pass to share.
    /// Races keep the incumbent (contents are identical anyway).
    fn insert(
        &self,
        prefix: &[Opt],
        module: &Module,
        same: Option<(Arc<Module>, ModuleKey)>,
        changed: usize,
    ) -> Option<(Arc<Module>, ModuleKey)> {
        let bytes = approx_module_bytes(module);
        if bytes > self.budget {
            return None; // one oversized module must not thrash the whole LRU
        }
        let (shared, key) = same.unwrap_or_else(|| {
            let key = ModuleKey::of(module);
            let resident = self.inner.lock().store.get(&key).cloned();
            // Keys are hashes: confirm before sharing.
            match resident.map(|s| s.module) {
                Some(m) if *m == *module => (m, key),
                _ => (Arc::new(module.clone()), key),
            }
        });
        let mut evicted = 0u64;
        {
            let mut t = self.inner.lock();
            t.tick += 1;
            let tick = t.tick;
            if let Some(node) = t.map.get_mut(prefix) {
                node.last_touch = tick;
                return Some((Arc::clone(&node.module), node.key));
            }
            let interned = match t.store.get_mut(&key) {
                Some(slot) if Arc::ptr_eq(&slot.module, &shared) => {
                    slot.nodes += 1;
                    true
                }
                Some(_) => {
                    t.bytes += bytes;
                    false
                }
                None => {
                    let module = Arc::clone(&shared);
                    t.store.insert(
                        key,
                        Interned {
                            module,
                            bytes,
                            nodes: 1,
                        },
                    );
                    t.bytes += bytes;
                    true
                }
            };
            let node = Node {
                module: Arc::clone(&shared),
                key,
                interned,
                changed,
                last_touch: tick,
            };
            t.map.insert(prefix.into(), node);
            while t.bytes > self.budget && t.map.len() > 1 {
                t.evict_lru();
                evicted += 1;
            }
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        Some((shared, key))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply_sequence;
    use ic_ir::print::module_to_string;

    fn program() -> Module {
        ic_lang::compile(
            "t",
            "int work(int n) { int s = 0; for (int i = 0; i < n; i = i + 1) s = s + i * 2; return s; }
             int main() { return work(40); }",
        )
        .unwrap()
    }

    fn uncached(base: &Module, seq: &[Opt]) -> (Module, usize) {
        let mut m = base.clone();
        let changed = apply_sequence(&mut m, seq);
        (m, changed)
    }

    #[test]
    fn identical_to_uncached_pipeline() {
        let base = program();
        let cache = PrefixCache::new(base.clone());
        let seqs: Vec<Vec<Opt>> = vec![
            vec![],
            vec![Opt::Dce],
            vec![Opt::ConstProp, Opt::ConstFold, Opt::Dce],
            vec![Opt::ConstProp, Opt::ConstFold, Opt::Cse],
            vec![Opt::ConstProp, Opt::ConstFold, Opt::Cse], // exact repeat
            vec![Opt::Licm, Opt::Unroll4, Opt::Dce, Opt::Schedule],
            vec![Opt::Licm, Opt::Unroll4, Opt::Dce, Opt::Peephole],
            crate::ofast_sequence(),
        ];
        for seq in &seqs {
            let (got, got_changed) = cache.apply_cached(seq);
            let (want, want_changed) = uncached(&base, seq);
            assert_eq!(module_to_string(&got), module_to_string(&want), "{seq:?}");
            assert_eq!(got_changed, want_changed, "{seq:?}");
        }
    }

    #[test]
    fn shared_prefixes_are_elided() {
        let base = program();
        let cache = PrefixCache::new(base);
        let a = [
            Opt::ConstProp,
            Opt::ConstFold,
            Opt::Cse,
            Opt::Dce,
            Opt::Licm,
        ];
        let mut b = a;
        b[4] = Opt::Schedule;
        cache.apply_cached(&a);
        let s0 = cache.stats();
        assert_eq!(s0.misses, 1);
        assert_eq!(s0.passes_run, 5);
        assert_eq!(s0.passes_elided, 0);
        assert_eq!(s0.nodes, 4, "proper prefixes of a cached");

        cache.apply_cached(&b);
        let s1 = cache.stats();
        assert_eq!(s1.hits, 1, "b found a's length-4 prefix");
        assert_eq!(s1.passes_run, 6, "only b's last pass ran");
        assert_eq!(s1.passes_elided, 4);
        assert!(s1.elision_factor() > 1.6);
    }

    #[test]
    fn full_sequences_are_not_cached() {
        let base = program();
        let cache = PrefixCache::new(base);
        let seq = [Opt::Dce, Opt::Cse];
        cache.apply_cached(&seq);
        cache.apply_cached(&seq);
        let s = cache.stats();
        // The repeat elides the length-1 prefix but re-runs the final
        // pass: whole-sequence dedup belongs to the evaluation cache.
        assert_eq!(s.passes_run, 3);
        assert_eq!(s.nodes, 1);
    }

    #[test]
    fn byte_budget_evicts_lru_but_stays_correct() {
        let base = program();
        let node_bytes = approx_module_bytes(&base);
        // Room for only ~2 nodes: a length-5 walk must evict constantly.
        let cache = PrefixCache::with_config(
            base.clone(),
            PrefixCacheConfig {
                byte_budget: node_bytes * 5 / 2,
            },
        );
        let seqs: Vec<Vec<Opt>> = (0..20)
            .map(|k| {
                (0..5)
                    .map(|i| Opt::PAPER_13[(k + i * 3) % Opt::PAPER_13.len()])
                    .filter(|o| !o.is_unroll())
                    .collect()
            })
            .collect();
        for seq in &seqs {
            let (got, changed) = cache.apply_cached(seq);
            let (want, want_changed) = uncached(&base, seq);
            assert_eq!(module_to_string(&got), module_to_string(&want));
            assert_eq!(changed, want_changed);
        }
        let s = cache.stats();
        assert!(s.evictions > 0, "budget was tight enough to evict");
        assert!(s.bytes <= node_bytes * 5 / 2, "budget respected");
    }

    #[test]
    fn oversized_modules_are_never_cached() {
        let base = program();
        let cache = PrefixCache::with_config(base, PrefixCacheConfig { byte_budget: 1 });
        cache.apply_cached(&[Opt::Dce, Opt::Cse, Opt::Licm]);
        let s = cache.stats();
        assert_eq!(s.nodes, 0);
        assert_eq!(s.bytes, 0);
        assert_eq!(s.passes_run, 3, "still compiles, just never caches");
    }

    #[test]
    fn concurrent_applications_are_consistent() {
        let base = program();
        let cache = PrefixCache::new(base.clone());
        let expected = module_to_string(&uncached(&base, &crate::ofast_sequence()).0);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let cache = &cache;
                let expected = &expected;
                scope.spawn(move || {
                    for k in 0..6 {
                        // Everyone hammers overlapping prefixes of ofast.
                        let len = 3 + (t + k) % 10;
                        let seq: Vec<Opt> = crate::ofast_sequence().into_iter().take(len).collect();
                        let (m, _) = cache.apply_cached(&seq);
                        if len == 12 {
                            assert_eq!(&module_to_string(&m), expected);
                        }
                        ic_ir::verify::verify_module(&m).unwrap();
                    }
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.lookups(), 48);
        assert!(s.passes_elided > 0, "threads shared prefixes");
    }
}
