//! Quick simulator-tier throughput probe on the compile-bench workload.
//! Not a benchmark of record — `benches/compile.rs` owns the numbers in
//! BENCH_compile.json; this exists for fast iteration on the tiers.

use ic_machine::{
    simulate_decoded, simulate_legacy, Counter, DecodeCache, DecodeCacheConfig, MachineConfig,
    Memory,
};
use ic_passes::apply_sequence;
use std::time::Instant;

fn main() {
    let wl = std::env::args()
        .nth(2)
        .map(|n| {
            ic_workloads::by_name(&n).unwrap_or_else(|| {
                eprintln!("known workloads:");
                for w in ic_workloads::suite() {
                    eprintln!("  {}", w.name);
                }
                panic!("unknown suite workload {n}")
            })
        })
        .unwrap_or_else(|| ic_workloads::adpcm_scaled(256, 3));
    println!("workload: {}", wl.name);
    let mut m = wl.compile();
    apply_sequence(&mut m, &ic_passes::ofast_sequence());
    let cfg = MachineConfig::vliw_c6713_like();
    let fuel = wl.fuel;

    let cache = DecodeCache::new(DecodeCacheConfig::default());
    let dec = cache.get_or_decode(&m, &cfg);
    println!("program: {} micro-ops", dec.num_ops());

    let l = simulate_legacy(&m, &cfg, Memory::for_module(&m), fuel).unwrap();
    let insts = l.counters.get(Counter::TOT_INS);
    let mem_ops = l.counters.get(Counter::LD_INS) + l.counters.get(Counter::SR_INS);
    let branches = l.counters.get(Counter::BR_INS);
    println!(
        "dynamic: {} insts ({:.1}% mem, {:.1}% branch), {} cycles",
        insts,
        mem_ops as f64 * 100.0 / insts as f64,
        branches as f64 * 100.0 / insts as f64,
        l.cycles()
    );

    let reps: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(6);
    let mut best = [f64::INFINITY; 2];
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(simulate_legacy(&m, &cfg, Memory::for_module(&m), fuel).unwrap());
        best[0] = best[0].min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(simulate_decoded(&dec, &cfg, Memory::for_module(&m), fuel).unwrap());
        best[1] = best[1].min(t.elapsed().as_secs_f64());
    }
    let ips = |s: f64| insts as f64 / s / 1e6;
    println!(
        "legacy  {:7.2}M insts/s ({:.2} ns/inst)",
        ips(best[0]),
        best[0] * 1e9 / insts as f64
    );
    println!(
        "decoded {:7.2}M insts/s ({:.2} ns/inst, {:.2}x)",
        ips(best[1]),
        best[1] * 1e9 / insts as f64,
        best[0] / best[1]
    );
}
