//! Pre-decoded threaded-code execution: lower a [`Module`] once into a
//! flat array of fixed-size micro-ops, then simulate by walking that
//! array.
//!
//! The legacy interpreter in [`crate::interp`] re-matches `ic_ir::Inst`
//! enums, chases `Vec<Block>` pointers and re-borrows the frame for every
//! operand of every one of the millions of instructions behind a figure
//! run. The decode stage here pays that cost once per (module, machine)
//! pair:
//!
//! * every instruction *and terminator* becomes one fixed-size
//!   `MicroOp` in a single contiguous `Vec` spanning all functions;
//! * operands are pre-resolved `POp`s — plain frame indices, no
//!   `Operand` enum left to match: immediates are deduplicated per
//!   function and *materialized* as extra read-only frame slots, so an
//!   operand read is one indexed load with no imm-vs-reg branch;
//! * hot ALU compares fuse with the branch that consumes them, and
//!   `DecodedProgram::validate` proves every index in bounds at decode
//!   time so the step loop indexes unchecked;
//! * block targets are dense op offsets into that array, so control flow
//!   is `ip = target`, not a `BlockId -> Vec index -> ip reset` dance;
//! * per-op latency and counter class (FP / mul-div) are baked in at
//!   decode time, so the hot loop never consults `MachineConfig::lat`;
//! * function names are interned [`Symbol`]s, so the division-by-zero
//!   error path allocates nothing.
//!
//! [`DecodedSim`] must stay **bit-identical** to [`crate::interp::Sim`] —
//! same counters, same return word, same final memory, under any step
//! quantum. The legacy interpreter remains the differential-testing
//! oracle (`simulate_legacy`, or `IC_SIM_LEGACY=1` at runtime); the
//! proptests in `tests/decoded_differential.rs` pin the contract.
//!
//! [`DecodeCache`] memoizes decoded programs across evaluations and warm
//! `ic-serve` engines, keyed by the post-prefix module's [`ModuleKey`]
//! plus the baked timing parameters, byte-budgeted
//! with LRU eviction like the pass-prefix cache.

use crate::branch::BranchPredictor;
use crate::cache::{Access, Cache};
use crate::config::MachineConfig;
use crate::counters::{Counter, PerfCounters};
use crate::interp::{eval_bin, eval_un, RunResult, SimError, StepOutcome, MAX_CALL_DEPTH};
use crate::mem::Memory;
use crate::tlb::Tlb;
use ic_ir::intern::{intern, Symbol};
use ic_ir::{ArrId, BinOp, Inst, Module, ModuleKey, Operand, Terminator, UnOp};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sentinel register index meaning "no register" (void call destination,
/// no return destination).
const NO_REG: u32 = u32::MAX;

/// A pre-resolved operand packed into 32 bits: always a plain index into
/// the frame's register file. Immediates are *materialized registers*:
/// each function's frame is `num_regs` real registers followed by that
/// function's deduplicated immediate words, preloaded at frame creation.
/// Operand reads are therefore a single unconditional indexed load — no
/// enum match, no imm-vs-reg branch — and `ready` is correct for free
/// (immediate slots are never written, so their ready time stays 0).
/// Keeping operands at 4 bytes is what holds a [`MicroOp`] to 24 bytes —
/// more than two ops per cache line in the hot dispatch loop.
#[derive(Debug, Clone, Copy)]
struct POp(u32);

impl POp {
    /// SAFETY contract of both accessors: `DecodedProgram::validate`
    /// (run once at decode time) proves every operand index is within
    /// its function's frame, and frames are only ever built at exactly
    /// `num_regs + imms_len` slots, so the unchecked reads below cannot
    /// go out of bounds.
    #[inline(always)]
    fn val(self, regs: &[u64]) -> u64 {
        debug_assert!((self.0 as usize) < regs.len());
        unsafe { *regs.get_unchecked(self.0 as usize) }
    }

    #[inline(always)]
    fn ready(self, ready: &[u64]) -> u64 {
        debug_assert!((self.0 as usize) < ready.len());
        unsafe { *ready.get_unchecked(self.0 as usize) }
    }
}

/// Deduplicating builder for one function's immediate slots, indexed
/// just past its real registers.
struct ImmPool {
    base: u32,
    words: Vec<u64>,
    index: HashMap<u64, u32>,
}

impl ImmPool {
    fn new(num_regs: u32) -> Self {
        ImmPool {
            base: num_regs,
            words: Vec::new(),
            index: HashMap::new(),
        }
    }

    fn word(&mut self, w: u64) -> POp {
        let i = match self.index.get(&w) {
            Some(i) => *i,
            None => {
                let i = self.words.len() as u32;
                self.words.push(w);
                self.index.insert(w, i);
                i
            }
        };
        let slot = self.base + i;
        assert!(slot < NO_REG, "immediate pool overflow");
        POp(slot)
    }

    fn operand(&mut self, op: &Operand) -> POp {
        match op {
            Operand::Reg(r) => POp(r.0),
            Operand::ImmI(v) => self.word(*v as u64),
            Operand::ImmF(v) => self.word(v.to_bits()),
        }
    }
}

/// One fixed-size decoded operation (24 bytes, pinned by a test).
/// Terminators are ops too: control flow is just an `ip` assignment.
#[derive(Debug, Clone, Copy)]
enum MicroOp {
    /// `dst = a op b`; `lat` baked from the machine's latency table,
    /// `cls` is the counter class (0 none, 1 FP_INS, 2 MULDIV_INS).
    Bin {
        op: BinOp,
        cls: u8,
        dst: u32,
        a: POp,
        b: POp,
        lat: u32,
    },
    /// Specialized single-cycle integer ALU ops (counter class 0,
    /// latency `lat.alu`): the bulk of any instruction stream, each with
    /// its own dispatch target so the hot loop runs one indirect jump
    /// per op instead of op-dispatch *plus* an `eval_bin` match.
    Add {
        dst: u32,
        a: POp,
        b: POp,
    },
    Sub {
        dst: u32,
        a: POp,
        b: POp,
    },
    And {
        dst: u32,
        a: POp,
        b: POp,
    },
    Or {
        dst: u32,
        a: POp,
        b: POp,
    },
    Xor {
        dst: u32,
        a: POp,
        b: POp,
    },
    Shl {
        dst: u32,
        a: POp,
        b: POp,
    },
    Shr {
        dst: u32,
        a: POp,
        b: POp,
    },
    CmpEq {
        dst: u32,
        a: POp,
        b: POp,
    },
    CmpNe {
        dst: u32,
        a: POp,
        b: POp,
    },
    CmpLt {
        dst: u32,
        a: POp,
        b: POp,
    },
    CmpLe {
        dst: u32,
        a: POp,
        b: POp,
    },
    CmpGt {
        dst: u32,
        a: POp,
        b: POp,
    },
    CmpGe {
        dst: u32,
        a: POp,
        b: POp,
    },
    /// `dst = op a`; `fp` marks the FP_INS counter class.
    Un {
        op: UnOp,
        fp: bool,
        dst: u32,
        a: POp,
    },
    Mov {
        dst: u32,
        src: POp,
    },
    Load {
        dst: u32,
        arr: ArrId,
        idx: POp,
    },
    Store {
        arr: ArrId,
        idx: POp,
        val: POp,
    },
    /// `args` live in the shared argument pool at `[args_off, args_off+args_len)`.
    Call {
        dst: u32,
        callee: u32,
        args_off: u32,
        args_len: u16,
    },
    Select {
        dst: u32,
        cond: POp,
        t: POp,
        f: POp,
    },
    /// Targets are absolute op offsets into the shared op array.
    Jump {
        target: u32,
    },
    /// `site` is the branch-predictor site key, precomputed exactly as
    /// the legacy interpreter derives it from (func, block) indices.
    Branch {
        cond: POp,
        then_t: u32,
        else_t: u32,
        site: u64,
    },
    Ret {
        val: POp,
        has_val: bool,
    },
}

/// Per-function decode metadata.
#[derive(Debug, Clone, Copy)]
struct DecodedFunc {
    /// Op offset of the function's entry block.
    entry_op: u32,
    num_regs: u32,
    /// This function's immediate words in the shared imm pool; they are
    /// copied into frame slots `[num_regs, num_regs + imms_len)` at
    /// frame creation.
    imms_off: u32,
    imms_len: u32,
    /// Parameter register indices in the shared param pool.
    params_off: u32,
    params_len: u16,
    /// Interned function name, for allocation-free error reporting.
    sym: Symbol,
}

impl DecodedFunc {
    /// This function's slice of the program's immediate pool.
    #[inline]
    fn imms<'a>(&self, pool: &'a [u64]) -> &'a [u64] {
        &pool[self.imms_off as usize..(self.imms_off + self.imms_len) as usize]
    }
}

/// A module lowered to threaded code for one machine's latency table.
///
/// Immutable and internally index-based, so one decoded program is safely
/// shared (via `Arc`) across simulations, cores and daemon engines.
pub struct DecodedProgram {
    ops: Vec<MicroOp>,
    /// Per-function immediate words (see [`DecodedFunc::imms_off`]),
    /// preloaded into the tail of each frame's register file.
    imms: Vec<u64>,
    args: Vec<POp>,
    params: Vec<u32>,
    funcs: Vec<DecodedFunc>,
    entry: u32,
}

impl DecodedProgram {
    /// Lower `module` for `cfg`'s latency table. Linear in module size.
    pub fn decode(module: &Module, cfg: &MachineConfig) -> DecodedProgram {
        let l = &cfg.lat;
        let bin_lat = |op: BinOp| -> u32 {
            use BinOp::*;
            let lat = match op {
                Mul => l.mul,
                Div | Rem => l.div,
                FAdd | FSub => l.fadd,
                FMul => l.fmul,
                FDiv => l.fdiv,
                FEq | FNe | FLt | FLe | FGt | FGe => l.fadd,
                _ => l.alu,
            };
            u32::try_from(lat).expect("per-op latency fits in 32 bits")
        };

        // Block offsets are a pure function of block sizes (each block
        // contributes insts + 1 terminator), so targets resolve in one
        // emission pass with no patching.
        let mut funcs = Vec::with_capacity(module.funcs.len());
        let mut block_offs: Vec<Vec<u32>> = Vec::with_capacity(module.funcs.len());
        let mut params = Vec::new();
        let mut next_op = 0u32;
        for f in &module.funcs {
            let mut offs = Vec::with_capacity(f.blocks.len());
            let entry_op = next_op;
            for b in &f.blocks {
                offs.push(next_op);
                next_op += b.insts.len() as u32 + 1;
            }
            let params_off = params.len() as u32;
            params.extend(f.params.iter().map(|p| p.0));
            funcs.push(DecodedFunc {
                entry_op,
                num_regs: f.num_regs() as u32,
                // Filled in by the emission pass below.
                imms_off: 0,
                imms_len: 0,
                params_off,
                params_len: f.params.len() as u16,
                sym: intern(&f.name),
            });
            block_offs.push(offs);
        }

        let mut ops = Vec::with_capacity(next_op as usize);
        let mut args = Vec::new();
        let mut imms = Vec::new();
        for (fi, f) in module.funcs.iter().enumerate() {
            let offs = &block_offs[fi];
            let mut pool = ImmPool::new(funcs[fi].num_regs);
            for (bi, b) in f.blocks.iter().enumerate() {
                for inst in &b.insts {
                    ops.push(match inst {
                        Inst::Bin { op, dst, a, b } => {
                            let dst = dst.0;
                            let a = pool.operand(a);
                            let b = pool.operand(b);
                            match op {
                                BinOp::Add => MicroOp::Add { dst, a, b },
                                BinOp::Sub => MicroOp::Sub { dst, a, b },
                                BinOp::And => MicroOp::And { dst, a, b },
                                BinOp::Or => MicroOp::Or { dst, a, b },
                                BinOp::Xor => MicroOp::Xor { dst, a, b },
                                BinOp::Shl => MicroOp::Shl { dst, a, b },
                                BinOp::Shr => MicroOp::Shr { dst, a, b },
                                BinOp::Eq => MicroOp::CmpEq { dst, a, b },
                                BinOp::Ne => MicroOp::CmpNe { dst, a, b },
                                BinOp::Lt => MicroOp::CmpLt { dst, a, b },
                                BinOp::Le => MicroOp::CmpLe { dst, a, b },
                                BinOp::Gt => MicroOp::CmpGt { dst, a, b },
                                BinOp::Ge => MicroOp::CmpGe { dst, a, b },
                                op => MicroOp::Bin {
                                    op: *op,
                                    dst,
                                    a,
                                    b,
                                    lat: bin_lat(*op),
                                    cls: if op.is_float() {
                                        1
                                    } else if matches!(op, BinOp::Mul | BinOp::Div | BinOp::Rem) {
                                        2
                                    } else {
                                        0
                                    },
                                },
                            }
                        }
                        Inst::Un { op, dst, a } => MicroOp::Un {
                            op: *op,
                            dst: dst.0,
                            a: pool.operand(a),
                            fp: matches!(op, UnOp::FNeg | UnOp::I2F | UnOp::F2I),
                        },
                        Inst::Mov { dst, src } => MicroOp::Mov {
                            dst: dst.0,
                            src: pool.operand(src),
                        },
                        Inst::Load { dst, arr, idx } => MicroOp::Load {
                            dst: dst.0,
                            arr: *arr,
                            idx: pool.operand(idx),
                        },
                        Inst::Store { arr, idx, val } => MicroOp::Store {
                            arr: *arr,
                            idx: pool.operand(idx),
                            val: pool.operand(val),
                        },
                        Inst::Call {
                            dst,
                            callee,
                            args: a,
                        } => {
                            let args_off = args.len() as u32;
                            args.extend(a.iter().map(|x| pool.operand(x)));
                            MicroOp::Call {
                                dst: dst.map_or(NO_REG, |d| d.0),
                                callee: callee.0,
                                args_off,
                                args_len: a.len() as u16,
                            }
                        }
                        Inst::Select { dst, cond, t, f } => MicroOp::Select {
                            dst: dst.0,
                            cond: pool.operand(cond),
                            t: pool.operand(t),
                            f: pool.operand(f),
                        },
                    });
                }
                ops.push(match &b.term {
                    Terminator::Jump(t) => MicroOp::Jump {
                        target: offs[t.index()],
                    },
                    Terminator::Branch {
                        cond,
                        then_bb,
                        else_bb,
                    } => MicroOp::Branch {
                        cond: pool.operand(cond),
                        then_t: offs[then_bb.index()],
                        else_t: offs[else_bb.index()],
                        site: ((fi as u64) << 24) | bi as u64,
                    },
                    Terminator::Ret(v) => MicroOp::Ret {
                        // `val` is never read when `has_val` is false.
                        val: v.as_ref().map_or(POp(0), |x| pool.operand(x)),
                        has_val: v.is_some(),
                    },
                });
            }
            funcs[fi].imms_off = imms.len() as u32;
            funcs[fi].imms_len = pool.words.len() as u32;
            imms.extend_from_slice(&pool.words);
        }

        let prog = DecodedProgram {
            ops,
            imms,
            args,
            params,
            funcs,
            entry: module.entry.0,
        };
        prog.validate();
        prog
    }

    /// Prove the index invariants the hot loop's unchecked accesses rely
    /// on: every operand index fits its function's frame
    /// (`num_regs + imms_len` slots), every destination is a real
    /// register, every control-flow target and pool range is in bounds.
    /// Runs once per decode; panics on a decoder bug rather than letting
    /// the simulator touch memory out of bounds.
    fn validate(&self) {
        let nops = self.ops.len() as u32;
        for (fi, f) in self.funcs.iter().enumerate() {
            let end = self.funcs.get(fi + 1).map_or(nops, |next| next.entry_op);
            let frame = f.num_regs + f.imms_len;
            let reg = |r: u32| assert!(r < f.num_regs, "dst out of range");
            let op_ok = |p: POp| assert!(p.0 < frame, "operand out of range");
            let tgt = |t: u32| assert!(t < nops, "target out of range");
            assert!((f.imms_off + f.imms_len) as usize <= self.imms.len());
            assert!((f.params_off as usize + f.params_len as usize) <= self.params.len());
            for p in &self.params[f.params_off as usize..][..f.params_len as usize] {
                assert!(*p < f.num_regs, "param out of range");
            }
            for op in &self.ops[f.entry_op as usize..end as usize] {
                match *op {
                    MicroOp::Bin { dst, a, b, .. }
                    | MicroOp::Add { dst, a, b }
                    | MicroOp::Sub { dst, a, b }
                    | MicroOp::And { dst, a, b }
                    | MicroOp::Or { dst, a, b }
                    | MicroOp::Xor { dst, a, b }
                    | MicroOp::Shl { dst, a, b }
                    | MicroOp::Shr { dst, a, b }
                    | MicroOp::CmpEq { dst, a, b }
                    | MicroOp::CmpNe { dst, a, b }
                    | MicroOp::CmpLt { dst, a, b }
                    | MicroOp::CmpLe { dst, a, b }
                    | MicroOp::CmpGt { dst, a, b }
                    | MicroOp::CmpGe { dst, a, b } => {
                        reg(dst);
                        op_ok(a);
                        op_ok(b);
                    }
                    MicroOp::Un { dst, a, .. } => {
                        reg(dst);
                        op_ok(a);
                    }
                    MicroOp::Mov { dst, src } => {
                        reg(dst);
                        op_ok(src);
                    }
                    MicroOp::Load { dst, idx, .. } => {
                        reg(dst);
                        op_ok(idx);
                    }
                    MicroOp::Store { idx, val, .. } => {
                        op_ok(idx);
                        op_ok(val);
                    }
                    MicroOp::Call {
                        dst,
                        callee,
                        args_off,
                        args_len,
                    } => {
                        assert!(dst == NO_REG || dst < f.num_regs);
                        assert!((callee as usize) < self.funcs.len());
                        let hi = args_off as usize + args_len as usize;
                        assert!(hi <= self.args.len());
                        for a in &self.args[args_off as usize..hi] {
                            op_ok(*a);
                        }
                    }
                    MicroOp::Select { dst, cond, t, f } => {
                        reg(dst);
                        op_ok(cond);
                        op_ok(t);
                        op_ok(f);
                    }
                    MicroOp::Jump { target } => tgt(target),
                    MicroOp::Branch {
                        cond,
                        then_t,
                        else_t,
                        ..
                    } => {
                        op_ok(cond);
                        tgt(then_t);
                        tgt(else_t);
                    }
                    MicroOp::Ret { val, has_val } => {
                        if has_val {
                            op_ok(val);
                        }
                    }
                }
            }
        }
    }

    /// Approximate heap footprint in bytes, for the cache's byte budget.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.ops.len() * std::mem::size_of::<MicroOp>()
            + self.imms.len() * std::mem::size_of::<u64>()
            + self.args.len() * std::mem::size_of::<POp>()
            + self.params.len() * std::mem::size_of::<u32>()
            + self.funcs.len() * std::mem::size_of::<DecodedFunc>()
    }

    /// Number of micro-ops (instructions + terminators).
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }
}

/// Call frame of the decoded simulator. `ip` is an absolute offset into
/// the shared op array; `ret_dst == NO_REG` means a void call.
struct DFrame {
    func: u32,
    ip: u32,
    regs: Vec<u64>,
    ready: Vec<u64>,
    ret_dst: u32,
}

/// The threaded-code simulator: same observable behaviour and the same
/// resumable [`step`](DecodedSim::step) contract as [`crate::interp::Sim`],
/// an order of magnitude less interpretive overhead.
pub struct DecodedSim {
    prog: Arc<DecodedProgram>,
    cfg: MachineConfig,
    mem: Memory,
    /// Caller frames; the running frame lives in a local inside `step`.
    frames: Vec<DFrame>,
    /// Recycled register files, so calls allocate only at peak depth.
    pool: Vec<(Vec<u64>, Vec<u64>)>,
    cycle: u64,
    slots_used: u32,
    stall: u64,
    l1: Cache,
    tlb: Tlb,
    bp: BranchPredictor,
    counters: PerfCounters,
    finished: Option<Option<u64>>,
}

/// Claim an issue slot no earlier than `ops_ready`; returns issue time.
/// Operates on hoisted locals — the legacy `Sim::issue`, verbatim.
#[inline(always)]
fn issue(
    cycle: &mut u64,
    slots_used: &mut u32,
    stall: &mut u64,
    issue_width: u32,
    ops_ready: u64,
) -> u64 {
    // Branchless, arithmetically identical to the legacy `Sim::issue`
    // (see there for the equivalence argument). The formulation keeps
    // the loop-carried dependency through `cycle` as short as possible:
    // `c + wait` with `wait = ready.saturating_sub(c)` is exactly
    // `max(c, ready)`, one cmp+cmov instead of the saturating-sub chain
    // — `cycle` is the serial bottleneck of every simulation tier, so
    // two fewer dependent ops here is worth more than anywhere else.
    let roll = (*slots_used >= issue_width) as u64;
    let c1 = *cycle + roll;
    let c2 = c1.max(ops_ready);
    *stall += c2 - c1;
    // Slot count survives only if the row neither rolled nor waited.
    let keep = ((roll == 0) & (c2 == c1)) as u32;
    *slots_used = *slots_used * keep + 1;
    *cycle = c2;
    c2
}

impl DecodedSim {
    /// Set up a simulation of `prog` starting at its entry function.
    pub fn new(prog: Arc<DecodedProgram>, cfg: &MachineConfig, mem: Memory) -> Self {
        let entry = &prog.funcs[prog.entry as usize];
        let mut regs = vec![0; entry.num_regs as usize];
        regs.extend_from_slice(entry.imms(&prog.imms));
        let frame = DFrame {
            func: prog.entry,
            ip: entry.entry_op,
            ready: vec![0; regs.len()],
            regs,
            ret_dst: NO_REG,
        };
        DecodedSim {
            cfg: cfg.clone(),
            mem,
            frames: vec![frame],
            pool: Vec::new(),
            cycle: 0,
            slots_used: 0,
            stall: 0,
            l1: Cache::new(&cfg.l1d),
            tlb: Tlb::new(cfg.tlb_entries as usize, cfg.page_size),
            bp: BranchPredictor::new(4096),
            counters: PerfCounters::new(),
            finished: None,
            prog,
        }
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Counters accumulated so far (live view; finalized by
    /// [`DecodedSim::into_result`]).
    pub fn counters(&self) -> &PerfCounters {
        &self.counters
    }

    /// Read access to the simulated memory.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// True once the entry function has returned.
    pub fn is_finished(&self) -> bool {
        self.finished.is_some()
    }

    /// Finalize: fold derived counters and release memory + counters.
    pub fn into_result(mut self, ret: Option<u64>) -> RunResult {
        self.counters.set(Counter::TOT_CYC, self.cycle);
        self.counters.set(Counter::CYC_STALL, self.stall);
        RunResult {
            ret,
            counters: self.counters,
            mem: self.mem,
        }
    }

    /// L1-miss continuation of a data access: counter bumps and the L2
    /// walk, returning the latency added on top of the hit cost. The
    /// all-hit fast path lives inline in the step loop; totals match the
    /// legacy interpreter's `mem_access` exactly.
    fn l1_miss(&mut self, addr: u64, is_write: bool, writeback: bool, l2: &mut Cache) -> u64 {
        let c = &mut self.counters;
        c.bump(Counter::L1_TCM);
        if is_write {
            c.bump(Counter::L1_STM);
        } else {
            c.bump(Counter::L1_LDM);
        }
        if writeback {
            c.bump(Counter::L2_TCA);
            if let Access::Miss { .. } = l2.access(addr ^ 0x8000_0000, true) {
                c.bump(Counter::L2_STM);
            }
        }
        c.bump(Counter::L2_TCA);
        let mut lat = l2.latency;
        match l2.access(addr, is_write) {
            Access::Hit => {}
            Access::Miss { .. } => {
                c.bump(Counter::L2_TCM);
                if is_write {
                    c.bump(Counter::L2_STM);
                    lat += self.cfg.store_miss_penalty;
                } else {
                    c.bump(Counter::L2_LDM);
                    lat += self.cfg.mem_latency;
                }
            }
        }
        lat
    }

    /// Execute up to `max_insts` micro-ops against the shared `l2`.
    ///
    /// Slicing into arbitrary quanta is bit-identical to one uninterrupted
    /// run, exactly like the legacy interpreter — the multicore
    /// interleaver relies on it.
    pub fn step(&mut self, max_insts: u64, l2: &mut Cache) -> Result<StepOutcome, SimError> {
        if let Some(ret) = &self.finished {
            return Ok(StepOutcome::Finished(*ret));
        }
        let prog = Arc::clone(&self.prog);
        let ops = &prog.ops[..];
        let imms = &prog.imms[..];

        // Hoist the hot state into locals: the current frame (so operand
        // reads don't re-borrow through `self.frames.last()`), and the
        // issue-model scalars. Every return path below writes them back.
        let mut cur = self.frames.pop().expect("non-empty call stack");
        let mut cycle = self.cycle;
        let mut slots_used = self.slots_used;
        let mut stall = self.stall;
        let width = self.cfg.issue_width;
        let alu = self.cfg.lat.alu;
        let mov = self.cfg.lat.mov;
        let call_overhead = self.cfg.call_overhead;
        let taken_branch_cost = self.cfg.taken_branch_cost;
        let branch_penalty = self.cfg.branch_penalty;
        let load_base = self.cfg.lat.load_base;
        let tlb_penalty = self.cfg.tlb_penalty;

        // Counters are batched into locals and flushed on every exit,
        // including the error paths (the erroring op counts, as in the
        // legacy loop where the bump precedes execution). Each in-loop
        // bump would otherwise be a bounds-checked read-modify-write
        // through `self`.
        let mut fp_ins: u64 = 0;
        let mut muldiv_ins: u64 = 0;
        let mut calls: u64 = 0;
        let mut br_ins: u64 = 0;
        let mut br_msp: u64 = 0;
        let mut ld_ins: u64 = 0;
        let mut sr_ins: u64 = 0;
        let mut l1_tca: u64 = 0;
        let mut tlb_dm: u64 = 0;
        let mut budget = max_insts;
        macro_rules! flush {
            () => {
                // The decrement precedes execution, so an erroring op is
                // counted, exactly like the legacy bump-then-execute.
                self.counters.add(Counter::TOT_INS, max_insts - budget);
                self.counters.add(Counter::FP_INS, fp_ins);
                self.counters.add(Counter::MULDIV_INS, muldiv_ins);
                self.counters.add(Counter::CALLS, calls);
                self.counters.add(Counter::BR_INS, br_ins);
                self.counters.add(Counter::BR_MSP, br_msp);
                self.counters.add(Counter::LD_INS, ld_ins);
                self.counters.add(Counter::SR_INS, sr_ins);
                self.counters.add(Counter::L1_TCA, l1_tca);
                self.counters.add(Counter::TLB_DM, tlb_dm);
                self.cycle = cycle;
                self.slots_used = slots_used;
                self.stall = stall;
            };
        }

        // Writebacks to the frame: dst is always a validated real
        // register (see `DecodedProgram::validate`), so skip the bounds
        // checks the optimizer cannot eliminate on its own.
        macro_rules! wb {
            ($dst:expr, $val:expr, $ready_at:expr) => {{
                let d = $dst as usize;
                debug_assert!(d < cur.regs.len());
                unsafe {
                    *cur.regs.get_unchecked_mut(d) = $val;
                    *cur.ready.get_unchecked_mut(d) = $ready_at;
                }
            }};
        }

        while budget > 0 {
            budget -= 1;
            debug_assert!((cur.ip as usize) < ops.len());
            // SAFETY: blocks are non-empty and always end in a
            // terminator that reassigns `ip` to a validated target, so
            // `ip` always points at a decoded op.
            let op = unsafe { *ops.get_unchecked(cur.ip as usize) };
            cur.ip += 1;
            // Shared body of a conditional branch; used by the Branch
            // arm and by the compare peek below. `$vc`/`$rc` are the
            // condition's value and ready time.
            macro_rules! do_branch {
                ($vc:expr, $rc:expr, $then_t:expr, $else_t:expr, $site:expr) => {{
                    br_ins += 1;
                    let taken = $vc != 0;
                    let _at = issue(&mut cycle, &mut slots_used, &mut stall, width, $rc);
                    let correct = self.bp.predict_and_update($site, taken);
                    // Branchless penalty accounting: identical arithmetic
                    // to the legacy if-chains, no ~50% host mispredicts.
                    let msp = !correct as u64;
                    br_msp += msp;
                    cycle += msp * branch_penalty + taken as u64 * taken_branch_cost;
                    slots_used *= (correct & !taken) as u32;
                    cur.ip = if taken { $then_t } else { $else_t };
                }};
            }
            macro_rules! cmp {
                ($dst:expr, $a:expr, $b:expr, $f:expr) => {{
                    let ra = $a.ready(&cur.ready);
                    let rb = $b.ready(&cur.ready);
                    let va = $a.val(&cur.regs);
                    let vb = $b.val(&cur.regs);
                    let at = issue(&mut cycle, &mut slots_used, &mut stall, width, ra.max(rb));
                    let f = $f;
                    let v = f(va as i64, vb as i64);
                    let rdy = at + alu;
                    wb!($dst, v, rdy);
                    // Peek: a compare is nearly always consumed by the
                    // branch immediately after it. If the budget has
                    // room, run that branch now and skip one dispatch
                    // round-trip. `ip`, every counter and the budget
                    // advance exactly as if it were dispatched normally,
                    // so step-slicing stays bit-identical: with budget 0
                    // the branch is simply dispatched by the next call.
                    if budget > 0 {
                        if let MicroOp::Branch {
                            cond,
                            then_t,
                            else_t,
                            site,
                        } = unsafe { *ops.get_unchecked(cur.ip as usize) }
                        {
                            if cond.0 == $dst {
                                budget -= 1;
                                cur.ip += 1;
                                do_branch!(v, rdy, then_t, else_t, site);
                            }
                        }
                    }
                }};
            }
            macro_rules! alu {
                ($dst:expr, $a:expr, $b:expr, $f:expr) => {{
                    let ra = $a.ready(&cur.ready);
                    let rb = $b.ready(&cur.ready);
                    let va = $a.val(&cur.regs);
                    let vb = $b.val(&cur.regs);
                    let at = issue(&mut cycle, &mut slots_used, &mut stall, width, ra.max(rb));
                    let f = $f;
                    wb!($dst, f(va as i64, vb as i64), at + alu);
                }};
            }
            match op {
                MicroOp::Add { dst, a, b } => {
                    alu!(dst, a, b, |x: i64, y: i64| x.wrapping_add(y) as u64)
                }
                MicroOp::Sub { dst, a, b } => {
                    alu!(dst, a, b, |x: i64, y: i64| x.wrapping_sub(y) as u64)
                }
                MicroOp::And { dst, a, b } => {
                    alu!(dst, a, b, |x: i64, y: i64| (x & y) as u64)
                }
                MicroOp::Or { dst, a, b } => {
                    alu!(dst, a, b, |x: i64, y: i64| (x | y) as u64)
                }
                MicroOp::Xor { dst, a, b } => {
                    alu!(dst, a, b, |x: i64, y: i64| (x ^ y) as u64)
                }
                MicroOp::Shl { dst, a, b } => {
                    alu!(dst, a, b, |x: i64, y: i64| x.wrapping_shl(y as u32 & 63)
                        as u64)
                }
                MicroOp::Shr { dst, a, b } => {
                    alu!(dst, a, b, |x: i64, y: i64| x.wrapping_shr(y as u32 & 63)
                        as u64)
                }
                MicroOp::CmpEq { dst, a, b } => {
                    cmp!(dst, a, b, |x: i64, y: i64| (x == y) as u64)
                }
                MicroOp::CmpNe { dst, a, b } => {
                    cmp!(dst, a, b, |x: i64, y: i64| (x != y) as u64)
                }
                MicroOp::CmpLt { dst, a, b } => {
                    cmp!(dst, a, b, |x: i64, y: i64| (x < y) as u64)
                }
                MicroOp::CmpLe { dst, a, b } => {
                    cmp!(dst, a, b, |x: i64, y: i64| (x <= y) as u64)
                }
                MicroOp::CmpGt { dst, a, b } => {
                    cmp!(dst, a, b, |x: i64, y: i64| (x > y) as u64)
                }
                MicroOp::CmpGe { dst, a, b } => {
                    cmp!(dst, a, b, |x: i64, y: i64| (x >= y) as u64)
                }
                MicroOp::Bin {
                    op,
                    dst,
                    a,
                    b,
                    lat,
                    cls,
                } => {
                    let ra = a.ready(&cur.ready);
                    let rb = b.ready(&cur.ready);
                    let va = a.val(&cur.regs);
                    let vb = b.val(&cur.regs);
                    match cls {
                        1 => fp_ins += 1,
                        2 => muldiv_ins += 1,
                        _ => {}
                    }
                    let val = match eval_bin(op, va, vb) {
                        Some(v) => v,
                        None => {
                            let func = prog.funcs[cur.func as usize].sym;
                            flush!();
                            self.frames.push(cur);
                            return Err(SimError::DivByZero { func });
                        }
                    };
                    let at = issue(&mut cycle, &mut slots_used, &mut stall, width, ra.max(rb));
                    wb!(dst, val, at + lat as u64);
                }
                MicroOp::Un { op, dst, a, fp } => {
                    let ra = a.ready(&cur.ready);
                    let va = a.val(&cur.regs);
                    fp_ins += fp as u64;
                    let val = eval_un(op, va);
                    let at = issue(&mut cycle, &mut slots_used, &mut stall, width, ra);
                    wb!(dst, val, at + alu);
                }
                MicroOp::Mov { dst, src } => {
                    let rs = src.ready(&cur.ready);
                    let vs = src.val(&cur.regs);
                    let at = issue(&mut cycle, &mut slots_used, &mut stall, width, rs);
                    wb!(dst, vs, at + mov);
                }
                MicroOp::Load { dst, arr, idx } => {
                    let ri = idx.ready(&cur.ready);
                    let vi = idx.val(&cur.regs) as i64;
                    let (val, addr) = self.mem.load(arr, vi);
                    let at = issue(&mut cycle, &mut slots_used, &mut stall, width, ri);
                    l1_tca += 1;
                    ld_ins += 1;
                    let mut lat = load_base;
                    if !self.tlb.access(addr) {
                        tlb_dm += 1;
                        lat += tlb_penalty;
                    }
                    if let Access::Miss { writeback } = self.l1.access(addr, false) {
                        lat += self.l1_miss(addr, false, writeback, l2);
                    }
                    wb!(dst, val, at + lat);
                }
                MicroOp::Store { arr, idx, val } => {
                    let ready = idx.ready(&cur.ready).max(val.ready(&cur.ready));
                    let vi = idx.val(&cur.regs) as i64;
                    let vv = val.val(&cur.regs);
                    let addr = self.mem.store(arr, vi, vv);
                    let _at = issue(&mut cycle, &mut slots_used, &mut stall, width, ready);
                    // Stores retire through a store buffer: counters and
                    // cache state update, the pipeline does not wait.
                    l1_tca += 1;
                    sr_ins += 1;
                    if !self.tlb.access(addr) {
                        tlb_dm += 1;
                    }
                    if let Access::Miss { writeback } = self.l1.access(addr, true) {
                        let _ = self.l1_miss(addr, true, writeback, l2);
                    }
                }
                MicroOp::Call {
                    dst,
                    callee,
                    args_off,
                    args_len,
                } => {
                    // `frames` holds callers only; `cur` is depth + 1.
                    if self.frames.len() + 1 >= MAX_CALL_DEPTH {
                        flush!();
                        self.frames.push(cur);
                        return Err(SimError::CallDepth);
                    }
                    calls += 1;
                    let args = &prog.args[args_off as usize..args_off as usize + args_len as usize];
                    let mut ops_ready = 0;
                    for a in args {
                        ops_ready = ops_ready.max(a.ready(&cur.ready));
                    }
                    let at = issue(&mut cycle, &mut slots_used, &mut stall, width, ops_ready);
                    cycle = (at + call_overhead).max(cycle);
                    slots_used = 0;
                    let target = prog.funcs[callee as usize];
                    let (mut regs, mut ready) = self.pool.pop().unwrap_or_default();
                    regs.clear();
                    regs.resize(target.num_regs as usize, 0);
                    regs.extend_from_slice(target.imms(imms));
                    ready.clear();
                    ready.resize(regs.len(), 0);
                    let params = &prog.params[target.params_off as usize
                        ..target.params_off as usize + target.params_len as usize];
                    for (a, p) in args.iter().zip(params) {
                        regs[*p as usize] = a.val(&cur.regs);
                        ready[*p as usize] = cycle;
                    }
                    let new = DFrame {
                        func: callee,
                        ip: target.entry_op,
                        regs,
                        ready,
                        ret_dst: dst,
                    };
                    self.frames.push(std::mem::replace(&mut cur, new));
                }
                MicroOp::Select { dst, cond, t, f } => {
                    let ready = cond
                        .ready(&cur.ready)
                        .max(t.ready(&cur.ready))
                        .max(f.ready(&cur.ready));
                    let vc = cond.val(&cur.regs);
                    let vt = t.val(&cur.regs);
                    let vf = f.val(&cur.regs);
                    let at = issue(&mut cycle, &mut slots_used, &mut stall, width, ready);
                    wb!(dst, if vc != 0 { vt } else { vf }, at + alu);
                }
                MicroOp::Jump { target } => {
                    let _at = issue(&mut cycle, &mut slots_used, &mut stall, width, 0);
                    cycle += taken_branch_cost;
                    slots_used = 0;
                    cur.ip = target;
                }
                MicroOp::Branch {
                    cond,
                    then_t,
                    else_t,
                    site,
                } => {
                    let rc = cond.ready(&cur.ready);
                    let vc = cond.val(&cur.regs);
                    do_branch!(vc, rc, then_t, else_t, site);
                }
                MicroOp::Ret { val, has_val } => {
                    let (v, ready) = if has_val {
                        (Some(val.val(&cur.regs)), val.ready(&cur.ready))
                    } else {
                        (None, 0)
                    };
                    let at = issue(&mut cycle, &mut slots_used, &mut stall, width, ready);
                    cycle = (at + call_overhead).max(cycle);
                    slots_used = 0;
                    match self.frames.pop() {
                        None => {
                            flush!();
                            self.finished = Some(v);
                            return Ok(StepOutcome::Finished(v));
                        }
                        Some(caller) => {
                            let done = std::mem::replace(&mut cur, caller);
                            if done.ret_dst != NO_REG {
                                if let Some(v) = v {
                                    cur.regs[done.ret_dst as usize] = v;
                                    cur.ready[done.ret_dst as usize] = cycle;
                                }
                            }
                            self.pool.push((done.regs, done.ready));
                        }
                    }
                }
            }
        }
        flush!();
        self.frames.push(cur);
        Ok(StepOutcome::Running)
    }
}

/// The decode-cache key: the module's structural identity plus the
/// latency words baked into its micro-ops.
type DecodeKey = (ModuleKey, [u64; 8]);

fn decode_key(module: &Module, cfg: &MachineConfig) -> DecodeKey {
    let l = &cfg.lat;
    let lat = [
        l.alu,
        l.mul,
        l.div,
        l.fadd,
        l.fmul,
        l.fdiv,
        l.mov,
        l.load_base,
    ];
    (ModuleKey::of(module), lat)
}

/// Configuration for the [`DecodeCache`].
#[derive(Debug, Clone)]
pub struct DecodeCacheConfig {
    /// Total decoded-program bytes to retain. Oversized programs are
    /// decoded but never cached.
    pub byte_budget: usize,
}

impl Default for DecodeCacheConfig {
    fn default() -> Self {
        // Decoded programs are a few hundred KB at most; 32 MiB holds
        // every distinct post-prefix module a long search produces.
        DecodeCacheConfig {
            byte_budget: 32 << 20,
        }
    }
}

struct CacheEntry {
    prog: Arc<DecodedProgram>,
    bytes: usize,
    last_touch: u64,
}

struct DecodeCacheInner {
    map: HashMap<DecodeKey, CacheEntry>,
    /// Total retained decoded-program bytes.
    bytes: usize,
    tick: u64,
}

impl DecodeCacheInner {
    /// LRU-evict entries until the byte budget holds again.
    fn evict_to(&mut self, budget: usize, evictions: &AtomicU64) {
        while self.bytes > budget && self.map.len() > 1 {
            let victim = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_touch)
                .map(|(k, _)| *k)
                .expect("non-empty map");
            if let Some(e) = self.map.remove(&victim) {
                self.bytes -= e.bytes;
                evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Thread-safe, byte-budgeted memo of decoded programs, keyed by
/// post-prefix module identity + timing table. Shared across evaluations
/// and warm daemon engines; LRU-evicted like the pass-prefix cache.
pub struct DecodeCache {
    inner: Mutex<DecodeCacheInner>,
    budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for DecodeCache {
    fn default() -> Self {
        DecodeCache::new(DecodeCacheConfig::default())
    }
}

impl DecodeCache {
    /// An empty cache with the given byte budget.
    pub fn new(config: DecodeCacheConfig) -> Self {
        DecodeCache {
            inner: Mutex::new(DecodeCacheInner {
                map: HashMap::new(),
                bytes: 0,
                tick: 0,
            }),
            budget: config.byte_budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Return the decoded program for `(module, cfg)`, decoding and
    /// inserting on miss. The lock is never held across a decode.
    pub fn get_or_decode(&self, module: &Module, cfg: &MachineConfig) -> Arc<DecodedProgram> {
        let key = decode_key(module, cfg);
        {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(e) = inner.map.get_mut(&key) {
                e.last_touch = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&e.prog);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let prog = Arc::new(DecodedProgram::decode(module, cfg));
        let bytes = prog.approx_bytes();
        if bytes > self.budget {
            return prog;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(e) = inner.map.get_mut(&key) {
            // Raced with another decoder: keep the incumbent.
            e.last_touch = tick;
            return Arc::clone(&e.prog);
        }
        inner.map.insert(
            key,
            CacheEntry {
                prog: Arc::clone(&prog),
                bytes,
                last_touch: tick,
            },
        );
        inner.bytes += bytes;
        inner.evict_to(self.budget, &self.evictions);
        prog
    }

    /// Cache activity, in the unified observability shape.
    pub fn stats(&self) -> ic_obs::DecodeCacheStats {
        let inner = self.inner.lock();
        ic_obs::DecodeCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            programs: inner.map.len() as u64,
            bytes: inner.bytes as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_ir::builder::FunctionBuilder;
    use ic_ir::Ty;

    fn module() -> Module {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new("main", &[], Some(Ty::I64));
        let x = b.bin(BinOp::Mul, 6i64, 7i64);
        b.ret(Some(x.into()));
        m.add_func(b.finish());
        m
    }

    #[test]
    fn fingerprint_is_structural() {
        let cfg = MachineConfig::test_tiny();
        assert_eq!(decode_key(&module(), &cfg), decode_key(&module(), &cfg));
        let mut m3 = module();
        m3.funcs[0].blocks[0].insts[0] = Inst::Bin {
            op: BinOp::Add,
            dst: ic_ir::Reg(0),
            a: Operand::ImmI(6),
            b: Operand::ImmI(7),
        };
        assert_ne!(decode_key(&module(), &cfg), decode_key(&m3, &cfg));
        // Different latency tables decode differently, so they must key
        // differently too.
        let other = MachineConfig::vliw_c6713_like();
        assert_ne!(decode_key(&module(), &cfg), decode_key(&module(), &other));
    }

    #[test]
    fn cache_hits_on_identical_modules_and_counts() {
        let cfg = MachineConfig::test_tiny();
        let cache = DecodeCache::default();
        let a = cache.get_or_decode(&module(), &cfg);
        let b = cache.get_or_decode(&module(), &cfg);
        assert!(Arc::ptr_eq(&a, &b), "identical modules must share decode");
        let s = cache.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.programs, 1);
        assert!(s.bytes > 0);
    }

    #[test]
    fn byte_budget_evicts_lru() {
        let cfg = MachineConfig::test_tiny();
        let probe = Arc::new(DecodedProgram::decode(&module(), &cfg));
        let one = probe.approx_bytes();
        let cache = DecodeCache::new(DecodeCacheConfig {
            byte_budget: one * 2 + one / 2,
        });
        // Three distinct modules at a two-program budget: one eviction.
        for i in 0..3 {
            let mut m = module();
            m.funcs[0].blocks[0].insts[0] = Inst::Bin {
                op: BinOp::Add,
                dst: ic_ir::Reg(0),
                a: Operand::ImmI(i),
                b: Operand::ImmI(7),
            };
            cache.get_or_decode(&m, &cfg);
        }
        let s = cache.stats();
        assert_eq!(s.misses, 3);
        assert!(s.evictions >= 1, "budget must force eviction");
        assert!(s.bytes <= (one * 2 + one / 2) as u64);
    }
}

#[cfg(test)]
mod size_probe {
    /// Dispatch density is the point of the decoded format: a regression
    /// that fattens the op struct silently halves ops-per-cache-line.
    #[test]
    fn microop_stays_compact() {
        assert!(std::mem::size_of::<super::MicroOp>() <= 24);
        assert_eq!(std::mem::size_of::<super::POp>(), 4);
    }
}
