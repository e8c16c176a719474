//! Whole-module structural identity.
//!
//! A [`ModuleKey`] is a 128-bit hash of *everything* that defines a
//! [`Module`]: its name, entry and address-space flag, every array
//! (name, class, length, element size) and every function (name,
//! parameters, register types, return type, instructions, terminators).
//! Floating-point immediates hash by their bits, so `0.0` and `-0.0`
//! key apart even though they compare equal.
//!
//! Keys are hashes: equal keys mean "almost certainly equal modules",
//! and a cache that shares modules by key confirms with `==` first.
//! Nothing here is persisted — keys are only compared within a process.

use crate::{Inst, Module, Operand, Terminator};
use std::hash::{Hash, Hasher};

/// Structural identity of a whole [`Module`]; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModuleKey(pub u128);

/// Two FNV-1a-style 64-bit lanes with distinct offset bases.
struct Lanes {
    a: u64,
    b: u64,
}

impl Hasher for Lanes {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u64(&mut self, w: u64) {
        const P: u64 = 0x0000_0100_0000_01b3;
        self.a = (self.a ^ w).wrapping_mul(P);
        self.b = (self.b ^ w.rotate_left(31)).wrapping_mul(P).rotate_left(7);
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(n as u64);
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        self.a ^ self.b
    }
}

fn operand(h: &mut Lanes, op: &Operand) {
    let (tag, w) = match op {
        Operand::Reg(r) => (1, r.0 as u64),
        Operand::ImmI(v) => (2, *v as u64),
        Operand::ImmF(v) => (3, v.to_bits()),
    };
    h.write_u64(tag);
    h.write_u64(w);
}

impl ModuleKey {
    /// The key of `m`. Linear in the module's size.
    pub fn of(m: &Module) -> ModuleKey {
        let mut h = Lanes {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x9ae1_6a3b_2f90_404f,
        };
        (&m.name, m.entry, m.small_addr_space, m.arrays.len()).hash(&mut h);
        for a in &m.arrays {
            (&a.name, a.class, a.len, a.elem_size).hash(&mut h);
        }
        m.funcs.len().hash(&mut h);
        for f in &m.funcs {
            (&f.name, &f.params, &f.reg_tys, f.ret_ty, f.blocks.len()).hash(&mut h);
            for b in &f.blocks {
                b.insts.len().hash(&mut h);
                for inst in &b.insts {
                    (std::mem::discriminant(inst), inst.def()).hash(&mut h);
                    match inst {
                        Inst::Bin { op, .. } => op.hash(&mut h),
                        Inst::Un { op, .. } => op.hash(&mut h),
                        Inst::Load { arr, .. } | Inst::Store { arr, .. } => arr.hash(&mut h),
                        Inst::Call { callee, args, .. } => (callee, args.len()).hash(&mut h),
                        Inst::Mov { .. } | Inst::Select { .. } => {}
                    }
                    inst.for_each_use(|op| operand(&mut h, op));
                }
                match &b.term {
                    Terminator::Jump(t) => (0u8, t).hash(&mut h),
                    Terminator::Branch {
                        then_bb, else_bb, ..
                    } => (1u8, then_bb, else_bb).hash(&mut h),
                    Terminator::Ret(v) => (2u8, v.is_some()).hash(&mut h),
                }
                b.term.for_each_use(|op| operand(&mut h, op));
            }
        }
        ModuleKey(((h.a as u128) << 64) | h.b as u128)
    }
}
