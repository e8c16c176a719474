//! # ic-ir — intermediate representation for the intelligent-compilers stack
//!
//! A compact three-address-code IR in the style of a classic optimizing
//! compiler's mid-end:
//!
//! * a [`Module`] holds functions and globally-declared typed arrays (the
//!   memory model: every load/store names an array and an element index);
//! * a [`Function`] is a list of [`Block`]s of straight-line [`Inst`]s ended
//!   by an explicit [`Terminator`] (no fallthrough);
//! * values live in function-local virtual registers ([`Reg`]) typed
//!   [`Ty::I64`] or [`Ty::F64`]. The IR is *not* SSA — registers may be
//!   redefined — which matches the era of the paper and keeps the thirteen
//!   optimization passes honest dataflow clients.
//!
//! The memory model is *typed arrays*: each array is a contiguous region at
//! a synthetic base address, and the cycle-level simulator in `ic-machine`
//! derives cache addresses as `base + index * elem_size`. Arrays carry an
//! [`ElemClass`]; `Ptr`-class arrays hold 64-bit index values that the
//! `ptr-compress` optimization may narrow to 4-byte elements when the
//! module's address space fits in 32 bits (see DESIGN.md §7).
//!
//! Submodules provide the standard analyses every pass needs: CFG utilities
//! ([`mod@cfg`]), dominators ([`dom`]), natural loops ([`loops`]), liveness
//! ([`liveness`]), a structural [`verify`]er, a textual [`mod@print`]er
//! + [`parse`]r pair, and a whole-module structural hash ([`ModuleKey`]).

pub mod builder;
pub mod cfg;
pub mod dom;
pub mod intern;
pub mod key;
pub mod liveness;
pub mod loops;
pub mod parse;
pub mod print;
pub mod rewrite;
pub mod verify;

pub use key::ModuleKey;
use serde::{Deserialize, Serialize};

/// Index of a function within its [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FuncId(pub u32);

/// Index of a basic block within its [`Function`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BlockId(pub u32);

/// A function-local virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Reg(pub u32);

/// Index of a global array within its [`Module`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ArrId(pub u32);

impl FuncId {
    /// The function index as a `usize`, for container access.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl BlockId {
    /// The block index as a `usize`, for container access.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl Reg {
    /// The register index as a `usize`, for container access.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl ArrId {
    /// The array index as a `usize`, for container access.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Scalar register type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Ty {
    /// 64-bit signed integer (also used for booleans: 0 / 1).
    I64,
    /// 64-bit IEEE-754 float.
    F64,
}

/// Class of the elements stored in a global array.
///
/// `Ptr` elements are integer indices that play the role of pointers in the
/// source program; they are the target of the `ptr-compress` optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ElemClass {
    /// Plain integer data.
    Int,
    /// Floating-point data.
    Float,
    /// Pointer-like integer data (indices into other arrays).
    Ptr,
}

impl ElemClass {
    /// Register type produced by loading from an array of this class.
    pub fn reg_ty(self) -> Ty {
        match self {
            ElemClass::Float => Ty::F64,
            ElemClass::Int | ElemClass::Ptr => Ty::I64,
        }
    }
}

/// An instruction operand: a register or an immediate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Operand {
    /// Value of a virtual register.
    Reg(Reg),
    /// Integer immediate.
    ImmI(i64),
    /// Floating-point immediate.
    ImmF(f64),
}

impl Operand {
    /// Returns the register if this operand is one.
    pub fn as_reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            _ => None,
        }
    }

    /// Returns the integer immediate if this operand is one.
    pub fn as_imm_i(self) -> Option<i64> {
        match self {
            Operand::ImmI(v) => Some(v),
            _ => None,
        }
    }

    /// True if the operand is any immediate.
    pub fn is_imm(self) -> bool {
        !matches!(self, Operand::Reg(_))
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}
impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::ImmI(v)
    }
}
impl From<f64> for Operand {
    fn from(v: f64) -> Self {
        Operand::ImmF(v)
    }
}

/// Binary operations. Comparison operators produce `I64` 0/1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    FAdd,
    FSub,
    FMul,
    FDiv,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    FEq,
    FNe,
    FLt,
    FLe,
    FGt,
    FGe,
}

impl BinOp {
    /// True for floating-point arithmetic/compare operations.
    pub fn is_float(self) -> bool {
        use BinOp::*;
        matches!(
            self,
            FAdd | FSub | FMul | FDiv | FEq | FNe | FLt | FLe | FGt | FGe
        )
    }

    /// True for comparison operations (result type is always `I64`).
    pub fn is_cmp(self) -> bool {
        use BinOp::*;
        matches!(
            self,
            Eq | Ne | Lt | Le | Gt | Ge | FEq | FNe | FLt | FLe | FGt | FGe
        )
    }

    /// Result register type.
    pub fn result_ty(self) -> Ty {
        use BinOp::*;
        match self {
            FAdd | FSub | FMul | FDiv => Ty::F64,
            _ => Ty::I64,
        }
    }

    /// Operand register type.
    pub fn operand_ty(self) -> Ty {
        if self.is_float() {
            Ty::F64
        } else {
            Ty::I64
        }
    }

    /// True if `a op b == b op a` for all inputs.
    pub fn is_commutative(self) -> bool {
        use BinOp::*;
        matches!(
            self,
            Add | Mul | And | Or | Xor | FAdd | FMul | Eq | Ne | FEq | FNe
        )
    }

    /// True if the operation has no side effects and never traps.
    ///
    /// `Div`/`Rem` trap on zero in our semantics (the interpreter reports a
    /// runtime error), so they are excluded from speculative motion.
    pub fn is_speculable(self) -> bool {
        !matches!(self, BinOp::Div | BinOp::Rem)
    }
}

/// Unary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnOp {
    /// Integer negate.
    Neg,
    /// Logical not: `x == 0`.
    Not,
    /// Float negate.
    FNeg,
    /// Convert `I64` to `F64`.
    I2F,
    /// Truncate `F64` to `I64`.
    F2I,
}

impl UnOp {
    /// Result register type.
    pub fn result_ty(self) -> Ty {
        match self {
            UnOp::Neg | UnOp::Not | UnOp::F2I => Ty::I64,
            UnOp::FNeg | UnOp::I2F => Ty::F64,
        }
    }

    /// Operand register type.
    pub fn operand_ty(self) -> Ty {
        match self {
            UnOp::Neg | UnOp::Not | UnOp::I2F => Ty::I64,
            UnOp::FNeg | UnOp::F2I => Ty::F64,
        }
    }
}

/// A non-terminator instruction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Inst {
    /// `dst = a op b`
    Bin {
        op: BinOp,
        dst: Reg,
        a: Operand,
        b: Operand,
    },
    /// `dst = op a`
    Un { op: UnOp, dst: Reg, a: Operand },
    /// `dst = src`
    Mov { dst: Reg, src: Operand },
    /// `dst = arr[idx]`
    Load { dst: Reg, arr: ArrId, idx: Operand },
    /// `arr[idx] = val`
    Store {
        arr: ArrId,
        idx: Operand,
        val: Operand,
    },
    /// `dst = callee(args...)` (dst is `None` for void calls)
    Call {
        dst: Option<Reg>,
        callee: FuncId,
        args: Vec<Operand>,
    },
    /// `dst = cond != 0 ? t : f` — produced by if-conversion.
    Select {
        dst: Reg,
        cond: Operand,
        t: Operand,
        f: Operand,
    },
}

impl Inst {
    /// The register defined by this instruction, if any.
    pub fn def(&self) -> Option<Reg> {
        match self {
            Inst::Bin { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Mov { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::Select { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } => *dst,
            Inst::Store { .. } => None,
        }
    }

    /// Replace the defined register, if any.
    pub fn set_def(&mut self, new: Reg) {
        match self {
            Inst::Bin { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Mov { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::Select { dst, .. } => *dst = new,
            Inst::Call { dst, .. } => {
                if let Some(d) = dst {
                    *d = new;
                }
            }
            Inst::Store { .. } => {}
        }
    }

    /// Visit every operand read by this instruction.
    pub fn for_each_use(&self, mut f: impl FnMut(&Operand)) {
        match self {
            Inst::Bin { a, b, .. } => {
                f(a);
                f(b);
            }
            Inst::Un { a, .. } => f(a),
            Inst::Mov { src, .. } => f(src),
            Inst::Load { idx, .. } => f(idx),
            Inst::Store { idx, val, .. } => {
                f(idx);
                f(val);
            }
            Inst::Call { args, .. } => {
                for a in args {
                    f(a);
                }
            }
            Inst::Select { cond, t, f: fv, .. } => {
                f(cond);
                f(t);
                f(fv);
            }
        }
    }

    /// Mutably visit every operand read by this instruction.
    pub fn for_each_use_mut(&mut self, mut f: impl FnMut(&mut Operand)) {
        match self {
            Inst::Bin { a, b, .. } => {
                f(a);
                f(b);
            }
            Inst::Un { a, .. } => f(a),
            Inst::Mov { src, .. } => f(src),
            Inst::Load { idx, .. } => f(idx),
            Inst::Store { idx, val, .. } => {
                f(idx);
                f(val);
            }
            Inst::Call { args, .. } => {
                for a in args {
                    f(a);
                }
            }
            Inst::Select { cond, t, f: fv, .. } => {
                f(cond);
                f(t);
                f(fv);
            }
        }
    }

    /// Registers read by this instruction, collected.
    pub fn used_regs(&self) -> Vec<Reg> {
        let mut out = Vec::new();
        self.for_each_use(|op| {
            if let Operand::Reg(r) = op {
                out.push(*r);
            }
        });
        out
    }

    /// True if the instruction writes memory or calls a function.
    pub fn has_side_effects(&self) -> bool {
        matches!(self, Inst::Store { .. } | Inst::Call { .. })
    }

    /// True if the instruction can be removed when its result is dead.
    ///
    /// Loads are pure in our memory model (they cannot trap: indices are
    /// wrapped modulo array length by the interpreter), so a dead load is
    /// removable. Division is *not* removable-by-default because it traps
    /// on a zero divisor.
    pub fn is_removable_if_dead(&self) -> bool {
        match self {
            Inst::Store { .. } | Inst::Call { .. } => false,
            Inst::Bin { op, .. } => op.is_speculable(),
            _ => true,
        }
    }
}

/// A block terminator. Every block has exactly one; there is no fallthrough.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Conditional branch on `cond != 0`.
    Branch {
        cond: Operand,
        then_bb: BlockId,
        else_bb: BlockId,
    },
    /// Return from the function.
    Ret(Option<Operand>),
}

impl Terminator {
    /// Visit every operand read by the terminator.
    pub fn for_each_use(&self, mut f: impl FnMut(&Operand)) {
        match self {
            Terminator::Branch { cond, .. } => f(cond),
            Terminator::Ret(Some(v)) => f(v),
            _ => {}
        }
    }

    /// Mutably visit every operand read by the terminator.
    pub fn for_each_use_mut(&mut self, mut f: impl FnMut(&mut Operand)) {
        match self {
            Terminator::Branch { cond, .. } => f(cond),
            Terminator::Ret(Some(v)) => f(v),
            _ => {}
        }
    }

    /// Successor blocks (0, 1 or 2).
    pub fn successors(&self) -> impl Iterator<Item = BlockId> + '_ {
        let (a, b) = match self {
            Terminator::Jump(t) => (Some(*t), None),
            Terminator::Branch {
                then_bb, else_bb, ..
            } => (Some(*then_bb), Some(*else_bb)),
            Terminator::Ret(_) => (None, None),
        };
        a.into_iter().chain(b)
    }

    /// Mutably visit every successor block id.
    pub fn for_each_succ_mut(&mut self, mut f: impl FnMut(&mut BlockId)) {
        match self {
            Terminator::Jump(t) => f(t),
            Terminator::Branch {
                then_bb, else_bb, ..
            } => {
                f(then_bb);
                f(else_bb);
            }
            Terminator::Ret(_) => {}
        }
    }
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Block {
    pub insts: Vec<Inst>,
    pub term: Terminator,
}

impl Block {
    /// An empty block ending in `ret`.
    pub fn new() -> Self {
        Block {
            insts: Vec::new(),
            term: Terminator::Ret(None),
        }
    }
}

impl Default for Block {
    fn default() -> Self {
        Self::new()
    }
}

/// A function: registers, parameters and a block list (entry is block 0).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Function {
    pub name: String,
    /// Incoming parameters, bound to the first `params.len()` registers.
    pub params: Vec<Reg>,
    /// Type of each register, indexed by `Reg::index`.
    pub reg_tys: Vec<Ty>,
    pub blocks: Vec<Block>,
    pub ret_ty: Option<Ty>,
}

impl Function {
    /// The entry block id (always block 0).
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Allocate a fresh register of type `ty`.
    pub fn new_reg(&mut self, ty: Ty) -> Reg {
        let r = Reg(self.reg_tys.len() as u32);
        self.reg_tys.push(ty);
        r
    }

    /// Number of registers.
    pub fn num_regs(&self) -> usize {
        self.reg_tys.len()
    }

    /// Type of register `r`.
    pub fn reg_ty(&self, r: Reg) -> Ty {
        self.reg_tys[r.index()]
    }

    /// Total instruction count (excluding terminators).
    pub fn num_insts(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Append a new empty block and return its id.
    pub fn add_block(&mut self) -> BlockId {
        self.blocks.push(Block::new());
        BlockId(self.blocks.len() as u32 - 1)
    }

    /// Shared access to a block.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Mutable access to a block.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Iterate over `(BlockId, &Block)` pairs.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }
}

/// A global array declaration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrayDecl {
    pub name: String,
    pub class: ElemClass,
    /// Number of elements.
    pub len: usize,
    /// Bytes per element as seen by the cache model (8, or 4 after
    /// `ptr-compress` narrows a `Ptr`-class array).
    pub elem_size: u8,
}

/// A whole program: functions + global arrays + the entry point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Module {
    pub name: String,
    pub funcs: Vec<Function>,
    pub arrays: Vec<ArrayDecl>,
    /// Index of the entry function (conventionally `main`).
    pub entry: FuncId,
    /// True if the program's whole data footprint fits a 32-bit address
    /// space, making `ptr-compress` legal.
    pub small_addr_space: bool,
}

impl Module {
    /// An empty module with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Module {
            name: name.into(),
            funcs: Vec::new(),
            arrays: Vec::new(),
            entry: FuncId(0),
            small_addr_space: true,
        }
    }

    /// Add a function; returns its id.
    pub fn add_func(&mut self, f: Function) -> FuncId {
        self.funcs.push(f);
        FuncId(self.funcs.len() as u32 - 1)
    }

    /// Declare a global array; returns its id. `Ptr` and `Int`/`Float`
    /// arrays start at 8 bytes per element.
    pub fn add_array(&mut self, name: impl Into<String>, class: ElemClass, len: usize) -> ArrId {
        self.arrays.push(ArrayDecl {
            name: name.into(),
            class,
            len,
            elem_size: 8,
        });
        ArrId(self.arrays.len() as u32 - 1)
    }

    /// Look up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Look up an array by name.
    pub fn array_by_name(&self, name: &str) -> Option<ArrId> {
        self.arrays
            .iter()
            .position(|a| a.name == name)
            .map(|i| ArrId(i as u32))
    }

    /// Shared access to a function.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.index()]
    }

    /// Mutable access to a function.
    pub fn func_mut(&mut self, id: FuncId) -> &mut Function {
        &mut self.funcs[id.index()]
    }

    /// Total instruction count across all functions.
    pub fn num_insts(&self) -> usize {
        self.funcs.iter().map(|f| f.num_insts()).sum()
    }

    /// Total data footprint in bytes under current element sizes.
    pub fn data_bytes(&self) -> u64 {
        self.arrays
            .iter()
            .map(|a| a.len as u64 * a.elem_size as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_conversions() {
        let r = Reg(3);
        assert_eq!(Operand::from(r).as_reg(), Some(r));
        assert_eq!(Operand::from(7i64).as_imm_i(), Some(7));
        assert!(Operand::from(1.5f64).is_imm());
        assert_eq!(Operand::Reg(r).as_imm_i(), None);
    }

    #[test]
    fn binop_classification() {
        assert!(BinOp::FAdd.is_float());
        assert!(!BinOp::Add.is_float());
        assert!(BinOp::Eq.is_cmp());
        assert_eq!(BinOp::FLt.result_ty(), Ty::I64);
        assert_eq!(BinOp::FAdd.result_ty(), Ty::F64);
        assert!(BinOp::Add.is_commutative());
        assert!(!BinOp::Sub.is_commutative());
        assert!(!BinOp::Div.is_speculable());
        assert!(BinOp::Mul.is_speculable());
    }

    #[test]
    fn inst_def_and_uses() {
        let i = Inst::Bin {
            op: BinOp::Add,
            dst: Reg(2),
            a: Operand::Reg(Reg(0)),
            b: Operand::ImmI(4),
        };
        assert_eq!(i.def(), Some(Reg(2)));
        assert_eq!(i.used_regs(), vec![Reg(0)]);
        assert!(!i.has_side_effects());

        let s = Inst::Store {
            arr: ArrId(0),
            idx: Operand::Reg(Reg(1)),
            val: Operand::Reg(Reg(2)),
        };
        assert_eq!(s.def(), None);
        assert!(s.has_side_effects());
        assert_eq!(s.used_regs(), vec![Reg(1), Reg(2)]);
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::Branch {
            cond: Operand::Reg(Reg(0)),
            then_bb: BlockId(1),
            else_bb: BlockId(2),
        };
        let succs: Vec<_> = t.successors().collect();
        assert_eq!(succs, vec![BlockId(1), BlockId(2)]);
        assert_eq!(Terminator::Ret(None).successors().count(), 0);
        assert_eq!(Terminator::Jump(BlockId(5)).successors().count(), 1);
    }

    #[test]
    fn module_registry() {
        let mut m = Module::new("t");
        let a = m.add_array("data", ElemClass::Int, 100);
        assert_eq!(m.array_by_name("data"), Some(a));
        assert_eq!(m.data_bytes(), 800);
        m.arrays[a.index()].elem_size = 4;
        assert_eq!(m.data_bytes(), 400);
    }

    #[test]
    fn function_reg_allocation() {
        let mut f = Function {
            name: "f".into(),
            params: vec![],
            reg_tys: vec![],
            blocks: vec![Block::new()],
            ret_ty: None,
        };
        let r0 = f.new_reg(Ty::I64);
        let r1 = f.new_reg(Ty::F64);
        assert_eq!(r0, Reg(0));
        assert_eq!(r1, Reg(1));
        assert_eq!(f.reg_ty(r1), Ty::F64);
        assert_eq!(f.num_regs(), 2);
    }
}
