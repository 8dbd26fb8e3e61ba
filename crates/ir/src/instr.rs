//! PIR instructions, opcodes, and terminators.

use crate::module::{BlockId, Const, FuncId, ValueId};
use crate::types::Ty;
use serde::{Deserialize, Serialize};

/// Module-wide static-instruction id. Dense in `0..module.num_instrs`,
/// assigned by the builder in program order. This is the identity used by
/// fault injection, SDC scoring, pruning groups, and execution profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct InstrId(pub u32);

/// An instruction operand: a virtual register or an immediate constant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Operand {
    Value(ValueId),
    Const(Const),
}

impl Operand {
    pub fn i64(v: i64) -> Operand {
        Operand::Const(Const::i64(v))
    }
    pub fn i32(v: i32) -> Operand {
        Operand::Const(Const::i32(v))
    }
    pub fn f64(v: f64) -> Operand {
        Operand::Const(Const::f64(v))
    }
    pub fn bool(v: bool) -> Operand {
        Operand::Const(Const::bool(v))
    }
    /// The value id if this operand is a register.
    pub fn value(self) -> Option<ValueId> {
        match self {
            Operand::Value(v) => Some(v),
            Operand::Const(_) => None,
        }
    }
}

impl From<ValueId> for Operand {
    fn from(v: ValueId) -> Operand {
        Operand::Value(v)
    }
}

/// Integer comparison predicates (LLVM `icmp`). All integer comparisons
/// are signed except `Ult`, which the address-check idiom uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IPred {
    Eq,
    Ne,
    Slt,
    Sle,
    Sgt,
    Sge,
    Ult,
}

/// Float comparison predicates (ordered semantics: NaN compares false).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FPred {
    Oeq,
    One,
    Olt,
    Ole,
    Ogt,
    Oge,
}

/// Two-operand arithmetic / bitwise opcodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    SDiv,
    SRem,
    FAdd,
    FSub,
    FMul,
    FDiv,
    And,
    Or,
    Xor,
    Shl,
    LShr,
    AShr,
}

impl BinOp {
    /// True for the bitwise-logic family, which the pruning heuristic of
    /// §4.2.2 treats as subgroup boundaries ("all the logic operators").
    pub fn is_logic(self) -> bool {
        matches!(
            self,
            BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::LShr | BinOp::AShr
        )
    }

    /// True if the opcode operates on floats.
    pub fn is_float(self) -> bool {
        matches!(self, BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv)
    }
}

/// One-operand opcodes. The math functions model LLVM's `llvm.*.f64`
/// intrinsics as first-class instructions (see crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnOp {
    FNeg,
    /// Bitwise complement on integers.
    Not,
    Sqrt,
    Sin,
    Cos,
    Exp,
    Log,
    Floor,
    FAbs,
}

impl UnOp {
    pub fn is_float(self) -> bool {
        !matches!(self, UnOp::Not)
    }
}

/// Conversion opcodes (LLVM cast family).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CastKind {
    /// Integer truncation to a narrower integer type.
    Trunc,
    /// Zero extension to a wider integer type.
    ZExt,
    /// Sign extension to a wider integer type.
    SExt,
    /// Float to signed integer (round toward zero; saturating on overflow
    /// — LLVM's freeze-free behaviour would be poison, we saturate so the
    /// VM stays deterministic under injected faults).
    FpToSi,
    /// Signed integer to float.
    SiToFp,
    /// Bit reinterpretation between i64 and f64.
    Bitcast,
    /// Pointer to i64 (identity on bits).
    PtrToInt,
    /// i64 to pointer (identity on bits).
    IntToPtr,
}

/// Instruction payloads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Op {
    /// Two-operand arithmetic; result type equals operand type.
    Bin { op: BinOp, a: Operand, b: Operand },
    /// One-operand op.
    Un { op: UnOp, a: Operand },
    /// Integer compare producing `i1`.
    Icmp { pred: IPred, a: Operand, b: Operand },
    /// Float compare producing `i1`.
    Fcmp { pred: FPred, a: Operand, b: Operand },
    /// `cond ? t : f`; `t` and `f` share the result type.
    Select {
        cond: Operand,
        t: Operand,
        f: Operand,
    },
    /// Type conversion.
    Cast { kind: CastKind, a: Operand, to: Ty },
    /// Memory read of one word, reinterpreted at type `ty`.
    Load { addr: Operand, ty: Ty },
    /// Memory write of one word. No result value (not injectable —
    /// matches LLFI's return-value fault model).
    Store { addr: Operand, value: Operand },
    /// Pointer arithmetic: `base + index` in words (LLVM `getelementptr`
    /// with unit element size; multi-dimensional indexing is lowered by
    /// the frontend into explicit multiplies feeding a `Gep`).
    Gep { base: Operand, index: Operand },
    /// Stack allocation of `words` 64-bit words, live until the enclosing
    /// function returns. Result is a pointer.
    Alloca { words: Operand },
    /// Direct call. `None` result for void callees.
    Call { func: FuncId, args: Vec<Operand> },
    /// Appends a word to the program's observable output stream — the
    /// data compared against the golden run to classify SDCs.
    Output { value: Operand },
}

/// Coarse opcode classes. `Compare`, `Logic`, `BitManip`, and `Pointer`
/// are the "subgroup boundary" classes of the pruning heuristic (§4.2.2:
/// CMP, logic operators, bit manipulation like TRUNC/SEXT, and pointer
/// operations consistently differentiate SDC probability from their
/// data-dependent neighbours).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpClass {
    Arithmetic,
    Compare,
    Logic,
    BitManip,
    Pointer,
    Memory,
    Call,
    Output,
}

impl Op {
    /// The opcode's class for pruning purposes.
    pub fn class(&self) -> OpClass {
        match self {
            Op::Bin { op, .. } if op.is_logic() => OpClass::Logic,
            Op::Bin { .. } => OpClass::Arithmetic,
            Op::Un { op: UnOp::Not, .. } => OpClass::Logic,
            Op::Un { .. } => OpClass::Arithmetic,
            Op::Icmp { .. } | Op::Fcmp { .. } => OpClass::Compare,
            Op::Select { .. } => OpClass::Arithmetic,
            Op::Cast { .. } => OpClass::BitManip,
            Op::Load { .. } | Op::Store { .. } => OpClass::Memory,
            Op::Gep { .. } | Op::Alloca { .. } => OpClass::Pointer,
            Op::Call { .. } => OpClass::Call,
            Op::Output { .. } => OpClass::Output,
        }
    }

    /// True if the pruning heuristic starts a new subgroup at this opcode.
    pub fn is_group_boundary(&self) -> bool {
        matches!(
            self.class(),
            OpClass::Compare | OpClass::Logic | OpClass::BitManip | OpClass::Pointer
        )
    }

    /// Operands read by this instruction, in order, without allocating.
    pub fn operands(&self) -> Operands<'_> {
        let inline = |ops: [Operand; 3], n: u8| Operands(OperandsRepr::Inline(ops, n));
        match self {
            Op::Bin { a, b, .. } | Op::Icmp { a, b, .. } | Op::Fcmp { a, b, .. } => {
                inline([*a, *b, *b], 2)
            }
            Op::Un { a, .. } | Op::Cast { a, .. } => inline([*a; 3], 1),
            Op::Select { cond, t, f } => inline([*cond, *t, *f], 3),
            Op::Load { addr, .. } => inline([*addr; 3], 1),
            Op::Store { addr, value } => inline([*addr, *value, *value], 2),
            Op::Gep { base, index } => inline([*base, *index, *index], 2),
            Op::Alloca { words } => inline([*words; 3], 1),
            Op::Call { args, .. } => Operands(OperandsRepr::Args(args)),
            Op::Output { value } => inline([*value; 3], 1),
        }
    }

    /// Short mnemonic for printing.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Op::Bin { op, .. } => match op {
                BinOp::Add => "add",
                BinOp::Sub => "sub",
                BinOp::Mul => "mul",
                BinOp::SDiv => "sdiv",
                BinOp::SRem => "srem",
                BinOp::FAdd => "fadd",
                BinOp::FSub => "fsub",
                BinOp::FMul => "fmul",
                BinOp::FDiv => "fdiv",
                BinOp::And => "and",
                BinOp::Or => "or",
                BinOp::Xor => "xor",
                BinOp::Shl => "shl",
                BinOp::LShr => "lshr",
                BinOp::AShr => "ashr",
            },
            Op::Un { op, .. } => match op {
                UnOp::FNeg => "fneg",
                UnOp::Not => "not",
                UnOp::Sqrt => "sqrt",
                UnOp::Sin => "sin",
                UnOp::Cos => "cos",
                UnOp::Exp => "exp",
                UnOp::Log => "log",
                UnOp::Floor => "floor",
                UnOp::FAbs => "fabs",
            },
            Op::Icmp { .. } => "icmp",
            Op::Fcmp { .. } => "fcmp",
            Op::Select { .. } => "select",
            Op::Cast { kind, .. } => match kind {
                CastKind::Trunc => "trunc",
                CastKind::ZExt => "zext",
                CastKind::SExt => "sext",
                CastKind::FpToSi => "fptosi",
                CastKind::SiToFp => "sitofp",
                CastKind::Bitcast => "bitcast",
                CastKind::PtrToInt => "ptrtoint",
                CastKind::IntToPtr => "inttoptr",
            },
            Op::Load { .. } => "load",
            Op::Store { .. } => "store",
            Op::Gep { .. } => "gep",
            Op::Alloca { .. } => "alloca",
            Op::Call { .. } => "call",
            Op::Output { .. } => "output",
        }
    }
}

/// The operands of one instruction ([`Op::operands`]): up to three held
/// inline, or a call's borrowed argument list. It derefs to a slice, and
/// iterating it by value yields each operand by copy.
#[derive(Debug, Clone, Copy)]
pub struct Operands<'a>(OperandsRepr<'a>);

#[derive(Debug, Clone, Copy)]
enum OperandsRepr<'a> {
    /// The first `n` entries are the operands.
    Inline([Operand; 3], u8),
    Args(&'a [Operand]),
}

impl std::ops::Deref for Operands<'_> {
    type Target = [Operand];
    fn deref(&self) -> &[Operand] {
        match &self.0 {
            OperandsRepr::Inline(ops, n) => &ops[..*n as usize],
            OperandsRepr::Args(args) => args,
        }
    }
}

impl<'a> IntoIterator for Operands<'a> {
    type Item = Operand;
    type IntoIter = OperandsIter<'a>;
    fn into_iter(self) -> OperandsIter<'a> {
        OperandsIter { ops: self, next: 0 }
    }
}

/// By-value iterator over [`Operands`].
#[derive(Debug, Clone)]
pub struct OperandsIter<'a> {
    ops: Operands<'a>,
    next: usize,
}

impl Iterator for OperandsIter<'_> {
    type Item = Operand;
    fn next(&mut self) -> Option<Operand> {
        let o = *self.ops.get(self.next)?;
        self.next += 1;
        Some(o)
    }
}

/// A static instruction: an id, an opcode payload, and an optional result
/// register. `result == None` exactly for `Store` / `Output` / void
/// `Call`, which the fault model does not inject into.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instr {
    pub sid: InstrId,
    pub op: Op,
    pub result: Option<ValueId>,
}

/// Block terminators. Terminators are not static instructions for FI
/// purposes (they produce no value), matching the paper's fault model:
/// control flow goes wrong only via corrupted *condition values*.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Term {
    /// Unconditional jump, passing `args` to the target's block params.
    Br { target: BlockId, args: Vec<Operand> },
    /// Two-way conditional branch; both edges carry block arguments.
    CondBr {
        cond: Operand,
        then_target: BlockId,
        then_args: Vec<Operand>,
        else_target: BlockId,
        else_args: Vec<Operand>,
    },
    /// Function return.
    Ret { value: Option<Operand> },
}

impl Term {
    /// Successor block ids.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Term::Br { target, .. } => vec![*target],
            Term::CondBr {
                then_target,
                else_target,
                ..
            } => vec![*then_target, *else_target],
            Term::Ret { .. } => vec![],
        }
    }

    /// Operands read by the terminator, in order, without allocating.
    pub fn operands(&self) -> impl Iterator<Item = Operand> + '_ {
        let (head, lists): (Option<Operand>, [&[Operand]; 2]) = match self {
            Term::Br { args, .. } => (None, [args, &[]]),
            Term::CondBr {
                cond,
                then_args,
                else_args,
                ..
            } => (Some(*cond), [then_args, else_args]),
            Term::Ret { value } => (*value, [&[], &[]]),
        };
        head.into_iter().chain(lists.into_iter().flatten().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_classes() {
        let icmp = Op::Icmp {
            pred: IPred::Eq,
            a: Operand::i64(0),
            b: Operand::i64(1),
        };
        let add = Op::Bin {
            op: BinOp::Add,
            a: Operand::i64(0),
            b: Operand::i64(1),
        };
        let xor = Op::Bin {
            op: BinOp::Xor,
            a: Operand::i64(0),
            b: Operand::i64(1),
        };
        let cast = Op::Cast {
            kind: CastKind::SExt,
            a: Operand::i32(0),
            to: Ty::I64,
        };
        let gep = Op::Gep {
            base: Operand::i64(0),
            index: Operand::i64(1),
        };
        assert!(icmp.is_group_boundary());
        assert!(xor.is_group_boundary());
        assert!(cast.is_group_boundary());
        assert!(gep.is_group_boundary());
        assert!(!add.is_group_boundary());
    }

    #[test]
    fn operand_lists() {
        let sel = Op::Select {
            cond: Operand::bool(true),
            t: Operand::i64(1),
            f: Operand::i64(2),
        };
        assert_eq!(sel.operands().len(), 3);
        let st = Op::Store {
            addr: Operand::i64(0),
            value: Operand::i64(1),
        };
        assert_eq!(st.operands().len(), 2);
    }

    #[test]
    fn term_successors() {
        let br = Term::Br {
            target: BlockId(3),
            args: vec![],
        };
        assert_eq!(br.successors(), vec![BlockId(3)]);
        let ret = Term::Ret { value: None };
        assert!(ret.successors().is_empty());
    }

    #[test]
    fn mnemonics_distinct_for_bins() {
        let mut seen = std::collections::HashSet::new();
        for op in [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::SDiv,
            BinOp::SRem,
            BinOp::FAdd,
            BinOp::FSub,
            BinOp::FMul,
            BinOp::FDiv,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::LShr,
            BinOp::AShr,
        ] {
            let i = Op::Bin {
                op,
                a: Operand::i64(0),
                b: Operand::i64(0),
            };
            assert!(
                seen.insert(i.mnemonic()),
                "duplicate mnemonic {}",
                i.mnemonic()
            );
        }
    }
}
