//! PIR — a typed, register-based intermediate representation.
//!
//! PIR stands in for LLVM IR in this reproduction of PEPPA-X. The paper
//! (§2.3) uses LLVM because its IR (1) is typed and maps back to source
//! constructs, (2) is platform-neutral, and (3) has existing fault
//! injectors (LLFI). PEPPA-X itself only needs three properties of the IR:
//!
//! 1. a notion of *static instruction* with an opcode and a typed result
//!    value (the unit of fault injection and of SDC-sensitivity scoring);
//! 2. static *def-use dataflow* between instructions (the pruning
//!    heuristic of §4.2.2 groups instructions along data dependencies);
//! 3. an executable semantics that yields *dynamic instruction counts*
//!    per static instruction (the `N_i / N_total` term of Eq. 2).
//!
//! PIR provides exactly these. Differences from LLVM IR, and why they are
//! immaterial here, are documented in `DESIGN.md`:
//!
//! * **Block parameters instead of φ-nodes.** Branches pass arguments to
//!   their target block. This is the MLIR/Cranelift formulation and is
//!   semantically equivalent to φ-nodes.
//! * **Word-addressed memory.** Pointers are 64-bit word indices into a
//!   flat memory; `getelementptr` becomes a single `Gep` add-scale op.
//! * **Math intrinsics as unary instructions.** LLVM would emit calls to
//!   `llvm.sqrt.f64` etc.; PIR has `Sqrt`/`Sin`/... opcodes. LLFI treats
//!   intrinsic results as injectable return values, and so do we.

pub mod builder;
pub mod instr;
pub mod module;
pub mod parse;
pub mod printer;
pub mod types;
pub mod verify;

pub use builder::{FunctionBuilder, ModuleBuilder};
pub use instr::{
    BinOp, CastKind, FPred, IPred, Instr, InstrId, Op, OpClass, Operand, Operands, Term, UnOp,
};
pub use module::{Block, BlockId, Const, FuncId, Function, Global, Module, ValueId};
pub use parse::{parse_module, ParseError};
pub use types::Ty;
pub use verify::{verify, VerifyError};
