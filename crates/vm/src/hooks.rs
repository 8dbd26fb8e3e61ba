//! Execution hooks: zero-cost instrumentation points in the reference
//! interpreter.
//!
//! The interpreter's instruction loop is monomorphized over an
//! [`ExecHook`]. The default [`NoHook`] has `ENABLED == false`, so the
//! hook branch is `if false { .. }` after constant folding and the
//! un-instrumented path compiles to exactly the code it had before hooks
//! existed. [`crate::Vm::run_with_hook`] and
//! [`crate::Vm::resume_from_with_hook`] are the only hooked entry points:
//! the compiled engine carries no hook, so an instrumented run (the
//! shadow-taint tracer, the campaign's sid map, the deviation observer,
//! the soundness tests) runs on the interpreter. A per-opcode profile
//! needs no hook: [`crate::Profile::hot_table`] reads a run's counts.

use peppa_ir::{FuncId, Instr, Operand, ValueId};

/// An instrumentation sink for the interpreter's instruction loop.
///
/// `ENABLED` gates every call site behind a compile-time constant;
/// implementations with `ENABLED == false` cost nothing at runtime.
pub trait ExecHook {
    const ENABLED: bool;

    /// Called before each dynamic instruction, where the run counts it in
    /// [`crate::Profile::exec_counts`].
    #[inline]
    fn begin_instr(&mut self, ins: &Instr) {
        let _ = ins;
    }

    /// Called when a value-producing instruction writes its result
    /// register, with the canonical bits actually written (after any
    /// fault injection). The static-analysis soundness tests use this to
    /// compare concrete def values against their abstractions.
    #[inline]
    fn def_value(&mut self, ins: &Instr, bits: u64) {
        let _ = (ins, bits);
    }

    /// Called after a successful `store`, with the resolved word address
    /// and the raw word written. The memory-dependence soundness tests
    /// use this to record dynamic last-writer relations.
    #[inline]
    fn mem_store(&mut self, ins: &Instr, addr: u64, bits: u64) {
        let _ = (ins, addr, bits);
    }

    /// Called after a successful `load`, with the resolved word address
    /// and the raw word read (before type reinterpretation).
    #[inline]
    fn mem_load(&mut self, ins: &Instr, addr: u64, bits: u64) {
        let _ = (ins, addr, bits);
    }

    /// Called when the interpreter zero-fills a memory range (`alloca`
    /// reusing stack words). Shadow engines drop any stale per-word state
    /// for `[base, base + words)`.
    #[inline]
    fn mem_clear(&mut self, base: u64, words: u64) {
        let _ = (base, words);
    }

    /// Called exactly once per faulty run, at the instruction whose result
    /// the injection corrupts, with the canonical XOR mask the flip
    /// applied (old bits ^ new bits). Fires before [`def_value`] for the
    /// same instruction. Shadow engines use this to seed taint.
    ///
    /// [`def_value`]: ExecHook::def_value
    #[inline]
    fn fault_injected(&mut self, ins: &Instr, flip_mask: u64) {
        let _ = (ins, flip_mask);
    }

    /// Called at each taken branch edge, before the interpreter copies
    /// `args` into the target block's `params`. `cond` is the condition
    /// operand for conditional branches (`None` for unconditional ones),
    /// evaluated in the *current* register file.
    #[inline]
    fn branch_transfer(&mut self, cond: Option<&Operand>, params: &[ValueId], args: &[Operand]) {
        let _ = (cond, params, args);
    }

    /// Called immediately before entering `callee`'s frame for the call
    /// instruction `ins` (arguments are in `ins.op`, evaluated in the
    /// caller's register file).
    #[inline]
    fn call_enter(&mut self, ins: &Instr, callee: FuncId) {
        let _ = (ins, callee);
    }

    /// Called when a frame returns, with the returned operand (evaluated
    /// in the *returning* frame's register file). The matching
    /// [`call_enter`] frame is the one being popped; when no frame was
    /// ever pushed for it, this is the entry function returning.
    ///
    /// [`call_enter`]: ExecHook::call_enter
    #[inline]
    fn func_ret(&mut self, value: Option<&Operand>) {
        let _ = value;
    }
}

/// The default hook: compiles to nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHook;

impl ExecHook for NoHook {
    const ENABLED: bool = false;
}

impl<H: ExecHook> ExecHook for &mut H {
    const ENABLED: bool = H::ENABLED;

    #[inline]
    fn begin_instr(&mut self, ins: &Instr) {
        (**self).begin_instr(ins)
    }

    #[inline]
    fn def_value(&mut self, ins: &Instr, bits: u64) {
        (**self).def_value(ins, bits)
    }

    #[inline]
    fn mem_store(&mut self, ins: &Instr, addr: u64, bits: u64) {
        (**self).mem_store(ins, addr, bits)
    }

    #[inline]
    fn mem_load(&mut self, ins: &Instr, addr: u64, bits: u64) {
        (**self).mem_load(ins, addr, bits)
    }

    #[inline]
    fn mem_clear(&mut self, base: u64, words: u64) {
        (**self).mem_clear(base, words)
    }

    #[inline]
    fn fault_injected(&mut self, ins: &Instr, flip_mask: u64) {
        (**self).fault_injected(ins, flip_mask)
    }

    #[inline]
    fn branch_transfer(&mut self, cond: Option<&Operand>, params: &[ValueId], args: &[Operand]) {
        (**self).branch_transfer(cond, params, args)
    }

    #[inline]
    fn call_enter(&mut self, ins: &Instr, callee: FuncId) {
        (**self).call_enter(ins, callee)
    }

    #[inline]
    fn func_ret(&mut self, value: Option<&Operand>) {
        (**self).func_ret(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_hook_is_zero_sized() {
        assert_eq!(std::mem::size_of::<NoHook>(), 0);
        const { assert!(!NoHook::ENABLED) };
    }
}
