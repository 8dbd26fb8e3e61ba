//! Known-bits analysis: per-value tracking of bit positions that are
//! provably 0 or provably 1 in the VM's canonical 64-bit representation.
//!
//! The transfer functions mirror `peppa-vm`'s interpreter exactly: i32
//! values are canonically sign-extended, i1 is 0/1, shift counts are
//! masked to the type width. Soundness contract (checked by the proptest
//! suite): for every concrete run, each value's bits satisfy its
//! abstraction at the def site.

use crate::dataflow::AbstractDomain;
use peppa_ir::{BinOp, CastKind, Const, Op, Ty, UnOp};

const SIGN: u64 = 1 << 63;

/// Bit-level abstraction of one 64-bit canonical value: `zeros` is the
/// mask of bits known to be 0, `ones` of bits known to be 1. Disjoint by
/// construction; a bit in neither mask is unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KnownBits {
    pub zeros: u64,
    pub ones: u64,
}

impl KnownBits {
    /// Nothing known.
    pub const UNKNOWN: KnownBits = KnownBits { zeros: 0, ones: 0 };

    /// Exact constant.
    pub fn exact(bits: u64) -> KnownBits {
        KnownBits {
            zeros: !bits,
            ones: bits,
        }
    }

    /// Mask of known bit positions.
    pub fn known(self) -> u64 {
        self.zeros | self.ones
    }

    /// Whether every bit is known (the value is a constant).
    pub fn is_const(self) -> bool {
        self.known() == u64::MAX
    }

    /// The constant value, if fully known.
    pub fn as_const(self) -> Option<u64> {
        if self.is_const() {
            Some(self.ones)
        } else {
            None
        }
    }

    /// Whether the concrete bit pattern is compatible with this
    /// abstraction (the soundness predicate).
    pub fn contains(self, bits: u64) -> bool {
        (bits & self.zeros) == 0 && (!bits & self.ones) == 0
    }

    /// Number of trailing bits (from bit 0) that are all known.
    fn trailing_known(self) -> u32 {
        (!self.known()).trailing_zeros()
    }

    /// Re-imposes the canonical-representation invariant for `ty`:
    /// i1 has bits 1..64 zero; i32 has bits 32..64 equal to bit 31.
    fn canon(self, ty: Ty) -> KnownBits {
        match ty {
            Ty::I1 => KnownBits {
                zeros: (self.zeros & 1) | !1,
                ones: self.ones & 1,
            },
            Ty::I32 => {
                let low_z = self.zeros & 0xFFFF_FFFF;
                let low_o = self.ones & 0xFFFF_FFFF;
                let high = !0xFFFF_FFFFu64;
                if low_z & (1 << 31) != 0 {
                    KnownBits {
                        zeros: low_z | high,
                        ones: low_o,
                    }
                } else if low_o & (1 << 31) != 0 {
                    KnownBits {
                        zeros: low_z,
                        ones: low_o | high,
                    }
                } else {
                    KnownBits {
                        zeros: low_z,
                        ones: low_o,
                    }
                }
            }
            _ => self,
        }
    }
}

/// Known-bits addition: the low run of bits where both operands are
/// fully known determines the sum's low bits exactly (carries within the
/// run are determined; the carry out of it is not).
fn add_kb(a: KnownBits, b: KnownBits) -> KnownBits {
    let k = a.trailing_known().min(b.trailing_known());
    low_bits_exact(a.ones.wrapping_add(b.ones), k)
}

fn sub_kb(a: KnownBits, b: KnownBits) -> KnownBits {
    let k = a.trailing_known().min(b.trailing_known());
    low_bits_exact(a.ones.wrapping_sub(b.ones), k)
}

fn mul_kb(a: KnownBits, b: KnownBits) -> KnownBits {
    let k = a.trailing_known().min(b.trailing_known());
    let mut r = low_bits_exact(a.ones.wrapping_mul(b.ones), k);
    // Trailing zeros of the factors add in the product: a value whose
    // low `t` bits are all known zero is a multiple of 2^t.
    let tz = (a.zeros.trailing_ones() + b.zeros.trailing_ones()).min(64);
    if tz > 0 {
        let mask = if tz >= 64 { u64::MAX } else { (1u64 << tz) - 1 };
        r.zeros |= mask & !r.ones;
    }
    r
}

/// Abstraction knowing exactly the low `k` bits of `v`.
fn low_bits_exact(v: u64, k: u32) -> KnownBits {
    if k == 0 {
        return KnownBits::UNKNOWN;
    }
    let mask = if k >= 64 { u64::MAX } else { (1u64 << k) - 1 };
    KnownBits {
        zeros: !v & mask,
        ones: v & mask,
    }
}

/// Shift amount as the VM masks it: `b & (w - 1).max(1)`. Known only if
/// the participating low bits of `b` are known.
fn shift_amount(ty: Ty, b: KnownBits) -> Option<u32> {
    let m = (ty.bits() as u64 - 1).max(1);
    if b.known() & m == m {
        Some((b.ones & m) as u32)
    } else {
        None
    }
}

impl AbstractDomain for KnownBits {
    fn top(ty: Ty) -> KnownBits {
        KnownBits::UNKNOWN.canon(ty)
    }

    fn of_const(c: Const) -> KnownBits {
        // Constants are canonicalized by the VM's `eval`.
        let bits = match c.ty {
            Ty::I1 => c.bits & 1,
            Ty::I32 => (c.bits as u32 as i32 as i64) as u64,
            _ => c.bits,
        };
        KnownBits::exact(bits)
    }

    fn join(&self, other: &KnownBits) -> KnownBits {
        KnownBits {
            zeros: self.zeros & other.zeros,
            ones: self.ones & other.ones,
        }
    }

    fn widen(&self, next: &KnownBits) -> KnownBits {
        // Joins only ever clear mask bits, so each value descends at most
        // 64 times and a plain join terminates. It does not bound the
        // number of solver passes: values that each wait on another's
        // descent (a chain of shift registers) can need more passes than
        // a solver's cap, and the solvers then fall back to ⊤.
        self.join(next)
    }

    fn transfer(op: &Op, ty: Ty, args: &[KnownBits], arg_tys: &[Ty]) -> KnownBits {
        let r = match op {
            Op::Bin { op, .. } => {
                let (a, b) = (args[0], args[1]);
                match op {
                    BinOp::Add => add_kb(a, b),
                    BinOp::Sub => sub_kb(a, b),
                    BinOp::Mul => mul_kb(a, b),
                    BinOp::SDiv | BinOp::SRem => KnownBits::UNKNOWN,
                    BinOp::FAdd | BinOp::FSub | BinOp::FMul | BinOp::FDiv => KnownBits::UNKNOWN,
                    BinOp::And => KnownBits {
                        zeros: a.zeros | b.zeros,
                        ones: a.ones & b.ones,
                    },
                    BinOp::Or => KnownBits {
                        zeros: a.zeros & b.zeros,
                        ones: a.ones | b.ones,
                    },
                    BinOp::Xor => KnownBits {
                        zeros: (a.zeros & b.zeros) | (a.ones & b.ones),
                        ones: (a.zeros & b.ones) | (a.ones & b.zeros),
                    },
                    BinOp::Shl => match shift_amount(ty, b) {
                        Some(s) => KnownBits {
                            zeros: (a.zeros << s) | ((1u64 << s) - 1),
                            ones: a.ones << s,
                        },
                        None => KnownBits::UNKNOWN,
                    },
                    BinOp::LShr => match shift_amount(ty, b) {
                        Some(s) => {
                            let w = ty.bits();
                            // The VM masks the operand to the type width
                            // before the logical shift.
                            let m = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
                            let az = (a.zeros & m) | !m; // bits above w are 0 post-mask
                            let high = if s == 0 { 0 } else { !(u64::MAX >> s) };
                            KnownBits {
                                zeros: (az >> s) | high,
                                ones: (a.ones & m) >> s,
                            }
                        }
                        None => KnownBits::UNKNOWN,
                    },
                    BinOp::AShr => match shift_amount(ty, b) {
                        Some(s) => KnownBits {
                            // Arithmetic-shifting each mask replicates the
                            // (known-ness of the) sign bit.
                            zeros: ((a.zeros as i64) >> s) as u64,
                            ones: ((a.ones as i64) >> s) as u64,
                        },
                        None => KnownBits::UNKNOWN,
                    },
                }
            }
            Op::Un { op, .. } => {
                let a = args[0];
                match op {
                    UnOp::Not => KnownBits {
                        zeros: a.ones,
                        ones: a.zeros,
                    },
                    UnOp::FNeg => KnownBits {
                        // Exactly flips the sign bit.
                        zeros: (a.zeros & !SIGN) | (a.ones & SIGN),
                        ones: (a.ones & !SIGN) | (a.zeros & SIGN),
                    },
                    UnOp::FAbs => KnownBits {
                        // Clears the sign bit (IEEE abs is bit-level).
                        zeros: a.zeros | SIGN,
                        ones: a.ones & !SIGN,
                    },
                    _ => KnownBits::UNKNOWN,
                }
            }
            Op::Icmp { .. } | Op::Fcmp { .. } => {
                // Result is i1; bit 0 is generally unknown. (The interval
                // analysis decides statically-determined comparisons.)
                KnownBits::UNKNOWN
            }
            Op::Select { .. } => {
                let (c, t, f) = (args[0], args[1], args[2]);
                if c.known() & 1 != 0 {
                    if c.ones & 1 != 0 {
                        t
                    } else {
                        f
                    }
                } else {
                    t.join(&f)
                }
            }
            Op::Cast { kind, .. } => {
                let a = args[0];
                let from = arg_tys[0];
                match kind {
                    CastKind::Trunc
                    | CastKind::Bitcast
                    | CastKind::PtrToInt
                    | CastKind::IntToPtr => a,
                    CastKind::ZExt => {
                        // The VM zero-extends the *unsigned* narrow value
                        // (`from.truncate_bits`).
                        let m = if from.bits() == 64 {
                            u64::MAX
                        } else {
                            (1u64 << from.bits()) - 1
                        };
                        KnownBits {
                            zeros: (a.zeros & m) | !m,
                            ones: a.ones & m,
                        }
                    }
                    CastKind::SExt => {
                        if from == Ty::I1 {
                            // Result is 0 or all-ones depending on bit 0.
                            if a.ones & 1 != 0 {
                                KnownBits::exact(u64::MAX)
                            } else if a.zeros & 1 != 0 {
                                KnownBits::exact(0)
                            } else {
                                KnownBits::UNKNOWN
                            }
                        } else {
                            a // i32 is already canonically sign-extended
                        }
                    }
                    CastKind::FpToSi | CastKind::SiToFp => KnownBits::UNKNOWN,
                }
            }
            Op::Load { .. } | Op::Alloca { .. } | Op::Call { .. } => KnownBits::UNKNOWN,
            Op::Gep { .. } => add_kb(args[0], args[1]),
            Op::Store { .. } | Op::Output { .. } => KnownBits::UNKNOWN,
        };
        r.canon(ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;
    use crate::dataflow::analyze_values;
    use peppa_ir::Module;

    fn compile(src: &str) -> Module {
        peppa_lang::compile(src, "kb").unwrap()
    }

    #[test]
    fn exact_const_roundtrip() {
        let kb = KnownBits::exact(0xDEAD);
        assert!(kb.is_const());
        assert_eq!(kb.as_const(), Some(0xDEAD));
        assert!(kb.contains(0xDEAD));
        assert!(!kb.contains(0xDEAF));
    }

    #[test]
    fn join_keeps_agreement() {
        let a = KnownBits::exact(0b1100);
        let b = KnownBits::exact(0b1010);
        let j = a.join(&b);
        // Bits 3 (both 1) and 0 (both 0) stay known; bits 1,2 do not.
        assert!(j.ones & 0b1000 != 0);
        assert!(j.zeros & 0b0001 != 0);
        assert_eq!(j.known() & 0b0110, 0);
        assert!(j.contains(0b1100) && j.contains(0b1010));
    }

    #[test]
    fn and_with_mask_pins_zeros() {
        // x & 0xFF: bits 8..64 known zero whatever x is.
        let m = compile("fn main(x: int) { output x & 255; }");
        let f = m.entry_func();
        let facts = analyze_values::<KnownBits>(f, &Cfg::new(f));
        let and_res = f.instrs().find(|i| i.op.mnemonic() == "and").unwrap();
        let kb = facts.values[and_res.result.unwrap().0 as usize];
        assert_eq!(kb.zeros & !0xFF, !0xFFu64);
        assert_eq!(kb.known() & 0xFF, 0, "low byte of x is unknown");
    }

    #[test]
    fn shl_by_constant_pins_low_zeros() {
        let m = compile("fn main(x: int) { output x << 4; }");
        let f = m.entry_func();
        let facts = analyze_values::<KnownBits>(f, &Cfg::new(f));
        let shl = f.instrs().find(|i| i.op.mnemonic() == "shl").unwrap();
        let kb = facts.values[shl.result.unwrap().0 as usize];
        assert_eq!(kb.zeros & 0xF, 0xF, "low 4 bits are zero after << 4");
    }

    #[test]
    fn constant_chain_folds() {
        let m = compile("fn main() { let a = 3 + 4; let b = a * 2; output b; }");
        let f = m.entry_func();
        let facts = analyze_values::<KnownBits>(f, &Cfg::new(f));
        // The mul result is exactly 14 (frontend may or may not fold;
        // either way the analysis must know it).
        let last = f.instrs().find(|i| i.op.mnemonic() == "output").unwrap();
        let v = last.op.operands()[0];
        let kb = match v {
            peppa_ir::Operand::Value(v) => facts.values[v.0 as usize],
            peppa_ir::Operand::Const(c) => KnownBits::of_const(c),
        };
        assert_eq!(kb.as_const(), Some(14));
    }

    #[test]
    fn loop_carried_value_stays_sound() {
        let m = compile(
            r#"fn main(n: int) {
                let s = 0;
                for (i = 0; i < n; i = i + 1) { s = s + 2; }
                output s;
            }"#,
        );
        let f = m.entry_func();
        let facts = analyze_values::<KnownBits>(f, &Cfg::new(f));
        // s is always even: bit 0 known zero even through the loop join.
        let out = f.instrs().find(|i| i.op.mnemonic() == "output").unwrap();
        if let peppa_ir::Operand::Value(v) = out.op.operands()[0] {
            let kb = facts.values[v.0 as usize];
            assert!(kb.zeros & 1 != 0, "sum of evens must keep bit0 = 0: {kb:?}");
        }
    }

    #[test]
    fn i1_values_have_high_bits_zero() {
        let m = compile("fn main(x: int) { if (x > 3) { output 1; } else { output 0; } }");
        let f = m.entry_func();
        let facts = analyze_values::<KnownBits>(f, &Cfg::new(f));
        let icmp = f.instrs().find(|i| i.op.mnemonic() == "icmp").unwrap();
        let kb = facts.values[icmp.result.unwrap().0 as usize];
        assert_eq!(kb.zeros | 1, u64::MAX, "i1: bits 1..64 known zero");
    }
}
