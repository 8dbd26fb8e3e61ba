//! Property test for the snapshot/resume engine.
//!
//! For random straight-line integer programs, capture a snapshot at
//! *every* value-instruction boundary along the golden run and check
//! that resuming from each one — with and without an injected fault —
//! reproduces the straight run bit-for-bit: same status, same output,
//! same return value, same final memory image, same dynamic counters.
//! This is the determinism contract snapshot-resumed campaign trials
//! (`CampaignPlan::snapshots` in `peppa-inject`) rest on, exercised
//! over arbitrary programs instead of hand-picked kernels.

use peppa_vm::{encode_inputs, ExecLimits, Injection, InjectionTarget, RunStatus, Vm};
use proptest::prelude::*;

/// One generated statement, decoded from one random `u64` (the offline
/// proptest stand-in has no `prop_map`, so custom strategies are
/// unpacked by hand). Mirrors the generator in `taint_differential.rs`.
#[derive(Debug, Clone)]
struct Stmt {
    op: u8,
    lhs: u8,
    rhs: u8,
    lit: u32,
    shift: u8,
}

impl Stmt {
    fn decode(raw: u64) -> Stmt {
        Stmt {
            op: (raw & 0xff) as u8,
            lhs: ((raw >> 8) & 0xff) as u8,
            rhs: ((raw >> 16) & 0xff) as u8,
            lit: ((raw >> 24) & 0xffff_ffff) as u32,
            shift: ((raw >> 56) & 0xff) as u8,
        }
    }
}

fn operand(sel: u8, defined: usize, lit: u32) -> String {
    match sel as usize % (defined + 3) {
        0 => "a".to_string(),
        1 => "b".to_string(),
        2 => lit.to_string(),
        k => format!("v{}", k - 3),
    }
}

fn render_program(stmts: &[Stmt]) -> String {
    let mut src = String::from("fn main(a: int, b: int) {\n");
    for (i, s) in stmts.iter().enumerate() {
        let x = operand(s.lhs, i, s.lit);
        let y = operand(s.rhs, i, s.lit ^ 0x55);
        let sh = s.shift % 63;
        let expr = match s.op % 11 {
            0 => format!("{x} + {y}"),
            1 => format!("{x} - {y}"),
            2 => format!("{x} * {y}"),
            3 => format!("{x} & {y}"),
            4 => format!("{x} | {y}"),
            5 => format!("{x} ^ {y}"),
            6 => format!("{x} << {sh}"),
            7 => format!("{x} >> {sh}"),
            8 => format!("min({x}, {y})"),
            9 => format!("max({x}, {y})"),
            _ => format!("abs({x})"),
        };
        src.push_str(&format!("    let v{i} = {expr};\n"));
    }
    src.push_str(&format!("    output v{};\n}}\n", stmts.len() - 1));
    src
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn resume_from_every_boundary_matches_straight_run(
        raw_stmts in proptest::collection::vec(any::<u64>(), 1..12),
        a in any::<i32>(),
        b in any::<i32>(),
        site_sel in any::<u64>(),
        bit in 0u32..64,
    ) {
        let stmts: Vec<Stmt> = raw_stmts.iter().map(|&r| Stmt::decode(r)).collect();
        let src = render_program(&stmts);
        let m = peppa_lang::compile(&src, "snapprop").unwrap();
        let inputs = [a as i64 as f64, b as i64 as f64];
        let in_bits = encode_inputs(m.entry_func(), &inputs);
        let vm = Vm::new(&m, ExecLimits::default());

        let golden = vm.run_capture(&in_bits, None);
        prop_assert_eq!(golden.status, RunStatus::Ok);
        prop_assert!(golden.profile.value_dynamic > 0);

        // Snapshot at every value-instruction boundary of the run.
        let points: Vec<u64> = (0..golden.profile.value_dynamic).collect();
        let (replay, snaps) = vm.run_with_snapshots(&in_bits, &points);
        prop_assert_eq!(replay.status, RunStatus::Ok);
        prop_assert_eq!(snaps.len(), points.len());

        let site = site_sel % golden.profile.value_dynamic;
        let inj = Injection {
            target: InjectionTarget::DynamicIndex(site),
            bit,
            burst: 0,
        };
        let faulty_full = vm.run_capture(&in_bits, Some(inj));

        for (i, snap) in snaps.iter().enumerate() {
            prop_assert_eq!(snap.value_dynamic(), points[i]);

            // Clean resume reproduces the golden run from any boundary.
            let clean = vm.resume_capture(snap, None);
            prop_assert_eq!(clean.status, golden.status);
            prop_assert_eq!(&clean.output, &golden.output);
            prop_assert_eq!(clean.ret, golden.ret);
            prop_assert_eq!(clean.profile.dynamic, golden.profile.dynamic);
            prop_assert_eq!(clean.profile.value_dynamic, golden.profile.value_dynamic);
            prop_assert_eq!(&clean.profile.exec_counts, &golden.profile.exec_counts);
            prop_assert_eq!(&clean.memory, &golden.memory, "clean resume memory @{i}\n{src}");

            // Faulty resume is bit-exact with the full faulty run
            // whenever the snapshot precedes the injection site.
            if snap.value_dynamic() <= site {
                let f = vm.resume_capture(snap, Some(inj));
                prop_assert_eq!(f.status, faulty_full.status, "@{i}\n{src}");
                prop_assert_eq!(&f.output, &faulty_full.output);
                prop_assert_eq!(f.ret, faulty_full.ret);
                prop_assert_eq!(f.fault_activated, faulty_full.fault_activated);
                prop_assert_eq!(f.profile.dynamic, faulty_full.profile.dynamic);
                prop_assert_eq!(&f.memory, &faulty_full.memory, "faulty resume memory @{i}\n{src}");
            }
        }
    }
}
