//! Execution profiles: the dynamic counterpart of the static instruction
//! table.

use peppa_ir::{Module, Op};

/// Number of coarse opcode categories (the [`Op`] variants).
const OP_KINDS: usize = 12;

const OP_NAMES: [&str; OP_KINDS] = [
    "bin", "un", "icmp", "fcmp", "select", "cast", "load", "store", "gep", "alloca", "call",
    "output",
];

fn op_index(op: &Op) -> usize {
    match op {
        Op::Bin { .. } => 0,
        Op::Un { .. } => 1,
        Op::Icmp { .. } => 2,
        Op::Fcmp { .. } => 3,
        Op::Select { .. } => 4,
        Op::Cast { .. } => 5,
        Op::Load { .. } => 6,
        Op::Store { .. } => 7,
        Op::Gep { .. } => 8,
        Op::Alloca { .. } => 9,
        Op::Call { .. } => 10,
        Op::Output { .. } => 11,
    }
}

/// Per-run execution profile.
///
/// `exec_counts[sid]` is `N_i` from Eq. 2 of the paper — how many times
/// static instruction `sid` executed. `dynamic` is `N_total` restricted to
/// non-terminator instructions (terminators carry no injectable value, so
/// the paper's per-instruction statistics never mention them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Profile {
    /// Executions of each static instruction, indexed by `sid`.
    pub exec_counts: Vec<u64>,
    /// Total dynamic (non-terminator) instructions executed.
    pub dynamic: u64,
    /// Dynamic instructions that produced a value — the population from
    /// which fault sites are drawn.
    pub value_dynamic: u64,
}

impl Profile {
    pub fn new(num_instrs: usize) -> Profile {
        Profile {
            exec_counts: vec![0; num_instrs],
            dynamic: 0,
            value_dynamic: 0,
        }
    }

    /// Static code coverage: the fraction of static instructions that
    /// executed at least once (§3.2.2 profiles coverage "based on static
    /// instructions").
    pub fn coverage(&self) -> f64 {
        if self.exec_counts.is_empty() {
            return 0.0;
        }
        let covered = self.exec_counts.iter().filter(|&&c| c > 0).count();
        covered as f64 / self.exec_counts.len() as f64
    }

    /// Set of executed static instruction ids.
    pub fn covered_sids(&self) -> Vec<u32> {
        self.exec_counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Relative dynamic footprint `N_i / N_total` of one instruction.
    pub fn footprint(&self, sid: usize) -> f64 {
        if self.dynamic == 0 {
            return 0.0;
        }
        self.exec_counts[sid] as f64 / self.dynamic as f64
    }

    /// Renders the hot-instruction table of this run of `module` (the
    /// module the run executed, so every sid indexes it): the `top`
    /// most-executed static instructions with mnemonic, dynamic
    /// count and share of the total, then the dynamic count per opcode
    /// category ([`Op`] variant), most executed first. The total is the
    /// sum of `exec_counts`, the instructions that began: on a hang it is
    /// one less than `dynamic`, which also counts the instruction the
    /// budget stopped.
    pub fn hot_table(&self, module: &Module, top: usize) -> String {
        let instrs = module.all_instrs();
        let mut per_op = [0u64; OP_KINDS];
        for (sid, &count) in self.exec_counts.iter().enumerate() {
            per_op[op_index(&instrs[sid].1.op)] += count;
        }
        let total: u64 = per_op.iter().sum();
        let mut sids: Vec<(usize, u64)> = self
            .exec_counts
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, c)| *c > 0)
            .collect();
        sids.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        sids.truncate(top);

        let mut out = String::new();
        out.push_str(&format!(
            "{:>6}  {:>8}  {:>14}  {:>6}\n",
            "sid", "op", "dyn", "share"
        ));
        for (sid, count) in sids {
            out.push_str(&format!(
                "{:>6}  {:>8}  {:>14}  {:>5.1}%\n",
                sid,
                instrs[sid].1.op.mnemonic(),
                count,
                count as f64 / total.max(1) as f64 * 100.0
            ));
        }
        out.push_str(&format!("  total dynamic instructions: {total}\n"));
        let mut rows: Vec<usize> = (0..OP_KINDS).filter(|&i| per_op[i] > 0).collect();
        rows.sort_by_key(|&i| std::cmp::Reverse(per_op[i]));
        for i in rows {
            out.push_str(&format!("  {:>8}: {:>12} dyn\n", OP_NAMES[i], per_op[i]));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_counts_executed() {
        let p = Profile {
            exec_counts: vec![3, 0, 1, 0],
            dynamic: 4,
            value_dynamic: 4,
        };
        assert!((p.coverage() - 0.5).abs() < 1e-12);
        assert_eq!(p.covered_sids(), vec![0, 2]);
    }

    #[test]
    fn empty_profile() {
        let p = Profile::new(0);
        assert_eq!(p.coverage(), 0.0);
    }

    #[test]
    fn footprint_fractions() {
        let p = Profile {
            exec_counts: vec![1, 3],
            dynamic: 4,
            value_dynamic: 4,
        };
        assert!((p.footprint(1) - 0.75).abs() < 1e-12);
    }
}
