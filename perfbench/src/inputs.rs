//! The fixed inputs of the three workloads.
//!
//! `ship` and `prune` run one FI campaign per [`Case`]. Each program runs
//! at its reference input plus two inputs drawn once with
//! `peppa_apps::random_inputs(bench, 2, 2021, ExecLimits::default(),
//! 300_000)`, i.e. under the paper's two validity rules (clean exit,
//! golden run under a dynamic-instruction cap). The cap is 300k at `-O0`
//! instead of the generator's default 20M so that no single (program,
//! input) pair dominates a pass: the largest case is about 13% of the
//! workload's golden instructions. The draws are written out here rather
//! than re-drawn at run time, so a change to the generator cannot change
//! what the benchmark measures.

/// FI trials per `ship` and `prune` campaign. With the cases below this
/// keeps the interpreter reference gate of one run under about 30 s of
/// single-core time; see README.md.
pub const CAMPAIGN_TRIALS: u32 = 500;

/// The search workload's GA generations and final-FI trials: the
/// `peppa search` defaults.
pub const SEARCH_GENERATIONS: u64 = 50;
pub const SEARCH_FINAL_TRIALS: u32 = 1000;

/// The programs, in the paper's Table 1 order.
pub const PROGRAMS: [&str; 7] = [
    "pathfinder",
    "needle",
    "particlefilter",
    "comd",
    "hpccg",
    "xsbench",
    "fft",
];

/// One (program, input) pair of the campaign workloads.
pub struct Case {
    pub program: &'static str,
    pub input: &'static [f64],
}

pub const CASES: &[Case] = &[
    // Each program's reference input comes first, then its two draws.
    Case {
        program: "pathfinder",
        input: &[32.0, 48.0, 7919.0, 10.0],
    },
    Case {
        program: "pathfinder",
        input: &[13.0, 47.0, 143875.0, 60.76153333190431],
    },
    Case {
        program: "pathfinder",
        input: &[15.0, 49.0, 96347.0, 17.512792123992114],
    },
    Case {
        program: "needle",
        input: &[48.0, 48.0, 10.0, 3571.0],
    },
    Case {
        program: "needle",
        input: &[14.0, 47.0, 4.0, 607612.0],
    },
    Case {
        program: "needle",
        input: &[17.0, 49.0, 3.0, 175120.0],
    },
    Case {
        program: "particlefilter",
        input: &[64.0, 10.0, 1.0, 1234.0],
    },
    Case {
        program: "particlefilter",
        input: &[39.0, 18.0, 0.6183047048065606, 607612.0],
    },
    Case {
        program: "particlefilter",
        input: &[47.0, 18.0, 0.43056604900150275, 175120.0],
    },
    Case {
        program: "comd",
        input: &[48.0, 5.0, 0.003, 2.5, 42.0],
    },
    Case {
        program: "comd",
        input: &[
            17.0,
            7.0,
            0.0015243586272366964,
            3.019028523582844,
            211813.0,
        ],
    },
    Case {
        program: "comd",
        input: &[
            50.0,
            2.0,
            0.0018336847571227906,
            3.381665755732878,
            187764.0,
        ],
    },
    // Hpccg's reference input (5,5,5,25,1e-6) runs 889k instructions,
    // three times the cap, and alone would be half of a pass; Hpccg runs
    // at its two drawn inputs only.
    Case {
        program: "hpccg",
        input: &[4.0, 4.0, 3.0, 9.0, 0.0004946748886185133],
    },
    Case {
        program: "hpccg",
        input: &[3.0, 4.0, 4.0, 25.0, 0.002143592396289079],
    },
    Case {
        program: "xsbench",
        input: &[256.0, 128.0, 4.0, 97.0],
    },
    Case {
        program: "xsbench",
        input: &[100.0, 187.0, 1.0, 607612.0],
    },
    Case {
        program: "xsbench",
        input: &[121.0, 195.0, 1.0, 175120.0],
    },
    Case {
        program: "fft",
        input: &[8.0, 4242.0, 1.0],
    },
    // The smallest run of the set: 2.7k instructions.
    Case {
        program: "fft",
        input: &[4.0, 713931.0, 14.47307342029757],
    },
    Case {
        program: "fft",
        input: &[7.0, 211813.0, 74.40604218110904],
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use peppa_x::apps::{benchmark_by_name, valid_input};
    use peppa_x::vm::ExecLimits;

    #[test]
    fn every_case_is_valid_under_the_cap() {
        for c in CASES {
            let b = benchmark_by_name(c.program).expect("known program");
            assert!(
                valid_input(&b, c.input, ExecLimits::default(), 300_000),
                "{} {:?}",
                c.program,
                c.input
            );
        }
    }
}
