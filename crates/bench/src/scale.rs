//! Experiment scaling knobs.

use peppa_vm::ExecLimits;

/// Experiment scale: `Quick` for CI-sized runs, `Paper` for the paper's
/// trial counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Quick,
    Paper,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_lowercase().as_str() {
            "quick" => Some(Scale::Quick),
            "paper" | "full" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// Shared experiment context.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub scale: Scale,
    pub seed: u64,
    pub threads: usize,
    pub limits: ExecLimits,
}

impl Ctx {
    pub fn new(scale: Scale, seed: u64) -> Ctx {
        Ctx {
            scale,
            seed,
            threads: 0,
            limits: ExecLimits::default(),
        }
    }

    /// Random inputs per benchmark for the initial FI study (§3: 30).
    pub fn study_inputs(&self) -> usize {
        match self.scale {
            Scale::Quick => 8,
            Scale::Paper => 30,
        }
    }

    /// Trials per program-level campaign — one notch above the paper's
    /// 1,000 (§3.1.4) now that the compiled engine and snapshotted
    /// execution make the extra trials cheap. `--smoke` paths hardcode
    /// their own (smaller) counts, so CI wall time is unaffected.
    pub fn campaign_trials(&self) -> u32 {
        match self.scale {
            Scale::Quick => 500,
            Scale::Paper => 2000,
        }
    }

    /// Snapshots per snapshotted campaign (the K the baseline and
    /// snapshot experiments measure at).
    pub fn campaign_snapshots(&self) -> u32 {
        match self.scale {
            Scale::Quick => 64,
            Scale::Paper => 64,
        }
    }

    /// Trials per *snapshotted* program-level campaign. The fork engine
    /// amortizes the golden prefix, so campaigns several times the
    /// classic size fit the same wall budget — this is the scale the
    /// snapshot experiment and the baseline run at (raised one notch
    /// alongside [`Ctx::campaign_trials`]).
    pub fn snapshot_campaign_trials(&self) -> u32 {
        match self.scale {
            Scale::Quick => 2000,
            Scale::Paper => 10000,
        }
    }

    /// Trials per instruction for per-instruction measurements (§3.1.4:
    /// 100).
    pub fn per_instr_trials(&self) -> u32 {
        match self.scale {
            Scale::Quick => 30,
            Scale::Paper => 100,
        }
    }

    /// Trials per representative in the distribution analysis (§4.2.3:
    /// 30).
    pub fn distribution_trials(&self) -> u32 {
        match self.scale {
            Scale::Quick => 15,
            Scale::Paper => 30,
        }
    }

    /// Generation checkpoints for the search comparison (Figure 5: 50,
    /// 100, 200, 500, 1,000).
    pub fn generation_checkpoints(&self) -> Vec<u64> {
        match self.scale {
            Scale::Quick => vec![10, 25, 50, 100],
            Scale::Paper => vec![50, 100, 200, 500, 1000],
        }
    }

    /// The "saturation" checkpoint used for Figure 7 and Figure 9 (200
    /// generations in the paper).
    pub fn saturation_checkpoint(&self) -> u64 {
        match self.scale {
            Scale::Quick => 50,
            Scale::Paper => 200,
        }
    }

    /// GA population size.
    pub fn population(&self) -> usize {
        match self.scale {
            Scale::Quick => 12,
            Scale::Paper => 20,
        }
    }

    /// Inputs per benchmark for the ranking-stability study (Table 3).
    pub fn ranking_inputs(&self) -> usize {
        match self.scale {
            Scale::Quick => 4,
            Scale::Paper => 8,
        }
    }

    /// Heat-map grid resolution per axis (Figure 6).
    pub fn heatmap_resolution(&self) -> usize {
        match self.scale {
            Scale::Quick => 10,
            Scale::Paper => 20,
        }
    }

    /// Trials per heat-map cell.
    pub fn heatmap_trials(&self) -> u32 {
        match self.scale {
            Scale::Quick => 120,
            Scale::Paper => 400,
        }
    }

    /// Protection levels for Figure 9.
    pub fn protection_levels(&self) -> Vec<f64> {
        vec![0.3, 0.5, 0.7]
    }
}
