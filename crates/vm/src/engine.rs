//! The execution-engine seam: one handle ([`Engine`]) that campaign
//! and CLI code drive without caring whether trials run on the
//! tree-walking interpreter ([`crate::Vm`]) or the compiled
//! threaded-bytecode backend ([`CompiledVm`]).
//!
//! Every command runs on the compiled engine, snapshot capture
//! included. The interpreter is the semantic reference that the
//! differential suites and the perfbench gate compare it against: the
//! two engines are observably bit-identical (see the engine-equivalence
//! contract in DESIGN.md and `crates/vm/tests/engine_differential.rs`),
//! down to the [`VmSnapshot`]s and [`ReadSets`] a capture produces.
//! Snapshots are engine-independent data: either engine resumes what
//! either captured. The seam carries no [`crate::ExecHook`]: a run that
//! needs one builds a [`Vm`] and calls [`Vm::run_with_hook`] or
//! [`Vm::resume_from_with_hook`].

use crate::compiled::CompiledVm;
use crate::exec::{ExecLimits, Injection, RunOutput, Vm};
use crate::image::ResumeScratch;
use crate::lower::CompiledModule;
use crate::snapshot::{ConvergeMasks, ReadSets, TrialResume, VmSnapshot};
use peppa_ir::Module;

/// Which execution backend to run trials on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// The tree-walking interpreter in `exec.rs` — the semantic
    /// reference.
    Interp,
    /// The register-allocated threaded-bytecode backend in
    /// `compiled.rs`, lowered once per module by
    /// [`CompiledModule::lower`].
    Compiled,
}

impl EngineKind {
    pub fn as_str(self) -> &'static str {
        match self {
            EngineKind::Interp => "interp",
            EngineKind::Compiled => "compiled",
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An execution engine bound to one module. Construct once per worker
/// (cheap: two references and a limits struct); the expensive
/// [`CompiledModule`] lowering is done once per campaign and shared.
pub struct Engine<'m> {
    module: &'m Module,
    limits: ExecLimits,
    compiled: Option<&'m CompiledModule>,
}

impl<'m> Engine<'m> {
    /// An engine running on the interpreter.
    pub fn interp(module: &'m Module, limits: ExecLimits) -> Engine<'m> {
        Engine {
            module,
            limits,
            compiled: None,
        }
    }

    /// An engine running on the compiled backend. `code` must be
    /// [`CompiledModule::lower`]'s output for this `module`.
    pub fn compiled(
        module: &'m Module,
        code: &'m CompiledModule,
        limits: ExecLimits,
    ) -> Engine<'m> {
        Engine {
            module,
            limits,
            compiled: Some(code),
        }
    }

    /// Dispatch on an optional pre-lowered module: `Some` selects the
    /// compiled backend, `None` the interpreter. This is the shape
    /// campaign runners use — they lower once (or not at all) up
    /// front and build per-worker engines from the shared reference.
    pub fn new(
        module: &'m Module,
        limits: ExecLimits,
        code: Option<&'m CompiledModule>,
    ) -> Engine<'m> {
        Engine {
            module,
            limits,
            compiled: code,
        }
    }

    pub fn kind(&self) -> EngineKind {
        match self.compiled {
            Some(_) => EngineKind::Compiled,
            None => EngineKind::Interp,
        }
    }

    fn vm(&self) -> Vm<'m> {
        Vm::new(self.module, self.limits)
    }

    fn cvm(&self) -> Option<CompiledVm<'m>> {
        self.compiled
            .map(|code| CompiledVm::new(self.module, code, self.limits))
    }

    pub fn run(&self, input_bits: &[u64], injection: Option<Injection>) -> RunOutput {
        match self.cvm() {
            Some(c) => c.run(input_bits, injection),
            None => self.vm().run(input_bits, injection),
        }
    }

    pub fn run_numeric(&self, inputs: &[f64], injection: Option<Injection>) -> RunOutput {
        match self.cvm() {
            Some(c) => c.run_numeric(inputs, injection),
            None => self.vm().run_numeric(inputs, injection),
        }
    }

    /// Full trial run that reuses `scratch`'s memory buffer (one per
    /// worker thread) on the compiled backend, so a trial allocates
    /// nothing once the buffer has grown to what trials touch. The
    /// interpreter path is [`Engine::run_numeric`] and leaves the
    /// scratch unused; the engines stay observably bit-identical either
    /// way.
    pub fn run_numeric_amortized(
        &self,
        scratch: &mut ResumeScratch,
        inputs: &[f64],
        injection: Option<Injection>,
    ) -> RunOutput {
        match self.cvm() {
            Some(c) => {
                let bits = crate::inputs::encode_inputs(self.module.entry_func(), inputs);
                c.run_amortized(scratch, &bits, injection)
            }
            None => self.vm().run_numeric(inputs, injection),
        }
    }

    /// Fault-free run that captures a [`VmSnapshot`] at each fork point
    /// in `points` (see [`Vm::run_with_snapshots`]).
    pub fn run_with_snapshots(
        &self,
        input_bits: &[u64],
        points: &[u64],
    ) -> (RunOutput, Vec<VmSnapshot>) {
        match self.cvm() {
            Some(c) => c.run_with_snapshots(input_bits, points),
            None => self.vm().run_with_snapshots(input_bits, points),
        }
    }

    /// [`run_with_snapshots`](Self::run_with_snapshots) that also derives
    /// each checkpoint's future read set (see
    /// [`Vm::run_with_snapshots_read_sets`]).
    pub fn run_with_snapshots_read_sets(
        &self,
        input_bits: &[u64],
        points: &[u64],
    ) -> (RunOutput, Vec<VmSnapshot>, ReadSets) {
        match self.cvm() {
            Some(c) => c.run_with_snapshots_read_sets(input_bits, points),
            None => self.vm().run_with_snapshots_read_sets(input_bits, points),
        }
    }

    /// Resumes one trial with convergence exits (see
    /// [`Vm::resume_trial`]). On the compiled backend the memory buffer
    /// is reused across trials via `scratch`, as in
    /// [`Engine::run_numeric_amortized`]; the interpreter leaves it
    /// unused.
    #[allow(clippy::too_many_arguments)]
    pub fn resume_trial_amortized(
        &self,
        scratch: &mut ResumeScratch,
        snap: &VmSnapshot,
        injection: Option<Injection>,
        checkpoints: &[VmSnapshot],
        masks: Option<&ConvergeMasks>,
        read_sets: Option<&ReadSets>,
    ) -> TrialResume {
        match self.cvm() {
            Some(c) => {
                c.resume_trial_amortized(scratch, snap, injection, checkpoints, masks, read_sets)
            }
            None => self
                .vm()
                .resume_trial(snap, injection, checkpoints, masks, read_sets),
        }
    }
}
