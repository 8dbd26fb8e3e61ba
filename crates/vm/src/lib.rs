//! The PIR virtual machine.
//!
//! This crate plays the role the native CPU plays in the paper's
//! experiments: it executes benchmark programs, records the dynamic
//! execution profile (the `N_i` counts of Eq. 2), detects crashes and
//! hangs, and — when asked — flips a single bit in the return value of one
//! dynamic instruction, exactly LLFI's fault model (§3.1.3: "inject single
//! bit flips into a random instruction's return value").
//!
//! Observable behaviour of a run:
//! * the **output stream** (words appended by `output` instructions) —
//!   compared against a golden run to detect SDCs;
//! * the **status** — clean exit, trap (crash), or budget exhaustion
//!   (hang);
//! * the **profile** — per-static-instruction execution counts, total
//!   dynamic instructions, and the count of value-producing dynamic
//!   instructions (the fault-site population).

//!
//! Two execution engines sit behind the same observables: the
//! compiled threaded-bytecode backend ([`CompiledVm`], 3.35–5.21× the
//! interpreter's instructions per second on the 7 benchmarks' golden
//! runs, as the `golden_speed` example measures it), which every
//! command runs on, and the tree-walking interpreter
//! ([`Vm`]), the semantic reference the differential suites compare it
//! against bit for bit. [`Engine`] is the seam campaigns run through;
//! [`CompiledModule::lower`] is the one-time translation. Instrumented
//! runs, an [`ExecHook`] observing each instruction, run only on the
//! interpreter ([`Vm::run_with_hook`]); the compiled engine carries no
//! hook.

pub mod compiled;
pub mod engine;
pub mod exec;
pub mod hooks;
mod image;
pub mod inputs;
pub mod lower;
pub mod profile;
pub mod snapshot;
pub mod taint;

pub use compiled::CompiledVm;
pub use engine::{Engine, EngineKind};
pub use exec::{
    canon, exec_bin_checked, exec_cast, exec_fcmp, exec_icmp, exec_un, ExecLimits, Injection,
    InjectionTarget, RunOutput, RunStatus, Trap, Vm,
};
pub use hooks::{ExecHook, NoHook};
pub use image::ResumeScratch;
pub use inputs::encode_inputs;
pub use lower::CompiledModule;
pub use profile::Profile;
pub use snapshot::{ConvergeMasks, ReadSets, TrialResume, VmSnapshot};
pub use taint::{SinkHit, SinkKind, TaintHook, TaintReport};
