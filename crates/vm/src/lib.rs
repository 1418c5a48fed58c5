//! Bytecode execution engine with compilation tiers, machine-code maps,
//! and an adaptive optimization system.
//!
//! This crate stands in for the Jikes RVM of the paper (Section 3.2):
//!
//! - Every method is "compiled" on first invocation by a **baseline**
//!   compiler; the tier manager ([`hpmopt_jit::TierManager`]) samples the
//!   running method on a timer and **recompiles** hot methods with the
//!   **optimizing** tier, and (when enabled) promotes methods with hot
//!   back edges to **region** compilation with deoptimization back to
//!   baseline. A *pseudo-adaptive* compilation plan can pin the set of
//!   opt-compiled methods for reproducible experiments, exactly as the
//!   paper's evaluation does (Section 6.1).
//! - Compilation artifacts occupy concrete addresses handed out by the
//!   [`hpmopt_jit::CodeCache`] (an unbounded immortal space by default; a
//!   capacity-bounded, evicting, address-reusing cache when configured).
//!   The VM announces each install and each freed range to its
//!   [`hooks::RuntimeHooks`], whose sample resolver keeps the sorted
//!   method table that maps a sampled program counter back to a method.
//! - Each artifact carries **machine-code maps** ([`McMap`])
//!   translating machine addresses to bytecode indices. Baseline code
//!   always has full maps; opt code has GC-point-only maps unless the
//!   paper's extension (map *every* instruction, Section 4.2) is enabled —
//!   its space cost is what Table 2 measures.
//! - The interpreter executes bytecode while *accounting cycles as the
//!   compiled code would*: per-opcode machine-instruction counts by tier,
//!   plus real memory latency from `hpmopt-memsim` for every heap access.
//!   Heap accesses are reported to [`hooks::RuntimeHooks`] with their
//!   machine PC — the feed for the PEBS sampling unit.
//!
//! # Example
//!
//! ```
//! use hpmopt_bytecode::builder::{MethodBuilder, ProgramBuilder};
//! use hpmopt_vm::{NoHooks, Vm, VmConfig};
//!
//! let mut pb = ProgramBuilder::new();
//! let mut m = MethodBuilder::new("main", 0, 1, false);
//! m.const_i(2);
//! m.const_i(3);
//! m.add();
//! m.store(0);
//! m.ret();
//! let id = pb.add_method(m);
//! pb.set_entry(id);
//! let program = pb.finish()?;
//!
//! let mut vm = Vm::new(&program, VmConfig::default());
//! let summary = vm.run(&mut NoHooks).unwrap();
//! assert!(summary.cycles > 0);
//! assert_eq!(summary.bytecodes_executed, 5);
//! # Ok::<(), hpmopt_bytecode::VerifyError>(())
//! ```

pub mod compiler;
pub mod config;
pub mod digest;
pub mod hooks;
pub mod interp;
mod predecode;
pub mod value;

pub use compiler::compile;
pub use config::{CancelToken, VmConfig};
pub use hooks::{AccessContext, NoHooks, RuntimeHooks};
pub use hpmopt_jit::code::{CompiledCode, McMap, Tier};
pub use hpmopt_jit::{CompilationPlan, FreedRange, JitConfig, TierManager};
pub use interp::{RunSummary, Vm};
pub use value::{Value, VmError};

/// Base virtual address of the immortal code space. Distinct from the
/// heap and static regions so a sampled PC is unambiguous.
pub const CODE_BASE: u64 = 0x4000_0000;

/// Base virtual address of the static-variable table (the JTOC).
pub const STATICS_BASE: u64 = 0x3000_0000;

pub use hpmopt_jit::MACH_INSTR_BYTES;
