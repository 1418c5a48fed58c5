//! VM configuration.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hpmopt_gc::HeapConfig;
use hpmopt_memsim::MemConfig;

use hpmopt_jit::{CompilationPlan, JitConfig};

/// Shared cancellation flag for a running VM. Clone-cheap (an `Arc`
/// internally); any holder can request cancellation and the VM notices
/// at the next poll boundary, failing the run with
/// [`crate::VmError::Cancelled`]. The service layer hands one to each
/// job so an operator (or a tenant cap) can stop a runaway execution
/// without touching any other tenant's VM.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation; idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Complete configuration of a [`crate::Vm`].
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Heap sizing and collector choice.
    pub heap: HeapConfig,
    /// Memory-hierarchy geometry and latencies.
    pub mem: MemConfig,
    /// Tiered-JIT settings: tier-1 (opt) timer sampling, tier-2 (region)
    /// back-edge promotion, and the code-cache capacity.
    pub jit: JitConfig,
    /// Pseudo-adaptive compilation plan; when set, the listed methods are
    /// opt-compiled at first invocation and timer recompilation is
    /// disabled (the paper's reproducibility device).
    pub plan: Option<CompilationPlan>,
    /// Apply the paper's compiler extension: opt-tier machine-code maps
    /// cover every instruction (not just GC points).
    pub full_mcmaps: bool,
    /// Abort after this many bytecodes (guard for tests); `None` = run to
    /// completion.
    pub step_limit: Option<u64>,
    /// Abort once the simulated clock reaches this many cycles, failing
    /// the run with [`crate::VmError::CycleBudget`]. This is the
    /// per-job resource cap of the service layer: a tenant's job that
    /// exhausts its budget is killed deterministically (the budget is in
    /// simulated cycles, so the kill point is identical across reruns
    /// and worker counts). `None` = unlimited.
    pub cycle_budget: Option<u64>,
    /// Cooperative cancellation flag, checked at poll boundaries (every
    /// few thousand bytecodes). `None` = not cancellable.
    pub cancel: Option<CancelToken>,
    /// Cycles charged per bytecode when the baseline compiler installs a
    /// method. Zero (the default) models compilation as free, which is
    /// the seed behaviour; the report harness sets both costs so the
    /// overhead accountant can carve out a recompilation bucket.
    pub baseline_compile_cycles_per_bc: u64,
    /// Cycles charged per bytecode for an optimizing (tier-up)
    /// compilation. Zero by default; see
    /// [`VmConfig::baseline_compile_cycles_per_bc`].
    pub opt_compile_cycles_per_bc: u64,
    /// Enable monomorphic inline caches at `GetField`/`PutField`/`Call`
    /// sites: a site whose receiver class (or callee artifact) matches
    /// the cached key retires the fast-path machine-instruction count
    /// (see [`crate::compiler::ic_hit_count`]). Purely a cost-model
    /// lever — program semantics and state digests are identical with
    /// caches on or off, which the stress oracles assert.
    pub inline_caches: bool,
    /// Run [`hpmopt_gc::Heap::verify`] over the live object graph after
    /// every collection, failing the run with
    /// [`crate::VmError::HeapCorrupt`] at the collection that caused the
    /// damage. Off by default (it walks the whole live heap); the stress
    /// engine and the tier-1 pipeline tests enable it.
    pub verify_heap_every_gc: bool,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            heap: HeapConfig::standard(),
            mem: MemConfig::pentium4(),
            jit: JitConfig::default(),
            plan: None,
            full_mcmaps: true,
            step_limit: None,
            cycle_budget: None,
            cancel: None,
            baseline_compile_cycles_per_bc: 0,
            opt_compile_cycles_per_bc: 0,
            inline_caches: true,
            verify_heap_every_gc: false,
        }
    }
}

impl VmConfig {
    /// A small configuration for unit tests: tiny heap, tier-1 sampling
    /// enabled with a short timer so tier transitions are observable
    /// quickly.
    #[must_use]
    pub fn test() -> Self {
        VmConfig {
            heap: HeapConfig::small(),
            mem: MemConfig::pentium4(),
            jit: JitConfig {
                sample_period_cycles: 50_000,
                tier1_threshold: 2,
                ..JitConfig::default()
            },
            plan: None,
            full_mcmaps: true,
            step_limit: Some(50_000_000),
            cycle_budget: None,
            cancel: None,
            baseline_compile_cycles_per_bc: 0,
            opt_compile_cycles_per_bc: 0,
            inline_caches: true,
            verify_heap_every_gc: false,
        }
    }
}
