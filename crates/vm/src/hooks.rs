//! The runtime-hooks interface between the VM and the monitoring /
//! optimization infrastructure.
//!
//! The paper's system is a *collaboration* of VM, hardware-monitoring
//! module, and GC. This trait is the seam: `hpmopt-core` implements it to
//! (a) feed every heap access's events to the PEBS unit, (b) run the
//! collector-thread polling on the simulated clock, (c) supply the GC's
//! co-allocation policy, and (d) analyze newly compiled methods. The VM
//! itself stays ignorant of what the hooks do — mirroring the paper's
//! goal of "small or no changes to the core VM code".

use hpmopt_bytecode::{MethodId, Program};
use hpmopt_gc::policy::{CoallocPolicy, NoCoalloc};
use hpmopt_gc::{Address, GcStats};
use hpmopt_memsim::AccessOutcome;

use crate::{CompiledCode, Tier};

/// Context of one heap data access, as the sampling hardware would see it.
#[derive(Debug, Clone, Copy)]
pub struct AccessContext {
    /// Machine PC of the memory instruction.
    pub pc: u64,
    /// Data address accessed.
    pub addr: Address,
    /// Cache/TLB events the access raised.
    pub outcome: AccessOutcome,
    /// Simulated cycle time after the access.
    pub cycles: u64,
    /// Method executing the access.
    pub method: MethodId,
    /// Bytecode index of the access.
    pub bytecode_index: u32,
}

/// A compiled artifact's address range was returned to the code cache
/// (the method was recompiled, deoptimized, or evicted for capacity).
/// The monitoring module must retire the range from sample attribution:
/// any in-flight sample stamped with an earlier code epoch may carry a
/// PC from inside it.
#[derive(Debug, Clone, Copy)]
pub struct CodeRetired {
    /// Method whose code occupied the range.
    pub method: MethodId,
    /// Tier of the retired artifact.
    pub tier: Tier,
    /// First retired code address.
    pub code_start: u64,
    /// One past the last retired code address.
    pub code_end: u64,
    /// Code epoch after the free; samples captured before it must not be
    /// attributed to whatever occupies the range next.
    pub epoch: u64,
    /// True when the range was evicted for capacity (vs freed because the
    /// method was recompiled or deoptimized).
    pub evicted: bool,
    /// Live code-cache bytes after the free.
    pub cache_bytes: u64,
}

/// Callbacks the VM invokes while executing.
///
/// All methods have no-op defaults; implementations override what they
/// need. Methods returning cycles report *monitoring overhead* that the
/// VM adds to the global clock — this is how sampling cost shows up in
/// execution time (Figure 2).
pub trait RuntimeHooks {
    /// The VM is about to execute its first bytecode. The monitoring
    /// module seeds warm-start state here (prior-run profile data), so
    /// optimization decisions can be in place before the first sample
    /// arrives.
    fn on_startup(&mut self, program: &Program, cycles: u64) {
        let _ = (program, cycles);
    }

    /// A heap data access completed. Returns overhead cycles (e.g. the
    /// PEBS microcode cost when the access was sampled).
    fn on_access(&mut self, ctx: &AccessContext) -> u64 {
        let _ = ctx;
        0
    }

    /// Called periodically (every few thousand instructions) with the
    /// current clock; the collector-thread model polls here. Returns
    /// overhead cycles (sample-buffer draining, map lookups, batch
    /// processing).
    fn on_poll(&mut self, program: &Program, cycles: u64) -> u64 {
        let _ = (program, cycles);
        0
    }

    /// A method was (re)compiled. The monitoring module registers the
    /// artifact's code range and, for opt-tier code, runs the
    /// instructions-of-interest analysis.
    fn on_compile(&mut self, program: &Program, code: &CompiledCode) {
        let _ = (program, code);
    }

    /// A compiled artifact's range was freed or evicted. The monitoring
    /// module bumps its notion of the code epoch and retires the range
    /// from sample attribution (late samples become *stale*, never
    /// misattributed). Never called with the default unbounded cache.
    fn on_code_retired(&mut self, ev: &CodeRetired, cycles: u64) {
        let _ = (ev, cycles);
    }

    /// A region-compiled method left its region and deoptimized back to
    /// baseline (the baseline reinstall arrives via
    /// [`RuntimeHooks::on_compile`] immediately after).
    fn on_deopt(&mut self, method: MethodId, from_tier: Tier, cycles: u64) {
        let _ = (method, from_tier, cycles);
    }

    /// A collection finished (with cumulative stats).
    fn on_gc(&mut self, stats: &GcStats, cycles: u64) {
        let _ = (stats, cycles);
    }

    /// The program finished: drain any buffered samples so the final
    /// report sees everything. Returns overhead cycles like `on_poll`.
    fn on_exit(&mut self, program: &Program, cycles: u64) -> u64 {
        let _ = (program, cycles);
        0
    }

    /// The co-allocation policy the collector consults when promoting.
    fn coalloc_policy(&self) -> &dyn CoallocPolicy {
        &NoCoalloc
    }
}

/// Hooks that do nothing: the unmonitored baseline configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoHooks;

impl RuntimeHooks for NoHooks {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_hooks_charges_zero_overhead() {
        let mut h = NoHooks;
        let ctx = AccessContext {
            pc: 0x4000_0000,
            addr: Address(0x1000_0000),
            outcome: AccessOutcome::default(),
            cycles: 10,
            method: MethodId(0),
            bytecode_index: 0,
        };
        assert_eq!(h.on_access(&ctx), 0);
        assert!(h
            .coalloc_policy()
            .coalloc_child(hpmopt_bytecode::ClassId(0))
            .is_none());
    }
}
