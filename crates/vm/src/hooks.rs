//! The runtime-hooks interface between the VM and the monitoring /
//! optimization infrastructure.
//!
//! The paper's system is a *collaboration* of VM, hardware-monitoring
//! module, and GC. This trait is the seam: `hpmopt-core` implements it to
//! (a) feed every heap access's events to the PEBS unit, (b) run the
//! collector-thread polling on the simulated clock, (c) supply the GC's
//! co-allocation policy, and (d) analyze newly compiled methods and
//! retire freed code ranges. The VM itself stays ignorant of what the
//! hooks do — mirroring the paper's goal of "small or no changes to the
//! core VM code". The VM hands over what it owns as it holds it: a
//! compile's charge and clock, the code cache's own [`FreedRange`] and
//! the collector's cumulative [`GcStats`], so no hook restates the VM's
//! cost model or copies its records.

use hpmopt_bytecode::{MethodId, Program};
use hpmopt_gc::policy::{CoallocPolicy, NoCoalloc};
use hpmopt_gc::{Address, GcStats};
use hpmopt_memsim::AccessOutcome;

use crate::{CompiledCode, FreedRange, Tier};

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
    /// instructions-of-interest analysis. `cost` is what the install
    /// charged the clock for the compile (the tier's per-bytecode cost
    /// times the method's length; 0 with the default free compiles),
    /// and `cycles` is the clock after that charge.
    fn on_compile(&mut self, program: &Program, code: &CompiledCode, cost: u64, cycles: u64) {
        let _ = (program, code, cost, cycles);
    }

    /// A compiled artifact's range went back to the code cache: its
    /// method was recompiled or deoptimized, or the range was evicted
    /// for capacity (`freed.evicted`). The monitoring module moves its
    /// samples to the epoch after the free and retires the range from
    /// sample attribution, so a late sample carrying a PC from inside it
    /// resolves *stale*, never to whatever is installed there next.
    /// `cache_bytes` is the cache's live bytes when the install that
    /// freed the range reports it: right after the free of the method's
    /// own previous code, or after the new code is placed when the range
    /// was evicted to make room. Never called with the default unbounded
    /// cache.
    fn on_code_retired(&mut self, freed: &FreedRange, cache_bytes: u64, cycles: u64) {
        let _ = (freed, cache_bytes, cycles);
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
