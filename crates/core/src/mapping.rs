//! Sample-to-bytecode resolution.
//!
//! "First the collector thread extracts the samples that are of
//! importance for the VM. Addresses outside the VM address space ... are
//! dropped immediately ... The next step is to find the Java method where
//! the event happened ... Finally the system determines the exact
//! bytecode instruction for each sample." (Section 4.2)
//!
//! The resolver keeps its own registry of compiled artifacts (the
//! monitoring module's mirror of the compiler's data structures — the
//! paper keeps the IR alive after compilation for the same purpose).
//!
//! With a *bounded* code cache the VM frees and reuses code-address
//! ranges, so a PC alone no longer names an artifact: a sample buffered
//! before an eviction can surface after the range was reassigned. The
//! registry therefore holds only *live* artifacts, each stamped with its
//! install epoch, and [`SampleResolver::resolve`] takes the sample's
//! capture-time epoch: only a live artifact installed no later than the
//! stamp may claim the PC. Retiring an artifact frees its maps and keeps
//! just its `(start, end)` range until the next drain. A sample whose PC
//! lands in a live range it may not claim, or in a range retired since
//! the last drain, hit code that has since been freed (or pre-dates the
//! range's current tenant): it is [`ResolveFailure::Stale`], counted and
//! dropped, never misattributed. [`SampleResolver::forget_retired`]
//! drops the retired ranges once every sample captured before their
//! frees has been resolved.

use hpmopt_bytecode::MethodId;
use hpmopt_vm::{CompiledCode, Tier};

/// Why a sample could not be attributed to a bytecode instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResolveFailure {
    /// PC outside every live and recently retired code range (kernel,
    /// native libraries, or stale pre-registration code).
    ForeignPc,
    /// PC inside a method whose map has no entry there (opt-compiled code
    /// without the full-map extension).
    Unmapped,
    /// PC inside a known code range, but no live artifact installed at
    /// or before the sample's epoch stamp owns it: the code it hit was
    /// freed (evicted or replaced) before the sample was processed, or
    /// the sample pre-dates the range's current tenant. Attributing it
    /// would be wrong, so it is dropped.
    Stale,
}

/// A successfully resolved sample location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedPc {
    /// The containing method.
    pub method: MethodId,
    /// Tier of the artifact the PC belongs to.
    pub tier: Tier,
    /// Bytecode index within the method.
    pub bytecode_index: u32,
}

/// PC → bytecode resolver over a registry of compiled artifacts.
#[derive(Debug, Clone, Default)]
pub struct SampleResolver {
    /// Live artifacts sorted by code start (the paper's sorted method
    /// table).
    artifacts: Vec<CompiledCode>,
    /// `(start, end)` of the artifacts retired since the last
    /// [`SampleResolver::forget_retired`]: a late sample landing there is
    /// stale, not foreign.
    retired: Vec<(u64, u64)>,
}

impl SampleResolver {
    /// Create an empty resolver.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a (re)compiled artifact. With the unbounded cache ranges
    /// never overlap and stale artifacts of recompiled methods stay
    /// registered, exactly like the immortal code space; with a bounded
    /// cache the same span may be re-registered after
    /// [`SampleResolver::retire`] removed the previous tenant.
    pub fn register(&mut self, code: CompiledCode) {
        let pos = self
            .artifacts
            .partition_point(|c| c.code_start < code.code_start);
        self.artifacts.insert(pos, code);
    }

    /// Remove the live artifact starting at `code_start`: no sample
    /// resolves to it any more, and until the next
    /// [`SampleResolver::forget_retired`] a sample in its range is stale.
    /// Called from the code-retired hook.
    pub fn retire(&mut self, code_start: u64) {
        let pos = self
            .artifacts
            .partition_point(|c| c.code_start < code_start);
        if self
            .artifacts
            .get(pos)
            .is_some_and(|c| c.code_start == code_start)
        {
            let code = self.artifacts.remove(pos);
            self.retired.push((code.code_start, code.code_end()));
        }
    }

    /// Forget the ranges retired so far. Exact once every sample captured
    /// before their frees has been resolved: a sample captured later hit
    /// code that was live at capture time, so it lands in a live artifact
    /// or in a range retired after this call.
    pub fn forget_retired(&mut self) {
        self.retired.clear();
    }

    /// Resolve a sampled PC captured at code epoch `epoch`.
    ///
    /// # Errors
    ///
    /// [`ResolveFailure`] describing why the sample must be dropped.
    pub fn resolve(&self, pc: u64, epoch: u64) -> Result<ResolvedPc, ResolveFailure> {
        // Only artifacts starting at or before `pc` can contain it; the
        // common case (non-overlapping ranges) exits on the first
        // reverse-scan step.
        let hi = self.artifacts.partition_point(|c| c.code_start <= pc);
        let mut in_live_range = false;
        for code in self.artifacts[..hi].iter().rev() {
            if pc >= code.code_end() {
                continue;
            }
            // A live artifact claims the PC only if the sample was
            // captured after its install, so pre-free samples cannot leak
            // onto a range's new tenant.
            if code.install_epoch <= epoch {
                let bytecode_index = code.bytecode_at(pc).ok_or(ResolveFailure::Unmapped)?;
                return Ok(ResolvedPc {
                    method: code.method,
                    tier: code.tier,
                    bytecode_index,
                });
            }
            in_live_range = true;
        }
        // Retired artifacts never resolve: by the time a buffered sample
        // drains, the code it hit is gone and its counters may already be
        // torn down — dropping beats a late attribution.
        if in_live_range
            || self
                .retired
                .iter()
                .any(|&(start, end)| (start..end).contains(&pc))
        {
            Err(ResolveFailure::Stale)
        } else {
            Err(ResolveFailure::ForeignPc)
        }
    }

    /// Number of live artifacts.
    #[must_use]
    pub fn len(&self) -> usize {
        self.artifacts.len()
    }

    /// Whether no artifact is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.artifacts.is_empty()
    }

    /// Number of ranges retired since the last
    /// [`SampleResolver::forget_retired`].
    #[must_use]
    pub fn retired_len(&self) -> usize {
        self.retired.len()
    }

    /// Iterate over live artifacts (address order).
    pub fn artifacts(&self) -> impl Iterator<Item = &CompiledCode> {
        self.artifacts.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpmopt_bytecode::builder::{MethodBuilder, ProgramBuilder};
    use hpmopt_bytecode::{FieldType, Program};
    use hpmopt_vm::compiler::compile;

    fn program() -> Program {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", &[("f", FieldType::Ref)]);
        let f = pb.field_id(c, "f").unwrap();
        let mut m = MethodBuilder::new("main", 0, 1, false);
        m.new_object(c);
        m.store(0);
        m.load(0);
        m.get_field(f);
        m.pop();
        m.ret();
        let id = pb.add_method(m);
        pb.set_entry(id);
        pb.finish().unwrap()
    }

    #[test]
    fn resolves_pc_to_bytecode() {
        let p = program();
        let id = p.entry();
        let code = compile(&p, id, Tier::Opt, 0x4000_0000, true);
        let get_field_pc = code.mem_pc(3);
        let mut r = SampleResolver::new();
        r.register(code);
        let got = r.resolve(get_field_pc, 0).unwrap();
        assert_eq!(got.method, id);
        assert_eq!(got.bytecode_index, 3);
        assert_eq!(got.tier, Tier::Opt);
    }

    #[test]
    fn foreign_pcs_are_dropped() {
        let p = program();
        let code = compile(&p, p.entry(), Tier::Baseline, 0x4000_0000, true);
        let end = code.code_end();
        let mut r = SampleResolver::new();
        r.register(code);
        assert_eq!(r.resolve(0x1000, 0).unwrap_err(), ResolveFailure::ForeignPc);
        assert_eq!(r.resolve(end, 0).unwrap_err(), ResolveFailure::ForeignPc);
    }

    #[test]
    fn gc_point_only_maps_fail_between_points() {
        let p = program();
        let code = compile(&p, p.entry(), Tier::Opt, 0x4000_0000, false);
        let get_field_pc = code.mem_pc(3);
        let mut r = SampleResolver::new();
        r.register(code);
        assert_eq!(
            r.resolve(get_field_pc, 0).unwrap_err(),
            ResolveFailure::Unmapped
        );
    }

    #[test]
    fn empty_resolver_drops_everything_as_foreign() {
        let r = SampleResolver::new();
        assert!(r.is_empty());
        for pc in [0, 0x4000_0000, u64::MAX] {
            assert_eq!(r.resolve(pc, 0).unwrap_err(), ResolveFailure::ForeignPc);
        }
    }

    #[test]
    fn pc_in_gap_between_artifacts_is_foreign() {
        let p = program();
        let id = p.entry();
        let low = compile(&p, id, Tier::Baseline, 0x4000_0000, true);
        // Leave a hole between the artifacts; a PC inside it belongs to
        // neither (a stale or native code region).
        let gap_start = low.code_end();
        let high = compile(&p, id, Tier::Opt, gap_start + 0x1000, true);
        let gap_pc = gap_start + 0x800;
        let mut r = SampleResolver::new();
        r.register(low);
        r.register(high);
        assert_eq!(r.resolve(gap_pc, 0).unwrap_err(), ResolveFailure::ForeignPc);
        assert!(
            r.resolve(gap_start + 0x1000, 0).is_ok(),
            "gap end is mapped"
        );
    }

    #[test]
    fn overlapping_registration_resolves_deterministically() {
        // Two live artifacts over the same span (no retire between them)
        // must not panic or make resolution ambiguous: the same artifact
        // wins on every call.
        let p = program();
        let id = p.entry();
        let stale = compile(&p, id, Tier::Baseline, 0x4000_0000, true);
        let fresh = compile(&p, id, Tier::Opt, 0x4000_0000, true);
        let pc = fresh.mem_pc(3);
        let mut r = SampleResolver::new();
        r.register(stale);
        r.register(fresh);
        assert_eq!(r.len(), 2);
        let first = r.resolve(pc, 0).unwrap();
        for _ in 0..3 {
            assert_eq!(r.resolve(pc, 0).unwrap(), first, "stable across calls");
        }
        assert_eq!(first.method, id);
    }

    #[test]
    fn multiple_artifacts_resolve_independently() {
        let p = program();
        let id = p.entry();
        let base = compile(&p, id, Tier::Baseline, 0x4000_0000, true);
        let opt_start = base.code_end();
        let opt = compile(&p, id, Tier::Opt, opt_start, true);
        let base_pc = base.mem_pc(3);
        let opt_pc = opt.mem_pc(3);
        let mut r = SampleResolver::new();
        r.register(opt);
        r.register(base);
        assert_eq!(r.len(), 2);
        assert_eq!(r.resolve(base_pc, 0).unwrap().tier, Tier::Baseline);
        assert_eq!(r.resolve(opt_pc, 0).unwrap().tier, Tier::Opt);
    }

    #[test]
    fn retired_range_goes_stale_then_new_tenant_resolves() {
        // The attribution-across-code-churn contract: a late sample with
        // a pre-free epoch must NOT resolve to the range's new tenant —
        // it goes stale — while a post-free sample resolves to the new
        // tenant and never to the evicted artifact.
        let p = program();
        let id = p.entry();
        let evicted = compile(&p, id, Tier::Baseline, 0x4000_0000, true);
        let evicted_end = evicted.code_end();
        let pc = evicted.mem_pc(0);
        let mut r = SampleResolver::new();
        r.register(evicted);
        assert_eq!(r.resolve(pc, 0).unwrap().tier, Tier::Baseline);

        // The cache frees the range (epoch 0 → 1) and installs denser
        // opt code of the same method over it.
        r.retire(0x4000_0000);
        assert_eq!(r.len(), 0, "retired artifacts leave the registry");
        assert_eq!(r.retired_len(), 1);
        let mut tenant = compile(&p, id, Tier::Opt, 0x4000_0000, true);
        tenant.install_epoch = 1;
        let tenant_end = tenant.code_end();
        let tenant_pc = tenant.mem_pc(0);
        r.register(tenant);

        // Late sample, captured before the free: stale, not misattributed
        // to the new tenant even though its PC lies inside both ranges.
        assert_eq!(r.resolve(tenant_pc, 0).unwrap_err(), ResolveFailure::Stale);
        // Fresh sample: resolves to the new tenant.
        assert_eq!(r.resolve(tenant_pc, 1).unwrap().tier, Tier::Opt);
        // A PC past the (shorter) tenant but inside the retired baseline
        // artifact: known range, no live owner → stale at any epoch.
        assert!(tenant_end < evicted_end, "opt tenant must be denser");
        assert_eq!(
            r.resolve(evicted_end - 1, 5).unwrap_err(),
            ResolveFailure::Stale
        );

        // Once every pre-free sample has drained, the retired range is
        // forgotten: only the live tenant remains known.
        r.forget_retired();
        assert_eq!(r.retired_len(), 0);
        assert_eq!(
            r.resolve(evicted_end - 1, 5).unwrap_err(),
            ResolveFailure::ForeignPc
        );
        assert_eq!(r.resolve(tenant_pc, 1).unwrap().tier, Tier::Opt);
    }
}
