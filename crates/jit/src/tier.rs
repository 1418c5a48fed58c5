//! Execution-count-driven tier management.
//!
//! Replaces the old binary baseline/opt adaptive-optimization split
//! (Jikes RVM AOS, Section 3.2 of the paper) with a [`TierManager`]:
//!
//! - **Tier 1 (opt):** the VM samples the currently executing method on a
//!   timer; a method sampled [`JitConfig::tier1_threshold`] times is
//!   recompiled with the optimizing tier. This is arithmetic-for-
//!   arithmetic the legacy AOS behaviour, so with tier 2 disabled the
//!   tiered VM reproduces the old one bit-for-bit.
//! - **Tier 2 (region):** taken backward branches in opt-compiled methods
//!   tick every block in the branch's target→source span (the loop
//!   body); a target block crossing
//!   [`JitConfig::tier2_threshold`] promotes the method to *region*
//!   compilation over its hottest [`JitConfig::max_region_blocks`]
//!   blocks. Leaving the region deoptimizes back to baseline and bans the
//!   method from further tier-2 promotion (no deopt loops).
//!
//! For reproducible experiments a *pseudo-adaptive* [`CompilationPlan`]
//! pins the exact set of opt-compiled methods, as the paper's evaluation
//! does ("Each program runs with a pre-generated compilation plan",
//! Section 6.1).

use std::collections::HashMap;

use hpmopt_bytecode::MethodId;

/// Tiered-JIT configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JitConfig {
    /// Whether timer-based tier-1 recompilation is active.
    pub tier1_enabled: bool,
    /// Cycles between call-stack samples (1 ms at 3 GHz by default,
    /// matching Jikes' timer tick).
    pub sample_period_cycles: u64,
    /// Samples of one method that trigger tier-1 (opt) recompilation.
    pub tier1_threshold: u32,
    /// Whether back-edge-driven tier-2 (region) compilation is active.
    /// Off by default: region code deoptimizes, which the legacy
    /// baseline/opt pipeline never did.
    pub tier2_enabled: bool,
    /// Executions of one basic block (counted at taken backward branches
    /// in opt code) that trigger region compilation of its method.
    pub tier2_threshold: u64,
    /// Maximum number of basic blocks in a compiled region (the entry
    /// block is always included).
    pub max_region_blocks: usize,
    /// Code-cache capacity in bytes. `None` (the default) is the legacy
    /// unbounded immortal code space; `Some(n)` enables freeing, LRU
    /// eviction, and reuse of code-address ranges once live code exceeds
    /// `n` bytes.
    pub code_cache_capacity_bytes: Option<u64>,
}

impl Default for JitConfig {
    fn default() -> Self {
        JitConfig {
            tier1_enabled: true,
            sample_period_cycles: 3_000_000,
            tier1_threshold: 3,
            tier2_enabled: false,
            tier2_threshold: 1_000,
            max_region_blocks: 32,
            code_cache_capacity_bytes: None,
        }
    }
}

/// A pseudo-adaptive compilation plan: the set of methods to opt-compile
/// eagerly, bypassing timer-driven recompilation entirely.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompilationPlan {
    methods: Vec<MethodId>,
}

impl CompilationPlan {
    /// Create a plan from the methods to opt-compile.
    #[must_use]
    pub fn new(mut methods: Vec<MethodId>) -> Self {
        methods.sort_unstable();
        methods.dedup();
        CompilationPlan { methods }
    }

    /// The planned methods, sorted.
    #[must_use]
    pub fn methods(&self) -> &[MethodId] {
        &self.methods
    }

    /// Whether `m` is in the plan.
    #[must_use]
    pub fn contains(&self, m: MethodId) -> bool {
        self.methods.binary_search(&m).is_ok()
    }

    /// Number of planned methods.
    #[must_use]
    pub fn len(&self) -> usize {
        self.methods.len()
    }

    /// Whether the plan is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.methods.is_empty()
    }
}

/// Tier-promotion state: timer samples (tier 1) and back-edge block
/// counts (tier 2).
#[derive(Debug, Clone)]
pub struct TierManager {
    config: JitConfig,
    samples: HashMap<MethodId, u32>,
    next_sample_at: u64,
    opt_compiled: Vec<MethodId>,
    block_counts: HashMap<(MethodId, u32), u64>,
    region_compiled: Vec<MethodId>,
    tier2_banned: Vec<MethodId>,
}

impl TierManager {
    /// Create a tier manager with the given configuration.
    #[must_use]
    pub fn new(config: JitConfig) -> Self {
        TierManager {
            next_sample_at: config.sample_period_cycles,
            config,
            samples: HashMap::new(),
            opt_compiled: Vec::new(),
            block_counts: HashMap::new(),
            region_compiled: Vec::new(),
            tier2_banned: Vec::new(),
        }
    }

    /// The configuration this manager was built with.
    #[must_use]
    pub fn config(&self) -> &JitConfig {
        &self.config
    }

    /// Whether the tier-1 timer fires at `cycles` (the interpreter calls
    /// this on its slow path; cheap check first).
    #[must_use]
    pub fn should_sample(&self, cycles: u64) -> bool {
        self.config.tier1_enabled && cycles >= self.next_sample_at
    }

    /// The first clock value at which the tier-1 timer fires
    /// (`u64::MAX` when tier 1 is off): [`TierManager::should_sample`]
    /// holds from there until the next [`TierManager::sample`].
    #[must_use]
    pub fn timer_deadline(&self) -> u64 {
        if self.config.tier1_enabled {
            self.next_sample_at
        } else {
            u64::MAX
        }
    }

    /// Record a timer sample of the executing method; returns
    /// `Some(method)` when the method just crossed the tier-1
    /// recompilation threshold.
    pub fn sample(&mut self, method: MethodId, cycles: u64) -> Option<MethodId> {
        self.next_sample_at =
            cycles - (cycles % self.config.sample_period_cycles) + self.config.sample_period_cycles;
        if self.opt_compiled.contains(&method) {
            return None;
        }
        let n = self.samples.entry(method).or_insert(0);
        *n += 1;
        if *n >= self.config.tier1_threshold {
            self.opt_compiled.push(method);
            Some(method)
        } else {
            None
        }
    }

    /// Record a taken backward branch from `source_block` to
    /// `target_block` in an opt-compiled method. Every block in the
    /// `target..=source` span — the natural loop body, since block ids
    /// ascend with bytecode index — gets one execution tick, so the
    /// region later built from these counts covers the whole loop and
    /// not just the branch target. Returns `true` when the target block
    /// just crossed the tier-2 threshold and the method should be
    /// region-compiled.
    pub fn record_back_edge(
        &mut self,
        method: MethodId,
        target_block: u32,
        source_block: u32,
    ) -> bool {
        if !self.config.tier2_enabled
            || self.region_compiled.contains(&method)
            || self.tier2_banned.contains(&method)
        {
            return false;
        }
        for b in target_block..=source_block.max(target_block) {
            *self.block_counts.entry((method, b)).or_insert(0) += 1;
        }
        if self.block_counts[&(method, target_block)] >= self.config.tier2_threshold {
            self.region_compiled.push(method);
            true
        } else {
            false
        }
    }

    /// The hottest blocks of `method` by back-edge count — at most
    /// [`JitConfig::max_region_blocks`], always including the entry block
    /// 0, sorted ascending. This is the region the tier-2 compiler emits.
    #[must_use]
    pub fn hot_region(&self, method: MethodId) -> Vec<u32> {
        let mut blocks: Vec<(u32, u64)> = self
            .block_counts
            .iter()
            .filter(|&(&(m, _), _)| m == method)
            .map(|(&(_, b), &c)| (b, c))
            .collect();
        // Hottest first; ties broken by block id so the region is
        // deterministic regardless of hash-map iteration order.
        blocks.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let cap = self.config.max_region_blocks.max(1);
        let mut region: Vec<u32> = blocks.iter().map(|&(b, _)| b).take(cap).collect();
        if !region.contains(&0) {
            if region.len() >= cap {
                region.pop();
            }
            region.push(0);
        }
        region.sort_unstable();
        region
    }

    /// Deoptimize `method` back to baseline: it leaves both promoted
    /// sets, its tier-1 sample count resets (it can earn opt again), and
    /// it is banned from further tier-2 promotion so a region that keeps
    /// escaping cannot ping-pong.
    pub fn deopt(&mut self, method: MethodId) {
        self.opt_compiled.retain(|&m| m != method);
        self.region_compiled.retain(|&m| m != method);
        self.samples.remove(&method);
        self.block_counts.retain(|&(m, _), _| m != method);
        if !self.tier2_banned.contains(&method) {
            self.tier2_banned.push(method);
        }
    }

    /// Methods promoted to the optimizing tier so far, in promotion
    /// order. Running once and feeding the result to
    /// [`CompilationPlan::new`] produces the paper's pseudo-adaptive
    /// setup.
    #[must_use]
    pub fn opt_compiled(&self) -> &[MethodId] {
        &self.opt_compiled
    }

    /// Methods promoted to region compilation so far, in promotion order.
    #[must_use]
    pub fn region_compiled(&self) -> &[MethodId] {
        &self.region_compiled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tier1_config(period: u64, threshold: u32) -> JitConfig {
        JitConfig {
            sample_period_cycles: period,
            tier1_threshold: threshold,
            ..JitConfig::default()
        }
    }

    #[test]
    fn threshold_triggers_recompilation_once() {
        let mut tiers = TierManager::new(tier1_config(100, 2));
        let m = MethodId(5);
        assert!(tiers.should_sample(100));
        assert_eq!(tiers.sample(m, 100), None);
        assert!(!tiers.should_sample(150), "next tick at 200");
        assert_eq!(tiers.sample(m, 200), Some(m));
        assert_eq!(tiers.sample(m, 300), None, "already opt-compiled");
        assert_eq!(tiers.opt_compiled(), &[m]);
    }

    #[test]
    fn disabled_tier1_never_samples() {
        let tiers = TierManager::new(JitConfig {
            tier1_enabled: false,
            ..JitConfig::default()
        });
        assert!(!tiers.should_sample(u64::MAX));
        assert_eq!(tiers.timer_deadline(), u64::MAX);
    }

    #[test]
    fn timer_deadline_is_the_first_sampling_clock() {
        let mut tiers = TierManager::new(tier1_config(100, 5));
        assert_eq!(tiers.timer_deadline(), 100);
        assert!(!tiers.should_sample(99));
        assert!(tiers.should_sample(100));
        // A late tick moves the timer to the next period boundary.
        tiers.sample(MethodId(0), 250);
        assert_eq!(tiers.timer_deadline(), 300);
        assert!(!tiers.should_sample(299));
        assert!(tiers.should_sample(300));
    }

    #[test]
    fn plan_membership() {
        let plan = CompilationPlan::new(vec![MethodId(3), MethodId(1), MethodId(3)]);
        assert_eq!(plan.len(), 2, "deduplicated");
        assert!(plan.contains(MethodId(1)));
        assert!(plan.contains(MethodId(3)));
        assert!(!plan.contains(MethodId(2)));
        assert!(!plan.is_empty());
    }

    #[test]
    fn different_methods_tracked_independently() {
        let mut tiers = TierManager::new(tier1_config(10, 2));
        assert_eq!(tiers.sample(MethodId(0), 10), None);
        assert_eq!(tiers.sample(MethodId(1), 20), None);
        assert_eq!(tiers.sample(MethodId(0), 30), Some(MethodId(0)));
        assert_eq!(tiers.sample(MethodId(1), 40), Some(MethodId(1)));
    }

    #[test]
    fn back_edges_promote_to_region_once() {
        let mut tiers = TierManager::new(JitConfig {
            tier2_enabled: true,
            tier2_threshold: 3,
            ..JitConfig::default()
        });
        let m = MethodId(7);
        assert!(!tiers.record_back_edge(m, 2, 4));
        assert!(!tiers.record_back_edge(m, 2, 4));
        assert!(
            tiers.record_back_edge(m, 2, 4),
            "third hit crosses threshold"
        );
        assert_eq!(tiers.region_compiled(), &[m]);
        assert!(
            !tiers.record_back_edge(m, 2, 4),
            "already region-compiled, no re-promotion"
        );
    }

    #[test]
    fn back_edge_span_counts_the_whole_loop_body() {
        let mut tiers = TierManager::new(JitConfig {
            tier2_enabled: true,
            tier2_threshold: 2,
            ..JitConfig::default()
        });
        let m = MethodId(3);
        assert!(!tiers.record_back_edge(m, 1, 3));
        assert!(tiers.record_back_edge(m, 1, 3));
        // Blocks 1..=3 all got ticks, so the region covers the loop body,
        // not just the branch target.
        assert_eq!(tiers.hot_region(m), vec![0, 1, 2, 3]);
    }

    #[test]
    fn tier2_disabled_counts_nothing() {
        let mut tiers = TierManager::new(JitConfig {
            tier2_enabled: false,
            tier2_threshold: 1,
            ..JitConfig::default()
        });
        assert!(!tiers.record_back_edge(MethodId(0), 0, 1));
        assert!(tiers.region_compiled().is_empty());
    }

    #[test]
    fn hot_region_keeps_entry_block_and_caps_size() {
        let mut tiers = TierManager::new(JitConfig {
            tier2_enabled: true,
            tier2_threshold: 100,
            max_region_blocks: 2,
            ..JitConfig::default()
        });
        let m = MethodId(1);
        for _ in 0..5 {
            tiers.record_back_edge(m, 3, 3);
        }
        for _ in 0..4 {
            tiers.record_back_edge(m, 4, 4);
        }
        // Entry block 0 was never a branch target but must be in the
        // region; the colder of the two counted blocks is dropped.
        assert_eq!(tiers.hot_region(m), vec![0, 3]);
    }

    #[test]
    fn deopt_resets_and_bans_tier2() {
        let mut tiers = TierManager::new(JitConfig {
            sample_period_cycles: 10,
            tier1_threshold: 1,
            tier2_enabled: true,
            tier2_threshold: 1,
            ..JitConfig::default()
        });
        let m = MethodId(9);
        assert_eq!(tiers.sample(m, 10), Some(m));
        assert!(tiers.record_back_edge(m, 1, 1));
        tiers.deopt(m);
        assert!(tiers.opt_compiled().is_empty());
        assert!(tiers.region_compiled().is_empty());
        assert!(
            !tiers.record_back_edge(m, 1, 1),
            "deopted method is banned from tier 2"
        );
        assert_eq!(tiers.sample(m, 20), Some(m), "tier 1 can re-promote");
    }
}
