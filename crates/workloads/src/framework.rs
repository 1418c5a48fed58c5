//! Shared workload infrastructure: sizing, metadata, and builder helpers.

use hpmopt_bytecode::Program;

/// Input-size scaling, in the spirit of SPEC's `s=1/10/100` settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Size {
    /// Smallest data sets: unit tests and smoke runs.
    Tiny,
    /// Default experiment size (what the `experiments` binary uses).
    #[default]
    Small,
    /// Largest practical size, for long experiment runs.
    Full,
}

impl Size {
    /// A scale factor the builders multiply their iteration counts by.
    #[must_use]
    pub fn factor(self) -> i64 {
        match self {
            Size::Tiny => 1,
            Size::Small => 4,
            Size::Full => 10,
        }
    }
}

impl std::fmt::Display for Size {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Size::Tiny => f.write_str("tiny"),
            Size::Small => f.write_str("small"),
            Size::Full => f.write_str("full"),
        }
    }
}

/// Which benchmark suite a program models (Table 1 groups).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPECjvm98 (largest workload, s=100, repeated 3 times in the paper).
    SpecJvm98,
    /// DaCapo (version 10-2006 MR-2 in the paper).
    DaCapo,
    /// SPEC JBB2000 with a fixed number of transactions.
    PseudoJbb,
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Suite::SpecJvm98 => f.write_str("SPECjvm98"),
            Suite::DaCapo => f.write_str("DaCapo"),
            Suite::PseudoJbb => f.write_str("SPEC JBB2000"),
        }
    }
}

/// One benchmark: a program plus the metadata the experiments need.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Table 1 name.
    pub name: &'static str,
    /// Originating suite.
    pub suite: Suite,
    /// What the program models (shown by `experiments table1`).
    pub description: &'static str,
    /// The executable program.
    pub program: Program,
    /// Approximate minimum mature-heap size — the evaluation's "1×" heap.
    pub min_heap_bytes: u64,
    /// The field whose misses dominate, if the workload has one (the
    /// Figure 7 watch target for `db` is `String::value`).
    pub hot_field: Option<(&'static str, &'static str)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_factors_increase() {
        assert!(Size::Tiny.factor() < Size::Small.factor());
        assert!(Size::Small.factor() < Size::Full.factor());
    }

    #[test]
    fn display_strings() {
        assert_eq!(Size::Small.to_string(), "small");
        assert_eq!(Suite::DaCapo.to_string(), "DaCapo");
    }
}
