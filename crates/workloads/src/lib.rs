//! The benchmark programs of the paper's evaluation (Table 1), rebuilt
//! as synthetic hpmopt-bytecode programs.
//!
//! Each module reproduces the *memory behaviour* the paper attributes to
//! one benchmark — the property that determines how that program responds
//! to HPM-guided co-allocation:
//!
//! | Program | Suite | Behaviour modelled |
//! |---|---|---|
//! | [`compress`] | SPECjvm98 | large LOS buffers, no co-allocation candidates |
//! | [`jess`] | SPECjvm98 | rule network of small linked nodes |
//! | [`db`] | SPECjvm98 | String→char[] pointer chasing; the paper's showcase |
//! | [`javac`] | SPECjvm98 | AST build/walk, many classes, little reuse |
//! | [`mpegaudio`] | SPECjvm98 | streaming DSP over large arrays, few allocations |
//! | [`mtrt`] | SPECjvm98 | ray tracing, short-lived young objects |
//! | [`jack`] | SPECjvm98 | parser: token stream, string building |
//! | [`pseudojbb`] | SPEC JBB2000 | order processing; co-allocated children larger than a cache line |
//! | [`antlr`] | DaCapo | grammar graph traversal |
//! | [`bloat`] | DaCapo | instruction/operand chains |
//! | [`fop`] | DaCapo | tiny heap, smallest code footprint |
//! | [`hsqldb`] | DaCapo | row→value-array database pages |
//! | [`jython`] | DaCapo | very large code footprint (many methods) |
//! | [`luindex`] | DaCapo | document→posting chains (index build) |
//! | [`lusearch`] | DaCapo | read-heavy search over an index |
//! | [`pmd`] | DaCapo | AST nodes with child arrays |
//!
//! Sizes are scaled by [`Size`] so unit tests stay fast while benches get
//! meaningful working sets. [`setup`] holds the run configuration every
//! harness shares: heap sizing, the cached compilation plan, and the
//! unmonitored baseline digest.
//!
//! # Example
//!
//! ```
//! use hpmopt_workloads::{by_name, names, Size};
//!
//! assert_eq!(names().len(), 16);
//! let db = by_name("db", Size::Tiny).expect("db exists");
//! assert!(db.min_heap_bytes > 0);
//! assert_eq!(db.program.entry(), db.program.method_by_name("main").unwrap());
//! ```

pub mod framework;

pub mod antlr;
pub mod bloat;
pub mod compress;
pub mod db;
pub mod fop;
pub mod hsqldb;
pub mod jack;
pub mod javac;
pub mod jess;
pub mod jython;
pub mod luindex;
pub mod lusearch;
pub mod mpegaudio;
pub mod mtrt;
pub mod pmd;
pub mod pseudojbb;

pub mod setup;

pub use framework::{Size, Suite, Workload};

/// The benchmark names in the paper's Table 1 order.
#[must_use]
pub fn names() -> [&'static str; 16] {
    [
        "compress",
        "jess",
        "db",
        "javac",
        "mpegaudio",
        "mtrt",
        "jack",
        "pseudojbb",
        "antlr",
        "bloat",
        "fop",
        "hsqldb",
        "jython",
        "luindex",
        "lusearch",
        "pmd",
    ]
}

/// Build one workload by name.
#[must_use]
pub fn by_name(name: &str, size: Size) -> Option<Workload> {
    let w = match name {
        "compress" => compress::build(size),
        "jess" => jess::build(size),
        "db" => db::build(size),
        "javac" => javac::build(size),
        "mpegaudio" => mpegaudio::build(size),
        "mtrt" => mtrt::build(size),
        "jack" => jack::build(size),
        "pseudojbb" => pseudojbb::build(size),
        "antlr" => antlr::build(size),
        "bloat" => bloat::build(size),
        "fop" => fop::build(size),
        "hsqldb" => hsqldb::build(size),
        "jython" => jython::build(size),
        "luindex" => luindex::build(size),
        "lusearch" => lusearch::build(size),
        "pmd" => pmd::build(size),
        _ => return None,
    };
    Some(w)
}

/// Build every workload at the given size, in Table 1 order.
#[must_use]
pub fn all(size: Size) -> Vec<Workload> {
    names()
        .iter()
        .map(|n| by_name(n, size).expect("known name"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_builds_and_verifies_at_tiny() {
        // `finish()` inside each builder already runs the verifier; this
        // asserts every builder completes and is well-formed.
        let ws = all(Size::Tiny);
        assert_eq!(ws.len(), 16);
        for w in &ws {
            assert!(!w.program.methods().is_empty(), "{}", w.name);
            assert!(w.min_heap_bytes >= 64 * 1024, "{}", w.name);
            assert!(!w.description.is_empty(), "{}", w.name);
        }
    }

    #[test]
    fn by_name_rejects_unknown() {
        assert!(by_name("quake", Size::Tiny).is_none());
    }

    #[test]
    fn names_are_unique() {
        let mut n = names().to_vec();
        n.sort_unstable();
        n.dedup();
        assert_eq!(n.len(), 16);
    }
}
