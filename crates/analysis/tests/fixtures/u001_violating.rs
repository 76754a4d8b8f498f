//! U001 fixture: `pub` items that no non-test code names outside their
//! own definition line, one of each audited kind, plus a function named
//! only in comments and strings, one named only by a test, and two named
//! only by `pub use` re-exports (one on one line, one across several).
//! Expected findings: 12.

pub fn orphan(x: u32) -> u32 {
    x + 1
}

pub const fn orphan_const_fn(x: u32) -> u32 {
    x * 2
}

pub struct OrphanStruct {
    pub value: f64,
}

pub enum OrphanEnum {
    Left,
    Right,
}

pub trait OrphanTrait {
    fn describe(&self) -> String;
}

pub const ORPHAN_LIMIT: usize = 3;

pub static mut ORPHAN_COUNTER: u64 = 0;

pub type OrphanAlias = Vec<u32>;

/// Mentioned here as `named_in_docs_only`, which is not a use.
pub fn named_in_docs_only() -> &'static str {
    "named_in_docs_only"
}

pub fn tested_only() -> u32 {
    1
}

mod reexports {
    pub fn reexported_once() -> u32 {
        2
    }

    pub fn reexported_across_lines() -> u32 {
        3
    }
}

pub use reexports::reexported_once;
pub use reexports::{
    reexported_across_lines,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calls_it() {
        assert_eq!(tested_only(), 1);
    }
}
