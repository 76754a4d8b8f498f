//! U001 clean fixture: every `pub` item is named by other non-test code,
//! re-exported or not, and restricted or test-only items are not public
//! API. Expected findings: 0.

pub const SCALE: f64 = 2.0;

pub struct Meter {
    pub value: f64,
}

impl Meter {
    pub fn doubled(&self) -> Meter {
        scaled(self.value)
    }
}

pub fn scaled(x: f64) -> Meter {
    Meter { value: x * SCALE }
}

pub(crate) fn crate_only() -> u32 {
    3
}

pub(super) fn parent_only() -> u32 {
    4
}

#[cfg(test)]
pub fn test_support() -> u32 {
    5
}

mod units {
    pub fn halved(x: f64) -> f64 {
        x / 2.0
    }
}

pub use units::{
    halved,
};

fn entry() -> f64 {
    halved(scaled(1.0).doubled().value)
}
