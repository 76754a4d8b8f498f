//! Shared helpers for the runnable examples, and the design-space
//! analysis ([`pareto`]) they run through the engine.

pub mod pareto;

/// Render a simple two-column table row.
pub fn row(label: &str, value: impl std::fmt::Display) -> String {
    format!("{label:<44} {value}")
}

/// Format seconds as a human-readable duration.
pub fn pretty_duration(seconds: f64) -> String {
    if seconds >= 86_400.0 {
        format!("{:.2} days", seconds / 86_400.0)
    } else if seconds >= 3_600.0 {
        format!("{:.2} hours", seconds / 3_600.0)
    } else if seconds >= 60.0 {
        format!("{:.2} minutes", seconds / 60.0)
    } else {
        format!("{seconds:.2} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_formatting() {
        assert_eq!(pretty_duration(30.0), "30.00 s");
        assert_eq!(pretty_duration(120.0), "2.00 minutes");
        assert_eq!(pretty_duration(7_200.0), "2.00 hours");
        assert_eq!(pretty_duration(172_800.0), "2.00 days");
    }

    #[test]
    fn row_alignment() {
        let r = row("x", 1);
        assert!(r.starts_with('x'));
        assert!(r.ends_with('1'));
    }
}
