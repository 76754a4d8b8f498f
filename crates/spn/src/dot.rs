//! Graphviz DOT export of nets (debugging aid).

use crate::model::Spn;
use std::fmt::Write;

/// Render the net structure (places, transitions, arcs) as DOT.
pub fn net_to_dot(net: &Spn) -> String {
    let mut s = String::new();
    writeln!(s, "digraph spn {{").unwrap();
    writeln!(s, "  rankdir=LR;").unwrap();
    let initial = net.initial_marking();
    for p in 0..net.place_count() {
        let pid = crate::model::PlaceId(p as u32);
        writeln!(
            s,
            "  p{p} [shape=circle, label=\"{}\\n{}\"];",
            net.place_name(pid),
            initial.tokens(pid)
        )
        .unwrap();
    }
    for t in net.transition_ids() {
        writeln!(
            s,
            "  t{} [shape=box, style=solid, label=\"{}\"];",
            t.index(),
            net.transition_name(t)
        )
        .unwrap();
    }
    let label = |mult: u32| {
        if mult > 1 {
            format!(" [label=\"{mult}\"]")
        } else {
            String::new()
        }
    };
    for t in net.transition_ids() {
        let tr = net.transition_ref(t);
        for &(p, mult) in &tr.inputs {
            writeln!(s, "  p{} -> t{}{};", p.index(), t.index(), label(mult)).unwrap();
        }
        for &(p, mult) in &tr.outputs {
            writeln!(s, "  t{} -> p{}{};", t.index(), p.index(), label(mult)).unwrap();
        }
    }
    writeln!(s, "}}").unwrap();
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{SpnBuilder, TransitionDef};

    fn net() -> Spn {
        let mut b = SpnBuilder::new();
        let a = b.add_place("A", 2);
        let c = b.add_place("B", 0);
        b.add_transition(
            TransitionDef::timed_const("mv", 1.0)
                .input(a, 1)
                .output(c, 1),
        );
        b.add_transition(
            TransitionDef::timed_const("snap", 2.0)
                .input(c, 2)
                .output(a, 2),
        );
        b.build().unwrap()
    }

    #[test]
    fn net_dot_contains_structure() {
        let d = net_to_dot(&net());
        assert!(d.contains("digraph spn"));
        assert!(d.contains("\"A\\n2\""));
        assert!(d.contains("mv"));
        assert!(d.contains("snap"));
        assert!(d.contains("  p0 -> t0;"));
        assert!(d.contains("  t1 -> p0 [label=\"2\"];"));
        assert!(d.ends_with("}\n"));
    }
}
