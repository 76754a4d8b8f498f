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
    for (t, def) in net.transition_defs() {
        for &(p, mult) in &def.0 {
            let lbl = if mult > 1 {
                format!(" [label=\"{mult}\"]")
            } else {
                String::new()
            };
            writeln!(s, "  p{} -> t{}{lbl};", p.index(), t.index()).unwrap();
        }
        for &(p, mult) in &def.1 {
            let lbl = if mult > 1 {
                format!(" [label=\"{mult}\"]")
            } else {
                String::new()
            };
            writeln!(s, "  t{} -> p{}{lbl};", t.index(), p.index()).unwrap();
        }
        for &(p, thresh) in &def.2 {
            writeln!(
                s,
                "  p{} -> t{} [arrowhead=odot, label=\"{thresh}\"];",
                p.index(),
                t.index()
            )
            .unwrap();
        }
    }
    writeln!(s, "}}").unwrap();
    s
}

impl Spn {
    /// Arc lists per transition `(inputs, outputs, inhibitors)` — used by
    /// the DOT exporter.
    #[allow(clippy::type_complexity)]
    pub(crate) fn transition_defs(
        &self,
    ) -> Vec<(
        crate::model::TransitionId,
        (
            Vec<(crate::model::PlaceId, u32)>,
            Vec<(crate::model::PlaceId, u32)>,
            Vec<(crate::model::PlaceId, u32)>,
        ),
    )> {
        self.transition_ids()
            .map(|t| {
                let tr = self.transition_ref(t);
                (
                    t,
                    (tr.inputs.clone(), tr.outputs.clone(), tr.inhibitors.clone()),
                )
            })
            .collect()
    }
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
                .output(c, 1)
                .inhibitor(c, 5),
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
        assert!(d.contains("arrowhead=odot"));
        assert!(d.ends_with("}\n"));
    }
}
