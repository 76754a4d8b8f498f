//! Committed reference outputs (`reference/<workload>.json` next to this
//! package's manifest) and
//! the checks against them. `--write-reference` records the current
//! outputs instead of checking; re-pin only with a stated cause.

use engine::json::Value;
use engine::RunReport;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Where the reference outputs live, relative to the repository root (the
/// benchmark runs from there).
const REFERENCE_DIR: &str = "crates/bench/perfbench/reference";

/// Relative tolerance of exact-backend values against the reference.
const EXACT_REL_TOL: f64 = 1e-9;

/// A report with its non-deterministic fields cleared: `wall_seconds`
/// (timing) and `template_cache` (depends on what ran before).
pub fn normalized(json: &str) -> Result<String, String> {
    let mut r = RunReport::from_json(json).map_err(|e| format!("report: {e}"))?;
    r.wall_seconds = 0.0;
    r.template_cache = None;
    Ok(r.to_json())
}

pub struct Reference {
    path: PathBuf,
    write: bool,
    entries: BTreeMap<String, Value>,
}

fn close(name: &str, what: &str, got: f64, want: f64) -> Result<(), String> {
    if (got - want).abs() <= EXACT_REL_TOL * want.abs() {
        Ok(())
    } else {
        Err(format!("{name}: {what} = {got:e}, reference {want:e}"))
    }
}

impl Reference {
    /// The reference of `workload`; empty (to be filled) when writing.
    pub fn load(workload: &str, write: bool) -> Result<Self, String> {
        let path = PathBuf::from(format!("{REFERENCE_DIR}/{workload}.json"));
        let mut entries = BTreeMap::new();
        if !write {
            if let Ok(text) = std::fs::read_to_string(&path) {
                match Value::parse(&text).map_err(|e| format!("{}: {e}", path.display()))? {
                    Value::Obj(m) => entries = m,
                    _ => return Err(format!("{}: not an object", path.display())),
                }
            }
        }
        Ok(Self {
            path,
            write,
            entries,
        })
    }

    fn expected(&self, name: &str) -> Result<&Value, String> {
        self.entries
            .get(name)
            .ok_or_else(|| format!("{name}: no reference in {}", self.path.display()))
    }

    /// Exact-backend check: MTTSF, Ĉtotal and (with `survival`) every
    /// S(t) point within 1e-9 relative of the reference.
    pub fn exact(&mut self, name: &str, report_json: &str, survival: bool) -> Result<(), String> {
        let r = RunReport::from_json(report_json).map_err(|e| format!("report: {e}"))?;
        let curve: Vec<f64> = r
            .survival
            .as_ref()
            .map(|s| s.iter().map(|(_, e)| e.value).collect())
            .unwrap_or_default();
        if self.write {
            let mut fields = vec![
                ("mttsf", Value::Num(r.mttsf.value)),
                ("c_total", Value::Num(r.c_total.value)),
            ];
            if survival {
                fields.push((
                    "survival",
                    Value::Arr(curve.into_iter().map(Value::Num).collect()),
                ));
            }
            self.entries.insert(name.to_string(), Value::obj(fields));
            return Ok(());
        }
        let want = self.expected(name)?;
        let num = |k: &str| {
            want.field(k)
                .and_then(Value::as_f64)
                .map_err(|e| e.to_string())
        };
        close(name, "MTTSF", r.mttsf.value, num("mttsf")?)?;
        close(name, "C_total", r.c_total.value, num("c_total")?)?;
        if survival {
            let ref_curve = want.field("survival").map_err(|e| e.to_string())?;
            let ref_curve = ref_curve.as_arr().map_err(|e| e.to_string())?;
            if ref_curve.len() != curve.len() {
                return Err(format!("{name}: survival grid length changed"));
            }
            for (got, want) in curve.iter().zip(ref_curve) {
                close(
                    name,
                    "S(t)",
                    *got,
                    want.as_f64().map_err(|e| e.to_string())?,
                )?;
            }
        }
        Ok(())
    }

    /// Bit-for-bit check of a whole (normalized) output text.
    pub fn bitwise(&mut self, name: &str, text: &str) -> Result<(), String> {
        if self.write {
            self.entries
                .insert(name.to_string(), Value::Str(text.to_string()));
            return Ok(());
        }
        match self.expected(name)? {
            Value::Str(want) if want == text => Ok(()),
            _ => Err(format!(
                "{name}: output differs from the reference bit for bit"
            )),
        }
    }

    /// Write the recorded entries (one per line) when in write mode.
    pub fn save(&self) -> Result<(), String> {
        if !self.write {
            return Ok(());
        }
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(k, v)| format!("{}:{}", Value::Str(k.clone()).encode(), v.encode()))
            .collect();
        std::fs::write(&self.path, format!("{{\n{}\n}}\n", body.join(",\n")))
            .map_err(|e| format!("{}: {e}", self.path.display()))
    }
}
