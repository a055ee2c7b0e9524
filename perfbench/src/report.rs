//! Failure accounting and the result line the benchmark prints last.

use gtd::bench::json::JsonValue;

/// One named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Counts operations and the ones that breached a check. An operation
/// fails when any of its checks reports a breach; a run is correct when
/// no operation failed and no run-level gate broke.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Run-level gates (faithfulness, determinism) that broke.
    pub gate_breaches: Vec<String>,
    /// First few breach descriptions, for the diagnostic output.
    pub notes: Vec<String>,
}

/// How many breach descriptions a run keeps for its diagnostics.
const MAX_NOTES: usize = 20;

impl Tally {
    /// Record one operation whose checks reported `breaches` (empty when
    /// every check passed). `what` names the operation in diagnostics.
    pub fn op(&mut self, what: &str, breaches: Vec<String>) {
        self.attempted += 1;
        if !breaches.is_empty() {
            self.failed += 1;
            if self.notes.len() < MAX_NOTES {
                self.notes.push(format!("{what}: {}", breaches.join("; ")));
            }
        }
    }

    /// Record a run-level gate: a breach makes the whole run incorrect
    /// without being an operation of its own.
    pub fn gate(&mut self, what: &str, breaches: Vec<String>) {
        for b in breaches {
            self.gate_breaches.push(format!("{what}: {b}"));
        }
    }

    /// Share of attempted operations that passed every check.
    pub fn ok_share(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }

    /// No failed operation, no broken gate, and at least one operation.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.gate_breaches.is_empty()
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit. A non-finite value cannot be written as JSON, so it
/// makes the run incorrect and is written as 0.
pub fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let body = JsonValue::obj(metrics.iter().map(|m| {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        (
            m.name.to_string(),
            JsonValue::obj([
                ("value".to_string(), JsonValue::Num(value)),
                ("unit".to_string(), JsonValue::Str(m.unit.to_string())),
            ]),
        )
    }));
    JsonValue::obj([
        (
            "correct".to_string(),
            JsonValue::Bool(tally.correct() && finite),
        ),
        (
            "attempted".to_string(),
            JsonValue::Num(tally.attempted as f64),
        ),
        ("failed".to_string(), JsonValue::Num(tally.failed as f64)),
        ("metrics".to_string(), body),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_op_with_any_breach_counts_as_failed() {
        let mut t = Tally::default();
        t.op("a", vec![]);
        t.op("b", vec!["dropped 3".into(), "unclean".into()]);
        t.op("c", vec![]);
        t.op("d", vec![]);
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.ok_share(), 0.75);
        assert!(!t.correct());
        assert_eq!(t.notes, vec!["b: dropped 3; unclean".to_string()]);
    }

    #[test]
    fn a_broken_gate_fails_the_run_but_not_an_op() {
        let mut t = Tally::default();
        t.op("a", vec![]);
        assert!(t.correct());
        t.gate("faithfulness", vec!["ticks 10 != 11".into()]);
        assert_eq!((t.attempted, t.failed), (1, 0));
        assert!(!t.correct());
    }

    #[test]
    fn a_run_without_operations_is_not_correct() {
        let t = Tally::default();
        assert!(!t.correct());
        assert_eq!(t.ok_share(), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut t = Tally::default();
        t.op("a", vec![]);
        let line = result_line(
            &t,
            &[metric("op_s", "s", 1.25), metric("ticks", "count", 7.0)],
        );
        let v = JsonValue::parse(&line).unwrap();
        let JsonValue::Obj(top) = &v else {
            panic!("not an object: {line}")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&JsonValue::Bool(true)));
        let op = v.get("metrics").and_then(|m| m.get("op_s")).unwrap();
        assert_eq!(op.get("value"), Some(&JsonValue::Num(1.25)));
        assert_eq!(op.get("unit"), Some(&JsonValue::Str("s".into())));
    }

    #[test]
    fn a_non_finite_metric_makes_the_run_incorrect() {
        let mut t = Tally::default();
        t.op("a", vec![]);
        let v = JsonValue::parse(&result_line(&t, &[metric("x", "s", f64::NAN)])).unwrap();
        assert_eq!(v.get("correct"), Some(&JsonValue::Bool(false)));
    }
}
