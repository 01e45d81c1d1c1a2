//! Point-in-time copies of recorder state, with JSON and tree rendering.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json;
use crate::value::Value;

/// Flat span copy handed from the recorder to [`Snapshot::assemble`].
#[derive(Clone, Debug)]
pub(crate) struct SnapSpan {
    pub(crate) name: String,
    pub(crate) label: Option<String>,
    pub(crate) parent: Option<usize>,
    pub(crate) thread: u64,
    pub(crate) start_ns: u64,
    pub(crate) duration_ns: Option<u64>,
}

/// One span in the reassembled hierarchy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanNode {
    /// Static span name (see the counter/span naming convention in
    /// DESIGN.md).
    pub name: String,
    /// Optional per-instance detail, e.g. `"#3 n=120 m=480"`.
    pub label: Option<String>,
    /// Dense ordinal of the recording thread (`0` = first thread that ever
    /// recorded a span).
    pub thread: u64,
    /// Start, in nanoseconds since the recorder epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds (`None` if the span was still
    /// open at snapshot time).
    pub duration_ns: Option<u64>,
    /// Child spans, in open order.
    pub children: Vec<SpanNode>,
}

/// Everything the recorder held at one instant.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Monotonic event counts, by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-written / maximum values, by name.
    pub gauges: BTreeMap<String, u64>,
    /// Root spans (spans whose parent was closed before a reset become
    /// roots too), in open order.
    pub spans: Vec<SpanNode>,
}

impl Snapshot {
    pub(crate) fn assemble(
        counters: BTreeMap<String, u64>,
        gauges: BTreeMap<String, u64>,
        flat: Vec<SnapSpan>,
    ) -> Snapshot {
        let mut children_of: Vec<Vec<usize>> = vec![Vec::new(); flat.len()];
        let mut roots: Vec<usize> = Vec::new();
        for (i, s) in flat.iter().enumerate() {
            match s.parent {
                // A parent index always precedes its children (spans are
                // appended in open order), but guard anyway.
                Some(p) if p < i => children_of[p].push(i),
                _ => roots.push(i),
            }
        }
        fn build(i: usize, flat: &[SnapSpan], children_of: &[Vec<usize>]) -> SpanNode {
            SpanNode {
                name: flat[i].name.clone(),
                label: flat[i].label.clone(),
                thread: flat[i].thread,
                start_ns: flat[i].start_ns,
                duration_ns: flat[i].duration_ns,
                children: children_of[i]
                    .iter()
                    .map(|&c| build(c, flat, children_of))
                    .collect(),
            }
        }
        Snapshot {
            counters,
            gauges,
            spans: roots
                .into_iter()
                .map(|r| build(r, &flat, &children_of))
                .collect(),
        }
    }

    /// Renders the span hierarchy as an indented, human-readable tree
    /// (the `--trace` output of the CLI).
    #[must_use]
    pub fn render_tree(&self) -> String {
        fn render(node: &SpanNode, depth: usize, out: &mut String) {
            let mut title = node.name.clone();
            if let Some(label) = &node.label {
                let _ = write!(title, " {label}");
            }
            let dur = match node.duration_ns {
                Some(ns) => format!("{:.3}ms", ns as f64 / 1e6),
                None => "open".to_string(),
            };
            let indent = 2 * depth;
            let _ = writeln!(
                out,
                "{:indent$}{title:<w$} {dur:>12} [t{}]",
                "",
                node.thread,
                indent = indent,
                w = 48usize.saturating_sub(indent),
            );
            for child in &node.children {
                render(child, depth + 1, out);
            }
        }
        let mut out = String::new();
        if self.spans.is_empty() {
            out.push_str("(no spans recorded)\n");
            return out;
        }
        for root in &self.spans {
            render(root, 0, &mut out);
        }
        out
    }

    /// Flattens counters and gauges into one `name -> value` map — the
    /// shape [`crate::diff`], [`crate::gate`], and [`crate::history`]
    /// operate on.
    #[must_use]
    pub fn flat_metrics(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (k, &v) in &self.counters {
            out.insert(k.clone(), v as f64);
        }
        for (k, &v) in &self.gauges {
            out.insert(k.clone(), v as f64);
        }
        out
    }

    /// Serializes the snapshot as a self-contained JSON object.
    ///
    /// Layout:
    ///
    /// ```json
    /// {
    ///   "schema": "dmig-obs/1",
    ///   "counters": {"flow_solves": 3},
    ///   "gauges": {"quota.max_recursion_depth": 4},
    ///   "spans": [{"name": "solve_even", "label": null, "thread": 0,
    ///       "start_us": 1.2, "duration_us": 350.0, "children": []}]
    /// }
    /// ```
    #[must_use]
    pub fn to_json(&self) -> String {
        fn span_json(node: &SpanNode, out: &mut String) {
            out.push_str("{\"name\":");
            out.push_str(&json::string(&node.name));
            out.push_str(",\"label\":");
            match &node.label {
                Some(l) => out.push_str(&json::string(l)),
                None => out.push_str("null"),
            }
            let _ = write!(out, ",\"thread\":{}", node.thread);
            let _ = write!(
                out,
                ",\"start_us\":{}",
                json::number(node.start_ns as f64 / 1e3)
            );
            out.push_str(",\"duration_us\":");
            match node.duration_ns {
                Some(ns) => {
                    let _ = write!(out, "{}", json::number(ns as f64 / 1e3));
                }
                None => out.push_str("null"),
            }
            out.push_str(",\"children\":[");
            for (i, c) in node.children.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                span_json(c, out);
            }
            out.push_str("]}");
        }

        let mut out = String::from("{\n  \"schema\": \"dmig-obs/1\",\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}: {v}", json::string(k));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}: {v}", json::string(k));
        }
        out.push_str("\n  },\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            span_json(s, &mut out);
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Reads a `dmig-obs/1` document (as [`Snapshot::to_json`] writes it)
    /// back into a snapshot: the one reader behind `dmig obs serve`,
    /// `export-trace`, `flame`, `diff` and `gate`.
    ///
    /// A section may be absent (it reads as empty); every field present
    /// must have its type. A `histograms` section, which earlier builds
    /// wrote, is not read. Span times are read back from microseconds to
    /// the nearest nanosecond; a missing `label` or `duration_us` reads as
    /// `null`, and missing `children` as none.
    ///
    /// # Errors
    ///
    /// Returns a message naming the schema or the first mistyped field,
    /// e.g. `counters.flow_solves: not a number` or
    /// `spans[0].children[2].thread: not a number`.
    pub fn from_value(doc: &Value) -> Result<Snapshot, String> {
        match doc.get_path("schema").and_then(Value::as_str) {
            Some("dmig-obs/1") => {}
            other => {
                return Err(format!(
                    "expected schema \"dmig-obs/1\", found {}",
                    other.unwrap_or("none")
                ))
            }
        }
        let section = |name: &str| match doc.get_path(name) {
            None => Ok(None),
            Some(v) => v
                .as_object()
                .map(Some)
                .ok_or_else(|| format!("{name}: not an object")),
        };
        let mut snap = Snapshot::default();
        for (name, out) in [
            ("counters", &mut snap.counters),
            ("gauges", &mut snap.gauges),
        ] {
            for (k, v) in section(name)?.into_iter().flatten() {
                let v = v
                    .as_f64()
                    .ok_or_else(|| format!("{name}.{k}: not a number"))?;
                out.insert(k.clone(), v as u64);
            }
        }
        if let Some(spans) = doc.get_path("spans") {
            snap.spans = spans_from_value(spans, "spans")?;
        }
        Ok(snap)
    }
}

/// Reads the span array found at `path` (the prefix of every message);
/// see [`Snapshot::from_value`].
fn spans_from_value(v: &Value, path: &str) -> Result<Vec<SpanNode>, String> {
    let spans = v
        .as_array()
        .ok_or_else(|| format!("{path}: not an array"))?;
    let us_to_ns = |x: f64| (x * 1e3).max(0.0).round() as u64;
    let mut out = Vec::with_capacity(spans.len());
    for (i, span) in spans.iter().enumerate() {
        let at = format!("{path}[{i}]");
        // `None` for an absent or null field, else the typed value.
        let number = |name: &str| match span.get_path(name) {
            None | Some(Value::Null) => Ok(None),
            Some(f) => f
                .as_f64()
                .map(Some)
                .ok_or_else(|| format!("{at}.{name}: not a number")),
        };
        let string = |name: &str| match span.get_path(name) {
            None | Some(Value::Null) => Ok(None),
            Some(f) => f
                .as_str()
                .map(|s| Some(s.to_string()))
                .ok_or_else(|| format!("{at}.{name}: not a string")),
        };
        let missing = |name: &str, kind: &str| format!("{at}.{name}: not a {kind}");
        out.push(SpanNode {
            name: string("name")?.ok_or_else(|| missing("name", "string"))?,
            label: string("label")?,
            thread: number("thread")?.ok_or_else(|| missing("thread", "number"))? as u64,
            start_ns: us_to_ns(number("start_us")?.ok_or_else(|| missing("start_us", "number"))?),
            duration_ns: number("duration_us")?.map(us_to_ns),
            children: match span.get_path("children") {
                None => Vec::new(),
                Some(c) => spans_from_value(c, &format!("{at}.children"))?,
            },
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let flat = vec![
            SnapSpan {
                name: "solve".into(),
                label: None,
                parent: None,
                thread: 0,
                start_ns: 0,
                duration_ns: Some(5_000_000),
            },
            SnapSpan {
                name: "component".into(),
                label: Some("#0".into()),
                parent: Some(0),
                thread: 1,
                start_ns: 1_000,
                duration_ns: Some(2_000_000),
            },
            SnapSpan {
                name: "component".into(),
                label: Some("#1".into()),
                parent: Some(0),
                thread: 2,
                start_ns: 2_000,
                duration_ns: None,
            },
        ];
        let mut counters = BTreeMap::new();
        counters.insert("flow_solves".to_string(), 3u64);
        Snapshot::assemble(counters, BTreeMap::new(), flat)
    }

    #[test]
    fn tree_assembly_nests_children() {
        let snap = sample();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].children.len(), 2);
        assert_eq!(snap.spans[0].children[1].label.as_deref(), Some("#1"));
    }

    #[test]
    fn render_tree_is_indented() {
        let tree = sample().render_tree();
        assert!(tree.contains("solve"));
        assert!(tree.contains("  component #0"));
        assert!(tree.contains("[t1]"));
        assert!(tree.contains("open"));
        assert_eq!(Snapshot::default().render_tree(), "(no spans recorded)\n");
    }

    #[test]
    fn json_is_balanced_and_contains_keys() {
        let j = sample().to_json();
        assert!(j.contains("\"flow_solves\": 3"));
        assert!(j.contains("\"dmig-obs/1\""));
        assert!(j.contains("\"duration_us\":null"));
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "balanced braces:\n{j}"
        );
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn orphaned_parent_becomes_root() {
        // Parent index not preceding the child (can't happen today, but the
        // assembler must not panic or loop).
        let flat = vec![SnapSpan {
            name: "x".into(),
            label: None,
            parent: Some(7),
            thread: 0,
            start_ns: 0,
            duration_ns: Some(1),
        }];
        let s = Snapshot::assemble(BTreeMap::new(), BTreeMap::new(), flat);
        assert_eq!(s.spans.len(), 1);
    }

    fn read(text: &str) -> Result<Snapshot, String> {
        Snapshot::from_value(&Value::parse(text).expect("test documents are JSON"))
    }

    #[test]
    fn from_value_requires_the_schema() {
        let err = read(r#"{"counters": {}}"#).unwrap_err();
        assert_eq!(err, "expected schema \"dmig-obs/1\", found none");
        let err = read(r#"{"schema": "dmig-history/1"}"#).unwrap_err();
        assert!(
            err.contains("schema") && err.contains("dmig-history/1"),
            "{err}"
        );
    }

    #[test]
    fn from_value_reads_absent_sections_as_empty() {
        assert_eq!(read(r#"{"schema": "dmig-obs/1"}"#), Ok(Snapshot::default()));
        let err = read(r#"{"schema": "dmig-obs/1", "spans": {}}"#).unwrap_err();
        assert_eq!(err, "spans: not an array");
        let err = read(r#"{"schema": "dmig-obs/1", "gauges": [1]}"#).unwrap_err();
        assert_eq!(err, "gauges: not an object");
    }

    #[test]
    fn from_value_skips_the_histograms_earlier_builds_wrote() {
        // An earlier build's `to_json` wrote a `histograms` member between
        // the gauges and the spans.
        let histograms = r#"
  "histograms": {
    "dinic.max_flow_ns": {"count": 3, "sum": 9000, "min": 1000, "max": 6000, "buckets": [[512,1],[4096,2]]},
    "sim.round_wall_ns": {"count": 0, "sum": 0, "min": 18446744073709551615, "max": 0, "buckets": []}
  },"#;
        let text = sample().to_json();
        let old = text.replacen("\n  \"spans\"", &format!("{histograms}\n  \"spans\""), 1);
        assert_ne!(old, text);
        assert_eq!(read(&old), Ok(sample()));
    }

    #[test]
    fn from_value_names_a_mistyped_counter() {
        let err =
            read(r#"{"schema": "dmig-obs/1", "counters": {"flow_solves": "3"}}"#).unwrap_err();
        assert_eq!(err, "counters.flow_solves: not a number");
    }

    #[test]
    fn from_value_names_a_mistyped_span_field() {
        let doc = |child: &str| {
            format!(
                r#"{{"schema": "dmig-obs/1", "spans": [{{"name": "solve", "label": null,
                    "thread": 0, "start_us": 1.5, "duration_us": 9.0,
                    "children": [{child}]}}]}}"#
            )
        };
        let ok = r##"{"name": "cell", "label": "#0", "thread": 2, "start_us": 2.0,
                      "duration_us": null, "children": []}"##;
        let snap = read(&doc(ok)).expect("well-typed spans");
        let cell = &snap.spans[0].children[0];
        assert_eq!(
            (cell.thread, cell.start_ns, cell.duration_ns),
            (2, 2_000, None)
        );
        for (child, message) in [
            (
                r#"{"name": "cell", "thread": "2", "start_us": 2.0}"#,
                "spans[0].children[0].thread: not a number",
            ),
            (
                r#"{"name": "cell", "thread": 2}"#,
                "spans[0].children[0].start_us: not a number",
            ),
            (
                r#"{"name": "cell", "label": 3, "thread": 2, "start_us": 2.0}"#,
                "spans[0].children[0].label: not a string",
            ),
            (
                r#"{"name": "cell", "thread": 2, "start_us": 2.0, "children": {}}"#,
                "spans[0].children[0].children: not an array",
            ),
        ] {
            assert_eq!(read(&doc(child)).unwrap_err(), message, "{child}");
        }
    }

    mod roundtrip {
        use super::*;
        use proptest::prelude::*;

        /// Names drawn from an alphabet with the characters JSON escapes,
        /// a dot, and non-ASCII.
        fn arb_name() -> impl Strategy<Value = String> {
            const ALPHABET: [char; 10] = ['a', 'z', '.', '_', '"', '\\', '\n', ' ', 'µ', '#'];
            proptest::collection::vec(0..ALPHABET.len(), 1..8)
                .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
        }

        fn arb_metrics() -> impl Strategy<Value = Vec<(String, u64)>> {
            // Values stay below 2^53: the reader goes through `f64`.
            proptest::collection::vec((arb_name(), 0u64..1 << 53), 0..4)
        }

        /// Flat spans in open order: each names an earlier span (or none)
        /// as its parent, so [`Snapshot::assemble`] builds a forest with
        /// nesting. Times are whole nanoseconds below 2^40 (about 18
        /// minutes), which `{:.6}` microseconds carry exactly.
        fn arb_spans() -> impl Strategy<Value = Vec<SnapSpan>> {
            let span = (
                arb_name(),
                (proptest::bool::ANY, arb_name()),
                (0usize..8, 0u64..6),
                0u64..1 << 40,
                (proptest::bool::ANY, 0u64..1 << 40),
            );
            proptest::collection::vec(span, 0..12).prop_map(|specs| {
                specs
                    .into_iter()
                    .enumerate()
                    .map(
                        |(
                            i,
                            (name, (labelled, label), (parent, thread), start_ns, (closed, d)),
                        )| {
                            SnapSpan {
                                name,
                                label: labelled.then_some(label),
                                parent: (parent < i).then_some(parent),
                                thread,
                                start_ns,
                                duration_ns: closed.then_some(d),
                            }
                        },
                    )
                    .collect()
            })
        }

        proptest! {
            /// `from_value` reads back every document `to_json` writes.
            #[test]
            fn from_value_inverts_to_json(
                counters in arb_metrics(),
                gauges in arb_metrics(),
                spans in arb_spans(),
            ) {
                let snap = Snapshot::assemble(
                    counters.into_iter().collect(),
                    gauges.into_iter().collect(),
                    spans,
                );
                let text = snap.to_json();
                let doc = Value::parse(&text).expect("to_json writes JSON");
                prop_assert_eq!(Snapshot::from_value(&doc), Ok(snap), "{}", text);
            }
        }
    }
}
