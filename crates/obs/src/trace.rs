//! Chrome `trace_event` and HTML timeline export for span trees.
//!
//! The snapshot's span hierarchy flattens to the Trace Event Format that
//! Perfetto and `chrome://tracing` load natively: one `B`/`E` duration pair
//! per closed span (a lone `B` for spans still open at snapshot time), one
//! track (`tid`) per recorder thread ordinal, all inside a single process
//! (`pid` 0). Cross-thread parenting is what makes the tracks meaningful: a
//! worker's `shard` span carries the worker's own `tid`, so the shard
//! fan-out and the Euler-split recursion render as parallel lanes under
//! the coordinator.
//!
//! Events are emitted in a depth-first walk of the span tree. Within one
//! track that order is begin-time order with properly nested `B`/`E`
//! pairs, which is exactly what the format requires; across tracks no
//! ordering is needed (viewers sort by `ts` per track).
//!
//! [`html_timeline`] renders the same data as a dependency-free HTML page —
//! a poor man's Perfetto for hosts without a trace viewer.

use std::fmt::Write as _;

use crate::json;
use crate::snapshot::SpanNode;
use crate::value::Value;

fn push_event(
    out: &mut String,
    first: &mut bool,
    ph: char,
    name: &str,
    tid: u64,
    ts_us: f64,
    label: Option<&str>,
) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    let _ = write!(
        out,
        "  {{\"name\":{},\"cat\":\"dmig\",\"ph\":\"{ph}\",\"pid\":0,\"tid\":{tid},\"ts\":{}",
        json::string(name),
        json::number(ts_us),
    );
    if let Some(l) = label {
        let _ = write!(out, ",\"args\":{{\"label\":{}}}", json::string(l));
    }
    out.push('}');
}

fn emit_span(span: &SpanNode, out: &mut String, first: &mut bool, ancestor_end: Option<u64>) {
    let start_us = span.start_ns as f64 / 1e3;
    push_event(
        out,
        first,
        'B',
        &span.name,
        span.thread,
        start_us,
        span.label.as_deref(),
    );
    // A span with no duration was still open at snapshot time. If some
    // ancestor *did* close (a reset-straddling guard, a snapshot taken from
    // another thread), clamp the open span to that ancestor's end so the
    // track's B/E events stay stack-disciplined; a fully open chain keeps
    // its lone `B`s and viewers render unfinished slices.
    let end_ns = span
        .duration_ns
        .map(|d| span.start_ns.saturating_add(d))
        .or(ancestor_end);
    for child in &span.children {
        emit_span(child, out, first, end_ns);
    }
    if let Some(end) = end_ns {
        push_event(
            out,
            first,
            'E',
            &span.name,
            span.thread,
            end as f64 / 1e3,
            None,
        );
    }
}

fn collect_tids(spans: &[SpanNode], tids: &mut Vec<u64>) {
    for s in spans {
        if !tids.contains(&s.thread) {
            tids.push(s.thread);
        }
        collect_tids(&s.children, tids);
    }
}

/// Serializes a span forest as Chrome Trace Event Format JSON
/// (`{"traceEvents": [...]}` object form), loadable in Perfetto and
/// `chrome://tracing`.
#[must_use]
pub fn chrome_trace(spans: &[SpanNode]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    // Metadata: process and per-track thread names (tid 0 = the first
    // thread that ever recorded, normally the coordinator).
    let mut tids = Vec::new();
    collect_tids(spans, &mut tids);
    tids.sort_unstable();
    if !tids.is_empty() {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(
            "  {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{\"name\":\"dmig\"}}",
        );
        for &tid in &tids {
            let label = if tid == 0 {
                "coordinator (t0)".to_string()
            } else {
                format!("worker t{tid}")
            };
            if !first {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "  {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":{}}}}}",
                json::string(&label)
            );
        }
    }
    for span in spans {
        emit_span(span, &mut out, &mut first, None);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

/// Aggregated timing for all spans sharing one name: a flame-graph-style
/// rollup row. `self_ns` is wall time minus the summed durations of direct
/// children (saturating at zero — a parent whose children ran concurrently
/// on other tracks can be "covered" more than once over).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RollupRow {
    /// Span name the row aggregates.
    pub name: String,
    /// Number of span instances.
    pub count: u64,
    /// Summed wall-clock duration (open spans contribute zero).
    pub total_ns: u64,
    /// Summed self time: duration minus direct children, clamped at zero.
    pub self_ns: u64,
}

fn accumulate_rollup(span: &SpanNode, acc: &mut std::collections::BTreeMap<String, RollupRow>) {
    let dur = span.duration_ns.unwrap_or(0);
    let child_sum: u64 = span
        .children
        .iter()
        .map(|c| c.duration_ns.unwrap_or(0))
        .sum();
    let row = acc.entry(span.name.clone()).or_default();
    row.count += 1;
    row.total_ns += dur;
    row.self_ns += dur.saturating_sub(child_sum);
    for c in &span.children {
        accumulate_rollup(c, acc);
    }
}

/// Flame-style self-time rollup of a span forest: one row per span name,
/// sorted by self time descending (ties by name), so the largest remaining
/// serial chunk of a solve is the first row. Rendered into
/// [`html_timeline`] and by `dmig obs flame`.
#[must_use]
pub fn self_time_rollup(spans: &[SpanNode]) -> Vec<RollupRow> {
    let mut acc = std::collections::BTreeMap::new();
    for s in spans {
        accumulate_rollup(s, &mut acc);
    }
    let mut rows: Vec<RollupRow> = acc
        .into_iter()
        .map(|(name, mut row)| {
            row.name = name;
            row
        })
        .collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.name.cmp(&b.name)));
    rows
}

/// Renders a rollup as an aligned plain-text table (the `dmig obs flame`
/// output).
#[must_use]
pub fn render_rollup_text(rows: &[RollupRow]) -> String {
    let mut out = String::new();
    let grand_self: u64 = rows.iter().map(|r| r.self_ns).sum();
    let name_w = rows
        .iter()
        .map(|r| r.name.len())
        .chain(std::iter::once("span".len()))
        .max()
        .unwrap_or(4);
    let _ = writeln!(
        out,
        "{:<name_w$}  {:>7}  {:>12}  {:>12}  {:>6}",
        "span", "count", "total ms", "self ms", "self%"
    );
    for r in rows {
        let pct = if grand_self == 0 {
            0.0
        } else {
            r.self_ns as f64 / grand_self as f64 * 100.0
        };
        let _ = writeln!(
            out,
            "{:<name_w$}  {:>7}  {:>12.3}  {:>12.3}  {:>5.1}%",
            r.name,
            r.count,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
            pct
        );
    }
    out
}

fn flatten_rows(
    span: &SpanNode,
    depth: usize,
    rows: &mut Vec<(u64, usize, String, u64, u64)>,
    end_ns: &mut u64,
) {
    let dur = span.duration_ns.unwrap_or(0);
    *end_ns = (*end_ns).max(span.start_ns + dur);
    let mut title = span.name.clone();
    if let Some(l) = &span.label {
        let _ = write!(title, " {l}");
    }
    rows.push((span.thread, depth, title, span.start_ns, dur));
    for c in &span.children {
        flatten_rows(c, depth + 1, rows, end_ns);
    }
}

/// One disk's utilization summary, embedded in the HTML timeline as a
/// sortable table row and a heatmap cell (`dmig simulate --trace-html`).
#[derive(Clone, Debug, PartialEq)]
pub struct DiskUtilRow {
    /// Disk id.
    pub disk: usize,
    /// Busy time (same unit as the simulation clock).
    pub busy: f64,
    /// Busy time over makespan, in `[0, 1]`.
    pub utilization: f64,
}

/// Renders the span forest as a self-contained HTML timeline: one swimlane
/// per track, bars positioned by start/duration, hover for exact timings.
/// No external assets, so the file opens anywhere a browser exists.
#[must_use]
pub fn html_timeline(spans: &[SpanNode]) -> String {
    html_timeline_with_disks(spans, &[])
}

/// [`html_timeline`] plus a per-disk utilization section: a heatmap lane
/// (one cell per disk, cold blue → hot red by utilization) and a
/// click-to-sort table, so the bottleneck disks of a simulation are
/// visible without a spreadsheet round-trip.
#[must_use]
pub fn html_timeline_with_disks(spans: &[SpanNode], disks: &[DiskUtilRow]) -> String {
    let mut rows = Vec::new();
    let mut end_ns = 1u64;
    for s in spans {
        flatten_rows(s, 0, &mut rows, &mut end_ns);
    }
    let mut tids: Vec<u64> = rows.iter().map(|r| r.0).collect();
    tids.sort_unstable();
    tids.dedup();

    let mut out = String::from(
        "<!doctype html>\n<html><head><meta charset=\"utf-8\">\
         <title>dmig trace</title>\n<style>\n\
         body{font:13px monospace;background:#111;color:#ddd;margin:16px}\n\
         .lane{border-top:1px solid #333;padding:2px 0;position:relative}\n\
         .lane h2{font-size:12px;color:#8ab;margin:2px 0}\n\
         .row{position:relative;height:16px}\n\
         .bar{position:absolute;height:14px;background:#3a6ea5;border:1px solid #7aa;\
         border-radius:2px;overflow:hidden;white-space:nowrap;font-size:10px;\
         color:#fff;padding-left:2px;box-sizing:border-box}\n\
         .bar.open{background:#8a5a2a}\n\
         table.flame{border-collapse:collapse;margin:8px 0 16px}\n\
         table.flame th,table.flame td{border:1px solid #333;padding:2px 8px;\
         text-align:right}\n\
         table.flame td:first-child,table.flame th:first-child{text-align:left}\n\
         table.flame .pct{position:relative}\n\
         table.flame .pctbar{position:absolute;left:0;top:0;bottom:0;\
         background:#6a3a3a;z-index:-1}\n\
         table.flame th.sortable{cursor:pointer;text-decoration:underline}\n\
         .heat{margin:4px 0 12px;line-height:0}\n\
         .heat span{display:inline-block;width:14px;height:14px;margin:1px;\
         border:1px solid #333}\n\
         </style></head><body>\n<h1>dmig span timeline</h1>\n",
    );
    let _ = writeln!(
        out,
        "<p>total {:.3} ms · {} spans · {} tracks</p>",
        end_ns as f64 / 1e6,
        rows.len(),
        tids.len()
    );

    // Flame-style self-time rollup: the largest remaining serial chunk of
    // the solve leads the table.
    let rollup = self_time_rollup(spans);
    let grand_self: u64 = rollup.iter().map(|r| r.self_ns).sum();
    out.push_str(
        "<h2>self-time rollup</h2>\n<table class=\"flame\">\n\
         <tr><th>span</th><th>count</th><th>total ms</th>\
         <th>self ms</th><th>self %</th></tr>\n",
    );
    for r in &rollup {
        let pct = if grand_self == 0 {
            0.0
        } else {
            r.self_ns as f64 / grand_self as f64 * 100.0
        };
        let _ = writeln!(
            out,
            "<tr><td>{}</td><td>{}</td><td>{:.3}</td><td>{:.3}</td>\
             <td class=\"pct\"><span class=\"pctbar\" style=\"width:{pct:.1}%\">\
             </span>{pct:.1}%</td></tr>",
            html_escape(&r.name),
            r.count,
            r.total_ns as f64 / 1e6,
            r.self_ns as f64 / 1e6,
        );
    }
    out.push_str("</table>\n");

    if !disks.is_empty() {
        // Heatmap lane: one cell per disk, color interpolated from cold
        // blue (idle) to hot red (utilization 1.0), hover for the numbers.
        out.push_str("<h2>disk utilization</h2>\n<div class=\"heat\">");
        for d in disks {
            let u = d.utilization.clamp(0.0, 1.0);
            let lerp = |a: f64, b: f64| (a + u * (b - a)).round() as i64;
            let _ = write!(
                out,
                "<span style=\"background:rgb({},{},{})\" \
                 title=\"disk {}: {:.1}% busy {:.3}\"></span>",
                lerp(26.0, 204.0),
                lerp(58.0, 51.0),
                lerp(90.0, 51.0),
                d.disk,
                u * 100.0,
                d.busy,
            );
        }
        out.push_str("</div>\n");
        out.push_str(
            "<table class=\"flame\" id=\"disks\">\n<tr>\
             <th class=\"sortable\" onclick=\"sortDisks(0)\">disk</th>\
             <th class=\"sortable\" onclick=\"sortDisks(1)\">busy</th>\
             <th class=\"sortable\" onclick=\"sortDisks(2)\">utilization</th>\
             </tr>\n",
        );
        for d in disks {
            let pct = d.utilization.clamp(0.0, 1.0) * 100.0;
            let _ = writeln!(
                out,
                "<tr><td>{}</td><td>{:.3}</td>\
                 <td class=\"pct\"><span class=\"pctbar\" style=\"width:{pct:.1}%\">\
                 </span>{:.4}</td></tr>",
                d.disk, d.busy, d.utilization,
            );
        }
        out.push_str(
            "</table>\n<script>\nfunction sortDisks(col){\
             const t=document.getElementById('disks');\
             const rows=Array.from(t.rows).slice(1);\
             const dir=t.dataset.dir==='asc'?-1:1;\
             t.dataset.dir=dir===1?'asc':'desc';\
             rows.sort(function(a,b){return dir*(parseFloat(a.cells[col].textContent)\
             -parseFloat(b.cells[col].textContent));});\
             rows.forEach(function(r){t.appendChild(r);});}\n</script>\n",
        );
    }

    for tid in tids {
        let _ = writeln!(out, "<div class=\"lane\"><h2>track t{tid}</h2>");
        for (row_tid, depth, title, start, dur) in &rows {
            if *row_tid != tid {
                continue;
            }
            let left = *start as f64 / end_ns as f64 * 100.0;
            let width = (*dur as f64 / end_ns as f64 * 100.0).max(0.05);
            let open = if *dur == 0 { " open" } else { "" };
            let _ = writeln!(
                out,
                "<div class=\"row\" style=\"margin-left:{}px\">\
                 <div class=\"bar{open}\" style=\"left:{left:.4}%;width:{width:.4}%\" \
                 title=\"{} @ {:.3}ms +{:.3}ms\">{}</div></div>",
                depth * 8,
                html_escape(title),
                *start as f64 / 1e6,
                *dur as f64 / 1e6,
                html_escape(title),
            );
        }
        out.push_str("</div>\n");
    }
    out.push_str("</body></html>\n");
    out
}

/// Escapes `s` for HTML text and for a double-quoted attribute value.
fn html_escape(s: &str) -> String {
    let s = s.replace('&', "&amp;").replace('<', "&lt;");
    s.replace('>', "&gt;").replace('"', "&quot;")
}

/// Structural validation of Chrome trace JSON, used by tests and by
/// `dmig obs export-trace --check`: parses the document, then checks that
/// every `E` closes the most recent unclosed `B` with the same name on the
/// same track and that timestamps never decrease within a track.
///
/// # Errors
///
/// Returns the first violated invariant as a message.
pub fn validate_chrome_trace(text: &str) -> Result<TraceStats, String> {
    let doc = Value::parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .get_path("traceEvents")
        .and_then(Value::as_array)
        .ok_or("no traceEvents array")?;
    let mut stacks: std::collections::BTreeMap<u64, Vec<String>> =
        std::collections::BTreeMap::new();
    let mut last_ts: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    let mut stats = TraceStats::default();
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get_path("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        let name = ev
            .get_path("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        let tid = ev
            .get_path("tid")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i}: missing tid"))? as u64;
        if ev.get_path("pid").and_then(Value::as_f64).is_none() {
            return Err(format!("event {i}: missing pid"));
        }
        if ph == "M" {
            continue; // Metadata events carry no timestamp.
        }
        let ts = ev
            .get_path("ts")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("event {i}: missing ts"))?;
        let prev = last_ts.entry(tid).or_insert(f64::NEG_INFINITY);
        if ts < *prev {
            return Err(format!(
                "event {i}: ts {ts} decreases on track {tid} (prev {prev})"
            ));
        }
        *prev = ts;
        match ph {
            "B" => {
                stacks.entry(tid).or_default().push(name.to_string());
                stats.begins += 1;
                if !stats.tracks.contains(&tid) {
                    stats.tracks.push(tid);
                }
            }
            "E" => {
                let top = stacks
                    .entry(tid)
                    .or_default()
                    .pop()
                    .ok_or_else(|| format!("event {i}: E without open B on track {tid}"))?;
                if top != name {
                    return Err(format!(
                        "event {i}: E \"{name}\" does not match open B \"{top}\" on track {tid}"
                    ));
                }
                stats.ends += 1;
            }
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
    }
    stats.open = stacks.values().map(Vec::len).sum();
    stats.tracks.sort_unstable();
    Ok(stats)
}

/// Summary returned by [`validate_chrome_trace`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Number of `B` events.
    pub begins: usize,
    /// Number of `E` events.
    pub ends: usize,
    /// `B` events never closed (spans open at snapshot time).
    pub open: usize,
    /// Distinct track ids that carried at least one span.
    pub tracks: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forest() -> Vec<SpanNode> {
        vec![SpanNode {
            name: "solve_sharded".into(),
            label: Some("threads=2".into()),
            thread: 0,
            start_ns: 1_000,
            duration_ns: Some(9_000_000),
            children: vec![
                SpanNode {
                    name: "shard_cell".into(),
                    label: Some("#0".into()),
                    thread: 1,
                    start_ns: 5_000,
                    duration_ns: Some(2_000_000),
                    children: vec![],
                },
                SpanNode {
                    name: "shard_cell".into(),
                    label: Some("#1".into()),
                    thread: 0,
                    start_ns: 6_000,
                    duration_ns: None,
                    children: vec![],
                },
            ],
        }]
    }

    #[test]
    fn chrome_trace_validates_and_tracks_workers() {
        let t = chrome_trace(&forest());
        let stats = validate_chrome_trace(&t).expect("valid trace");
        assert_eq!(stats.begins, 3);
        // `shard_cell #1` never closed, but its same-track parent did: its E
        // is clamped to the parent's end so track 0 stays stack-disciplined.
        assert_eq!(stats.ends, 3);
        assert_eq!(stats.open, 0);
        assert_eq!(stats.tracks, vec![0, 1]);
        assert!(t.contains("\"thread_name\""));
        assert!(t.contains("worker t1"));
    }

    #[test]
    fn fully_open_chain_keeps_lone_begins() {
        let spans = vec![SpanNode {
            name: "solve_sharded".into(),
            label: None,
            thread: 0,
            start_ns: 1_000,
            duration_ns: None,
            children: vec![SpanNode {
                name: "shard_cell".into(),
                label: Some("#0".into()),
                thread: 0,
                start_ns: 2_000,
                duration_ns: None,
                children: vec![],
            }],
        }];
        let stats = validate_chrome_trace(&chrome_trace(&spans)).expect("valid trace");
        assert_eq!(stats.begins, 2);
        assert_eq!(stats.ends, 0, "no closed ancestor to clamp against");
        assert_eq!(stats.open, 2);
    }

    #[test]
    fn validator_rejects_mismatched_and_unordered_events() {
        let bad_pair = r#"{"traceEvents":[
            {"name":"a","ph":"B","pid":0,"tid":0,"ts":1},
            {"name":"b","ph":"E","pid":0,"tid":0,"ts":2}]}"#;
        assert!(validate_chrome_trace(bad_pair)
            .unwrap_err()
            .contains("does not match"));
        let orphan_end = r#"{"traceEvents":[
            {"name":"a","ph":"E","pid":0,"tid":3,"ts":2}]}"#;
        assert!(validate_chrome_trace(orphan_end)
            .unwrap_err()
            .contains("E without open B"));
        let backwards = r#"{"traceEvents":[
            {"name":"a","ph":"B","pid":0,"tid":0,"ts":5},
            {"name":"a","ph":"E","pid":0,"tid":0,"ts":1}]}"#;
        assert!(validate_chrome_trace(backwards)
            .unwrap_err()
            .contains("decreases"));
    }

    #[test]
    fn html_timeline_contains_lanes_and_bars() {
        let html = html_timeline(&forest());
        assert!(html.contains("track t0"));
        assert!(html.contains("track t1"));
        assert!(html.contains("shard_cell #0"));
        assert!(html.contains("class=\"bar open\""), "open span styled");
        assert!(html.contains("self-time rollup"), "flame table embedded");
        assert!(html.starts_with("<!doctype html>"));
    }

    #[test]
    fn html_timeline_embeds_disk_table_and_heatmap() {
        let disks = vec![
            DiskUtilRow {
                disk: 0,
                busy: 4.0,
                utilization: 1.0,
            },
            DiskUtilRow {
                disk: 1,
                busy: 1.0,
                utilization: 0.25,
            },
        ];
        let html = html_timeline_with_disks(&forest(), &disks);
        assert!(html.contains("disk utilization"));
        assert!(html.contains("id=\"disks\""), "sortable table present");
        assert!(html.contains("sortDisks(2)"), "utilization column sorts");
        assert!(html.contains("class=\"heat\""), "heatmap lane present");
        assert!(html.contains("disk 0: 100.0%"));
        // Fully-hot cell renders the hot end of the color ramp.
        assert!(html.contains("rgb(204,51,51)"), "{html}");
        // No disks: the section disappears and the plain renderer matches.
        let plain = html_timeline(&forest());
        assert!(!plain.contains("disk utilization"));
        assert_eq!(plain, html_timeline_with_disks(&forest(), &[]));
    }

    #[test]
    fn html_timeline_escapes_names_and_labels_as_html() {
        let mut spans = forest();
        spans[0].name = "a<b>&\"c".into();
        spans[0].label = Some("x\"y".into());
        let html = html_timeline(&spans);
        let name = "a&lt;b&gt;&amp;&quot;c";
        assert!(!html.contains("<b>"), "{html}");
        assert!(html.contains(&format!("<td>{name}</td>")), "{html}");
        assert!(html.contains(&format!("title=\"{name} x&quot;y @ 0.001ms")));
        assert!(html.contains(&format!(">{name} x&quot;y</div>")), "{html}");
    }

    #[test]
    fn rollup_subtracts_children_and_sorts_by_self_time() {
        let rows = self_time_rollup(&forest());
        // solve_sharded: 9ms total, children 2ms + 0ms (open) → 7ms self.
        // shard_cell: 2ms + 0ms total, no children → 2ms self.
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "solve_sharded");
        assert_eq!(rows[0].count, 1);
        assert_eq!(rows[0].total_ns, 9_000_000);
        assert_eq!(rows[0].self_ns, 7_000_000);
        assert_eq!(rows[1].name, "shard_cell");
        assert_eq!(rows[1].count, 2);
        assert_eq!(rows[1].total_ns, 2_000_000);
        assert_eq!(rows[1].self_ns, 2_000_000);
    }

    #[test]
    fn rollup_self_time_saturates_for_concurrent_children() {
        // Parent 1ms, two concurrent children of 800µs each on other
        // tracks: self time clamps at zero instead of going negative.
        let child = |thread| SpanNode {
            name: "worker".into(),
            label: None,
            thread,
            start_ns: 100,
            duration_ns: Some(800_000),
            children: vec![],
        };
        let spans = vec![SpanNode {
            name: "fanout".into(),
            label: None,
            thread: 0,
            start_ns: 0,
            duration_ns: Some(1_000_000),
            children: vec![child(1), child(2)],
        }];
        let rows = self_time_rollup(&spans);
        let fanout = rows.iter().find(|r| r.name == "fanout").unwrap();
        assert_eq!(fanout.self_ns, 0);
        let worker = rows.iter().find(|r| r.name == "worker").unwrap();
        assert_eq!(worker.count, 2);
        assert_eq!(worker.self_ns, 1_600_000);
    }

    #[test]
    fn rollup_text_renders_aligned_table() {
        let text = render_rollup_text(&self_time_rollup(&forest()));
        let mut lines = text.lines();
        let header = lines.next().unwrap();
        assert!(header.contains("span") && header.contains("self%"));
        assert!(text.contains("solve_sharded"));
        assert!(render_rollup_text(&[]).lines().count() == 1, "header only");
    }
}
