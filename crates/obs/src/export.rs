//! Machine-readable renderings of a [`NetworkSnapshot`].
//!
//! Two formats, both dependency-free:
//!
//! * [`prometheus_text`] — the Prometheus text exposition format.
//!   Every metric gains an `mrnet_` prefix and a `rank` label;
//!   histograms pushed via `MetricsSection::push_histogram` are
//!   detected by their `.count`/`.sum_us`/`.le_*` entry triples and
//!   re-emitted as proper cumulative `_bucket`/`_sum`/`_count` series.
//!   `# HELP` and `# TYPE` come from the catalogue
//!   ([`crate::metrics::METRICS`]); a name it lacks is `untyped`.
//! * [`json_text`] — a stable hand-rolled JSON document, one object
//!   per node with the flat name→value map.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::metrics::{lookup, MetricKind};
use crate::snapshot::{MetricsSection, NetworkSnapshot};

/// Renders the snapshot in the Prometheus text exposition format.
pub fn prometheus_text(snap: &NetworkSnapshot) -> String {
    let mut out = String::new();
    let mut typed: BTreeSet<String> = BTreeSet::new();
    for section in &snap.nodes {
        render_section_prometheus(section, &mut typed, &mut out);
    }
    out
}

fn render_section_prometheus(s: &MetricsSection, typed: &mut BTreeSet<String>, out: &mut String) {
    let bases = histogram_bases(s);
    let rank = s.rank;
    // Histograms first, grouped; then the remaining scalars in order.
    for base in &bases {
        let metric = sanitize(base);
        if typed.insert(metric.clone()) {
            write_header(out, &metric, base, true);
        }
        let mut cum = 0u64;
        let mut saw_inf = false;
        for (name, value) in s.entries() {
            if let Some(le) = name
                .strip_prefix(base.as_str())
                .and_then(|rest| rest.strip_prefix(".le_"))
            {
                cum += value;
                saw_inf |= le == "inf";
                let le = if le == "inf" { "+Inf" } else { le };
                let _ = writeln!(out, "{metric}_bucket{{rank=\"{rank}\",le=\"{le}\"}} {cum}");
            }
        }
        let count = s.get(&format!("{base}.count")).unwrap_or(0);
        if !saw_inf {
            // The catch-all bucket was empty and elided on the wire,
            // but Prometheus requires the +Inf bucket to equal the
            // count.
            let _ = writeln!(
                out,
                "{metric}_bucket{{rank=\"{rank}\",le=\"+Inf\"}} {count}"
            );
        }
        let sum = s.get(&format!("{base}.sum_us")).unwrap_or(0);
        let _ = writeln!(out, "{metric}_sum{{rank=\"{rank}\"}} {sum}");
        let _ = writeln!(out, "{metric}_count{{rank=\"{rank}\"}} {count}");
    }
    for (name, value) in s.entries() {
        if belongs_to_histogram(name, &bases) {
            continue;
        }
        let metric = sanitize(name);
        if typed.insert(metric.clone()) {
            write_header(out, &metric, name, false);
        }
        let _ = writeln!(out, "{metric}{{rank=\"{rank}\"}} {value}");
    }
}

/// Writes the `# HELP` and `# TYPE` lines of `metric`, the exported
/// form of `name`, from `name`'s catalogue entry. Without one (or with
/// one of another shape), it has no help and is `untyped`, or a
/// `histogram` if it was pushed as one.
fn write_header(out: &mut String, metric: &str, name: &str, histogram: bool) {
    let def = lookup(name).filter(|d| (d.kind == MetricKind::Histogram) == histogram);
    if let Some(def) = def {
        let _ = writeln!(out, "# HELP {metric} {}", def.help);
    }
    let kind = match def {
        Some(def) => def.kind.prometheus_type(),
        None if histogram => "histogram",
        None => "untyped",
    };
    let _ = writeln!(out, "# TYPE {metric} {kind}");
}

/// Base names pushed as histograms: every `X` with both `X.count` and
/// `X.sum_us` present.
fn histogram_bases(s: &MetricsSection) -> Vec<String> {
    s.names
        .iter()
        .filter_map(|n| n.strip_suffix(".count"))
        .filter(|base| s.get(&format!("{base}.sum_us")).is_some())
        .map(str::to_owned)
        .collect()
}

fn belongs_to_histogram(name: &str, bases: &[String]) -> bool {
    bases.iter().any(|b| {
        name.strip_prefix(b.as_str())
            .is_some_and(|rest| rest == ".count" || rest == ".sum_us" || rest.starts_with(".le_"))
    })
}

/// Maps a dotted metric name onto the Prometheus charset with the
/// `mrnet_` namespace prefix.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("mrnet_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Renders the snapshot as a JSON document:
/// `{"nodes": [{"rank": N, "metrics": {"name": value, ...}}, ...]}`.
pub fn json_text(snap: &NetworkSnapshot) -> String {
    let mut out = String::from("{\n  \"nodes\": [\n");
    for (i, section) in snap.nodes.iter().enumerate() {
        let _ = write!(out, "    {{\"rank\": {}, \"metrics\": {{", section.rank);
        for (j, (name, value)) in section.entries().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {value}", json_string(name));
        }
        out.push_str("}}");
        if i + 1 < snap.nodes.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Quotes and escapes `s` as a JSON string literal.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Histogram, HistogramSnapshot, HIST_BUCKETS};

    fn sample_snapshot() -> NetworkSnapshot {
        let mut a = MetricsSection::new(0);
        a.push("up.pkts.sent", 12);
        let h = Histogram::new();
        h.record_us(2);
        h.record_us(2);
        h.record_us(900); // bucket le_1024
        h.record_us(u64::MAX); // catch-all
        a.push_histogram("wait_us", &h.snapshot());
        let mut b = MetricsSection::new(3);
        b.push("up.pkts.sent", 7);
        NetworkSnapshot { nodes: vec![a, b] }
    }

    #[test]
    fn prometheus_renders_scalars_with_rank_labels() {
        let text = prometheus_text(&sample_snapshot());
        assert!(text.contains("# TYPE mrnet_up_pkts_sent counter\n"));
        assert!(text.contains("mrnet_up_pkts_sent{rank=\"0\"} 12\n"));
        assert!(text.contains("mrnet_up_pkts_sent{rank=\"3\"} 7\n"));
        // The TYPE line appears once, not per rank.
        assert_eq!(text.matches("# TYPE mrnet_up_pkts_sent").count(), 1);
    }

    #[test]
    fn prometheus_takes_help_and_type_from_the_catalogue() {
        let mut s = MetricsSection::new(1);
        s.push("loop.turns", 3);
        s.push("conn.4.send.queue_depth", 5);
        s.push("tool.samples", 9);
        s.push_histogram("batch.pkts", &HistogramSnapshot::empty());
        let text = prometheus_text(&NetworkSnapshot { nodes: vec![s] });
        let header = |metric: &str, name: &str, kind: &str| {
            let help = crate::metrics::lookup(name).unwrap().help;
            format!("# HELP mrnet_{metric} {help}\n# TYPE mrnet_{metric} {kind}\n")
        };
        assert!(text.contains(&header("loop_turns", "loop.turns", "counter")));
        let conn = header(
            "conn_4_send_queue_depth",
            "conn.<rank>.send.queue_depth",
            "gauge",
        );
        assert!(text.contains(&conn));
        assert!(text.contains(&header("batch_pkts", "batch.pkts", "histogram")));
        // A name the catalogue lacks is untyped and has no help.
        assert!(text.contains("\n# TYPE mrnet_tool_samples untyped\nmrnet_tool_samples{"));
        assert_eq!(text.matches("# HELP").count(), 3);
    }

    #[test]
    fn prometheus_histograms_are_cumulative_with_inf() {
        let text = prometheus_text(&sample_snapshot());
        // Not catalogued: typed by its shape, with no help.
        assert!(text.contains("# TYPE mrnet_wait_us histogram\n"));
        assert!(!text.contains("# HELP mrnet_wait_us"));
        assert!(text.contains("mrnet_wait_us_bucket{rank=\"0\",le=\"2\"} 2\n"));
        assert!(text.contains("mrnet_wait_us_bucket{rank=\"0\",le=\"1024\"} 3\n"));
        assert!(text.contains("mrnet_wait_us_bucket{rank=\"0\",le=\"+Inf\"} 4\n"));
        assert!(text.contains("mrnet_wait_us_count{rank=\"0\"} 4\n"));
        // The raw .count/.sum_us/.le_* entries are not re-emitted as
        // scalar series.
        assert!(!text.contains("mrnet_wait_us_count{rank=\"0\"} 4\n\nmrnet_wait_us_count_count"));
        assert!(!text.contains("mrnet_wait_us_le_"));
    }

    #[test]
    fn prometheus_emits_inf_bucket_even_when_catchall_empty() {
        let mut hs = HistogramSnapshot {
            buckets: [0; HIST_BUCKETS],
            count: 5,
            sum_us: 10,
        };
        hs.buckets[1] = 5;
        let mut s = MetricsSection::new(2);
        s.push_histogram("lat", &hs);
        let text = prometheus_text(&NetworkSnapshot { nodes: vec![s] });
        assert!(text.contains("mrnet_lat_bucket{rank=\"2\",le=\"+Inf\"} 5\n"));
    }

    #[test]
    fn json_is_wellformed_and_complete() {
        let text = json_text(&sample_snapshot());
        assert!(text.starts_with("{\n  \"nodes\": [\n"));
        assert!(text.contains("{\"rank\": 0, \"metrics\": {"));
        assert!(text.contains("\"up.pkts.sent\": 12"));
        assert!(text.contains("\"wait_us.count\": 4"));
        assert!(text.contains("{\"rank\": 3, \"metrics\": {\"up.pkts.sent\": 7}}"));
        assert!(text.trim_end().ends_with('}'));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(text.matches('{').count(), text.matches('}').count());
        assert_eq!(text.matches('[').count(), text.matches(']').count());
    }

    #[test]
    fn json_escapes_hostile_names() {
        let mut s = MetricsSection::new(1);
        s.push("weird\"name\\with\nstuff", 1);
        let text = json_text(&NetworkSnapshot { nodes: vec![s] });
        assert!(text.contains("\"weird\\\"name\\\\with\\nstuff\": 1"));
    }
}
