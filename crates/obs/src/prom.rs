//! Hand-rolled Prometheus text-exposition validator.
//!
//! CI scrapes a *running* alserve daemon and pipes the body through this
//! checker, so a malformed exposition (bad metric name, `# TYPE` after a
//! sample of the same family, non-numeric value, histogram missing its
//! `+Inf` bucket or with non-monotone cumulative counts) fails the build
//! instead of failing the first real Prometheus that scrapes us. Covers
//! the subset of the text format the [`crate::metrics::Registry`] emits:
//! `# HELP` / `# TYPE` comments and `name{labels} value` samples.

use std::collections::BTreeMap;

/// One problem found in an exposition body, with its 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromIssue {
    /// 1-based line number.
    pub line: usize,
    /// What is wrong.
    pub message: String,
}

impl std::fmt::Display for PromIssue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

fn metric_name_ok(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn label_ok(label: &str) -> bool {
    let mut chars = label.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Splits `name{l1="v1",l2="v2"}` into the bare name and label pairs.
fn parse_sample_name(s: &str) -> Option<(String, Vec<(String, String)>)> {
    match s.find('{') {
        None => Some((s.to_owned(), Vec::new())),
        Some(open) => {
            let name = s[..open].to_owned();
            let rest = s[open + 1..].strip_suffix('}')?;
            let mut labels = Vec::new();
            if rest.is_empty() {
                return Some((name, labels));
            }
            // Label values may not contain '"' in our emitter (names are
            // tenant ids / bucket bounds), so a simple comma split holds.
            for pair in rest.split(',') {
                let (k, v) = pair.split_once('=')?;
                let v = v.strip_prefix('"')?.strip_suffix('"')?;
                labels.push((k.to_owned(), v.to_owned()));
            }
            Some((name, labels))
        }
    }
}

/// The metric family a sample belongs to, unwinding histogram/summary
/// sample suffixes.
fn family_of(name: &str, declared: &BTreeMap<String, String>) -> String {
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stripped) = name.strip_suffix(suffix) {
            if declared.get(stripped).is_some_and(|t| t == "histogram") {
                return stripped.to_owned();
            }
        }
    }
    name.to_owned()
}

/// Validates a Prometheus text-exposition body. Empty result = valid.
#[must_use]
pub fn validate_prometheus(body: &str) -> Vec<PromIssue> {
    let mut issues = Vec::new();
    // family -> declared type; family -> cumulative-bucket state.
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut sampled: BTreeMap<String, usize> = BTreeMap::new();
    // (family, labels-without-le) -> (last cumulative count, saw +Inf, line)
    let mut hist: BTreeMap<(String, String), (u64, bool, usize)> = BTreeMap::new();

    let push = |line: usize, message: String, issues: &mut Vec<PromIssue>| {
        issues.push(PromIssue { line, message });
    };

    for (idx, raw) in body.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw.trim_end();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(comment) = trimmed.strip_prefix("# ") {
            let mut parts = comment.splitn(3, ' ');
            let kind = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            match kind {
                "HELP" if !metric_name_ok(name) => {
                    push(
                        line,
                        format!("HELP for invalid metric name `{name}`"),
                        &mut issues,
                    );
                }
                "HELP" => {}
                "TYPE" => {
                    let ty = parts.next().unwrap_or("");
                    if !metric_name_ok(name) {
                        push(
                            line,
                            format!("TYPE for invalid metric name `{name}`"),
                            &mut issues,
                        );
                    }
                    if !matches!(
                        ty,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        push(
                            line,
                            format!("unknown TYPE `{ty}` for `{name}`"),
                            &mut issues,
                        );
                    }
                    if types.insert(name.to_owned(), ty.to_owned()).is_some() {
                        push(line, format!("duplicate TYPE for `{name}`"), &mut issues);
                    }
                    if let Some(&first) = sampled.get(name) {
                        push(
                            line,
                            format!("TYPE for `{name}` after its first sample on line {first}"),
                            &mut issues,
                        );
                    }
                }
                _ => {} // other comments are legal and ignored
            }
            continue;
        }
        // A sample: name{labels} value [timestamp]
        let mut fields = trimmed.split_whitespace();
        let (Some(name_part), Some(value)) = (fields.next(), fields.next()) else {
            push(line, format!("malformed sample `{trimmed}`"), &mut issues);
            continue;
        };
        if value.parse::<f64>().is_err() && !matches!(value, "+Inf" | "-Inf" | "NaN") {
            push(
                line,
                format!("non-numeric sample value `{value}`"),
                &mut issues,
            );
        }
        let Some((name, labels)) = parse_sample_name(name_part) else {
            push(
                line,
                format!("malformed sample name `{name_part}`"),
                &mut issues,
            );
            continue;
        };
        if !metric_name_ok(&name) {
            push(line, format!("invalid metric name `{name}`"), &mut issues);
            continue;
        }
        for (k, _) in &labels {
            if !label_ok(k) {
                push(
                    line,
                    format!("invalid label name `{k}` on `{name}`"),
                    &mut issues,
                );
            }
        }
        let family = family_of(&name, &types);
        sampled.entry(family.clone()).or_insert(line);
        if name.ends_with("_bucket") && types.get(&family).is_some_and(|t| t == "histogram") {
            let le = labels
                .iter()
                .find(|(k, _)| k == "le")
                .map(|(_, v)| v.clone());
            let Some(le) = le else {
                push(
                    line,
                    format!("histogram bucket `{name}` missing le label"),
                    &mut issues,
                );
                continue;
            };
            let others: Vec<String> = labels
                .iter()
                .filter(|(k, _)| k != "le")
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            let key = (family.clone(), others.join(","));
            let cum: u64 = value.parse().unwrap_or(0);
            let entry = hist.entry(key).or_insert((0, false, line));
            if cum < entry.0 {
                push(
                    line,
                    format!(
                        "histogram `{family}` cumulative bucket count decreases ({cum} < {})",
                        entry.0
                    ),
                    &mut issues,
                );
            }
            entry.0 = cum;
            entry.1 |= le == "+Inf";
            entry.2 = line;
        }
    }
    for ((family, labels), (_, saw_inf, line)) in &hist {
        if !saw_inf {
            issues.push(PromIssue {
                line: *line,
                message: format!(
                    "histogram `{family}`{} has no +Inf bucket",
                    if labels.is_empty() {
                        String::new()
                    } else {
                        format!(" ({labels})")
                    }
                ),
            });
        }
    }
    issues
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Registry, CYCLE_BUCKETS};
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn registry_output_validates_clean() {
        let reg = Registry::new(Arc::new(AtomicBool::new(true)));
        reg.counter("alserve_jobs_total", false, "jobs").add(3);
        reg.gauge("alserve_queue_depth", false, "depth").set(2.0);
        reg.histogram(
            "alserve_solve_us{tenant=\"a\"}",
            CYCLE_BUCKETS,
            false,
            "lat",
        )
        .observe(17);
        reg.histogram(
            "alserve_solve_us{tenant=\"b\"}",
            CYCLE_BUCKETS,
            false,
            "lat",
        )
        .observe(90);
        let body = reg.to_prometheus();
        let issues = validate_prometheus(&body);
        assert!(issues.is_empty(), "{issues:?}\n{body}");
    }

    #[test]
    fn rejects_bad_names_values_and_late_type() {
        let issues = validate_prometheus("9bad_name 1\n");
        assert_eq!(issues.len(), 1, "{issues:?}");
        let issues = validate_prometheus("ok_name abc\n");
        assert_eq!(issues.len(), 1, "{issues:?}");
        let body = "m 1\n# TYPE m counter\n";
        let issues = validate_prometheus(body);
        assert!(
            issues
                .iter()
                .any(|i| i.message.contains("after its first sample")),
            "{issues:?}"
        );
    }

    #[test]
    fn rejects_histogram_without_inf_or_nonmonotone() {
        let body = "\
# TYPE h histogram
h_bucket{le=\"1\"} 2
h_bucket{le=\"2\"} 1
h_sum 3
h_count 2
";
        let issues = validate_prometheus(body);
        assert!(
            issues.iter().any(|i| i.message.contains("decreases")),
            "{issues:?}"
        );
        assert!(
            issues.iter().any(|i| i.message.contains("+Inf")),
            "{issues:?}"
        );
    }

    #[test]
    fn empty_body_is_valid() {
        assert!(validate_prometheus("").is_empty());
    }
}
