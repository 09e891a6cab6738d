//! The machine-readable metrics plane: `adbt_run --metrics out.jsonl`.
//!
//! One JSON object per line, schema `adbt-metrics-v1`. Threaded runs
//! emit periodic snapshots plus a final one; deterministic modes emit
//! the final snapshot only. Every line carries cache occupancy and a
//! profile summary; the final line additionally carries the full merged
//! `VcpuStats` (per-vCPU stats live in thread-owned execution contexts
//! and are not observable mid-run, so periodic lines omit them rather
//! than lie with stale numbers).
//!
//! The engine-side payloads (stats, occupancy, chaos, HTM) render
//! themselves to JSON in their home crates; this module composes the
//! line envelope and ships the validator CI runs on the emitter's own
//! output. `adbt_run --stats-json` reuses the final-line schema as a
//! single stdout object.

use crate::{Metric, ProfileSnapshot};
use adbt_trace::validate::{parse_json, Json};

/// The schema tag every line carries.
pub const SCHEMA: &str = "adbt-metrics-v1";

/// Renders the profile-summary object embedded in each line: row and
/// drop counts plus machine-wide totals per metric (zero metrics
/// omitted to keep periodic lines small).
pub fn profile_summary(snapshot: &ProfileSnapshot) -> String {
    let mut totals = [0u64; Metric::COUNT];
    for entry in &snapshot.entries {
        for (dst, src) in totals.iter_mut().zip(entry.counts) {
            *dst += src;
        }
    }
    for (dst, src) in totals.iter_mut().zip(snapshot.overflow.counts) {
        *dst += src;
    }
    let mut out = format!(
        "{{\"entries\":{},\"dropped\":{},\"totals\":{{",
        snapshot.entries.len(),
        snapshot.overflow.drops
    );
    let mut first = true;
    for metric in Metric::ALL {
        let total = totals[metric as usize];
        if total == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\"{}\":{}", metric.name(), total));
    }
    out.push_str("}}");
    out
}

/// Composes one metrics line. `extras` are `(key, pre-rendered JSON
/// value)` pairs from the engine side — occupancy, chaos, HTM, and (on
/// the final line) the merged stats block.
pub fn render_line(
    seq: u64,
    is_final: bool,
    elapsed_ns: u64,
    scheme: &str,
    profile: &str,
    extras: &[(&str, String)],
) -> String {
    let mut out = format!(
        "{{\"schema\":\"{SCHEMA}\",\"seq\":{seq},\"final\":{is_final},\
         \"elapsed_ns\":{elapsed_ns},\"scheme\":\"{scheme}\",\"profile\":{profile}"
    );
    for (key, value) in extras {
        out.push_str(&format!(",\"{key}\":{value}"));
    }
    out.push('}');
    out
}

fn check_profile(line: &Json, n: usize) -> Result<(), String> {
    let Some(profile) = line.get("profile") else {
        return Err(format!("line {n}: missing profile"));
    };
    if matches!(profile, Json::Null) {
        return Ok(()); // profiling was off for this run
    }
    for key in ["entries", "dropped"] {
        match profile.get(key).and_then(Json::as_num) {
            Some(v) if v >= 0.0 => {}
            _ => return Err(format!("line {n}: profile missing numeric {key}")),
        }
    }
    let Some(Json::Obj(totals)) = profile.get("totals") else {
        return Err(format!("line {n}: profile missing totals object"));
    };
    for (key, value) in totals {
        if Metric::from_name(key).is_none() {
            return Err(format!("line {n}: unknown metric `{key}` in totals"));
        }
        if value.as_num().filter(|v| *v >= 0.0).is_none() {
            return Err(format!("line {n}: non-numeric total `{key}`"));
        }
    }
    Ok(())
}

/// The exclusive-barrier block, when a line carries one: every counter
/// present and numeric, and no more entries released by spinning or
/// sleeping than entered (`spun + slept <= sections`).
fn check_exclusive(line: &Json, n: usize) -> Result<(), String> {
    let Some(block) = line.get("exclusive") else {
        return Ok(());
    };
    let mut values = [0.0; 4];
    for (value, key) in values
        .iter_mut()
        .zip(["sections", "wait_ns", "spun", "slept"])
    {
        *value = block
            .get(key)
            .and_then(Json::as_num)
            .filter(|v| *v >= 0.0)
            .ok_or_else(|| format!("line {n}: exclusive block missing numeric {key}"))?;
    }
    let [sections, _, spun, slept] = values;
    if spun + slept > sections {
        return Err(format!(
            "line {n}: exclusive spun {spun} + slept {slept} exceeds sections {sections}"
        ));
    }
    Ok(())
}

/// The in-tree validator: every line parses, carries the schema tag,
/// `seq` counts up from 0, exactly the last line is `final` (and
/// carries the merged stats block), occupancy is present throughout,
/// the exclusive block (if any) is consistent, and profile summaries
/// only name metrics this build knows.
pub fn validate_metrics_jsonl(text: &str) -> Result<usize, String> {
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    if lines.is_empty() {
        return Err("no metrics lines".to_string());
    }
    for (i, raw) in lines.iter().enumerate() {
        let n = i + 1;
        let line = parse_json(raw).map_err(|e| format!("line {n}: {e}"))?;
        match line.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            other => return Err(format!("line {n}: bad schema tag {other:?}")),
        }
        match line.get("seq").and_then(Json::as_num) {
            Some(seq) if seq == i as f64 => {}
            other => return Err(format!("line {n}: seq {other:?}, want {i}")),
        }
        let is_last = i + 1 == lines.len();
        match line.get("final") {
            Some(Json::Bool(b)) if *b == is_last => {}
            _ => {
                return Err(format!(
                    "line {n}: final flag must be {is_last} (only the last line is final)"
                ))
            }
        }
        if line
            .get("elapsed_ns")
            .and_then(Json::as_num)
            .filter(|v| *v >= 0.0)
            .is_none()
        {
            return Err(format!("line {n}: missing numeric elapsed_ns"));
        }
        if line.get("scheme").and_then(Json::as_str).is_none() {
            return Err(format!("line {n}: missing scheme"));
        }
        if !matches!(line.get("occupancy"), Some(Json::Obj(_))) {
            return Err(format!("line {n}: missing occupancy object"));
        }
        check_profile(&line, n)?;
        check_exclusive(&line, n)?;
        if is_last && !matches!(line.get("stats"), Some(Json::Obj(_))) {
            return Err(format!("line {n}: final line must carry the stats block"));
        }
    }
    Ok(lines.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProfileEntry, Tier};

    fn snapshot() -> ProfileSnapshot {
        let mut entry = ProfileEntry {
            pc: 0x1_0000,
            tier: Tier::Block,
            counts: [0; Metric::COUNT],
        };
        entry.counts[Metric::ScFail as usize] = 4;
        entry.counts[Metric::MonitorClear as usize] = 2;
        let mut snap = ProfileSnapshot {
            entries: vec![entry],
            overflow: Default::default(),
        };
        snap.overflow.counts[Metric::ScFail as usize] = 1;
        snap.overflow.drops = 1;
        snap
    }

    fn line(seq: u64, is_final: bool, with_stats: bool) -> String {
        let mut extras = vec![
            ("occupancy", "{\"blocks\":3}".to_string()),
            (
                "exclusive",
                "{\"sections\":5,\"wait_ns\":900,\"spun\":3,\"slept\":1}".to_string(),
            ),
        ];
        if with_stats {
            extras.push(("stats", "{\"insns\":100}".to_string()));
        }
        render_line(
            seq,
            is_final,
            1234,
            "hst",
            &profile_summary(&snapshot()),
            &extras,
        )
    }

    #[test]
    fn emitted_stream_validates() {
        let text = format!(
            "{}\n{}\n{}\n",
            line(0, false, false),
            line(1, false, false),
            line(2, true, true)
        );
        assert_eq!(validate_metrics_jsonl(&text).unwrap(), 3);
    }

    #[test]
    fn summary_totals_include_overflow_and_skip_zeros() {
        let summary = profile_summary(&snapshot());
        let parsed = parse_json(&summary).unwrap();
        assert_eq!(
            parsed
                .get("totals")
                .and_then(|t| t.get("sc_fail"))
                .and_then(Json::as_num),
            Some(5.0),
            "overflow bucket must count toward totals"
        );
        assert!(parsed.get("totals").unwrap().get("deopt").is_none());
        assert_eq!(parsed.get("dropped").and_then(Json::as_num), Some(1.0));
    }

    #[test]
    fn validator_rejects_broken_streams() {
        assert!(validate_metrics_jsonl("")
            .unwrap_err()
            .contains("no metrics"));
        let bad_seq = format!("{}\n{}\n", line(0, false, false), line(5, true, true));
        assert!(validate_metrics_jsonl(&bad_seq)
            .unwrap_err()
            .contains("seq"));
        let no_final = format!("{}\n", line(0, false, false));
        assert!(validate_metrics_jsonl(&no_final)
            .unwrap_err()
            .contains("final"));
        let no_stats = format!("{}\n", line(0, true, false));
        assert!(validate_metrics_jsonl(&no_stats)
            .unwrap_err()
            .contains("stats"));
        let cooked = line(0, true, true).replace("sc_fail", "sc_failz");
        assert!(validate_metrics_jsonl(&cooked)
            .unwrap_err()
            .contains("unknown metric"));
    }

    #[test]
    fn validator_checks_the_exclusive_block() {
        let no_spun = line(0, true, true).replace("\"spun\":3,", "");
        assert!(validate_metrics_jsonl(&no_spun)
            .unwrap_err()
            .contains("missing numeric spun"));
        let overcounted = line(0, true, true).replace("\"slept\":1", "\"slept\":3");
        assert!(validate_metrics_jsonl(&overcounted)
            .unwrap_err()
            .contains("exceeds sections"));
    }
}
