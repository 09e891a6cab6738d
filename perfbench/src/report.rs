//! Metric derivation and rendering: end-to-end metrics from untraced
//! runs, per-layer metrics from the traced run, the span file, and the
//! closing one-line JSON result.

use crate::bench::{EndToEnd, Measurement, Span};
use crate::gen::{Workload, THREADS};
use crate::layers::LayerTimes;
use crate::run::SCHEMES;
use crate::stats::{geomean, median};
use std::fmt::Write as _;
use std::path::Path;

/// One named metric with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The metric's name.
    pub name: String,
    /// Its unit.
    pub unit: &'static str,
    /// Its value, as measured.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The end-to-end metrics (see README.md for definitions), times at
/// nominal host speed.
pub fn end_to_end_metrics(e: &EndToEnd, peak_rss_mb: f64) -> Vec<Metric> {
    let mut out = vec![metric("geomean_ms", "ms", e.geomean_ms)];
    for (kind, ms) in SCHEMES.iter().zip(&e.scheme_ms) {
        out.push(metric(
            format!("{}_ms", kind.name().replace('-', "_")),
            "ms",
            *ms,
        ));
    }
    out.push(metric("tail_ratio", "ratio", e.tail_ratio));
    out.push(metric("setup_s", "s", e.setup_s));
    out.push(metric("peak_rss_mb", "MB", peak_rss_mb));
    out
}

/// The layers whose estimated time the traced run compares.
const LAYERS: [&str; 7] = [
    "exec",
    "frontend",
    "opt",
    "exclusive",
    "mmu",
    "htm",
    "lifecycle",
];

/// The layers predicted to dominate each workload.
pub fn predicted(workload: Workload) -> &'static [&'static str] {
    match workload {
        Workload::ParsecCompute => &["exec"],
        Workload::ParsecSync => &["exclusive", "mmu", "htm"],
        Workload::ColdCode => &["frontend", "lifecycle"],
    }
}

/// Estimated time per layer over all runs, ns: engine counts from the
/// timed runs × per-call times from the layer probe, or the engine's
/// own timers where the probe cannot reach (mprotect, exclusive wait).
/// `exec` is interpretation, dispatch and inline instrumentation.
pub fn layer_estimates(m: &Measurement, t: &LayerTimes) -> Vec<(&'static str, f64)> {
    let c = &m.tally.counters;
    let s = &c.stats;
    let est = [
        s.insns as f64 * t.ns_per_insn,
        s.translations as f64 * t.translate_us * 1e3,
        s.promotions as f64 * t.optimize_us * 1e3,
        c.exclusive_wait_ns as f64 + c.exclusive_sections as f64 * t.section_ns,
        s.mprotect_ns as f64,
        c.htm.begun as f64 * t.txn_ns,
        c.invalidations as f64 * t.section_ns + c.reclaimed_blocks as f64 * t.grace_ns,
    ];
    LAYERS.into_iter().zip(est).collect()
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Tracing overhead: geomean over cells of traced ÷ untraced median run
/// time, as a percentage above 1.
pub fn tracing_overhead_pct(m: &Measurement) -> f64 {
    let ratios: Vec<f64> = m
        .cells
        .iter()
        .zip(&m.traced_cells)
        .filter(|(u, t)| !u.is_empty() && !t.is_empty())
        .map(|(u, t)| median(t) / median(u))
        .collect();
    if ratios.is_empty() {
        0.0
    } else {
        (geomean(&ratios) - 1.0) * 100.0
    }
}

/// The per-layer metrics plus the dominant-layer verdict line.
pub fn per_layer_metrics(m: &Measurement, t: &LayerTimes) -> (Vec<Metric>, String) {
    let c = &m.tally.counters;
    let s = &c.stats;
    let runs = m.tally.attempted.max(1) as f64;
    let per_run = |v: u64| v as f64 / runs;
    let mut out = vec![
        metric("isa.assemble_ms", "ms", median(&m.assemble_ms)),
        metric("isa.decode_ns", "ns", t.decode_ns),
        metric("core.build_ms", "ms", median(&m.build_ms)),
        metric("core.load_ms", "ms", median(&m.load_ms)),
        metric(
            "frontend.translations",
            "count/run",
            per_run(s.translations),
        ),
        metric("frontend.translate_us", "us", t.translate_us),
        metric(
            "frontend.translations_per_minsn",
            "1/Minsn",
            ratio(s.translations, s.insns) * 1e6,
        ),
        metric("opt.optimize_us", "us", t.optimize_us),
        metric(
            "opt.ops_removed",
            "count/run",
            per_run(s.opt_nzcv_killed + s.opt_const_folded + s.opt_htable_coalesced),
        ),
        metric("tier.promotions", "count/run", per_run(s.promotions)),
        metric("tier.deopts", "count/run", per_run(s.deopts)),
        metric("tier.insn_share", "ratio", ratio(s.tier_insns, s.insns)),
        metric("dispatch.lookups", "count/run", per_run(s.dispatch_lookups)),
        metric(
            "dispatch.chain_ratio",
            "ratio",
            ratio(s.chain_follows, s.chain_follows + s.dispatch_lookups),
        ),
        metric(
            "dispatch.l1_hit_ratio",
            "ratio",
            ratio(s.l1_hits, s.dispatch_lookups),
        ),
        metric("interp.insns", "count/run", per_run(s.insns)),
        metric("interp.stores", "count/run", per_run(s.stores)),
        metric("interp.ns_per_insn", "ns", t.ns_per_insn),
        metric("schemes.htable_sets", "count/run", per_run(s.htable_sets)),
        metric("schemes.store_test_set_ns", "ns", t.store_test_set_ns),
        metric("schemes.try_lock_ns", "ns", t.try_lock_ns),
        metric("schemes.helper_calls", "count/run", per_run(s.helper_calls)),
        metric("schemes.sc", "count/run", per_run(s.sc)),
        metric("schemes.sc_fail_ratio", "ratio", ratio(s.sc_failures, s.sc)),
        metric(
            "schemes.lock_wait_ms",
            "ms/run",
            per_run(s.lock_wait_ns) / 1e6,
        ),
        metric(
            "exclusive.entries",
            "count/run",
            per_run(c.exclusive_sections),
        ),
        metric(
            "exclusive.wait_ms",
            "ms/run",
            per_run(c.exclusive_wait_ns) / 1e6,
        ),
        metric("exclusive.section_ns", "ns", t.section_ns),
        metric("mmu.page_faults", "count/run", per_run(s.page_faults)),
        metric(
            "mmu.false_sharing_faults",
            "count/run",
            per_run(s.false_sharing_faults),
        ),
        metric("mmu.mprotect_calls", "count/run", per_run(s.mprotect_calls)),
        metric("mmu.mprotect_ms", "ms/run", per_run(s.mprotect_ns) / 1e6),
        metric("mmu.protect_ns", "ns", t.protect_ns),
        metric("htm.txns", "count/run", per_run(c.htm.begun)),
        metric(
            "htm.commit_ratio",
            "ratio",
            ratio(c.htm.committed, c.htm.begun),
        ),
        metric("htm.txn_ns", "ns", t.txn_ns),
        metric(
            "lifecycle.invalidations",
            "count/run",
            per_run(c.invalidations),
        ),
        metric(
            "lifecycle.reclaimed_blocks",
            "count/run",
            per_run(c.reclaimed_blocks),
        ),
        metric(
            "lifecycle.cached_blocks",
            "count/run",
            per_run(c.cached_blocks),
        ),
        metric("lifecycle.grace_ns", "ns", t.grace_ns),
    ];

    // Shares of the runs' vCPU time (wall × vCPUs).
    let cpu_ns: f64 =
        m.cells.iter().chain(&m.traced_cells).flatten().sum::<f64>() * 1e6 * f64::from(THREADS);
    let estimates = layer_estimates(m, t);
    let mut attributed = 0.0;
    for (layer, ns) in &estimates {
        attributed += ns;
        out.push(metric(format!("share.{layer}"), "%", ns / cpu_ns * 100.0));
    }
    out.push(metric(
        "share.unattributed",
        "%",
        (cpu_ns - attributed) / cpu_ns * 100.0,
    ));
    let (dominant, _) =
        estimates.iter().copied().fold(
            ("", f64::MIN),
            |best, e| if e.1 > best.1 { e } else { best },
        );
    let expected = predicted(m.workload);
    let held = expected.contains(&dominant);
    out.push(metric("dominant.held", "0/1", if held { 1.0 } else { 0.0 }));
    out.push(metric("trace.overhead_pct", "%", tracing_overhead_pct(m)));
    out.push(metric("host.reference_ms", "ms", median(&m.reference_ms)));
    let verdict = format!(
        "dominant layer on {}: {dominant} (predicted: {}) -> {}",
        m.workload.name(),
        expected.join(" or "),
        if held { "held" } else { "MISSED" }
    );
    (out, verdict)
}

/// The closing result line.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// JSON has no NaN or infinity; those become 0 (a division by nothing).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Per span name: (total ms, self ms) — self time is the span's
/// duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, f64, f64)> {
    let mut child_ms = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ms[p] += (s.end - s.start).as_secs_f64() * 1e3;
        }
    }
    let mut out: Vec<(&'static str, f64, f64)> = Vec::new();
    for (s, child) in spans.iter().zip(child_ms) {
        let total = (s.end - s.start).as_secs_f64() * 1e3;
        match out.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(e) => {
                e.1 += total;
                e.2 += total - child;
            }
            None => out.push((s.name, total, total - child)),
        }
    }
    out
}

/// Writes the spans as Chrome trace-event JSON (loadable in Perfetto).
///
/// # Errors
///
/// I/O errors creating or writing the file.
pub fn write_spans(path: &Path, spans: &[Span], header: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut s = format!(
        "{{\"otherData\": {{\"run\": \"{}\"}}, \"traceEvents\": [",
        header.replace('"', "'")
    );
    for (i, span) in spans.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let (program, scheme) = span.cell.unwrap_or(("", ""));
        let parent = span.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            s,
            "{sep}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {}, \
             \"dur\": {}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"program\": \"{program}\", \
             \"scheme\": \"{scheme}\"}}}}",
            span.name,
            span.start.as_secs_f64() * 1e6,
            (span.end - span.start).as_secs_f64() * 1e6,
        );
    }
    s.push_str("\n]}\n");
    std::fs::write(path, s)
}
