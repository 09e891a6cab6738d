//! `perfbench --workload NAME [--seed N] [--seconds N] [--trace 0|1]`:
//! runs one workload for the given time and prints every metric by
//! name and unit, ending with a one-line JSON result.

use adbt_perfbench::bench::{end_to_end, measure, Measurement};
use adbt_perfbench::cli::{self, Args, USAGE};
use adbt_perfbench::reference::NOMINAL_MS;
use adbt_perfbench::report::{self, Metric};
use adbt_perfbench::run::{builder, config_line, SCHEMES};
use adbt_perfbench::{layers, stats};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("perfbench: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if report::peak_rss_mb().is_none() {
        eprintln!("perfbench: cannot read VmHWM from /proc/self/status");
        return ExitCode::from(2);
    }

    let header = format!(
        "workload={} seed={} seconds={} trace={} schemes={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        SCHEMES.map(|k| k.name()).join(","),
    );
    let config = config_line(
        &builder(SCHEMES[0])
            .build()
            .expect("benchmark configuration is valid"),
    );
    println!("perfbench {header}");
    println!("config: {config}");

    // The traced run leaves a quarter of its time to the layer probe.
    let budget = if args.trace {
        Duration::from_secs(args.seconds) * 3 / 4
    } else {
        Duration::from_secs(args.seconds)
    };
    let m = measure(args.workload, args.seed, budget, args.trace);
    print_cells(&m);
    for why in &m.tally.failures {
        println!("FAILED: {why}");
    }
    println!(
        "runs: attempted={} failed={} fail_ratio={} rounds={}",
        m.tally.attempted,
        m.tally.failed,
        m.tally.failed as f64 / m.tally.attempted as f64,
        m.setup_s.len()
    );

    println!(
        "host: reference loop median_ms={} over {} samples; end-to-end times are scaled by \
         nominal {NOMINAL_MS} ms / this median",
        stats::median(&m.reference_ms),
        m.reference_ms.len()
    );
    let metrics: Vec<Metric> = if args.trace {
        traced(&args, &m, &format!("{header} {config}"))
    } else {
        let raw = end_to_end(&m, &m.cells);
        println!(
            "raw: geomean_ms={} {} setup_s={}",
            raw.geomean_ms,
            SCHEMES
                .iter()
                .zip(&raw.scheme_ms)
                .map(|(k, t)| format!("{}={t}", k.name()))
                .collect::<Vec<_>>()
                .join(" "),
            raw.setup_s
        );
        println!(
            "tail_ratio: p90 over {} runs of run time / (cell median x common factor of \
             the program's runs in that round); without the common factor {}",
            raw.tail_samples, raw.plain_tail_ratio
        );
        let rss = report::peak_rss_mb().expect("read above");
        report::end_to_end_metrics(&raw.at_nominal_speed(&m.reference_ms), rss)
    };
    for x in &metrics {
        println!("metric {} = {} {}", x.name, x.value, x.unit);
    }
    println!(
        "{}",
        report::result_json(
            m.tally.failed == 0,
            m.tally.attempted,
            m.tally.failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}

fn print_cells(m: &Measurement) {
    for (p, program) in m.programs.iter().enumerate() {
        for (s, kind) in SCHEMES.iter().enumerate() {
            let runs = &m.cells[p * SCHEMES.len() + s];
            if runs.is_empty() {
                continue;
            }
            println!(
                "cell {program:<12} {:<8} median_ms={:.3} p90_ms={:.3} runs={}",
                kind.name(),
                stats::median(runs),
                stats::quantile(runs, 0.9),
                runs.len()
            );
        }
    }
}

fn traced(args: &Args, m: &Measurement, header: &str) -> Vec<Metric> {
    let times = layers::drive(&m.generated);
    let (metrics, verdict) = report::per_layer_metrics(m, &times);
    for (name, total, own) in report::self_times(&m.spans) {
        println!("span {name:<10} total_ms={total:.3} self_ms={own:.3}");
    }
    let estimates = report::layer_estimates(m, &times);
    for (layer, ns) in estimates {
        println!("layer estimate {layer:<10} {:.3} ms", ns / 1e6);
    }
    println!("{verdict}");
    println!(
        "probe: 1-vCPU walk of {} insns under hst; pst fault routing and htm restarts \
         are reported from the engine's counters (mmu.*, htm.txns, htm.commit_ratio)",
        times.walk_insns
    );
    // Next to the build output, which the repository ignores.
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let path = PathBuf::from(dir).join("perfbench").join(format!(
        "{}-seed{}.trace.json",
        args.workload.name(),
        args.seed
    ));
    match report::write_spans(&path, &m.spans, header) {
        Ok(()) => println!("spans: {} written to {}", m.spans.len(), path.display()),
        Err(e) => println!("spans: could not write {}: {e}", path.display()),
    }
    metrics
}
