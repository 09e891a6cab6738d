//! E4 — Fig. 11: the HTM-backed schemes. PICO-HTM is competitive at low
//! thread counts (no store instrumentation at all) but collapses past
//! ~8 threads (translator work inside transactions + conflict storms),
//! while HST-HTM keeps scaling because only the SC critical section is
//! transactional.
//!
//! ```text
//! cargo run --release -p adbt-bench --bin fig11_htm -- \
//!     [--scale 0.1] [--max-threads 32] [--csv fig11.csv]
//! ```

use adbt::harness::run_parsec_sim;
use adbt::workloads::parsec::Program;
use adbt::{SchemeKind, VcpuOutcome};
use adbt_bench::{fmt_f64, thread_ladder, Args, Table};

fn main() {
    let args = Args::parse(&["scale", "max-threads", "programs"], &[]);
    let scale: f64 = args.get("scale", 0.1);
    let max_threads: u32 = args.get("max-threads", 32);
    let programs: Vec<Program> = match args.get_list("programs") {
        Some(list) => list,
        None => vec![
            Program::Fluidanimate,
            Program::Freqmine,
            Program::Swaptions,
            Program::Bodytrack,
        ],
    };
    let schemes = [SchemeKind::HstHtm, SchemeKind::PicoHtm, SchemeKind::Hst];
    let ladder = thread_ladder(max_threads);

    let mut table = Table::new(&[
        "program", "scheme", "threads", "sim_time", "speedup", "txns", "aborts", "status",
    ]);
    for &program in &programs {
        eprintln!("running {program} ...");
        for &scheme in &schemes {
            let mut base = None;
            for &threads in &ladder {
                let run =
                    run_parsec_sim(scheme, program, threads, scale).expect("machine construction");
                let livelocked = run
                    .report
                    .outcomes
                    .iter()
                    .any(|o| matches!(o, VcpuOutcome::Livelocked { .. }));
                let status = if livelocked {
                    "LIVELOCK"
                } else if run.valid {
                    "ok"
                } else {
                    "INVALID"
                };
                let time = run.sim_time().unwrap_or(u64::MAX) as f64;
                let speedup = match (livelocked, base) {
                    (true, _) => "-".to_string(),
                    (false, None) => {
                        base = Some(time);
                        fmt_f64(1.0)
                    }
                    (false, Some(b)) => fmt_f64(b / time),
                };
                table.row(vec![
                    program.name().to_string(),
                    scheme.name().to_string(),
                    threads.to_string(),
                    if livelocked {
                        "-".to_string()
                    } else {
                        format!("{}", time as u64)
                    },
                    speedup,
                    run.report.stats.htm_txns.to_string(),
                    run.report.stats.htm_aborts.to_string(),
                    status.to_string(),
                ]);
            }
        }
    }
    table.emit_with_note(
        &args,
        "paper expectation (Fig. 11): pico-htm is fast at <=8 threads, then aborts\n\
             storm and it stops making progress; hst-htm keeps working to 32 threads.",
    );
}
