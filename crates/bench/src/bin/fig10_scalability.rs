//! E3 — Fig. 10: scalability of HST, HST-WEAK, PST and PICO-ST (plus
//! PICO-CAS as the incorrect-but-fast reference) on the seven scalable
//! PARSEC-like kernels, from 1 to 64 threads, normalized to each
//! scheme's own single-thread time.
//!
//! Runs on the simulated multicore (virtual-time makespans; see
//! DESIGN.md). Canneal is excluded exactly as in the paper (~30%
//! parallelism).
//!
//! ```text
//! cargo run --release -p adbt-bench --bin fig10_scalability -- \
//!     [--scale 0.1] [--max-threads 64] [--programs swaptions,x264] [--csv fig10.csv]
//! ```

use adbt::harness::run_parsec_sim;
use adbt::workloads::parsec::Program;
use adbt::SchemeKind;
use adbt_bench::{fmt_f64, thread_ladder, Args, Table};

fn main() {
    let args = Args::parse(&["scale", "max-threads", "programs"], &[]);
    let scale: f64 = args.get("scale", 0.1);
    let max_threads: u32 = args.get("max-threads", 64);
    let schemes = [
        SchemeKind::Hst,
        SchemeKind::HstWeak,
        SchemeKind::Pst,
        SchemeKind::PicoSt,
        SchemeKind::PicoCas,
    ];
    let programs: Vec<Program> = match args.get_list("programs") {
        Some(list) => list,
        None => Program::ALL.into_iter().filter(|p| p.scalable()).collect(),
    };
    let ladder = thread_ladder(max_threads);

    let mut table = Table::new(&["program", "scheme", "threads", "sim_time", "speedup"]);
    for &program in &programs {
        eprintln!("running {program} ...");
        for &scheme in &schemes {
            let mut base = None;
            for &threads in &ladder {
                let run =
                    run_parsec_sim(scheme, program, threads, scale).expect("machine construction");
                assert!(
                    run.valid,
                    "{scheme} x {program} x {threads}: kernel invariants failed"
                );
                let time = run.sim_time().expect("sim run") as f64;
                let base_time = *base.get_or_insert(time);
                table.row(vec![
                    program.name().to_string(),
                    scheme.name().to_string(),
                    threads.to_string(),
                    format!("{time}"),
                    fmt_f64(base_time / time),
                ]);
            }
        }
    }
    table.emit_with_note(
        &args,
        "speedup is normalized to each scheme's own 1-thread time (paper Fig. 10).\n\
             expected shape: hst-weak tracks pico-cas and scales best; hst scales well\n\
             but pays stop-the-world SCs; pst trails on atomic-heavy programs\n\
             (mprotect + suspensions); pico-st scales but from a much slower base.",
    );
}
