//! E6 — Table I: the per-program dynamic instruction profile: stores vs
//! LL/SC counts and their ratio (the paper reports stores 88×–3000× more
//! frequent than LL/SC, which is why per-store instrumentation cost
//! dominates scheme performance).
//!
//! The profile is a property of the guest, not the scheme, so one
//! (scheme-independent) run per program suffices; PICO-CAS is used as
//! the cheapest prober.
//!
//! ```text
//! cargo run --release -p adbt-bench --bin table1_profile -- [--scale 0.2] [--csv table1.csv]
//! ```

use adbt::harness::run_parsec_sim;
use adbt::workloads::parsec::Program;
use adbt::SchemeKind;
use adbt_bench::{Args, Table};

fn main() {
    let args = Args::parse(&["scale", "threads"], &[]);
    let scale: f64 = args.get("scale", 0.2);
    let threads: u32 = args.get("threads", 4);

    let mut table = Table::new(&[
        "program",
        "insns",
        "loads",
        "stores",
        "ll",
        "sc",
        "stores_per_llsc",
    ]);
    for program in Program::ALL {
        let run = run_parsec_sim(SchemeKind::PicoCas, program, threads, scale)
            .expect("machine construction");
        assert!(run.valid, "{program}: kernel invariants failed");
        let stats = &run.report.stats;
        let llsc = (stats.ll + stats.sc).max(1);
        table.row(vec![
            program.name().to_string(),
            stats.insns.to_string(),
            stats.loads.to_string(),
            stats.stores.to_string(),
            stats.ll.to_string(),
            stats.sc.to_string(),
            format!("{:.0}", 2.0 * stats.stores as f64 / llsc as f64),
        ]);
    }
    table.emit_with_note(
        &args,
        "paper expectation (Table I): stores outnumber LL/SC by ~88x (atomic-heavy\n\
             programs like canneal/fluidanimate/freqmine) up to ~3000x (blackscholes).",
    );
}
