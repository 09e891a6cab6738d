//! E2/E7 — Table II: the qualitative scheme matrix (speed / atomicity /
//! portability), plus the executed §IV-A litmus verdicts backing the
//! atomicity column.
//!
//! ```text
//! cargo run --release -p adbt-bench --bin table2_matrix -- [--csv table2.csv]
//! ```

use adbt::harness::{expected_behaviour, run_litmus};
use adbt::workloads::litmus::{Expectation, Seq};
use adbt::SchemeKind;
use adbt_bench::{Args, Table};

fn main() {
    let args = Args::parse(&[], &[]);

    println!("Table II — qualitative comparison (paper §VII):\n");
    let mut table = Table::new(&["approach", "speed", "atomicity", "portability"]);
    for kind in SchemeKind::ALL {
        table.row(vec![
            kind.name().to_string(),
            kind.speed_label().to_string(),
            kind.atomicity().to_string(),
            kind.portability_label().to_string(),
        ]);
    }
    table.emit(&args);

    println!("\nExecuted litmus matrix (§IV-A, Seq1–Seq4, scripted schedule):\n");
    let mut litmus = Table::new(&["scheme", "Seq1", "Seq2", "Seq3", "Seq4", "conforms"]);
    for kind in SchemeKind::ALL {
        let mut cells = Vec::new();
        let mut conforms = true;
        for seq in Seq::ALL {
            let run = run_litmus(kind, seq).expect("litmus run");
            conforms &= run.conforms;
            cells.push(
                match (expected_behaviour(kind, seq), run.sc_status) {
                    (Expectation::RegionRetries, 0) => "retry",
                    (_, 1) => "fails",
                    (_, 0) => "SUCCEEDS",
                    _ => "?",
                }
                .to_string(),
            );
        }
        let mut row = vec![kind.name().to_string()];
        row.extend(cells);
        row.push(if conforms { "yes" } else { "NO" }.to_string());
        litmus.row(row);
    }
    println!("{}", litmus.render());
    println!(
        "`fails` = SC correctly detects the interference; `SUCCEEDS` = the ABA\n\
         hazard (pico-cas everywhere; hst-weak on the plain-store-only Seq1);\n\
         `retry` = HTM region rollback (correct with transaction semantics)."
    );
}
