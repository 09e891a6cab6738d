//! The §IV-A atomicity analysis, executed: run the four ABA sequences
//! (Seq1–Seq4) under every scheme on a pinned schedule and print
//! which SCs correctly fail.
//!
//! ```text
//! cargo run --release --example litmus_matrix
//! ```

use adbt::harness::{expected_behaviour, run_litmus};
use adbt::workloads::litmus::{Expectation, Seq};
use adbt::SchemeKind;

fn main() -> Result<(), adbt::Error> {
    println!(
        "{:<10} {:>8} {:>8} {:>8} {:>8}   verdict",
        "scheme", "Seq1", "Seq2", "Seq3", "Seq4"
    );
    for kind in SchemeKind::ALL {
        let mut cells = Vec::new();
        let mut all_conform = true;
        for seq in Seq::ALL {
            let run = run_litmus(kind, seq)?;
            all_conform &= run.conforms;
            let cell = match (expected_behaviour(kind, seq), run.sc_status) {
                (Expectation::RegionRetries, 0) => "retry",
                (_, 1) => "fails",
                (_, 0) => "SUCCEEDS",
                _ => "?",
            };
            cells.push(cell.to_string());
        }
        let verdict = match kind {
            SchemeKind::PicoCas => "incorrect (ABA-prone, as shipped in QEMU-4.1)",
            SchemeKind::HstWeak => "weak atomicity (misses plain-store-only Seq1)",
            SchemeKind::PicoHtm => "strong via region transactions (aborts + retries)",
            _ => "strong atomicity",
        };
        println!(
            "{:<10} {:>8} {:>8} {:>8} {:>8}   {}{}",
            kind.name(),
            cells[0],
            cells[1],
            cells[2],
            cells[3],
            verdict,
            if all_conform {
                ""
            } else {
                " [UNEXPECTED BEHAVIOUR]"
            }
        );
    }
    println!(
        "\n`fails`    = the SC correctly detects the interference and fails\n\
         `SUCCEEDS` = the SC wrongly succeeds (the ABA hazard)\n\
         `retry`    = the LL→SC region aborted and re-executed (HTM semantics)"
    );
    Ok(())
}
