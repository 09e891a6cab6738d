//! Golden pins for the deterministic drivers: every output of the
//! simulated multicore, the litmus interleavings and a scripted
//! instruction-granular LL/SC run must stay byte-identical to the lines
//! in `tests/data/deterministic_pins.txt`. The other suites only check
//! that deterministic runs agree with *themselves*; this one checks them
//! against history, so a refactor of the run loops cannot silently move
//! a schedule, a virtual-time charge or a counter.
//!
//! Each line pins one run: its outcomes, the simulated makespan, the
//! final guest memory words that carry the result, and the merged
//! `VcpuStats::to_json()` with its host-clock fields masked (those time
//! real mutex and `mprotect` work even in deterministic modes). A
//! deliberate behaviour change regenerates the file from the `actual`
//! lines this test prints on a mismatch.

use adbt::harness::run_litmus;
use adbt::workloads::litmus::Seq;
use adbt::workloads::parsec::{self, Program};
use adbt::{MachineBuilder, RunReport, SchemeKind, SimCosts};
use adbt_engine::ScriptedScheduler;

const GOLDEN: &str = include_str!("data/deterministic_pins.txt");

/// `VcpuStats` fields measured on the host clock.
const HOST_CLOCK_FIELDS: [&str; 3] = ["exclusive_ns", "mprotect_ns", "lock_wait_ns"];

fn pin_line(label: &str, report: &RunReport, mem: &[u32]) -> String {
    let json = report.stats.to_json();
    let stats: Vec<String> = json
        .split(',')
        .map(|cell| {
            match HOST_CLOCK_FIELDS.iter().find(|name| {
                cell.trim_start_matches('{')
                    .starts_with(&format!("\"{name}\":"))
            }) {
                Some(name) => format!("\"{name}\":\"host\""),
                None => cell.to_string(),
            }
        })
        .collect();
    format!(
        "{label} outcomes={:?} sim_time={} mem={mem:?} stats={}",
        report.outcomes,
        report.stats.sim_time,
        stats.join(",")
    )
}

/// One PARSEC kernel (fine-grained per-cell LL/SC locks) at tiny
/// scale under the simulated multicore, per scheme.
fn sim_kernel_lines(out: &mut Vec<String>) {
    let program = Program::Fluidanimate;
    let generated = parsec::generate(program, 4, 0.02);
    for kind in SchemeKind::ALL {
        let mut machine = MachineBuilder::new(kind).memory(16 << 20).build().unwrap();
        machine.load_asm(&generated.source, 0x1_0000).unwrap();
        let vcpus = machine.make_vcpus(4, 0x1_0000);
        let report = machine.core().run_sim(vcpus, &SimCosts::default());
        let sync = machine.symbol("sync_page").unwrap();
        let cells = machine.symbol("fine_locks_page").unwrap();
        let barrier = machine.symbol("barrier_page").unwrap();
        let word = |addr: u32| machine.read_word(addr).unwrap();
        let mut mem: Vec<u32> = (0..5).map(|i| word(sync + 4 * i)).collect();
        mem.extend((0..2).map(|i| word(barrier + 4 * i)));
        // Every nonzero fine-lock-page word, as (word index, value).
        for i in 0..1024 {
            let value = word(cells + 4 * i);
            if value != 0 {
                mem.extend([i, value]);
            }
        }
        out.push(pin_line(&format!("sim/{program}/{kind}"), &report, &mem));
    }
}

/// Every Seq1–Seq4 litmus interleaving under every scheme.
fn litmus_lines(out: &mut Vec<String>) {
    for kind in SchemeKind::ALL {
        for seq in Seq::ALL {
            let run = run_litmus(kind, seq).unwrap();
            let label = format!("litmus/{seq}/{kind} conforms={}", run.conforms);
            out.push(pin_line(&label, &run.report, &[run.final_x]));
        }
    }
}

/// A contended LL/SC counter on two vCPUs at one instruction per atom,
/// under a fixed preemptive script: the scheduled driver's dispatch,
/// pause points and event stream.
fn scripted_llsc_lines(out: &mut Vec<String>) {
    const PROGRAM: &str = r#"
        mov32 r5, counter
        mov   r6, #12
    again:
        ldrex r1, [r5]
        add   r1, r1, #1
        strex r2, r1, [r5]
        cmp   r2, #0
        bne   again
        subs  r6, r6, #1
        bne   again
        mov   r0, #0
        svc   #0
        .align 4096
    counter:
        .word 0
    "#;
    let segments: Vec<(usize, u64)> = (0..40u64)
        .map(|i| ((i % 2) as usize, 2 + (i * 7) % 5))
        .collect();
    for kind in SchemeKind::ALL {
        let mut machine = MachineBuilder::new(kind)
            .memory(4 << 20)
            .max_block_insns(1)
            .build()
            .unwrap();
        machine.load_asm(PROGRAM, 0x1_0000).unwrap();
        let vcpus = machine.make_vcpus(2, 0x1_0000);
        let mut sched = ScriptedScheduler::from_segments(&segments);
        let report = machine.run_scheduled(vcpus, &mut sched, 100_000);
        let counter = machine
            .read_word(machine.symbol("counter").unwrap())
            .unwrap();
        let label = format!(
            "scripted/llsc/{kind} trace={} events={}",
            sched.trace(),
            sched.events.len()
        );
        out.push(pin_line(&label, &report, &[counter]));
    }
}

#[test]
fn deterministic_outputs_match_the_golden_pins() {
    let mut actual = Vec::new();
    sim_kernel_lines(&mut actual);
    litmus_lines(&mut actual);
    scripted_llsc_lines(&mut actual);
    let expected: Vec<&str> = GOLDEN.lines().collect();
    let mismatches: Vec<usize> = (0..actual.len().max(expected.len()))
        .filter(|&i| expected.get(i).copied() != actual.get(i).map(String::as_str))
        .collect();
    if !mismatches.is_empty() {
        for &i in &mismatches {
            eprintln!("line {}:", i + 1);
            eprintln!(
                "  expected {}",
                expected.get(i).copied().unwrap_or("<none>")
            );
            eprintln!(
                "  actual   {}",
                actual.get(i).map_or("<none>", String::as_str)
            );
        }
        eprintln!("--- actual ---");
        for line in &actual {
            eprintln!("{line}");
        }
        panic!(
            "{} of {} pinned runs differ from tests/data/deterministic_pins.txt",
            mismatches.len(),
            actual.len()
        );
    }
}
