//! End-to-end engine tests: assemble guest programs, run them on the
//! threaded and scheduled engines, and check architectural results.
//!
//! These tests use a deliberately simple CAS-based scheme (equivalent to
//! PICO-CAS) defined locally, so the engine crate is exercised without
//! depending on `adbt-schemes` (which depends on this crate).

use adbt_engine::{
    AtomicScheme, Atomicity, HelperRegistry, MachineConfig, MachineCore, ScriptedScheduler, Trap,
    VcpuOutcome,
};
use adbt_ir::{BlockBuilder, HelperId, Op, Slot, Src};
use adbt_isa::asm::assemble;
use adbt_mmu::Width;

/// A local PICO-CAS-style scheme: LL records address+value via a helper,
/// SC does a host CAS against the recorded value.
struct TestCas {
    ll: Option<HelperId>,
    sc: Option<HelperId>,
}

impl TestCas {
    fn new() -> TestCas {
        TestCas { ll: None, sc: None }
    }
}

impl AtomicScheme for TestCas {
    fn name(&self) -> &'static str {
        "test-cas"
    }

    fn atomicity(&self) -> Atomicity {
        Atomicity::Incorrect
    }

    fn install(&mut self, reg: &mut HelperRegistry) {
        self.ll = Some(reg.register(
            "test_ll",
            Box::new(|ctx, args| {
                let addr = args[0];
                let value = ctx.load(addr, Width::Word)?;
                ctx.cpu.monitor.addr = Some(addr);
                ctx.cpu.monitor.value = value;
                Ok(value)
            }),
        ));
        self.sc = Some(reg.register(
            "test_sc",
            Box::new(|ctx, args| {
                let (addr, new) = (args[0], args[1]);
                ctx.stats.sc += 1;
                let ok = match ctx.cpu.monitor.addr {
                    Some(lladdr) if lladdr == addr => {
                        ctx.cas_word(addr, ctx.cpu.monitor.value, new)?
                    }
                    _ => false,
                };
                ctx.cpu.monitor.addr = None;
                if !ok {
                    ctx.stats.sc_failures += 1;
                }
                Ok(!ok as u32) // strex: 0 = success
            }),
        ));
    }

    fn lower_ll(&self, b: &mut BlockBuilder, rd: Slot, addr: Src) {
        b.push(Op::Helper {
            id: self.ll.expect("installed"),
            args: vec![addr],
            ret: Some(rd),
        });
    }

    fn lower_sc(&self, b: &mut BlockBuilder, rd: Slot, value: Src, addr: Src) {
        b.push(Op::Helper {
            id: self.sc.expect("installed"),
            args: vec![addr, value],
            ret: Some(rd),
        });
    }

    fn lower_clrex(&self, b: &mut BlockBuilder) {
        // Clearing the monitor needs no helper state here; emit nothing.
        let _ = b;
    }
}

fn machine() -> MachineCore {
    MachineCore::new(
        MachineConfig {
            mem_size: 4 << 20,
            ..MachineConfig::default()
        },
        Box::new(TestCas::new()),
    )
    .unwrap()
}

fn run_one(source: &str) -> (MachineCore, VcpuOutcome) {
    let m = machine();
    let image = assemble(source, 0x1000).unwrap();
    m.load_image(&image);
    let mut report = m.run_threaded(m.make_vcpus(1, 0x1000));
    let outcome = report.outcomes.pop().unwrap();
    (m, outcome)
}

/// The exit code is r0; most tests compute into r0 then `svc #0`.
fn exit_code(source: &str) -> i32 {
    let (_, outcome) = run_one(source);
    match outcome {
        VcpuOutcome::Exited(code) => code,
        other => panic!("expected exit, got {other:?}"),
    }
}

#[test]
fn arithmetic_and_branches() {
    // Sum 1..=10 with a countdown loop: 55.
    let code = r#"
        mov r0, #0
        mov r1, #10
    loop:
        add r0, r0, r1
        subs r1, r1, #1
        bne loop
        svc #0
    "#;
    assert_eq!(exit_code(code), 55);
}

#[test]
fn fibonacci_via_function_call() {
    // fib(10) = 55 with an iterative callee entered through bl/bx.
    let code = r#"
        mov r0, #10
        bl fib
        svc #0
    fib:
        mov r2, #0      ; a
        mov r3, #1      ; b
    fib_loop:
        cmp r0, #0
        beq fib_done
        add r4, r2, r3
        mov r2, r3
        mov r3, r4
        sub r0, r0, #1
        b fib_loop
    fib_done:
        mov r0, r2
        bx lr
    "#;
    assert_eq!(exit_code(code), 55);
}

#[test]
fn signed_conditions() {
    // -5 < 3 via blt.
    let code = r#"
        mov r0, #0
        mov r1, #5
        rsb r1, r1, #0      ; r1 = -5
        cmp r1, #3
        blt less
        svc #0
    less:
        mov r0, #1
        svc #0
    "#;
    assert_eq!(exit_code(code), 1);
}

#[test]
fn memory_widths_and_addressing() {
    let code = r#"
        mov32 r5, buffer
        mov32 r1, #0x11223344
        str  r1, [r5]
        ldrb r0, [r5, #3]       ; 0x11
        ldrh r2, [r5]           ; 0x3344
        add  r0, r0, r2         ; 0x3355
        mov  r3, #2
        ldrb r4, [r5, r3]       ; 0x22
        add  r0, r0, r4         ; 0x3377
        strh r0, [r5, #4]
        ldr  r6, [r5, #4]
        cmp  r6, r0
        beq  ok
        mov  r0, #0
    ok:
        svc #0
        .align 8
    buffer:
        .word 0
        .word 0
    "#;
    assert_eq!(exit_code(code), 0x3377);
}

#[test]
fn stack_pushes_through_sp() {
    let code = r#"
        mov  r1, #42
        sub  sp, sp, #8
        str  r1, [sp]
        str  r1, [sp, #4]
        ldr  r0, [sp, #4]
        add  sp, sp, #8
        svc  #0
    "#;
    assert_eq!(exit_code(code), 42);
}

#[test]
fn llsc_single_thread_increment() {
    let code = r#"
        mov32 r5, counter
        mov   r6, #100
    outer:
    retry:
        ldrex r1, [r5]
        add   r1, r1, #1
        strex r2, r1, [r5]
        cmp   r2, #0
        bne   retry
        subs  r6, r6, #1
        bne   outer
        ldr   r0, [r5]
        svc   #0
        .align 8
    counter:
        .word 0
    "#;
    assert_eq!(exit_code(code), 100);
}

#[test]
fn putc_collects_output() {
    let code = r#"
        mov r0, #72     ; 'H'
        svc #1
        mov r0, #105    ; 'i'
        svc #1
        mov r0, #0
        svc #0
    "#;
    let m = machine();
    let image = assemble(code, 0x1000).unwrap();
    m.load_image(&image);
    let report = m.run_threaded(m.make_vcpus(1, 0x1000));
    assert!(report.all_ok());
    assert_eq!(report.output_string(), "Hi");
}

#[test]
fn gettid_and_nthreads_syscalls() {
    // Each thread exits with tid + nthreads; with 3 threads, tids 1..=3.
    let code = r#"
        svc #2          ; r0 = tid
        mov r4, r0
        svc #3          ; r0 = nthreads
        add r0, r0, r4
        svc #0
    "#;
    let m = machine();
    let image = assemble(code, 0x1000).unwrap();
    m.load_image(&image);
    let report = m.run_threaded(m.make_vcpus(3, 0x1000));
    let mut codes: Vec<i32> = report
        .outcomes
        .iter()
        .map(|o| match o {
            VcpuOutcome::Exited(c) => *c,
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    codes.sort_unstable();
    assert_eq!(codes, vec![4, 5, 6]);
}

#[test]
fn undefined_instruction_crashes_cleanly() {
    let (_, outcome) = run_one("udf #9\n");
    match outcome {
        VcpuOutcome::Crashed(Trap::Undefined { addr, info }) => {
            assert_eq!(addr, 0x1000);
            assert_eq!(info, 9);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn unmapped_access_crashes_cleanly() {
    // Address far above memory (still inside 32-bit space): translate
    // reports out-of-range, the scheme declines, the vCPU crashes.
    let (_, outcome) = run_one("mov32 r1, #0xf0000000\nldr r0, [r1]\nsvc #0\n");
    match outcome {
        VcpuOutcome::Crashed(Trap::Fault(_)) => {}
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn bad_syscall_is_reported() {
    let (_, outcome) = run_one("svc #99\n");
    assert_eq!(outcome, VcpuOutcome::Crashed(Trap::BadSyscall { num: 99 }));
}

#[test]
fn threads_with_disjoint_counters_do_not_interfere() {
    // Each thread bumps its own word (tid-indexed) 10000 times.
    let code = r#"
        mov32 r5, counters
        svc   #2            ; r0 = tid (1-based)
        sub   r0, r0, #1
        lsl   r0, r0, #2
        add   r5, r5, r0    ; &counters[tid-1]
        mov   r6, #10000
    loop:
        ldr   r1, [r5]
        add   r1, r1, #1
        str   r1, [r5]
        subs  r6, r6, #1
        bne   loop
        mov   r0, #0
        svc   #0
        .align 64
    counters:
        .space 64
    "#;
    let m = machine();
    let image = assemble(code, 0x1000).unwrap();
    m.load_image(&image);
    let report = m.run_threaded(m.make_vcpus(8, 0x1000));
    assert!(report.all_ok());
    let base = image.symbol("counters").unwrap();
    for i in 0..8 {
        assert_eq!(m.space.load(base + i * 4, Width::Word).unwrap(), 10000);
    }
    assert_eq!(report.stats.stores, 8 * 10000);
    assert!(report.stats.insns >= 8 * 10000 * 4);
}

#[test]
fn scripted_default_schedule_is_deterministic() {
    let code = r#"
        mov32 r5, cell
        svc   #2
        str   r0, [r5]      ; each thread writes its tid
        ldr   r0, [r5]
        svc   #0
        .align 8
    cell:
        .word 0
    "#;
    let run = || {
        let m = MachineCore::new(
            MachineConfig {
                mem_size: 1 << 20,
                max_block_insns: 1,
                ..MachineConfig::default()
            },
            Box::new(TestCas::new()),
        )
        .unwrap();
        let image = assemble(code, 0x1000).unwrap();
        m.load_image(&image);
        let report = m.run_scheduled(
            m.make_vcpus(3, 0x1000),
            &mut ScriptedScheduler::new(),
            10_000,
        );
        report
            .outcomes
            .iter()
            .map(|o| match o {
                VcpuOutcome::Exited(c) => *c,
                other => panic!("unexpected {other:?}"),
            })
            .collect::<Vec<_>>()
    };
    let first = run();
    for _ in 0..3 {
        assert_eq!(run(), first);
    }
}

#[test]
fn scripted_schedule_orders_writes() {
    // Two threads each store their tid to the same cell then exit with
    // the value they read back. Schedule thread 1 (index 1) completely
    // first, then thread 0: the final value must be thread 0's tid.
    let code = r#"
        mov32 r5, cell
        svc   #2
        mov   r4, r0
        str   r4, [r5]
        ldr   r0, [r5]
        svc   #0
        .align 8
    cell:
        .word 0
    "#;
    let m = MachineCore::new(
        MachineConfig {
            mem_size: 1 << 20,
            max_block_insns: 1,
            ..MachineConfig::default()
        },
        Box::new(TestCas::new()),
    )
    .unwrap();
    let image = assemble(code, 0x1000).unwrap();
    m.load_image(&image);
    // 16 atoms of vCPU 1 first (enough to finish), then vCPU 0.
    let mut sched = ScriptedScheduler::from_segments(&[(1, 16), (0, 16)]);
    let report = m.run_scheduled(m.make_vcpus(2, 0x1000), &mut sched, 10_000);
    assert_eq!(report.outcomes[1], VcpuOutcome::Exited(2));
    assert_eq!(report.outcomes[0], VcpuOutcome::Exited(1));
    let cell = image.symbol("cell").unwrap();
    assert_eq!(m.space.load(cell, Width::Word).unwrap(), 1);
}

#[test]
fn stats_profile_counts_llsc_and_stores() {
    let code = r#"
        mov32 r5, cell
        mov   r6, #50
    loop:
        ldrex r1, [r5]
        add   r1, r1, #1
        strex r2, r1, [r5]
        str   r1, [r5, #4]      ; a plain store per iteration
        subs  r6, r6, #1
        bne   loop
        mov   r0, #0
        svc   #0
        .align 8
    cell:
        .word 0
        .word 0
    "#;
    let m = machine();
    let image = assemble(code, 0x1000).unwrap();
    m.load_image(&image);
    let report = m.run_threaded(m.make_vcpus(1, 0x1000));
    assert!(report.all_ok());
    assert_eq!(report.stats.sc, 50);
    assert_eq!(report.stats.stores, 50);
    assert_eq!(report.stats.sc_failures, 0);
    // Translation happened once per block, far fewer than executions.
    assert!(report.stats.translations < report.stats.blocks);
}
