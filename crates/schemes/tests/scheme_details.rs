//! Targeted per-scheme behaviour tests: PST's page-protection lifecycle,
//! HST's benign hash collisions, and PST-REMAP's remap window under
//! concurrent readers.

use adbt_engine::{MachineConfig, MachineCore, ScriptedScheduler, VcpuOutcome};
use adbt_isa::asm::assemble;
use adbt_mmu::{Perms, Width};
use adbt_schemes::SchemeKind;

fn machine_with(kind: SchemeKind, config: MachineConfig) -> MachineCore {
    MachineCore::new(config, kind.build()).unwrap()
}

/// PST protection lifecycle, run on one deterministic vCPU: the page is
/// writable before LL, read-only while the monitor is armed, and
/// writable again after the SC retires the last monitor.
#[test]
fn pst_protection_follows_the_monitor() {
    let program = r#"
        mov32 r5, var
        ldrex r1, [r5]          ; arm: page goes read-only
        add   r1, r1, #1
        strex r2, r1, [r5]      ; retire: page back to RWX
        mov   r0, r2
        svc   #0
        .align 4096
    var:
        .word 10
    "#;
    let m = machine_with(
        SchemeKind::Pst,
        MachineConfig {
            mem_size: 2 << 20,
            max_block_insns: 1,
            ..MachineConfig::default()
        },
    );
    let image = assemble(program, 0x1_0000).unwrap();
    m.load_image(&image);
    let var = image.symbol("var").unwrap();
    let page = var >> 12;
    assert_eq!(m.space.perms(page), Some(Perms::RWX), "before run");

    // The run goes to completion, so verify the protection effects via
    // the fault statistics and final state.
    let report = m.run_scheduled(
        m.make_vcpus(1, 0x1_0000),
        &mut ScriptedScheduler::new(),
        10_000,
    );
    assert_eq!(report.outcomes[0], VcpuOutcome::Exited(0));
    assert_eq!(m.space.load(var, Width::Word).unwrap(), 11);
    assert_eq!(
        m.space.perms(page),
        Some(Perms::RWX),
        "page must end unprotected"
    );
    // One protect (LL) + one reopen + (no re-protect: last monitor).
    assert!(report.stats.mprotect_calls >= 2);
}

/// Two PST monitors on the same page: the page stays protected until the
/// *last* monitor retires.
#[test]
fn pst_shared_page_stays_protected_until_last_monitor() {
    // Thread 0 arms on var0, thread 1 arms on var1 (same page), then
    // each SCs. Explicit schedule interleaves: LL0, LL1, SC0, SC1.
    let program = r#"
        mov32 r5, var0
        svc   #2
        cmp   r0, #2
        beq   second
        ldrex r1, [r5]
        add   r1, r1, #1
        strex r2, r1, [r5]
        mov   r0, r2
        svc   #0
    second:
        add   r5, r5, #64       ; var1, same page
        ldrex r1, [r5]
        add   r1, r1, #2
        strex r2, r1, [r5]
        mov   r0, r2
        svc   #0
        .align 4096
    var0:
        .word 5
        .space 60
        .word 7                 ; var1 at +64
    "#;
    let m = machine_with(
        SchemeKind::Pst,
        MachineConfig {
            mem_size: 2 << 20,
            max_block_insns: 1,
            ..MachineConfig::default()
        },
    );
    let image = assemble(program, 0x1_0000).unwrap();
    m.load_image(&image);
    // t0: movw,movt,svc,cmp,beq,ldrex = 6 atoms. t1: movw,movt,svc,cmp,
    // beq,add,ldrex = 7 atoms. Then t0 finishes, then t1.
    let mut sched = ScriptedScheduler::from_segments(&[(0, 6), (1, 7), (0, 8), (1, 8)]);
    let report = m.run_scheduled(m.make_vcpus(2, 0x1_0000), &mut sched, 10_000);
    assert_eq!(
        report.outcomes[0],
        VcpuOutcome::Exited(0),
        "t0 SC must succeed"
    );
    assert_eq!(
        report.outcomes[1],
        VcpuOutcome::Exited(0),
        "t1 SC must succeed"
    );
    let var0 = image.symbol("var0").unwrap();
    assert_eq!(m.space.load(var0, Width::Word).unwrap(), 6);
    assert_eq!(m.space.load(var0 + 64, Width::Word).unwrap(), 9);
    assert_eq!(m.space.perms(var0 >> 12), Some(Perms::RWX));
}

/// HST hash collisions are benign (paper §III-A): a store to a
/// *different* address that hashes to the same entry makes the SC fail
/// spuriously, and the guest's retry loop recovers.
#[test]
fn hst_hash_collision_fails_sc_but_retry_recovers() {
    // With the default 2^16-entry table, addresses 4*2^16 bytes apart
    // collide. var at `var`, collider at `var + 0x40000`.
    let program = r#"
        mov32 r5, var
        mov32 r7, var+0x40000   ; collides with var in the 2^16-entry table
        svc   #2
        cmp   r0, #2
        beq   storer
        mov   r6, #0            ; retry counter
    retry:
        add   r6, r6, #1
        ldrex r1, [r5]
        add   r1, r1, #1
        strex r2, r1, [r5]
        cmp   r2, #0
        bne   retry
        mov   r0, r6            ; exit code = attempts taken
        svc   #0
    storer:
        mov   r1, #9
        str   r1, [r7]          ; colliding-entry store
        mov   r0, #0
        svc   #0
        .align 4096
    var:
        .word 0
    "#;
    let m = machine_with(
        SchemeKind::Hst,
        MachineConfig {
            mem_size: 2 << 20,
            max_block_insns: 1,
            ..MachineConfig::default()
        },
    );
    let image = assemble(program, 0x1_0000).unwrap();
    m.load_image(&image);
    let var = image.symbol("var").unwrap();
    // Verify the collision premise against the real table.
    assert_eq!(
        m.store_test.index(var),
        m.store_test.index(var + 0x40000),
        "test addresses must collide (var = {var:#x})"
    );
    // Script: t0 through its LL (movw,movt,movw,movt,svc,cmp,beq,mov,
    // add,ldrex(HtableSet+MonitorArm in one atom) = 10 atoms), then the
    // storer completely, then t0.
    let mut sched = ScriptedScheduler::from_segments(&[(0, 10), (1, 16), (0, 32)]);
    let report = m.run_scheduled(m.make_vcpus(2, 0x1_0000), &mut sched, 10_000);
    let attempts = match report.outcomes[0] {
        VcpuOutcome::Exited(code) => code,
        ref other => panic!("{other:?}"),
    };
    assert!(
        attempts >= 2,
        "the colliding store must have stolen the entry once (attempts = {attempts})"
    );
    assert_eq!(
        m.space.load(var, Width::Word).unwrap(),
        1,
        "retry recovered"
    );
    assert!(report.stats.sc_failures >= 1);
}

/// The same interleaving under HST-WEAK does NOT fail the SC: the
/// colliding access is a plain store, which weak atomicity ignores.
#[test]
fn hst_weak_ignores_colliding_plain_stores() {
    let program = r#"
        mov32 r5, var
        mov32 r7, var+0x40000
        svc   #2
        cmp   r0, #2
        beq   storer
        mov   r6, #0
    retry:
        add   r6, r6, #1
        ldrex r1, [r5]
        add   r1, r1, #1
        strex r2, r1, [r5]
        cmp   r2, #0
        bne   retry
        mov   r0, r6
        svc   #0
    storer:
        mov   r1, #9
        str   r1, [r7]
        mov   r0, #0
        svc   #0
        .align 4096
    var:
        .word 0
    "#;
    let m = machine_with(
        SchemeKind::HstWeak,
        MachineConfig {
            mem_size: 2 << 20,
            max_block_insns: 1,
            ..MachineConfig::default()
        },
    );
    let image = assemble(program, 0x1_0000).unwrap();
    m.load_image(&image);
    let mut sched = ScriptedScheduler::from_segments(&[(0, 10), (1, 16), (0, 32)]);
    let report = m.run_scheduled(m.make_vcpus(2, 0x1_0000), &mut sched, 10_000);
    assert_eq!(
        report.outcomes[0],
        VcpuOutcome::Exited(1),
        "first attempt must succeed: stores are not instrumented"
    );
    assert_eq!(report.stats.sc_failures, 0);
}

/// PST-REMAP under real threads: a reader hammering the monitored page
/// while a writer runs SCs must always see one of the legal values
/// (remap windows block or retry the reader; nothing tears).
#[test]
fn pst_remap_readers_survive_remap_windows() {
    let program = r#"
        mov32 r5, var
        svc   #2
        cmp   r0, #2
        beq   reader
        ; writer: 300 increments via LL/SC (each SC = remap window)
        mov   r6, #300
    wloop:
    retry:
        ldrex r1, [r5]
        add   r1, r1, #1
        strex r2, r1, [r5]
        cmp   r2, #0
        bne   retry
        subs  r6, r6, #1
        bne   wloop
        mov   r0, #0
        svc   #0
    reader:
        ; reader: loads the var and its neighbour 2000 times; values must
        ; be monotone (var only ever increments).
        mov   r6, #2000
        mov   r4, #0            ; last seen
    rloop:
        ldr   r1, [r5]
        cmp   r1, r4
        blt   bad
        mov   r4, r1
        ldr   r2, [r5, #8]      ; neighbour on the same page
        subs  r6, r6, #1
        bne   rloop
        mov   r0, #0
        svc   #0
    bad:
        mov   r0, #1
        svc   #0
        .align 4096
    var:
        .word 0
        .word 0
        .word 0xabcd
    "#;
    let m = machine_with(
        SchemeKind::PstRemap,
        MachineConfig {
            mem_size: 2 << 20,
            ..MachineConfig::default()
        },
    );
    let image = assemble(program, 0x1_0000).unwrap();
    m.load_image(&image);
    let report = m.run_threaded(m.make_vcpus(2, 0x1_0000));
    assert!(
        report.all_ok(),
        "reader observed a non-monotone value or crashed: {:?}",
        report.outcomes
    );
    let var = image.symbol("var").unwrap();
    assert_eq!(m.space.load(var, Width::Word).unwrap(), 300);
    assert_eq!(m.space.load(var + 8, Width::Word).unwrap(), 0xabcd);
    assert!(report.stats.remap_calls >= 2 * 300);
}
