//! The traced run's single-vCPU layer probe: times each layer's public
//! functions directly, on the workload's own images and addresses.
//!
//! * `decode` over every code word of each image;
//! * `frontend::translate` for every block a one-vCPU walk of the image
//!   reaches, `opt::optimize` over each translated block, and
//!   `interp::run_block` for the walk itself (under HST, so per-store
//!   instrumentation is part of the interpreted cost);
//! * the scheme primitives on the addresses the oracle checks:
//!   `StoreTestTable::set` / `try_lock`, an exclusive section,
//!   `AddressSpace::protect`, an HTM transaction and a `Qsbr` grace
//!   period.
//!
//! PST's fault routing and HTM restarts need the engine's run loop,
//! which this probe does not reproduce: for those the report uses the
//! engine's counters from the timed runs.

use crate::gen::GuestProgram;
use crate::run::builder;
use adbt::{Image, SchemeKind};
use adbt_engine::{frontend, interp, ExecCtx, Trap};
use adbt_ir::opt::{optimize, OptConfig};
use adbt_ir::Block;
use adbt_mmu::{Access, Perms, Width};
use adbt_sync::epoch::Qsbr;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Instructions the walk interprets per program at most.
const WALK_INSNS: u64 = 2_000_000;

/// Calls per primitive timing loop.
const PRIMITIVE_CALLS: usize = 100_000;

/// Per-call times of each layer's public functions.
#[derive(Clone, Debug, Default)]
pub struct LayerTimes {
    /// `decode`, ns per word.
    pub decode_ns: f64,
    /// `frontend::translate`, µs per block.
    pub translate_us: f64,
    /// `opt::optimize`, µs per block.
    pub optimize_us: f64,
    /// Ops `opt::optimize` removed or rewrote over the walked blocks.
    pub ops_removed: u64,
    /// `interp::run_block`, ns per guest instruction.
    pub ns_per_insn: f64,
    /// Guest instructions the walk interpreted.
    pub walk_insns: u64,
    /// `StoreTestTable::set`, ns per call.
    pub store_test_set_ns: f64,
    /// `StoreTestTable::try_lock` + `unlock`, ns per pair.
    pub try_lock_ns: f64,
    /// `start_exclusive` + `end_exclusive`, ns per section.
    pub section_ns: f64,
    /// `AddressSpace::protect`, ns per call.
    pub protect_ns: f64,
    /// HTM begin + load + store + commit, ns per transaction.
    pub txn_ns: f64,
    /// `Qsbr` grace period (begin, quiesce, elapsed), ns.
    pub grace_ns: f64,
}

fn per_call_ns(elapsed: Duration, calls: usize) -> f64 {
    elapsed.as_secs_f64() * 1e9 / calls.max(1) as f64
}

/// Times every layer over `generated` (each program with its image).
///
/// # Panics
///
/// Panics if the fixed benchmark configuration fails to build, or an
/// oracle symbol is missing from its image (generator bugs).
pub fn drive(generated: &[(GuestProgram, Image)]) -> LayerTimes {
    let mut t = LayerTimes::default();
    let (mut decode_time, mut decodes) = (Duration::ZERO, 0usize);
    let (mut translate_time, mut translations) = (Duration::ZERO, 0usize);
    let (mut optimize_time, mut optimized) = (Duration::ZERO, 0usize);
    let mut interp_time = Duration::ZERO;
    let mut addrs = Vec::new();

    for (program, image) in generated {
        let code_end = image.symbol("code_end").expect("generators emit code_end");
        let words: Vec<u32> = image.bytes[..(code_end - image.base) as usize]
            .chunks_exact(4)
            .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]))
            .collect();
        let start = Instant::now();
        for &w in &words {
            let _ = black_box(adbt_isa::decode(black_box(w)));
        }
        decode_time += start.elapsed();
        decodes += words.len();

        for check in &program.oracle.checks {
            let base = image.symbol(&check.symbol).expect("oracle symbols exist");
            addrs.extend((0..check.words.len() as u32).map(|i| base + 4 * i));
        }

        // One vCPU walks the image under HST, translating each block once.
        let machine = builder(SchemeKind::Hst)
            .build()
            .expect("benchmark configuration is valid");
        let core = machine.core();
        core.load_image(image);
        let cpu = core.make_vcpus(1, image.base).remove(0);
        let mut ctx = ExecCtx::new(cpu, core, 1);
        let scheme = std::sync::Arc::clone(&core.scheme);
        let mut blocks: HashMap<u32, Block> = HashMap::new();
        let walk_start = Instant::now();
        let mut walk_translate = Duration::ZERO;
        while ctx.stats.insns < WALK_INSNS {
            let pc = ctx.cpu.pc;
            if let Entry::Vacant(slot) = blocks.entry(pc) {
                let start = Instant::now();
                let block = frontend::translate(&mut ctx, pc, &scheme).expect("code is mapped");
                walk_translate += start.elapsed();
                translations += 1;
                slot.insert(block);
            }
            match interp::run_block(&mut ctx, &blocks[&pc]) {
                Ok(next) => ctx.cpu.pc = next,
                Err(Trap::Exit(_)) => break,
                Err(trap) => panic!("{}: walk trapped at {pc:#x}: {trap}", program.name),
            }
        }
        interp_time += walk_start.elapsed() - walk_translate;
        translate_time += walk_translate;
        t.walk_insns += ctx.stats.insns;

        let cfg = OptConfig {
            coalesce_htable_marks: scheme.coalesce_htable_marks(),
        };
        for block in blocks.values() {
            let mut ops = block.ops.clone();
            let start = Instant::now();
            let passes = optimize(&mut ops, &block.exit, &cfg);
            optimize_time += start.elapsed();
            optimized += 1;
            t.ops_removed += passes.total();
        }
    }
    t.decode_ns = per_call_ns(decode_time, decodes);
    t.translate_us = per_call_ns(translate_time, translations) / 1e3;
    t.optimize_us = per_call_ns(optimize_time, optimized) / 1e3;
    t.ns_per_insn = interp_time.as_secs_f64() * 1e9 / t.walk_insns.max(1) as f64;
    primitives(&mut t, &addrs);
    t
}

/// Times the scheme, exclusive, mmu, htm and reclamation primitives on
/// the workload's own address stream.
fn primitives(t: &mut LayerTimes, addrs: &[u32]) {
    let machine = builder(SchemeKind::Hst)
        .build()
        .expect("benchmark configuration is valid");
    let core = machine.core();
    let stream = || addrs.iter().copied().cycle().take(PRIMITIVE_CALLS);

    let start = Instant::now();
    for a in stream() {
        core.store_test.set(a, 1);
    }
    t.store_test_set_ns = per_call_ns(start.elapsed(), PRIMITIVE_CALLS);

    let start = Instant::now();
    for a in stream() {
        if core.store_test.try_lock(a, 1) {
            core.store_test.unlock(a, 1);
        }
    }
    t.try_lock_ns = per_call_ns(start.elapsed(), PRIMITIVE_CALLS);

    core.exclusive.register();
    let sections = PRIMITIVE_CALLS / 10;
    let start = Instant::now();
    for _ in 0..sections {
        let _ = core
            .exclusive
            .start_exclusive()
            .expect("nothing halts the barrier");
        core.exclusive.end_exclusive();
    }
    t.section_ns = per_call_ns(start.elapsed(), sections);
    core.exclusive.unregister();

    let start = Instant::now();
    for a in stream() {
        let page = a >> 12;
        core.space.protect(page, Perms::READ);
        core.space.protect(page, Perms::RWX);
    }
    t.protect_ns = per_call_ns(start.elapsed(), 2 * PRIMITIVE_CALLS);

    let mem = core.space.mem();
    let start = Instant::now();
    for a in stream() {
        let paddr = core
            .space
            .translate(a, Access::Store, Width::Word)
            .expect("oracle words are mapped");
        let mut txn = core.htm.begin();
        let v = txn.load_word(mem, paddr).expect("no concurrent writer");
        txn.store_word(paddr, v).expect("one word fits");
        txn.commit(mem).expect("no concurrent writer");
    }
    t.txn_ns = per_call_ns(start.elapsed(), PRIMITIVE_CALLS);

    let qsbr = Qsbr::new();
    let slot = qsbr.register();
    let start = Instant::now();
    for _ in 0..PRIMITIVE_CALLS {
        let epoch = qsbr.begin_grace();
        qsbr.quiesce(slot);
        assert!(qsbr.grace_elapsed(epoch));
    }
    t.grace_ns = per_call_ns(start.elapsed(), PRIMITIVE_CALLS);
    qsbr.unregister(slot);
}
