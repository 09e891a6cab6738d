//! Seeded guest-program generators and their native oracles.
//!
//! Every program is built from the public `adbt_workloads::rt` fragments
//! (`spin_lock`, `atomic_add`, `barrier`) plus straight-line private
//! compute, and every program is free of data races: each shared word
//! has exactly one lock, one atomic-add class, or one writer. Alongside
//! the source, the generator computes the memory a correct run must
//! leave behind — by simulating the program natively from its own
//! parameters, never by running the translator — so a translation,
//! optimizer, tier or scheme bug shows up as an oracle mismatch.
//!
//! The seed changes *what* is computed (ALU chains, immediates, lock
//! choice, block order), never *how much*: iteration counts, store
//! counts and synchronisation cadences are fixed per program, so run
//! times are comparable across seeds.

use adbt_workloads::parsec::{KernelSpec, Program};
use adbt_workloads::rt;
use std::fmt::Write as _;

/// Guest vCPUs every benchmark program is generated for.
pub const THREADS: u32 = 2;

/// Words in one thread's private store buffer (one 4 KiB page).
const BUF_WORDS: usize = 1024;

/// Blocks in the `cold-code` image.
pub const COLD_BLOCKS: usize = 20_000;

/// Walks over the whole block set per vCPU in `cold-code`.
pub const COLD_PASSES: u32 = 3;

/// SplitMix64: the benchmark's only randomness, so a seed fully
/// determines every generated image.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next_u64() % u64::from(hi - lo + 1)) as u32
    }
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The five low-synchronisation PARSEC shapes.
    ParsecCompute,
    /// The atomic-heavy, race-free PARSEC shapes plus an LL/SC storm.
    ParsecSync,
    /// ~20k distinct blocks walked in per-vCPU order, with SMC patches.
    ColdCode,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::ParsecCompute,
        Workload::ParsecSync,
        Workload::ColdCode,
    ];

    /// The workload's command-line name.
    pub const fn name(self) -> &'static str {
        match self {
            Workload::ParsecCompute => "parsec-compute",
            Workload::ParsecSync => "parsec-sync",
            Workload::ColdCode => "cold-code",
        }
    }

    /// Parses a command-line name (exact match).
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Expected guest words starting at a symbol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Check {
    /// What the words are, for mismatch reports.
    pub what: String,
    /// The image symbol the words start at.
    pub symbol: String,
    /// The expected words, consecutive from the symbol.
    pub words: Vec<u32>,
}

/// Everything a correct run must leave in guest memory.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Oracle {
    /// The checks, all of which must hold.
    pub checks: Vec<Check>,
}

impl Oracle {
    fn expect(&mut self, what: impl Into<String>, symbol: &str, words: Vec<u32>) {
        self.checks.push(Check {
            what: what.into(),
            symbol: symbol.to_string(),
            words,
        });
    }
}

/// One generated guest program.
#[derive(Clone, Debug)]
pub struct GuestProgram {
    /// Short name (the PARSEC shape or kernel it models).
    pub name: &'static str,
    /// Assembly source, entered at its first instruction by every vCPU.
    pub source: String,
    /// The memory a correct run leaves behind.
    pub oracle: Oracle,
}

/// Generates every program of `workload` for `seed`.
pub fn generate(workload: Workload, seed: u64) -> Vec<GuestProgram> {
    // Each program draws from its own stream, so adding a program to a
    // workload never changes the others' images.
    let stream = |k: u64| SplitMix64::new(seed ^ k.wrapping_mul(0xa076_1d64_78bd_642f));
    match workload {
        Workload::ParsecCompute => [
            Program::Blackscholes,
            Program::Bodytrack,
            Program::Facesim,
            Program::Swaptions,
            Program::X264,
        ]
        .into_iter()
        .enumerate()
        .map(|(k, p)| {
            let spec = p.spec();
            // Per-thread iterations: runs of tens of ms, so thread start
            // and cold translation do not dominate.
            let iters = spec.iters * 4;
            kernel(p.name(), spec, iters, &mut stream(k as u64 + 1))
        })
        .collect(),
        Workload::ParsecSync => {
            let mut fine = Program::Fluidanimate.spec();
            fine.iters *= 8;
            let storm = KernelSpec {
                iters: 16384,
                alu_per_iter: 4,
                stores_per_iter: 1,
                lock_every: 0,
                fine_locks: 0,
                atomic_adds_per_lock: 1,
                add_every: 1,
                barrier_every: 0,
            };
            let mut canneal = Program::Canneal.spec();
            canneal.iters *= 8;
            let mut freqmine = Program::Freqmine.spec();
            freqmine.iters *= 8;
            vec![
                kernel("canneal", canneal, canneal.iters, &mut stream(11)),
                kernel("fine-lock", fine, fine.iters, &mut stream(12)),
                kernel("freqmine", freqmine, freqmine.iters, &mut stream(13)),
                kernel("llsc-storm", storm, storm.iters, &mut stream(14)),
            ]
        }
        Workload::ColdCode => vec![cold_code(&mut stream(21))],
    }
}

/// One step of a private-compute chain on `r4` (`r6` = the iteration
/// counter).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AluStep {
    Add(u32),
    Sub(u32),
    Eor(u32),
    Orr(u32),
    EorIter,
    Lsl(u32),
    Ror(u32),
}

impl AluStep {
    fn draw(rng: &mut SplitMix64, with_iter: bool) -> AluStep {
        let kinds = if with_iter { 7 } else { 6 };
        match rng.range(0, kinds - 1) {
            0 => AluStep::Add(rng.range(1, 4095)),
            1 => AluStep::Sub(rng.range(1, 4095)),
            2 => AluStep::Eor(rng.range(1, 4095)),
            3 => AluStep::Orr(rng.range(1, 4095)),
            4 => AluStep::Lsl(rng.range(1, 3)),
            5 => AluStep::Ror(rng.range(1, 31)),
            _ => AluStep::EorIter,
        }
    }

    /// The step's native semantics.
    fn apply(self, r4: u32, r6: u32) -> u32 {
        match self {
            AluStep::Add(k) => r4.wrapping_add(k),
            AluStep::Sub(k) => r4.wrapping_sub(k),
            AluStep::Eor(k) => r4 ^ k,
            AluStep::Orr(k) => r4 | k,
            AluStep::EorIter => r4 ^ r6,
            AluStep::Lsl(k) => r4 << k,
            AluStep::Ror(k) => r4.rotate_right(k),
        }
    }

    fn emit(self, s: &mut String) {
        let _ = match self {
            AluStep::Add(k) => writeln!(s, "    add   r4, r4, #{k}"),
            AluStep::Sub(k) => writeln!(s, "    sub   r4, r4, #{k}"),
            AluStep::Eor(k) => writeln!(s, "    eor   r4, r4, #{k}"),
            AluStep::Orr(k) => writeln!(s, "    orr   r4, r4, #{k}"),
            AluStep::EorIter => writeln!(s, "    eor   r4, r4, r6"),
            AluStep::Lsl(k) => writeln!(s, "    lsl   r4, r4, #{k}"),
            AluStep::Ror(k) => writeln!(s, "    ror   r4, r4, #{k}"),
        };
    }
}

/// Whether iteration `r6` hits a power-of-two cadence (`0` = never).
fn due(r6: u32, every: u32) -> bool {
    every > 0 && r6 & (every - 1) == 0
}

/// A PARSEC-shaped kernel (the `adbt_workloads::parsec` shapes) whose
/// shared words are race-free: the global lock guards the one shared
/// word, and each fine-grained lock guards its own counter in the same
/// cell (lock words stay packed on one page — the layout that makes
/// PST suffer).
fn kernel(name: &'static str, spec: KernelSpec, iters: u32, rng: &mut SplitMix64) -> GuestProgram {
    for cadence in [
        spec.lock_every,
        spec.barrier_every,
        spec.fine_locks,
        spec.add_every,
    ] {
        assert!(cadence == 0 || cadence.is_power_of_two());
    }
    let steps: Vec<AluStep> = (0..spec.alu_per_iter)
        .map(|_| AluStep::draw(rng, true))
        .collect();
    let init = rng.range(1, 0xffff);
    let salt = rng.range(0, 4095);
    let standalone_adds = spec.lock_every == 0 && spec.atomic_adds_per_lock > 0;

    let mut s = String::new();
    let _ = writeln!(
        s,
        "    ; r0 = thread index, r1 = thread count (launch ABI)
    mov32 r5, sync_page
    mov32 r12, barrier_page
    mov32 r7, buffers
    lsl   r2, r0, #12
    add   r7, r7, r2
    mov   r8, #0
    mov   r9, #0
    mov32 r4, #{init}
    add   r4, r4, r0
    mov32 r6, #{iters}
iter_loop:"
    );
    for step in &steps {
        step.emit(&mut s);
    }
    for _ in 0..spec.stores_per_iter {
        let _ = writeln!(s, "    str   r4, [r7, r8]");
        let _ = writeln!(s, "    add   r8, r8, #4");
        let _ = writeln!(s, "    and   r8, r8, #4092");
    }
    if standalone_adds {
        if spec.add_every > 1 {
            let _ = writeln!(s, "    tst   r6, #{}", spec.add_every - 1);
            let _ = writeln!(s, "    bne   skip_add");
        }
        for k in 0..spec.atomic_adds_per_lock {
            let _ = writeln!(s, "    add   r11, r5, #8");
            s.push_str(&rt::atomic_add(&format!("aa{k}"), "r11", 1, "r2", "r3"));
        }
        if spec.add_every > 1 {
            let _ = writeln!(s, "skip_add:");
        }
    }
    if spec.lock_every > 0 {
        if spec.lock_every > 1 {
            let _ = writeln!(s, "    tst   r6, #{}", spec.lock_every - 1);
            let _ = writeln!(s, "    bne   skip_lock");
        }
        if spec.fine_locks > 0 {
            // cell = ((r6 ^ salt) + 8 * tid) & (fine_locks - 1); each
            // 8-byte cell is [lock, counter].
            let _ = writeln!(s, "    eor   r2, r6, #{salt}");
            let _ = writeln!(s, "    lsl   r3, r0, #3");
            let _ = writeln!(s, "    add   r2, r2, r3");
            let _ = writeln!(s, "    and   r2, r2, #{}", spec.fine_locks - 1);
            let _ = writeln!(s, "    lsl   r2, r2, #3");
            let _ = writeln!(s, "    mov32 r11, cells");
            let _ = writeln!(s, "    add   r11, r11, r2");
            s.push_str(&rt::spin_lock("lk", "r11", "r2", "r3"));
            let _ = writeln!(s, "    ldr   r2, [r11, #4]");
            let _ = writeln!(s, "    add   r2, r2, #1");
            let _ = writeln!(s, "    str   r2, [r11, #4]");
        } else {
            let _ = writeln!(s, "    mov   r11, r5");
            s.push_str(&rt::spin_lock("lk", "r11", "r2", "r3"));
            let _ = writeln!(s, "    ldr   r2, [r5, #16]");
            let _ = writeln!(s, "    add   r2, r2, #1");
            let _ = writeln!(s, "    str   r2, [r5, #16]");
        }
        for k in 0..spec.atomic_adds_per_lock {
            let _ = writeln!(s, "    add   r10, r5, #8");
            s.push_str(&rt::atomic_add(&format!("la{k}"), "r10", 1, "r2", "r3"));
        }
        s.push_str(&rt::spin_unlock("r11", "r2"));
        if spec.lock_every > 1 {
            let _ = writeln!(s, "skip_lock:");
        }
    }
    if spec.barrier_every > 0 {
        let _ = writeln!(s, "    tst   r6, #{}", spec.barrier_every - 1);
        let _ = writeln!(s, "    bne   skip_barrier");
        s.push_str(&rt::barrier("bar", "r12", "r1", "r9", "r2", "r3"));
        // Barrier generations: thread 0 alone counts its passes.
        let _ = writeln!(s, "    cmp   r0, #0");
        let _ = writeln!(s, "    bne   skip_barrier");
        let _ = writeln!(s, "    ldr   r2, [r12, #8]");
        let _ = writeln!(s, "    add   r2, r2, #1");
        let _ = writeln!(s, "    str   r2, [r12, #8]");
        let _ = writeln!(s, "skip_barrier:");
    }
    let _ = writeln!(
        s,
        "    subs  r6, r6, #1
    bne   iter_loop
    mov32 r10, results
    lsl   r2, r0, #2
    str   r4, [r10, r2]
    mov   r0, #0
    svc   #0
code_end:

    .align 4096
sync_page:
    .word 0                 ; global lock
    .word 0
    .word 0                 ; fetch-add counter (+8)
    .word 0
    .word 0                 ; lock-protected shared word (+16)
    .align 4096
barrier_page:
    .word 0                 ; arrival count
    .word 0                 ; sense
    .word 0                 ; generations (+8)
    .align 4096
cells:
    .space 4096
    .align 4096
results:
    .space {results}
    .align 4096
buffers:
    .space {buffers}",
        results = 4 * THREADS,
        buffers = 4 * BUF_WORDS as u32 * THREADS,
    );

    // The oracle: simulate every thread natively.
    let mut results = Vec::new();
    let mut buffers = Vec::new();
    let mut fetch_adds = 0u32;
    let mut shared = 0u32;
    let mut cell_counts = vec![0u32; spec.fine_locks as usize];
    let mut generations = 0u32;
    for t in 0..THREADS {
        let mut r4 = init.wrapping_add(t);
        let mut r8 = 0usize;
        let mut buf = vec![0u32; BUF_WORDS];
        for r6 in (1..=iters).rev() {
            for step in &steps {
                r4 = step.apply(r4, r6);
            }
            for _ in 0..spec.stores_per_iter {
                buf[r8 / 4] = r4;
                r8 = (r8 + 4) & 4092;
            }
            if standalone_adds && (spec.add_every <= 1 || due(r6, spec.add_every)) {
                fetch_adds += spec.atomic_adds_per_lock;
            }
            if spec.lock_every > 0 && (spec.lock_every == 1 || due(r6, spec.lock_every)) {
                if spec.fine_locks > 0 {
                    let cell = ((r6 ^ salt).wrapping_add(8 * t)) & (spec.fine_locks - 1);
                    cell_counts[cell as usize] += 1;
                } else {
                    shared += 1;
                }
                fetch_adds += spec.atomic_adds_per_lock;
            }
            if t == 0 && due(r6, spec.barrier_every) {
                generations += 1;
            }
        }
        results.push(r4);
        buffers.extend(buf);
    }
    let mut oracle = Oracle::default();
    oracle.expect(
        "private-compute checksum (final r4) per vCPU",
        "results",
        results,
    );
    oracle.expect("private store buffers", "buffers", buffers);
    oracle.expect(
        "global lock, fetch-add total, lock-protected word",
        "sync_page",
        vec![0, 0, fetch_adds, 0, shared],
    );
    oracle.expect(
        "barrier count, sense, generations",
        "barrier_page",
        vec![0, generations & 1, generations],
    );
    if spec.fine_locks > 0 {
        let cells = cell_counts.iter().flat_map(|&n| [0, n]).collect();
        oracle.expect("fine-lock cells [lock, counter]", "cells", cells);
    }
    GuestProgram {
        name,
        source: s,
        oracle,
    }
}

/// The encoding of `add rd, rn, #imm` (class 1 ALU-immediate, op 0):
/// what a patched immediate must read back as.
pub fn add_imm_word(rd: u32, rn: u32, imm: u32) -> u32 {
    (1 << 28) | (rd << 19) | (rn << 15) | (imm & 0xfff)
}

/// The encoding of `bx lr` (class 9, `rm` = 14).
pub const BX_LR: u32 = (9 << 28) | 14;

/// `cold-code`: [`COLD_BLOCKS`] distinct blocks, each a short seeded ALU
/// chain on `r4` ending in `bx lr`. Every vCPU calls all of them in its
/// own seeded order, [`COLD_PASSES`] times; after each pass it calls the
/// one-block patch site on its own private code page and then bumps
/// that block's immediate (self-modifying code), so the next pass must
/// run a retranslated block.
fn cold_code(rng: &mut SplitMix64) -> GuestProgram {
    let blocks: Vec<Vec<AluStep>> = (0..COLD_BLOCKS)
        .map(|_| {
            let n = rng.range(2, 6);
            (0..n).map(|_| AluStep::draw(rng, false)).collect()
        })
        .collect();
    let orders: Vec<Vec<usize>> = (0..THREADS)
        .map(|_| {
            let mut order: Vec<usize> = (0..COLD_BLOCKS).collect();
            for i in (1..order.len()).rev() {
                let j = (rng.next_u64() % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
            order
        })
        .collect();
    let init = rng.range(1, 0xffff);
    let patch_imms: Vec<u32> = (0..THREADS).map(|_| rng.range(1, 3000)).collect();

    let mut s = String::new();
    let _ = writeln!(
        s,
        "    ; r0 = thread index (launch ABI)
    mov32 r10, orders
    mov32 r3, #{table}
    mul   r2, r0, r3
    add   r10, r10, r2
    mov32 r5, patch_pages
    lsl   r2, r0, #12
    add   r5, r5, r2
    mov32 r4, #{init}
    add   r4, r4, r0
    mov   r9, #{passes}
pass_loop:
    mov   r8, #0
    mov32 r6, #{blocks}
walk:
    ldr   r3, [r10, r8]
    add   r8, r8, #4
    mov32 lr, walk_ret
    bx    r3
walk_ret:
    subs  r6, r6, #1
    bne   walk
    mov32 lr, patch_ret
    bx    r5
patch_ret:
    ldr   r2, [r5]
    add   r2, r2, #1
    str   r2, [r5]
    subs  r9, r9, #1
    bne   pass_loop
    mov32 r10, results
    lsl   r2, r0, #2
    str   r4, [r10, r2]
    mov   r0, #0
    svc   #0",
        table = 4 * COLD_BLOCKS,
        init = init,
        passes = COLD_PASSES,
        blocks = COLD_BLOCKS,
    );
    for (i, steps) in blocks.iter().enumerate() {
        let _ = writeln!(s, "cb{i}:");
        for step in steps {
            step.emit(&mut s);
        }
        let _ = writeln!(s, "    bx    lr");
    }
    let _ = writeln!(s, "code_end:\n    .align 4096\npatch_pages:");
    for (t, imm) in patch_imms.iter().enumerate() {
        let _ = writeln!(
            s,
            "patch_t{t}:\n    add   r4, r4, #{imm}\n    bx    lr\n    .align 4096"
        );
    }
    let _ = writeln!(s, "results:\n    .space {}", 4 * THREADS);
    let _ = writeln!(s, "    .align 4096\norders:");
    for order in &orders {
        for &b in order {
            let _ = writeln!(s, "    .word cb{b}");
        }
    }

    let mut results = Vec::new();
    for (t, order) in orders.iter().enumerate() {
        let mut r4 = init.wrapping_add(t as u32);
        for pass in 0..COLD_PASSES {
            for &b in order {
                for step in &blocks[b] {
                    r4 = step.apply(r4, 0);
                }
            }
            r4 = r4.wrapping_add(patch_imms[t] + pass);
        }
        results.push(r4);
    }
    let mut oracle = Oracle::default();
    oracle.expect(
        "private-compute checksum (final r4) per vCPU",
        "results",
        results,
    );
    for (t, imm) in patch_imms.iter().enumerate() {
        oracle.expect(
            format!("SMC-patched site of vCPU {t}"),
            &format!("patch_t{t}"),
            vec![add_imm_word(4, 4, imm + COLD_PASSES), BX_LR],
        );
    }
    GuestProgram {
        name: "cold-walk",
        source: s,
        oracle,
    }
}
