//! One timed run: a fresh machine in `adbt_run`'s default configuration,
//! one assembled image, two vCPUs on real OS threads, and the oracle
//! check.

use crate::gen::{GuestProgram, Oracle, THREADS};
use adbt::{Image, Machine, MachineBuilder, RunReport, SchemeKind, VcpuOutcome};
use adbt_engine::{CacheOccupancy, ExclusiveTelemetry};
use std::time::{Duration, Instant};

/// The five schemes every workload runs, in report order: QEMU's
/// baseline, the paper's scheme, the best prior correct software
/// scheme, the page-protection scheme and the HTM-backed HST.
pub const SCHEMES: [SchemeKind; 5] = [
    SchemeKind::PicoCas,
    SchemeKind::Hst,
    SchemeKind::PicoSt,
    SchemeKind::Pst,
    SchemeKind::HstHtm,
];

/// Where images are assembled (the `adbt_run` default `--base`).
pub const IMAGE_BASE: u32 = adbt_workloads::IMAGE_BASE;

/// `adbt_run`'s default tier-up threshold.
pub const TIER_THRESHOLD: u32 = 1024;

/// Guest memory `adbt_run` builds machines with.
pub const MEMORY: u32 = 32 << 20;

/// The machine builder for `kind` in `adbt_run`'s default configuration:
/// 32 MiB, tiering at threshold 1024, chaining on, fusion off, and the
/// profile, trace, chaos and watchdog planes off.
pub fn builder(kind: SchemeKind) -> MachineBuilder {
    MachineBuilder::new(kind)
        .memory(MEMORY)
        .fuse_atomics(false)
        .chaos(None)
        .watchdog_ms(0)
        .htm_degrade_after(0)
        .trace(false)
        .profile(false)
        .tier_threshold(TIER_THRESHOLD)
        .cache_limit(0)
}

/// The configuration every run uses, as one line for the report.
pub fn config_line(machine: &Machine) -> String {
    let c = &machine.core().config;
    format!(
        "vcpus={THREADS} memory={} max_block_insns={} chain_limit={} tier_threshold={} \
         superblock_limit={} fuse_atomics={} cache_limit={} chaos={} watchdog_ms={} \
         htm_degrade_after={} trace={} profile={}",
        c.mem_size,
        c.max_block_insns,
        c.chain_limit,
        c.tier_threshold,
        c.superblock_limit,
        c.fuse_atomics,
        c.cache_limit,
        c.chaos.is_some(),
        c.watchdog_ms,
        c.htm_degrade_after,
        c.trace,
        c.profile,
    )
}

/// What one run produced.
#[derive(Debug)]
pub struct RunResult {
    /// Time from the `run_vcpus` call to its return.
    pub wall: Duration,
    /// Why the run failed, if it did.
    pub failure: Option<String>,
    /// The engine's report.
    pub report: RunReport,
    /// Cache occupancy after the run.
    pub occupancy: CacheOccupancy,
    /// Exclusive-section telemetry after the run.
    pub exclusive: ExclusiveTelemetry,
    /// Translation-cache slots ever allocated.
    pub cached_blocks: usize,
    /// Time to build the machine.
    pub build: Duration,
    /// Time to load the image.
    pub load: Duration,
    /// Time to check the oracle.
    pub verify: Duration,
}

impl RunResult {
    /// Whether the run passed: every vCPU exited 0 and every oracle
    /// check held.
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }
}

/// Builds a machine, loads `image`, runs it on [`THREADS`] vCPUs and
/// checks `program`'s oracle. `tamper` runs between the run and the
/// check (tests use it to corrupt guest memory).
///
/// # Panics
///
/// Panics if the machine cannot be built — the configuration is fixed,
/// so that is a bug, not a run failure.
pub fn execute(
    kind: SchemeKind,
    image: &Image,
    program: &GuestProgram,
    tamper: Option<&dyn Fn(&Machine)>,
) -> RunResult {
    let t = Instant::now();
    let machine = builder(kind)
        .build()
        .expect("benchmark configuration is valid");
    let build = t.elapsed();
    let t = Instant::now();
    machine.core().load_image(image);
    let load = t.elapsed();
    let vcpus = machine.make_vcpus(THREADS, image.base);

    let t = Instant::now();
    let report = machine.run_vcpus(vcpus);
    let wall = t.elapsed();

    if let Some(tamper) = tamper {
        tamper(&machine);
    }
    let t = Instant::now();
    let failure = judge(&machine, image, &report, &program.oracle);
    let verify = t.elapsed();
    RunResult {
        wall,
        failure,
        occupancy: machine.core().cache_occupancy(),
        exclusive: machine.core().exclusive.telemetry(),
        cached_blocks: machine.core().cached_blocks(),
        report,
        build,
        load,
        verify,
    }
}

/// Why a finished run is wrong, or `None` when every vCPU exited 0 and
/// guest memory matches the oracle word for word.
pub fn judge(
    machine: &Machine,
    image: &Image,
    report: &RunReport,
    oracle: &Oracle,
) -> Option<String> {
    for (tid, outcome) in report.outcomes.iter().enumerate() {
        if *outcome != VcpuOutcome::Exited(0) {
            return Some(format!("vCPU {tid} ended {outcome:?}"));
        }
    }
    for check in &oracle.checks {
        let Some(base) = image.symbol(&check.symbol) else {
            return Some(format!("missing symbol {}", check.symbol));
        };
        for (i, &want) in check.words.iter().enumerate() {
            let addr = base + 4 * i as u32;
            match machine.read_word(addr) {
                Ok(got) if got == want => {}
                Ok(got) => {
                    return Some(format!(
                        "{}: word {i} at {addr:#x} is {got:#x}, expected {want:#x}",
                        check.what
                    ))
                }
                Err(e) => return Some(format!("{}: {e}", check.what)),
            }
        }
    }
    None
}
