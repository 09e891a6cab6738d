//! Dispatch micro-benchmark: a tight cross-block guest loop whose cost
//! is dominated by block dispatch, run per scheme with chaining off
//! (`chain_limit 1`) and on (the default), reporting the speedup.
//!
//! The guest does no atomic work — every iteration hops through a chain
//! of unconditional branches plus one conditional loop-back, so the
//! hot loop is L1 probes (unchained) vs patched chain links (chained).
//! Per-scheme numbers still differ because schemes translate differently
//! and some (PICO-HTM) dispatch inside transactions.
//!
//! ```text
//! cargo run --release -p adbt-bench --bin dispatch_bench -- \
//!     [--iters 300000] [--reps 5] [--chain 64] [--csv dispatch.csv] \
//!     [--traced [--guard PCT]] [--tiered [--guard PCT]] \
//!     [--profiled [--guard PCT]]
//! ```
//!
//! `--traced` switches to the flight-recorder overhead comparison: each
//! scheme runs the same chained workload with tracing off and on, and
//! the table reports the enabled-path overhead. `--guard PCT` then
//! exits non-zero when the geometric-mean slowdown exceeds `PCT`
//! percent — the CI tripwire for the "tracing is cheap" claim.
//!
//! `--profiled` is the same comparison for the guest-PC contention
//! profiler: profiling off (the one-predicted-branch disabled path)
//! versus on (hash probes at every charge site). `--guard PCT` is the
//! CI tripwire for the "profiling stays within PCT percent" claim.
//!
//! `--tiered` switches to the tiered-translation comparison: two hot-loop
//! workloads (the dispatch chain above and an ALU loop with dead flags
//! and foldable constants) run per scheme at three settings — tiering
//! off (the baseline), hot (threshold 64, reached immediately), and cold
//! (threshold `u32::MAX`, never reached, measuring the pure bookkeeping
//! cost of the heat counter and redirect check). `--guard PCT` exits
//! non-zero when the geomean *cold* overhead exceeds `PCT` percent — the
//! CI tripwire for "tiering you don't use is (nearly) free".

use adbt::{AdaptConfig, AdaptPolicy, MachineBuilder, SchemeKind, SimCosts};
use adbt_bench::{geomean, pct, pct_cell, Args, Table};
use std::time::Instant;

/// Every iteration crosses six block boundaries (five jumps and the
/// conditional loop-back), so dispatch dominates the interpreter work.
fn program(iters: u32) -> String {
    format!(
        "    mov32 r6, #{iters}\n\
         loop:\n\
         \x20   b s1\n\
         s1: b s2\n\
         s2: b s3\n\
         s3: b s4\n\
         s4: subs r6, r6, #1\n\
         \x20   bne loop\n\
         \x20   mov r0, #0\n\
         \x20   svc #0\n"
    )
}

/// The tiered-mode ALU workload: a hot two-block loop whose body is
/// mostly dead flag writes and foldable constants — work the tier-2
/// optimization pipeline eliminates but the block tier re-executes
/// every iteration.
fn alu_program(iters: u32) -> String {
    format!(
        "    mov32 r6, #{iters}\n\
         loop:\n\
         \x20   movs r1, r6\n\
         \x20   mov  r2, #5\n\
         \x20   add  r2, r2, #3\n\
         \x20   movs r3, r2\n\
         \x20   mov  r4, #9\n\
         \x20   add  r4, r4, #1\n\
         \x20   b body\n\
         body:\n\
         \x20   subs r6, r6, #1\n\
         \x20   bne loop\n\
         \x20   mov r0, #0\n\
         \x20   svc #0\n"
    )
}

/// Best-of-`reps` wall time for one single-threaded run, plus the
/// counters of the last run.
fn measure(
    kind: SchemeKind,
    source: &str,
    chain_limit: u32,
    reps: u32,
    traced: bool,
    tier_threshold: u32,
    profiled: bool,
) -> (f64, adbt::VcpuStats) {
    let mut best = f64::INFINITY;
    let mut stats = adbt::VcpuStats::default();
    for _ in 0..reps {
        let mut machine = MachineBuilder::new(kind)
            .memory(1 << 20)
            .chain_limit(chain_limit)
            .trace(traced)
            .profile(profiled)
            .tier_threshold(tier_threshold)
            .build()
            .expect("machine construction");
        machine.load_asm(source, 0x1_0000).expect("assembles");
        let start = Instant::now();
        let report = machine.run(1, 0x1_0000);
        let secs = start.elapsed().as_secs_f64();
        assert!(report.all_ok(), "{kind:?} failed");
        best = best.min(secs);
        stats = report.stats;
    }
    (best, stats)
}

/// The chaining comparison (the default mode).
fn run_chaining(args: &Args, source: &str, reps: u32, chain: u32) {
    let mut table = Table::new(&[
        "scheme",
        "unchained_ms",
        "chained_ms",
        "speedup",
        "dispatch_lookups",
        "chain_follows",
        "chained_pct",
    ]);
    for kind in SchemeKind::ALL {
        let (unchained, _) = measure(kind, source, 1, reps, false, 0, false);
        let (chained, stats) = measure(kind, source, chain, reps, false, 0, false);
        table.row(vec![
            kind.name().to_string(),
            format!("{:.2}", unchained * 1e3),
            format!("{:.2}", chained * 1e3),
            format!("{:.2}", unchained / chained),
            stats.dispatch_lookups.to_string(),
            stats.chain_follows.to_string(),
            pct_cell(
                stats.chain_follows,
                stats.dispatch_lookups + stats.chain_follows,
            ),
        ]);
    }
    table.emit_with_note(
        args,
        "chained_pct is the fraction of block dispatches resolved by a patched\n\
         chain link (zero lookups); the residual lookups are chain-budget\n\
         boundaries and the loop's cold start.",
    );
}

/// The flight-recorder overhead comparison (`--traced`); exits non-zero
/// when `--guard PCT` is set and the geomean slowdown exceeds it.
fn run_traced(args: &Args, source: &str, reps: u32, chain: u32) {
    let mut table = Table::new(&["scheme", "untraced_ms", "traced_ms", "overhead_pct"]);
    let mut ratios = Vec::new();
    for kind in SchemeKind::ALL {
        let (untraced, _) = measure(kind, source, chain, reps, false, 0, false);
        let (traced, _) = measure(kind, source, chain, reps, true, 0, false);
        ratios.push(traced / untraced);
        table.row(vec![
            kind.name().to_string(),
            format!("{:.2}", untraced * 1e3),
            format!("{:.2}", traced * 1e3),
            format!("{:.1}", pct(traced - untraced, untraced)),
        ]);
    }
    let overhead = pct(geomean(&ratios) - 1.0, 1.0);
    table.emit_with_note(
        args,
        &format!(
            "geomean tracing overhead: {overhead:.1}% (ring writes on the enabled\n\
             path; the disabled path is a single predicted branch)"
        ),
    );
    let guard: f64 = args.get("guard", f64::INFINITY);
    if overhead > guard {
        eprintln!("FAIL: tracing overhead {overhead:.1}% exceeds the --guard {guard}% budget");
        std::process::exit(1);
    }
}

/// The contention-profiler overhead comparison (`--profiled`); exits
/// non-zero when `--guard PCT` is set and the geomean slowdown exceeds
/// it.
fn run_profiled(args: &Args, source: &str, reps: u32, chain: u32) {
    let mut table = Table::new(&["scheme", "unprofiled_ms", "profiled_ms", "overhead_pct"]);
    let mut ratios = Vec::new();
    for kind in SchemeKind::ALL {
        let (unprofiled, _) = measure(kind, source, chain, reps, false, 0, false);
        let (profiled, _) = measure(kind, source, chain, reps, false, 0, true);
        ratios.push(profiled / unprofiled);
        table.row(vec![
            kind.name().to_string(),
            format!("{:.2}", unprofiled * 1e3),
            format!("{:.2}", profiled * 1e3),
            format!("{:.1}", pct(profiled - unprofiled, unprofiled)),
        ]);
    }
    let overhead = pct(geomean(&ratios) - 1.0, 1.0);
    table.emit_with_note(
        args,
        &format!(
            "geomean profiling overhead: {overhead:.1}% (hash probes on the enabled\n\
             path; the disabled path is a single predicted branch per charge site)"
        ),
    );
    let guard: f64 = args.get("guard", f64::INFINITY);
    if overhead > guard {
        eprintln!("FAIL: profiling overhead {overhead:.1}% exceeds the --guard {guard}% budget");
        std::process::exit(1);
    }
}

/// The tiered-translation comparison (`--tiered`); exits non-zero when
/// `--guard PCT` is set and the geomean cold-path overhead exceeds it.
fn run_tiered(args: &Args, reps: u32, chain: u32, iters: u32) {
    let workloads = [("chain", program(iters)), ("alu", alu_program(iters))];
    let mut table = Table::new(&[
        "workload",
        "scheme",
        "baseline_ms",
        "tiered_ms",
        "speedup",
        "cold_ms",
        "cold_overhead_pct",
        "promotions",
        "deopts",
        "tier_insn_pct",
    ]);
    let mut speedups = Vec::new();
    let mut cold_ratios = Vec::new();
    for (name, source) in &workloads {
        for kind in SchemeKind::ALL {
            let (baseline, _) = measure(kind, source, chain, reps, false, 0, false);
            let (tiered, stats) = measure(kind, source, chain, reps, false, 64, false);
            let (cold, _) = measure(kind, source, chain, reps, false, u32::MAX, false);
            speedups.push(baseline / tiered);
            cold_ratios.push(cold / baseline);
            table.row(vec![
                name.to_string(),
                kind.name().to_string(),
                format!("{:.2}", baseline * 1e3),
                format!("{:.2}", tiered * 1e3),
                format!("{:.2}", baseline / tiered),
                format!("{:.2}", cold * 1e3),
                format!("{:.1}", pct(cold - baseline, baseline)),
                stats.promotions.to_string(),
                stats.deopts.to_string(),
                pct_cell(stats.tier_insns, stats.insns),
            ]);
        }
    }
    let speedup = geomean(&speedups);
    let overhead = pct(geomean(&cold_ratios) - 1.0, 1.0);
    table.emit_with_note(
        args,
        &format!(
            "geomean tiered speedup: {speedup:.2}x; geomean cold-path overhead: \
             {overhead:.1}% (heat counter + redirect check ride the lookup path\n\
             only — chain follows pay nothing; tiering *off* is a single predicted\n\
             branch)"
        ),
    );
    let guard: f64 = args.get("guard", f64::INFINITY);
    if overhead > guard {
        eprintln!("FAIL: cold tiering overhead {overhead:.1}% exceeds the --guard {guard}% budget");
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// Adaptive mode (`--adapt`)
// ---------------------------------------------------------------------------

/// Best-of-`reps` wall time for the **armed-idle** adaptive machine:
/// `--scheme auto` with an epoch that never elapses, so the dispatch
/// loop pays the full per-hop adaptive check (generation load + epoch
/// compare) but no arbitration ever runs.
fn measure_armed(kind: SchemeKind, source: &str, chain_limit: u32, reps: u32) -> f64 {
    let adapt = AdaptConfig {
        epoch_insns: u64::MAX,
        ..AdaptConfig::default()
    };
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut machine = MachineBuilder::adaptive(kind, adapt)
            .memory(1 << 20)
            .chain_limit(chain_limit)
            .build()
            .expect("machine construction");
        machine.load_asm(source, 0x1_0000).expect("assembles");
        let start = Instant::now();
        let report = machine.run(1, 0x1_0000);
        let secs = start.elapsed().as_secs_f64();
        assert!(report.all_ok(), "{kind:?} armed run failed");
        assert_eq!(report.stats.adapt_epochs, 0, "idle machine arbitrated");
        assert_eq!(report.stats.adapt_migrations, 0, "idle machine migrated");
        best = best.min(secs);
    }
    best
}

/// The three-phase mixed workload the adaptive arbiter is judged on.
/// Every phase is a 4-thread guest program with a clean exit; phases
/// are compared in simulated virtual time, the deterministic metric all
/// repo performance figures use.
///
/// * `llsc` — a contended LL/SC counter: LL/SC-helper cost and SC-retry
///   pricing dominate (PICO-ST's per-store helper + global lock hurt).
/// * `htm` — LL/SC regions stuffed with shared-page stores: HTM schemes
///   drag the whole inflated region through a transaction and pay the
///   conflict-abort storm; store-instrumenting schemes just price the
///   stores.
/// * `smc` — a self-patching loop: every iteration invalidates and
///   retranslates its own body, the fault/invalidation storm the
///   PST-family cost models price highest.
fn mixed_phases(scale: u32) -> Vec<(&'static str, String)> {
    let llsc = format!(
        "    mov32 r6, #{iters}\n\
         retry:\n\
         \x20   ldrex r1, [r5]\n\
         \x20   add   r1, r1, #1\n\
         \x20   strex r2, r1, [r5]\n\
         \x20   cmp   r2, #0\n\
         \x20   bne   retry\n\
         \x20   subs  r6, r6, #1\n\
         \x20   bne   retry\n\
         \x20   mov   r0, #0\n\
         \x20   svc   #0\n",
        iters = scale
    );
    let htm = format!(
        "    mov32 r6, #{iters}\n\
         \x20   mov32 r8, #0x2000\n\
         hloop:\n\
         \x20   ldrex r1, [r5]\n\
         \x20   str   r1, [r8]\n\
         \x20   str   r1, [r8, #4]\n\
         \x20   str   r1, [r8, #8]\n\
         \x20   str   r1, [r8, #12]\n\
         \x20   str   r1, [r8, #16]\n\
         \x20   str   r1, [r8, #20]\n\
         \x20   str   r1, [r8, #24]\n\
         \x20   str   r1, [r8, #28]\n\
         \x20   add   r1, r1, #1\n\
         \x20   strex r2, r1, [r5]\n\
         \x20   cmp   r2, #0\n\
         \x20   bne   hloop\n\
         \x20   subs  r6, r6, #1\n\
         \x20   bne   hloop\n\
         \x20   mov   r0, #0\n\
         \x20   svc   #0\n",
        iters = scale
    );
    let smc = format!(
        "    mov32 r6, #{iters}\n\
         \x20   mov32 r5, qpatch\n\
         \x20   mov32 r7, qdonor\n\
         qloop:\n\
         qpatch:\n\
         \x20   mov   r1, #1\n\
         \x20   ldr   r2, [r7]\n\
         \x20   str   r2, [r5]\n\
         \x20   subs  r6, r6, #1\n\
         \x20   bne   qloop\n\
         \x20   mov   r0, #0\n\
         \x20   svc   #0\n\
         qdonor:\n\
         \x20   mov   r1, #1\n",
        iters = scale / 2
    );
    vec![("llsc", llsc), ("htm", htm), ("smc", smc)]
}

/// Virtual-time measurement of one phase on a static scheme.
fn sim_static(kind: SchemeKind, source: &str, threads: u32) -> u64 {
    let mut machine = MachineBuilder::new(kind)
        .memory(1 << 20)
        .build()
        .expect("machine construction");
    machine.load_asm(source, 0x1_0000).expect("assembles");
    let vcpus = machine.core().make_vcpus(threads, 0x1_0000);
    let report = machine.core().run_sim(vcpus, &SimCosts::default());
    assert!(report.all_ok(), "{kind:?} failed");
    report.sim_time().expect("sim run records virtual time")
}

/// Virtual-time measurement of one phase under `--scheme auto`
/// (weak-ok policy, so the arbiter may chase the true per-phase best),
/// plus the migration count and the scheme the run ended on.
fn sim_auto(source: &str, threads: u32, epoch: u64) -> (u64, u64, &'static str) {
    let adapt = AdaptConfig {
        epoch_insns: epoch,
        policy: AdaptPolicy::WeakOk,
        ..AdaptConfig::default()
    };
    let mut machine = MachineBuilder::adaptive(SchemeKind::Hst, adapt)
        .memory(1 << 20)
        .build()
        .expect("machine construction");
    machine.load_asm(source, 0x1_0000).expect("assembles");
    let vcpus = machine.core().make_vcpus(threads, 0x1_0000);
    let report = machine.core().run_sim(vcpus, &SimCosts::default());
    assert!(report.all_ok(), "auto failed");
    (
        report.sim_time().expect("sim run records virtual time"),
        report.stats.adapt_migrations,
        machine.active_scheme_name(),
    )
}

/// The adaptive-mode comparison (`--adapt`): first the armed-idle
/// dispatch overhead guard (`--guard PCT` is the CI tripwire for the
/// "adaptation you don't run is (nearly) free" claim — the *off* path,
/// a static scheme's single predicted branch, is strictly cheaper than
/// the armed-idle machine measured here), then the three-phase mixed
/// workload scoring `--scheme auto` against every static scheme in
/// deterministic virtual time (`--json` lands this table, the record
/// behind EXPERIMENTS.md's adaptive-mode table).
fn run_adapt(args: &Args, source: &str, reps: u32, chain: u32) {
    // Part 1: armed-idle overhead on the dispatch-bound loop.
    let mut idle = Table::new(&["scheme", "static_ms", "armed_ms", "overhead_pct"]);
    let mut ratios = Vec::new();
    for kind in SchemeKind::ALL {
        // Adaptive machines force the profile plane on, so the static
        // baseline arms it too — the delta isolates the adapt hop.
        let (stat, _) = measure(kind, source, chain, reps, false, 0, true);
        let armed = measure_armed(kind, source, chain, reps);
        ratios.push(armed / stat);
        idle.row(vec![
            kind.name().to_string(),
            format!("{:.2}", stat * 1e3),
            format!("{:.2}", armed * 1e3),
            format!("{:.1}", pct(armed - stat, stat)),
        ]);
    }
    let overhead = pct(geomean(&ratios) - 1.0, 1.0);
    println!("{}", idle.render());
    println!(
        "geomean armed-idle adaptive overhead: {overhead:.1}% (per-hop generation\n\
         load + epoch compare; a *static* scheme's adaptation-off path is one\n\
         predicted branch and strictly cheaper than the armed machine above)"
    );

    // Part 2: the mixed workload, in deterministic virtual time.
    let threads: u32 = args.get("threads", 4);
    let epoch: u64 = args.get("epoch", 400);
    let scale: u32 = args.get("scale", 12_000);
    let mut table = Table::new(&[
        "phase",
        "scheme",
        "sim_time",
        "vs_best_pct",
        "migrations",
        "final_scheme",
    ]);
    let mut auto_vs_best = Vec::new();
    let mut worst_vs_auto = Vec::new();
    for (phase, source) in mixed_phases(scale) {
        let statics: Vec<(SchemeKind, u64)> = SchemeKind::ALL
            .map(|kind| (kind, sim_static(kind, &source, threads)))
            .into_iter()
            .collect();
        // "Best static" means best *policy-reachable* static: the
        // atomicity-class lattice forbids migrating into an Incorrect
        // scheme (PICO-CAS) under every policy, so it sets no bar the
        // arbiter is allowed to chase. Its row still prints (negative
        // vs_best_pct) for the record.
        let best = statics
            .iter()
            .filter(|&&(kind, _)| kind.atomicity() != adbt::Atomicity::Incorrect)
            .map(|&(_, t)| t)
            .min()
            .unwrap();
        let worst = statics.iter().map(|&(_, t)| t).max().unwrap();
        for &(kind, t) in &statics {
            table.row(vec![
                phase.to_string(),
                kind.name().to_string(),
                t.to_string(),
                format!("{:.1}", pct(t as f64 - best as f64, best as f64)),
                String::new(),
                String::new(),
            ]);
        }
        let (auto, migrations, landed) = sim_auto(&source, threads, epoch);
        auto_vs_best.push(auto as f64 / best as f64);
        worst_vs_auto.push(worst as f64 / auto as f64);
        table.row(vec![
            phase.to_string(),
            "auto".to_string(),
            auto.to_string(),
            format!("{:.1}", pct(auto as f64 - best as f64, best as f64)),
            migrations.to_string(),
            landed.to_string(),
        ]);
    }
    let vs_best = pct(geomean(&auto_vs_best) - 1.0, 1.0);
    let vs_worst = geomean(&worst_vs_auto);
    table.emit_with_note(
        args,
        &format!(
            "auto vs per-phase best reachable static: {vs_best:+.1}% geomean; auto\n\
             speedup over per-phase worst static: {vs_worst:.2}x geomean (virtual\n\
             time, deterministic; epoch {epoch} insns, weak-ok policy; PICO-CAS is\n\
             atomicity-class Incorrect, unreachable by policy, excluded from best)"
        ),
    );

    let guard: f64 = args.get("guard", f64::INFINITY);
    if overhead > guard {
        eprintln!(
            "FAIL: armed-idle adaptive overhead {overhead:.1}% exceeds the --guard {guard}% budget"
        );
        std::process::exit(1);
    }
}

fn main() {
    let args = Args::parse(
        &[
            "iters", "reps", "chain", "guard", "threads", "epoch", "scale",
        ],
        &["traced", "profiled", "tiered", "adapt"],
    );
    let iters: u32 = args.get("iters", 300_000);
    let reps: u32 = args.get("reps", 5);
    let chain: u32 = args.get("chain", 64);
    let source = program(iters);

    if args.flag("traced") {
        run_traced(&args, &source, reps, chain);
    } else if args.flag("profiled") {
        run_profiled(&args, &source, reps, chain);
    } else if args.flag("tiered") {
        run_tiered(&args, reps, chain, iters);
    } else if args.flag("adapt") {
        run_adapt(&args, &source, reps, chain);
    } else {
        run_chaining(&args, &source, reps, chain);
    }
}
