//! Execution statistics and the profiling buckets behind the paper's
//! Fig. 12 overhead breakdown and Table I instruction profile.
//!
//! Counters are plain `u64` fields updated by the owning vCPU thread and
//! merged after the run, so collection adds no synchronization to the
//! hot path. Two kinds of cost are recorded:
//!
//! * **measured host time** — `exclusive_ns` (waiting for / holding the
//!   stop-the-world section, parked at safepoints), `mprotect_ns`
//!   (page-permission and remap system-call analogues) and
//!   `lock_wait_ns` (contended store-test entry locks) are timed on the
//!   host clock where they happen;
//! * **virtual time** — the simulated multicore charges every event
//!   against the [`SimCosts`] model, and [`SimBreakdown`] splits the
//!   resulting units into the §IV-B2 buckets (native, exclusive,
//!   instrument, mprotect). Per-store instrumentation is not timed on
//!   the host: timing every inlined hash-table store would cost more
//!   than the store itself.

/// Per-vCPU event counters and timed buckets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VcpuStats {
    /// Guest instructions executed.
    pub insns: u64,
    /// Translated blocks executed.
    pub blocks: u64,
    /// Blocks translated (translation-cache misses).
    pub translations: u64,
    /// Architectural guest loads executed.
    pub loads: u64,
    /// Architectural guest stores executed.
    pub stores: u64,
    /// LL (`ldrex`) instructions executed.
    pub ll: u64,
    /// SC (`strex`) instructions executed.
    pub sc: u64,
    /// SC attempts that failed (monitor lost, hash entry stolen, CAS
    /// mismatch — per the active scheme's semantics).
    pub sc_failures: u64,
    /// Of `sc_failures`, those forced by the chaos plane's `ScFail`
    /// site rather than organic contention — kept separate so injected
    /// noise never pollutes contention analysis.
    pub sc_failures_injected: u64,
    /// Runtime helper invocations.
    pub helper_calls: u64,
    /// Inline store-test table updates (`Op::HtableSet`).
    pub htable_sets: u64,
    /// Page faults routed to the scheme handler.
    pub page_faults: u64,
    /// Of those, faults on the monitored page but a *different* address —
    /// the false-sharing faults of §IV-B2.
    pub false_sharing_faults: u64,
    /// Stop-the-world exclusive sections entered by this vCPU.
    pub exclusive_entries: u64,
    /// Page-permission changes (`mprotect` analogue calls).
    pub mprotect_calls: u64,
    /// Page remaps (`mremap` analogue calls).
    pub remap_calls: u64,
    /// HTM transactions begun by this vCPU.
    pub htm_txns: u64,
    /// HTM aborts observed by this vCPU.
    pub htm_aborts: u64,
    /// Guest `yield`s executed.
    pub yields: u64,
    /// Global-lock acquisitions by scheme helpers (PICO-ST's store/LL/SC
    /// lock, PST's monitor registry). The simulator queues these on one
    /// shared resource, which is how lock contention — invisible to a
    /// single-threaded simulation — re-enters the model.
    pub lock_acquisitions: u64,
    /// Translated-block dispatches executed while a region transaction
    /// was open (PICO-HTM): each one runs engine code *inside* the
    /// transaction, the paper's "QEMU becomes part of the transaction".
    pub txn_dispatches: u64,
    /// LL/SC retry loops fused into single host atomics by the
    /// rule-based translation pass (paper §VI).
    pub fused_rmws: u64,
    /// Block dispatches that went through a cache lookup (L1 probe,
    /// possibly falling through to the sharded shared cache) because no
    /// chain link resolved the successor.
    pub dispatch_lookups: u64,
    /// Block dispatches resolved by a patched chain link on the previous
    /// block's exit — zero lookups, the chained fast path.
    pub chain_follows: u64,
    /// Of `dispatch_lookups`, those satisfied by the per-vCPU L1 cache.
    pub l1_hits: u64,
    /// Of `dispatch_lookups`, those that missed the L1 and went to the
    /// sharded shared cache (translating on a shared-cache miss).
    pub l1_misses: u64,
    /// Faults fired into this vCPU by the chaos injection plane (zero
    /// unless the machine was built with `MachineConfig::chaos`).
    pub injected_faults: u64,
    /// Times an HTM-backed path spent its retry budget and downgraded to
    /// the stop-the-world fallback (HST-HTM's exclusive SC, PICO-HTM's
    /// exclusive region when `htm_degrade_after` is enabled).
    pub degradations: u64,
    /// Hot blocks promoted into tier-2 superblocks by this vCPU (the
    /// vCPU that won the promotion claim and built the superblock).
    pub promotions: u64,
    /// Deopt side exits taken: executions that left a superblock early,
    /// back to the block-granular tier.
    pub deopts: u64,
    /// Original-block boundaries retired inside superblocks (these
    /// blocks are also counted in `blocks`; this splits the tiers).
    pub tier_blocks: u64,
    /// Guest instructions retired inside superblocks (also counted in
    /// `insns`).
    pub tier_insns: u64,
    /// Dead flag writes eliminated by the promotion-time optimizer.
    pub opt_nzcv_killed: u64,
    /// Ops folded/propagated by the promotion-time optimizer.
    pub opt_const_folded: u64,
    /// Duplicate LL-origin hash-table marks coalesced by the
    /// promotion-time optimizer.
    pub opt_htable_coalesced: u64,
    /// Invalidation batches this vCPU triggered: SMC stores over
    /// translated code plus injected invalidation-storm events.
    pub invalidations: u64,
    /// Generational cache flushes this vCPU triggered under the
    /// `cache_limit` memory budget.
    pub flushes: u64,
    /// Blocks this vCPU retired across invalidations and flushes
    /// (original blocks plus demoted superblocks).
    pub retired_blocks: u64,
    /// Limbo blocks this vCPU physically freed after their QSBR grace
    /// period elapsed.
    pub reclaimed_blocks: u64,
    /// Stores that faulted on a write-tracked code page but overlapped
    /// no translated byte — code/data false sharing on a code page (the
    /// SMC analogue of `false_sharing_faults`).
    pub smc_false_sharing: u64,
    /// Adaptive-arbiter epochs this vCPU arbitrated (scored an epoch
    /// under `--scheme auto`).
    pub adapt_epochs: u64,
    /// Scheme migrations this vCPU executed.
    pub adapt_migrations: u64,
    /// Arbiter proposals the engine rejected for atomicity-class policy
    /// reasons.
    pub adapt_denied: u64,

    /// Nanoseconds spent waiting for + holding exclusive sections and
    /// parked at safepoints.
    pub exclusive_ns: u64,
    /// Nanoseconds spent in permission/remap work (including its
    /// stop-the-world component, which is *not* double-counted into
    /// `exclusive_ns` — the scheme owns the attribution).
    pub mprotect_ns: u64,
    /// Nanoseconds spent in contended store-test entry locks.
    pub lock_wait_ns: u64,

    /// Simulated-mode only: this vCPU's final virtual clock, in cost
    /// units (see [`SimCosts`]).
    pub sim_time: u64,
    /// Simulated-mode only: units spent parked by stop-the-world
    /// synchronizations (the "exclusive" bucket of Fig. 12).
    pub sim_exclusive_units: u64,
    /// Simulated-mode only: units charged to permission/remap work.
    pub sim_mprotect_units: u64,
    /// Simulated-mode only: units charged to instrumentation (helper
    /// dispatch + inline table updates).
    pub sim_instrument_units: u64,
    /// Simulated-mode only: units charged to page faults and HTM
    /// transaction management.
    pub sim_event_units: u64,
}

impl VcpuStats {
    /// Merges another vCPU's counters into this one.
    pub fn merge(&mut self, other: &VcpuStats) {
        let VcpuStats {
            insns,
            blocks,
            translations,
            loads,
            stores,
            ll,
            sc,
            sc_failures,
            sc_failures_injected,
            helper_calls,
            htable_sets,
            page_faults,
            false_sharing_faults,
            exclusive_entries,
            mprotect_calls,
            remap_calls,
            htm_txns,
            htm_aborts,
            yields,
            lock_acquisitions,
            txn_dispatches,
            fused_rmws,
            dispatch_lookups,
            chain_follows,
            l1_hits,
            l1_misses,
            injected_faults,
            degradations,
            promotions,
            deopts,
            tier_blocks,
            tier_insns,
            opt_nzcv_killed,
            opt_const_folded,
            opt_htable_coalesced,
            invalidations,
            flushes,
            retired_blocks,
            reclaimed_blocks,
            smc_false_sharing,
            adapt_epochs,
            adapt_migrations,
            adapt_denied,
            exclusive_ns,
            mprotect_ns,
            lock_wait_ns,
            sim_time,
            sim_exclusive_units,
            sim_mprotect_units,
            sim_instrument_units,
            sim_event_units,
        } = other;
        self.insns += insns;
        self.blocks += blocks;
        self.translations += translations;
        self.loads += loads;
        self.stores += stores;
        self.ll += ll;
        self.sc += sc;
        self.sc_failures += sc_failures;
        self.sc_failures_injected += sc_failures_injected;
        self.helper_calls += helper_calls;
        self.htable_sets += htable_sets;
        self.page_faults += page_faults;
        self.false_sharing_faults += false_sharing_faults;
        self.exclusive_entries += exclusive_entries;
        self.mprotect_calls += mprotect_calls;
        self.remap_calls += remap_calls;
        self.htm_txns += htm_txns;
        self.htm_aborts += htm_aborts;
        self.yields += yields;
        self.lock_acquisitions += lock_acquisitions;
        self.txn_dispatches += txn_dispatches;
        self.fused_rmws += fused_rmws;
        self.dispatch_lookups += dispatch_lookups;
        self.chain_follows += chain_follows;
        self.l1_hits += l1_hits;
        self.l1_misses += l1_misses;
        self.injected_faults += injected_faults;
        self.degradations += degradations;
        self.promotions += promotions;
        self.deopts += deopts;
        self.tier_blocks += tier_blocks;
        self.tier_insns += tier_insns;
        self.opt_nzcv_killed += opt_nzcv_killed;
        self.opt_const_folded += opt_const_folded;
        self.opt_htable_coalesced += opt_htable_coalesced;
        self.invalidations += invalidations;
        self.flushes += flushes;
        self.retired_blocks += retired_blocks;
        self.reclaimed_blocks += reclaimed_blocks;
        self.smc_false_sharing += smc_false_sharing;
        self.adapt_epochs += adapt_epochs;
        self.adapt_migrations += adapt_migrations;
        self.adapt_denied += adapt_denied;
        self.exclusive_ns += exclusive_ns;
        self.mprotect_ns += mprotect_ns;
        self.lock_wait_ns += lock_wait_ns;
        self.sim_time = self.sim_time.max(*sim_time);
        self.sim_exclusive_units += sim_exclusive_units;
        self.sim_mprotect_units += sim_mprotect_units;
        self.sim_instrument_units += sim_instrument_units;
        self.sim_event_units += sim_event_units;
    }

    /// Renders every counter as one JSON object — the stats block of
    /// the `adbt-metrics-v1` snapshot schema (`adbt_run --stats-json`
    /// and the final `--metrics` line). The exhaustive destructure
    /// keeps the schema honest: adding a counter without exporting it
    /// fails to compile, same discipline as [`VcpuStats::merge`].
    pub fn to_json(&self) -> String {
        let VcpuStats {
            insns,
            blocks,
            translations,
            loads,
            stores,
            ll,
            sc,
            sc_failures,
            sc_failures_injected,
            helper_calls,
            htable_sets,
            page_faults,
            false_sharing_faults,
            exclusive_entries,
            mprotect_calls,
            remap_calls,
            htm_txns,
            htm_aborts,
            yields,
            lock_acquisitions,
            txn_dispatches,
            fused_rmws,
            dispatch_lookups,
            chain_follows,
            l1_hits,
            l1_misses,
            injected_faults,
            degradations,
            promotions,
            deopts,
            tier_blocks,
            tier_insns,
            opt_nzcv_killed,
            opt_const_folded,
            opt_htable_coalesced,
            invalidations,
            flushes,
            retired_blocks,
            reclaimed_blocks,
            smc_false_sharing,
            adapt_epochs,
            adapt_migrations,
            adapt_denied,
            exclusive_ns,
            mprotect_ns,
            lock_wait_ns,
            sim_time,
            sim_exclusive_units,
            sim_mprotect_units,
            sim_instrument_units,
            sim_event_units,
        } = self;
        let fields: [(&str, u64); 51] = [
            ("insns", *insns),
            ("blocks", *blocks),
            ("translations", *translations),
            ("loads", *loads),
            ("stores", *stores),
            ("ll", *ll),
            ("sc", *sc),
            ("sc_failures", *sc_failures),
            ("sc_failures_injected", *sc_failures_injected),
            ("helper_calls", *helper_calls),
            ("htable_sets", *htable_sets),
            ("page_faults", *page_faults),
            ("false_sharing_faults", *false_sharing_faults),
            ("exclusive_entries", *exclusive_entries),
            ("mprotect_calls", *mprotect_calls),
            ("remap_calls", *remap_calls),
            ("htm_txns", *htm_txns),
            ("htm_aborts", *htm_aborts),
            ("yields", *yields),
            ("lock_acquisitions", *lock_acquisitions),
            ("txn_dispatches", *txn_dispatches),
            ("fused_rmws", *fused_rmws),
            ("dispatch_lookups", *dispatch_lookups),
            ("chain_follows", *chain_follows),
            ("l1_hits", *l1_hits),
            ("l1_misses", *l1_misses),
            ("injected_faults", *injected_faults),
            ("degradations", *degradations),
            ("promotions", *promotions),
            ("deopts", *deopts),
            ("tier_blocks", *tier_blocks),
            ("tier_insns", *tier_insns),
            ("opt_nzcv_killed", *opt_nzcv_killed),
            ("opt_const_folded", *opt_const_folded),
            ("opt_htable_coalesced", *opt_htable_coalesced),
            ("invalidations", *invalidations),
            ("flushes", *flushes),
            ("retired_blocks", *retired_blocks),
            ("reclaimed_blocks", *reclaimed_blocks),
            ("smc_false_sharing", *smc_false_sharing),
            ("adapt_epochs", *adapt_epochs),
            ("adapt_migrations", *adapt_migrations),
            ("adapt_denied", *adapt_denied),
            ("exclusive_ns", *exclusive_ns),
            ("mprotect_ns", *mprotect_ns),
            ("lock_wait_ns", *lock_wait_ns),
            ("sim_time", *sim_time),
            ("sim_exclusive_units", *sim_exclusive_units),
            ("sim_mprotect_units", *sim_mprotect_units),
            ("sim_instrument_units", *sim_instrument_units),
            ("sim_event_units", *sim_event_units),
        ];
        let cells: Vec<String> = fields
            .iter()
            .map(|(name, value)| format!("\"{name}\":{value}"))
            .collect();
        format!("{{{}}}", cells.join(","))
    }
}

/// The virtual-time cost model used by the simulated multicore
/// ([`SimScheduler`](crate::SimScheduler)).
///
/// Units are abstract "cycles"; only *ratios* matter. Defaults are
/// calibrated from the cost structure the paper describes for QEMU on
/// x86: a helper call costs tens of instructions of spill/dispatch
/// overhead, an inline hash-table update costs about one store, a page
/// fault costs a signal delivery (~microseconds ≈ thousands of
/// instruction-units), and an `mprotect` costs a syscall plus bringing
/// every other thread to a safepoint (the clock synchronization is
/// applied by the scheduler on top of these per-event charges).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimCosts {
    /// Per guest instruction.
    pub insn: u64,
    /// Extra per guest load or store (memory access path).
    pub memory_access: u64,
    /// Per runtime-helper dispatch (PICO-ST's per-store penalty).
    pub helper_call: u64,
    /// Per inline store-test table update (HST's per-store penalty).
    pub htable_set: u64,
    /// Per LL and per SC base emulation work.
    pub llsc: u64,
    /// Per guest `yield` (spin-wait hint).
    pub yield_hint: u64,
    /// Per page fault delivered to a scheme handler.
    pub page_fault: u64,
    /// Per `mprotect` permission change (syscall analogue).
    pub mprotect: u64,
    /// Per `mremap` page move (PST-REMAP's syscall analogue).
    pub remap: u64,
    /// Per HTM transaction begin+commit pair.
    pub htm_txn: u64,
    /// Extra per HTM abort (rollback + restart).
    pub htm_abort: u64,
    /// Extra per block dispatched inside an open region transaction —
    /// the inflated emulator code running transactionally (PICO-HTM).
    pub txn_dispatch: u64,
    /// Flat cost of a stop-the-world section (the work done alone plus
    /// resuming everyone), paid by the requester.
    pub exclusive_section: u64,
    /// How long the requester waits for every other vCPU to reach its
    /// next safepoint (block boundary) — the entry latency of a
    /// stop-the-world section.
    pub safepoint_wait: u64,
    /// How long a scheme's *global* lock (PICO-ST registry, PST monitor
    /// table) is held per acquisition; acquisitions queue on one shared
    /// resource, so past saturation the lock serializes all comers.
    pub lock_hold: u64,
    /// Per block translation (cold code only).
    pub translation: u64,
    /// The mean scheduling quantum, in units: a vCPU keeps running while
    /// its clock is within this bound of the furthest-behind peer. Small
    /// values over-interleave (every LL/SC pair gets preempted mid-window
    /// — unphysical retry storms); large values under-interleave (races
    /// disappear). The default corresponds to a few dozen guest
    /// instructions, the scale of real cache-contention windows.
    pub quantum: u64,
    /// Seed for the deterministic quantum jitter. Each quantum's length
    /// is drawn from `[quantum/2, 3*quantum/2)` by a seeded xorshift, so
    /// preemption points land at varied phases of the guest's loops —
    /// without jitter, every preemption aligns with whole synchronization
    /// operations and cross-thread races (including ABA) artificially
    /// vanish. Same seed ⇒ same schedule ⇒ bit-identical results.
    pub jitter_seed: u64,
}

impl Default for SimCosts {
    fn default() -> SimCosts {
        SimCosts {
            insn: 1,
            memory_access: 1,
            helper_call: 12,
            htable_set: 1,
            llsc: 3,
            yield_hint: 10,
            page_fault: 2_000,
            mprotect: 3_000,
            remap: 1_500,
            htm_txn: 40,
            htm_abort: 60,
            txn_dispatch: 50,
            exclusive_section: 60,
            safepoint_wait: 20,
            lock_hold: 30,
            translation: 300,
            quantum: 120,
            jitter_seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

/// A snapshot of the counters the simulator charges for; the per-block
/// delta is converted to virtual-time units.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SimSnapshot {
    insns: u64,
    loads: u64,
    stores: u64,
    ll: u64,
    sc: u64,
    helper_calls: u64,
    htable_sets: u64,
    page_faults: u64,
    mprotect_calls: u64,
    remap_calls: u64,
    htm_txns: u64,
    htm_aborts: u64,
    yields: u64,
    exclusive_entries: u64,
    translations: u64,
    lock_acquisitions: u64,
    txn_dispatches: u64,
}

impl SimSnapshot {
    pub(crate) fn capture(stats: &VcpuStats) -> SimSnapshot {
        SimSnapshot {
            insns: stats.insns,
            loads: stats.loads,
            stores: stats.stores,
            ll: stats.ll,
            sc: stats.sc,
            helper_calls: stats.helper_calls,
            htable_sets: stats.htable_sets,
            page_faults: stats.page_faults,
            mprotect_calls: stats.mprotect_calls,
            remap_calls: stats.remap_calls,
            htm_txns: stats.htm_txns,
            htm_aborts: stats.htm_aborts,
            yields: stats.yields,
            exclusive_entries: stats.exclusive_entries,
            translations: stats.translations,
            lock_acquisitions: stats.lock_acquisitions,
            txn_dispatches: stats.txn_dispatches,
        }
    }

    /// Charges the delta since this snapshot against `costs`, updating
    /// the per-bucket unit counters, and returns
    /// `(total units, stop-the-world sections, global-lock acquisitions)`.
    pub(crate) fn charge(&self, stats: &mut VcpuStats, costs: &SimCosts) -> (u64, u64, u64) {
        let instrument = (stats.helper_calls - self.helper_calls) * costs.helper_call
            + (stats.htable_sets - self.htable_sets) * costs.htable_set;
        let mprotect = (stats.mprotect_calls - self.mprotect_calls) * costs.mprotect
            + (stats.remap_calls - self.remap_calls) * costs.remap;
        let events = (stats.page_faults - self.page_faults) * costs.page_fault
            + (stats.htm_txns - self.htm_txns) * costs.htm_txn
            + (stats.htm_aborts - self.htm_aborts) * costs.htm_abort
            + (stats.txn_dispatches - self.txn_dispatches) * costs.txn_dispatch
            + (stats.translations - self.translations) * costs.translation;
        let native = (stats.insns - self.insns) * costs.insn
            + (stats.loads - self.loads + stats.stores - self.stores) * costs.memory_access
            + (stats.ll - self.ll + stats.sc - self.sc) * costs.llsc
            + (stats.yields - self.yields) * costs.yield_hint;
        stats.sim_instrument_units += instrument;
        stats.sim_mprotect_units += mprotect;
        stats.sim_event_units += events;
        let total = instrument + mprotect + events + native;
        let syncs = stats.exclusive_entries - self.exclusive_entries;
        let locks = stats.lock_acquisitions - self.lock_acquisitions;
        (total, syncs, locks)
    }
}

/// The Fig. 12 overhead breakdown in virtual-time units.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimBreakdown {
    /// Units of plain emulation (remainder).
    pub native: u64,
    /// Units parked by stop-the-world synchronizations.
    pub exclusive: u64,
    /// Units of store/LL/SC instrumentation.
    pub instrument: u64,
    /// Units of permission/remap work.
    pub mprotect: u64,
    /// Signed accounting residue: total CPU units minus every attributed
    /// bucket. Non-negative on a correct run (`native` equals it); a
    /// negative value means some bucket over-charged (double-counted
    /// units) and `native` was clamped to 0 — callers should surface it
    /// rather than let the clamp hide the accounting bug.
    pub residue: i64,
}

impl SimBreakdown {
    /// Derives the breakdown from merged stats. Total CPU units are
    /// `sim_time × threads` (every clock ends at the run's makespan in a
    /// balanced run; stragglers' idle tails count as native headroom).
    pub fn derive(stats: &VcpuStats, threads: u32) -> SimBreakdown {
        let total = stats.sim_time.saturating_mul(threads as u64);
        let exclusive = stats.sim_exclusive_units;
        let instrument = stats.sim_instrument_units;
        let mprotect = stats.sim_mprotect_units;
        let residue = total as i128 - exclusive as i128 - instrument as i128 - mprotect as i128;
        debug_assert!(
            residue >= 0,
            "sim breakdown residue is negative ({residue}): attributed units \
             (exclusive {exclusive} + instrument {instrument} + mprotect {mprotect}) \
             exceed total {total} — a bucket is over-charging"
        );
        let native = residue.max(0) as u64;
        SimBreakdown {
            native,
            exclusive,
            instrument,
            mprotect,
            residue: residue.clamp(i64::MIN as i128, i64::MAX as i128) as i64,
        }
    }

    /// Total accounted units.
    pub fn total(&self) -> u64 {
        self.native + self.exclusive + self.instrument + self.mprotect
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_snapshot_charges_deltas() {
        let costs = SimCosts::default();
        let mut stats = VcpuStats::default();
        let snap = SimSnapshot::capture(&stats);
        stats.insns = 10;
        stats.stores = 2;
        stats.helper_calls = 1;
        stats.exclusive_entries = 1;
        let (units, syncs, locks) = snap.charge(&mut stats, &costs);
        assert_eq!(syncs, 1);
        assert_eq!(locks, 0);
        assert_eq!(
            units,
            10 * costs.insn + 2 * costs.memory_access + costs.helper_call
        );
        assert_eq!(stats.sim_instrument_units, costs.helper_call);
    }

    #[test]
    fn sim_breakdown_accounts_all_units() {
        let stats = VcpuStats {
            sim_time: 1_000,
            sim_exclusive_units: 100,
            sim_instrument_units: 200,
            sim_mprotect_units: 50,
            ..VcpuStats::default()
        };
        let b = SimBreakdown::derive(&stats, 4);
        assert_eq!(b.total(), 4_000);
        assert_eq!(b.exclusive, 100);
        assert_eq!(b.native, 4_000 - 350);
        assert_eq!(b.residue, 4_000 - 350);
    }

    /// Over-charged buckets must not be silently clamped away: debug
    /// builds assert, release builds report the negative residue so the
    /// caller can print a `breakdown-residue` warning.
    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "residue is negative"))]
    fn sim_breakdown_surfaces_negative_residue() {
        let stats = VcpuStats {
            sim_time: 100,
            sim_exclusive_units: 150,
            ..VcpuStats::default()
        };
        let b = SimBreakdown::derive(&stats, 1);
        assert_eq!(b.residue, -50);
        assert_eq!(b.native, 0, "native stays clamped for display");
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = VcpuStats {
            insns: 10,
            stores: 3,
            exclusive_ns: 100,
            ..VcpuStats::default()
        };
        let b = VcpuStats {
            insns: 5,
            stores: 4,
            exclusive_ns: 50,
            sc_failures: 2,
            ..VcpuStats::default()
        };
        a.merge(&b);
        assert_eq!(a.insns, 15);
        assert_eq!(a.stores, 7);
        assert_eq!(a.exclusive_ns, 150);
        assert_eq!(a.sc_failures, 2);
    }
}
