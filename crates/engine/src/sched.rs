//! Deterministic scheduling: every single-threaded run mode.
//!
//! The threaded engine interleaves vCPUs wherever the OS scheduler
//! pleases. Every deterministic mode instead runs through
//! [`MachineCore::run_scheduled`], which executes vCPUs one **atom** at a
//! time on a single OS thread and asks a [`Scheduler`] which vCPU runs
//! next. The policies are:
//!
//! * [`ScriptedScheduler`] — replays a fixed segment script, so litmus
//!   tests pin an exact interleaving and the checker (`adbt-check`) can
//!   *enumerate* schedules instead of sampling them;
//! * [`SimScheduler`] — the simulated multicore: virtual clocks charged
//!   from a cost model after every atom, the smallest clock runs next.
//!
//! # The yield-point model
//!
//! An atom is the unit of scheduling: one translated block (the checker
//! sets `max_block_insns = 1`, so a block is one guest instruction), or,
//! under a [fine-grained](Scheduler::fine_grained) scheduler, the
//! prefix/suffix of a block around an explicit [`Op::Window`] /
//! [`Op::Yield`] pause point. This mirrors where the real engine can
//! actually interleave: block boundaries are where safepoints park
//! vCPUs and where stop-the-world sections cut in, while `Op::Window`
//! marks a spot *inside* a lowered sequence where the modelled scheme
//! has a genuine non-atomic window (e.g. PICO-ST's test-then-store).
//! Everything else a scheme does inline within a block — HST's fused
//! `HtableSet` + store, PICO-CAS's value-compare — is atomic in the
//! real engine and stays atomic here.
//!
//! The scheduler *owns* every yield point in a second sense too: each
//! atomicity-relevant action (LL, SC, guest store, safepoint, exclusive
//! enter/exit, chaos injection) is streamed to it as a [`SchedEvent`],
//! which is what the checker's oracle consumes.
//!
//! # Schedule encoding
//!
//! A schedule is written as comma-separated segments `VxN` — "run vCPU
//! index `V` for `N` atoms" — with a bare `V` meaning "until further
//! notice": `0x12,1x3,0` runs vCPU 0 for 12 atoms, vCPU 1 for 3, then
//! vCPU 0 again. When the script runs out (or names a finished vCPU),
//! the [`ScriptedScheduler`] continues *non-preemptively*: it keeps the
//! last vCPU running until it exits, then picks the lowest-index one
//! still enabled. That convention keeps traces short and is what the
//! explorer's switch-insertion search builds on.
//!
//! [`MachineCore::run_scheduled`]: crate::MachineCore::run_scheduled
//! [`Op::Window`]: adbt_ir::Op::Window
//! [`Op::Yield`]: adbt_ir::Op::Yield

use crate::runtime::ExecCtx;
use crate::stats::{SimCosts, SimSnapshot};
use adbt_chaos::ChaosSite;
use adbt_mmu::Width;

/// An atomicity-relevant action observed while running an atom, streamed
/// to [`Scheduler::observe`]. Guest addresses are virtual; `tid` is the
/// 1-based vCPU id.
///
/// Events inside an open HTM region transaction are buffered and only
/// delivered when the transaction commits (in commit order) — an
/// aborted transaction's speculative stores never become visible, so
/// they must not reach the oracle either.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedEvent {
    /// A load-link armed `tid`'s monitor on `addr`.
    Ll { tid: u32, addr: u32 },
    /// A store-conditional by `tid` to `addr` reported success (`ok`)
    /// or failure; `value` is the word it tried to store.
    Sc {
        tid: u32,
        addr: u32,
        ok: bool,
        value: u32,
    },
    /// A plain guest store by `tid` became architecturally visible.
    GuestStore { tid: u32, addr: u32, width: Width },
    /// `tid` executed `clrex`, disarming its monitor.
    Clrex { tid: u32 },
    /// `tid` crossed a block-boundary safepoint.
    Safepoint { tid: u32 },
    /// `tid` entered a stop-the-world exclusive section.
    ExclusiveEnter { tid: u32 },
    /// `tid` left its stop-the-world exclusive section.
    ExclusiveExit { tid: u32 },
    /// The chaos plane injected a fault at `site` while `tid` ran.
    Chaos { tid: u32, site: ChaosSite },
    /// A store by `tid` at `addr` invalidated translated code (SMC):
    /// the overlapping translations were retired and will retranslate
    /// against the patched bytes on their next dispatch.
    Invalidate { tid: u32, addr: u32 },
}

/// Owns every yield point of a scheduled run: consulted once per atom
/// for who runs next, and shown every atomicity-relevant event.
pub trait Scheduler {
    /// Picks the vCPU index to run for atom number `atom`. `enabled[i]`
    /// is false once vCPU `i` has finished; at least one entry is true.
    /// `last` is the index that ran the previous atom (`None` for the
    /// first). Returning a disabled index is a checker bug and panics.
    fn pick(&mut self, atom: u64, enabled: &[bool], last: Option<usize>) -> usize;

    /// Observes an event produced while running atom `atom`.
    fn observe(&mut self, atom: u64, event: SchedEvent) {
        let _ = (atom, event);
    }

    /// Whether atoms split at `Op::Yield`/`Op::Window` pause points and
    /// every atomicity event is streamed to [`Scheduler::observe`]. Asked
    /// once per run; a scheduler that only needs whole-block atoms (the
    /// simulated multicore) turns both off.
    fn fine_grained(&self) -> bool {
        true
    }

    /// Called after every atom, before a finished vCPU's outcome is
    /// recorded: `idx` ran it, `enabled` is the live set it was picked
    /// from, and `ctxs` are every vCPU's contexts (for charging the
    /// atom's counters).
    fn after_atom(&mut self, idx: usize, enabled: &[bool], ctxs: &mut [ExecCtx<'_>]) {
        let _ = (idx, enabled, ctxs);
    }
}

/// One parsed schedule segment: run vCPU `vcpu` for `atoms` atoms
/// (`u64::MAX` encodes the open-ended bare-`V` form).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Segment {
    vcpu: usize,
    atoms: u64,
}

/// A [`Scheduler`] that replays a fixed segment script, recording what
/// actually happened so the explorer can mutate it.
///
/// Script exhaustion (and any segment naming a finished vCPU) falls back
/// to the non-preemptive default: keep `last` running while enabled,
/// else the lowest enabled index.
#[derive(Clone, Debug, Default)]
pub struct ScriptedScheduler {
    script: Vec<Segment>,
    seg: usize,
    used: u64,
    /// The vCPU index chosen at each atom, in order.
    pub choices: Vec<u32>,
    /// Bitmask of enabled vCPUs at each atom (bit `i` = vCPU `i`).
    pub enabled_masks: Vec<u64>,
    /// Every event observed, tagged with its atom number.
    pub events: Vec<(u64, SchedEvent)>,
}

impl ScriptedScheduler {
    /// A scheduler with an empty script: pure non-preemptive execution
    /// (vCPU 0 to completion, then 1, …).
    pub fn new() -> ScriptedScheduler {
        ScriptedScheduler::default()
    }

    /// A scheduler replaying explicit `(vcpu, atoms)` segments.
    pub fn from_segments(segments: &[(usize, u64)]) -> ScriptedScheduler {
        ScriptedScheduler {
            script: segments
                .iter()
                .map(|&(vcpu, atoms)| Segment { vcpu, atoms })
                .collect(),
            ..ScriptedScheduler::default()
        }
    }

    /// Parses a trace like `0x12,1x3,0` (see module docs). Rejects
    /// malformed segments with a descriptive error.
    pub fn parse(trace: &str) -> Result<ScriptedScheduler, String> {
        let mut script = Vec::new();
        for part in trace.split(',') {
            let part = part.trim();
            if part.is_empty() {
                return Err(format!("empty segment in schedule trace '{trace}'"));
            }
            let (vcpu_text, atoms) = match part.split_once('x') {
                Some((v, n)) => {
                    let atoms: u64 = n
                        .parse()
                        .map_err(|_| format!("bad atom count '{n}' in segment '{part}'"))?;
                    if atoms == 0 {
                        return Err(format!("zero-length segment '{part}'"));
                    }
                    (v, atoms)
                }
                None => (part, u64::MAX),
            };
            let vcpu: usize = vcpu_text
                .parse()
                .map_err(|_| format!("bad vCPU index '{vcpu_text}' in segment '{part}'"))?;
            script.push(Segment { vcpu, atoms });
        }
        Ok(ScriptedScheduler {
            script,
            ..ScriptedScheduler::default()
        })
    }

    /// Renders the *recorded* choices back into the compact segment
    /// form, with the final segment left open-ended. The result replays
    /// this exact run when parsed again.
    pub fn trace(&self) -> String {
        format_choices(&self.choices)
    }
}

/// Compresses a per-atom choice list into the `VxN,…,V` segment form.
pub fn format_choices(choices: &[u32]) -> String {
    let mut out = String::new();
    let mut i = 0;
    while i < choices.len() {
        let v = choices[i];
        let mut n = 1;
        while i + n < choices.len() && choices[i + n] == v {
            n += 1;
        }
        if !out.is_empty() {
            out.push(',');
        }
        if i + n == choices.len() {
            // Last segment: open-ended, "run to completion".
            out.push_str(&v.to_string());
        } else {
            out.push_str(&format!("{v}x{n}"));
        }
        i += n;
    }
    if out.is_empty() {
        out.push('0');
    }
    out
}

impl Scheduler for ScriptedScheduler {
    fn pick(&mut self, _atom: u64, enabled: &[bool], last: Option<usize>) -> usize {
        // Advance past exhausted or dead segments.
        while self.seg < self.script.len() {
            let s = self.script[self.seg];
            if self.used >= s.atoms || !enabled.get(s.vcpu).copied().unwrap_or(false) {
                self.seg += 1;
                self.used = 0;
            } else {
                break;
            }
        }
        let idx = if self.seg < self.script.len() {
            self.used += 1;
            self.script[self.seg].vcpu
        } else {
            // Non-preemptive default continuation.
            match last {
                Some(l) if enabled[l] => l,
                _ => enabled
                    .iter()
                    .position(|&e| e)
                    .expect("pick() called with no enabled vCPU"),
            }
        };
        self.choices.push(idx as u32);
        let mask = enabled
            .iter()
            .enumerate()
            .filter(|&(_, &e)| e)
            .fold(0u64, |m, (i, _)| m | (1 << i));
        self.enabled_masks.push(mask);
        idx
    }

    fn observe(&mut self, atom: u64, event: SchedEvent) {
        self.events.push((atom, event));
    }
}

/// The simulated multicore as a [`Scheduler`]: always advances the vCPU
/// with the smallest virtual clock, one whole translated block per atom,
/// and charges each block against the [`SimCosts`] model. Stop-the-world
/// sections synchronize every clock (which is exactly why
/// exclusive-heavy schemes stop scaling — the paper's observation,
/// reproduced host-independently).
///
/// Interleaving is block-granular, so cross-thread races (SC failures,
/// HTM conflicts, ABA interleavings) genuinely occur; the schedule is a
/// pure function of the guest and the cost model, so runs are exactly
/// reproducible. Each vCPU's clock lands in its `VcpuStats::sim_time`.
#[derive(Clone, Debug)]
pub struct SimScheduler {
    costs: SimCosts,
    vcpus: Vec<SimVcpu>,
    /// Least-recently-run stamp source (see [`SimVcpu::last_run`]).
    run_counter: u64,
    /// The running vCPU keeps the CPU while its clock stays within this.
    quantum_end: u64,
    /// Xorshift state of the quantum jitter.
    rng: u64,
    /// The shared-resource clock for schemes' global locks: an
    /// acquisition at time t waits until the lock frees, then holds it
    /// for `lock_hold` — a queueing model of lock contention.
    lock_free_at: u64,
}

/// One vCPU's virtual-time state.
#[derive(Clone, Copy, Debug, Default)]
struct SimVcpu {
    clock: u64,
    /// The counters already charged to `clock`.
    charged: SimSnapshot,
    /// Least-recently-run tie-break stamp. Stop-the-world syncs
    /// equalize every clock, and a fixed (lowest-index) tie-break would
    /// then starve everyone but one spinner — a waiter that syncs on
    /// every spin would never let the lock holder run.
    last_run: u64,
}

impl SimScheduler {
    /// A scheduler charging atoms against `costs`.
    pub fn new(costs: &SimCosts) -> SimScheduler {
        SimScheduler {
            costs: *costs,
            vcpus: Vec::new(),
            run_counter: 0,
            quantum_end: 0,
            rng: costs.jitter_seed | 1,
            lock_free_at: 0,
        }
    }
}

impl Scheduler for SimScheduler {
    fn pick(&mut self, _atom: u64, enabled: &[bool], last: Option<usize>) -> usize {
        self.vcpus.resize(enabled.len(), SimVcpu::default());
        if let Some(idx) = last {
            if enabled[idx] && self.vcpus[idx].clock <= self.quantum_end {
                return idx;
            }
        }
        // Advance the vCPU with the smallest virtual clock (ties go to
        // the least recently run — fully deterministic) and keep it
        // running for one scheduling quantum.
        let idx = (0..enabled.len())
            .filter(|&i| enabled[i])
            .min_by_key(|&i| (self.vcpus[i].clock, self.vcpus[i].last_run, i))
            .expect("pick() called with no enabled vCPU");
        self.run_counter += 1;
        self.vcpus[idx].last_run = self.run_counter;
        // Jittered quantum: varied preemption phases are what let
        // several vCPUs be mid-operation at once (see SimCosts).
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let base = self.costs.quantum.max(2);
        self.quantum_end = self.vcpus[idx]
            .clock
            .saturating_add(base / 2 + self.rng % base);
        idx
    }

    /// The virtual-time model charges and preempts at block granularity.
    fn fine_grained(&self) -> bool {
        false
    }

    fn after_atom(&mut self, idx: usize, enabled: &[bool], ctxs: &mut [ExecCtx<'_>]) {
        let costs = self.costs;
        let stats = &mut ctxs[idx].stats;
        let (units, syncs, locks) = self.vcpus[idx].charged.charge(stats, &costs);
        self.vcpus[idx].charged = SimSnapshot::capture(stats);
        let mut clock = self.vcpus[idx].clock + units;
        // Global-lock acquisitions queue on one shared resource.
        for _ in 0..locks {
            if self.lock_free_at > clock {
                stats.sim_exclusive_units += self.lock_free_at - clock;
                clock = self.lock_free_at;
            }
            self.lock_free_at = clock + costs.lock_hold;
            clock += costs.lock_hold;
        }
        // A stop-the-world section: the requester waits for everyone to
        // reach a safepoint, runs alone, then resumes the world; laggard
        // clocks are floored to the section's end (they were parked
        // through it).
        let section = costs.safepoint_wait + costs.exclusive_section;
        stats.sim_exclusive_units += syncs * section;
        stats.sim_time = clock + syncs * section;
        for _ in 0..syncs {
            clock += section;
            for (j, other) in self.vcpus.iter_mut().enumerate() {
                if j != idx && enabled[j] && other.clock < clock {
                    ctxs[j].stats.sim_exclusive_units += clock - other.clock;
                    ctxs[j].stats.sim_time = clock;
                    other.clock = clock;
                }
            }
        }
        self.vcpus[idx].clock = clock;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(sched: &mut ScriptedScheduler, enabled: &[bool], n: u64) -> Vec<usize> {
        let mut last = None;
        (0..n)
            .map(|atom| {
                let idx = sched.pick(atom, enabled, last);
                last = Some(idx);
                idx
            })
            .collect()
    }

    #[test]
    fn parse_and_replay_round_trip() {
        let sched = ScriptedScheduler::parse("0x2,1x3,0").unwrap();
        let mut s = sched;
        let picks = drive(&mut s, &[true, true], 8);
        assert_eq!(picks, vec![0, 0, 1, 1, 1, 0, 0, 0]);
        assert_eq!(s.trace(), "0x2,1x3,0");
        // The regenerated trace replays identically.
        let mut again = ScriptedScheduler::parse(&s.trace()).unwrap();
        assert_eq!(drive(&mut again, &[true, true], 8), picks);
    }

    #[test]
    fn empty_script_is_non_preemptive() {
        let mut s = ScriptedScheduler::new();
        assert_eq!(drive(&mut s, &[true, true, true], 4), vec![0, 0, 0, 0]);
    }

    #[test]
    fn dead_segment_targets_are_skipped() {
        // Segment names vCPU 1, but it is disabled: fall through to the
        // next segment, then the default.
        let mut s = ScriptedScheduler::from_segments(&[(1, 5), (2, 2)]);
        let picks = drive(&mut s, &[true, false, true], 4);
        assert_eq!(picks, vec![2, 2, 2, 2]);
    }

    #[test]
    fn default_falls_to_lowest_enabled_when_last_dies() {
        let mut s = ScriptedScheduler::new();
        let first = s.pick(0, &[false, true, true], None);
        assert_eq!(first, 1);
        // vCPU 1 finishes; the default hands over to the lowest enabled.
        let second = s.pick(1, &[false, false, true], Some(1));
        assert_eq!(second, 2);
    }

    #[test]
    fn parse_rejects_malformed_traces() {
        assert!(ScriptedScheduler::parse("").is_err());
        assert!(ScriptedScheduler::parse("0x").is_err());
        assert!(ScriptedScheduler::parse("x3").is_err());
        assert!(ScriptedScheduler::parse("0x0").is_err());
        assert!(ScriptedScheduler::parse("1,,2").is_err());
        assert!(ScriptedScheduler::parse("-1x2").is_err());
    }

    #[test]
    fn format_compresses_runs() {
        assert_eq!(format_choices(&[0, 0, 0, 1, 0, 0]), "0x3,1x1,0");
        assert_eq!(format_choices(&[2]), "2");
        assert_eq!(format_choices(&[]), "0");
    }
}
