//! The closed loop: rounds of set-up (generate and assemble every
//! program of the workload, then build a machine and load the image for
//! each run) and timed runs (one per program × scheme cell) until the
//! time budget is spent. One run at a time, so each run has the host's
//! two cores to itself.

use crate::gen::{generate, GuestProgram, Workload};
use crate::reference::{time_reference, NOMINAL_MS};
use crate::run::{execute, RunResult, IMAGE_BASE, SCHEMES};
use crate::stats::{geomean, median, quantile};
use adbt::{assemble, Image, VcpuStats};
use adbt_htm::HtmStats;
use std::time::{Duration, Instant};

/// Rounds run even when the budget is spent sooner.
pub const MIN_ROUNDS: usize = 3;

/// Failure messages kept for the report.
const KEPT_FAILURES: usize = 8;

/// One recorded span: a call from the benchmark into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer function called (`assemble`, `build`, `load`,
    /// `run_vcpus`, `verify`, or `round` / `run` for the parents).
    pub name: &'static str,
    /// Start, since the measurement began.
    pub start: Duration,
    /// End, since the measurement began.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The program and scheme of the run the span belongs to.
    pub cell: Option<(&'static str, &'static str)>,
}

/// Engine counters summed over every run.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Merged per-vCPU statistics.
    pub stats: VcpuStats,
    /// HTM domain statistics.
    pub htm: HtmStats,
    /// Exclusive sections entered.
    pub exclusive_sections: u64,
    /// Requester-side exclusive wait, ns.
    pub exclusive_wait_ns: u64,
    /// Cache invalidation events.
    pub invalidations: u64,
    /// Blocks physically reclaimed after their grace period.
    pub reclaimed_blocks: u64,
    /// Translation-cache slots allocated.
    pub cached_blocks: u64,
}

impl Counters {
    fn add(&mut self, r: &RunResult) {
        self.stats.merge(&r.report.stats);
        let h = &r.report.htm;
        self.htm.begun += h.begun;
        self.htm.committed += h.committed;
        self.htm.conflict_aborts += h.conflict_aborts;
        self.htm.capacity_aborts += h.capacity_aborts;
        self.htm.explicit_aborts += h.explicit_aborts;
        self.htm.interference_aborts += h.interference_aborts;
        self.exclusive_sections += r.exclusive.sections;
        self.exclusive_wait_ns += r.exclusive.wait_ns;
        self.invalidations += r.occupancy.invalidations;
        self.reclaimed_blocks += r.occupancy.reclaimed_blocks;
        self.cached_blocks += r.cached_blocks as u64;
    }
}

/// Everything one measurement produced.
#[derive(Debug)]
pub struct Measurement {
    /// The workload measured.
    pub workload: Workload,
    /// The seed its programs were generated from.
    pub seed: u64,
    /// Program names, in cell order.
    pub programs: Vec<&'static str>,
    /// Run times in ms per cell (`program * SCHEMES.len() + scheme`),
    /// from untraced rounds.
    pub cells: Vec<Vec<f64>>,
    /// Run times in ms per cell from rounds that recorded spans.
    pub traced_cells: Vec<Vec<f64>>,
    /// Set-up time per round, s.
    pub setup_s: Vec<f64>,
    /// Reference-loop time after each program's runs, ms.
    pub reference_ms: Vec<f64>,
    /// Assembly time per round (all programs), ms.
    pub assemble_ms: Vec<f64>,
    /// Machine build time per run, ms.
    pub build_ms: Vec<f64>,
    /// Image load time per run, ms.
    pub load_ms: Vec<f64>,
    /// Runs attempted and failed, with engine counters.
    pub tally: Tally,
    /// Spans of the traced rounds.
    pub spans: Vec<Span>,
    /// The last round's programs and images.
    pub generated: Vec<(GuestProgram, Image)>,
}

/// Runs attempted and failed, with the engine counters of all of them.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Runs attempted.
    pub attempted: u64,
    /// Runs failed (never retried).
    pub failed: u64,
    /// The first few failure reasons.
    pub failures: Vec<String>,
    /// Engine counters over every run.
    pub counters: Counters,
}

impl Tally {
    /// Counts one run: attempted, failed (with its reason) and its
    /// engine counters. A failed run is never retried.
    pub fn add(&mut self, r: &RunResult, program: &str, scheme: &str) {
        self.attempted += 1;
        if let Some(why) = &r.failure {
            self.failed += 1;
            if self.failures.len() < KEPT_FAILURES {
                self.failures
                    .push(format!("{program} under {scheme}: {why}"));
            }
        }
        self.counters.add(r);
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs rounds for `budget` (at least [`MIN_ROUNDS`]). With `trace`,
/// every other round records spans around each layer call.
///
/// # Panics
///
/// Panics if a generated program fails to assemble (a generator bug).
pub fn measure(workload: Workload, seed: u64, budget: Duration, trace: bool) -> Measurement {
    let origin = Instant::now();
    let cells_len = |programs: usize| programs * SCHEMES.len();
    let mut m = Measurement {
        workload,
        seed,
        programs: Vec::new(),
        cells: Vec::new(),
        traced_cells: Vec::new(),
        setup_s: Vec::new(),
        reference_ms: Vec::new(),
        assemble_ms: Vec::new(),
        build_ms: Vec::new(),
        load_ms: Vec::new(),
        tally: Tally::default(),
        spans: Vec::new(),
        generated: Vec::new(),
    };
    let mut round = 0usize;
    while round < MIN_ROUNDS || origin.elapsed() < budget {
        let traced = trace && round % 2 == 1;
        let mut spans: Option<&mut Vec<Span>> = traced.then_some(&mut m.spans);
        let round_span = spans
            .as_deref_mut()
            .map(|s| open(s, "round", origin, None, None));

        let setup_start = Instant::now();
        let programs = generate(workload, seed);
        let asm_start = Instant::now();
        let generated: Vec<(GuestProgram, Image)> = programs
            .into_iter()
            .map(|p| {
                let image = assemble(&p.source, IMAGE_BASE)
                    .unwrap_or_else(|e| panic!("{} does not assemble: {e}", p.name));
                (p, image)
            })
            .collect();
        let asm_end = Instant::now();
        m.assemble_ms.push(ms(asm_end - asm_start));
        if let Some(s) = spans.as_deref_mut() {
            record(s, "assemble", origin, asm_start, asm_end, round_span, None);
        }
        let mut setup = asm_end - setup_start;
        if m.programs.is_empty() {
            m.programs = generated.iter().map(|(p, _)| p.name).collect();
            m.cells = vec![Vec::new(); cells_len(m.programs.len())];
            m.traced_cells = vec![Vec::new(); cells_len(m.programs.len())];
        }

        for (p, (program, image)) in generated.iter().enumerate() {
            for k in 0..SCHEMES.len() {
                // Rotate the scheme order so no scheme always runs first.
                let s = (k + round) % SCHEMES.len();
                let kind = SCHEMES[s];
                let run_start = Instant::now();
                let r = execute(kind, image, program, None);
                setup += r.build + r.load;
                m.build_ms.push(ms(r.build));
                m.load_ms.push(ms(r.load));
                if let Some(sp) = spans.as_deref_mut() {
                    let cell = Some((program.name, kind.name()));
                    let run = sp.len();
                    record(
                        sp,
                        "run",
                        origin,
                        run_start,
                        Instant::now(),
                        round_span,
                        cell,
                    );
                    let mut at = run_start;
                    for (name, d) in [
                        ("build", r.build),
                        ("load", r.load),
                        ("run_vcpus", r.wall),
                        ("verify", r.verify),
                    ] {
                        record(sp, name, origin, at, at + d, Some(run), cell);
                        at += d;
                    }
                }
                let cell = p * SCHEMES.len() + s;
                if traced {
                    m.traced_cells[cell].push(ms(r.wall));
                } else {
                    m.cells[cell].push(ms(r.wall));
                }
                m.tally.add(&r, program.name, kind.name());
            }
            m.reference_ms.push(ms(time_reference()));
        }
        m.setup_s.push(setup.as_secs_f64());
        if let (Some(s), Some(id)) = (spans, round_span) {
            s[id].end = origin.elapsed();
        }
        m.generated = generated;
        round += 1;
    }
    m
}

fn open(
    spans: &mut Vec<Span>,
    name: &'static str,
    origin: Instant,
    parent: Option<usize>,
    cell: Option<(&'static str, &'static str)>,
) -> usize {
    let now = origin.elapsed();
    spans.push(Span {
        name,
        start: now,
        end: now,
        parent,
        cell,
    });
    spans.len() - 1
}

fn record(
    spans: &mut Vec<Span>,
    name: &'static str,
    origin: Instant,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
    cell: Option<(&'static str, &'static str)>,
) {
    spans.push(Span {
        name,
        start: start - origin,
        end: end - origin,
        parent,
        cell,
    });
}

/// The end-to-end metrics of one measurement. Times are raw wall-clock
/// unless scaled with [`EndToEnd::at_nominal_speed`].
#[derive(Clone, Debug)]
pub struct EndToEnd {
    /// Geomean over cells of the cell's median run time, ms.
    pub geomean_ms: f64,
    /// Per scheme (in [`SCHEMES`] order): geomean over programs of the
    /// cell's median run time, ms.
    pub scheme_ms: Vec<f64>,
    /// Pooled p90 of run time ÷ (its cell's median × a common factor:
    /// the median, over the program's five runs in that round, of run
    /// time ÷ cell median).
    pub tail_ratio: f64,
    /// Pooled p90 of run time ÷ its cell's median, without the common
    /// factor.
    pub plain_tail_ratio: f64,
    /// Samples behind `tail_ratio`.
    pub tail_samples: usize,
    /// Median set-up time of a round, s.
    pub setup_s: f64,
}

impl EndToEnd {
    /// The times scaled to nominal host speed (see [`crate::reference`]).
    pub fn at_nominal_speed(&self, reference_ms: &[f64]) -> EndToEnd {
        let k = NOMINAL_MS / median(reference_ms);
        EndToEnd {
            geomean_ms: self.geomean_ms * k,
            scheme_ms: self.scheme_ms.iter().map(|t| t * k).collect(),
            setup_s: self.setup_s * k,
            ..self.clone()
        }
    }
}

/// Medians per cell and the metrics built from them.
pub fn end_to_end(m: &Measurement, cells: &[Vec<f64>]) -> EndToEnd {
    let medians: Vec<f64> = cells.iter().map(|c| median(c)).collect();
    let scheme_ms = (0..SCHEMES.len())
        .map(|s| {
            let per_program: Vec<f64> = (0..m.programs.len())
                .map(|p| medians[p * SCHEMES.len() + s])
                .collect();
            geomean(&per_program)
        })
        .collect();
    // Every round adds one run to each cell, so index r is the same
    // round in every cell.
    let rounds = cells.iter().map(Vec::len).min().unwrap_or(0);
    let (mut ratios, mut plain) = (Vec::new(), Vec::new());
    for r in 0..rounds {
        for (runs, meds) in cells
            .chunks(SCHEMES.len())
            .zip(medians.chunks(SCHEMES.len()))
        {
            let group: Vec<f64> = runs.iter().zip(meds).map(|(c, m)| c[r] / m).collect();
            // A program's five runs in a round run back to back, so a host
            // slow phase stretches them alike; their median ratio takes
            // that common part out.
            let common = median(&group);
            ratios.extend(group.iter().map(|x| x / common));
            plain.extend(group);
        }
    }
    EndToEnd {
        geomean_ms: geomean(&medians),
        scheme_ms,
        tail_ratio: quantile(&ratios, 0.9),
        plain_tail_ratio: quantile(&plain, 0.9),
        tail_samples: ratios.len(),
        setup_s: median(&m.setup_s),
    }
}
