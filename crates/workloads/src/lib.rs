//! # adbt-workloads — guest programs for the CGO'21 experiments
//!
//! Generators for every guest workload the paper's evaluation uses:
//!
//! * [`stack`] — the multi-threaded **lock-free stack** micro-benchmark
//!   of §IV-A, including the host-side ABA verifier (a node whose `next`
//!   points to itself is the paper's corruption witness).
//! * [`parsec`] — eight synthetic kernels mirroring the PARSEC 3.0
//!   programs' synchronization profiles (store:LL/SC ratios, lock
//!   contention, barrier cadence) from the paper's Table I. These are
//!   *models*, not ports: what matters to an atomic-emulation scheme is
//!   the dynamic mix of stores, LL/SC and synchronization shape, which is
//!   what each kernel reproduces (see DESIGN.md).
//! * [`litmus`] — the four ABA sequences Seq1–Seq4 of §IV-A as exactly
//!   schedulable two-thread programs for the engine's scheduled mode.
//! * [`interleave`] — schedule-free miniature litmus programs for the
//!   systematic interleaving checker (`adbt-check`), which enumerates
//!   the schedules itself.
//! * [`rt`] — reusable guest assembly fragments (spin mutex, sense
//!   barrier, atomic add) built on `ldrex`/`strex`, mirroring how pthread
//!   primitives reach LL/SC on real ARM.
//!
//! Everything here produces assembly text plus a layout descriptor; the
//! caller assembles with [`adbt_isa::asm::assemble`] and runs on an
//! `adbt-engine` machine (the `adbt` facade wires this up).

pub mod interleave;
pub mod litmus;
pub mod parsec;
pub mod rt;
pub mod stack;

/// The base guest address where workload images are assembled.
pub const IMAGE_BASE: u32 = 0x1_0000;
