//! Wall-clock end-to-end benchmark of the adbt engine: seeded race-free
//! guest workloads, each run under five LL/SC emulation schemes on two
//! real vCPU threads, every run checked against an oracle computed
//! natively from the generator's parameters. See `README.md`.

pub mod bench;
pub mod cli;
pub mod gen;
pub mod layers;
pub mod reference;
pub mod report;
pub mod run;
pub mod stats;
