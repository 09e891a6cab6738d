//! The benchmark's own tests: oracles catch corruption, seeds determine
//! images, every workload passes under every scheme, and machines use
//! `adbt_run`'s default configuration.

use adbt::{assemble, Machine};
use adbt_perfbench::bench::{measure, Tally};
use adbt_perfbench::gen::{add_imm_word, generate, Workload, BX_LR};
use adbt_perfbench::run::{builder, execute, IMAGE_BASE, SCHEMES};
use std::time::Duration;

#[test]
fn a_corrupted_guest_word_fails_the_run() {
    let programs = generate(Workload::ParsecSync, 5);
    let program = programs
        .iter()
        .find(|p| p.name == "fine-lock")
        .expect("parsec-sync has fine-lock");
    let image = assemble(&program.source, IMAGE_BASE).unwrap();
    let cells = image.symbol("cells").unwrap();
    let mut tally = Tally::default();

    let clean = execute(SCHEMES[1], &image, program, None);
    assert!(clean.ok(), "{:?}", clean.failure);
    tally.add(&clean, program.name, "hst");

    // Bump the first cell's counter: one lost update's worth.
    let corrupt = |m: &Machine| {
        let v = m.read_word(cells + 4).unwrap();
        m.write_word(cells + 4, v + 1).unwrap();
    };
    let bad = execute(SCHEMES[1], &image, program, Some(&corrupt));
    assert!(!bad.ok());
    assert!(bad.failure.as_deref().unwrap().contains("fine-lock cells"));
    tally.add(&bad, program.name, "hst");
    assert_eq!((tally.attempted, tally.failed), (2, 1));
    assert_eq!(tally.failures.len(), 1);
}

#[test]
fn the_seed_determines_the_images() {
    for workload in Workload::ALL {
        let images = |seed| -> Vec<Vec<u8>> {
            generate(workload, seed)
                .iter()
                .map(|p| assemble(&p.source, IMAGE_BASE).unwrap().bytes)
                .collect()
        };
        let a = images(11);
        assert_eq!(
            a,
            images(11),
            "{}: same seed, different images",
            workload.name()
        );
        let b = images(12);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(
                x,
                y,
                "{}: another seed gave the same image",
                workload.name()
            );
        }
    }
}

#[test]
fn every_workload_passes_under_every_scheme() {
    for workload in Workload::ALL {
        let m = measure(workload, 3, Duration::ZERO, false);
        assert!(m.tally.attempted >= (m.programs.len() * SCHEMES.len()) as u64);
        assert_eq!(
            m.tally.failed,
            0,
            "{}: {:?}",
            workload.name(),
            m.tally.failures
        );
    }
}

#[test]
fn machines_use_the_adbt_run_defaults() {
    for kind in SCHEMES {
        let machine = builder(kind).build().unwrap();
        let c = &machine.core().config;
        assert_eq!(c.tier_threshold, 1024);
        assert_eq!(c.chain_limit, 64);
        assert_eq!(c.max_block_insns, 32);
        assert_eq!(c.mem_size, 32 << 20);
        assert!(!c.fuse_atomics);
        assert_eq!(c.cache_limit, 0);
        assert!(c.chaos.is_none());
        assert_eq!(c.watchdog_ms, 0);
        assert_eq!(c.htm_degrade_after, 0);
        assert!(!c.trace && !c.profile);
        assert!(!machine.is_adaptive());
        assert_eq!(machine.scheme(), kind);
    }
}

#[test]
fn native_encodings_match_the_assembler() {
    let image = assemble("add r4, r4, #1234\nbx lr\n", IMAGE_BASE).unwrap();
    let word = |i: usize| u32::from_le_bytes(image.bytes[4 * i..4 * i + 4].try_into().unwrap());
    assert_eq!(word(0), add_imm_word(4, 4, 1234));
    assert_eq!(word(1), BX_LR);
}
