//! The four ABA litmus sequences of §IV-A as exactly schedulable
//! two-thread guest programs.
//!
//! Thread *a* arms an LL on `x` (initial value `c`), is suspended while
//! thread *b* performs the sequence's interference, then attempts its
//! SC. Under the architecture's LL/SC semantics the SC must fail in all
//! four sequences; the paper classifies each scheme by which sequences
//! it gets right:
//!
//! | sequence | interference | weak atomicity | strong atomicity |
//! |---|---|---|---|
//! | Seq1 | `S_b(d)`, `S_b(c)` | misses (SC succeeds) | fails SC |
//! | Seq2 | `LL/SC_b(c→d)`, `LL/SC_b(d→c)` | fails SC | fails SC |
//! | Seq3 | `LL/SC_b(c→d)`, `S_b(c)` | fails SC | fails SC |
//! | Seq4 | `S_b(d)`, `LL/SC_b(d→c)` | fails SC | fails SC |
//!
//! PICO-CAS (value comparison only) lets the SC succeed in *all four* —
//! the ABA bug. PICO-HTM neither "fails" nor "succeeds" a stale SC: its
//! transaction aborts and transparently re-executes the whole LL→SC
//! region, which is correct but observable as at least one abort.
//!
//! Run these with the engine's scheduled mode, `max_block_insns == 1`,
//! and the schedule from [`schedule`].

/// The initial value `c` at `x`.
pub const INITIAL: u32 = 100;
/// The intermediate value `d` thread b writes.
pub const INTERMEDIATE: u32 = 200;
/// The value thread a's SC tries to store (the paper's `#`).
pub const SC_VALUE: u32 = 777;

/// The four sequences.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Seq {
    /// Plain store away and back: `S_b(d)`, `S_b(c)`.
    Seq1,
    /// Two full LL/SC pairs: `c→d` then `d→c`.
    Seq2,
    /// LL/SC to `d`, plain store back to `c`.
    Seq3,
    /// Plain store to `d`, LL/SC back to `c`.
    Seq4,
}

impl Seq {
    /// All sequences.
    pub const ALL: [Seq; 4] = [Seq::Seq1, Seq::Seq2, Seq::Seq3, Seq::Seq4];

    /// The sequence's paper name.
    pub const fn name(self) -> &'static str {
        match self {
            Seq::Seq1 => "Seq1",
            Seq::Seq2 => "Seq2",
            Seq::Seq3 => "Seq3",
            Seq::Seq4 => "Seq4",
        }
    }

    /// Whether *weak* atomicity already catches this sequence (Seq2–4
    /// involve a competing LL/SC pair; Seq1 is plain stores only).
    pub const fn caught_by_weak(self) -> bool {
        !matches!(self, Seq::Seq1)
    }

    fn thread_b_body(self) -> &'static str {
        match self {
            Seq::Seq1 => {
                r#"
        mov   r6, #200
        str   r6, [r5]          ; S_b(x(d))
        mov   r6, #100
        str   r6, [r5]          ; S_b(x(c))
"#
            }
            Seq::Seq2 => {
                r#"
        ldrex r1, [r5]          ; LL_b(x(c))
        mov   r6, #200
        strex r2, r6, [r5]      ; SC_b(x(c,d))
        ldrex r1, [r5]          ; LL_b(x(d))
        mov   r6, #100
        strex r2, r6, [r5]      ; SC_b(x(d,c))
"#
            }
            Seq::Seq3 => {
                r#"
        ldrex r1, [r5]          ; LL_b(x(c))
        mov   r6, #200
        strex r2, r6, [r5]      ; SC_b(x(c,d))
        mov   r6, #100
        str   r6, [r5]          ; S_b(x(c))
"#
            }
            Seq::Seq4 => {
                r#"
        mov   r6, #200
        str   r6, [r5]          ; S_b(x(d))
        ldrex r1, [r5]          ; LL_b(x(d))
        mov   r6, #100
        strex r2, r6, [r5]      ; SC_b(x(d,c))
"#
            }
        }
    }
}

impl std::fmt::Display for Seq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The assembled image's entry symbols: `(thread_a, thread_b, x)`.
pub const SYMBOLS: (&str, &str, &str) = ("thread_a", "thread_b", "x");

/// Generates the two-thread program for a sequence. Thread a exits with
/// its SC status (0 = succeeded, 1 = failed); thread b exits 0.
pub fn image_source(seq: Seq) -> String {
    format!(
        r#"
    thread_a:
        mov32 r5, x
        ldrex r1, [r5]          ; LL_a(x(c))   <- suspended after this
        mov   r4, #{sc}
        strex r2, r4, [r5]      ; SC_a(x(c,#))
        mov   r0, r2
        svc   #0

    thread_b:
        mov32 r5, x
{body}
        mov   r0, #0
        svc   #0

        .align 4096
    x:
        .word {initial}
"#,
        sc = SC_VALUE,
        body = seq.thread_b_body(),
        initial = INITIAL,
    )
}

/// The `(vCPU index, atoms)` script segments pinning the interleaving:
/// thread a runs through its LL (3 single-instruction atoms: `movw`,
/// `movt`, `ldrex`), thread b runs to completion (a segment's leftover
/// atoms are skipped once its vCPU exits), then thread a resumes. The
/// scheduler keeps thread a running after the script, which lets
/// HTM-rollback re-executions finish.
pub fn schedule() -> Vec<(usize, u64)> {
    vec![(0, 3), (1, 64), (0, 32)]
}

/// What a scheme should observably do on a sequence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expectation {
    /// The SC must fail (exit code 1, `x` unchanged at the end of b's
    /// interference).
    ScFails,
    /// The SC incorrectly succeeds (exit 0, `x == SC_VALUE`): the bug
    /// the paper demonstrates.
    ScSucceedsIncorrectly,
    /// The LL→SC region aborts and transparently re-executes (exit 0,
    /// `x == SC_VALUE`, at least one HTM abort observed) — correct
    /// behaviour with transaction semantics.
    RegionRetries,
}

#[cfg(test)]
mod tests {
    use super::*;
    use adbt_isa::asm::assemble;

    #[test]
    fn all_sequences_assemble_with_expected_symbols() {
        for seq in Seq::ALL {
            let img =
                assemble(&image_source(seq), 0x1_0000).unwrap_or_else(|e| panic!("{seq}: {e}"));
            for sym in [SYMBOLS.0, SYMBOLS.1, SYMBOLS.2] {
                assert!(img.symbol(sym).is_some(), "{seq}: missing {sym}");
            }
            let x = img.symbol("x").unwrap();
            assert_eq!(x % 4096, 0, "x must get its own page for PST");
            let off = (x - img.base) as usize;
            let initial = u32::from_le_bytes(img.bytes[off..off + 4].try_into().unwrap());
            assert_eq!(initial, INITIAL);
        }
    }

    #[test]
    fn thread_a_ll_lands_on_step_three() {
        // The schedule contract: atoms 1–3 of thread a are movw, movt,
        // ldrex. Verify by decoding the image at thread_a.
        let img = assemble(&image_source(Seq::Seq1), 0x1_0000).unwrap();
        let a = img.symbol("thread_a").unwrap();
        let word = |addr: u32| {
            let off = (addr - img.base) as usize;
            u32::from_le_bytes(img.bytes[off..off + 4].try_into().unwrap())
        };
        use adbt_isa::{decode, Insn};
        assert!(matches!(decode(word(a)).unwrap(), Insn::Movw { .. }));
        assert!(matches!(decode(word(a + 4)).unwrap(), Insn::Movt { .. }));
        assert!(matches!(decode(word(a + 8)).unwrap(), Insn::Ldrex { .. }));
    }

    #[test]
    fn weak_classification() {
        assert!(!Seq::Seq1.caught_by_weak());
        assert!(Seq::Seq2.caught_by_weak());
        assert!(Seq::Seq3.caught_by_weak());
        assert!(Seq::Seq4.caught_by_weak());
    }
}
