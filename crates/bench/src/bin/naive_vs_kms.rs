//! Regenerates the paper's headline comparison (experiment E5, Sections I
//! and III): straightforward redundancy removal **slows the carry-skip
//! adder down**; the KMS algorithm removes the same redundancies with no
//! delay increase.
//!
//! The sweep varies the carry-in arrival time on multi-block carry-skip
//! adders: the later the carry, the more the skip logic matters, and the
//! worse the naive result gets.

use kms_netlist::outln;

fn main() {
    outln!("naive redundancy removal vs KMS — viable delay (unit model)");
    for (bits, block) in [(6usize, 3usize), (8, 4), (8, 2)] {
        outln!("\ncsa {bits}.{block}:");
        outln!(
            "  {:>8} {:>9} {:>7} {:>5}",
            "cin@t",
            "original",
            "naive",
            "kms"
        );
        for row in kms_bench::naive_vs_kms(bits, block, &[0, 2, 4, 6, 8, 10]) {
            let slower = if row.naive > row.original {
                "  <- naive slower than the redundant circuit"
            } else {
                ""
            };
            outln!(
                "  {:>8} {:>9} {:>7} {:>5}{}",
                row.cin_arrival,
                row.original,
                row.naive,
                row.kms,
                slower
            );
            assert!(
                row.kms <= row.original,
                "KMS must never increase the viable delay"
            );
        }
    }
    outln!("\npaper claim: removing the carry-skip redundancy naively slows the");
    outln!("circuit to ripple speed; KMS yields an irredundant adder that is");
    outln!("as fast as (here: often faster than) the redundant original.");
}
