//! Extension experiment E7: KMS scaling over carry-skip adder width and
//! block size (beyond the paper's four rows). Invariant verification is
//! off by default for the larger rows; pass `--verify` to enable it.

use kms_atpg::ParallelOptions;
use kms_timing::InputArrivals;

fn main() {
    let verify = std::env::args().any(|a| a == "--verify");
    println!("KMS scaling sweep — carry-skip adders (unit model)");
    println!("{}", kms_bench::Table1Row::header());
    for (bits, block) in [
        (4usize, 2usize),
        (8, 2),
        (8, 4),
        (12, 4),
        (16, 4),
        (16, 8),
        (24, 8),
        (32, 16),
    ] {
        let net = kms_bench::table1_csa(bits, block);
        let t0 = std::time::Instant::now();
        let row = kms_bench::run_row(
            &format!("csa {bits}.{block}"),
            &net,
            &InputArrivals::zero(),
            verify,
            ParallelOptions::default(),
        );
        println!("{}   ({:.2?})", row.format(), t0.elapsed());
    }
}
