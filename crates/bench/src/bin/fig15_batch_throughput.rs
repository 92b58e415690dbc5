//! Figure 15: edge-insertion (and deletion) throughput as a function of
//! batch size, plus the Aspen comparison the paper reports (CPAM ~1.6x
//! higher throughput).
//!
//! Shape: throughput grows with batch size (batch sorting and tree
//! traversal overheads amortize).

use bench::{header, time};
use graphs::{AspenGraph, PacGraph};

fn main() {
    header("fig15_batch_throughput", "Fig. 15 batch update throughput");
    let scale = (bench::base_n() / 1_000_000).max(1);
    let base_edges =
        graphs::rmat::symmetrize(&graphs::rmat::rmat_edges(16, 1_000_000 * scale, 3));
    let n = 1usize << 16;

    parlay::run(|| {
        let pac = PacGraph::from_edges(n, &base_edges);
        let aspen = AspenGraph::from_edges(n, &base_edges);
        println!("base graph: n = {n}, m = {}", pac.num_edges());
        println!();
        println!(
            "{:>10} {:>18} {:>18} {:>18} {:>12}",
            "batch", "CPAM ins (e/s)", "CPAM del (e/s)", "Aspen ins (e/s)", "CPAM/Aspen"
        );

        for exp in [1u32, 2, 3, 4, 5, 6] {
            let batch_size = 10usize.pow(exp);
            let reps = (100_000 / batch_size).clamp(1, 20);
            let mut t_ins = 0.0;
            let mut t_del = 0.0;
            let mut t_aspen = 0.0;
            for r in 0..reps {
                let batch = graphs::rmat::rmat_edges(16, batch_size, 1000 + r as u64);
                let (g2, ti) = time(|| pac.insert_edges(batch.clone()));
                let (_, td) = time(|| g2.delete_edges(batch.clone()));
                let (_, ta) = time(|| aspen.insert_edges(batch.clone()));
                t_ins += ti;
                t_del += td;
                t_aspen += ta;
            }
            let den = (batch_size * reps) as f64;
            let ins = den / t_ins;
            let del = den / t_del;
            let asp = den / t_aspen;
            println!(
                "{:>10} {:>18.0} {:>18.0} {:>18.0} {:>11.2}x",
                batch_size,
                ins,
                del,
                asp,
                ins / asp
            );
        }
    });
}
