//! Figure 14: concurrent updates and queries. Batches of 10 directed
//! rMAT edges are applied by one thread while another runs BFS queries;
//! latencies are compared against running each workload alone.
//!
//! Paper shape: concurrent queries ~1.9x slower than solo, concurrent
//! updates ~1.1x slower than solo (they barely interfere thanks to
//! snapshot isolation). On 2 cores the contention is necessarily
//! stronger, but updates must remain nearly unaffected.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use bench::{header, ms};
use graphs::snapshot::bfs;
use graphs::PacGraph;

fn main() {
    header("fig14_concurrent", "Fig. 14 concurrent updates + BFS queries");
    let scale = (bench::base_n() / 1_000_000).max(1);
    let edges = graphs::rmat::symmetrize(&graphs::rmat::rmat_edges(15, 500_000 * scale, 21));
    let n = 1usize << 15;
    let graph = parlay::run(|| PacGraph::from_edges(n, &edges));
    println!("graph: n = {n}, m = {}", graph.num_edges());

    let rounds = 200usize;

    // --- Solo updates ----------------------------------------------------
    let mut g = graph.clone();
    let start = Instant::now();
    for r in 0..rounds {
        let batch = graphs::rmat::rmat_edges(15, 10, 5000 + r as u64);
        g = parlay::run(|| g.insert_edges(batch));
    }
    let solo_update = start.elapsed().as_secs_f64() / rounds as f64;

    // --- Solo queries ----------------------------------------------------
    let fs = graph.flat_snapshot();
    let start = Instant::now();
    let solo_queries = 20;
    for _ in 0..solo_queries {
        std::hint::black_box(parlay::run(|| bfs(&fs, 0)));
    }
    let solo_query = start.elapsed().as_secs_f64() / solo_queries as f64;

    // --- Concurrent ------------------------------------------------------
    let current = Mutex::new(graph.clone());
    let stop = AtomicBool::new(false);
    let (conc_update, conc_query, queries_done) = std::thread::scope(|s| {
        let updater = s.spawn(|| {
            let start = Instant::now();
            for r in 0..rounds {
                let batch = graphs::rmat::rmat_edges(15, 10, 9000 + r as u64);
                let next = {
                    let g = current.lock().expect("lock").clone();
                    parlay::run(|| g.insert_edges(batch))
                };
                *current.lock().expect("lock") = next;
            }
            stop.store(true, Ordering::Relaxed);
            start.elapsed().as_secs_f64() / rounds as f64
        });
        let querier = s.spawn(|| {
            let mut done = 0usize;
            let start = Instant::now();
            while !stop.load(Ordering::Relaxed) {
                let snap = current.lock().expect("lock").clone().flat_snapshot();
                std::hint::black_box(parlay::run(|| bfs(&snap, 0)));
                done += 1;
            }
            (start.elapsed().as_secs_f64() / done.max(1) as f64, done)
        });
        let u = updater.join().expect("updater");
        let (q, done) = querier.join().expect("querier");
        (u, q, done)
    });

    println!();
    println!("update latency: solo {} vs concurrent {} ({:.2}x slower)",
        ms(solo_update), ms(conc_update), conc_update / solo_update);
    println!("BFS latency:    solo {} vs concurrent {} ({:.2}x slower)",
        ms(solo_query), ms(conc_query), conc_query / solo_query);
    println!("concurrent BFS queries completed while updating: {queries_done}");
    println!(
        "update throughput while querying: {:.0} directed edges/s",
        10.0 / conc_update
    );
}
