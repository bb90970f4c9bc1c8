//! Concurrency stress for the bounded compiled-route cache: many threads
//! interpret one shared `GraphSession` (`run_interpreted`, which resolves
//! every fire's route through the session's one `RouteCache`), and the
//! hit/miss/eviction counters must stay exactly consistent — no lost
//! updates, and no compile work beyond what the `misses` counter admits to.
//! Lowering (the first `run` or `compile`) resolves its routes through the
//! same cache, so racing first runs must converge on it too.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};

use feather::{FeatherConfig, GraphSession};
use feather_arch::graph::{Graph, NodeId};
use feather_arch::tensor::Tensor4;
use feather_arch::workload::ConvLayer;

const THREADS: usize = 4;
const RUNS_PER_THREAD: usize = 6;

/// conv → (main ‖ proj) → add → conv: several distinct route shapes.
fn residual_graph() -> Graph {
    let mut g = Graph::new("route-stress", [1, 4, 6, 6]);
    let stem = g
        .conv(
            g.input(),
            ConvLayer::new(1, 4, 4, 6, 6, 3, 3)
                .with_padding(1)
                .with_name("stem"),
        )
        .unwrap();
    let main = g
        .conv(stem, ConvLayer::new(1, 8, 4, 6, 6, 1, 1).with_name("main"))
        .unwrap();
    let proj = g
        .conv(stem, ConvLayer::new(1, 8, 4, 6, 6, 1, 1).with_name("proj"))
        .unwrap();
    let join = g.add(main, proj, "add").unwrap();
    g.conv(join, ConvLayer::new(1, 4, 8, 6, 6, 1, 1).with_name("head"))
        .unwrap();
    g
}

fn fixture() -> (Graph, BTreeMap<NodeId, Tensor4<i8>>, Tensor4<i8>) {
    let g = residual_graph();
    let weights = g.random_weights(17);
    let iacts = Tensor4::random([1, 4, 6, 6], 18);
    (g, weights, iacts)
}

#[test]
fn warm_cache_counters_are_exact_under_contention() {
    let (g, weights, iacts) = fixture();
    let session = Arc::new(GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap());
    let golden = session.run_interpreted(&iacts, &weights).unwrap().oacts;

    // Warm: the first run populates the shared map; a second run measures
    // how many shared-map lookups one run performs once warm (the
    // worker-local L1 lives for a single layer span, so steady-state runs
    // still touch the shared map a deterministic number of times).
    let after_warm = session.route_cache_stats();
    let lookups_per_run = {
        session.run_interpreted(&iacts, &weights).unwrap();
        let s = session.route_cache_stats();
        assert_eq!(s.misses, after_warm.misses, "warm runs must not compile");
        s.hits - after_warm.hits
    };
    assert!(lookups_per_run > 0, "runs must consult the shared cache");
    let before = session.route_cache_stats();

    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let session = session.clone();
            let weights = &weights;
            let iacts = &iacts;
            let golden = &golden;
            scope.spawn(move || {
                for _ in 0..RUNS_PER_THREAD {
                    let run = session.run_interpreted(iacts, weights).unwrap();
                    assert_eq!(&run.oacts, golden, "contended run diverged");
                }
            });
        }
    });

    // Every shared lookup from every thread must be accounted for exactly:
    // atomically-counted hits, zero compiles, zero evictions, stable
    // occupancy. A lost update or a sneaked-in recompile shows up here.
    let after = session.route_cache_stats();
    assert_eq!(
        after.hits - before.hits,
        (THREADS * RUNS_PER_THREAD) as u64 * lookups_per_run,
        "hit counter lost updates under contention"
    );
    assert_eq!(
        after.misses, before.misses,
        "warm cache must never recompile"
    );
    assert_eq!(after.evictions, before.evictions);
    assert_eq!(after.entries, before.entries);
}

#[test]
fn cold_cache_races_stay_consistent() {
    let (g, weights, iacts) = fixture();
    // A fresh session per test: all threads race the same cold cache.
    let session = Arc::new(GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap());
    let golden = {
        let solo = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        solo.run_interpreted(&iacts, &weights).unwrap().oacts
    };

    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let session = session.clone();
            let weights = &weights;
            let iacts = &iacts;
            let golden = &golden;
            scope.spawn(move || {
                for _ in 0..RUNS_PER_THREAD {
                    let run = session.run_interpreted(iacts, weights).unwrap();
                    assert_eq!(&run.oacts, golden, "cold-race run diverged");
                }
            });
        }
    });

    // Distinct routes for this graph, from an uncontended reference run.
    let distinct = {
        let solo = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        solo.run_interpreted(&iacts, &weights).unwrap();
        solo.route_cache_stats().entries
    };

    let stats = session.route_cache_stats();
    // Concurrent first-lookups of the same route may each compile (the
    // publish keeps whichever landed first), but every such compile must be
    // counted as a miss and the map must converge to exactly the distinct
    // route set — nothing lost, nothing duplicated, nothing evicted.
    assert_eq!(stats.entries, distinct, "resident set must converge");
    assert!(
        stats.misses >= distinct as u64,
        "every distinct route compiled at least once"
    );
    assert!(
        stats.misses <= (THREADS * distinct) as u64,
        "double-compiles cannot exceed one per racing thread per route"
    );
    assert_eq!(stats.evictions, 0, "this working set never evicts");
    assert!(stats.hits + stats.misses >= stats.misses);
}

#[test]
fn racing_first_runs_share_one_lowering() {
    const RACERS: usize = 8;
    let (g, weights, iacts) = fixture();
    let (interpreted, distinct) = {
        let solo = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
        let run = solo.run_interpreted(&iacts, &weights).unwrap();
        (run, solo.route_cache_stats().entries)
    };

    // Every thread makes the first `run` of one fresh session at once.
    let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
    let start = Barrier::new(RACERS);
    let runs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..RACERS)
            .map(|_| {
                scope.spawn(|| {
                    start.wait();
                    session.run(&iacts, &weights).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for run in &runs {
        assert_eq!(run.oacts, interpreted.oacts, "racing run diverged");
        assert_eq!(run.report, interpreted.report, "racing report diverged");
    }
    // The racers share one lowering: it resolved each distinct route once.
    let stats = session.route_cache_stats();
    assert_eq!(stats.entries, distinct, "resident set must converge");
    assert_eq!(
        stats.misses, distinct as u64,
        "one lowering, one compile per route"
    );
    assert_eq!(stats.evictions, 0);
}
