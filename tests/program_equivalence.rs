//! The graph compiler's contract: lowering a planned DAG to a flat
//! [`feather::Program`] and replaying it through [`feather::ProgramSession`]
//! is *bit-identical* to interpreting the same [`feather::GraphSession`] —
//! not just the output tensor, but the entire [`GraphRun`] report: cycles,
//! DRAM traffic, scratch accounting and join saturation counts. The artifact
//! form (save → load → recompile routes) must preserve all of it too.

use feather::graph_session::run_graph_reference;
use feather::{FeatherConfig, GraphSession, ProgramSession};
use feather_arch::graph::{resnet50_graph_scaled, Graph};
use feather_arch::tensor::Tensor4;
use feather_arch::workload::ConvLayer;
use proptest::prelude::*;

/// Builds a random residual DAG: trunk conv, `blocks` residual blocks (1–2
/// conv main path plus identity or 1×1-projection shortcut joined by an add),
/// head conv. Mirrors the generator in `graph_equivalence.rs` so the compiler
/// sees the same shapes the interpreter is validated on.
fn build_dag(
    batch: usize,
    c0: usize,
    hw: usize,
    blocks: &[(usize, usize, bool)], // (main_depth, kernel, identity_shortcut)
    head_kernel: usize,
) -> Graph {
    let mut g = Graph::new("random_dag", [batch, c0, hw, hw]);
    let mut cur = g
        .conv(
            g.input(),
            ConvLayer::new(batch, c0, c0, hw, hw, 3, 3)
                .with_padding(1)
                .with_name("trunk"),
        )
        .unwrap();
    for (bi, &(depth, k, identity)) in blocks.iter().enumerate() {
        let block_input = cur;
        for d in 0..depth {
            cur = g
                .conv(
                    cur,
                    ConvLayer::new(batch, c0, c0, hw, hw, k, k)
                        .with_padding(k / 2)
                        .with_name(format!("b{bi}_main{d}")),
                )
                .unwrap();
        }
        let shortcut = if identity {
            block_input
        } else {
            g.conv(
                block_input,
                ConvLayer::new(batch, c0, c0, hw, hw, 1, 1).with_name(format!("b{bi}_proj")),
            )
            .unwrap()
        };
        cur = g.add(cur, shortcut, format!("b{bi}_add")).unwrap();
    }
    g.conv(
        cur,
        ConvLayer::new(batch, c0, c0, hw, hw, head_kernel, head_kernel)
            .with_padding(head_kernel / 2)
            .with_name("head"),
    )
    .unwrap();
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Replay == interpretation for random residual DAGs, across batch sizes
    /// and a sharded (multi-worker) replay, plus a full save/load round trip
    /// of the artifact — each compared on the complete `GraphRun`.
    #[test]
    fn replayed_program_equals_interpreted_session(
        batch in 1usize..3,
        c0 in 1usize..5,
        hw in 4usize..7,
        n_blocks in 1usize..4,
        depths in proptest::collection::vec(1usize..3, 3),
        kernels in proptest::collection::vec(0usize..2, 3),
        identities in proptest::collection::vec(0usize..2, 3),
        head_kernel in 0usize..2,
        seed in 0u64..100,
    ) {
        let blocks: Vec<(usize, usize, bool)> = (0..n_blocks)
            .map(|i| (depths[i], if kernels[i] == 0 { 1 } else { 3 }, identities[i] == 0))
            .collect();
        let g = build_dag(batch, c0, hw, &blocks, if head_kernel == 0 { 1 } else { 3 });

        let session = GraphSession::auto(FeatherConfig::new(4, 4), &g).unwrap();
        let iacts = Tensor4::random([batch, c0, hw, hw], seed);
        let weights = g.random_weights(seed + 1000);
        let run = session.run(&iacts, &weights).unwrap();

        let program = session.compile().unwrap();
        prop_assert!(program.num_ops() > 0);
        prop_assert!(program.route_fires() > 0);
        prop_assert_eq!(program.batch(), batch);

        // Serial replay: identical outputs AND identical report.
        let replay = ProgramSession::new(program);
        let replayed = replay.run(&iacts, &weights).unwrap();
        prop_assert_eq!(&replayed.oacts, &run.oacts);
        prop_assert_eq!(&replayed.report, &run.report);

        // Sharded replay must land on the same bits and the same statistics.
        let sharded = ProgramSession::from_arc(replay.program().clone())
            .with_threads(3)
            .run(&iacts, &weights)
            .unwrap();
        prop_assert_eq!(&sharded.oacts, &run.oacts);
        prop_assert_eq!(&sharded.report, &run.report);

        // Artifact round trip: text form → parse → recompiled routes.
        let dir = std::env::temp_dir().join(format!(
            "feather-prog-eq-{}-{seed}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dag.program");
        replay.program().save_to(&path).unwrap();
        let loaded = feather::Program::load_from(&path).expect("artifact parses back");
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(loaded.fingerprint(), replay.program().fingerprint());
        prop_assert_eq!(loaded.dump(), replay.program().dump());
        let reloaded = ProgramSession::new(loaded).run(&iacts, &weights).unwrap();
        prop_assert_eq!(&reloaded.oacts, &run.oacts);
        prop_assert_eq!(&reloaded.report, &run.report);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every lane of a lane-vectorized replay equals its own sample's
    /// independent references: outputs equal `run_graph_reference`, and the
    /// full `GraphRun` report (cycles, DRAM traffic, scratch accounting, join
    /// saturation) equals the interpreter's solo run — for batches of 1, 2,
    /// 4 and 8 samples, serial and sharded, on random residual DAGs.
    #[test]
    fn batched_replay_equals_solo_replays(
        c0 in 1usize..4,
        hw in 4usize..6,
        depth in 1usize..3,
        kernel in 0usize..2,
        identity in 0usize..2,
        seed in 0u64..100,
    ) {
        let blocks = [(depth, if kernel == 0 { 1 } else { 3 }, identity == 0)];
        let g = build_dag(1, c0, hw, &blocks, 1);
        let session = GraphSession::auto(FeatherConfig::new(4, 4), &g).unwrap();
        let weights = g.random_weights(seed + 2000);
        let replay = ProgramSession::new(session.compile().unwrap());
        let (shift, zero) = session.quantization();

        let samples: Vec<Tensor4<i8>> = (0..8)
            .map(|i| Tensor4::random([1, c0, hw, hw], seed + i))
            .collect();
        let goldens: Vec<_> = samples
            .iter()
            .map(|s| run_graph_reference(&g, s, &weights, shift, zero).unwrap())
            .collect();
        let interpreted: Vec<_> = samples
            .iter()
            .map(|s| session.run(s, &weights).unwrap())
            .collect();

        for lanes in [1usize, 2, 4, 8] {
            let serial = replay.run_batched(&samples[..lanes], &weights).unwrap();
            let sharded = ProgramSession::from_arc(replay.program().clone())
                .with_threads(3)
                .run_batched(&samples[..lanes], &weights)
                .unwrap();
            for (mode, runs) in [("serial", &serial), ("sharded", &sharded)] {
                prop_assert_eq!(runs.len(), lanes);
                for (lane, run) in runs.iter().enumerate() {
                    prop_assert_eq!(&run.oacts, &goldens[lane], "{} lane {} outputs", mode, lane);
                    prop_assert_eq!(
                        &run.report,
                        &interpreted[lane].report,
                        "{} lane {} report",
                        mode,
                        lane
                    );
                }
            }
        }
    }
}

/// The full ResNet-50 topology — 53 convs, 16 residual joins, pools and FC —
/// lowers to one program whose replay reproduces the interpreted run exactly,
/// report included.
#[test]
fn scaled_resnet50_program_replays_end_to_end() {
    let g = resnet50_graph_scaled(16, 16);
    assert_eq!(g.conv_node_count(), 53);
    assert_eq!(g.add_node_count(), 16);

    let session = GraphSession::auto(FeatherConfig::new(4, 8), &g).unwrap();
    let [_, c, h, w] = g.tensor_shape(g.input());
    let iacts = Tensor4::random([1, c, h, w], 7);
    let weights = g.random_weights(8);
    let run = session.run(&iacts, &weights).unwrap();

    let replay = ProgramSession::new(session.compile().unwrap());
    let replayed = replay.run(&iacts, &weights).unwrap();
    assert_eq!(replayed.oacts, run.oacts);
    assert_eq!(replayed.report, run.report);

    // A second replay of the same program is a pure re-execution: same bits,
    // same statistics, no accumulated state.
    let again = replay.run(&iacts, &weights).unwrap();
    assert_eq!(again.oacts, run.oacts);
    assert_eq!(again.report, run.report);

    // The program really covers the whole network.
    assert_eq!(replayed.report.joins.len(), 16);
    assert_eq!(replayed.report.layers().count(), 56);
}
