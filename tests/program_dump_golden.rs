//! Golden snapshots of compiled programs. [`feather::Program::dump`]: the
//! human-readable listing of a compiled program is part of the debugging
//! workflow (it is what you diff when a schedule change moves an op), so its
//! exact shape is pinned here for a small fixed residual graph. The dump
//! checksums pin the lowering itself: every layer's route digest (its
//! compiled routes, fire stream and block table) and every op of a few fixed
//! programs, including a co-searched plan that switches layouts between
//! layers. An intentional change to the compiler or the listing format
//! regenerates both snapshots with
//! `FEATHER_BLESS=1 cargo test -p feather-suite --test program_dump_golden`.

use std::collections::BTreeSet;

use feather::{FeatherConfig, GraphSession, Program};
use feather_arch::graph::{resnet50_graph_scaled, Graph};
use feather_arch::workload::ConvLayer;
use layoutloop::arch::LayoutPolicy;
use layoutloop::{plan_graph, ArchSpec, CoSearchCache, MapperConfig};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/program_dump.txt"
);

const ARTIFACTS_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/program_artifacts.txt"
);

/// A two-block residual graph, small enough that the whole listing stays
/// readable but with every op kind represented: Stage, Fire, Reorder, Swap,
/// Join and the Park/Unpark pair around the first shortcut.
fn fixture() -> Graph {
    let mut g = Graph::new("golden_residual", [1, 4, 6, 6]);
    let stem = g
        .conv(
            g.input(),
            ConvLayer::new(1, 4, 4, 6, 6, 3, 3)
                .with_padding(1)
                .with_name("stem"),
        )
        .unwrap();
    let main = g
        .conv(
            stem,
            ConvLayer::new(1, 8, 4, 6, 6, 1, 1).with_name("b0_main"),
        )
        .unwrap();
    let proj = g
        .conv(
            stem,
            ConvLayer::new(1, 8, 4, 6, 6, 1, 1).with_name("b0_proj"),
        )
        .unwrap();
    let joined = g.add(main, proj, "b0_add").unwrap();
    // Linear two-conv tail: fuses into one multi-layer segment, so the
    // listing exercises the inter-layer Reorder op too.
    let tail = g
        .conv(
            joined,
            ConvLayer::new(1, 8, 8, 6, 6, 3, 3)
                .with_padding(1)
                .with_name("pre_head"),
        )
        .unwrap();
    g.conv(tail, ConvLayer::new(1, 4, 8, 6, 6, 1, 1).with_name("head"))
        .unwrap();
    g
}

#[test]
fn program_dump_matches_golden_snapshot() {
    let graph = fixture();
    let session = GraphSession::auto(FeatherConfig::new(4, 8), &graph).unwrap();
    let dump = session.compile().unwrap().dump();

    if std::env::var_os("FEATHER_BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &dump).unwrap();
        return;
    }

    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden snapshot exists; regenerate with FEATHER_BLESS=1");
    assert_eq!(
        dump, golden,
        "Program::dump() drifted from tests/golden/program_dump.txt.\n\
         If the change is intentional, regenerate with\n\
         FEATHER_BLESS=1 cargo test -p feather-suite --test program_dump_golden"
    );
}

/// The listing must contain every op family the compiler can emit for a
/// residual graph — a structural guard that stays valid across blessings.
#[test]
fn program_dump_lists_every_op_family() {
    let graph = fixture();
    let session = GraphSession::auto(FeatherConfig::new(4, 8), &graph).unwrap();
    let dump = session.compile().unwrap().dump();
    for needle in ["stage", "fire", "reorder", "swap", "join", "park", "unpark"] {
        assert!(
            dump.to_lowercase().contains(needle),
            "dump is missing a {needle} op:\n{dump}"
        );
    }
}

/// The residual fixture's default plan and a co-searched plan of it whose
/// layers switch iAct layouts, both on a 4x8 fabric.
fn residual_plans() -> (GraphSession, GraphSession) {
    let residual = fixture();
    let config = FeatherConfig::new(4, 8);
    // The built-in candidates are 32 wide; narrow them to the 8-wide fabric
    // so the plan's layouts apply instead of falling back to the defaults.
    let mut arch = ArchSpec::feather_like(config.rows, config.cols);
    arch.layout_policy = LayoutPolicy::Searchable(
        [
            "HWC_C8", "HWC_W8", "HWC_H8", "HWC_C2W4", "HWC_C4H2", "HWC_W2H4",
        ]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect(),
    );
    let plan = plan_graph(
        &arch,
        &residual,
        &MapperConfig::fast(),
        0,
        &mut CoSearchCache::new(),
    )
    .unwrap();
    let schedules = plan.schedules();
    let layouts: BTreeSet<String> = schedules.values().map(|(_, l)| l.to_string()).collect();
    assert!(
        layouts.len() > 1,
        "the co-searched fixture must switch layouts, got {layouts:?}"
    );
    let auto = GraphSession::auto(config, &residual).unwrap();
    let cosearched = GraphSession::from_schedules(config, &residual, &schedules).unwrap();
    assert_ne!(
        cosearched.fingerprint(),
        auto.fingerprint(),
        "the co-searched plan must not fall back to the default schedule"
    );
    (auto, cosearched)
}

/// The programs whose lowerings are pinned, by label: the residual fixture,
/// the scaled ResNet-50 at batch 1 and 4, and a co-searched plan of the
/// residual fixture whose layers switch iAct layouts.
fn pinned_sessions() -> Vec<(&'static str, GraphSession)> {
    let (auto, cosearched) = residual_plans();
    let resnet =
        GraphSession::auto(FeatherConfig::new(8, 16), &resnet50_graph_scaled(16, 16)).unwrap();
    vec![
        ("golden_residual", auto),
        ("resnet50_scaled_16_16_b1", resnet.clone()),
        ("resnet50_scaled_16_16_b4", resnet.with_batch(4).unwrap()),
        ("golden_residual_cosearched", cosearched),
    ]
}

/// FNV-1a 64 of a program's [`Program::dump`], which lists every layer's
/// route digest next to the tensor table, the segments and the op stream.
fn dump_checksum(program: &Program) -> u64 {
    program
        .dump()
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |hash, b| {
            (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn program_artifacts_match_golden_checksums() {
    let lines: String = pinned_sessions()
        .iter()
        .map(|(label, session)| {
            let program = session.compile().unwrap();
            format!("{label} dump {:016x}\n", dump_checksum(&program))
        })
        .collect();

    if std::env::var_os("FEATHER_BLESS").is_some() {
        std::fs::write(ARTIFACTS_PATH, &lines).unwrap();
        return;
    }

    let golden = std::fs::read_to_string(ARTIFACTS_PATH)
        .expect("golden checksums exist; regenerate with FEATHER_BLESS=1");
    assert_eq!(
        lines, golden,
        "a lowered program drifted from tests/golden/program_artifacts.txt.\n\
         If the change is intentional, regenerate with\n\
         FEATHER_BLESS=1 cargo test -p feather-suite --test program_dump_golden"
    );
}

/// Each layer's `route digest` in listing order.
fn route_digests(program: &Program) -> Vec<String> {
    program
        .dump()
        .lines()
        .filter_map(|line| line.trim().strip_prefix("route digest "))
        .map(String::from)
        .collect()
}

/// The route digest is a pure function of the plan: two fresh lowerings of
/// one session agree on every layer. A co-searched plan of the same graph
/// reorders the fixture's reductions, and at least one layer's digest shows
/// it.
#[test]
fn route_digests_are_stable_and_track_the_plan() {
    let (auto, cosearched) = residual_plans();
    let default_digests = route_digests(&auto.compile().unwrap());
    let (again, _) = residual_plans();
    assert_eq!(route_digests(&again.compile().unwrap()), default_digests);

    let cosearched_digests = route_digests(&cosearched.compile().unwrap());
    assert_eq!(cosearched_digests.len(), default_digests.len());
    assert!(
        default_digests
            .iter()
            .zip(&cosearched_digests)
            .any(|(a, b)| a != b),
        "co-searched routes must differ from the default plan's in some layer"
    );
}
