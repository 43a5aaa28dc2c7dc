//! Golden-fixture regression tests for the full decision pipeline.
//!
//! Each fixture in `tests/fixtures/*.json` describes a small hand-traced
//! graph plus the exact heuristic and policy outcome it must produce:
//! move order, candidate shape, winner index, score, and cut statistics.
//! Unlike the property tests (which compare two implementations against
//! each other), these pin the *absolute* behavior, so a bug that changes
//! both pipelines in lockstep still trips a fixture.
//!
//! On mismatch the failure lists every diverging field side by side. To
//! re-bless after an intentional behavior change, run with `AIDE_BLESS=1`
//! and review the fixture diff in version control.

use std::path::PathBuf;

use aide_graph::{
    candidate_partitionings, EdgeInfo, ExecutionGraph, MemoryPolicy, NodeId, NodeInfo,
    PartitionPolicy, PinReason, ResourceSnapshot,
};
use serde::{Deserialize, Serialize};

#[derive(Debug, Deserialize)]
struct FixtureNode {
    label: String,
    pinned: Option<PinReason>,
    memory_bytes: u64,
}

#[derive(Debug, Deserialize)]
struct Fixture {
    name: String,
    #[allow(dead_code)]
    description: String,
    nodes: Vec<FixtureNode>,
    /// `[a, b, interactions, bytes]` per edge.
    edges: Vec<(u32, u32, u64, u64)>,
    min_free_fraction: f64,
    heap_capacity: u64,
    heap_used: u64,
    expected: Expected,
}

/// The hand-traced outcome a fixture pins down.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Expected {
    move_order: Vec<u32>,
    candidate_offloaded_counts: Vec<usize>,
    winner_index: usize,
    winner_score: f64,
    offloaded_memory_bytes: u64,
    offloaded_nodes: usize,
    cut_bytes: u64,
    cut_interactions: u64,
}

fn fixture_path(stem: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{stem}.json"))
}

fn load(stem: &str) -> Fixture {
    let path = fixture_path(stem);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()));
    serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("parsing fixture {}: {e}", path.display()))
}

fn build_graph(fixture: &Fixture) -> ExecutionGraph {
    let mut g = ExecutionGraph::new();
    for node in &fixture.nodes {
        let id = match node.pinned {
            Some(reason) => g.add_node(NodeInfo::pinned(node.label.clone(), reason)),
            None => g.add_node(NodeInfo::new(node.label.clone())),
        };
        g.node_mut(id).memory_bytes = node.memory_bytes;
    }
    for &(a, b, interactions, bytes) in &fixture.edges {
        g.record_interaction(NodeId(a), NodeId(b), EdgeInfo::new(interactions, bytes));
    }
    g
}

/// Runs the pipeline and captures the outcome in the fixture's terms.
fn run_pipeline(fixture: &Fixture) -> Expected {
    let g = build_graph(fixture);
    let candidates = candidate_partitionings(&g);
    let policy = MemoryPolicy::new(fixture.min_free_fraction);
    let snapshot = ResourceSnapshot::new(fixture.heap_capacity, fixture.heap_used);
    let selection = policy
        .select(&g, snapshot, &candidates)
        .unwrap_or_else(|| panic!("fixture '{}' must select a winner", fixture.name));
    let winner_index = candidates
        .iter()
        .position(|c| *c == selection.partitioning)
        .expect("winner is one of the candidates");
    Expected {
        move_order: candidates.move_order().iter().map(|n| n.0).collect(),
        candidate_offloaded_counts: candidates.iter().map(|c| c.offloaded_count()).collect(),
        winner_index,
        winner_score: selection.score,
        offloaded_memory_bytes: selection.stats.offloaded_memory_bytes,
        offloaded_nodes: selection.stats.offloaded_nodes,
        cut_bytes: selection.stats.cut.bytes,
        cut_interactions: selection.stats.cut.interactions,
    }
}

/// Compares field by field, reporting every divergence at once.
fn check(stem: &str) {
    let fixture = load(stem);
    let actual = run_pipeline(&fixture);
    let expected = &fixture.expected;

    if std::env::var_os("AIDE_BLESS").is_some() {
        bless(stem, &actual);
        return;
    }

    let mut diffs: Vec<String> = Vec::new();
    macro_rules! diff_field {
        ($field:ident) => {
            if actual.$field != expected.$field {
                diffs.push(format!(
                    "  {:<28} expected {:?}, got {:?}",
                    stringify!($field),
                    expected.$field,
                    actual.$field
                ));
            }
        };
    }
    diff_field!(move_order);
    diff_field!(candidate_offloaded_counts);
    diff_field!(winner_index);
    diff_field!(offloaded_memory_bytes);
    diff_field!(offloaded_nodes);
    diff_field!(cut_bytes);
    diff_field!(cut_interactions);
    if actual.winner_score.to_bits() != expected.winner_score.to_bits() {
        diffs.push(format!(
            "  {:<28} expected {:?}, got {:?}",
            "winner_score", expected.winner_score, actual.winner_score
        ));
    }

    assert!(
        diffs.is_empty(),
        "golden fixture '{stem}' diverged:\n{}\n\
         (intentional change? re-bless with AIDE_BLESS=1 and review the diff)",
        diffs.join("\n")
    );
}

/// Rewrites the fixture's `expected` block with the actual pipeline
/// outcome, preserving the input sections.
fn bless(stem: &str, actual: &Expected) {
    let path = fixture_path(stem);
    let text = std::fs::read_to_string(&path).expect("fixture exists");
    let mut value: serde_json::Value = serde_json::from_str(&text).expect("fixture parses");
    value["expected"] = serde_json::to_value(actual).expect("expected serializes");
    let pretty = serde_json::to_string_pretty(&value).expect("fixture re-serializes");
    std::fs::write(&path, pretty + "\n").expect("fixture rewrites");
    eprintln!("blessed fixture {}", path.display());
}

#[test]
fn golden_editor_pipeline() {
    check("editor");
}

#[test]
fn golden_chain_pipeline() {
    check("chain");
}

#[test]
fn golden_mesh_pipeline() {
    check("mesh");
}

/// The plan-based sweep reproduces every golden outcome too — the golden
/// values pin both pipelines, not just the classic one.
#[test]
fn golden_fixtures_hold_on_the_plan_path() {
    for stem in ["editor", "chain", "mesh"] {
        let fixture = load(stem);
        let g = build_graph(&fixture);
        let plan = aide_graph::plan_candidates(&g);
        let policy = MemoryPolicy::new(fixture.min_free_fraction);
        let snapshot = ResourceSnapshot::new(fixture.heap_capacity, fixture.heap_used);
        let selection = policy
            .select_plan(&g, snapshot, &plan)
            .unwrap_or_else(|| panic!("fixture '{stem}' must select"));
        assert_eq!(
            selection.score.to_bits(),
            fixture.expected.winner_score.to_bits(),
            "fixture '{stem}' plan-path score"
        );
        assert_eq!(
            selection.partitioning,
            plan.candidate(fixture.expected.winner_index),
            "fixture '{stem}' plan-path winner"
        );
    }
}
