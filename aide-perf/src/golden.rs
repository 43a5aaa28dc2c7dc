//! The committed simulated statistics: the correctness oracle.
//!
//! The platform is a deterministic simulator of a client, a surrogate and a
//! link. Everything it *simulates* — logical operations, virtual seconds,
//! which objects migrate, what a policy selects — is a pure function of the
//! fixed Table-1 models, so it must repeat exactly on every run, seed and
//! commit; only host time may move. `golden/sim_stats.json` holds those
//! numbers at full scale. A change that moves one of them is not a
//! speed-up of the simulator but a change of the simulated system, and the
//! run fails. `--bless` rewrites the file when that is the intent.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// One application's unconstrained run (`local_mutator`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LocalStats {
    pub ops: u64,
    pub gc_cycles: u64,
    pub monitor_events: u64,
    pub virtual_seconds: f64,
}

/// One application's rescue at the 6 MB heap (`memory_rescue_tcp`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RescueStats {
    pub ops: u64,
    pub at_gc_cycle: u64,
    pub candidates: u64,
    pub objects_moved: u64,
    pub bytes_moved: u64,
    pub remote_interactions: u64,
}

/// One decision of the policy grid (`policy_sweep`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridStats {
    pub heuristic: String,
    pub policy: String,
    pub heap_mb: u64,
    pub candidates: u64,
    pub selected: bool,
    pub offloaded_nodes: u64,
    pub offloaded_memory_bytes: u64,
    pub cut_bytes: u64,
    pub cut_interactions: u64,
    pub score: f64,
}

#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Golden {
    #[serde(default)]
    pub local_mutator: BTreeMap<String, LocalStats>,
    #[serde(default)]
    pub memory_rescue_tcp: BTreeMap<String, RescueStats>,
    #[serde(default)]
    pub policy_sweep: BTreeMap<String, Vec<GridStats>>,
}

const COMMITTED: &str = include_str!("../golden/sim_stats.json");

fn path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden/sim_stats.json")
}

impl Golden {
    /// The statistics committed with this build of the benchmark.
    pub fn committed() -> Golden {
        serde_json::from_str(COMMITTED).expect("golden/sim_stats.json parses")
    }

    /// Applies `edit` to the file on disk (not to the copy compiled into
    /// this binary; the next build picks the new file up).
    pub fn bless(edit: impl FnOnce(&mut Golden)) -> std::io::Result<()> {
        let mut golden: Golden = std::fs::read_to_string(path())
            .ok()
            .and_then(|text| serde_json::from_str(&text).ok())
            .unwrap_or_default();
        edit(&mut golden);
        let text = serde_json::to_string_pretty(&golden).expect("golden serializes");
        std::fs::write(path(), text + "\n")
    }
}

/// `Some(description)` when `actual` differs from the committed `expected`
/// (or there is none), compared field by field with floats bit for bit —
/// which is what derived `PartialEq` on these types does.
pub fn mismatch<T: PartialEq + std::fmt::Debug>(
    what: &str,
    expected: Option<&T>,
    actual: &T,
) -> Option<String> {
    match expected {
        Some(e) if e == actual => None,
        Some(e) => Some(format!(
            "{what}: simulated statistics diverged from golden/sim_stats.json: expected {e:?}, got {actual:?}"
        )),
        None => Some(format!(
            "{what}: no entry in golden/sim_stats.json (run with --bless to record one)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_file_parses_and_round_trips_bit_for_bit() {
        let g = Golden::committed();
        let text = serde_json::to_string_pretty(&g).unwrap();
        assert_eq!(serde_json::from_str::<Golden>(&text).unwrap(), g);
    }

    #[test]
    fn mismatch_reports_divergence_and_absence() {
        let a = LocalStats {
            ops: 1,
            gc_cycles: 2,
            monitor_events: 3,
            virtual_seconds: 0.1 + 0.2,
        };
        assert_eq!(mismatch("x", Some(&a), &a.clone()), None);
        let b = LocalStats {
            virtual_seconds: 0.3,
            ..a.clone()
        };
        assert!(mismatch("x", Some(&a), &b).unwrap().contains("diverged"));
        assert!(mismatch("x", None, &b).unwrap().contains("--bless"));
    }
}
