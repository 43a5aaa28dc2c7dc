//! "Does this still reproduce the paper?" as one test: every section of
//! `repro`, at the paper's scale, must print `experiments_output.txt` byte
//! for byte — and the paper-shape asserts inside the sections must hold
//! while it does. After a change that is *meant* to move a figure:
//!
//! ```sh
//! cargo run --release -p aide-bench --bin repro > experiments_output.txt
//! ```

#[test]
fn repro_prints_the_committed_capture_byte_for_byte() {
    let mut printed = Vec::new();
    aide_bench::run(&aide_bench::Workloads::paper(), &[], &mut printed).expect("writes to memory");
    let printed = String::from_utf8(printed).expect("sections print UTF-8");
    let capture = include_str!("../../../experiments_output.txt");
    if let Some((n, (got, want))) = printed
        .lines()
        .zip(capture.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
    {
        panic!(
            "experiments_output.txt:{}\n  capture: {want}\n  printed: {got}",
            n + 1
        );
    }
    assert_eq!(printed.len(), capture.len(), "one is a prefix of the other");
}
