//! Exit-code checks on the compiled `epq` binary: a rejected command
//! exits 1 with an `epq: `-prefixed message on stderr.

use std::process::Command;

#[test]
fn engine_names_that_encoded_a_thread_count_are_rejected() {
    // Thread count is `--threads`, not part of the engine name. `hom-dp`
    // is rejected the same way: its #Hom count runs inside `fpt`.
    for engine in ["fpt-par", "brute-par", "relalg-par", "hom-dp"] {
        let output = Command::new(env!("CARGO_BIN_EXE_epq"))
            .args(["count", "--query", "E(x,y)", "--engine", engine])
            .args(["--data-inline", "structure { universe 2 E = { (0,1) } }"])
            .output()
            .expect("epq runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{engine}: {stderr}");
        assert!(
            stderr.starts_with("epq: unknown engine"),
            "{engine}: {stderr}"
        );
    }
}

#[test]
fn too_many_disjuncts_is_an_error_not_a_panic() {
    // Twelve two-way clauses expand to 4096 disjuncts, far past the
    // inclusion-exclusion limit: the limit is checked before expanding.
    let query = (0..12)
        .map(|i| format!("(E{i}(x,y) | F{i}(x,y))"))
        .collect::<Vec<_>>()
        .join(" & ");
    for sub in ["star", "plus"] {
        let start = std::time::Instant::now();
        let output = Command::new(env!("CARGO_BIN_EXE_epq"))
            .args([sub, "--query", &query])
            .output()
            .expect("epq runs");
        let elapsed = start.elapsed();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{sub}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{sub}: {stderr}");
        assert!(stderr.starts_with("epq: "), "{sub}: {stderr}");
        assert!(stderr.contains("4096 disjuncts"), "{sub}: {stderr}");
        if sub == "star" {
            assert!(elapsed.as_secs_f64() < 1.0, "{sub} took {elapsed:?}");
        }
    }
}

#[test]
fn deeply_nested_queries_are_an_error_not_a_stack_overflow() {
    let query = format!("{}E(x,y){}", "(".repeat(20_000), ")".repeat(20_000));
    let start = std::time::Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_epq"))
        .args(["classify", "--query", &query])
        .output()
        .expect("epq runs");
    let elapsed = start.elapsed();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.starts_with("epq: "), "{stderr}");
    assert!(elapsed.as_secs_f64() < 1.0, "took {elapsed:?}");
}

#[test]
fn malformed_structure_signatures_are_an_error_not_a_panic() {
    for data in [
        "structure { universe 2 E = { (0,0) } P/0 = { } }",
        "structure { universe 2 E = { (0,1) } E = { (1,0) } }",
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_epq"))
            .args(["count", "--query", "E(x,y)", "--data-inline", data])
            .output()
            .expect("epq runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{data}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{data}: {stderr}");
        assert!(stderr.starts_with("epq: "), "{data}: {stderr}");
    }
}
