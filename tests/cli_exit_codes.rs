//! Exit-code checks on the compiled `epq` binary: a rejected command
//! exits 1 with an `epq: `-prefixed message on stderr.

use std::process::Command;

#[test]
fn engine_names_that_encoded_a_thread_count_are_rejected() {
    // Thread count is `--threads`, not part of the engine name.
    for engine in ["fpt-par", "brute-par", "relalg-par"] {
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
