//! The `experiments` binary checks every id before it runs anything:
//! an id outside its catalog (a removed gate such as `P1`, or a typo)
//! exits 1 with one stderr line instead of silently running nothing.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs")
}

#[test]
fn unknown_ids_exit_1_with_one_line() {
    for (args, bad) in [(&["P1"][..], "P1"), (&["P2"], "P2"), (&["A1", "F5"], "F5")] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("experiments: unknown experiment id \"{bad}\"\n"),
            "{args:?}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}
