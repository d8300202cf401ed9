//! `--help` / `-h` anywhere after a subcommand prints the usage text to
//! stdout and exits 0, exactly like `hdoms help` — checked against the
//! real `hdoms` binary, never starting a search or a server.

use std::process::{Command, Output};

fn hdoms(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hdoms"))
        .args(args)
        .output()
        .expect("run hdoms")
}

#[test]
fn subcommand_help_prints_usage_and_succeeds() {
    let usage = hdoms(&["help"]);
    assert!(usage.status.success());
    assert!(String::from_utf8_lossy(&usage.stdout).contains("USAGE:"));
    for args in [
        &["search", "--help"][..],
        &["serve", "-h"],
        &["index", "build", "--help"],
        &["query", "--addr", "127.0.0.1:1", "-h"],
        &["generate", "--preset", "tiny", "--help"],
        &["chip", "-h"],
    ] {
        let out = hdoms(args);
        assert!(
            out.status.success(),
            "hdoms {args:?} exited {:?}: {}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(out.stdout, usage.stdout, "hdoms {args:?} prints the usage");
        assert!(out.stderr.is_empty(), "hdoms {args:?} writes no error");
    }
}
