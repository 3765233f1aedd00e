//! The scenario binaries' exit contract: asking for help is not an error.

use std::process::Command;

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let output = Command::new(env!("CARGO_BIN_EXE_scenario"))
            .args(["1", "--quick", flag])
            .output()
            .expect("scenario runs");
        assert_eq!(output.status.code(), Some(0), "{flag}");
        assert!(String::from_utf8_lossy(&output.stdout).starts_with("usage: scenario N"));
        assert!(output.stderr.is_empty(), "{flag}: nothing on stderr");
    }
}

#[test]
fn parse_errors_go_to_stderr_and_exit_one() {
    for (args, complaint) in [
        (&["1", "--bogus"][..], "unknown flag: --bogus"),
        (&["--quick"][..], "expected a scenario number (1-7)"),
        (&["8", "--quick"][..], "unknown flag: 8"),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_scenario"))
            .args(args)
            .output()
            .expect("scenario runs");
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        assert!(
            String::from_utf8_lossy(&output.stderr).contains(complaint),
            "{args:?}"
        );
        assert!(output.stdout.is_empty(), "{args:?}: nothing on stdout");
    }
}
