//! The scenario binaries' exit contract: asking for help is not an error.

use std::process::Command;

#[test]
fn help_prints_usage_to_stdout_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let output = Command::new(env!("CARGO_BIN_EXE_scenario1"))
            .args(["--quick", flag])
            .output()
            .expect("scenario1 runs");
        assert_eq!(output.status.code(), Some(0), "{flag}");
        assert!(String::from_utf8_lossy(&output.stdout).starts_with("usage: scenarioN"));
        assert!(output.stderr.is_empty(), "{flag}: nothing on stderr");
    }
}

#[test]
fn parse_errors_go_to_stderr_and_exit_one() {
    let output = Command::new(env!("CARGO_BIN_EXE_scenario1"))
        .arg("--bogus")
        .output()
        .expect("scenario1 runs");
    assert_eq!(output.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&output.stderr).contains("unknown flag: --bogus"));
    assert!(output.stdout.is_empty(), "nothing on stdout");
}
