//! The paper's seven demonstration scenarios: `scenario <1-7> [flags]` — see
//! the `sbqa_bench` crate docs for the flags.

use std::process::ExitCode;

fn main() -> ExitCode {
    sbqa_bench::scenario_main()
}
