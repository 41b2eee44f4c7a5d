//! `fafnir` — command-line front end for the FAFNIR reproduction.
//!
//! ```sh
//! fafnir lookup --batch 32 --skew 1.15
//! fafnir serve --rate 2e6 --policy deadline --max-wait-ns 500000 --workers 4
//! fafnir spmv --gen rmat --rows 4096
//! fafnir report --ranks 32
//! fafnir trace --record 100 > trace.txt && fafnir trace --stats trace.txt
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let tokens: Result<Vec<String>, _> =
        std::env::args_os().skip(1).map(std::ffi::OsString::into_string).collect();
    let report = tokens
        .map_err(|raw| args::ArgError(format!("argument {raw:?} is not valid UTF-8")))
        .and_then(|tokens| args::dispatch(commands::COMMANDS, &tokens));
    match report {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("error: {error}");
            ExitCode::FAILURE
        }
    }
}
