//! `ugs` — command-line interface for the uncertain-graph-sparsification
//! workspace.
//!
//! ```text
//! ugs generate --dataset flickr --scale tiny --output graph.txt
//! ugs stats graph.txt
//! ugs sparsify graph.txt --alpha 0.16 --method emd --output sparse.txt
//! ugs query sparse.txt --query pagerank --worlds 500
//! ugs compare graph.txt sparse.txt
//! ```
//!
//! Run `ugs help` for the full option list.

use std::io::{self, Write};

use ugs_cli::args::ParsedArgs;
use ugs_cli::commands::{self, CliError};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        print_line(&commands::usage());
        return;
    }
    let parsed = match ParsedArgs::parse(raw) {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(2);
        }
    };
    match commands::run(&parsed) {
        Ok(report) => print_line(&report),
        Err(CliError::Failed { report, message }) => {
            print_line(&report);
            eprintln!("error: {message}");
            std::process::exit(1);
        }
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    }
}

/// Writes `text` and a newline to stdout.  A reader that stops early
/// (`ugs help | head -5`) closes the pipe, which is no error: the command
/// goes on quietly.  Any other write error exits with status 1.
fn print_line(text: &str) {
    let mut stdout = io::stdout().lock();
    match writeln!(stdout, "{text}").and_then(|()| stdout.flush()) {
        Ok(()) => {}
        Err(err) if err.kind() == io::ErrorKind::BrokenPipe => {}
        Err(err) => {
            eprintln!("error: cannot write to stdout: {err}");
            std::process::exit(1);
        }
    }
}
