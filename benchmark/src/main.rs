//! `dse-benchmark --workload W --seed N --seconds S --trace 0|1`: run one
//! workload, print every metric by name and unit, and end with one JSON
//! line. Exits 1 when a correctness check failed, 2 on bad arguments.

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match dse_benchmark::Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dse-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let (out, log) = dse_benchmark::run(&args);
    if let Some(path) = &args.spans_out {
        if let Err(e) = std::fs::write(path, log.to_jsonl()) {
            eprintln!("dse-benchmark: cannot write spans to {path}: {e}");
            return ExitCode::from(2);
        }
    }
    print!("{}", out.render());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
