//! Runs one workload of the repository benchmark and prints its result as
//! the last line of standard output:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` records spans
//! around every call into the program, writes them to
//! `perfbench/.work/trace-<workload>-seed<n>.jsonl`, and reports the
//! per-layer metrics (its end-to-end numbers go to standard error, for the
//! tracing-overhead comparison).

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match perfbench::RunArgs::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match perfbench::run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    for problem in &outcome.problems {
        eprintln!("check failed: {problem}");
    }
    let line = if args.trace {
        if let Ok(e2e) = outcome.end_to_end_line() {
            eprintln!("end-to-end under tracing: {e2e}");
        }
        outcome.per_layer_line()
    } else {
        outcome.end_to_end_line()
    };
    match line {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
