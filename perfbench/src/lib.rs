//! The repository benchmark: sparse HOOI measured end to end and layer by
//! layer through the public API of `sptensor`, `hooi`, `linalg`,
//! `partition`, `distsim` and `service`.  See `README.md` for the
//! workloads and metrics.

pub mod checks;
pub mod executor;
pub mod inputs;
pub mod report;
pub mod service_mix;
pub mod solve;
pub mod stats;
pub mod trace;

use std::time::Duration;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["netflix-r10", "service-mix", "executor-fine-hp"];

/// The end-to-end metrics, name and unit, in the order `BENCHMARK.json`
/// lists them.  Every untraced run prints all of them, each measured and
/// positive.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("throughput_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, name and unit, in the order `BENCHMARK.json`
/// lists them.  Every traced run prints all of them; a layer the workload
/// does not run (the partitioner outside `executor-fine-hp`, the service
/// outside `service-mix`, mode 3 of an order-3 tensor) reads 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("sptensor.read_s", "s"),
    ("hooi.plan_s", "s"),
    ("hooi.symbolic_s", "s"),
    ("hooi.plan_mb", "MB"),
    ("hooi.cold_solve_s", "s"),
    ("hooi.init_s", "s"),
    ("hooi.ttmc_s", "s"),
    ("hooi.trsvd_s", "s"),
    ("hooi.core_s", "s"),
    ("hooi.untimed_s", "s"),
    ("hooi.ttmc_gflop", "Gflop"),
    ("hooi.ttmc_gword", "Gword"),
    ("hooi.ttmc.sweep_s", "s"),
    ("hooi.trsvd.mode0_s", "s"),
    ("hooi.trsvd.mode1_s", "s"),
    ("hooi.trsvd.mode2_s", "s"),
    ("hooi.trsvd.mode3_s", "s"),
    ("linalg.lanczos.mode0_applications", "count"),
    ("linalg.lanczos.mode1_applications", "count"),
    ("linalg.lanczos.mode2_applications", "count"),
    ("linalg.lanczos.mode3_applications", "count"),
    ("partition.build_s", "s"),
    ("distsim.comm_mb", "MB"),
    ("distsim.expand_mb", "MB"),
    ("distsim.fold_mb", "MB"),
    ("distsim.gather_mb", "MB"),
    ("distsim.scatter_mb", "MB"),
    ("distsim.messages", "count"),
    ("distsim.max_rank_mb", "MB"),
    ("distsim.fold_per_row_model", "ratio"),
    ("service.request_p50_ms", "ms"),
    ("service.request_p95_ms", "ms"),
    ("service.queue_wait_ms", "ms"),
    ("service.decompose_hit_ms", "ms"),
    ("service.decompose_miss_ms", "ms"),
    ("service.predict_ms", "ms"),
    ("service.ingest_ms", "ms"),
    ("service.cache_hits", "count"),
    ("service.cache_misses", "count"),
    ("service.cache_evictions", "count"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.charged_gflop", "Gflop"),
];

/// How many times every run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: Duration,
    /// Whether this is the traced run (per-layer metrics) or the untraced
    /// one (end-to-end metrics).
    pub trace: bool,
}

impl RunArgs {
    pub fn parse(args: &[String]) -> Result<RunArgs, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            match flag.as_str() {
                "--workload" => workload = Some(value.to_string()),
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(format!("seconds {value} out of range"));
                    }
                    seconds = Some(Duration::from_secs_f64(s));
                }
                "--trace" => {
                    trace = Some(match value {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload}; one of {}",
                WORKLOADS.join(", ")
            ));
        }
        Ok(RunArgs {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Runs one workload.
pub fn run(args: &RunArgs) -> Result<report::Outcome, String> {
    match args.workload.as_str() {
        "netflix-r10" => solve::run(&solve::NETFLIX_R10, args),
        "service-mix" => service_mix::run(args),
        "executor-fine-hp" => executor::run(args),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Seeds of the generated inputs, derived from the run seed.
pub fn input_seed(run_seed: u64, stream: u64) -> u64 {
    run_seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9))
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}
