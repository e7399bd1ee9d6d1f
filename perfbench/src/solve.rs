//! `netflix-r10`: one tensor planned once, then solved repeatedly at a
//! fixed iteration count.

use crate::checks::{check_solve, fingerprint, tensor_norm};
use crate::inputs::{self, WorkDir};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{input_seed, secs, RunArgs, SETUP_REPEATS};
use datagen::{DatasetProfile, ProfileName};
use hooi::trsvd::trsvd_factor_with;
use hooi::{
    per_mode_costs, PlanOptions, SymbolicTtmc, TimingBreakdown, TrsvdBackend, TtmcCosts,
    TuckerConfig, TuckerDecomposition, TuckerSession,
};
use linalg::lanczos::LanczosWorkspace;
use linalg::Matrix;
use sptensor::SparseTensor;
use std::time::Instant;

/// One solve workload.
pub struct SolveSpec {
    pub name: &'static str,
    pub profile: ProfileName,
    pub nnz: usize,
    pub rank: usize,
    pub threads: usize,
    pub iterations: usize,
}

pub const NETFLIX_R10: SolveSpec = SolveSpec {
    name: "netflix-r10",
    profile: ProfileName::Netflix,
    nnz: 500_000,
    rank: 10,
    threads: 1,
    iterations: 3,
};

/// At least this many warm solves, however short the measured phase.
const MIN_WARM_SOLVES: usize = 3;
/// Repetitions of each replayed layer call in the traced run.
const REPLAY_REPEATS: usize = 3;

/// The solver seed (factor initialization and Lanczos start vectors),
/// fixed like the tensor draw: it moves the TRSVD's restart count too.
pub const SOLVER_SEED: u64 = 0x5eed_0010;

/// A fixed-iteration configuration: the convergence stop never fires.
pub fn fixed_config(order: usize, rank: usize, iterations: usize) -> TuckerConfig {
    TuckerConfig::new(vec![rank; order])
        .max_iterations(iterations)
        .fit_tolerance(f64::NEG_INFINITY)
        .seed(SOLVER_SEED)
}

pub fn run(spec: &SolveSpec, args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(args.trace);
    let work = WorkDir::create(spec.name).map_err(|e| format!("work dir: {e}"))?;
    let path = work.file("input.tns");
    inputs::write_profile(spec.profile, spec.nnz, 0, input_seed(args.seed, 0), &path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let order = DatasetProfile::new(spec.profile).order();
    let config = fixed_config(order, spec.rank, spec.iterations);
    let options = PlanOptions::new().num_threads(spec.threads);

    // Set-up: read the file, plan, and run the first (cold) solve.
    let mut setup_s = Vec::new();
    let mut symbolic_s = Vec::new();
    let mut plan_mb = Vec::new();
    let mut colds: Vec<u64> = Vec::new();
    let mut session: Option<TuckerSession<SparseTensor>> = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous plan first so set-ups never overlap in memory.
        drop(session.take());
        let t0 = Instant::now();
        let tensor = tr
            .span("sptensor.read", |_| inputs::read(&path))
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let mut s = tr
            .span("hooi.plan", |_| {
                TuckerSession::plan(tensor, options.clone())
            })
            .map_err(|e| format!("plan: {e}"))?;
        let cold = tr.span("hooi.solve.cold", |_| s.solve(&config));
        setup_s.push(secs(t0.elapsed()));
        out.attempted += 1;
        match cold {
            Ok(d) => colds.push(fingerprint(&d)),
            Err(e) => {
                out.failed += 1;
                eprintln!("cold solve failed: {e}");
            }
        }
        symbolic_s.push(secs(s.symbolic_time()));
        plan_mb.push(s.memory_bytes() as f64 / 1e6);
        session = Some(s);
    }
    let mut session = session.expect("at least one set-up");

    // Measured phase: warm solves on the planned session.
    let mut solve_s = Vec::new();
    let mut breakdowns: Vec<(f64, TimingBreakdown)> = Vec::new();
    let mut first: Option<(TuckerDecomposition, u64)> = None;
    let mut unequal = 0usize;
    let t_loop = Instant::now();
    while solve_s.len() < MIN_WARM_SOLVES || t_loop.elapsed() < args.seconds {
        let t = Instant::now();
        let result = tr.span("hooi.solve", |_| session.solve(&config));
        let wall = secs(t.elapsed());
        out.attempted += 1;
        match result {
            Ok(d) => {
                solve_s.push(wall);
                breakdowns.push((wall, d.timings.clone()));
                let print = fingerprint(&d);
                match &first {
                    None => first = Some((d, print)),
                    Some((_, f)) if *f != print => unequal += 1,
                    Some(_) => {}
                }
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("warm solve failed: {e}");
            }
        }
    }
    let rss = peak_rss_mb();

    // Checks, after the high-water mark is read.
    let tensor = session.tensor();
    let x_norm = tensor_norm(tensor);
    let (first, first_print) = first.ok_or("no warm solve succeeded")?;
    out.check("warm solve", check_solve(tensor, x_norm, &first));
    if unequal > 0 {
        out.check(
            "warm solves",
            Err(format!(
                "{unequal} warm solves differ in bits from the first"
            )),
        );
    }
    // A cold solve equal in bits to the checked warm one passes its checks.
    let cold_unequal = colds.iter().filter(|&&c| c != first_print).count();
    if cold_unequal > 0 {
        out.check(
            "cold solves",
            Err(format!(
                "{cold_unequal} cold solves differ in bits from the warm solves"
            )),
        );
    }

    out.end_to_end("setup_s", "s", median(&setup_s));
    out.end_to_end("solve_s", "s", median(&solve_s));
    out.end_to_end("throughput_rps", "1/s", per_second(&solve_s));
    out.end_to_end("peak_rss_mb", "MB", rss);

    if tr.enabled() {
        let ranks = first.ranks();
        out.layer(
            "sptensor.read_s",
            "s",
            median(&tr.seconds_of("sptensor.read")),
        );
        out.layer("hooi.plan_s", "s", median(&tr.seconds_of("hooi.plan")));
        out.layer("hooi.symbolic_s", "s", median(&symbolic_s));
        out.layer("hooi.plan_mb", "MB", median(&plan_mb));
        out.layer(
            "hooi.cold_solve_s",
            "s",
            median(&tr.seconds_of("hooi.solve.cold")),
        );
        breakdown_layers(&mut out, &breakdowns);
        let costs = match session.dimtree() {
            Some(tree) => tree.costs(&ranks),
            None => per_mode_costs(session.symbolic(), tensor.nnz(), &ranks),
        };
        cost_layers(&mut out, &costs);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(spec.threads)
            .build()
            .map_err(|e| format!("replay pool: {e}"))?;
        replay(
            &mut tr,
            &pool,
            tensor,
            session.symbolic(),
            &config,
            || match session.dimtree() {
                Some(tree) => tree.ttmc_all_modes(tensor, session.symbolic(), &first.factors),
                None => per_mode_sweep(tensor, session.symbolic(), &first.factors),
            },
        )
        .report(&mut out);
    }
    write_trace(&tr, args)?;
    Ok(out)
}

/// Medians of the solves' own phase timers, and the wall time they leave
/// unaccounted for.
pub fn breakdown_layers(out: &mut Outcome, breakdowns: &[(f64, TimingBreakdown)]) {
    let pick = |f: &dyn Fn(&TimingBreakdown) -> f64| -> Vec<f64> {
        breakdowns.iter().map(|(_, b)| f(b)).collect()
    };
    out.layer("hooi.init_s", "s", median(&pick(&|b| secs(b.init))));
    out.layer("hooi.ttmc_s", "s", median(&pick(&|b| secs(b.ttmc))));
    out.layer("hooi.trsvd_s", "s", median(&pick(&|b| secs(b.trsvd))));
    out.layer("hooi.core_s", "s", median(&pick(&|b| secs(b.core))));
    let untimed: Vec<f64> = breakdowns
        .iter()
        .map(|(wall, b)| wall - secs(b.init + b.ttmc + b.trsvd + b.core))
        .collect();
    out.layer("hooi.untimed_s", "s", median(&untimed));
}

/// The TTMc cost model's per-iteration flops and words.
pub fn cost_layers(out: &mut Outcome, costs: &TtmcCosts) {
    out.layer("hooi.ttmc_gflop", "Gflop", costs.flops as f64 / 1e9);
    out.layer("hooi.ttmc_gword", "Gword", costs.words as f64 / 1e9);
}

/// One per-mode TTMc sweep at fixed factors.
pub fn per_mode_sweep(
    tensor: &SparseTensor,
    symbolic: &SymbolicTtmc,
    factors: &[Matrix],
) -> Vec<Matrix> {
    (0..tensor.order())
        .map(|m| hooi::ttmc_mode(tensor, symbolic.mode(m), factors, m))
        .collect()
}

/// Operations completed per second of the time they took.
pub fn per_second(walls: &[f64]) -> f64 {
    walls.len() as f64 / walls.iter().sum::<f64>()
}

/// One TTMc sweep and every mode's TRSVD replayed at fixed factors.
#[derive(Debug, Default)]
pub struct Replay {
    /// Median seconds of the sweep.
    pub sweep_s: f64,
    /// Per mode: median seconds of `trsvd_factor_with` and its Lanczos
    /// operator applications.
    pub trsvd: Vec<(f64, usize)>,
}

impl Replay {
    /// Adds another tensor's replay, mode by mode.
    pub fn add(&mut self, other: &Replay) {
        self.sweep_s += other.sweep_s;
        if self.trsvd.len() < other.trsvd.len() {
            self.trsvd.resize(other.trsvd.len(), (0.0, 0));
        }
        for (sum, (s, applications)) in self.trsvd.iter_mut().zip(&other.trsvd) {
            sum.0 += s;
            sum.1 += applications;
        }
    }

    pub fn report(&self, out: &mut Outcome) {
        out.layer("hooi.ttmc.sweep_s", "s", self.sweep_s);
        for (mode, &(s, applications)) in self.trsvd.iter().enumerate() {
            out.layer(&format!("hooi.trsvd.mode{mode}_s"), "s", s);
            out.layer(
                &format!("linalg.lanczos.mode{mode}_applications"),
                "count",
                applications as f64,
            );
        }
    }
}

/// Times a TTMc sweep and then the TRSVD of every mode on its compact
/// matrices, each the median of [`REPLAY_REPEATS`].
pub fn replay(
    tr: &mut Tracer,
    pool: &rayon::ThreadPool,
    tensor: &SparseTensor,
    symbolic: &SymbolicTtmc,
    config: &TuckerConfig,
    sweep: impl Fn() -> Vec<Matrix>,
) -> Replay {
    let mut sweep_s = Vec::new();
    let mut compacts = Vec::new();
    for _ in 0..REPLAY_REPEATS {
        let t = Instant::now();
        compacts = tr.span("hooi.ttmc.sweep", |_| pool.install(&sweep));
        sweep_s.push(secs(t.elapsed()));
    }
    let trsvd = compacts
        .iter()
        .enumerate()
        .map(|(mode, compact)| {
            let mut times = Vec::new();
            let mut applications = 0;
            for _ in 0..REPLAY_REPEATS {
                let mut scratch = LanczosWorkspace::new();
                let t = Instant::now();
                let result = tr.span("hooi.trsvd", |_| {
                    pool.install(|| {
                        trsvd_factor_with(
                            compact,
                            symbolic.mode(mode),
                            tensor.dims()[mode],
                            config.ranks[mode],
                            TrsvdBackend::Lanczos,
                            config.seed ^ ((mode as u64 + 1) << 8),
                            &mut scratch,
                        )
                    })
                });
                times.push(secs(t.elapsed()));
                applications = result.operator_applications;
            }
            (median(&times), applications)
        })
        .collect();
    Replay {
        sweep_s: median(&sweep_s),
        trsvd,
    }
}

/// Writes the traced run's spans.
pub fn write_trace(tr: &Tracer, args: &RunArgs) -> Result<(), String> {
    if !tr.enabled() {
        return Ok(());
    }
    let path =
        inputs::trace_path(&args.workload, args.seed).map_err(|e| format!("trace dir: {e}"))?;
    tr.write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))
}
