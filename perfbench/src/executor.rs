//! `executor-fine-hp`: distributed HOOI over the channel backend on a
//! fine-grain hypergraph distribution.

use crate::checks::{check_solve, fingerprint, tensor_norm};
use crate::inputs::{self, WorkDir};
use crate::report::{peak_rss_mb, Outcome};
use crate::solve::{
    breakdown_layers, cost_layers, fixed_config, per_mode_sweep, per_second, replay, write_trace,
};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{input_seed, secs, RunArgs, SETUP_REPEATS};
use datagen::ProfileName;
use distsim::{
    execute_hooi, iteration_stats, CommCounters, DistributedRun, DistributedSetup, ExecOptions,
    Grain, PartitionMethod, Phase, SimConfig,
};
use hooi::{per_mode_costs, PlanOptions, TtmcStrategy, TuckerSolver};
use sptensor::SparseTensor;
use std::time::Instant;

const NNZ: usize = 100_000;
const RANK: usize = 5;
const ORDER: usize = 4;
const NUM_RANKS: usize = 2;
const RANK_THREADS: usize = 1;
const ITERATIONS: usize = 3;
const MIN_RUNS: usize = 3;
/// Operator applications `iteration_stats` assumes for its TRSVD traffic
/// model; the expand and fold predictions checked here do not depend on it.
const MODEL_TRSVD_APPLICATIONS: usize = 20;

/// Words sent in one phase, summed over ranks: each word counted once.
fn sent_words(comm: &[CommCounters], phase: Phase) -> u64 {
    comm.iter()
        .map(|c| c.phase(phase).floats_sent + c.phase(phase).ints_sent)
        .sum()
}

fn sent_mb(comm: &[CommCounters]) -> f64 {
    let words: u64 = Phase::ALL.iter().map(|&p| sent_words(comm, p)).sum();
    words as f64 * 8.0 / 1e6
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(args.trace);
    let work = WorkDir::create("executor-fine-hp").map_err(|e| format!("work dir: {e}"))?;
    let path = work.file("input.tns");
    inputs::write_profile(ProfileName::Flickr, NNZ, 0, input_seed(args.seed, 0), &path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let config = fixed_config(ORDER, RANK, ITERATIONS);
    let mut sim = SimConfig::new(
        NUM_RANKS,
        Grain::Fine,
        PartitionMethod::Hypergraph,
        vec![RANK; ORDER],
    );
    sim.threads_per_rank = RANK_THREADS;
    let options = ExecOptions::new().rank_threads(RANK_THREADS);

    // Set-up: read the file and build the distribution.
    let mut setup_s = Vec::new();
    let mut built: Option<(SparseTensor, DistributedSetup)> = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let t0 = Instant::now();
        let tensor = tr
            .span("sptensor.read", |_| inputs::read(&path))
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let setup = tr.span("partition.build", |_| {
            DistributedSetup::build(&tensor, &sim)
        });
        setup_s.push(secs(t0.elapsed()));
        built = Some((tensor, setup));
    }
    let (tensor, setup) = built.expect("at least one set-up");

    // Measured phase: whole executor runs.
    let mut solve_s = Vec::new();
    let mut breakdowns = Vec::new();
    let mut first: Option<(DistributedRun, u64)> = None;
    let mut unequal = 0usize;
    let t_loop = Instant::now();
    while solve_s.len() < MIN_RUNS || t_loop.elapsed() < args.seconds {
        let t = Instant::now();
        let result = tr.span("distsim.execute_hooi", |_| {
            execute_hooi(&tensor, &setup, &config, &options)
        });
        let wall = secs(t.elapsed());
        out.attempted += 1;
        match result {
            Ok(run) => {
                solve_s.push(wall);
                breakdowns.push((wall, run.decomposition.timings.clone()));
                let print = fingerprint(&run.decomposition);
                match &first {
                    None => first = Some((run, print)),
                    Some((f, p)) if *p != print || f.comm != run.comm => unequal += 1,
                    Some(_) => {}
                }
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("executor run failed: {e}");
            }
        }
    }
    let rss = peak_rss_mb();
    let (first, first_print) = first.ok_or("no executor run succeeded")?;
    let dec = &first.decomposition;

    // Checks.
    let x_norm = tensor_norm(&tensor);
    out.check("executor result", check_solve(&tensor, x_norm, dec));
    if unequal > 0 {
        out.check(
            "executor runs",
            Err(format!(
                "{unequal} runs differ from the first in bits or traffic"
            )),
        );
    }
    // The reference is also the workload's only plan and cold solve: the
    // per-mode plan each rank's kernel corresponds to.
    let t_plan = Instant::now();
    let mut solver = tr
        .span("hooi.plan", |_| {
            TuckerSolver::plan(
                &tensor,
                PlanOptions::new()
                    .num_threads(RANK_THREADS)
                    .ttmc_strategy(TtmcStrategy::PerMode),
            )
        })
        .map_err(|e| format!("reference plan: {e}"))?;
    let plan_s = secs(t_plan.elapsed());
    let t_cold = Instant::now();
    let reference = tr
        .span("hooi.solve.cold", |_| solver.solve(&config))
        .map_err(|e| format!("reference solve: {e}"))?;
    let cold_s = secs(t_cold.elapsed());
    if fingerprint(&reference) != first_print {
        out.check(
            "executor vs solver",
            Err("executor result differs in bits from the per-mode solver at width 1".into()),
        );
    }
    let predicted = iteration_stats(&tensor, &setup, MODEL_TRSVD_APPLICATIONS);
    let iters = dec.iterations as u64;
    let (expand, fold) = (
        predicted.expand_words_per_rank(),
        predicted.fold_words_per_rank(),
    );
    for r in 0..NUM_RANKS {
        let measured_expand = first.comm[r].phase(Phase::Expand).floats_transferred();
        let measured_fold = first.comm[r].phase(Phase::Fold).floats_transferred();
        if measured_expand != iters * expand[r] || measured_fold != iters * fold[r] {
            out.check(
                "executor traffic",
                Err(format!(
                    "rank {r}: expand {measured_expand} / fold {measured_fold} words, \
                     predicted {} / {}",
                    iters * expand[r],
                    iters * fold[r]
                )),
            );
        }
    }

    out.end_to_end("setup_s", "s", median(&setup_s));
    out.end_to_end("solve_s", "s", median(&solve_s));
    out.end_to_end("throughput_rps", "1/s", per_second(&solve_s));
    out.end_to_end("peak_rss_mb", "MB", rss);

    if tr.enabled() {
        out.layer(
            "sptensor.read_s",
            "s",
            median(&tr.seconds_of("sptensor.read")),
        );
        out.layer(
            "partition.build_s",
            "s",
            median(&tr.seconds_of("partition.build")),
        );
        out.layer("hooi.plan_s", "s", plan_s);
        out.layer("hooi.symbolic_s", "s", secs(solver.symbolic_time()));
        out.layer("hooi.plan_mb", "MB", solver.memory_bytes() as f64 / 1e6);
        out.layer("hooi.cold_solve_s", "s", cold_s);
        breakdown_layers(&mut out, &breakdowns);
        let symbolic = solver.symbolic();
        let ranks = dec.ranks();
        cost_layers(&mut out, &per_mode_costs(symbolic, tensor.nnz(), &ranks));
        let comm = &first.comm;
        out.layer("distsim.comm_mb", "MB", sent_mb(comm));
        for (name, phase) in [
            ("distsim.expand_mb", Phase::Expand),
            ("distsim.fold_mb", Phase::Fold),
            ("distsim.gather_mb", Phase::Gather),
            ("distsim.scatter_mb", Phase::Scatter),
        ] {
            out.layer(name, "MB", sent_words(comm, phase) as f64 * 8.0 / 1e6);
        }
        let messages: u64 = comm
            .iter()
            .flat_map(|c| Phase::ALL.iter().map(move |&p| c.phase(p).messages_sent))
            .sum();
        out.layer("distsim.messages", "count", messages as f64);
        let max_rank = comm
            .iter()
            .map(CommCounters::bytes_total)
            .max()
            .unwrap_or(0);
        out.layer("distsim.max_rank_mb", "MB", max_rank as f64 / 1e6);
        // The paper's fold: one partial row of width Π_{t≠n} R_t from each
        // of a split row's λ − 1 non-owning holders.
        let relations = setup.row_relations(&tensor);
        let per_row: u64 = relations
            .modes
            .iter()
            .enumerate()
            .map(|(mode, rel)| {
                let width: u64 = ranks
                    .iter()
                    .enumerate()
                    .filter(|&(t, _)| t != mode)
                    .map(|(_, &r)| r as u64)
                    .product();
                rel.holders
                    .iter()
                    .map(|h| (h.len() as u64).saturating_sub(1) * width)
                    .sum::<u64>()
            })
            .sum();
        let fold_sent = sent_words(comm, Phase::Fold) as f64;
        out.layer(
            "distsim.fold_per_row_model",
            "ratio",
            fold_sent / (iters as f64 * per_row as f64),
        );
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(RANK_THREADS)
            .build()
            .map_err(|e| format!("replay pool: {e}"))?;
        replay(&mut tr, &pool, &tensor, symbolic, &config, || {
            per_mode_sweep(&tensor, symbolic, &dec.factors)
        })
        .report(&mut out);
    }
    write_trace(&tr, args)?;
    Ok(out)
}
