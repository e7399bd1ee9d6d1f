//! `service-mix`: a Zipf multi-tenant request mix replayed closed-loop into
//! one `DecompositionService`.

use crate::checks::{check_predictions, check_solve, fingerprint, tensor_norm};
use crate::inputs::{self, WorkDir};
use crate::report::{peak_rss_mb, Outcome};
use crate::solve::{
    breakdown_layers, cost_layers, per_mode_sweep, replay as replay_layers, write_trace, Replay,
};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{input_seed, secs, RunArgs};
use datagen::requests::{request_mix, RequestKind, RequestMixSpec};
use datagen::ProfileName;
use hooi::{
    per_mode_costs, PlanOptions, TimingBreakdown, TtmcCosts, TuckerConfig, TuckerDecomposition,
    TuckerSession,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use service::{Completed, DecompositionService, Request, Response, ServiceOptions};
use sptensor::SparseTensor;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// Tensors in the registry, drawn round-robin from the four profiles.
pub const TENSORS: usize = 12;
/// Tenants; every request for a tensor comes from its owning tenant
/// (`tensor mod TENANTS`), so per-tenant FIFO order keeps each tensor's
/// requests in order under any fair interleaving.
pub const TENANTS: usize = 4;
/// Requests per replay round.
pub const REQUESTS: usize = 240;
/// Requests kept outstanding by the closed loop.
pub const OUTSTANDING: usize = 8;
/// Worker threads of the service's shared pool.
pub const THREADS: usize = 2;
/// Plan-cache budget, below the dozen plans' total footprint.
pub const PLAN_CACHE_BYTES: usize = 24 << 20;

/// Set-up here takes about 0.15 s and varies by a third between
/// repetitions, so it repeats more often than the other workloads' for a
/// steady median.
const SETUP_REPEATS: usize = 41;

/// The seed of the request sequence: which tensor each request names, its
/// kind, and each decomposition's rank, iteration count and seed.  It is
/// part of the workload's definition, fixed so that every run seed replays
/// the same sequence; the run seed shuffles the tensor files and draws the
/// predicted indices.
const MIX_SEED: u64 = 0x6d69_7831;

const PROFILES: [ProfileName; 4] = [
    ProfileName::Netflix,
    ProfileName::Nell,
    ProfileName::Delicious,
    ProfileName::Flickr,
];

/// Nonzeros of tensor `i`: 16k, 24k or 32k.
pub fn tensor_nnz(i: usize) -> usize {
    16_000 + 8_000 * (i / PROFILES.len())
}

/// One request of the replay, with what its checks need.
struct Planned {
    tensor: usize,
    request: Request,
    indices: Vec<Vec<usize>>,
}

/// The mix, made replayable: each tensor is decomposed before it is
/// predicted on (a decomposition is inserted where the mix would predict on
/// a tensor with no model), and the list is cut to exactly [`REQUESTS`].
fn replay_plan(seed: u64, tensors: &[Arc<SparseTensor>]) -> Vec<Planned> {
    let events = request_mix(&RequestMixSpec::new(
        TENANTS,
        TENSORS,
        2 * REQUESTS,
        MIX_SEED,
    ));
    let mut rng = SmallRng::seed_from_u64(input_seed(seed, 3));
    let mut solver_seeds = SmallRng::seed_from_u64(MIX_SEED);
    let mut modelled = [false; TENSORS];
    let mut plan = Vec::with_capacity(REQUESTS);
    let tensor_id = |t: usize| format!("tensor{t}");
    for event in events {
        let t = event.tensor;
        let order = tensors[t].order();
        let mut push = |request: Request, indices: Vec<Vec<usize>>| {
            plan.push(Planned {
                tensor: t,
                request,
                indices,
            })
        };
        match event.kind {
            RequestKind::Ingest | RequestKind::Evict => {
                modelled[t] = false;
                let request = if event.kind == RequestKind::Ingest {
                    Request::Ingest {
                        tensor_id: tensor_id(t),
                        tensor: Arc::clone(&tensors[t]),
                    }
                } else {
                    Request::Evict {
                        tensor_id: tensor_id(t),
                    }
                };
                push(request, Vec::new());
            }
            RequestKind::Decompose {
                rank,
                max_iters,
                seed,
            } => {
                modelled[t] = true;
                push(
                    Request::Decompose {
                        tensor_id: tensor_id(t),
                        ranks: vec![rank; order],
                        seed,
                        max_iters,
                        deadline: None,
                    },
                    Vec::new(),
                );
            }
            RequestKind::Predict { queries } => {
                if !modelled[t] {
                    modelled[t] = true;
                    push(
                        Request::Decompose {
                            tensor_id: tensor_id(t),
                            ranks: vec![2; order],
                            seed: solver_seeds.gen_range(0..1_000_000),
                            max_iters: 3,
                            deadline: None,
                        },
                        Vec::new(),
                    );
                }
                let dims = tensors[t].dims();
                let indices: Vec<Vec<usize>> = (0..queries)
                    .map(|_| dims.iter().map(|&d| rng.gen_range(0..d)).collect())
                    .collect();
                push(
                    Request::Predict {
                        tensor_id: tensor_id(t),
                        indices: indices.clone(),
                    },
                    indices,
                );
            }
        }
    }
    plan.truncate(REQUESTS);
    plan
}

/// The timings of one completed request, taken from outside the service.
struct Timing {
    request: usize,
    cache_hit: Option<bool>,
    latency_s: f64,
    step_s: f64,
    queue_s: f64,
}

/// One replay round: the responses' fingerprints by request id, how many
/// requests failed, the timings in completion order, each decomposition's
/// step time with its phase timers, the round's wall time and the service's
/// stats after it.
struct Round {
    prints: Vec<u64>,
    failed: u64,
    timings: Vec<Timing>,
    breakdowns: Vec<(f64, TimingBreakdown)>,
    wall_s: f64,
    stats: service::ServiceStats,
}

/// Replays the plan closed-loop into a fresh service.  `inspect` sees
/// every completion as it arrives (the check round checks there, outside
/// any measured round); measured rounds keep only fingerprints.
fn replay(
    plan: &[Planned],
    tr: &mut Tracer,
    mut inspect: impl FnMut(&Completed),
) -> Result<Round, String> {
    let mut svc = DecompositionService::new(
        ServiceOptions::new()
            .num_threads(THREADS)
            .plan_cache_bytes(PLAN_CACHE_BYTES),
    )
    .map_err(|e| format!("service: {e}"))?;
    let mut requests: Vec<Option<Request>> = plan.iter().map(|p| Some(p.request.clone())).collect();
    let mut submitted: Vec<Option<Instant>> = vec![None; plan.len()];
    let mut prints = vec![0u64; plan.len()];
    let mut failed = 0u64;
    let mut timings = Vec::with_capacity(plan.len());
    let mut breakdowns = Vec::new();
    let t0 = Instant::now();
    let mut next = 0;
    loop {
        // Closed loop: keep OUTSTANDING requests in the service.
        while next < plan.len() && next - timings.len() < OUTSTANDING {
            let request = requests[next]
                .take()
                .expect("each request is submitted once");
            let id = svc.submit(&format!("tenant{}", plan[next].tensor % TENANTS), request);
            debug_assert_eq!(id as usize, next);
            submitted[next] = Some(Instant::now());
            next += 1;
        }
        let step_start = Instant::now();
        let Some(done) = tr.span("service.step", |_| svc.step()) else {
            break;
        };
        let end = Instant::now();
        tr.tag_last(done.request_id);
        let request = done.request_id as usize;
        let arrival = submitted[request].expect("completed requests were submitted");
        tr.record("service.queue", arrival, step_start, Some(done.request_id));
        timings.push(Timing {
            request,
            cache_hit: done.plan_cache_hit,
            latency_s: secs(end - arrival),
            step_s: secs(end - step_start),
            queue_s: secs(step_start - arrival),
        });
        if let Ok(Response::Decomposed { decomposition, .. }) = &done.outcome {
            breakdowns.push((secs(end - step_start), decomposition.timings.clone()));
        }
        inspect(&done);
        prints[request] = response_print(&done.outcome);
        failed += done.outcome.is_err() as u64;
    }
    let wall_s = secs(t0.elapsed());
    Ok(Round {
        prints,
        failed,
        timings,
        breakdowns,
        wall_s,
        stats: svc.stats(),
    })
}

/// The bits of a response's numbers, to compare rounds.
fn response_print(outcome: &Result<Response, hooi::TuckerError>) -> u64 {
    let mut h = DefaultHasher::new();
    match outcome {
        Ok(Response::Decomposed { decomposition, .. }) => fingerprint(decomposition).hash(&mut h),
        Ok(Response::Predicted { values }) => {
            for x in values {
                x.to_bits().hash(&mut h);
            }
        }
        Ok(other) => std::mem::discriminant(other).hash(&mut h),
        Err(e) => e.to_string().hash(&mut h),
    }
    h.finish()
}

/// The upload with a non-finite value must be refused with a typed error;
/// returns whether it was (false: the operation failed).
fn read_upload(tr: &mut Tracer, upload: &std::path::Path) -> bool {
    tr.span("sptensor.read_upload", |_| inputs::read(upload))
        .is_err()
}

/// Checks one completed request of the check round against the tensors and
/// the latest model returned for each tensor.
fn check_completion(
    out: &mut Outcome,
    c: &Completed,
    plan: &[Planned],
    tensors: &[Arc<SparseTensor>],
    norms: &[f64],
    latest: &mut [Option<TuckerDecomposition>],
) {
    let id = c.request_id as usize;
    let t = plan[id].tensor;
    match &c.outcome {
        Err(_) => {}
        Ok(Response::Ingested { .. }) | Ok(Response::Evicted { .. }) => latest[t] = None,
        Ok(Response::Decomposed {
            decomposition,
            truncated,
        }) => {
            let verdict = if *truncated {
                Err("truncated without a deadline".to_string())
            } else {
                check_solve(&tensors[t], norms[t], decomposition)
            };
            out.check(&format!("request {id} decompose"), verdict);
            latest[t] = Some(decomposition.clone());
        }
        Ok(Response::Predicted { values }) => {
            let verdict = match &latest[t] {
                Some(model) => check_predictions(model, &plan[id].indices, values),
                None => Err("answered with no decomposition seen".to_string()),
            };
            out.check(&format!("request {id} predict"), verdict);
        }
    }
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tr = Tracer::new(args.trace);
    let work = WorkDir::create("service-mix").map_err(|e| format!("work dir: {e}"))?;
    let paths: Vec<_> = (0..TENSORS)
        .map(|i| work.file(&format!("tensor{i}.tns")))
        .collect();
    for (i, path) in paths.iter().enumerate() {
        let profile = PROFILES[i % PROFILES.len()];
        inputs::write_profile(
            profile,
            tensor_nnz(i),
            i as u64,
            input_seed(args.seed, 10 + i as u64),
            path,
        )
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    let upload = work.file("upload-nonfinite.tns");
    inputs::write_nonfinite_upload(&upload).map_err(|e| format!("writing upload: {e}"))?;

    // Set-up: read every tensor file and start the service.
    let mut setup_s = Vec::new();
    let mut tensors: Vec<Arc<SparseTensor>> = Vec::new();
    for _ in 0..SETUP_REPEATS {
        tensors.clear();
        let t0 = Instant::now();
        for path in &paths {
            let t = tr
                .span("sptensor.read", |_| inputs::read(path))
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            tensors.push(Arc::new(t));
        }
        let svc = tr.span("service.new", |_| {
            DecompositionService::new(
                ServiceOptions::new()
                    .num_threads(THREADS)
                    .plan_cache_bytes(PLAN_CACHE_BYTES),
            )
        });
        setup_s.push(secs(t0.elapsed()));
        drop(svc.map_err(|e| format!("service: {e}"))?);
    }
    let plan = replay_plan(args.seed, &tensors);

    // Measured phase: whole rounds of the replay, each into a fresh service,
    // each preceded by the upload that carries a non-finite value.
    let mut first: Option<Round> = None;
    let mut timings: Vec<Timing> = Vec::new();
    let mut breakdowns = Vec::new();
    let mut replay_s = 0.0;
    let mut unequal = 0usize;
    let t_loop = Instant::now();
    while first.is_none() || t_loop.elapsed() < args.seconds {
        out.attempted += 1;
        out.failed += u64::from(!read_upload(&mut tr, &upload));
        let mut round = replay(&plan, &mut tr, |_| {})?;
        replay_s += round.wall_s;
        out.attempted += plan.len() as u64;
        out.failed += round.failed;
        timings.append(&mut round.timings);
        breakdowns.append(&mut round.breakdowns);
        match &first {
            None => first = Some(round),
            Some(f) if f.prints != round.prints => unequal += 1,
            Some(_) => {}
        }
    }
    let rss = peak_rss_mb();
    let first = first.expect("at least one round");

    // One more whole round, checked response by response as it completes;
    // every measured round must have answered the same bits.
    out.attempted += 1;
    if !read_upload(&mut tr, &upload) {
        out.failed += 1;
        eprintln!("the reader accepted an upload that carries a non-finite value");
    }
    let norms: Vec<f64> = tensors.iter().map(|t| tensor_norm(t)).collect();
    let mut latest: Vec<Option<TuckerDecomposition>> = vec![None; TENSORS];
    let checked = replay(&plan, &mut tr, |c| {
        if let Err(e) = &c.outcome {
            eprintln!("request {} failed: {e}", c.request_id);
        }
        check_completion(&mut out, c, &plan, &tensors, &norms, &mut latest)
    })?;
    out.attempted += plan.len() as u64;
    out.failed += checked.failed;
    if checked.prints != first.prints {
        unequal += 1;
    }
    if unequal > 0 {
        out.check(
            "replay rounds",
            Err(format!(
                "{unequal} rounds answered differently from the others"
            )),
        );
    }

    let decompose_s: Vec<f64> = breakdowns.iter().map(|&(step_s, _)| step_s).collect();
    out.end_to_end("setup_s", "s", median(&setup_s));
    out.end_to_end("solve_s", "s", median(&decompose_s));
    out.end_to_end("throughput_rps", "1/s", timings.len() as f64 / replay_s);
    out.end_to_end("peak_rss_mb", "MB", rss);

    if tr.enabled() {
        out.layer(
            "sptensor.read_s",
            "s",
            median(&tr.seconds_of("sptensor.read")),
        );
        plan_layers(&mut out, &mut tr, &tensors)?;
        breakdown_layers(&mut out, &breakdowns);
        let latencies_ms: Vec<f64> = timings.iter().map(|r| 1e3 * r.latency_s).collect();
        out.layer(
            "service.request_p50_ms",
            "ms",
            percentile(&latencies_ms, 0.50),
        );
        out.layer(
            "service.request_p95_ms",
            "ms",
            percentile(&latencies_ms, 0.95),
        );
        let queue_ms: Vec<f64> = timings.iter().map(|r| 1e3 * r.queue_s).collect();
        out.layer("service.queue_wait_ms", "ms", percentile(&queue_ms, 0.50));
        let step_ms = |kind: &str, hit: Option<bool>| -> f64 {
            let v: Vec<f64> = timings
                .iter()
                .filter(|r| plan[r.request].request.kind_name() == kind)
                .filter(|r| hit.is_none() || r.cache_hit == hit)
                .map(|r| 1e3 * r.step_s)
                .collect();
            median(&v)
        };
        out.layer(
            "service.decompose_hit_ms",
            "ms",
            step_ms("decompose", Some(true)),
        );
        out.layer(
            "service.decompose_miss_ms",
            "ms",
            step_ms("decompose", Some(false)),
        );
        out.layer("service.predict_ms", "ms", step_ms("predict", None));
        out.layer("service.ingest_ms", "ms", step_ms("ingest", None));
        let stats = &first.stats;
        out.layer("service.cache_hits", "count", stats.plan_cache_hits as f64);
        out.layer(
            "service.cache_misses",
            "count",
            stats.plan_cache_misses as f64,
        );
        out.layer(
            "service.cache_evictions",
            "count",
            stats.evicted_plans.len() as f64,
        );
        out.layer("service.cache_hit_ratio", "ratio", stats.cache_hit_rate());
        let charged: u64 = stats.charged_flops.values().sum();
        out.layer("service.charged_gflop", "Gflop", charged as f64 / 1e9);
    }
    write_trace(&tr, args)?;
    Ok(out)
}

/// Plans every tensor of the registry the way the service does and solves
/// it once (cold) at the mix's largest rank, then replays a TTMc sweep and
/// every mode's TRSVD at that solve's factors.  Reports the median plan,
/// symbolic and cold-solve time, and sums over the registry of the plans'
/// footprints (the working set the cache budget is set against), their
/// per-iteration TTMc costs and the replays.
fn plan_layers(
    out: &mut Outcome,
    tr: &mut Tracer,
    tensors: &[Arc<SparseTensor>],
) -> Result<(), String> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(THREADS)
        .build()
        .map_err(|e| format!("plan pool: {e}"))?;
    let mut plan_s = Vec::new();
    let mut symbolic_s = Vec::new();
    let mut cold_s = Vec::new();
    let mut bytes = 0usize;
    let mut costs = TtmcCosts::default();
    let mut replays = Replay::default();
    for tensor in tensors {
        let t = Instant::now();
        let mut session = tr
            .span("hooi.plan", |_| {
                pool.install(|| {
                    TuckerSession::plan(Arc::clone(tensor), PlanOptions::new().caller_pool())
                })
            })
            .map_err(|e| format!("plan: {e}"))?;
        plan_s.push(secs(t.elapsed()));
        let config = TuckerConfig::new(vec![3; tensor.order()]).max_iterations(2);
        let t = Instant::now();
        let dec = tr
            .span("hooi.solve.cold", |_| {
                pool.install(|| session.solve(&config))
            })
            .map_err(|e| format!("plan-footprint solve: {e}"))?;
        cold_s.push(secs(t.elapsed()));
        symbolic_s.push(secs(session.symbolic_time()));
        bytes += session.memory_bytes();
        let ranks = dec.ranks();
        let c = match session.dimtree() {
            Some(tree) => tree.costs(&ranks),
            None => per_mode_costs(session.symbolic(), tensor.nnz(), &ranks),
        };
        costs.flops += c.flops;
        costs.words += c.words;
        let replayed =
            replay_layers(
                tr,
                &pool,
                tensor,
                session.symbolic(),
                &config,
                || match session.dimtree() {
                    Some(tree) => tree.ttmc_all_modes(tensor, session.symbolic(), &dec.factors),
                    None => per_mode_sweep(tensor, session.symbolic(), &dec.factors),
                },
            );
        replays.add(&replayed);
    }
    out.layer("hooi.plan_s", "s", median(&plan_s));
    out.layer("hooi.symbolic_s", "s", median(&symbolic_s));
    out.layer("hooi.plan_mb", "MB", bytes as f64 / 1e6);
    out.layer("hooi.cold_solve_s", "s", median(&cold_s));
    cost_layers(out, &costs);
    replays.report(out);
    Ok(())
}
