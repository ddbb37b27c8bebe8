//! The two serving workloads. One op is one `Handle::infer` → response,
//! from `C = min(nproc, 4)` closed-loop client threads (closed because a
//! caller of `infer` waits for its reply); each request carries 1, 1, 2
//! or 4 rows of `[r,3,32,32]`.
//!
//! * `serve_resnet50` — one f32 ResNet-50 tenant: the read-only serving
//!   path (queue, linger, stack, one executor run, split, reply) on top
//!   of exactly `exec_resnet50_f32`'s compute.
//! * `serve_swap` — tenants `resnet50_a` (weight 2) and `resnet50_b`
//!   (weight 1), client *i* on tenant *i mod 2*, while the coordinating
//!   thread hot-swaps `resnet50_a` between two weight versions every
//!   two seconds: writes beside reads.

use super::{plan_metrics, summarize, Cx, Layer, Mode, OpRecord, Until, Window, Workload};
use crate::attribution;
use crate::check;
use crate::gen;
use crate::layers::{self, GraphModule, Handle, Registry, Res, ServeStats, Tensor, Value};
use crate::pipeline::{self, Facts, Recipe};
use crate::span::{self, Recorder, NONE};
use crate::stats;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Distinct input tensors a client holds per request size.
const INPUTS_PER_SIZE: usize = 4;
const WARMUP_OPS: u64 = 20;
const SWAP_EVERY: Duration = Duration::from_secs(2);
/// The first swap lands mid-interval, so a short window still sees one.
const FIRST_SWAP_AFTER: Duration = Duration::from_secs(1);
const SWAPPED_TENANT: &str = "resnet50_a";

/// Rows of the solo executor probe and of the stack/split probe: `C`
/// clients × the mix's mean of two rows, as two requests of two rows.
const PROBE_PARTS: [usize; 2] = [2, 2];
const PROBE_RUNS: usize = 10;
const BATCH_PROBE_RUNS: usize = 200;

pub struct Serve {
    pub swap: bool,
}

pub fn clients() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

struct Tenant {
    name: &'static str,
    weight: u32,
    /// Eager models and their compiled graphs, one per weight version.
    /// Only the swapped tenant has two.
    models: Vec<layers::ResNet>,
    versions: Vec<GraphModule>,
    handle: Handle,
}

struct Request {
    input: Tensor,
    rows: usize,
    /// Reference output per weight version of the client's tenant.
    refs: Vec<Vec<f32>>,
}

struct Client {
    tenant: usize,
    /// Rows of the k-th request, cycled (see `gen::request_rows`).
    schedule: Vec<usize>,
    /// `INPUTS_PER_SIZE` requests per distinct size, sizes ascending.
    requests: Vec<Request>,
}

impl Client {
    fn request(&self, k: u64) -> &Request {
        let rows = self.schedule[k as usize % self.schedule.len()];
        let first = self
            .requests
            .iter()
            .position(|r| r.rows == rows)
            .expect("a request of every scheduled size was generated");
        &self.requests[first + k as usize % INPUTS_PER_SIZE]
    }
}

pub struct State {
    // Declared first so it drops first: its threads stop before the
    // graphs they serve go away.
    registry: Registry,
    tenants: Vec<Tenant>,
    clients: Vec<Client>,
    facts: Facts,
    /// Filled by the traced window.
    traced: Option<TracedWindow>,
}

struct TracedWindow {
    wall_s: f64,
    client_mean_s: f64,
    client_p50_s: f64,
    rows_ok: u64,
    before: Vec<ServeStats>,
    after: Vec<ServeStats>,
    swaps: SwapLog,
}

#[derive(Default)]
struct SwapLog {
    wall_s: Vec<f64>,
    failed_during: u64,
    version_mismatches: u64,
}

/// What a client learned from one op.
enum Verdict {
    Ok,
    /// Error, refusal, or rows that match no version.
    Failed,
    /// Rows of a version that could not have served the request.
    WrongVersion,
}

struct ClientResult {
    rec: Recorder,
    ops: Vec<OpRecord>,
    failed_during_swap: u64,
    wrong_version: u64,
    rows_ok: u64,
    first_error: Option<String>,
}

fn build_tenant(
    cx: &mut Cx,
    registry: &Registry,
    name: &'static str,
    weight: u32,
    lanes: &[u64],
    facts: &mut Option<Facts>,
) -> Res<Tenant> {
    let sample = gen::images(cx.seed, 1, 1, gen::IMAGE);
    let mut models = Vec::new();
    let mut versions = Vec::new();
    for &lane in lanes {
        let model = layers::resnet50(&mut gen::rng(cx.seed, gen::stream::WEIGHTS, lane));
        let compiled = pipeline::compile(
            &model,
            &sample,
            &Recipe {
                fuse: true,
                backend: false,
                calibration: None,
            },
            &mut cx.rec,
        )?;
        facts.get_or_insert(compiled.facts);
        models.push(model);
        versions.push(compiled.f32);
    }
    let shape = [1, gen::IMAGE[0], gen::IMAGE[1], gen::IMAGE[2]];
    let handle = cx.rec.time("fx_serve.register", || {
        layers::register(registry, name, versions[0].clone(), &shape, weight)
    })?;
    Ok(Tenant {
        name,
        weight,
        models,
        versions,
        handle,
    })
}

impl Workload for Serve {
    type State = State;

    fn setup(&self, cx: &mut Cx) -> Res<State> {
        let registry = layers::registry()?;
        let mut facts = None;
        // Weight lanes: tenant a's two versions are 0 and 1, tenant b is 2.
        let tenants = if self.swap {
            vec![
                build_tenant(cx, &registry, SWAPPED_TENANT, 2, &[0, 1], &mut facts)?,
                build_tenant(cx, &registry, "resnet50_b", 1, &[2], &mut facts)?,
            ]
        } else {
            vec![build_tenant(
                cx,
                &registry,
                "resnet50",
                1,
                &[0],
                &mut facts,
            )?]
        };
        let facts = facts.expect("at least one tenant was built");

        let mut sizes = gen::ROW_MIX.to_vec();
        sizes.sort_unstable();
        sizes.dedup();
        let clients = gen::request_rows(cx.seed, clients())
            .into_iter()
            .enumerate()
            .map(|(i, schedule)| {
                let mut inputs = gen::rng(cx.seed, gen::stream::INPUTS, 1 + i as u64);
                let requests = sizes
                    .iter()
                    .flat_map(|&rows| std::iter::repeat_n(rows, INPUTS_PER_SIZE))
                    .map(|rows| Request {
                        input: gen::image_batch(rows, gen::IMAGE, &mut inputs),
                        rows,
                        refs: Vec::new(),
                    })
                    .collect();
                Client {
                    tenant: i % tenants.len(),
                    schedule,
                    requests,
                }
            })
            .collect();

        let mut st = State {
            registry,
            tenants,
            clients,
            facts,
            traced: None,
        };
        let warm = self.window(&mut st, cx, Until::Ops(WARMUP_OPS), Mode::Warmup)?;
        if warm.failed() > 0 {
            return Err(format!("{} warm-up requests failed", warm.failed()));
        }
        Ok(st)
    }

    /// Each request alone through an unplanned sequential run of every
    /// version that could serve it — the rows a client gets back must
    /// be these bits — with eager execution of the untraced model
    /// bounding the reference itself.
    fn reference(&self, st: &mut State, cx: &mut Cx) -> Res<()> {
        for client in &mut st.clients {
            let tenant = &st.tenants[client.tenant];
            for req in &mut client.requests {
                let x = [Value::Tensor(req.input.clone())];
                for (model, gm) in tenant.models.iter().zip(&tenant.versions) {
                    let out = layers::run_unplanned(gm, &x)?;
                    let r = layers::f32_data(layers::output_tensor(&out)?)?.to_vec();
                    let eager = layers::eager_forward(model, &x)?;
                    let eager = layers::f32_data(layers::output_tensor(&eager)?)?;
                    if check::within_fold_tolerance(&r, eager) {
                        req.refs.push(r);
                    } else {
                        cx.notes.push(format!(
                            "{}: fused graph is {} from eager, over the tolerance",
                            tenant.name,
                            check::max_abs_diff(&r, eager)
                        ));
                        req.refs.push(Vec::new());
                    }
                }
            }
        }
        Ok(())
    }

    fn window(&self, st: &mut State, cx: &mut Cx, until: Until, mode: Mode) -> Res<Window> {
        let n = st.clients.len();
        let shared = Shared {
            stop: AtomicBool::new(false),
            swaps_started: AtomicU64::new(0),
            swaps_done: AtomicU64::new(0),
            barrier: Barrier::new(n + 1),
        };
        let Shared {
            stop,
            swaps_started,
            swaps_done,
            barrier,
        } = &shared;
        let epoch = cx.rec.epoch();
        let before: Vec<ServeStats> = st
            .tenants
            .iter()
            .map(|t| layers::handle_stats(&t.handle))
            .collect();
        let mut swap_log = SwapLog::default();
        let quota = match until {
            // Warm-up ops are split evenly over the clients.
            Until::Ops(ops) => Some(ops.div_ceil(n as u64)),
            Until::Seconds(_) => None,
        };

        let (results, wall_s) = std::thread::scope(|s| {
            let joins: Vec<_> = st
                .clients
                .iter()
                .enumerate()
                .map(|(i, client)| {
                    let handle = &st.tenants[client.tenant].handle;
                    let shared = &shared;
                    s.spawn(move || run_client(client, handle, (i, n), quota, mode, epoch, shared))
                })
                .collect();

            barrier.wait();
            let start = Instant::now();
            if let Until::Seconds(seconds) = until {
                let end = start + Duration::from_secs_f64(seconds);
                let mut next_swap = start + FIRST_SWAP_AFTER;
                loop {
                    let wake = if self.swap { next_swap.min(end) } else { end };
                    std::thread::sleep(wake.saturating_duration_since(Instant::now()));
                    if Instant::now() >= end {
                        break;
                    }
                    let tenant = &st.tenants[0];
                    // Version v serves weight set v mod 2; the clone is
                    // made before the clock starts.
                    let v = swaps_started.load(Ordering::SeqCst) + 1;
                    let gm = tenant.versions[v as usize % tenant.versions.len()].clone();
                    swaps_started.fetch_add(1, Ordering::SeqCst);
                    let id = cx.rec.begin("fx_serve.swap");
                    let swapped = layers::swap(&st.registry, tenant.name, gm);
                    swap_log.wall_s.push(cx.rec.end(id));
                    swaps_done.fetch_add(1, Ordering::SeqCst);
                    if let Err(e) = swapped {
                        cx.notes.push(format!("swap {v} failed: {e}"));
                        swap_log.failed_during += 1;
                    }
                    next_swap += SWAP_EVERY;
                }
                stop.store(true, Ordering::Relaxed);
            }
            let results: Vec<ClientResult> = joins
                .into_iter()
                .map(|j| j.join().expect("client thread panicked"))
                .collect();
            (results, start.elapsed().as_secs_f64())
        });

        // The next window must start from the first version again, so
        // that version v mod 2 keeps naming the weight set.
        if swaps_done.load(Ordering::SeqCst) % 2 == 1 {
            let tenant = &st.tenants[0];
            layers::swap(&st.registry, tenant.name, tenant.versions[0].clone())?;
        }

        let mut win = Window::default();
        let mut rows_ok = 0;
        for r in results {
            win.ops.extend_from_slice(&r.ops);
            rows_ok += r.rows_ok;
            swap_log.failed_during += r.failed_during_swap;
            swap_log.version_mismatches += r.wrong_version;
            if let Some(e) = r.first_error {
                cx.notes.push(format!("a request failed: {e}"));
            }
            cx.rec.absorb(r.rec);
        }
        if mode == Mode::Traced {
            st.traced = Some(TracedWindow {
                wall_s,
                client_mean_s: stats::mean(&win.ops.iter().map(|o| o.seconds).collect::<Vec<_>>()),
                client_p50_s: summarize(&win.ops).p50_s,
                rows_ok,
                before,
                after: st
                    .tenants
                    .iter()
                    .map(|t| layers::handle_stats(&t.handle))
                    .collect(),
                swaps: swap_log,
            });
        }
        Ok(win)
    }

    fn layer_metrics(&self, st: &mut State, cx: &mut Cx, out: &mut Layer) -> Res<()> {
        let tenant = &st.tenants[0];
        let gm = &tenant.versions[0];
        let (plan, ..) = layers::exec_plan(gm)?;
        plan_metrics(&st.facts, &plan, out);

        // What one batch costs inside the worker, from outside: a solo
        // profiled run and the public stack/split on the batch shape.
        let parts: Vec<Tensor> = {
            let mut rng = gen::rng(cx.seed, gen::stream::INPUTS, 0);
            PROBE_PARTS
                .iter()
                .map(|&r| gen::image_batch(r, gen::IMAGE, &mut rng))
                .collect()
        };
        let part_refs: Vec<&Tensor> = parts.iter().collect();
        let stacked = layers::stack_batch(&part_refs)?;
        let batch = [Value::Tensor(stacked)];
        let mut probe = gm.clone();
        layers::shape_prop(&mut probe, &batch)?;
        let table = attribution::steps(&probe, &mut cx.rec);
        let mut output = None;
        for _ in 0..PROBE_RUNS {
            let (out_value, _) = attribution::profiled_run(&probe, &batch, &table, &mut cx.rec)?;
            output = Some(out_value);
        }
        let output = output.expect("PROBE_RUNS is at least 1");
        let output = layers::output_tensor(&output)?;
        for _ in 0..BATCH_PROBE_RUNS {
            let s = cx.rec.time("fx_tensor.ops.batch.stack", || {
                layers::stack_batch(&part_refs)
            });
            std::hint::black_box(s?);
            let s = cx.rec.time("fx_tensor.ops.batch.split", || {
                layers::split_batch(output, &PROBE_PARTS)
            });
            std::hint::black_box(s?);
        }
        let agg = span::aggregate(&cx.rec.spans, |s| s.op == NONE);
        attribution::executor_metrics(&agg, &table, out);
        let stack_s = agg
            .get("fx_tensor.ops.batch.stack")
            .map_or(0.0, span::Agg::mean_s);
        let split_s = agg
            .get("fx_tensor.ops.batch.split")
            .map_or(0.0, span::Agg::mean_s);
        out.insert("fx_tensor.ops.batch.stack_s", stack_s);
        out.insert("fx_tensor.ops.batch.split_s", split_s);
        cx.notes.push(format!(
            "fx_core.executor.*, fx_tensor.ops.* and batch.stack_s/split_s come from solo probes \
             at {:?} rows, outside the server",
            PROBE_PARTS
        ));

        let tw = st
            .traced
            .as_ref()
            .ok_or("layer metrics need a traced window")?;
        let delta = |f: fn(&ServeStats) -> f64| -> Vec<f64> {
            tw.after
                .iter()
                .zip(&tw.before)
                .map(|(a, b)| f(a) - f(b))
                .collect()
        };
        let batches: f64 = delta(|s| s.batches as f64).iter().sum();
        let exec_by_tenant = delta(|s| s.exec_seconds);
        let exec_s: f64 = exec_by_tenant.iter().sum();
        let batch_rows: f64 = tw
            .after
            .iter()
            .zip(&tw.before)
            .map(|(a, b)| {
                a.batch_rows_histogram
                    .iter()
                    .zip(&b.batch_rows_histogram)
                    .enumerate()
                    .map(|(rows, (x, y))| rows as f64 * (x - y) as f64)
                    .sum::<f64>()
            })
            .sum();
        let exec_s_per_batch = if batches > 0.0 { exec_s / batches } else { 0.0 };
        // The server's plan counters are the served module's lifetime
        // totals, carried over from the graph handed to `register`.
        out.insert(
            "fx_core.executor.plan_compiles",
            tw.after[0]
                .plan_compiles
                .saturating_sub(st.facts.compiles_before_plan) as f64,
        );
        if batches > 0.0 {
            let hits: f64 = delta(|s| s.plan_cache_hits as f64).iter().sum();
            out.insert("fx_core.executor.plan_hits", hits / batches);
        }

        out.insert("fx_serve.client_p50_s", tw.client_p50_s);
        out.insert(
            "fx_serve.server_p50_s",
            stats::median(&tw.after.iter().map(|s| s.p50_latency_s).collect::<Vec<_>>()),
        );
        out.insert("fx_serve.exec_s_per_batch", exec_s_per_batch);
        // A request's own batch is not visible from outside; the mean
        // batch stands in for it.
        let non_exec = tw.client_mean_s - exec_s_per_batch;
        let linger = tw.after[0].batch_delay_s;
        out.insert("fx_serve.non_exec_s_per_req", non_exec);
        out.insert("fx_serve.batch_delay_s", linger);
        out.insert(
            "fx_serve.non_exec_unexplained_s",
            non_exec - linger - stack_s - split_s,
        );
        out.insert(
            "fx_serve.mean_batch_rows",
            if batches > 0.0 {
                batch_rows / batches
            } else {
                0.0
            },
        );
        out.insert("fx_serve.batches", batches);
        out.insert("fx_serve.rows_per_s", tw.rows_ok as f64 / tw.wall_s);
        out.insert("fx_serve.worker_busy_fraction", exec_s / tw.wall_s);
        out.insert(
            "fx_serve.queue_high_water",
            tw.after
                .iter()
                .map(|s| s.queue_high_water)
                .max()
                .unwrap_or(0) as f64,
        );
        out.insert(
            "fx_serve.rejected",
            delta(|s| s.rejected_queue_full as f64).iter().sum(),
        );
        cx.notes.push(format!(
            "fx_serve.non_exec_s_per_req {non_exec:.6} s = client mean {:.6} s − exec per batch \
             {exec_s_per_batch:.6} s; of it linger ≤ {linger:.6} s, stack {stack_s:.6} s, split \
             {split_s:.6} s, unexplained {:.6} s (waiting behind the one busy worker, wake-ups, \
             reply: not separable from outside)",
            tw.client_mean_s,
            non_exec - linger - stack_s - split_s
        ));

        if self.swap {
            out.insert("fx_serve.swap.wall_p50_s", stats::median(&tw.swaps.wall_s));
            out.insert("fx_serve.swap.count", tw.swaps.wall_s.len() as f64);
            out.insert("fx_serve.swap.failed_during", tw.swaps.failed_during as f64);
            out.insert(
                "fx_serve.swap.version_mismatches",
                tw.swaps.version_mismatches as f64,
            );
            if exec_s > 0.0 {
                out.insert(
                    "fx_serve.scheduler.exec_share_a",
                    exec_by_tenant[0] / exec_s,
                );
                let weights: u32 = st.tenants.iter().map(|t| t.weight).sum();
                cx.notes.push(format!(
                    "fx_serve.scheduler.exec_share_a {:.3} against a weight share of {:.3}; closed-loop \
                     clients leave no backlog for the scheduler to arbitrate, so load sets the share",
                    exec_by_tenant[0] / exec_s,
                    f64::from(st.tenants[0].weight) / f64::from(weights)
                ));
            }
        }
        Ok(())
    }
}

/// What the clients and the coordinator share during one window.
struct Shared {
    stop: AtomicBool,
    swaps_started: AtomicU64,
    swaps_done: AtomicU64,
    /// Clients and the coordinator start the clock together.
    barrier: Barrier,
}

/// One closed-loop client: client `lane.0` of `lane.1`, sending its
/// requests in order until told to stop or until `quota` are sent.
fn run_client(
    client: &Client,
    handle: &Handle,
    lane: (usize, usize),
    quota: Option<u64>,
    mode: Mode,
    epoch: Instant,
    shared: &Shared,
) -> ClientResult {
    let mut out = ClientResult {
        rec: Recorder::new(epoch),
        ops: Vec::new(),
        failed_during_swap: 0,
        wrong_version: 0,
        rows_ok: 0,
        first_error: None,
    };
    shared.barrier.wait();
    let start = Instant::now();
    while !shared.stop.load(Ordering::Relaxed) && quota.is_none_or(|q| (out.ops.len() as u64) < q) {
        let k = out.ops.len() as u64;
        let req = client.request(k);
        if mode != Mode::Warmup {
            out.rec.set_op((k * lane.1 as u64 + lane.0 as u64) as u32);
        }
        // Swaps finished before the request was sent and swaps begun
        // before its reply arrived bracket the versions that can have
        // served it.
        let done_before = shared.swaps_done.load(Ordering::SeqCst);
        let id = out.rec.begin(mode.span());
        let reply = layers::infer(handle, req.input.clone());
        let seconds = out.rec.end(id);
        let started_after = shared.swaps_started.load(Ordering::SeqCst);
        let verdict = match &reply {
            // Warm-up runs before the references exist.
            Ok(_) if mode == Mode::Warmup => Verdict::Ok,
            Ok(rows) => judge(rows, req, done_before, started_after),
            Err(e) => {
                out.first_error.get_or_insert_with(|| e.clone());
                Verdict::Failed
            }
        };
        out.ops.push(OpRecord {
            end_s: start.elapsed().as_secs_f64(),
            seconds,
            ok: matches!(verdict, Verdict::Ok),
        });
        match verdict {
            Verdict::Ok => out.rows_ok += req.rows as u64,
            Verdict::Failed | Verdict::WrongVersion => {
                if done_before != started_after {
                    out.failed_during_swap += 1;
                }
                if matches!(verdict, Verdict::WrongVersion) {
                    out.wrong_version += 1;
                }
            }
        }
    }
    out
}

/// Compare a reply with the references of the versions that can have
/// served it. Version `v` holds weight set `v mod 2`; `v` lies between
/// the swaps finished before the request and those begun before its
/// reply.
fn judge(reply: &[Tensor], req: &Request, done_before: u64, started_after: u64) -> Verdict {
    let Some(data) = reply.first().and_then(|t| layers::f32_data(t).ok()) else {
        return Verdict::Failed;
    };
    if reply.len() != 1 {
        return Verdict::Failed;
    }
    let sets = req.refs.len() as u64;
    let allowed = |set: u64| (done_before..=started_after).any(|v| v % sets == set);
    match (0..sets).find(|&set| check::bits_equal(data, &req.refs[set as usize])) {
        Some(set) if allowed(set) => Verdict::Ok,
        Some(_) => Verdict::WrongVersion,
        None => Verdict::Failed,
    }
}
