//! The three executor workloads: one op is one `Executor::new(&gm).run`,
//! single stream, cycling 16 seeded inputs.
//!
//! * `exec_resnet50_f32` — traced, conv–BN-fused ResNet-50 at
//!   `[4,3,64,64]`: >99 % of the time is inside f32 conv/GEMM kernels.
//! * `exec_resnet50_int8` — the same graph after PTQ, same inputs: the
//!   i8 kernels, the prepacked-weight cache and the
//!   quantize/dequantize boundaries.
//! * `exec_tiny_f32` — `resnet_tiny` as traced at `[1,3,32,32]` (43
//!   nodes, a few µs each): the executor's per-node fixed costs
//!   dominate.

use super::{plan_metrics, single_stream, Cx, Layer, Mode, Until, Window, Workload};
use crate::attribution::{self, PlanUse, Step};
use crate::check;
use crate::gen;
use crate::layers::{self, GraphModule, Res, Value};
use crate::pipeline::{self, Facts, Recipe};
use crate::span::{self, NONE};

const INPUTS: usize = 16;
const CALIBRATION_BATCHES: usize = 4;
/// Rows per ResNet-50 op: what `C` serve clients offer at once on
/// average, so the serve workloads sit on top of this compute. See
/// [`gen::IMAGE`] for why it is not one row.
const RESNET50_ROWS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Exec {
    F32,
    Int8,
    Tiny,
}

pub struct State {
    model: layers::ResNet,
    /// The graph every op runs.
    gm: GraphModule,
    facts: Facts,
    inputs: Vec<Value>,
    /// Reference output per input; empty where the reference itself
    /// failed its own check, so every op on that input fails.
    refs: Vec<Vec<f32>>,
    table: Vec<Step>,
    plan_use: PlanUse,
}

fn output_data(v: &Value) -> Res<Vec<f32>> {
    Ok(layers::f32_data(layers::output_tensor(v)?)?.to_vec())
}

impl Exec {
    /// Twenty runs of a 43-node graph take 4 ms. A ResNet-50 run touches
    /// every weight, pool bucket and prepacked panel once, so the second
    /// is already warm; eight keep three set-ups under four seconds.
    fn warmup_ops(self) -> u64 {
        match self {
            Exec::Tiny => 20,
            Exec::F32 | Exec::Int8 => 8,
        }
    }
}

impl Workload for Exec {
    type State = State;

    fn setup(&self, cx: &mut Cx) -> Res<State> {
        let mut weights = gen::rng(cx.seed, gen::stream::WEIGHTS, 0);
        let model = match self {
            Exec::Tiny => layers::resnet_tiny(&mut weights),
            Exec::F32 | Exec::Int8 => layers::resnet50(&mut weights),
        };
        let inputs = match self {
            Exec::Tiny => gen::images(cx.seed, INPUTS, 1, gen::SMALL_IMAGE),
            Exec::F32 | Exec::Int8 => gen::images(cx.seed, INPUTS, RESNET50_ROWS, gen::IMAGE),
        };
        let calibration: Vec<Vec<Value>> = inputs[..CALIBRATION_BATCHES]
            .iter()
            .map(|x| vec![x.clone()])
            .collect();
        let compiled = pipeline::compile(
            &model,
            &inputs[..1],
            &Recipe {
                fuse: *self != Exec::Tiny,
                backend: false,
                calibration: (*self == Exec::Int8).then_some(&calibration),
            },
            &mut cx.rec,
        )?;
        let (gm, compiles_before) = match compiled.int8 {
            None => (compiled.f32, compiled.facts.compiles_before_plan),
            Some(mut int8) => {
                // `convert` builds a fresh graph: give it the shape
                // metadata the memory planner and the cost model read.
                cx.rec.time("fx_passes.shape_prop", || {
                    layers::shape_prop(&mut int8, &inputs[..1])
                })?;
                let (_, _, compiles, _) = cx
                    .rec
                    .time("fx_core.exec_plan.compile", || layers::exec_plan(&int8))?;
                (int8, compiles - 1)
            }
        };
        let mut st = State {
            model,
            gm,
            facts: compiled.facts,
            inputs,
            refs: Vec::new(),
            table: Vec::new(),
            plan_use: PlanUse::since(compiles_before),
        };
        let warm = self.window(&mut st, cx, Until::Ops(self.warmup_ops()), Mode::Warmup)?;
        if warm.failed() > 0 {
            return Err("warm-up run failed".to_string());
        }
        Ok(st)
    }

    fn reference(&self, st: &mut State, cx: &mut Cx) -> Res<()> {
        for (i, x) in st.inputs.iter().enumerate() {
            let x = std::slice::from_ref(x);
            let eager = output_data(&layers::eager_forward(&st.model, x)?)?;
            let reference = match self {
                // As traced: the graph must reproduce eager to the bit.
                Exec::Tiny => eager,
                // Folded conv–BN reassociates the arithmetic, so eager
                // bounds the reference and an unplanned sequential run
                // (no pool, no in-place) gives the bits.
                Exec::F32 => {
                    let r = output_data(&layers::run_unplanned(&st.gm, x)?)?;
                    if check::within_fold_tolerance(&r, &eager) {
                        r
                    } else {
                        cx.notes.push(format!(
                            "input {i}: fused graph is {} from eager, over the tolerance",
                            check::max_abs_diff(&r, &eager)
                        ));
                        Vec::new()
                    }
                }
                Exec::Int8 => {
                    let r = output_data(&layers::run_unplanned(&st.gm, x)?)?;
                    let db = check::sqnr_db(&eager, &r);
                    if db >= check::MIN_SQNR_DB {
                        r
                    } else {
                        cx.notes.push(format!(
                            "input {i}: int8 SQNR {db:.1} dB against eager f32, under {} dB",
                            check::MIN_SQNR_DB
                        ));
                        Vec::new()
                    }
                }
            };
            st.refs.push(reference);
        }
        Ok(())
    }

    fn window(&self, st: &mut State, cx: &mut Cx, until: Until, mode: Mode) -> Res<Window> {
        if mode == Mode::Traced && st.table.is_empty() {
            st.table = attribution::steps(&st.gm, &mut cx.rec);
        }
        let State {
            gm,
            inputs,
            refs,
            table,
            plan_use,
            ..
        } = st;
        let input = |k: u64| std::slice::from_ref(&inputs[k as usize % INPUTS]);
        let win = single_stream(
            cx,
            until,
            mode,
            |rec, k| {
                if mode == Mode::Traced {
                    let (out, profile) = attribution::profiled_run(gm, input(k), table, rec)?;
                    plan_use.observe(&profile);
                    Ok(out)
                } else {
                    layers::executor_run(&mut layers::executor(gm), input(k))
                }
            },
            |k, out| {
                layers::output_tensor(out)
                    .and_then(layers::f32_data)
                    .is_ok_and(|o| check::bits_equal(o, &refs[k as usize % INPUTS]))
            },
        );
        Ok(win)
    }

    fn layer_metrics(&self, st: &mut State, cx: &mut Cx, out: &mut Layer) -> Res<()> {
        let (plan, ..) = layers::exec_plan(&st.gm)?;
        plan_metrics(&st.facts, &plan, out);
        st.plan_use.metrics(out);
        let agg = span::aggregate(&cx.rec.spans, |s| s.op != NONE);
        attribution::executor_metrics(&agg, &st.table, out);
        Ok(())
    }
}
