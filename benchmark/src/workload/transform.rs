//! `transform_resnet50`: one op is one full compile of a pre-built
//! ResNet-50 — capture, every pass, backend lowering and PTQ. The
//! paper's thesis is that this is cheap; the kernels do almost none of
//! the work here.

use super::{plan_metrics, single_stream, Cx, Layer, Mode, Until, Window, Workload};
use crate::attribution;
use crate::check;
use crate::gen;
use crate::json::{self, Json};
use crate::layers::{self, Res, Value};
use crate::pipeline::{self, Compiled, Facts, Recipe};
use crate::span;

/// Two compiles fill the allocator and page in the code; a third shows
/// the second was not a fluke. Twenty would be a fifth of the window.
const WARMUP_OPS: u64 = 3;

/// Executor runs of the compiled graph for the traced run's op-class
/// attribution.
const PROBE_RUNS: usize = 5;

/// Hand-written expected counts, beside the manifest.
const EXPECTED_JSON: &str = include_str!("../../expected.json");

#[derive(Debug, PartialEq)]
pub struct Expected {
    pub nodes_after_trace: usize,
    pub nodes_after_fuse: usize,
    pub nodes_after_convert: usize,
    pub fusions_applied: usize,
    pub engine_instructions: usize,
}

pub fn parse_expected(text: &str) -> Res<Expected> {
    let doc = json::parse(text)?;
    let field = |name: &str| -> Res<usize> {
        doc.get(name)
            .and_then(Json::as_u64)
            .map(|n| n as usize)
            .ok_or_else(|| format!("expected.json: {name} must be a whole number"))
    };
    Ok(Expected {
        nodes_after_trace: field("nodes_after_trace")?,
        nodes_after_fuse: field("nodes_after_fuse")?,
        nodes_after_convert: field("nodes_after_convert")?,
        fusions_applied: field("fusions_applied")?,
        engine_instructions: field("engine_instructions")?,
    })
}

impl Expected {
    fn matches(&self, facts: &Facts) -> bool {
        facts.nodes_after_trace == self.nodes_after_trace
            && facts.nodes_after_fuse == self.nodes_after_fuse
            && facts.fusions_applied == self.fusions_applied
            && facts.nodes_after_convert == Some(self.nodes_after_convert)
            && facts.engine_instructions == Some(self.engine_instructions)
    }
}

pub struct Transform;

pub struct State {
    model: layers::ResNet,
    sample: Vec<Value>,
    calibration: Vec<Vec<Value>>,
    expected: Expected,
    /// Eager output of the untraced model on `sample`.
    eager: Vec<f32>,
    /// `gm.code()` of the first verified op; every later op must print
    /// the same program.
    first_code: Option<(String, String)>,
}

impl State {
    fn compile(&self, rec: &mut span::Recorder) -> Res<Compiled> {
        pipeline::compile(
            &self.model,
            &self.sample,
            &Recipe {
                fuse: true,
                backend: true,
                calibration: Some(&self.calibration),
            },
            rec,
        )
    }

    /// Counts against `expected.json`, determinism against the first
    /// op, and the compiled f32 graph's output against eager.
    fn verify(&mut self, product: &Compiled) -> bool {
        if !self.expected.matches(&product.facts) {
            return false;
        }
        let Some(int8) = &product.int8 else {
            return false;
        };
        let code = (
            layers::code(&product.f32).to_string(),
            layers::code(int8).to_string(),
        );
        match &self.first_code {
            None => self.first_code = Some(code),
            Some(first) if *first != code => return false,
            Some(_) => {}
        }
        let mut ex = layers::executor(&product.f32);
        layers::executor_run(&mut ex, &self.sample)
            .and_then(|out| {
                let t = layers::output_tensor(&out)?;
                Ok(check::within_fold_tolerance(
                    layers::f32_data(t)?,
                    &self.eager,
                ))
            })
            .unwrap_or(false)
    }
}

impl Workload for Transform {
    type State = State;

    fn setup(&self, cx: &mut Cx) -> Res<State> {
        let model = layers::resnet50(&mut gen::rng(cx.seed, gen::stream::WEIGHTS, 0));
        let sample = gen::images(cx.seed, 1, 1, gen::SMALL_IMAGE);
        let mut st = State {
            model,
            calibration: vec![sample.clone()],
            sample,
            expected: parse_expected(EXPECTED_JSON)?,
            eager: Vec::new(),
            first_code: None,
        };
        let warm = self.window(&mut st, cx, Until::Ops(WARMUP_OPS), Mode::Warmup)?;
        if warm.failed() > 0 {
            return Err("warm-up compile failed".to_string());
        }
        Ok(st)
    }

    fn reference(&self, st: &mut State, _cx: &mut Cx) -> Res<()> {
        let out = layers::eager_forward(&st.model, &st.sample)?;
        st.eager = layers::f32_data(layers::output_tensor(&out)?)?.to_vec();
        Ok(())
    }

    fn window(&self, st: &mut State, cx: &mut Cx, until: Until, mode: Mode) -> Res<Window> {
        // The op borrows the state to compile; verification needs it
        // mutably (first program seen, last product kept), so products
        // cross from one closure to the other through the loop.
        let st = std::cell::RefCell::new(st);
        let win = single_stream(
            cx,
            until,
            mode,
            |rec, _| st.borrow().compile(rec),
            |_, product| st.borrow_mut().verify(product),
        );
        Ok(win)
    }

    fn layer_metrics(&self, st: &mut State, cx: &mut Cx, out: &mut Layer) -> Res<()> {
        let product = st.compile(&mut cx.rec)?;
        let (plan, ..) = layers::exec_plan(&product.f32)?;
        plan_metrics(&product.facts, &plan, out);
        let table = attribution::steps(&product.f32, &mut cx.rec);
        let mut plan_use = attribution::PlanUse::since(product.facts.compiles_before_plan);
        for _ in 0..PROBE_RUNS {
            let (_, profile) =
                attribution::profiled_run(&product.f32, &st.sample, &table, &mut cx.rec)?;
            plan_use.observe(&profile);
        }
        plan_use.metrics(out);
        let agg = span::aggregate(&cx.rec.spans, |_| true);
        attribution::executor_metrics(&agg, &table, out);
        cx.notes.push(format!(
            "fx_core.executor.* and fx_tensor.ops.* come from {PROBE_RUNS} profiled runs of the \
             compiled f32 graph, outside the ops"
        ));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_json_parses_and_rejects_bad_files() {
        let e = parse_expected(EXPECTED_JSON).unwrap();
        assert!(e.nodes_after_trace > e.nodes_after_fuse);
        assert_eq!(
            parse_expected(
                r#"{"nodes_after_trace": 5, "nodes_after_fuse": 4, "nodes_after_convert": 3,
                    "fusions_applied": 1, "engine_instructions": 2}"#
            )
            .unwrap(),
            Expected {
                nodes_after_trace: 5,
                nodes_after_fuse: 4,
                nodes_after_convert: 3,
                fusions_applied: 1,
                engine_instructions: 2,
            }
        );
        assert!(
            parse_expected(r#"{"nodes_after_trace": 5}"#).is_err(),
            "missing fields"
        );
        assert!(
            parse_expected(r#"{"nodes_after_trace": "5"}"#).is_err(),
            "wrong type"
        );
        assert!(
            parse_expected(r#"{"nodes_after_trace": 5.5}"#).is_err(),
            "not whole"
        );
        assert!(parse_expected("not json").is_err());
    }
}
