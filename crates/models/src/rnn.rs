//! Recurrent networks as **wholesale tensor operations** — the paper's
//! §2.3 observation: "in practice, these RNN structures are typically
//! provided as wholesale tensor operations. Thus, an entire RNN
//! application over a sequence appears in code as a call to an RNN
//! function or module. Therefore, these network architectures often also
//! appear as basic block programs."
//!
//! [`Lstm`] contains a genuine loop over time steps inside its
//! `forward`, yet it is a **leaf module**: the loop never enters the
//! captured IR — the traced graph shows one `call_module` node, keeping
//! the program a basic block.

use fx_core::{func, Module, ModuleExt, Result, Value};
use fx_tensor::Tensor;
use fx_tensor::rng::Rng;

/// A single-layer LSTM over `[N, T, input]` sequences, returning the
/// hidden states `[N, T, hidden]`.
#[derive(Debug, Clone)]
pub struct Lstm {
    w_ih: Tensor,
    w_hh: Tensor,
    b: Tensor,
    input_size: usize,
    hidden_size: usize,
}

impl Lstm {
    /// A randomly initialized LSTM.
    pub fn new<R: Rng>(input_size: usize, hidden_size: usize, rng: &mut R) -> Lstm {
        let bound = 1.0 / (hidden_size as f32).sqrt();
        Lstm {
            w_ih: Tensor::rand_uniform(&[4 * hidden_size, input_size], -bound, bound, rng),
            w_hh: Tensor::rand_uniform(&[4 * hidden_size, hidden_size], -bound, bound, rng),
            b: Tensor::rand_uniform(&[4 * hidden_size], -bound, bound, rng),
            input_size,
            hidden_size,
        }
    }

    /// Hidden width.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }
}

impl Module for Lstm {
    fn forward(&self, inputs: &[Value]) -> Result<Value> {
        let w_ih = self.attr("weight_ih")?;
        let w_hh = self.attr("weight_hh")?;
        let b = self.attr("bias")?;
        let x = &inputs[0];
        // The recurrence: a real host-language loop over time steps. As
        // a leaf module this runs only on concrete tensors, so reading
        // the sequence length is legitimate here.
        let t_steps = x.as_tensor()?.shape()[1];
        let h0 = {
            let xs = x.as_tensor()?.shape();
            Tensor::zeros(&[xs[0], self.hidden_size])
        };
        let mut h = Value::Tensor(h0.clone());
        let mut c = Value::Tensor(h0);
        let steps = func::chunk(x, t_steps, 1)?;
        let mut outputs = Vec::with_capacity(t_steps);
        for t in 0..t_steps {
            let x_t = func::getitem(&steps, t)?; // [N, 1, I]
            let x_t = func::flatten(&x_t, 1, -1)?; // [N, I]
            let gates = func::add(
                &func::add(&func::linear(&x_t, &w_ih, None)?, &func::linear(&h, &w_hh, None)?)?,
                &b,
            )?;
            let parts = func::chunk(&gates, 4, -1)?;
            let i = func::sigmoid(&func::getitem(&parts, 0)?)?;
            let f = func::sigmoid(&func::getitem(&parts, 1)?)?;
            let g = func::tanh(&func::getitem(&parts, 2)?)?;
            let o = func::sigmoid(&func::getitem(&parts, 3)?)?;
            c = func::add(&func::mul(&f, &c)?, &func::mul(&i, &g)?)?;
            h = func::mul(&o, &func::tanh(&c)?)?;
            outputs.push(func::unsqueeze(&h, 1)?); // [N, 1, H]
        }
        func::cat(&outputs, 1) // [N, T, H]
    }

    fn type_name(&self) -> &'static str {
        "Lstm"
    }

    fn own_parameters(&self) -> Vec<(String, Tensor)> {
        vec![
            ("weight_ih".to_string(), self.w_ih.clone()),
            ("weight_hh".to_string(), self.w_hh.clone()),
            ("bias".to_string(), self.b.clone()),
        ]
    }

    /// The whole recurrence is one opaque op in the IR — the §2.3 point.
    fn is_builtin_leaf(&self) -> bool {
        true
    }

    fn extra_repr(&self) -> String {
        format!("input={}, hidden={}", self.input_size, self.hidden_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx_core::{symbolic_trace, ArcModule, Opcode};
    use fx_tensor::rng::StdRng;
    use fx_tensor::rng::SeedableRng;
    use std::sync::Arc;

    #[test]
    fn lstm_output_shape_and_bounds() {
        let mut rng = StdRng::seed_from_u64(0);
        let lstm = Lstm::new(6, 10, &mut rng);
        let x = Value::Tensor(Tensor::randn(&[2, 5, 6], &mut rng));
        let y = lstm.call(&[x]).unwrap();
        let yt = y.as_tensor().unwrap();
        assert_eq!(yt.shape(), &[2, 5, 10]);
        // Hidden states are o*tanh(c): bounded by (-1, 1).
        assert!(yt.as_f32().unwrap().iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn recurrence_carries_state_across_steps() {
        let mut rng = StdRng::seed_from_u64(1);
        let lstm = Lstm::new(3, 4, &mut rng);
        // Same input at each step; outputs must differ step to step
        // because carried state evolves.
        let step = Tensor::ones(&[1, 1, 3]);
        let seq = fx_tensor::ops::cat(&[&step, &step, &step], 1).unwrap();
        let y = lstm.call(&[Value::Tensor(seq)]).unwrap();
        let yd = y.as_tensor().unwrap().as_f32().unwrap();
        let (t0, t1) = (&yd[0..4], &yd[4..8]);
        assert_ne!(t0, t1, "state must evolve across time steps");
    }

    #[test]
    fn traced_model_shows_one_node_for_the_whole_recurrence() {
        // A little encoder: LSTM then a linear head.
        #[derive(Debug)]
        struct Encoder {
            lstm: ArcModule,
            head: ArcModule,
        }
        impl Module for Encoder {
            fn forward(&self, xs: &[Value]) -> Result<Value> {
                let h = self.lstm.call(&[xs[0].clone()])?;
                let last = func::mean_dim(&h, 1, false)?;
                self.head.call(&[last])
            }
            fn type_name(&self) -> &'static str {
                "Encoder"
            }
            fn children(&self) -> Vec<(String, ArcModule)> {
                vec![
                    ("lstm".to_string(), self.lstm.clone()),
                    ("head".to_string(), self.head.clone()),
                ]
            }
        }
        let mut rng = StdRng::seed_from_u64(2);
        let enc = Encoder {
            lstm: Arc::new(Lstm::new(3, 8, &mut rng)),
            head: Arc::new(fx_nn::Linear::new(8, 2, &mut rng)),
        };
        let traced = symbolic_trace(&enc).unwrap();
        // The time loop is invisible: exactly one call_module for the
        // lstm, making this a basic-block program (§2.3).
        let lstm_nodes = traced
            .graph()
            .nodes()
            .filter(|n| n.op() == Opcode::CallModule && n.target() == "lstm")
            .count();
        assert_eq!(lstm_nodes, 1);
        traced.graph().lint().unwrap();
        // And the traced program still runs the recurrence correctly.
        let x = Value::Tensor(Tensor::randn(&[2, 7, 3], &mut rng));
        let a = enc.call(&[x.clone()]).unwrap();
        let b = traced.run(&[x]).unwrap();
        assert!(a
            .as_tensor()
            .unwrap()
            .allclose(b.as_tensor().unwrap(), 1e-5));
    }
}
