//! The names, units and directions of every metric, in the order they
//! print. `BENCHMARK.json` lists the same metrics; a unit test holds
//! the two together.

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees. `failed_fraction`, the sixth number
/// the suite prints, is `failed / attempted` of the result line: it is 0
/// on a healthy run, so it cannot carry a relative bound and is not
/// listed here.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("op_p50_s", "s", "lower"),
    m("op_p90_s", "s", "lower"),
    m("ops_per_s", "1/s", "higher"),
    m("peak_rss_mib", "MiB", "lower"),
];

/// Single layers, from the traced run. A metric a workload does not
/// exercise reads 0 there.
pub const PER_LAYER: &[MetricDef] = &[
    m("fx_core.trace.s", "s", "lower"),
    m("fx_core.trace.nodes", "count", "lower"),
    m("fx_core.validate.s", "s", "lower"),
    m("fx_core.exec_plan.compile_s", "s", "lower"),
    m("fx_core.exec_plan.levels", "count", "lower"),
    m("fx_core.exec_plan.slots", "count", "lower"),
    m("fx_core.exec_plan.planned_reuses", "count", "higher"),
    m("fx_core.exec_plan.peak_bytes", "B", "lower"),
    m("fx_passes.shape_prop.s", "s", "lower"),
    m("fx_passes.fuse.s", "s", "lower"),
    m("fx_passes.fuse.applied", "count", "higher"),
    m("fx_passes.fuse.nodes_after", "count", "lower"),
    m("fx_passes.cse.s", "s", "lower"),
    m("fx_passes.cse.applied", "count", "higher"),
    m("fx_passes.constfold.s", "s", "lower"),
    m("fx_passes.constfold.applied", "count", "higher"),
    m("fx_quant.prepare.s", "s", "lower"),
    m("fx_quant.prepare.observers", "count", "lower"),
    m("fx_quant.calibrate.s", "s", "lower"),
    m("fx_quant.convert.s", "s", "lower"),
    m("fx_quant.convert.nodes_after", "count", "lower"),
    m("fx_backend.compile.s", "s", "lower"),
    m("fx_backend.compile.instructions", "count", "lower"),
    m("fx_core.executor.run_s", "s", "lower"),
    m("fx_core.executor.node_busy_s", "s", "lower"),
    m("fx_core.executor.residue_s", "s", "lower"),
    m("fx_core.executor.residue_fraction", "ratio", "lower"),
    m("fx_core.executor.new_s", "s", "lower"),
    m("fx_core.executor.plan_hits", "count", "higher"),
    m("fx_core.executor.plan_compiles", "count", "lower"),
    m("fx_tensor.ops.conv.busy_s", "s", "lower"),
    m("fx_tensor.ops.conv.calls", "count", "lower"),
    m("fx_tensor.ops.conv.gflops", "GFLOP/s", "higher"),
    m("fx_tensor.ops.conv.roofline_fraction", "ratio", "higher"),
    m("fx_tensor.ops.linear.busy_s", "s", "lower"),
    m("fx_tensor.ops.linear.calls", "count", "lower"),
    m("fx_tensor.ops.linear.gflops", "GFLOP/s", "higher"),
    m("fx_tensor.ops.linear.roofline_fraction", "ratio", "higher"),
    m("fx_tensor.ops.norm.busy_s", "s", "lower"),
    m("fx_tensor.ops.norm.calls", "count", "lower"),
    m("fx_tensor.ops.elementwise.busy_s", "s", "lower"),
    m("fx_tensor.ops.elementwise.calls", "count", "lower"),
    m("fx_tensor.ops.pool2d.busy_s", "s", "lower"),
    m("fx_tensor.ops.pool2d.calls", "count", "lower"),
    m("fx_tensor.ops.quant_boundary.busy_s", "s", "lower"),
    m("fx_tensor.ops.quant_boundary.calls", "count", "lower"),
    m("fx_tensor.ops.shape.busy_s", "s", "lower"),
    m("fx_tensor.ops.shape.calls", "count", "lower"),
    m("fx_tensor.ops.unclassified.busy_s", "s", "lower"),
    m("fx_tensor.pool.fresh_allocs_per_op", "count", "lower"),
    m("fx_tensor.pool.hits_per_op", "count", "higher"),
    m("fx_tensor.pool.hit_rate", "ratio", "higher"),
    m("fx_tensor.pool.peak_bytes", "B", "lower"),
    m("fx_tensor.ops.batch.stack_s", "s", "lower"),
    m("fx_tensor.ops.batch.split_s", "s", "lower"),
    m("fx_serve.client_p50_s", "s", "lower"),
    m("fx_serve.server_p50_s", "s", "lower"),
    m("fx_serve.exec_s_per_batch", "s", "lower"),
    m("fx_serve.non_exec_s_per_req", "s", "lower"),
    m("fx_serve.batch_delay_s", "s", "lower"),
    m("fx_serve.non_exec_unexplained_s", "s", "lower"),
    m("fx_serve.mean_batch_rows", "count", "higher"),
    m("fx_serve.batches", "count", "higher"),
    m("fx_serve.rows_per_s", "1/s", "higher"),
    m("fx_serve.worker_busy_fraction", "ratio", "lower"),
    m("fx_serve.queue_high_water", "count", "lower"),
    m("fx_serve.rejected", "count", "lower"),
    m("fx_serve.swap.wall_p50_s", "s", "lower"),
    m("fx_serve.swap.count", "count", "higher"),
    m("fx_serve.swap.failed_during", "count", "lower"),
    m("fx_serve.swap.version_mismatches", "count", "lower"),
    m("fx_serve.scheduler.exec_share_a", "ratio", "higher"),
    m("bench.trace_overhead_ratio", "ratio", "lower"),
    m("bench.op_p99_s", "s", "lower"),
    m("bench.reference_s", "s", "lower"),
    m("bench.samples", "count", "higher"),
];

/// The definition of a metric by name, end-to-end or per-layer.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|def| def.name == name)
}

/// Counts that must repeat exactly between two runs of the same code.
/// The pool counts are exact only where one stream drives the executor;
/// under concurrent clients batch composition follows thread timing.
pub fn is_exact_count(name: &str, single_stream: bool) -> bool {
    name.ends_with(".nodes")
        || name.ends_with(".applied")
        || name.ends_with(".nodes_after")
        || name == "fx_core.executor.plan_compiles"
        || (single_stream && name.starts_with("fx_tensor.pool.") && name.ends_with("_per_op"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// `BENCHMARK.json` is written by hand; it must list exactly the
    /// metrics this file defines, with the same units and directions.
    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).unwrap().as_arr().unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}: count differs");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").unwrap().as_str(), Some(def.name));
                assert_eq!(
                    entry.get("unit").unwrap().as_str(),
                    Some(def.unit),
                    "{}",
                    def.name
                );
                assert_eq!(
                    entry.get("better").unwrap().as_str(),
                    Some(def.better),
                    "{}",
                    def.name
                );
            }
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, crate::workload::NAMES);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "{} listed twice", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(matches!(def.better, "lower" | "higher"));
        }
    }
}
