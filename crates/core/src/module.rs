//! The [`Module`] protocol: the capture library's view of `nn.Module`.
//!
//! torch.fx overrides `nn.Module.__call__` to observe module invocations
//! during tracing. The Rust equivalent is [`ModuleExt::call`]: user
//! `forward` implementations invoke children through `.call(..)` (never
//! `.forward(..)` directly), giving the tracer its interception point.
//! When tracing is active and the callee is a *leaf* module (per the
//! [`Tracer`](crate::Tracer)'s `is_leaf_module`), a `call_module` node is
//! recorded; non-leaf modules are traced through; outside tracing,
//! `.call` is just `forward`.

use crate::error::{Error, Result};
use crate::trace;
use crate::value::Value;
use fx_tensor::Tensor;
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// Shared handle to a module in a hierarchy.
pub type ArcModule = Arc<dyn Module>;

/// A neural-network module: stateful parameters plus a functional
/// `forward`.
///
/// Implementations in `fx-nn` cover the standard layers; user models
/// implement this directly. Containers report their children (enabling
/// qualified-name assignment and recursive tracing); leaves report their
/// parameters.
pub trait Module: Any + fmt::Debug + Send + Sync {
    /// Run the module on `inputs`. Forward bodies must route all tensor
    /// work through the dispatcher (the [`crate::func`] wrappers,
    /// [`Value`] methods/operators, or child `.call(..)`s) so that the
    /// module is symbolically traceable.
    fn forward(&self, inputs: &[Value]) -> Result<Value>;

    /// The module's class name, e.g. `"Conv2d"` — used in printed module
    /// paths and by transforms that match on layer kinds.
    fn type_name(&self) -> &'static str;

    /// Direct children as `(name, module)` pairs, in definition order.
    fn children(&self) -> Vec<(String, ArcModule)> {
        Vec::new()
    }

    /// Parameters owned directly by this module (not by children), as
    /// `(name, tensor)` pairs.
    fn own_parameters(&self) -> Vec<(String, Tensor)> {
        Vec::new()
    }

    /// Whether the default tracer should treat this module as an opaque
    /// `call_module` (true for well-known library layers like `Conv2d`,
    /// whose internals users don't want in their graphs — paper §5.2),
    /// or trace through its `forward` (false; the default for
    /// user-defined modules).
    fn is_builtin_leaf(&self) -> bool {
        false
    }

    /// Extra detail for display, e.g. `"3, 64, kernel_size=(7, 7)"`.
    fn extra_repr(&self) -> String {
        String::new()
    }

    /// Names of the forward inputs, used for placeholder naming when this
    /// module is the root of a trace.
    fn input_names(&self) -> Vec<String> {
        vec!["x".to_string()]
    }
}

impl dyn Module {
    /// The module as `&dyn Any`, so transforms can downcast to concrete
    /// layer types (e.g. conv–BN fusion reading `Conv2d` fields). An
    /// inherent method on the trait object, not a trait method: no
    /// module writes it, and an `ArcModule` auto-derefs to the module
    /// rather than resolving to the `Arc` itself.
    pub fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Extension methods available on every module, concrete or `dyn`.
pub trait ModuleExt {
    /// Invoke the module through the tracer-aware interception point.
    /// Always use this (not `forward`) to call child modules.
    fn call(&self, inputs: &[Value]) -> Result<Value>;

    /// Fetch one of this module's own parameters as a [`Value`]. During
    /// tracing this records a `get_attr` node (the parameter's qualified
    /// path becomes the target); eagerly it returns the tensor.
    fn attr(&self, name: &str) -> Result<Value>;
}

impl<T: Module> ModuleExt for T {
    fn call(&self, inputs: &[Value]) -> Result<Value> {
        trace::module_call(self, inputs)
    }

    fn attr(&self, name: &str) -> Result<Value> {
        trace::module_attr(self, name)
    }
}

impl ModuleExt for dyn Module {
    fn call(&self, inputs: &[Value]) -> Result<Value> {
        trace::module_call(self, inputs)
    }

    fn attr(&self, name: &str) -> Result<Value> {
        trace::module_attr(self, name)
    }
}

/// Identity of a module by data pointer — the key the tracer uses to map
/// modules to qualified names (torch.fx uses Python `id()` the same
/// way). Stable for the duration of a trace because the hierarchy is
/// held alive by `Arc`s.
pub fn module_ptr(m: &dyn Module) -> usize {
    (m as *const dyn Module).cast::<()>() as usize
}

/// Join two qualified-name segments with a dot, treating the empty
/// prefix as the root.
pub fn join_path(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}.{name}")
    }
}

/// Walk the hierarchy below `root`, yielding every descendant with its
/// dotted qualified name (the root itself, having no `Arc`, is not
/// included).
pub fn named_modules(root: &dyn Module) -> Vec<(String, ArcModule)> {
    let mut out = Vec::new();
    fn walk(prefix: &str, m: &dyn Module, out: &mut Vec<(String, ArcModule)>) {
        for (name, child) in m.children() {
            let path = join_path(prefix, &name);
            out.push((path.clone(), child.clone()));
            walk(&path, child.as_ref(), out);
        }
    }
    walk("", root, &mut out);
    out
}

/// Every parameter in the hierarchy with its dotted qualified name.
pub fn named_parameters(root: &dyn Module) -> Vec<(String, Tensor)> {
    let mut out: Vec<(String, Tensor)> = root.own_parameters();
    for (path, m) in named_modules(root) {
        for (pname, t) in m.own_parameters() {
            out.push((join_path(&path, &pname), t));
        }
    }
    out
}

/// Total number of scalar parameters below `root` — e.g. 25,557,032 for
/// a standard ResNet50.
pub fn num_parameters(root: &dyn Module) -> usize {
    named_parameters(root).iter().map(|(_, t)| t.numel()).sum()
}

/// Find the descendant module at dotted `path` (empty path is an error —
/// callers already hold the root).
pub fn get_submodule(root: &dyn Module, path: &str) -> Result<ArcModule> {
    let mut segments = path.split('.');
    let first = segments.next().filter(|s| !s.is_empty()).ok_or_else(|| {
        Error::Module("get_submodule: empty path".to_string())
    })?;
    let mut current: ArcModule = root
        .children()
        .into_iter()
        .find(|(n, _)| n == first)
        .map(|(_, m)| m)
        .ok_or_else(|| Error::Module(format!("no child `{first}` under the root")))?;
    for seg in segments {
        let next = current
            .children()
            .into_iter()
            .find(|(n, _)| n == seg)
            .map(|(_, m)| m)
            .ok_or_else(|| {
                Error::Module(format!(
                    "no child `{seg}` under `{}` (while resolving `{path}`)",
                    current.type_name()
                ))
            })?;
        current = next;
    }
    Ok(current)
}

/// Render the module hierarchy like PyTorch's `print(model)`.
pub fn module_tree(root: &dyn Module) -> String {
    fn walk(name: &str, m: &dyn Module, depth: usize, out: &mut String) {
        let indent = "  ".repeat(depth);
        let extra = m.extra_repr();
        if name.is_empty() {
            out.push_str(&format!("{}({})\n", m.type_name(), extra));
        } else {
            out.push_str(&format!("{indent}({name}): {}({extra})\n", m.type_name()));
        }
        for (cname, child) in m.children() {
            walk(&cname, child.as_ref(), depth + 1, out);
        }
    }
    let mut out = String::new();
    walk("", root, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    struct Leaf {
        w: Tensor,
    }

    impl Module for Leaf {
        fn forward(&self, inputs: &[Value]) -> Result<Value> {
            crate::func::add(&inputs[0], &Value::Tensor(self.w.clone()))
        }
        fn type_name(&self) -> &'static str {
            "Leaf"
        }
        fn own_parameters(&self) -> Vec<(String, Tensor)> {
            vec![("w".to_string(), self.w.clone())]
        }
        fn is_builtin_leaf(&self) -> bool {
            true
        }
    }

    #[derive(Debug)]
    struct Parent {
        a: ArcModule,
        b: ArcModule,
    }

    impl Module for Parent {
        fn forward(&self, inputs: &[Value]) -> Result<Value> {
            let x = self.a.call(inputs)?;
            self.b.call(&[x])
        }
        fn type_name(&self) -> &'static str {
            "Parent"
        }
        fn children(&self) -> Vec<(String, ArcModule)> {
            vec![
                ("a".to_string(), self.a.clone()),
                ("b".to_string(), self.b.clone()),
            ]
        }
    }

    fn parent() -> Parent {
        Parent {
            a: Arc::new(Leaf {
                w: Tensor::full(&[2], 1.0),
            }),
            b: Arc::new(Leaf {
                w: Tensor::full(&[2], 10.0),
            }),
        }
    }

    #[test]
    fn eager_call_runs_forward() {
        let p = parent();
        let x = Value::Tensor(Tensor::zeros(&[2]));
        let y = p.call(&[x]).unwrap();
        assert_eq!(y.as_tensor().unwrap().as_f32().unwrap(), &[11.0, 11.0]);
    }

    #[test]
    fn named_modules_and_parameters() {
        let p = parent();
        let mods = named_modules(&p);
        let names: Vec<&str> = mods.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
        let params = named_parameters(&p);
        let pnames: Vec<&str> = params.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(pnames, vec!["a.w", "b.w"]);
        assert_eq!(num_parameters(&p), 4);
    }

    #[test]
    fn get_submodule_resolves_and_errors() {
        let p = parent();
        assert_eq!(get_submodule(&p, "a").unwrap().type_name(), "Leaf");
        assert!(get_submodule(&p, "c").is_err());
        assert!(get_submodule(&p, "a.deeper").is_err());
        assert!(get_submodule(&p, "").is_err());
    }

    #[test]
    fn attr_returns_parameter_eagerly() {
        let leaf = Leaf {
            w: Tensor::full(&[1], 5.0),
        };
        let v = leaf.attr("w").unwrap();
        assert_eq!(v.as_tensor().unwrap().item_f32().unwrap(), 5.0);
        assert!(leaf.attr("missing").is_err());
    }

    #[test]
    fn tree_rendering() {
        let p = parent();
        let tree = module_tree(&p);
        assert!(tree.starts_with("Parent"));
        assert!(tree.contains("(a): Leaf"));
    }

    #[test]
    fn join_path_handles_root() {
        assert_eq!(join_path("", "conv1"), "conv1");
        assert_eq!(join_path("layer1", "0"), "layer1.0");
    }
}
