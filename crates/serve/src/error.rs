//! Typed errors for the serving layer.
//!
//! Every failure mode a client can hit has its own variant — in
//! particular backpressure ([`Error::QueueFull`]) and per-request shape
//! rejection ([`Error::ShapeMismatch`]) are *values*, never panics, so
//! one bad request can be answered individually while the rest of its
//! coalesced batch proceeds. Multi-tenant callers get the model's name
//! inside [`Error::QueueFull`] so per-model retry/backoff needs no
//! out-of-band bookkeeping.

use std::fmt;

/// Convenience alias used throughout `fx-serve`.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced to serving clients, registry operators, and server
/// builders.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// The model's submission queue is at capacity — backpressure. The
    /// request was **not** enqueued; the client should retry later or
    /// shed load. Carries enough context for a multi-tenant caller to
    /// implement per-model backoff without extra lookups.
    QueueFull {
        /// Name of the model whose queue is full.
        model: String,
        /// Requests sitting in that queue at rejection time.
        depth: usize,
        /// The configured queue depth that was hit.
        capacity: usize,
    },
    /// The server (or this model's entry) has been shut down; no new
    /// requests are accepted.
    Closed,
    /// The request was accepted but the serving threads exited before
    /// answering it (a worker died mid-batch, or shutdown raced the
    /// submission). The request may or may not have executed; it is
    /// safe to retry on an idempotent model. Distinct from
    /// [`Error::Closed`] — which is judged at submission — so clients
    /// can tell "never accepted" from "accepted but abandoned".
    Shutdown,
    /// The request is self-inconsistent (wrong number of input tensors,
    /// mismatched leading dims across inputs, empty batch, ...), judged
    /// before it ever reaches the queue.
    BadRequest(String),
    /// A request's tensor disagrees with the shape the served model was
    /// admitted with. Returned to exactly the offending request; the
    /// other requests coalesced into the same batch still run.
    ShapeMismatch {
        /// Which placeholder (input position) is wrong.
        placeholder: usize,
        /// The trailing (non-batch) dims the server expects there.
        expected: Vec<usize>,
        /// The shape the request actually supplied.
        got: Vec<usize>,
    },
    /// A registry operation named a model that is not registered.
    UnknownModel(String),
    /// `register` was called with a name that is already serving.
    AlreadyRegistered(String),
    /// Registry construction, model registration, or hot swap failed (the
    /// model is not batch-polymorphic, the plan does not compile, a
    /// swap changes the model's input interface, ...).
    Build(String),
    /// The batched execution itself failed; wraps the executor's error.
    /// Delivered to every request in the failed batch.
    Exec(fx_core::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::QueueFull {
                model,
                depth,
                capacity,
            } => write!(
                f,
                "model '{model}': submission queue full ({depth}/{capacity}); retry later"
            ),
            Error::Closed => write!(f, "server is shut down"),
            Error::Shutdown => write!(
                f,
                "request abandoned: serving threads exited before answering"
            ),
            Error::BadRequest(msg) => write!(f, "bad request: {msg}"),
            Error::ShapeMismatch {
                placeholder,
                expected,
                got,
            } => write!(
                f,
                "request shape mismatch at input {placeholder}: expected trailing dims \
                 {expected:?} under a free batch dim, got shape {got:?}"
            ),
            Error::UnknownModel(name) => write!(f, "no model named '{name}' is registered"),
            Error::AlreadyRegistered(name) => {
                write!(f, "a model named '{name}' is already registered")
            }
            Error::Build(msg) => write!(f, "server build failed: {msg}"),
            Error::Exec(e) => write!(f, "batched execution failed: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Exec(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = Error::QueueFull {
            model: "resnet".to_string(),
            depth: 8,
            capacity: 8,
        };
        let msg = e.to_string();
        assert!(msg.contains("resnet"), "{msg}");
        assert!(msg.contains("8/8"), "{msg}");
        let e = Error::ShapeMismatch {
            placeholder: 1,
            expected: vec![3, 32, 32],
            got: vec![1, 3, 16, 16],
        };
        let msg = e.to_string();
        assert!(msg.contains("input 1"));
        assert!(msg.contains("[3, 32, 32]"));
        assert!(msg.contains("[1, 3, 16, 16]"));
        assert!(Error::UnknownModel("x".into()).to_string().contains("'x'"));
        assert!(Error::Shutdown.to_string().contains("abandoned"));
    }
}
