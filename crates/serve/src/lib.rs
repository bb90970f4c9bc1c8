//! `feather-serve`: a batched inference serving front-end over the FEATHER
//! functional simulator.
//!
//! The executor crates answer "how fast is one batch"; this crate answers
//! "what happens when many tenants submit single-sample requests
//! concurrently". It provides:
//!
//! - **Weighted-fair admission** — each tenant gets its own bounded queue
//!   ([`ServeConfig::queue_depth`]); submissions beyond a tenant's bound are
//!   rejected with [`ServeError::QueueFull`] without touching anyone else's
//!   capacity. A deficit-round-robin pass over the backlogged tenants
//!   decides which one each batch serves: a tenant earns its weight
//!   ([`Server::set_tenant_weight`], default 1) per batch formed and pays
//!   one per admitted request, so sustained-contention batch shares are
//!   proportional to weights and a flooding tenant cannot starve a light
//!   one.
//! - **Dynamic batching on an executor pool** — a batch-former thread
//!   coalesces concurrent same-model requests (up to
//!   [`ServeConfig::max_batch`], waiting at most
//!   [`ServeConfig::batch_window`]) and hands formed batches to
//!   [`ServeConfig::workers`] executor workers over a bounded ready queue;
//!   different batches replay concurrently. A batch of `N` requests replays
//!   the model's one batch-1 program once across `N` lanes, each lane
//!   bit-identical to a solo run, so neither batching nor the worker that
//!   ran a request is observable in the results.
//! - **Cancellation** — dropping a [`Ticket`] (or calling
//!   [`Ticket::cancel`]) flags the request; the former and the executor
//!   boundary prune flagged or deadline-expired requests into
//!   [`ServeError::Cancelled`]/[`ServeError::Timeout`] before they ever
//!   run.
//! - **Compiled-program replay** — the first batch of a model compiles its
//!   planned batch-1 [`feather::GraphSession`] into a flat
//!   [`feather::Program`] (checking the `FEATHER_CACHE_DIR` artifact cache
//!   first); every later batch, whatever its size, replays that one resident
//!   [`feather::ProgramSession`] with zero planning or per-layer dispatch
//!   work, as one lane-lockstep replay call with request `i` on lane `i`.
//!   [`ProgramCacheStats`] exposes the hit/miss counters, and each worker
//!   reuses a [`feather::ReplayScratch`] per (model, batch size) so
//!   steady-state replay allocates no buffer memory either.
//! - **Per-tenant accounting** — [`ServerStats`]/[`TenantStats`] aggregate
//!   latency plus each request's own exact modeled cycle and DRAM-byte
//!   totals. Counters are sharded per worker and merged on
//!   [`Server::stats`]; `max_concurrent_batches` is the observable proof of
//!   executor overlap.
//! - **Fault tolerance** — workers replay under `catch_unwind` and are
//!   respawned if a batch panics; failed batch members are retried with
//!   exponential backoff up to [`ServeConfig::max_retries`] (retry results
//!   stay bit-identical to first-attempt runs); a per-model
//!   [`CircuitBreaker`] fast-fails requests as [`ServeError::Unavailable`]
//!   while a model keeps failing; and overload brownout shrinks the
//!   effective batch bound and sheds infeasible-deadline requests as
//!   [`ServeError::Overloaded`]. A deterministic, seeded [`FaultPlan`]
//!   (env `FEATHER_FAULT_PLAN`) injects failures and panics at fixed
//!   sites so every one of these paths is testable on demand; with no
//!   plan the injection sites compile down to a null check.
//!
//! There is no async runtime in this workspace (the vendored shims are
//! trait-surface only), so the concurrency is hand-rolled std: a former
//! thread plus worker threads, condvar-backed [`Ticket`]s that both block
//! ([`Ticket::wait`]) and implement [`Future`](std::future::Future), and a
//! park/unpark [`block_on`] executor.
//!
//! # Example
//!
//! ```
//! use feather::FeatherConfig;
//! use feather_arch::graph::Graph;
//! use feather_arch::tensor::Tensor4;
//! use feather_arch::workload::ConvLayer;
//! use feather_serve::{ServeConfig, Server};
//!
//! let mut g = Graph::new("toy", [1, 2, 4, 4]);
//! g.conv(
//!     g.input(),
//!     ConvLayer::new(1, 2, 2, 4, 4, 3, 3).with_padding(1).with_name("only"),
//! )
//! .unwrap();
//! let weights = g.random_weights(1);
//!
//! let server = Server::new(ServeConfig::default());
//! server.register_model("toy", FeatherConfig::new(4, 8), &g, weights).unwrap();
//! let ticket = server
//!     .submit("tenant-a", "toy", Tensor4::random([1, 2, 4, 4], 2))
//!     .unwrap();
//! let response = ticket.wait().unwrap();
//! assert_eq!(response.oacts.shape(), [1, 2, 4, 4]);
//! ```

#![warn(missing_docs)]

pub mod breaker;
pub mod error;
pub mod fault;
pub mod server;
pub mod stats;
mod sync;
pub mod ticket;

pub use breaker::CircuitBreaker;
pub use error::ServeError;
pub use fault::{FaultAction, FaultPlan, FaultSite};
pub use server::{Response, ServeConfig, Server};
pub use stats::{ProgramCacheStats, ServerStats, TenantStats};
pub use ticket::{block_on, Ticket};
