//! `v2v-fault` — crash-safety primitives for the V2V pipeline.
//!
//! Two halves, deliberately in one bottom-of-the-workspace crate so every
//! other crate (including `v2v-obs`) can use them without dependency
//! cycles:
//!
//! * [`io`] — durable atomic file writes: `write_atomic` stages content in
//!   a temp file in the target directory, fsyncs it, and renames it over
//!   the destination, so a crash at any instant leaves either the old file
//!   or the new file, never a torn mix. Every artifact the pipeline
//!   produces (embeddings, checkpoints, walk corpora, telemetry exports)
//!   goes through it.
//! * [`inject`] — a deterministic fault-injection registry for tests:
//!   named fault points (`"atomic.write"`, `"atomic.rename"`, …) can be
//!   armed with plans (fail the Nth hit, truncate a write, delay) so
//!   integration tests can prove the crash-safety claims above instead of
//!   asserting them. A plan is scoped to the test that armed it.
//!   Compiled to a zero-cost stub unless the `inject` feature is on
//!   (test builds enable it via dev-dependencies).
//!
//! ```
//! let dir = std::env::temp_dir().join(format!("v2v_fault_doc_{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("artifact.txt");
//! v2v_fault::io::write_atomic(&path, b"v1").unwrap();
//! v2v_fault::io::write_atomic(&path, b"v2").unwrap();
//! assert_eq!(std::fs::read(&path).unwrap(), b"v2");
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

pub mod inject;
pub mod io;

pub use inject::{arm, inherit, Armed, Fault, FaultPlan};
pub use io::{write_atomic, write_atomic_with};
