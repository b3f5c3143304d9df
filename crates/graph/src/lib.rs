//! Graph substrate for the iBFS reproduction.
//!
//! This crate provides everything the paper assumes as given about graphs:
//!
//! * [`Csr`] — Compressed Sparse Row storage, the exact format the paper uses
//!   ("All these graphs are stored in the Compressed Sparse Row (CSR)
//!   format"), including reverse edges to support bottom-up traversal.
//! * [`EdgeList`] and [`CsrBuilder`] — construction from raw edges.
//! * [`generators`] — Graph500 Kronecker / R-MAT, uniform-degree random
//!   (the paper's RD graph), and power-law Chung–Lu generators used to
//!   synthesize stand-ins for the paper's proprietary crawls.
//! * [`suite`] — the paper's 13-graph benchmark suite (FB, FR, HW, KG0, KG1,
//!   KG2, LJ, OR, PK, RD, RM, TW, WK) at laptop scale.
//! * [`io`] — compact binary serialization of CSR graphs.
//! * [`validate`] — reference BFS and traversal-result validation used by the
//!   test suites of every engine crate.

pub mod builder;
pub mod components;
pub mod csr;
pub mod degree;
pub mod dimacs;
pub mod edgelist;
pub mod generators;
pub mod io;
pub mod partition;
pub mod suite;
pub mod validate;
pub mod weighted;

pub use builder::CsrBuilder;
pub use csr::Csr;
pub use edgelist::EdgeList;

/// Vertex identifier. The paper evaluates graphs up to 16.7M vertices; `u32`
/// covers that with half the memory traffic of `u64`, which matters for the
/// simulated-transaction counts.
pub type VertexId = u32;

/// Depth of a vertex in a BFS tree. `DEPTH_UNVISITED` marks unvisited.
pub type Depth = u8;

/// Sentinel depth for vertices not reached by a traversal.
pub const DEPTH_UNVISITED: Depth = Depth::MAX;
