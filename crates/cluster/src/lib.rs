//! Multi-GPU scaling simulation — the paper's Figure 17 experiment — and
//! the online batch router the serve workers share.
//!
//! "As long as different GPUs work on independent BFSes, there is no need
//! for inter-GPU communication. Therefore, the key challenge here is
//! achieving workload balance on GPUs ... The longest time consumption of
//! all the GPUs is reported" (§8.3). [`scaling`] partitions BFS groups
//! across simulated devices, runs each device's share through the bitwise
//! engine, and reports the makespan. Imbalance — bottom-up inspection
//! skew — is exactly what limits scaling, so uniform-degree graphs (RD)
//! scale best, as in the paper. [`router`] is the online counterpart: it
//! places serve batches on workers one at a time as they arrive.

pub mod router;
pub mod scaling;

pub use router::{batch_weight, fanout_weight, BatchRouter, LeastLoaded, RoundRobin};
pub use scaling::{run_cluster, ClusterConfig, ClusterRun, DeviceRun};
