//! Paper-scale serving and ingestion benchmark: the workloads, the load
//! generator, the correctness gate and the per-layer traced run. The
//! `perfbench` binary is the command line over this library.

pub mod gate;
pub mod json;
pub mod layers;
pub mod load;
pub mod run;
pub mod stats;
pub mod stream;
pub mod world;
