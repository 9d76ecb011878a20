//! The repo's one benchmark: eight named workloads, four end-to-end
//! metrics, per-layer attribution measured from outside the product
//! crates. `README.md` in this directory is the guide; `BENCHMARK.json` at
//! the repo root is the contract.

pub mod alloc;
pub mod cli;
pub mod compare;
pub mod inputs;
pub mod json;
pub mod kernels;
pub mod layers;
pub mod probes;
pub mod run;
pub mod spec;
pub mod summary;
pub mod trace;
pub mod workloads;
