//! # formad-runtime
//!
//! The persistent worker pool that runs the parallel regions of
//! `formad-machine`'s native engine (the OpenMP stand-in). The increment
//! disciplines themselves — plain stores, `!$omp atomic` CAS loops and
//! `reduction` privatization — live where programs run: in
//! `formad_machine::exec` and the AOT kernels it loads.

pub mod pool;

pub use pool::ThreadPool;
