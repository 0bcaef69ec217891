//! MRNet internal-process machinery (the `mrnet_commnode` layers of
//! paper Figure 3).

mod clock_sync;
mod collect;
pub mod process;
pub mod sched;
pub mod stream_manager;
