//! MRNet internal-process machinery (the `mrnet_commnode` layers of
//! paper Figure 3).

pub mod process;
pub mod sched;
pub mod stream_manager;
