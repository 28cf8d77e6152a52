//! # device-pool
//!
//! A deterministic multi-GPU node on top of [`gpu_sim`]: N independent
//! simulated devices — each with its own launcher, launch counter, and a
//! fault plan seeded as a **pure function** of `(pool seed, device id)` —
//! behind a [`DevicePool`] scheduler. The pool offers:
//!
//! * round-robin routing over the healthy subset of devices, skipping
//!   any device marked lost;
//! * per-device work queues with blocking pop and work-stealing
//!   ([`StealQueues`]), including a no-steal drain mode for dead devices.
//!
//! The partitioned solve for systems far beyond one block's shared
//! memory lives one level up, in the `cluster` crate: a pool is a
//! one-node cluster there.
//!
//! ```
//! use device_pool::PoolConfig;
//!
//! let pool = PoolConfig::new(4).build();
//! let first: Vec<_> = (0..4).map(|_| pool.route().unwrap()).collect();
//! assert_eq!(first, vec![0, 1, 2, 3]);
//! pool.mark_lost(1);
//! assert_eq!(pool.healthy(), vec![0, 2, 3]);
//! assert!((0..6).all(|_| pool.route() != Some(1)));
//! ```

#![warn(missing_docs)]

pub mod pool;
pub mod queue;

pub use pool::{DevicePool, PoolConfig, SimDevice};
pub use queue::{Pop, StealQueues};
