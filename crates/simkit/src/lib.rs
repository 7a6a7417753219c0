//! # simkit — deterministic virtual-time discrete-event simulation
//!
//! The substrate every simulated system in this workspace runs on: a
//! single-threaded async executor driven by a virtual clock
//! ([`executor::Sim`]), plus the primitives discrete-event models need —
//! timers, channels ([`sync`]), queueing resources ([`resource`]), seeded
//! randomness ([`rng`]), metrics ([`stats`]), the handle-keeping byte
//! range simulated disks and registered memory park payloads in
//! ([`segmap`]), and the gather list every SEND and every read carries
//! those handles in ([`gather`]). Per-op maps hash with [`fxhash`], which
//! has no seed.
//!
//! ## Why virtual time
//!
//! The reproduced paper measures a cluster: InfiniBand fabric, local disks,
//! Lustre servers. None of that hardware is available here, so devices and
//! links are *modeled* — an operation's cost is computed from calibrated
//! rates and charged to a virtual clock instead of being waited out in real
//! time. Simulations are therefore fast, deterministic (a run is a pure
//! function of the program and RNG seed), and independent of host load.
//!
//! ## Example
//!
//! ```
//! use simkit::{Sim, time::dur};
//!
//! let sim = Sim::new();
//! let s = sim.clone();
//! let total = sim.block_on(async move {
//!     s.sleep(dur::ms(10)).await;
//!     s.now()
//! });
//! assert_eq!(total.as_nanos(), 10_000_000);
//! ```

#![warn(missing_docs)]

pub mod crc32c;
pub mod executor;
pub mod faultplan;
pub mod flight;
pub mod future;
pub mod fxhash;
pub mod gather;
pub mod optrace;
pub mod resource;
pub mod rng;
pub mod segmap;
pub mod stats;
pub mod telemetry;
pub mod time;

/// Channel and synchronization primitives for simulated processes.
pub mod sync {
    pub mod mpsc;
    pub mod oneshot;
    pub mod semaphore;
}

pub use executor::{JoinHandle, Sim, Sleep};
pub use faultplan::{
    FaultEvent, FaultPlan, MembershipChange, MembershipEvent, NodeEvent, NodeEventKind,
};
pub use gather::Gather;
pub use optrace::OpId;
pub use rng::{SimRng, Zipf};
pub use segmap::SegmentMap;
pub use time::{dur, Time};
