//! # rdmasim — verbs-shaped RDMA over the simulated fabric
//!
//! The paper's key-value store runs on native InfiniBand verbs. No RDMA
//! hardware is available here, so this crate provides the same *API shape*
//! — reliable-connected queue pairs with two-sided SEND/RECV and one-sided
//! RDMA READ/WRITE against registered memory regions — with timing charged
//! to the [`netsim`] fabric and data actually moving between buffers
//! (bounds and rkey checks included, so protocol bugs fail loudly).
//!
//! Semantics kept from real verbs that matter at flow level:
//! * SEND blocks when the peer has no RECV slot (RNR backpressure) — the
//!   receive queue has finite depth;
//! * one-sided READ/WRITE never involve the remote CPU — no mailbox, no
//!   handler, just wire time plus a DMA copy;
//! * memory registration costs time proportional to the region size, which
//!   is why the KV store pre-registers pools instead of registering per
//!   request (see `rkv`).

#![warn(missing_docs)]

pub mod cq;
pub mod frame;
pub mod mr;
pub mod qp;
pub mod stack;

pub use cq::Cq;
pub use frame::Frame;
pub use mr::{Mr, RKey, RemoteBuf};
pub use qp::{Qp, QpConfig};
pub use stack::{RdmaError, RdmaStack};
