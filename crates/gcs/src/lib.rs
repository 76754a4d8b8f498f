//! Group communication system (GCS) substrate.
//!
//! The paper's GCS assumes: reliable view-synchronous delivery, a shared
//! symmetric *group key* agreed upon with a contributory key agreement
//! protocol (GDH [Steiner–Tsudik–Waidner '96]) because MANETs have no
//! trusted key server, and rekeying on every join/leave/eviction to keep
//! forward and backward secrecy. This crate implements those substrates:
//!
//! * [`gdh`] — GDH.2 group Diffie–Hellman over a 61-bit prime field with
//!   per-stage message accounting;
//! * [`gdh3`] — the communication-optimized GDH.3 variant (constant-size
//!   messages, O(n) total elements) with exponent-inverse factoring;
//! * [`membership`] — group views and membership events;
//! * [`vsync`] — a view-synchronous broadcast channel (sender order
//!   preserved, view-atomic delivery);
//! * [`rekey`] — rekey scheduling (immediate or batched) with traffic and
//!   latency accounting.
//!
//! Only the GDH message accounting ([`RekeyCost`], [`Gdh3Cost`]) feeds the
//! model: `gcsids::cost` charges it for every rekey. [`membership`],
//! [`vsync`] and [`rekey`] are executable substrates that no evaluator
//! uses; the model charges rekeys from the cost accounting, not from a
//! scheduler.

/// Node identifier.
pub type NodeId = u32;

pub mod gdh;
pub mod gdh3;
pub mod membership;
pub mod rekey;
pub mod vsync;

pub use gdh::{GdhSession, RekeyCost};
pub use gdh3::{Gdh3Cost, Gdh3Session};
pub use membership::{GroupView, MembershipEvent};
pub use rekey::{RekeyPolicy, RekeyScheduler, RekeyStats};
pub use vsync::ViewSyncChannel;
