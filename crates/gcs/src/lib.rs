//! Group communication system (GCS) substrate.
//!
//! The paper's GCS assumes: reliable view-synchronous delivery, a shared
//! symmetric *group key* agreed upon with a contributory key agreement
//! protocol (GDH [Steiner–Tsudik–Waidner '96]) because MANETs have no
//! trusted key server, and rekeying on every join/leave/eviction to keep
//! forward and backward secrecy. The model charges only the key
//! agreement's message cost, so this crate implements that:
//!
//! * [`gdh`] — GDH.2 group Diffie–Hellman over a 61-bit prime field with
//!   per-stage message accounting;
//! * [`gdh3`] — the communication-optimized GDH.3 variant (constant-size
//!   messages, O(n) total elements) with exponent-inverse factoring.
//!
//! `gcsids::cost` charges the message accounting ([`RekeyCost`],
//! [`Gdh3Cost`]) for every rekey.

/// Node identifier.
pub type NodeId = u32;

pub mod gdh;
pub mod gdh3;

pub use gdh::{GdhSession, RekeyCost};
pub use gdh3::{Gdh3Cost, Gdh3Session};
