//! GDH.3 contributory group key agreement (Steiner, Tsudik, Waidner,
//! CCS '96) — the communication-optimized member of the GDH family.
//!
//! Where GDH.2's upflow messages grow linearly (O(n²) total field
//! elements), GDH.3 keeps almost every message constant-size at the price
//! of two extra stages:
//!
//! 1. **Upflow** (stages 1 … n−2): member `Mᵢ` forwards the single cardinal
//!    value `g^{x₁⋯xᵢ}` to `Mᵢ₊₁` (one element per message).
//! 2. **Cardinal broadcast**: `Mₙ₋₁` broadcasts `g^{x₁⋯xₙ₋₁}` to all.
//! 3. **Response**: every `Mᵢ` (i < n) "factors out" its exponent and sends
//!    `g^{x₁⋯xₙ₋₁ / xᵢ}` to the controller `Mₙ` (n−1 unicasts, one element
//!    each).
//!
//!    Factoring out requires the exponent inverse modulo the group order;
//!    members therefore draw secrets coprime to `p − 1` and invert with the
//!    extended Euclidean algorithm.
//! 4. **Final broadcast**: `Mₙ` raises each response by `xₙ` and broadcasts
//!    the `n−1` values; `Mᵢ` recovers `K = (g^{x₁⋯xₙ/xᵢ})^{xᵢ}`.
//!
//! Total: `2(n−2) + 2(n−1) + …` ≈ `3n` field elements versus GDH.2's
//! `n²/2` — the ablation benchmark (`gdh_family`) quantifies the break-even
//! group size, and the cost model can be switched between the two (see
//! `gcsids::config::SystemConfig::key_agreement`).

use crate::gdh::{powmod, GENERATOR, PRIME};
use crate::NodeId;
use rand::Rng;

/// Per-rekey accounting for GDH.3 (same shape as
/// [`crate::gdh::RekeyCost`], kept separate because the message structure
/// differs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gdh3Cost {
    /// Unicast messages (upflow + responses).
    pub unicast_messages: u32,
    /// Broadcast messages (cardinal + final).
    pub broadcast_messages: u32,
    /// Total field elements on the wire.
    pub total_elements: u64,
    /// Sequential protocol rounds.
    pub rounds: u32,
    /// Elements carried by broadcasts (needed for hop-vs-flood pricing).
    pub broadcast_elements: u64,
}

impl Gdh3Cost {
    /// Analytic GDH.3 cost for `n` members.
    pub fn for_group_size(n: usize) -> Self {
        if n <= 1 {
            return Self {
                unicast_messages: 0,
                broadcast_messages: 0,
                total_elements: 0,
                rounds: 0,
                broadcast_elements: 0,
            };
        }
        if n == 2 {
            // Degenerates to one upflow element + one final broadcast.
            return Self {
                unicast_messages: 1,
                broadcast_messages: 1,
                total_elements: 2,
                rounds: 2,
                broadcast_elements: 1,
            };
        }
        let n64 = n as u64;
        // upflow: n−2 single-element unicasts; cardinal broadcast: 1 element;
        // responses: n−1 single-element unicasts; final broadcast: n−1.
        let unicast_elements = (n64 - 2) + (n64 - 1);
        let broadcast_elements = 1 + (n64 - 1);
        Self {
            unicast_messages: (n - 2) as u32 + (n - 1) as u32,
            broadcast_messages: 2,
            total_elements: unicast_elements + broadcast_elements,
            rounds: (n - 2) as u32 + 3,
            broadcast_elements,
        }
    }

    /// Total bits on the wire with the given element width.
    pub fn total_bits(&self, element_bits: u64) -> u64 {
        self.total_elements * element_bits
    }
}

/// Extended Euclid: inverse of `a` modulo `m`, if `gcd(a, m) = 1`.
pub fn mod_inverse(a: u64, m: u64) -> Option<u64> {
    let (mut old_r, mut r) = (a as i128, m as i128);
    let (mut old_s, mut s) = (1i128, 0i128);
    while r != 0 {
        let q = old_r / r;
        (old_r, r) = (r, old_r - q * r);
        (old_s, s) = (s, old_s - q * s);
    }
    if old_r != 1 {
        return None;
    }
    let m = m as i128;
    Some(((old_s % m + m) % m) as u64)
}

#[derive(Debug, Clone)]
struct Member {
    id: NodeId,
    secret: u64,
    key: Option<u64>,
}

/// An executable GDH.3 session.
#[derive(Debug, Clone)]
pub struct Gdh3Session {
    members: Vec<Member>,
    cost: Gdh3Cost,
}

impl Gdh3Session {
    /// Create a session; secrets are drawn coprime to `p − 1` so the
    /// response stage can invert them.
    ///
    /// # Panics
    /// Panics on an empty member list.
    pub fn new<R: Rng + ?Sized>(member_ids: &[NodeId], rng: &mut R) -> Self {
        assert!(!member_ids.is_empty(), "GDH.3 needs at least one member");
        let members = member_ids
            .iter()
            .map(|&id| {
                let secret = loop {
                    let candidate = rng.gen_range(2..PRIME - 1);
                    if mod_inverse(candidate, PRIME - 1).is_some() {
                        break candidate;
                    }
                };
                Member {
                    id,
                    secret,
                    key: None,
                }
            })
            .collect();
        Self {
            cost: Gdh3Cost {
                unicast_messages: 0,
                broadcast_messages: 0,
                total_elements: 0,
                rounds: 0,
                broadcast_elements: 0,
            },
            members,
        }
    }

    /// Group size.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Execute the protocol; returns the shared key.
    pub fn run(&mut self) -> u64 {
        let n = self.members.len();
        if n == 1 {
            let k = powmod(GENERATOR, self.members[0].secret, PRIME);
            self.members[0].key = Some(k);
            self.cost = Gdh3Cost::for_group_size(1);
            return k;
        }

        let mut unicast_msgs = 0u32;
        let mut elements = 0u64;

        // Stage 1 — upflow of the cardinal through M1 … M(n−1).
        let mut cardinal = GENERATOR;
        for member in &self.members[..n - 1] {
            cardinal = powmod(cardinal, member.secret, PRIME);
        }
        // n−2 forwarding messages carried one element each (the first
        // member starts from g locally).
        if n > 2 {
            unicast_msgs += (n - 2) as u32;
            elements += (n - 2) as u64;
        }

        // Stage 2 — cardinal broadcast by M(n−1) (skipped when n == 2: M1's
        // upflow message *is* the only transfer needed).
        let mut broadcasts = 0u32;
        let mut broadcast_elements = 0u64;
        if n > 2 {
            broadcasts += 1;
            elements += 1;
            broadcast_elements += 1;
        } else {
            // n == 2: M1 unicasts g^{x1} to M2.
            unicast_msgs += 1;
            elements += 1;
        }

        // Stage 3 — responses: every Mi (i < n) factors out its exponent.
        let responses: Vec<u64> = self.members[..n - 1]
            .iter()
            .map(|m| {
                let inv = mod_inverse(m.secret, PRIME - 1).expect("secrets drawn coprime to p−1");
                powmod(cardinal, inv, PRIME)
            })
            .collect();
        if n > 2 {
            unicast_msgs += (n - 1) as u32;
            elements += (n - 1) as u64;
        }

        // Stage 4 — controller Mn raises responses and broadcasts.
        let xn = self.members[n - 1].secret;
        let key = powmod(cardinal, xn, PRIME);
        let finals: Vec<u64> = responses.iter().map(|&r| powmod(r, xn, PRIME)).collect();
        broadcasts += 1;
        elements += finals.len() as u64;
        broadcast_elements += finals.len() as u64;

        self.members[n - 1].key = Some(key);
        for (i, member) in self.members[..n - 1].iter_mut().enumerate() {
            member.key = Some(powmod(finals[i], member.secret, PRIME));
        }

        self.cost = Gdh3Cost {
            unicast_messages: unicast_msgs,
            broadcast_messages: broadcasts,
            total_elements: elements,
            rounds: if n == 2 { 2 } else { (n - 2) as u32 + 3 },
            broadcast_elements,
        };
        key
    }

    /// The key member `id` derived, if the protocol ran.
    pub fn key_of(&self, id: NodeId) -> Option<u64> {
        self.members.iter().find(|m| m.id == id).and_then(|m| m.key)
    }

    /// Measured communication cost of the last run.
    pub fn measured_cost(&self) -> Gdh3Cost {
        self.cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gdh::mulmod;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mod_inverse_basic() {
        assert_eq!(mod_inverse(3, 7), Some(5)); // 3·5 = 15 ≡ 1 (mod 7)
        assert_eq!(mod_inverse(2, 4), None); // not coprime
                                             // 12345 = 3·5·823 shares factors with p−1 = 2·3²·5²·7·…
        assert_eq!(mod_inverse(12345, PRIME - 1), None);
        // 12347 is prime and not a factor of p−1
        let inv = mod_inverse(12347, PRIME - 1).unwrap();
        assert_eq!(mulmod(12347, inv, PRIME - 1), 1);
    }

    /// `(g^x)^(x⁻¹ mod p−1) = g` (Fermat), the algebraic fact stage 3
    /// relies on.
    #[test]
    fn factor_out_identity_holds() {
        for x in [5u64, 7, 101, 999_983] {
            if let Some(inv) = mod_inverse(x, PRIME - 1) {
                let up = powmod(GENERATOR, x, PRIME);
                assert_eq!(powmod(up, inv, PRIME), GENERATOR, "x = {x}");
            }
        }
    }

    #[test]
    fn all_members_derive_same_key() {
        for n in 1..=12usize {
            let ids: Vec<NodeId> = (0..n as u32).collect();
            let mut rng = StdRng::seed_from_u64(n as u64 + 31);
            let mut s = Gdh3Session::new(&ids, &mut rng);
            let key = s.run();
            for &id in &ids {
                assert_eq!(s.key_of(id), Some(key), "member {id} of size-{n} group");
            }
        }
    }

    #[test]
    fn measured_cost_matches_analytic() {
        for n in 1..=15usize {
            let ids: Vec<NodeId> = (0..n as u32).collect();
            let mut rng = StdRng::seed_from_u64(n as u64);
            let mut s = Gdh3Session::new(&ids, &mut rng);
            s.run();
            assert_eq!(s.measured_cost(), Gdh3Cost::for_group_size(n), "n = {n}");
        }
    }

    #[test]
    fn linear_element_growth() {
        let c10 = Gdh3Cost::for_group_size(10).total_elements as f64;
        let c20 = Gdh3Cost::for_group_size(20).total_elements as f64;
        // linear: doubling n roughly doubles the elements
        let ratio = c20 / c10;
        assert!(ratio > 1.8 && ratio < 2.3, "{ratio}");
    }

    #[test]
    fn cheaper_than_gdh2_beyond_small_groups() {
        use crate::gdh::RekeyCost;
        for n in [6usize, 10, 50, 100] {
            let g2 = RekeyCost::for_group_size(n).total_elements;
            let g3 = Gdh3Cost::for_group_size(n).total_elements;
            assert!(g3 < g2, "n = {n}: GDH.3 {g3} !< GDH.2 {g2}");
        }
    }

    #[test]
    fn key_changes_on_membership_change() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut a = Gdh3Session::new(&[1, 2, 3, 4, 5], &mut rng);
        let k1 = a.run();
        let mut b = Gdh3Session::new(&[1, 2, 3, 4], &mut rng);
        let k2 = b.run();
        assert_ne!(k1, k2);
    }

    #[test]
    fn gdh2_and_gdh3_agree_on_single_member() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut s = Gdh3Session::new(&[9], &mut rng);
        let k = s.run();
        assert_eq!(s.key_of(9), Some(k));
        assert_eq!(s.measured_cost().total_elements, 0);
    }

    #[test]
    #[should_panic]
    fn empty_group_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        Gdh3Session::new(&[], &mut rng);
    }
}
