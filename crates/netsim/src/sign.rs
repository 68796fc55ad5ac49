//! Simulated message authentication.
//!
//! BAR Gossip relies on signed messages so that misbehaviour leaves
//! *evidence*: a node can prove to a third party what a peer sent. The
//! report-and-evict defense against the lotus-eater attack (paper §4) needs
//! exactly this — an obedient node that receives excessive service reports
//! it, attaching the signed transfer record as proof.
//!
//! Real deployments would use asymmetric signatures. For a simulation we
//! only need the *interface* properties: (1) a signature binds a payload to
//! a signer, (2) other parties can verify it, (3) a node cannot forge
//! another node's signature *through the APIs the simulator exposes*. We
//! implement this with keyed 64-bit hashes checked by a central
//! [`Authority`] (which stands in for a PKI).
//!
//! **This module is not cryptographically secure** and must never be used
//! outside simulations.

use crate::rng::split_mix64;
use crate::NodeId;

/// A 64-bit digest accumulator (FNV-1a with a strengthening finalizer).
///
/// Payload types implement [`Digestible`] by feeding their fields to this
/// hasher in a fixed order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hasher64 {
    state: u64,
}

impl Default for Hasher64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Hasher64 {
    /// A fresh hasher with the FNV offset basis.
    pub fn new() -> Self {
        Hasher64 {
            state: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Feed one `u64` word.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.state ^= u64::from(byte);
            self.state = self.state.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Feed raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.state ^= u64::from(byte);
            self.state = self.state.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Finish, applying an avalanche finalizer.
    #[inline]
    pub fn finish(self) -> u64 {
        split_mix64(self.state)
    }
}

/// Types that can be deterministically digested for signing.
pub trait Digestible {
    /// Feed the value's canonical encoding to `h`.
    fn digest(&self, h: &mut Hasher64);

    /// Convenience: digest into a single `u64`.
    fn digest_value(&self) -> u64 {
        let mut h = Hasher64::new();
        self.digest(&mut h);
        h.finish()
    }
}

impl Digestible for u64 {
    fn digest(&self, h: &mut Hasher64) {
        h.write_u64(*self);
    }
}

impl Digestible for u32 {
    fn digest(&self, h: &mut Hasher64) {
        h.write_u64(u64::from(*self));
    }
}

impl Digestible for NodeId {
    fn digest(&self, h: &mut Hasher64) {
        h.write_u64(u64::from(self.0));
    }
}

impl Digestible for &str {
    fn digest(&self, h: &mut Hasher64) {
        h.write_u64(self.len() as u64);
        h.write_bytes(self.as_bytes());
    }
}

impl<T: Digestible> Digestible for &[T] {
    fn digest(&self, h: &mut Hasher64) {
        h.write_u64(self.len() as u64);
        for item in self.iter() {
            item.digest(h);
        }
    }
}

impl<T: Digestible> Digestible for Vec<T> {
    fn digest(&self, h: &mut Hasher64) {
        self.as_slice().digest(h);
    }
}

impl<A: Digestible, B: Digestible> Digestible for (A, B) {
    fn digest(&self, h: &mut Hasher64) {
        self.0.digest(h);
        self.1.digest(h);
    }
}

impl<A: Digestible, B: Digestible, C: Digestible> Digestible for (A, B, C) {
    fn digest(&self, h: &mut Hasher64) {
        self.0.digest(h);
        self.1.digest(h);
        self.2.digest(h);
    }
}

/// A simulated signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature(u64);

/// A payload together with the signer's id and signature.
///
/// Constructed via [`Authority::sign`]; checked via [`Authority::verify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signed<T> {
    /// The signed payload.
    pub payload: T,
    /// Claimed signer.
    pub signer: NodeId,
    /// Simulated signature over `(signer, payload)`.
    pub signature: Signature,
}

/// Errors returned by [`Authority::verify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifyError {
    /// The claimed signer is not registered with the authority.
    UnknownSigner(NodeId),
    /// The signature does not match the payload/signer pair.
    BadSignature(NodeId),
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::UnknownSigner(n) => write!(f, "unknown signer {n}"),
            VerifyError::BadSignature(n) => write!(f, "bad signature claimed from {n}"),
        }
    }
}

impl std::error::Error for VerifyError {}

/// A simulated PKI: issues per-node keys and verifies signatures.
///
/// A node's key is a hash of the authority's seed and the node id,
/// derived when used, so an authority holds no per-node state.
///
/// ```
/// use netsim::sign::Authority;
/// use netsim::NodeId;
///
/// let auth = Authority::new(99, 10);
/// let msg = (NodeId(4), 123u64);
/// let signed = auth.sign(NodeId(2), msg);
/// assert!(auth.verify(&signed).is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct Authority {
    /// Master secret every node key derives from.
    seed: u64,
    /// Registered nodes are `0..n`.
    n: u32,
}

impl Authority {
    /// Issue keys for `n` nodes deterministically from `seed`.
    pub fn new(seed: u64, n: u32) -> Self {
        Authority {
            seed: split_mix64(seed ^ 0x5167_4e41_5455_5245), // "SIGNATURE"
            n,
        }
    }

    /// Number of registered nodes.
    pub fn len(&self) -> u32 {
        self.n
    }

    /// `true` if no nodes are registered.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// `node`'s key, or `None` when it is not registered.
    fn key(&self, node: NodeId) -> Option<u64> {
        (node.0 < self.n).then(|| split_mix64(self.seed ^ u64::from(node.0)))
    }

    fn mac<T: Digestible>(&self, key: u64, signer: NodeId, payload: &T) -> Signature {
        let mut h = Hasher64::new();
        h.write_u64(key);
        signer.digest(&mut h);
        payload.digest(&mut h);
        h.write_u64(key.rotate_left(32));
        Signature(h.finish())
    }

    /// Sign `payload` as `signer`.
    ///
    /// # Panics
    ///
    /// Panics if `signer` is not registered.
    pub fn sign<T: Digestible>(&self, signer: NodeId, payload: T) -> Signed<T> {
        let key = self.key(signer).expect("signer is not registered");
        let signature = self.mac(key, signer, &payload);
        Signed {
            payload,
            signer,
            signature,
        }
    }

    /// Verify a signed payload.
    ///
    /// # Errors
    ///
    /// Returns [`VerifyError::UnknownSigner`] for unregistered signers and
    /// [`VerifyError::BadSignature`] if the signature does not match.
    pub fn verify<T: Digestible>(&self, signed: &Signed<T>) -> Result<(), VerifyError> {
        let Some(key) = self.key(signed.signer) else {
            return Err(VerifyError::UnknownSigner(signed.signer));
        };
        if self.mac(key, signed.signer, &signed.payload) == signed.signature {
            Ok(())
        } else {
            Err(VerifyError::BadSignature(signed.signer))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn auth() -> Authority {
        Authority::new(42, 8)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let a = auth();
        let s = a.sign(NodeId(3), 77u64);
        assert_eq!(a.verify(&s), Ok(()));
    }

    #[test]
    fn tampered_payload_rejected() {
        let a = auth();
        let mut s = a.sign(NodeId(3), 77u64);
        s.payload = 78;
        assert_eq!(a.verify(&s), Err(VerifyError::BadSignature(NodeId(3))));
    }

    #[test]
    fn reattributed_signature_rejected() {
        let a = auth();
        let mut s = a.sign(NodeId(3), 77u64);
        s.signer = NodeId(4);
        assert_eq!(a.verify(&s), Err(VerifyError::BadSignature(NodeId(4))));
    }

    #[test]
    fn unknown_signer_rejected() {
        let a = auth();
        let mut s = a.sign(NodeId(3), 1u64);
        s.signer = NodeId(99);
        assert_eq!(a.verify(&s), Err(VerifyError::UnknownSigner(NodeId(99))));
    }

    #[test]
    fn distinct_payloads_distinct_signatures() {
        let a = auth();
        let s1 = a.sign(NodeId(0), 1u64);
        let s2 = a.sign(NodeId(0), 2u64);
        assert_ne!(s1.signature, s2.signature);
    }

    #[test]
    fn authorities_with_same_seed_agree() {
        let a = Authority::new(7, 4);
        let b = Authority::new(7, 4);
        let s = a.sign(NodeId(1), (NodeId(2), 10u64));
        assert_eq!(b.verify(&s), Ok(()));
    }

    #[test]
    fn authorities_with_different_seeds_disagree() {
        let a = Authority::new(7, 4);
        let b = Authority::new(8, 4);
        let s = a.sign(NodeId(1), 10u64);
        assert!(b.verify(&s).is_err());
    }

    #[test]
    fn digest_composite_types() {
        let v1 = (NodeId(1), vec![1u64, 2, 3]).digest_value();
        let v2 = (NodeId(1), vec![1u64, 2, 4]).digest_value();
        let v3 = (NodeId(2), vec![1u64, 2, 3]).digest_value();
        assert_ne!(v1, v2);
        assert_ne!(v1, v3);
    }

    #[test]
    fn digest_str_length_prefixed() {
        // "ab" + "c" must differ from "a" + "bc".
        let x = ("ab", "c").digest_value();
        let y = ("a", "bc").digest_value();
        assert_ne!(x, y);
    }

    #[test]
    fn verify_error_display() {
        let e = VerifyError::UnknownSigner(NodeId(1));
        assert!(format!("{e}").contains("unknown signer"));
        let e = VerifyError::BadSignature(NodeId(1));
        assert!(format!("{e}").contains("bad signature"));
    }
}
