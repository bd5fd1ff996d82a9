//! Wire encodings for proofs and protocol payloads.
//!
//! The paper's prototype marshals proofs through Solidity calldata; here the
//! same information is carried in the simulator's codec so that transaction
//! payload sizes — which drive the `Ctx(X)` Gas term — are realistic.

use grub_chain::codec::{Decoder, Encoder};
use grub_chain::VmError;
use grub_merkle::{ProofKey, ProofNode, RangeProof, ReplState};

/// Encodes a [`ProofKey`].
pub fn encode_proof_key(enc: &mut Encoder, pkey: &ProofKey) {
    enc.boolean(pkey.state == ReplState::Replicated);
    enc.bytes(&pkey.key);
}

/// Decodes a [`ProofKey`].
///
/// # Errors
///
/// [`VmError::Decode`] on truncated payloads.
pub fn decode_proof_key(dec: &mut Decoder<'_>) -> Result<ProofKey, VmError> {
    let replicated = dec.boolean()?;
    let key = dec.bytes()?.to_vec();
    Ok(ProofKey::new(
        if replicated {
            ReplState::Replicated
        } else {
            ReplState::NotReplicated
        },
        key,
    ))
}

const NODE_OPAQUE: u64 = 0;
const NODE_LEAF: u64 = 1;
const NODE_INNER: u64 = 2;

fn encode_proof_node(enc: &mut Encoder, node: &ProofNode) {
    // Pre-order serialization; recursion depth is the (balanced) tree depth.
    match node {
        ProofNode::Opaque(h) => {
            enc.u64(NODE_OPAQUE);
            enc.hash(h);
        }
        ProofNode::Leaf { pkey, vhash, valid } => {
            enc.u64(NODE_LEAF);
            encode_proof_key(enc, pkey);
            enc.hash(vhash);
            enc.boolean(*valid);
        }
        ProofNode::Inner { left, right } => {
            enc.u64(NODE_INNER);
            encode_proof_node(enc, left);
            encode_proof_node(enc, right);
        }
    }
}

fn decode_proof_node(dec: &mut Decoder<'_>, depth: u32) -> Result<ProofNode, VmError> {
    if depth > 256 {
        return Err(VmError::Decode("proof tree too deep".into()));
    }
    match dec.u64()? {
        NODE_OPAQUE => Ok(ProofNode::Opaque(dec.hash()?)),
        NODE_LEAF => {
            let pkey = decode_proof_key(dec)?;
            let vhash = dec.hash()?;
            let valid = dec.boolean()?;
            Ok(ProofNode::Leaf { pkey, vhash, valid })
        }
        NODE_INNER => {
            let left = Box::new(decode_proof_node(dec, depth + 1)?);
            let right = Box::new(decode_proof_node(dec, depth + 1)?);
            Ok(ProofNode::Inner { left, right })
        }
        tag => Err(VmError::Decode(format!("bad proof node tag {tag}"))),
    }
}

/// Encodes a [`RangeProof`].
pub fn encode_range_proof(enc: &mut Encoder, proof: &RangeProof) {
    match &proof.tree {
        None => {
            enc.boolean(false);
        }
        Some(tree) => {
            enc.boolean(true);
            encode_proof_node(enc, tree);
        }
    }
}

/// Bytes [`encode_range_proof`] writes for `proof`, counted without
/// encoding it.
pub fn range_proof_len(proof: &RangeProof) -> usize {
    fn node_len(node: &ProofNode) -> usize {
        match node {
            ProofNode::Opaque(_) => 8 + 32,
            ProofNode::Leaf { pkey, .. } => 8 + 1 + 4 + pkey.key.len() + 32 + 1,
            ProofNode::Inner { left, right } => 8 + node_len(left) + node_len(right),
        }
    }
    1 + proof.tree.as_ref().map_or(0, node_len)
}

/// Decodes a [`RangeProof`].
///
/// # Errors
///
/// [`VmError::Decode`] on truncated or malformed payloads.
pub fn decode_range_proof(dec: &mut Decoder<'_>) -> Result<RangeProof, VmError> {
    if !dec.boolean()? {
        return Ok(RangeProof::empty());
    }
    Ok(RangeProof {
        tree: Some(decode_proof_node(dec, 0)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use grub_merkle::{record_value_hash, MerkleKv};

    fn nr(key: &str) -> ProofKey {
        ProofKey::new(ReplState::NotReplicated, key.as_bytes().to_vec())
    }

    #[test]
    fn proof_key_round_trip() {
        for pkey in [
            nr("alpha"),
            ProofKey::new(ReplState::Replicated, b"b".to_vec()),
        ] {
            let mut enc = Encoder::new();
            encode_proof_key(&mut enc, &pkey);
            let buf = enc.finish();
            let got = decode_proof_key(&mut Decoder::new(&buf)).unwrap();
            assert_eq!(got, pkey);
        }
    }

    #[test]
    fn point_proof_round_trip() {
        // The form every point `deliver` carries: the one-key range [c, c].
        let mut tree = MerkleKv::new();
        for k in ["a", "b", "c", "d", "e"] {
            tree.insert(nr(k), record_value_hash(k.as_bytes()));
        }
        let proof = tree.prove_range(&nr("c"), &nr("c"));
        let mut enc = Encoder::new();
        encode_range_proof(&mut enc, &proof);
        let buf = enc.finish();
        let got = decode_range_proof(&mut Decoder::new(&buf)).unwrap();
        assert_eq!(got, proof);
        assert_eq!(
            got.verify(&tree.root(), &nr("c"), &nr("c")),
            Ok(vec![(nr("c"), record_value_hash(b"c"))])
        );
    }

    #[test]
    fn range_proof_round_trip() {
        let mut tree = MerkleKv::new();
        for k in ["a", "b", "c", "d", "e", "f"] {
            tree.insert(nr(k), record_value_hash(k.as_bytes()));
        }
        let proof = tree.prove_range(&nr("b"), &nr("d"));
        let mut enc = Encoder::new();
        encode_range_proof(&mut enc, &proof);
        let buf = enc.finish();
        let got = decode_range_proof(&mut Decoder::new(&buf)).unwrap();
        assert_eq!(got, proof);
        let records = got.verify(&tree.root(), &nr("b"), &nr("d")).unwrap();
        assert_eq!(records.len(), 3);
    }

    #[test]
    fn empty_range_proof_round_trip() {
        let proof = RangeProof::empty();
        let mut enc = Encoder::new();
        encode_range_proof(&mut enc, &proof);
        let buf = enc.finish();
        assert_eq!(decode_range_proof(&mut Decoder::new(&buf)).unwrap(), proof);
    }

    #[test]
    fn proof_len_counts_the_encoded_bytes() {
        let mut tree = MerkleKv::new();
        for k in ["a", "bb", "ccc", "d", "eeeee", "f"] {
            tree.insert(nr(k), record_value_hash(k.as_bytes()));
        }
        let mut shared = tree.prove_range(&nr("bb"), &nr("bb"));
        shared
            .union_with(tree.prove_range(&nr("eeeee"), &nr("eeeee")))
            .unwrap();
        for proof in [
            RangeProof::empty(),
            tree.prove_range(&nr("ccc"), &nr("ccc")),
            tree.prove_range(&nr("a"), &nr("f")),
            shared,
        ] {
            let mut enc = Encoder::new();
            encode_range_proof(&mut enc, &proof);
            assert_eq!(range_proof_len(&proof), enc.len());
        }
    }

    #[test]
    fn decode_rejects_truncated() {
        let mut tree = MerkleKv::new();
        tree.insert(nr("a"), record_value_hash(b"a"));
        tree.insert(nr("b"), record_value_hash(b"b"));
        let proof = tree.prove_range(&nr("a"), &nr("a"));
        let mut enc = Encoder::new();
        encode_range_proof(&mut enc, &proof);
        let buf = enc.finish();
        assert!(decode_range_proof(&mut Decoder::new(&buf[..buf.len() - 2])).is_err());
    }

    #[test]
    fn decode_rejects_bad_tag() {
        let mut enc = Encoder::new();
        enc.boolean(true);
        enc.u64(99);
        let buf = enc.finish();
        assert!(decode_range_proof(&mut Decoder::new(&buf)).is_err());
    }
}
