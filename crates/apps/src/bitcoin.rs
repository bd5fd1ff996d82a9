//! A Bitcoin block-header chain simulator with SPV proofs (paper §4.2
//! substrate).
//!
//! BtcRelay feeds 80-byte Bitcoin block headers onto Ethereum; pegged tokens
//! verify deposit/redeem transactions against those headers with Simplified
//! Payment Verification (SPV) Merkle proofs. This module builds the closest
//! synthetic equivalent: structurally faithful headers (version, previous
//! hash, transaction Merkle root, time, bits, nonce; double-SHA256 block
//! hash) over synthetic transaction sets, **without proof-of-work grinding**
//! — difficulty is irrelevant to the Gas evaluation, and the feed's DO is
//! trusted to relay real headers (ARCHITECTURE.md, "Where the simulator
//! departs from the paper").

use grub_crypto::{sha256, Hash32, Sha256};

/// A Bitcoin block header (80 bytes serialized).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockHeader {
    /// Protocol version.
    pub version: u32,
    /// Hash of the previous block header.
    pub prev_hash: Hash32,
    /// Root of the transaction Merkle tree.
    pub merkle_root: Hash32,
    /// Unix timestamp.
    pub time: u32,
    /// Compact difficulty target.
    pub bits: u32,
    /// Nonce (not ground — see module docs).
    pub nonce: u32,
}

impl BlockHeader {
    /// Serializes to the canonical 80-byte wire format.
    pub fn to_bytes(&self) -> [u8; 80] {
        let mut out = [0u8; 80];
        out[0..4].copy_from_slice(&self.version.to_le_bytes());
        out[4..36].copy_from_slice(self.prev_hash.as_bytes());
        out[36..68].copy_from_slice(self.merkle_root.as_bytes());
        out[68..72].copy_from_slice(&self.time.to_le_bytes());
        out[72..76].copy_from_slice(&self.bits.to_le_bytes());
        out[76..80].copy_from_slice(&self.nonce.to_le_bytes());
        out
    }

    /// Parses the 80-byte wire format.
    pub fn from_bytes(bytes: &[u8]) -> Option<BlockHeader> {
        if bytes.len() != 80 {
            return None;
        }
        let mut prev = [0u8; 32];
        prev.copy_from_slice(&bytes[4..36]);
        let mut root = [0u8; 32];
        root.copy_from_slice(&bytes[36..68]);
        Some(BlockHeader {
            version: u32::from_le_bytes(bytes[0..4].try_into().ok()?),
            prev_hash: Hash32::new(prev),
            merkle_root: Hash32::new(root),
            time: u32::from_le_bytes(bytes[68..72].try_into().ok()?),
            bits: u32::from_le_bytes(bytes[72..76].try_into().ok()?),
            nonce: u32::from_le_bytes(bytes[76..80].try_into().ok()?),
        })
    }

    /// The block hash: `SHA256(SHA256(header))`, Bitcoin's double hash.
    pub fn block_hash(&self) -> Hash32 {
        sha256d(&self.to_bytes())
    }
}

/// Bitcoin's double-SHA256.
pub fn sha256d(data: &[u8]) -> Hash32 {
    sha256(sha256(data).as_bytes())
}

/// A Merkle inclusion proof for a transaction (SPV proof).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpvProof {
    /// Sibling hashes from the txid up to the root.
    pub siblings: Vec<Hash32>,
    /// For each level, whether the sibling is on the left.
    pub lefts: Vec<bool>,
}

impl SpvProof {
    /// Recomputes the Merkle root implied by `txid` and this path.
    pub fn root_for(&self, txid: &Hash32) -> Hash32 {
        let mut acc = *txid;
        for (sibling, left) in self.siblings.iter().zip(&self.lefts) {
            let mut h = Sha256::new();
            if *left {
                h.update(sibling.as_bytes());
                h.update(acc.as_bytes());
            } else {
                h.update(acc.as_bytes());
                h.update(sibling.as_bytes());
            }
            acc = sha256(h.finalize().as_bytes()); // double hash per level
        }
        acc
    }

    /// Checks the proof against a header's Merkle root.
    pub fn verify(&self, txid: &Hash32, header: &BlockHeader) -> bool {
        self.root_for(txid) == header.merkle_root
    }
}

/// Builds the Bitcoin-style transaction Merkle tree (odd nodes pair with
/// themselves) and returns `(root, proofs[i] for each txid)`.
pub fn merkle_tree(txids: &[Hash32]) -> (Hash32, Vec<SpvProof>) {
    assert!(!txids.is_empty(), "a block has at least a coinbase tx");
    let mut proofs: Vec<SpvProof> = txids
        .iter()
        .map(|_| SpvProof {
            siblings: Vec::new(),
            lefts: Vec::new(),
        })
        .collect();
    // positions[i] = index of txid i's running hash in the current level.
    let mut level: Vec<Hash32> = txids.to_vec();
    let mut positions: Vec<usize> = (0..txids.len()).collect();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            let (l, r) = (pair[0], *pair.get(1).unwrap_or(&pair[0]));
            let mut h = Sha256::new();
            h.update(l.as_bytes());
            h.update(r.as_bytes());
            next.push(sha256(h.finalize().as_bytes()));
        }
        for (i, proof) in proofs.iter_mut().enumerate() {
            let pos = positions[i];
            let sibling_pos = pos ^ 1;
            let sibling = *level.get(sibling_pos).unwrap_or(&level[pos]);
            proof.siblings.push(sibling);
            proof.lefts.push(pos % 2 == 1);
        }
        for pos in positions.iter_mut() {
            *pos /= 2;
        }
        level = next;
    }
    (level[0], proofs)
}

/// A deterministic synthetic Bitcoin chain.
#[derive(Debug)]
pub struct BitcoinSim {
    headers: Vec<BlockHeader>,
    /// txids per block, so deposits can be proven later.
    txids: Vec<Vec<Hash32>>,
    proofs: Vec<Vec<SpvProof>>,
    seed: u64,
}

impl BitcoinSim {
    /// Creates a chain with only parameters (no blocks yet).
    pub fn new(seed: u64) -> Self {
        BitcoinSim {
            headers: Vec::new(),
            txids: Vec::new(),
            proofs: Vec::new(),
            seed,
        }
    }

    /// Mines the next block containing `tx_count` synthetic transactions,
    /// returning its height.
    pub fn mine_block(&mut self, tx_count: usize) -> usize {
        let height = self.headers.len();
        let txids: Vec<Hash32> = (0..tx_count.max(1))
            .map(|i| {
                let mut h = Sha256::new();
                h.update(b"btc-tx");
                h.update(&self.seed.to_le_bytes());
                h.update(&(height as u64).to_le_bytes());
                h.update(&(i as u64).to_le_bytes());
                sha256d(h.finalize().as_bytes())
            })
            .collect();
        let (root, proofs) = merkle_tree(&txids);
        let prev_hash = self
            .headers
            .last()
            .map(|h| h.block_hash())
            .unwrap_or(Hash32::ZERO);
        self.headers.push(BlockHeader {
            version: 0x2000_0000,
            prev_hash,
            merkle_root: root,
            time: 1_300_000_000 + height as u32 * 600,
            bits: 0x1d00_ffff,
            nonce: height as u32,
        });
        self.txids.push(txids);
        self.proofs.push(proofs);
        height
    }

    /// Header at `height`.
    pub fn header(&self, height: usize) -> Option<&BlockHeader> {
        self.headers.get(height)
    }

    /// Chain tip height (`None` when empty).
    pub fn tip(&self) -> Option<usize> {
        self.headers.len().checked_sub(1)
    }

    /// A `(txid, proof)` pair for transaction `tx` of block `height`.
    pub fn spv_proof(&self, height: usize, tx: usize) -> Option<(Hash32, SpvProof)> {
        Some((
            *self.txids.get(height)?.get(tx)?,
            self.proofs.get(height)?.get(tx)?.clone(),
        ))
    }

    /// Validates the hash chaining of the whole header sequence.
    pub fn validate_links(&self) -> bool {
        self.headers
            .windows(2)
            .all(|w| w[1].prev_hash == w[0].block_hash())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips_through_wire_format() {
        let mut sim = BitcoinSim::new(7);
        sim.mine_block(3);
        let header = sim.header(0).unwrap().clone();
        let parsed = BlockHeader::from_bytes(&header.to_bytes()).unwrap();
        assert_eq!(parsed, header);
        assert_eq!(parsed.block_hash(), header.block_hash());
        assert!(BlockHeader::from_bytes(&[0u8; 79]).is_none());
    }

    #[test]
    fn chain_links_are_valid() {
        let mut sim = BitcoinSim::new(1);
        for i in 0..20 {
            sim.mine_block(1 + i % 5);
        }
        assert!(sim.validate_links());
        assert_eq!(sim.tip(), Some(19));
    }

    #[test]
    fn spv_proof_verifies_against_header() {
        let mut sim = BitcoinSim::new(3);
        sim.mine_block(7);
        for tx in 0..7 {
            let (txid, proof) = sim.spv_proof(0, tx).unwrap();
            assert!(
                proof.verify(&txid, sim.header(0).unwrap()),
                "tx {tx} proof fails"
            );
        }
    }

    #[test]
    fn spv_proof_rejects_wrong_tx_or_block() {
        let mut sim = BitcoinSim::new(4);
        sim.mine_block(4);
        sim.mine_block(4);
        let (txid, proof) = sim.spv_proof(0, 1).unwrap();
        assert!(!proof.verify(&sha256d(b"fake"), sim.header(0).unwrap()));
        assert!(!proof.verify(&txid, sim.header(1).unwrap()));
    }

    #[test]
    fn single_tx_block_has_empty_proof() {
        let mut sim = BitcoinSim::new(5);
        sim.mine_block(1);
        let (txid, proof) = sim.spv_proof(0, 0).unwrap();
        assert!(proof.siblings.is_empty());
        assert_eq!(proof.root_for(&txid), sim.header(0).unwrap().merkle_root);
    }

    #[test]
    fn odd_tx_counts_pair_with_self() {
        let mut sim = BitcoinSim::new(6);
        sim.mine_block(5);
        for tx in 0..5 {
            let (txid, proof) = sim.spv_proof(0, tx).unwrap();
            assert!(proof.verify(&txid, sim.header(0).unwrap()));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = BitcoinSim::new(9);
        let mut b = BitcoinSim::new(9);
        a.mine_block(3);
        b.mine_block(3);
        assert_eq!(a.header(0), b.header(0));
        let mut c = BitcoinSim::new(10);
        c.mine_block(3);
        assert_ne!(a.header(0), c.header(0));
    }
}
