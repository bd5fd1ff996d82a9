//! The on-chain storage-manager smart contract (paper Listing 2).
//!
//! Functions:
//!
//! * `update(digest, rUpdates, toR, toNR)` — DO-only epoch update: stores
//!   the new root digest, overwrites replicated records that changed,
//!   inserts replicas for NR→R transitions and evicts them for R→NR;
//! * `gGet(key, callback)` — internal call from a DU contract: serves the
//!   record from the on-chain replica when present, otherwise emits a
//!   `Request` event for the SP's watchdog;
//! * `gScan(startKey, endKey, callback)` — range variant: emits a
//!   `RequestRange` event;
//! * `deliver(query₁ · proof · callbacks₁ · (queryᵢ · callbacksᵢ)*)` —
//!   called by the SP: verifies one range proof against the stored root
//!   digest for every query (charging `Chash` once per recomputed node),
//!   checks each query's delivered records against it, then installs each
//!   query's replica and invokes its callbacks with the authenticated
//!   records, in payload order.
//!
//! A query is `(startKey, endKey, replicate, records)`. The one-query
//! payload is the paper's `deliver(startKey, endKey, records, proof,
//! callbacks)`, byte for byte ([`encode_deliver`]). Further queries follow
//! it in strictly increasing `(startKey, endKey)` order and share its proof:
//! [`coalesce_delivers`] merges one SP's per-request payloads that way, so a
//! round's delivers for one feed send the tree levels their keys share once.
//! Every count in a payload is bounded by the bytes that remain, so a forged
//! count is a [`VmError::Decode`], never an allocation.
//!
//! The callback dispatch mirrors the paper's Listing 2, including its
//! stateless-callback design: the contract does not persist pending request
//! IDs (that would cost storage writes), so the SP echoes the callback
//! reference from the `Request` event. Consequently the SP can only invoke
//! callbacks with *verified* data, but could replay them; applications that
//! care sequence their reads (as the paper's DUs do).
//!
//! The optional on-chain-trace mode implements the paper's BL3 baselines
//! (Figure 7): the monitoring counters that GRuB keeps off-chain are instead
//! maintained in contract storage, charging an extra storage read + write
//! per monitored operation.

use grub_chain::codec::{Decoder, Encoder};
use grub_chain::{Address, CallContext, Contract, VmError};
use grub_crypto::Hash32;
use grub_gas::{words_for_bytes, CostKind};
use grub_merkle::{record_value_hash, ProofKey, RangeProof, ReplState};

use crate::wire;

/// Byte budget for one feed transaction's payload, kept under the `Ctx`
/// 1000-word bound with headroom for framing. It bounds every payload the
/// feed side builds: an epoch's `update()` chunks, a coalesced `deliver()`
/// group ([`coalesce_delivers`]) and a shard router's batch of sections.
pub const MAX_TX_PAYLOAD_BYTES: usize = 24_000;

/// Storage slot for the root digest.
const SLOT_ROOT: &[u8] = b"root";

/// Least encoded bytes of one `(key, value)` pair: two length prefixes.
const RECORD_MIN_BYTES: usize = 8;

/// Least encoded bytes of one callback: an address and a length prefix.
const CALLBACK_MIN_BYTES: usize = 24;

/// Eviction marker left in a replica slot instead of deleting it. Keeping
/// the slot warm means a later re-replication pays `Cupdate` rather than
/// `Cinsert` — the paper's "reusable storage upon replicating a record"
/// (§4.2), and the reason Equation 1 is stated in terms of `Cupdate`.
pub const EVICTED_MARKER: &[u8] = b"\xffGRUB_EVICTED";

/// Where the monitoring trace is kept — [`OnChainTrace::None`] is GRuB's
/// design (off-chain monitor); the other two are the BL3 baselines of
/// Figure 7 that pay Gas to keep counters on-chain.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OnChainTrace {
    /// GRuB: monitoring happens off-chain, no extra Gas.
    #[default]
    None,
    /// Baseline: the read trace is counted in contract storage.
    Reads,
    /// Baseline: both reads and writes are counted in contract storage.
    ReadsAndWrites,
}

/// The storage-manager contract.
#[derive(Debug)]
pub struct StorageManager {
    data_owner: Address,
    update_delegate: Option<Address>,
    trace_mode: OnChainTrace,
}

impl StorageManager {
    /// Deploy-time configuration: the trusted DO account and the trace mode.
    pub fn new(data_owner: Address, trace_mode: OnChainTrace) -> Self {
        StorageManager {
            data_owner,
            update_delegate: None,
            trace_mode,
        }
    }

    /// Like [`StorageManager::new`] with a second account/contract trusted
    /// to call `update()` — the multi-tenant engine's shard router, which
    /// forwards many feeds' epoch updates out of one batched transaction.
    /// The DO stays authorized (it still sends preload updates directly).
    pub fn with_delegate(
        data_owner: Address,
        update_delegate: Address,
        trace_mode: OnChainTrace,
    ) -> Self {
        StorageManager {
            data_owner,
            update_delegate: Some(update_delegate),
            trace_mode,
        }
    }

    fn replica_slot(key: &[u8]) -> Vec<u8> {
        let mut slot = Vec::with_capacity(3 + key.len());
        slot.extend_from_slice(b"kv:");
        slot.extend_from_slice(key);
        slot
    }

    fn counter_slot(key: &[u8]) -> Vec<u8> {
        let mut slot = Vec::with_capacity(4 + key.len());
        slot.extend_from_slice(b"cnt:");
        slot.extend_from_slice(key);
        slot
    }

    fn bump_counter(&self, ctx: &mut CallContext<'_>, key: &[u8]) {
        let slot = Self::counter_slot(key);
        let n = ctx.sload_u64(&slot).unwrap_or(0);
        ctx.sstore_u64(&slot, n + 1);
    }

    /// `update()` — the DO's epoch transaction (write path, §3.3).
    fn update(&self, ctx: &mut CallContext<'_>, input: &[u8]) -> Result<Vec<u8>, VmError> {
        if ctx.caller != self.data_owner && Some(ctx.caller) != self.update_delegate {
            return Err(VmError::Unauthorized);
        }
        let mut dec = Decoder::new(input);
        let digest = dec.hash()?;
        ctx.sstore(SLOT_ROOT, digest.as_bytes());
        // Updates to records that are already replicated.
        let n_updates = dec.count(RECORD_MIN_BYTES)?;
        for _ in 0..n_updates {
            let key = dec.bytes()?.to_vec();
            let value = dec.bytes()?.to_vec();
            ctx.sstore(&Self::replica_slot(&key), &value);
            if self.trace_mode == OnChainTrace::ReadsAndWrites {
                self.bump_counter(ctx, &key);
            }
        }
        // NR→R transitions: insert fresh replicas.
        let n_to_r = dec.count(RECORD_MIN_BYTES)?;
        for _ in 0..n_to_r {
            let key = dec.bytes()?.to_vec();
            let value = dec.bytes()?.to_vec();
            ctx.sstore(&Self::replica_slot(&key), &value);
        }
        // R→NR transitions: evict replicas, leaving the slot warm for reuse.
        let n_to_nr = dec.count(4)?;
        for _ in 0..n_to_nr {
            let key = dec.bytes()?.to_vec();
            ctx.sstore(&Self::replica_slot(&key), EVICTED_MARKER);
        }
        if !dec.is_empty() {
            return Err(VmError::Decode(format!(
                "{} trailing bytes after the update",
                dec.remaining()
            )));
        }
        Ok(Vec::new())
    }

    /// `gGet()` — internal call from a DU (read path, §3.3).
    fn g_get(&self, ctx: &mut CallContext<'_>, input: &[u8]) -> Result<Vec<u8>, VmError> {
        let mut dec = Decoder::new(input);
        let key = dec.bytes()?.to_vec();
        let cb_addr = dec.address()?;
        let cb_func = dec.string()?;
        if self.trace_mode != OnChainTrace::None {
            self.bump_counter(ctx, &key);
        }
        match ctx.sload(&Self::replica_slot(&key)) {
            Some(value) if value != EVICTED_MARKER => {
                // Replica hit: synchronous callback with the single record.
                let mut enc = Encoder::new();
                enc.bytes(&key).u64(1).bytes(&key).bytes(&value);
                ctx.call(cb_addr, &cb_func, &enc.finish())?;
                let mut out = Encoder::new();
                out.boolean(true);
                Ok(out.finish())
            }
            _ => {
                // Miss (or an evicted, slot-reuse marker): buffer the
                // request in the event log for the SP.
                let mut enc = Encoder::new();
                enc.bytes(&key).address(&cb_addr).string(&cb_func);
                ctx.emit("Request", enc.finish());
                let mut out = Encoder::new();
                out.boolean(false);
                Ok(out.finish())
            }
        }
    }

    /// `gScan()` — internal range query from a DU.
    fn g_scan(&self, ctx: &mut CallContext<'_>, input: &[u8]) -> Result<Vec<u8>, VmError> {
        let mut dec = Decoder::new(input);
        let start = dec.bytes()?.to_vec();
        let end = dec.bytes()?.to_vec();
        let cb_addr = dec.address()?;
        let cb_func = dec.string()?;
        if self.trace_mode != OnChainTrace::None {
            self.bump_counter(ctx, &start);
        }
        let mut enc = Encoder::new();
        enc.bytes(&start)
            .bytes(&end)
            .address(&cb_addr)
            .string(&cb_func);
        ctx.emit("RequestRange", enc.finish());
        Ok(Vec::new())
    }

    /// `deliver()` — the SP's proof-carrying response (read path, §3.3).
    fn deliver(&self, ctx: &mut CallContext<'_>, input: &[u8]) -> Result<Vec<u8>, VmError> {
        let DeliverPayload { queries, proof } = DeliverPayload::decode(input)?;

        // Load the trusted digest.
        let root_bytes = ctx
            .sload(SLOT_ROOT)
            .ok_or_else(|| VmError::Revert("no root digest on chain".into()))?;
        let root = Decoder::new(&root_bytes).hash()?;

        // Charge Chash once for every node the verifier recomputes (leaf and
        // inner preimages are ~3 words), then verify every query against
        // the one proof.
        let per_node = ctx.meter_schedule().hash_cost(3);
        ctx.charge(CostKind::Hash, per_node * proof.hash_count() as u64);
        let bounds: Vec<(ProofKey, ProofKey)> = queries
            .iter()
            .map(|q| {
                (
                    ProofKey::new(ReplState::NotReplicated, q.start.clone()),
                    ProofKey::new(ReplState::NotReplicated, q.end.clone()),
                )
            })
            .collect();
        let bounds: Vec<(&ProofKey, &ProofKey)> = bounds.iter().map(|(lo, hi)| (lo, hi)).collect();
        let verified = proof
            .verify_queries(&root, &bounds)
            .map_err(|e| VmError::Revert(format!("proof rejected: {e}")))?;

        // Each query's plaintext records must match its verified hashes,
        // one-to-one and in order.
        for (query, verified) in queries.iter().zip(&verified) {
            if verified.len() != query.records.len() {
                return Err(VmError::Revert(format!(
                    "record count mismatch: proof has {}, delivery has {}",
                    verified.len(),
                    query.records.len()
                )));
            }
            for ((pkey, vhash), (key, value)) in verified.iter().zip(&query.records) {
                if pkey.key != *key {
                    return Err(VmError::Revert("delivered key not in proof".into()));
                }
                // Hashing the delivered value on-chain costs Chash.
                let cost = ctx
                    .meter_schedule()
                    .hash_cost(words_for_bytes(value.len()).max(1));
                ctx.charge(CostKind::Hash, cost);
                if record_value_hash(value) != *vhash {
                    return Err(VmError::Revert(
                        "delivered value does not match proof".into(),
                    ));
                }
            }
        }

        for DeliverQuery {
            start,
            replicate,
            records,
            callbacks,
            ..
        } in &queries
        {
            // The paper's Listing 2 `replicate` flag: the control plane
            // decided this record should live on chain, so the delivery
            // installs the replica to serve the rest of the read burst. The
            // value is already authenticated; the DO formalizes or evicts
            // the replica in its next epoch update.
            if *replicate {
                if let [(key, value)] = records.as_slice() {
                    ctx.sstore(&Self::replica_slot(key), value);
                }
            }
            // Dispatch callbacks with the authenticated record set.
            for (addr, func) in callbacks {
                let mut enc = Encoder::new();
                enc.bytes(start).u64(records.len() as u64);
                for (key, value) in records {
                    enc.bytes(key).bytes(value);
                }
                ctx.call(*addr, func, &enc.finish())?;
            }
        }
        let delivered: usize = queries.iter().map(|q| q.records.len()).sum();
        let mut out = Encoder::new();
        out.u64(delivered as u64);
        Ok(out.finish())
    }

    /// `root()` — view returning the stored digest (unmetered via
    /// `static_call` in tests).
    fn root(&self, ctx: &mut CallContext<'_>) -> Result<Vec<u8>, VmError> {
        let root = ctx.sload(SLOT_ROOT).unwrap_or_default();
        Ok(root)
    }
}

impl Contract for StorageManager {
    fn call(
        &self,
        ctx: &mut CallContext<'_>,
        func: &str,
        input: &[u8],
    ) -> Result<Vec<u8>, VmError> {
        match func {
            "update" => self.update(ctx, input),
            "gGet" => self.g_get(ctx, input),
            "gScan" => self.g_scan(ctx, input),
            "deliver" => self.deliver(ctx, input),
            "root" => self.root(ctx),
            _ => Err(VmError::UnknownFunction(func.to_owned())),
        }
    }
}

/// Encodes the input of one `update(digest, rUpdates, toR, toNR)`
/// transaction, however large, for callers that size their own updates.
///
/// The feed's own updates are this payload cut into chunks by one rule,
/// which the DO applies to its epochs and its replicated preload alike: a
/// `rUpdates` or `toR` pair counts `key + value + 16` bytes and a `toNR` key
/// `key + 8`, and a new chunk starts when the count would pass
/// [`MAX_TX_PAYLOAD_BYTES`] and the current one is not empty. Every chunk
/// carries the final digest.
pub fn encode_update(
    digest: &Hash32,
    r_updates: &[(Vec<u8>, Vec<u8>)],
    to_r: &[(Vec<u8>, Vec<u8>)],
    to_nr: &[Vec<u8>],
) -> Vec<u8> {
    fn pairs(records: &[(Vec<u8>, Vec<u8>)]) -> impl Iterator<Item = (&[u8], &[u8])> {
        records
            .iter()
            .map(|(key, value)| (key.as_slice(), value.as_slice()))
    }
    encode_update_chunk(
        digest,
        [r_updates.len(), to_r.len(), to_nr.len()],
        pairs(r_updates),
        pairs(to_r),
        to_nr.iter().map(Vec::as_slice),
    )
}

/// Encodes an `update(digest, rUpdates, toR, toNR)` (Listing 2), its
/// sections borrowed in Listing 2 order, in the chunks [`encode_update`]'s
/// budget rule cuts — the one writer of the feed's `update()` bytes. The
/// rule overstates the framing (length prefixes are 4 bytes), but sizing
/// exactly would move the chunk boundaries and with them the Gas of
/// large-record runs. The contract overwrites the root slot idempotently,
/// so every chunk carries the digest; empty sections are one digest-only
/// chunk.
pub(crate) fn encode_update_chunks<'a>(
    digest: &Hash32,
    r_updates: impl Iterator<Item = (&'a [u8], &'a [u8])> + Clone,
    to_r: impl Iterator<Item = (&'a [u8], &'a [u8])> + Clone,
    to_nr: impl Iterator<Item = &'a [u8]> + Clone,
) -> Vec<Vec<u8>> {
    let pair_bytes = |(key, value): (&[u8], &[u8])| key.len() + value.len() + 16;
    let sizes = r_updates
        .clone()
        .map(pair_bytes)
        .map(|n| (0, n))
        .chain(to_r.clone().map(pair_bytes).map(|n| (1, n)))
        .chain(to_nr.clone().map(|key| (2, key.len() + 8)));
    let (mut r_updates, mut to_r, mut to_nr) = (r_updates, to_r, to_nr);
    let mut chunks = Vec::new();
    let mut counts = [0usize; 3];
    let mut bytes = 0;
    for (section, size) in sizes {
        if bytes + size > MAX_TX_PAYLOAD_BYTES && bytes > 0 {
            chunks.push(encode_update_chunk(
                digest,
                std::mem::take(&mut counts),
                r_updates.by_ref(),
                to_r.by_ref(),
                to_nr.by_ref(),
            ));
            bytes = 0;
        }
        bytes += size;
        counts[section] += 1;
    }
    chunks.push(encode_update_chunk(digest, counts, r_updates, to_r, to_nr));
    chunks
}

/// One `update()` payload: the digest, then the next `counts[i]` items of
/// each section, each section behind its count.
fn encode_update_chunk<'a>(
    digest: &Hash32,
    [n_r_updates, n_to_r, n_to_nr]: [usize; 3],
    r_updates: impl Iterator<Item = (&'a [u8], &'a [u8])>,
    to_r: impl Iterator<Item = (&'a [u8], &'a [u8])>,
    to_nr: impl Iterator<Item = &'a [u8]>,
) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.hash(digest).u64(n_r_updates as u64);
    for (key, value) in r_updates.take(n_r_updates) {
        enc.bytes(key).bytes(value);
    }
    enc.u64(n_to_r as u64);
    for (key, value) in to_r.take(n_to_r) {
        enc.bytes(key).bytes(value);
    }
    enc.u64(n_to_nr as u64);
    for key in to_nr.take(n_to_nr) {
        enc.bytes(key);
    }
    enc.finish()
}

/// Encodes the input of a `gGet()` internal call.
pub fn encode_gget(key: &[u8], cb_addr: Address, cb_func: &str) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.bytes(key).address(&cb_addr).string(cb_func);
    enc.finish()
}

/// Encodes the input of a `gScan()` internal call.
pub fn encode_gscan(start: &[u8], end: &[u8], cb_addr: Address, cb_func: &str) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.bytes(start)
        .bytes(end)
        .address(&cb_addr)
        .string(cb_func);
    enc.finish()
}

/// Encodes the input of a one-query `deliver()` transaction — the form the
/// SP's watchdog builds per request.
pub fn encode_deliver(
    start: &[u8],
    end: &[u8],
    replicate: bool,
    records: &[(Vec<u8>, Vec<u8>)],
    proof: &RangeProof,
    callbacks: &[(Address, String)],
) -> Vec<u8> {
    let mut enc = Encoder::new();
    encode_query(&mut enc, start, end, replicate, records);
    wire::encode_range_proof(&mut enc, proof);
    encode_callbacks(&mut enc, callbacks);
    enc.finish()
}

fn encode_query(
    enc: &mut Encoder,
    start: &[u8],
    end: &[u8],
    replicate: bool,
    records: &[(Vec<u8>, Vec<u8>)],
) {
    enc.bytes(start).bytes(end).boolean(replicate);
    enc.u64(records.len() as u64);
    for (k, v) in records {
        enc.bytes(k).bytes(v);
    }
}

fn encode_callbacks(enc: &mut Encoder, callbacks: &[(Address, String)]) {
    enc.u64(callbacks.len() as u64);
    for (addr, func) in callbacks {
        enc.address(addr).string(func);
    }
}

/// One query of a `deliver()` payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeliverQuery {
    /// Range start key (inclusive).
    pub start: Vec<u8>,
    /// Range end key (inclusive).
    pub end: Vec<u8>,
    /// Whether the delivery installs its one record as a replica.
    pub replicate: bool,
    /// The delivered `(key, value)` records, in key order.
    pub records: Vec<(Vec<u8>, Vec<u8>)>,
    /// The callbacks invoked with the records.
    pub callbacks: Vec<(Address, String)>,
}

impl DeliverQuery {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, VmError> {
        let start = dec.bytes()?.to_vec();
        let end = dec.bytes()?.to_vec();
        let replicate = dec.boolean()?;
        let n_records = dec.count(RECORD_MIN_BYTES)?;
        let mut records = Vec::with_capacity(n_records);
        for _ in 0..n_records {
            records.push((dec.bytes()?.to_vec(), dec.bytes()?.to_vec()));
        }
        Ok(DeliverQuery {
            start,
            end,
            replicate,
            records,
            callbacks: Vec::new(),
        })
    }

    fn decode_callbacks(&mut self, dec: &mut Decoder<'_>) -> Result<(), VmError> {
        let n_cbs = dec.count(CALLBACK_MIN_BYTES)?;
        self.callbacks.reserve_exact(n_cbs);
        for _ in 0..n_cbs {
            self.callbacks.push((dec.address()?, dec.string()?));
        }
        Ok(())
    }

    /// The query's encoding: (head, callbacks), the two parts a payload
    /// places on either side of the proof (first query) or back to back.
    fn encoded(&self) -> (Vec<u8>, Vec<u8>) {
        let mut head = Encoder::new();
        encode_query(
            &mut head,
            &self.start,
            &self.end,
            self.replicate,
            &self.records,
        );
        let mut callbacks = Encoder::new();
        encode_callbacks(&mut callbacks, &self.callbacks);
        (head.finish(), callbacks.finish())
    }

    fn range(&self) -> (&[u8], &[u8]) {
        (&self.start, &self.end)
    }
}

/// A decoded `deliver()` payload: `query₁ · proof · callbacks₁ ·
/// (queryᵢ · callbacksᵢ)*`, every query verified against the one proof.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeliverPayload {
    /// The queries in payload order — strictly increasing `(start, end)`
    /// after the first. Never empty.
    pub queries: Vec<DeliverQuery>,
    /// The proof every query is verified against.
    pub proof: RangeProof,
}

impl DeliverPayload {
    /// Parses a `deliver()` input.
    ///
    /// # Errors
    ///
    /// [`VmError::Decode`] if the payload is truncated or malformed, a count
    /// exceeds what the remaining bytes could hold, or the queries after the
    /// first are not in strictly increasing `(start, end)` order.
    pub fn decode(input: &[u8]) -> Result<Self, VmError> {
        let mut dec = Decoder::new(input);
        let mut first = DeliverQuery::decode(&mut dec)?;
        let proof = wire::decode_range_proof(&mut dec)?;
        first.decode_callbacks(&mut dec)?;
        let mut queries = vec![first];
        while !dec.is_empty() {
            let mut query = DeliverQuery::decode(&mut dec)?;
            query.decode_callbacks(&mut dec)?;
            if queries
                .last()
                .is_some_and(|prev| prev.range() >= query.range())
            {
                return Err(VmError::Decode(
                    "deliver queries are not in strictly increasing (start, end) order".into(),
                ));
            }
            queries.push(query);
        }
        Ok(DeliverPayload { queries, proof })
    }

    /// Encodes the payload; a one-query payload is exactly
    /// [`encode_deliver`]'s bytes.
    pub fn encode(&self) -> Vec<u8> {
        Self::assemble(self.queries.iter().map(DeliverQuery::encoded), &self.proof)
    }

    /// Lays out encoded `(head, callbacks)` parts around `proof`.
    fn assemble(
        parts: impl IntoIterator<Item = (Vec<u8>, Vec<u8>)>,
        proof: &RangeProof,
    ) -> Vec<u8> {
        let mut out = Vec::new();
        for (i, (head, callbacks)) in parts.into_iter().enumerate() {
            out.extend_from_slice(&head);
            if i == 0 {
                let mut enc = Encoder::new();
                wire::encode_range_proof(&mut enc, proof);
                out.extend_from_slice(&enc.finish());
            }
            out.extend_from_slice(&callbacks);
        }
        out
    }
}

/// A shared-proof payload under construction in [`coalesce_delivers`].
struct Group {
    /// Encoded `(head, callbacks)` of each member query, in key order.
    parts: Vec<(Vec<u8>, Vec<u8>)>,
    /// The last member's `(start, end)`.
    last: (Vec<u8>, Vec<u8>),
    /// The union of the members' proofs.
    proof: RangeProof,
    /// Encoded bytes of the members' parts.
    parts_len: usize,
}

/// Merges one feed's per-request `deliver()` payloads — built by one SP
/// against one tree, as one watchdog call returns them — into shared-proof
/// payloads. The queries, sorted by `(start, end)`, are cut into groups
/// whose payload stays within [`MAX_TX_PAYLOAD_BYTES`], and each group
/// carries the union ([`RangeProof::union_with`]) of its members' proofs.
///
/// A query joins the open group only if the group plus the query's whole
/// per-request payload fits (the union adds less than that), its
/// `(start, end)` differs from the last member's (a payload's queries are
/// strictly increasing) and its proof unites with the group's (they were
/// built against one tree). A group of one query is that query's
/// per-request payload, byte for byte; one payload in is returned
/// unchanged, and a payload that does not decode is passed through as it
/// is, after the groups, for the contract to reject. Pure: it reads
/// nothing but its input.
pub fn coalesce_delivers(payloads: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    if payloads.len() < 2 {
        return payloads;
    }
    let mut pending = Vec::new();
    let mut undecodable = Vec::new();
    let entry = |query: DeliverQuery, proof| {
        let parts = query.encoded();
        ((query.start, query.end), parts, proof)
    };
    for payload in payloads {
        let Ok(DeliverPayload { mut queries, proof }) = DeliverPayload::decode(&payload) else {
            undecodable.push(payload);
            continue;
        };
        // Every query keeps its payload's proof; the last one takes it.
        let last = queries.pop();
        for query in queries {
            pending.push(entry(query, proof.clone()));
        }
        pending.extend(last.map(|query| entry(query, proof)));
    }
    // Equal ranges never share a group, so their relative order is free.
    pending.sort_unstable_by(|a, b| a.0.cmp(&b.0));

    let mut groups: Vec<Group> = Vec::new();
    for (range, parts, proof) in pending {
        let parts_len = parts.0.len() + parts.1.len();
        let alone = parts_len + wire::range_proof_len(&proof);
        let proof = match groups.last_mut() {
            Some(group)
                if group.last != range
                    && group.parts_len + wire::range_proof_len(&group.proof) + alone
                        <= MAX_TX_PAYLOAD_BYTES =>
            {
                match group.proof.union_with(proof) {
                    Ok(()) => {
                        group.parts.push(parts);
                        group.last = range;
                        group.parts_len += parts_len;
                        continue;
                    }
                    Err(proof) => proof,
                }
            }
            _ => proof,
        };
        groups.push(Group {
            parts: vec![parts],
            last: range,
            proof,
            parts_len,
        });
    }
    groups
        .into_iter()
        .map(|group| DeliverPayload::assemble(group.parts, &group.proof))
        .chain(undecodable)
        .collect()
}

/// A parsed `Request` event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestEvent {
    /// Requested key.
    pub key: Vec<u8>,
    /// Callback contract.
    pub cb_addr: Address,
    /// Callback function.
    pub cb_func: String,
}

/// Parses a `Request` event payload.
///
/// # Errors
///
/// [`VmError::Decode`] if the payload is malformed.
pub fn decode_request(data: &[u8]) -> Result<RequestEvent, VmError> {
    let mut dec = Decoder::new(data);
    Ok(RequestEvent {
        key: dec.bytes()?.to_vec(),
        cb_addr: dec.address()?,
        cb_func: dec.string()?,
    })
}

/// A parsed `RequestRange` event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestRangeEvent {
    /// Range start key (inclusive).
    pub start: Vec<u8>,
    /// Range end key (inclusive).
    pub end: Vec<u8>,
    /// Callback contract.
    pub cb_addr: Address,
    /// Callback function.
    pub cb_func: String,
}

/// Parses a `RequestRange` event payload.
///
/// # Errors
///
/// [`VmError::Decode`] if the payload is malformed.
pub fn decode_request_range(data: &[u8]) -> Result<RequestRangeEvent, VmError> {
    let mut dec = Decoder::new(data);
    Ok(RequestRangeEvent {
        start: dec.bytes()?.to_vec(),
        end: dec.bytes()?.to_vec(),
        cb_addr: dec.address()?,
        cb_func: dec.string()?,
    })
}

/// A minimal data-consumer (DU) contract whose callback does no
/// application work — used to measure pure feed-layer Gas, as the paper's
/// microbenchmarks do.
#[derive(Debug)]
pub struct NullConsumer {
    manager: Address,
}

impl NullConsumer {
    /// A consumer bound to the storage manager at `manager`.
    pub fn new(manager: Address) -> Self {
        NullConsumer { manager }
    }
}

impl Contract for NullConsumer {
    fn call(
        &self,
        ctx: &mut CallContext<'_>,
        func: &str,
        input: &[u8],
    ) -> Result<Vec<u8>, VmError> {
        match func {
            // batchRead(n, key...): issue n gGet internal calls.
            "batchRead" => {
                let mut dec = Decoder::new(input);
                let n = dec.u64()? as usize;
                for _ in 0..n {
                    let key = dec.bytes()?;
                    let payload = encode_gget(key, ctx.this, "onData");
                    ctx.call(self.manager, "gGet", &payload)?;
                }
                Ok(Vec::new())
            }
            // scan(start, end): one ranged query.
            "scan" => {
                let mut dec = Decoder::new(input);
                let start = dec.bytes()?.to_vec();
                let end = dec.bytes()?.to_vec();
                let payload = encode_gscan(&start, &end, ctx.this, "onData");
                ctx.call(self.manager, "gScan", &payload)?;
                Ok(Vec::new())
            }
            // onData(context, n, (key, value)...): the no-op callback.
            "onData" => Ok(Vec::new()),
            _ => Err(VmError::UnknownFunction(func.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grub_chain::{Blockchain, Transaction};
    use grub_gas::Layer;
    use grub_merkle::MerkleKv;
    use std::rc::Rc;

    struct Fixture {
        chain: Blockchain,
        mgr: Address,
        du: Address,
        do_addr: Address,
        sp_addr: Address,
        tree: MerkleKv,
    }

    fn nr_key(key: &[u8]) -> ProofKey {
        ProofKey::new(ReplState::NotReplicated, key.to_vec())
    }

    fn setup(trace_mode: OnChainTrace) -> Fixture {
        let mut chain = Blockchain::new();
        let do_addr = Address::derive("DO");
        let sp_addr = Address::derive("SP");
        let mgr = Address::derive("storage-manager");
        let du = Address::derive("du");
        chain.deploy(
            mgr,
            Rc::new(StorageManager::new(do_addr, trace_mode)),
            Layer::Feed,
        );
        chain.deploy(du, Rc::new(NullConsumer::new(mgr)), Layer::Application);
        Fixture {
            chain,
            mgr,
            du,
            do_addr,
            sp_addr,
            tree: MerkleKv::new(),
        }
    }

    /// DO-side: push a record into the tree and send the digest (plus
    /// optional replica) on chain.
    fn do_update(fx: &mut Fixture, key: &[u8], value: &[u8], replicate: bool) {
        let state = if replicate {
            ReplState::Replicated
        } else {
            ReplState::NotReplicated
        };
        fx.tree
            .insert(ProofKey::new(state, key.to_vec()), record_value_hash(value));
        let digest = fx.tree.root();
        let to_r: Vec<(Vec<u8>, Vec<u8>)> = if replicate {
            vec![(key.to_vec(), value.to_vec())]
        } else {
            Vec::new()
        };
        let input = encode_update(&digest, &[], &to_r, &[]);
        fx.chain.submit(Transaction::new(
            fx.do_addr,
            fx.mgr,
            "update",
            input,
            Layer::Feed,
        ));
        let block = fx.chain.produce_block();
        assert!(block.receipts[0].success, "{:?}", block.receipts[0].error);
    }

    fn read_key(fx: &mut Fixture, key: &[u8]) {
        let mut enc = Encoder::new();
        enc.u64(1).bytes(key);
        fx.chain.submit(Transaction::new(
            Address::derive("user"),
            fx.du,
            "batchRead",
            enc.finish(),
            Layer::User,
        ));
        let block = fx.chain.produce_block();
        assert!(block.receipts[0].success, "{:?}", block.receipts[0].error);
    }

    #[test]
    fn update_requires_data_owner() {
        let mut fx = setup(OnChainTrace::None);
        let input = encode_update(&Hash32::ZERO, &[], &[], &[]);
        fx.chain.submit(Transaction::new(
            Address::derive("mallory"),
            fx.mgr,
            "update",
            input,
            Layer::Feed,
        ));
        let block = fx.chain.produce_block();
        assert!(!block.receipts[0].success);
    }

    #[test]
    fn replica_hit_serves_synchronously() {
        let mut fx = setup(OnChainTrace::None);
        do_update(&mut fx, b"eth", b"150", true);
        read_key(&mut fx, b"eth");
        // No Request event: the replica answered.
        assert!(fx.chain.events_since(0, fx.mgr, "Request").is_empty());
    }

    #[test]
    fn replica_miss_emits_request() {
        let mut fx = setup(OnChainTrace::None);
        do_update(&mut fx, b"eth", b"150", false);
        read_key(&mut fx, b"eth");
        let events = fx.chain.events_since(0, fx.mgr, "Request");
        assert_eq!(events.len(), 1);
        let req = decode_request(&events[0].data).unwrap();
        assert_eq!(req.key, b"eth");
        assert_eq!(req.cb_addr, fx.du);
    }

    #[test]
    fn deliver_with_valid_proof_succeeds() {
        let mut fx = setup(OnChainTrace::None);
        do_update(&mut fx, b"eth", b"150", false);
        read_key(&mut fx, b"eth");
        let proof = fx.tree.prove_range(&nr_key(b"eth"), &nr_key(b"eth"));
        let input = encode_deliver(
            b"eth",
            b"eth",
            false,
            &[(b"eth".to_vec(), b"150".to_vec())],
            &proof,
            &[(fx.du, "onData".to_owned())],
        );
        fx.chain.submit(Transaction::new(
            fx.sp_addr,
            fx.mgr,
            "deliver",
            input,
            Layer::Feed,
        ));
        let block = fx.chain.produce_block();
        assert!(block.receipts[0].success, "{:?}", block.receipts[0].error);
    }

    #[test]
    fn deliver_with_forged_value_reverts() {
        let mut fx = setup(OnChainTrace::None);
        do_update(&mut fx, b"eth", b"150", false);
        let proof = fx.tree.prove_range(&nr_key(b"eth"), &nr_key(b"eth"));
        let input = encode_deliver(
            b"eth",
            b"eth",
            false,
            &[(b"eth".to_vec(), b"9999".to_vec())], // forged price
            &proof,
            &[(fx.du, "onData".to_owned())],
        );
        fx.chain.submit(Transaction::new(
            fx.sp_addr,
            fx.mgr,
            "deliver",
            input,
            Layer::Feed,
        ));
        let block = fx.chain.produce_block();
        assert!(!block.receipts[0].success);
        assert!(block.receipts[0]
            .error
            .as_deref()
            .unwrap()
            .contains("does not match proof"));
    }

    #[test]
    fn deliver_with_stale_proof_reverts() {
        let mut fx = setup(OnChainTrace::None);
        do_update(&mut fx, b"eth", b"150", false);
        let stale_proof = fx.tree.prove_range(&nr_key(b"eth"), &nr_key(b"eth"));
        // The DO updates the record; the on-chain digest moves on.
        do_update(&mut fx, b"eth", b"151", false);
        let input = encode_deliver(
            b"eth",
            b"eth",
            false,
            &[(b"eth".to_vec(), b"150".to_vec())], // replayed old value
            &stale_proof,
            &[(fx.du, "onData".to_owned())],
        );
        fx.chain.submit(Transaction::new(
            fx.sp_addr,
            fx.mgr,
            "deliver",
            input,
            Layer::Feed,
        ));
        let block = fx.chain.produce_block();
        assert!(!block.receipts[0].success, "replay must be rejected");
    }

    #[test]
    fn deliver_omitting_record_reverts() {
        let mut fx = setup(OnChainTrace::None);
        do_update(&mut fx, b"aaa", b"1", false);
        do_update(&mut fx, b"bbb", b"2", false);
        do_update(&mut fx, b"ccc", b"3", false);
        // Honest proof for the full range, but deliver claims only 2 records.
        let proof = fx.tree.prove_range(&nr_key(b"aaa"), &nr_key(b"ccc"));
        let input = encode_deliver(
            b"aaa",
            b"ccc",
            false,
            &[
                (b"aaa".to_vec(), b"1".to_vec()),
                (b"ccc".to_vec(), b"3".to_vec()),
            ],
            &proof,
            &[],
        );
        fx.chain.submit(Transaction::new(
            fx.sp_addr,
            fx.mgr,
            "deliver",
            input,
            Layer::Feed,
        ));
        let block = fx.chain.produce_block();
        assert!(!block.receipts[0].success);
    }

    #[test]
    fn eviction_removes_replica() {
        let mut fx = setup(OnChainTrace::None);
        do_update(&mut fx, b"eth", b"150", true);
        // R→NR transition.
        fx.tree
            .invalidate(&ProofKey::new(ReplState::Replicated, b"eth".to_vec()));
        fx.tree.insert(nr_key(b"eth"), record_value_hash(b"150"));
        let input = encode_update(&fx.tree.root(), &[], &[], &[b"eth".to_vec()]);
        fx.chain.submit(Transaction::new(
            fx.do_addr,
            fx.mgr,
            "update",
            input,
            Layer::Feed,
        ));
        fx.chain.produce_block();
        // Next read misses and emits a request.
        read_key(&mut fx, b"eth");
        assert_eq!(fx.chain.events_since(0, fx.mgr, "Request").len(), 1);
    }

    #[test]
    fn scan_emits_range_request_and_delivers() {
        let mut fx = setup(OnChainTrace::None);
        do_update(&mut fx, b"k1", b"v1", false);
        do_update(&mut fx, b"k2", b"v2", false);
        do_update(&mut fx, b"k3", b"v3", false);
        let mut enc = Encoder::new();
        enc.bytes(b"k1").bytes(b"k3");
        fx.chain.submit(Transaction::new(
            Address::derive("user"),
            fx.du,
            "scan",
            enc.finish(),
            Layer::User,
        ));
        fx.chain.produce_block();
        let events = fx.chain.events_since(0, fx.mgr, "RequestRange");
        assert_eq!(events.len(), 1);
        let req = decode_request_range(&events[0].data).unwrap();
        assert_eq!(
            (req.start.as_slice(), req.end.as_slice()),
            (b"k1".as_slice(), b"k3".as_slice())
        );
        // SP answers the whole range.
        let proof = fx.tree.prove_range(&nr_key(b"k1"), &nr_key(b"k3"));
        let input = encode_deliver(
            b"k1",
            b"k3",
            false,
            &[
                (b"k1".to_vec(), b"v1".to_vec()),
                (b"k2".to_vec(), b"v2".to_vec()),
                (b"k3".to_vec(), b"v3".to_vec()),
            ],
            &proof,
            &[(req.cb_addr, req.cb_func)],
        );
        fx.chain.submit(Transaction::new(
            fx.sp_addr,
            fx.mgr,
            "deliver",
            input,
            Layer::Feed,
        ));
        let block = fx.chain.produce_block();
        assert!(block.receipts[0].success, "{:?}", block.receipts[0].error);
    }

    #[test]
    fn absent_key_deliverable_with_empty_result() {
        let mut fx = setup(OnChainTrace::None);
        do_update(&mut fx, b"aaa", b"1", false);
        do_update(&mut fx, b"zzz", b"2", false);
        let proof = fx.tree.prove_range(&nr_key(b"mmm"), &nr_key(b"mmm"));
        let input = encode_deliver(
            b"mmm",
            b"mmm",
            false,
            &[],
            &proof,
            &[(fx.du, "onData".to_owned())],
        );
        fx.chain.submit(Transaction::new(
            fx.sp_addr,
            fx.mgr,
            "deliver",
            input,
            Layer::Feed,
        ));
        let block = fx.chain.produce_block();
        assert!(block.receipts[0].success, "{:?}", block.receipts[0].error);
    }

    #[test]
    fn on_chain_trace_mode_costs_more_per_read() {
        let mut plain = setup(OnChainTrace::None);
        do_update(&mut plain, b"eth", b"150", true);
        let before = plain.chain.meter().layer_total(Layer::Feed).amount();
        read_key(&mut plain, b"eth");
        let plain_cost = plain.chain.meter().layer_total(Layer::Feed).amount() - before;

        let mut traced = setup(OnChainTrace::Reads);
        do_update(&mut traced, b"eth", b"150", true);
        let before = traced.chain.meter().layer_total(Layer::Feed).amount();
        read_key(&mut traced, b"eth");
        let traced_cost = traced.chain.meter().layer_total(Layer::Feed).amount() - before;

        // BL3 pays at least one extra storage write (≥20000 on first bump).
        assert!(
            traced_cost >= plain_cost + 20_000,
            "plain {plain_cost} vs traced {traced_cost}"
        );
    }

    /// Keys `k0`..`k9` under NR, value `v<i>`.
    fn ten_keys() -> Fixture {
        let mut fx = setup(OnChainTrace::None);
        for i in 0..10 {
            do_update(
                &mut fx,
                format!("k{i}").as_bytes(),
                format!("v{i}").as_bytes(),
                false,
            );
        }
        fx
    }

    /// The watchdog's per-request payload for the point read of `k<i>`.
    fn point_payload(fx: &Fixture, i: usize) -> Vec<u8> {
        let key = format!("k{i}").into_bytes();
        let proof = fx.tree.prove_range(&nr_key(&key), &nr_key(&key));
        let records = [(key.clone(), format!("v{i}").into_bytes())];
        encode_deliver(
            &key,
            &key,
            false,
            &records,
            &proof,
            &[(fx.du, "onData".to_owned())],
        )
    }

    /// Mines each input as an SP `deliver` in one block.
    fn deliver_all(fx: &mut Fixture, inputs: Vec<Vec<u8>>) -> grub_chain::Block {
        for input in inputs {
            fx.chain.submit(Transaction::new(
                fx.sp_addr,
                fx.mgr,
                "deliver",
                input,
                Layer::Feed,
            ));
        }
        fx.chain.produce_block().clone()
    }

    /// The consumer callbacks a block ran, as their inputs.
    fn callbacks_run(block: &grub_chain::Block) -> Vec<Vec<u8>> {
        block
            .call_records
            .iter()
            .filter(|c| c.func == "onData")
            .map(|c| c.input.clone())
            .collect()
    }

    #[test]
    fn one_query_payload_is_the_per_request_encoding() {
        let fx = ten_keys();
        let payload = point_payload(&fx, 3);
        let decoded = DeliverPayload::decode(&payload).unwrap();
        assert_eq!(decoded.queries.len(), 1);
        assert_eq!(decoded.encode(), payload);
        assert_eq!(coalesce_delivers(vec![payload.clone()]), vec![payload]);
        assert!(coalesce_delivers(Vec::new()).is_empty());
    }

    #[test]
    fn coalesced_deliver_serves_every_query_for_less() {
        let mut fx = ten_keys();
        let singles: Vec<Vec<u8>> = [1, 4, 7, 8].map(|i| point_payload(&fx, i)).to_vec();
        let coalesced = coalesce_delivers(singles.clone());
        assert_eq!(coalesced.len(), 1, "four small queries share one payload");
        let shared = DeliverPayload::decode(&coalesced[0]).unwrap();
        assert_eq!(shared.queries.len(), 4);
        assert!(coalesced[0].len() < singles.iter().map(Vec::len).sum::<usize>());

        let hash_gas = |fx: &Fixture| fx.chain.meter().kind_total(Layer::Feed, CostKind::Hash);
        let before = hash_gas(&fx);
        let one_by_one = deliver_all(&mut fx, singles);
        assert!(one_by_one.receipts.iter().all(|r| r.success));
        let separate = hash_gas(&fx).amount() - before.amount();
        let before = hash_gas(&fx);
        let block = deliver_all(&mut fx, coalesced);
        assert!(block.receipts[0].success, "{:?}", block.receipts[0].error);
        assert!(hash_gas(&fx).amount() - before.amount() < separate);
        // Same callbacks with the same records, in key order.
        assert_eq!(callbacks_run(&block), callbacks_run(&one_by_one));
        assert_eq!(Decoder::new(&block.receipts[0].output).u64(), Ok(4));
    }

    #[test]
    fn coalescing_splits_at_the_calldata_bound_and_at_repeats() {
        let mut fx = setup(OnChainTrace::None);
        let value = vec![7u8; 3000];
        for i in 0..16 {
            do_update(&mut fx, format!("k{i:02}").as_bytes(), &value, false);
        }
        let payload = |fx: &Fixture, i: usize| {
            let key = format!("k{i:02}").into_bytes();
            let proof = fx.tree.prove_range(&nr_key(&key), &nr_key(&key));
            encode_deliver(
                &key,
                &key,
                false,
                &[(key.clone(), value.clone())],
                &proof,
                &[],
            )
        };
        let mut singles: Vec<Vec<u8>> = (0..16).map(|i| payload(&fx, i)).collect();
        // A repeated query cannot share a payload with itself.
        singles.push(payload(&fx, 5));
        let coalesced = coalesce_delivers(singles);
        assert!(coalesced.len() >= 3, "48 KB of values need ≥ 3 payloads");
        let mut ranges = Vec::new();
        for payload in &coalesced {
            assert!(payload.len() <= MAX_TX_PAYLOAD_BYTES);
            let decoded = DeliverPayload::decode(payload).unwrap();
            ranges.extend(decoded.queries.into_iter().map(|q| q.start));
        }
        ranges.sort();
        let mut want: Vec<Vec<u8>> = (0..16).map(|i| format!("k{i:02}").into_bytes()).collect();
        want.push(b"k05".to_vec());
        want.sort();
        assert_eq!(ranges, want, "every query lands in exactly one payload");
        let block = deliver_all(&mut fx, coalesced);
        assert!(block.receipts.iter().all(|r| r.success));
    }

    #[test]
    fn undecodable_payloads_pass_through_after_the_groups() {
        let fx = ten_keys();
        let garbage = b"not a deliver".to_vec();
        let out = coalesce_delivers(vec![
            garbage.clone(),
            point_payload(&fx, 2),
            point_payload(&fx, 6),
        ]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1], garbage);
    }

    /// A payload whose first query claims `count` records it does not carry.
    fn forged_record_count(count: u64) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.bytes(b"k1").bytes(b"k1").boolean(false).u64(count);
        enc.finish()
    }

    /// A well-formed head and proof followed by `count` callbacks it does
    /// not carry.
    fn forged_callback_count(fx: &Fixture, count: u64) -> Vec<u8> {
        let proof = fx.tree.prove_range(&nr_key(b"k1"), &nr_key(b"k1"));
        let mut enc = Encoder::new();
        encode_query(
            &mut enc,
            b"k1",
            b"k1",
            false,
            &[(b"k1".to_vec(), b"v1".to_vec())],
        );
        wire::encode_range_proof(&mut enc, &proof);
        enc.u64(count);
        enc.finish()
    }

    #[test]
    fn forged_counts_revert_with_a_decode_error() {
        let mut fx = ten_keys();
        let mut inputs = Vec::new();
        for count in [u64::MAX, 1 << 40] {
            inputs.push(forged_record_count(count));
            inputs.push(forged_callback_count(&fx, count));
        }
        let n = inputs.len();
        let block = deliver_all(&mut fx, inputs);
        assert_eq!(block.receipts.len(), n);
        for receipt in &block.receipts {
            assert!(!receipt.success);
            let err = receipt.error.as_deref().unwrap_or_default();
            assert!(err.starts_with("payload decode failed"), "{err}");
        }
        // The DO's update bounds its counts the same way.
        for count in [u64::MAX, 1 << 40] {
            let mut enc = Encoder::new();
            enc.hash(&fx.tree.root()).u64(count);
            fx.chain.submit(Transaction::new(
                fx.do_addr,
                fx.mgr,
                "update",
                enc.finish(),
                Layer::Feed,
            ));
            let block = fx.chain.produce_block();
            let err = block.receipts[0].error.as_deref().unwrap_or_default();
            assert!(err.starts_with("payload decode failed"), "{err}");
        }
    }

    #[test]
    fn every_proper_prefix_reverts_with_a_typed_error() {
        let mut fx = ten_keys();
        let single = point_payload(&fx, 3);
        let coalesced = coalesce_delivers([1, 4, 7].map(|i| point_payload(&fx, i)).to_vec());
        assert_eq!(coalesced.len(), 1);
        for payload in [single, coalesced[0].clone()] {
            let prefixes: Vec<Vec<u8>> = (0..payload.len())
                .map(|cut| payload[..cut].to_vec())
                .collect();
            let block = deliver_all(&mut fx, prefixes);
            assert_eq!(block.receipts.len(), payload.len());
            for (cut, receipt) in block.receipts.iter().enumerate() {
                let err = receipt.error.as_deref().unwrap_or_default();
                assert!(
                    !receipt.success
                        && (err.starts_with("payload decode failed")
                            || err.starts_with("execution reverted")),
                    "prefix of {cut} bytes: {err:?}"
                );
            }
        }
    }

    #[test]
    fn update_rejects_trailing_bytes() {
        let mut fx = setup(OnChainTrace::None);
        let mut input = encode_update(&Hash32::ZERO, &[], &[], &[]);
        input.push(0);
        fx.chain.submit(Transaction::new(
            fx.do_addr,
            fx.mgr,
            "update",
            input,
            Layer::Feed,
        ));
        let block = fx.chain.produce_block();
        let err = block.receipts[0].error.as_deref().unwrap_or_default();
        assert!(err.contains("trailing"), "{err}");
    }
}

/// The `update()` chunker `encode_update_chunks` replaced, kept as its
/// oracle: it took the epoch's three owned lists, copied each item into a
/// per-chunk list and encoded every chunk with the owned-list
/// `encode_update` of its day (kept here too, so the oracle shares no code
/// with the encoder it checks). Every chunk the one encoder writes must be
/// byte-identical to this one's.
#[cfg(test)]
pub(crate) mod update_oracle {
    use super::*;
    use proptest::prelude::*;

    /// An `update()`'s three sections: `rUpdates`, `toR` and `toNR`.
    pub(crate) type Sections = (
        Vec<(Vec<u8>, Vec<u8>)>,
        Vec<(Vec<u8>, Vec<u8>)>,
        Vec<Vec<u8>>,
    );

    /// The owned-list `encode_update`, as it was.
    fn encode_update_as_it_was(
        digest: &Hash32,
        r_updates: &[(Vec<u8>, Vec<u8>)],
        to_r: &[(Vec<u8>, Vec<u8>)],
        to_nr: &[Vec<u8>],
    ) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.hash(digest);
        enc.u64(r_updates.len() as u64);
        for (k, v) in r_updates {
            enc.bytes(k).bytes(v);
        }
        enc.u64(to_r.len() as u64);
        for (k, v) in to_r {
            enc.bytes(k).bytes(v);
        }
        enc.u64(to_nr.len() as u64);
        for k in to_nr {
            enc.bytes(k);
        }
        enc.finish()
    }

    /// The pre-encoder chunker, as it was: items in Listing 2 order, a pair
    /// counted `k + v + 16` bytes and a key `k + 8`, a new chunk before the
    /// count would pass the budget.
    pub(crate) fn encode_update_chunked(digest: &Hash32, sections: &Sections) -> Vec<Vec<u8>> {
        #[derive(Clone, Copy)]
        enum Item<'a> {
            RUpdate(&'a (Vec<u8>, Vec<u8>)),
            ToR(&'a (Vec<u8>, Vec<u8>)),
            ToNr(&'a Vec<u8>),
        }
        let items: Vec<Item<'_>> = sections
            .0
            .iter()
            .map(Item::RUpdate)
            .chain(sections.1.iter().map(Item::ToR))
            .chain(sections.2.iter().map(Item::ToNr))
            .collect();
        let mut out = Vec::new();
        let mut r_updates: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut to_r: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        let mut to_nr: Vec<Vec<u8>> = Vec::new();
        let mut bytes = 0usize;
        let flush_chunk = |r: &mut Vec<(Vec<u8>, Vec<u8>)>,
                           tr: &mut Vec<(Vec<u8>, Vec<u8>)>,
                           tn: &mut Vec<Vec<u8>>| {
            encode_update_as_it_was(
                digest,
                &std::mem::take(r),
                &std::mem::take(tr),
                &std::mem::take(tn),
            )
        };
        for item in items {
            let size = match item {
                Item::RUpdate((k, v)) | Item::ToR((k, v)) => k.len() + v.len() + 16,
                Item::ToNr(k) => k.len() + 8,
            };
            if bytes + size > MAX_TX_PAYLOAD_BYTES && bytes > 0 {
                out.push(flush_chunk(&mut r_updates, &mut to_r, &mut to_nr));
                bytes = 0;
            }
            bytes += size;
            match item {
                Item::RUpdate(kv) => r_updates.push(kv.clone()),
                Item::ToR(kv) => to_r.push(kv.clone()),
                Item::ToNr(k) => to_nr.push(k.clone()),
            }
        }
        out.push(flush_chunk(&mut r_updates, &mut to_r, &mut to_nr));
        out
    }

    /// Decodes `update()` chunks back into each chunk's digest and the
    /// three sections, joined in chunk order.
    pub(crate) fn decode_update_chunks(chunks: &[Vec<u8>]) -> (Vec<Hash32>, Sections) {
        let mut digests = Vec::new();
        let mut sections: Sections = Default::default();
        for chunk in chunks {
            let mut dec = Decoder::new(chunk);
            digests.push(dec.hash().unwrap());
            let pair = |dec: &mut Decoder<'_>| {
                let key = dec.bytes().unwrap().to_vec();
                (key, dec.bytes().unwrap().to_vec())
            };
            for _ in 0..dec.u64().unwrap() {
                sections.0.push(pair(&mut dec));
            }
            for _ in 0..dec.u64().unwrap() {
                sections.1.push(pair(&mut dec));
            }
            for _ in 0..dec.u64().unwrap() {
                sections.2.push(dec.bytes().unwrap().to_vec());
            }
            assert!(dec.is_empty(), "trailing bytes in an update chunk");
        }
        (digests, sections)
    }

    fn chunks_of(digest: &Hash32, sections: &Sections) -> Vec<Vec<u8>> {
        encode_update_chunks(
            digest,
            sections.0.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
            sections.1.iter().map(|(k, v)| (k.as_slice(), v.as_slice())),
            sections.2.iter().map(Vec::as_slice),
        )
    }

    fn record() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
        (1..24usize, 0..8193usize, any::<u8>())
            .prop_map(|(k, v, b)| (vec![b'k'.wrapping_add(b); k], vec![b; v]))
    }

    #[test]
    fn large_sections_split_exactly_as_the_oracle_splits_them() {
        let digest = Hash32::new([7; 32]);
        // 7 KiB replicas: three to a chunk, whatever section they sit in.
        let big = |i: u8| (vec![i; 8], vec![i; 7 << 10]);
        let sections: Sections = (
            (0..4).map(big).collect(),
            (4..9).map(big).collect(),
            (0..3).map(|i| vec![i; 8]).collect(),
        );
        let chunks = chunks_of(&digest, &sections);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks, encode_update_chunked(&digest, &sections));
        let (digests, decoded) = decode_update_chunks(&chunks);
        assert!(digests.iter().all(|d| *d == digest));
        assert_eq!(decoded, sections);
        // Empty sections are one digest-only chunk, which is also what the
        // one-chunk `encode_update` writes for them.
        let empty: Sections = Default::default();
        assert_eq!(
            chunks_of(&digest, &empty),
            encode_update_chunked(&digest, &empty)
        );
        assert_eq!(
            chunks_of(&digest, &empty),
            vec![encode_update(&digest, &[], &[], &[])]
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random sections of 0–8 KiB values, most of them several chunks
        /// long: the one encoder writes the oracle's chunks byte for byte.
        #[test]
        fn the_one_encoder_matches_the_old_chunker(
            r_updates in prop::collection::vec(record(), 0..12),
            to_r in prop::collection::vec(record(), 0..12),
            to_nr in prop::collection::vec((1..40usize, any::<u8>()), 0..12),
            seed in any::<u8>(),
        ) {
            let digest = Hash32::new([seed; 32]);
            let to_nr = to_nr.into_iter().map(|(n, b)| vec![b; n]).collect();
            let sections: Sections = (r_updates, to_r, to_nr);
            let chunks = chunks_of(&digest, &sections);
            prop_assert_eq!(&chunks, &encode_update_chunked(&digest, &sections));
            prop_assert_eq!(
                encode_update(&digest, &sections.0, &sections.1, &sections.2),
                encode_update_as_it_was(&digest, &sections.0, &sections.1, &sections.2)
            );
            let (digests, decoded) = decode_update_chunks(&chunks);
            prop_assert!(digests.iter().all(|d| *d == digest));
            prop_assert_eq!(decoded, sections);
        }
    }
}
