//! The content-addressed block store: seeded chunk hashing, fixed-size
//! chunking, and a deduplicating refcounted index.

use std::collections::BTreeMap;
use std::fmt;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// Default chunk size: 16 KB, two xFS blocks — small enough that the
/// base-layer sharing of real images shows up, large enough that the
/// per-chunk fabric overhead stays a minor term.
pub const DEFAULT_CHUNK_BYTES: usize = 16 * 1024;

/// A stable 64-bit content hash of one chunk.
///
/// FNV-1a over the chunk bytes, mixed with the store's seed and finished
/// with a splitmix64-style avalanche — deterministic across platforms and
/// processes, with no external hashing dependency. The seed keys the hash
/// space so tests can prove nothing depends on particular hash values.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct BlockHash(pub u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl BlockHash {
    /// Hashes `bytes` under `seed`. The one-chunk reference: every other
    /// hashing path must agree with it bit for bit.
    pub fn of(seed: u64, bytes: &[u8]) -> BlockHash {
        BlockHash::finish(absorb(BlockHash::start(seed), bytes))
    }

    /// Hashes every chunk under `seed`, equal to `chunks.iter().map(|c|
    /// BlockHash::of(seed, c))` but four chunks at a time.
    ///
    /// FNV-1a is one serial multiply chain per chunk, so a single chunk
    /// runs at the multiplier's latency. Here the chunks are grouped by
    /// length and each group of four runs as four independent chains
    /// interleaved in one loop over their common length, which keeps the
    /// multiplier busy; a lane longer than the common length finishes its
    /// own tail alone. Chunks of equal length (a store's full chunks) are
    /// hashed entirely four-wide.
    pub fn of_all(seed: u64, chunks: &[&[u8]]) -> Vec<BlockHash> {
        let mut order: Vec<usize> = (0..chunks.len()).collect();
        order.sort_by_key(|&i| chunks[i].len());
        let mut out = vec![BlockHash::default(); chunks.len()];
        let mut quads = order.chunks_exact(4);
        for quad in &mut quads {
            let lanes = [quad[0], quad[1], quad[2], quad[3]].map(|i| chunks[i]);
            // Sorted ascending, so the first lane is the shortest.
            let common = lanes[0].len();
            let mut h = [BlockHash::start(seed); 4];
            for (((&b0, &b1), &b2), &b3) in lanes[0]
                .iter()
                .zip(&lanes[1][..common])
                .zip(&lanes[2][..common])
                .zip(&lanes[3][..common])
            {
                h[0] = (h[0] ^ u64::from(b0)).wrapping_mul(FNV_PRIME);
                h[1] = (h[1] ^ u64::from(b1)).wrapping_mul(FNV_PRIME);
                h[2] = (h[2] ^ u64::from(b2)).wrapping_mul(FNV_PRIME);
                h[3] = (h[3] ^ u64::from(b3)).wrapping_mul(FNV_PRIME);
            }
            for (lane, &i) in quad.iter().enumerate() {
                out[i] = BlockHash::finish(absorb(h[lane], &lanes[lane][common..]));
            }
        }
        for &i in quads.remainder() {
            out[i] = BlockHash::of(seed, chunks[i]);
        }
        out
    }

    /// The FNV state before any byte: the offset basis keyed by `seed`.
    fn start(seed: u64) -> u64 {
        FNV_OFFSET ^ seed.wrapping_mul(FNV_PRIME)
    }

    /// Avalanches a finished FNV state so nearby chunks spread over the
    /// space.
    fn finish(mut h: u64) -> BlockHash {
        h ^= h >> 30;
        h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
        h ^= h >> 31;
        BlockHash(h)
    }
}

/// Folds `bytes` into the FNV-1a state `h`.
fn absorb(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

impl fmt::Display for BlockHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Deduplication accounting of a [`BlockStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DedupStats {
    /// Bytes offered for insertion (every reference counted).
    pub logical_bytes: u64,
    /// Bytes actually stored (unique chunks only).
    pub unique_bytes: u64,
    /// Chunk insertions offered.
    pub inserts: u64,
    /// Insertions that found their chunk already stored.
    pub dedup_hits: u64,
    /// References released.
    pub releases: u64,
}

impl DedupStats {
    /// Logical bytes per stored byte — the headline dedup factor.
    pub fn dedup_factor(&self) -> f64 {
        if self.unique_bytes == 0 {
            return 1.0;
        }
        self.logical_bytes as f64 / self.unique_bytes as f64
    }
}

#[derive(Debug, Clone)]
struct StoredBlock {
    bytes: Bytes,
    refs: u64,
}

/// A deterministic content-addressed block store.
///
/// Chunks are indexed by [`BlockHash`] in a `BTreeMap`, so every walk of
/// the store (exports, debugging dumps, gauge aggregation) is in hash
/// order whatever the insertion history — no iteration-order
/// nondeterminism can leak into reports. Each stored chunk carries a
/// reference count; [`BlockStore::release`] drops a reference and frees
/// the chunk when the last one goes.
///
/// # Example
///
/// ```
/// use now_cas::BlockStore;
///
/// let mut store = BlockStore::new(7, 4);
/// let hashes = store.add_bytes(b"aaaabbbbaaaa");
/// assert_eq!(hashes.len(), 3);
/// assert_eq!(hashes[0], hashes[2], "identical chunks share a hash");
/// assert_eq!(store.len(), 2, "and share storage");
/// assert_eq!(store.refs(hashes[0]), 2);
/// ```
#[derive(Debug, Clone)]
pub struct BlockStore {
    seed: u64,
    chunk_bytes: usize,
    blocks: BTreeMap<BlockHash, StoredBlock>,
    stats: DedupStats,
}

impl BlockStore {
    /// An empty store hashing under `seed` and chunking at `chunk_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bytes` is zero.
    pub fn new(seed: u64, chunk_bytes: usize) -> Self {
        assert!(chunk_bytes > 0, "chunk size must be positive");
        BlockStore {
            seed,
            chunk_bytes,
            blocks: BTreeMap::new(),
            stats: DedupStats::default(),
        }
    }

    /// The hash-space seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fixed chunk size in bytes.
    pub fn chunk_bytes(&self) -> usize {
        self.chunk_bytes
    }

    /// Hashes `bytes` exactly as this store would on insertion.
    pub fn hash_of(&self, bytes: &[u8]) -> BlockHash {
        BlockHash::of(self.seed, bytes)
    }

    /// Inserts one chunk, deduplicating against existing content, and
    /// returns its hash. Each call adds one reference.
    pub fn insert(&mut self, bytes: Bytes) -> BlockHash {
        let hash = self.hash_of(&bytes);
        self.insert_hashed(hash, bytes);
        hash
    }

    /// Inserts `bytes` already hashed to `hash` under this store's seed.
    fn insert_hashed(&mut self, hash: BlockHash, bytes: Bytes) {
        self.stats.inserts += 1;
        self.stats.logical_bytes += bytes.len() as u64;
        match self.blocks.get_mut(&hash) {
            Some(block) => {
                debug_assert_eq!(block.bytes, bytes, "64-bit hash collision");
                block.refs += 1;
                self.stats.dedup_hits += 1;
            }
            None => {
                self.stats.unique_bytes += bytes.len() as u64;
                self.blocks.insert(hash, StoredBlock { bytes, refs: 1 });
            }
        }
    }

    /// Inserts every chunk (copying each into the store), hashing them
    /// through [`BlockHash::of_all`]; returns their hashes in order.
    pub fn add_chunks(&mut self, chunks: &[&[u8]]) -> Vec<BlockHash> {
        let hashes = BlockHash::of_all(self.seed, chunks);
        for (&hash, chunk) in hashes.iter().zip(chunks) {
            self.insert_hashed(hash, Bytes::copy_from_slice(chunk));
        }
        hashes
    }

    /// Chunks `data` at the store's chunk size and inserts every chunk
    /// (the last one may be short), returning the ordered hash list.
    pub fn add_bytes(&mut self, data: &[u8]) -> Vec<BlockHash> {
        let chunks: Vec<&[u8]> = data.chunks(self.chunk_bytes).collect();
        self.add_chunks(&chunks)
    }

    /// Takes one more reference to a stored chunk without re-hashing it:
    /// the accounting of an insert that finds its chunk already stored
    /// (an insert, its logical bytes, a dedup hit). Returns `false`, and
    /// counts nothing, if the hash is absent.
    pub fn retain(&mut self, hash: BlockHash) -> bool {
        let Some(block) = self.blocks.get_mut(&hash) else {
            return false;
        };
        block.refs += 1;
        self.stats.inserts += 1;
        self.stats.logical_bytes += block.bytes.len() as u64;
        self.stats.dedup_hits += 1;
        true
    }

    /// The hash of `bytes`, delivered as the chunk stored under `hash`.
    ///
    /// If `bytes` is the very buffer this store holds under `hash` (same
    /// address, same length), that hash is returned without reading a
    /// byte: `Bytes` is immutable and the store keeps the buffer alive,
    /// so no other content can sit at that address, and the store hashed
    /// exactly these bytes on insertion. Any other buffer, a copy or a
    /// slice included, is re-hashed in full.
    pub fn verify(&self, hash: BlockHash, bytes: &Bytes) -> BlockHash {
        match self.blocks.get(&hash) {
            // Slice pointers compare address and length.
            Some(block) if std::ptr::eq(&block.bytes[..], &bytes[..]) => hash,
            _ => self.hash_of(bytes),
        }
    }

    /// The bytes of a stored chunk (cheap clone of a shared buffer).
    pub fn get(&self, hash: BlockHash) -> Option<Bytes> {
        self.blocks.get(&hash).map(|b| b.bytes.clone())
    }

    /// Whether a chunk with this hash is stored.
    pub fn contains(&self, hash: BlockHash) -> bool {
        self.blocks.contains_key(&hash)
    }

    /// Live references to a chunk (0 if absent).
    pub fn refs(&self, hash: BlockHash) -> u64 {
        self.blocks.get(&hash).map_or(0, |b| b.refs)
    }

    /// Releases one reference; the chunk is freed with its last one.
    /// Returns `true` if the hash was present.
    pub fn release(&mut self, hash: BlockHash) -> bool {
        let Some(block) = self.blocks.get_mut(&hash) else {
            return false;
        };
        self.stats.releases += 1;
        block.refs -= 1;
        if block.refs == 0 {
            let freed = self.blocks.remove(&hash).expect("present above");
            self.stats.unique_bytes -= freed.bytes.len() as u64;
        }
        true
    }

    /// Unique chunks stored.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the store holds no chunks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Sum of live references over all chunks.
    pub fn total_refs(&self) -> u64 {
        self.blocks.values().map(|b| b.refs).sum()
    }

    /// Stored hashes in hash order.
    pub fn hashes(&self) -> impl Iterator<Item = BlockHash> + '_ {
        self.blocks.keys().copied()
    }

    /// Dedup accounting so far.
    pub fn stats(&self) -> DedupStats {
        self.stats
    }

    /// Logical bytes per stored byte (see [`DedupStats::dedup_factor`]).
    pub fn dedup_factor(&self) -> f64 {
        self.stats.dedup_factor()
    }

    /// Approximate resident footprint: unique bytes plus index overhead.
    pub fn approx_bytes(&self) -> usize {
        self.stats.unique_bytes as usize + self.blocks.len() * 48
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_seeded_and_content_addressed() {
        let a = BlockHash::of(1, b"hello");
        assert_eq!(a, BlockHash::of(1, b"hello"), "deterministic");
        assert_ne!(a, BlockHash::of(2, b"hello"), "seed keys the space");
        assert_ne!(a, BlockHash::of(1, b"hellp"), "content addressed");
    }

    #[test]
    fn dedup_counts_references_not_copies() {
        let mut store = BlockStore::new(42, 8);
        let h1 = store.insert(Bytes::from_static(b"12345678"));
        let h2 = store.insert(Bytes::from_static(b"12345678"));
        let h3 = store.insert(Bytes::from_static(b"abcdefgh"));
        assert_eq!(h1, h2);
        assert_ne!(h1, h3);
        assert_eq!(store.len(), 2);
        assert_eq!(store.refs(h1), 2);
        assert_eq!(store.total_refs(), 3);
        let s = store.stats();
        assert_eq!(s.inserts, 3);
        assert_eq!(s.dedup_hits, 1);
        assert_eq!(s.logical_bytes, 24);
        assert_eq!(s.unique_bytes, 16);
        assert!((s.dedup_factor() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn release_frees_only_the_last_reference() {
        let mut store = BlockStore::new(0, 4);
        let h = store.insert(Bytes::from_static(b"data"));
        store.insert(Bytes::from_static(b"data"));
        assert!(store.release(h));
        assert!(store.contains(h), "one reference left");
        assert!(store.release(h));
        assert!(!store.contains(h), "freed with the last reference");
        assert_eq!(store.stats().unique_bytes, 0);
        assert!(!store.release(h), "releasing an absent hash is reported");
    }

    #[test]
    fn retain_accounts_like_a_dedup_hit_insert() {
        let mut inserted = BlockStore::new(3, 8);
        let mut retained = BlockStore::new(3, 8);
        let h = inserted.insert(Bytes::from_static(b"retained"));
        assert_eq!(retained.insert(Bytes::from_static(b"retained")), h);
        inserted.insert(Bytes::from_static(b"retained"));
        assert!(retained.retain(h));
        assert_eq!(retained.stats(), inserted.stats());
        assert_eq!(retained.refs(h), 2);
        let absent = BlockHash::of(3, b"absent");
        assert!(
            !retained.retain(absent),
            "retaining an absent hash is reported"
        );
        assert_eq!(retained.stats(), inserted.stats(), "and counts nothing");
    }

    /// A store holding one 16-byte chunk, and its hash.
    fn one_chunk_store() -> (BlockStore, BlockHash) {
        let mut store = BlockStore::new(11, 16);
        let h = store.insert(Bytes::from_static(b"0123456789abcdef"));
        (store, h)
    }

    #[test]
    fn verify_trusts_the_stored_buffer() {
        let (store, h) = one_chunk_store();
        let shared = store.get(h).expect("stored");
        assert_eq!(store.verify(h, &shared), h);
    }

    #[test]
    fn verify_rehashes_a_fresh_copy() {
        let (store, h) = one_chunk_store();
        let copy = Bytes::copy_from_slice(&store.get(h).expect("stored"));
        assert_eq!(store.verify(h, &copy), h, "same content, same hash");
    }

    #[test]
    fn verify_catches_a_flipped_byte() {
        let (store, h) = one_chunk_store();
        let mut data = store.get(h).expect("stored").to_vec();
        data[7] ^= 0x01;
        let got = store.verify(h, &Bytes::from(data.clone()));
        assert_ne!(got, h);
        assert_eq!(got, BlockHash::of(11, &data));
    }

    #[test]
    fn verify_catches_a_short_slice() {
        let (store, h) = one_chunk_store();
        let stored = store.get(h).expect("stored");
        let short = Bytes::copy_from_slice(&stored[..15]);
        assert_ne!(store.verify(h, &short), h);
    }

    #[test]
    fn verify_rehashes_a_buffer_stored_under_another_hash() {
        let (mut store, h) = one_chunk_store();
        let other = store.insert(Bytes::from_static(b"fedcba9876543210"));
        // The store's own buffer for `other`, claimed to be `h`: the
        // identity check is keyed by the claimed hash, so it re-hashes.
        let got = store.verify(h, &store.get(other).expect("stored"));
        assert_eq!(got, other);
        assert_ne!(got, h);
    }

    #[test]
    fn multi_lane_hashing_matches_the_reference() {
        let data: Vec<u8> = (0..200u32).map(|i| (i * 7 + 3) as u8).collect();
        // Equal full chunks, a short one, an empty one, one odd length.
        let chunks: Vec<&[u8]> = vec![
            &data[0..40],
            &data[40..80],
            &data[80..120],
            &data[..0],
            &data[120..160],
            &data[160..173],
            &data[173..],
        ];
        let want: Vec<BlockHash> = chunks.iter().map(|c| BlockHash::of(9, c)).collect();
        assert_eq!(BlockHash::of_all(9, &chunks), want);
        assert!(BlockHash::of_all(9, &[]).is_empty());
    }

    #[test]
    fn chunking_splits_at_the_fixed_size_with_a_short_tail() {
        let mut store = BlockStore::new(5, 10);
        let hashes = store.add_bytes(&[7u8; 25]);
        assert_eq!(hashes.len(), 3);
        assert_eq!(store.get(hashes[0]).unwrap().len(), 10);
        assert_eq!(store.get(hashes[2]).unwrap().len(), 5, "short tail");
        assert_eq!(hashes[0], hashes[1], "identical full chunks dedup");
        assert_ne!(hashes[0], hashes[2], "the tail is its own chunk");
    }
}
