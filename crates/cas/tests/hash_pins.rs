//! Pinned hash values: every `BlockHash` the store, the manifests and the
//! distribution digests are built from must stay bit-identical, so these
//! constants fix the hash function and the smoke catalog it addresses.
//! A kernel that hashes differently fails here, not only in a downstream
//! report digest.

use now_cas::{BlockHash, DedupStats, ImageCatalog, ImageCatalogSpec};

/// Deterministic, non-constant input bytes of length `len`.
fn input(len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u32).wrapping_mul(2_654_435_761).rotate_right(13) as u8)
        .collect()
}

const SEEDS: [u64; 2] = [0, 0x5eed_1234_abcd_0042];
const LENS: [usize; 4] = [0, 1, 16 * 1024, 16 * 1024 + 5];

/// `BlockHash::of(SEEDS[s], &input(LENS[l]))` at `[s][l]`.
const PINNED: [[u64; 4]; 2] = [
    [
        0xf52a_15e9_a9b5_e89b,
        0x25fc_6dd3_6ce0_4b20,
        0x63f8_7c90_0c6e_5b47,
        0xbdb1_e67d_b4a1_045b,
    ],
    [
        0xd54c_3c10_b1bd_2b3f,
        0x1110_bc59_816e_2146,
        0x9cee_b4b0_6d58_6a2d,
        0x644a_d561_de04_b62b,
    ],
];

#[test]
fn block_hashes_are_pinned() {
    for (s, &seed) in SEEDS.iter().enumerate() {
        for (l, &len) in LENS.iter().enumerate() {
            assert_eq!(
                BlockHash::of(seed, &input(len)),
                BlockHash(PINNED[s][l]),
                "seed {seed:#x}, {len} bytes"
            );
        }
    }
}

#[test]
fn multi_lane_hashes_match_the_pins() {
    // Every pinned input at once, twice over, so full four-lane groups
    // form and the lengths mix within a group.
    let inputs: Vec<Vec<u8>> = LENS.iter().chain(LENS.iter()).map(|&l| input(l)).collect();
    let chunks: Vec<&[u8]> = inputs.iter().map(Vec::as_slice).collect();
    for (s, &seed) in SEEDS.iter().enumerate() {
        let got = BlockHash::of_all(seed, &chunks);
        let want: Vec<BlockHash> = PINNED[s]
            .iter()
            .chain(&PINNED[s])
            .map(|&h| BlockHash(h))
            .collect();
        assert_eq!(got, want, "seed {seed:#x}");
    }
}

#[test]
fn smoke_catalog_is_pinned() {
    let catalog = ImageCatalog::generate(&ImageCatalogSpec::smoke(42));
    assert_eq!(catalog.digest(), 0xa458_551d_0f92_24bb);
    assert_eq!(
        catalog.store.stats(),
        DedupStats {
            logical_bytes: 3_487_037,
            unique_bytes: 1_752_863,
            inserts: 245,
            dedup_hits: 123,
            releases: 0,
        }
    );
}
