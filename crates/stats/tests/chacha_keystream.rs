//! Pins the vendored ChaCha8 keystream that every seeded run in the
//! workspace draws from: the first 64 words for three seeds, the published
//! ChaCha8 block for the all-zero key, `next_u32`/`next_u64` interleavings
//! that straddle the 16-word block boundary, and reads after
//! `set_word_pos` (the checkpoint resume path). The values were recorded
//! from the loop-based block function; any rewrite of the block function
//! or of the buffered reads must reproduce them bit for bit.

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

#[rustfmt::skip]
const FIRST_WORDS: [(u64, [u32; 64]); 3] = [
    (0, [
        0x2d8e_e5e8, 0xbf94_d133, 0xa6da_5a01, 0x3a73_8775, 0xc143_ee06, 0x3d46_ff10, 0xe9f6_424f, 0x17c6_ab23,
        0x2fb6_898b, 0x5ce2_479b, 0x86bf_f662, 0x0ae8_099f, 0xc72f_90bd, 0x5f2f_09fd, 0x28e5_a01f, 0x95d5_3efa,
        0x94ef_af48, 0x1131_e62b, 0x17d7_a4e4, 0x9eec_7e55, 0xcd4c_18d1, 0xe553_e127, 0x3505_e613, 0xb9d5_51f1,
        0xd28d_82a2, 0x0a1f_fcc2, 0xf64a_441d, 0xfc92_16ba, 0x4b01_7931, 0xb3c6_1fd5, 0x23eb_502b, 0xe857_b19d,
        0x1bfc_d6d6, 0x5a51_2cb9, 0x4476_6985, 0x029e_3799, 0x3c8b_61fe, 0xca64_10bd, 0xbfdc_08ce, 0xa2c1_439d,
        0x9b51_bc00, 0x0b1b_48bc, 0xf734_72d7, 0x8861_3706, 0x9362_d706, 0x7e63_aa45, 0xaee6_c4a7, 0x0463_0a15,
        0x4d47_0010, 0x2857_4510, 0x0575_729d, 0xe009_8b0d, 0x2eaf_fde3, 0xfe53_6d45, 0xd9c1_5c54, 0x1195_a96b,
        0xc31b_76c0, 0x2fd9_a984, 0x2d80_213e, 0x0093_931e, 0xe951_1800, 0x306a_f4fc, 0x03f0_9f08, 0x3fc0_3cba,
    ]),
    (7, [
        0x5082_5212, 0x6686_d7a0, 0x9db4_1d41, 0xc63a_5f92, 0xe54a_caef, 0x81e7_7dd0, 0x2451_b109, 0x112b_2c0d,
        0x4fdc_0bfc, 0x88c0_87ca, 0xc126_42c0, 0x3e15_afb0, 0x351f_857a, 0xa752_b476, 0x72ae_3ab2, 0xbdb5_1629,
        0x5330_b601, 0x4874_2709, 0x1c89_1403, 0x7ea5_2bd1, 0xf9f0_07b6, 0x23fe_d27a, 0x0f26_f865, 0x1d70_a621,
        0x559b_7d6b, 0xa798_974c, 0x3909_7ade, 0xe9be_ef81, 0xda10_7685, 0x77d9_767e, 0x993b_6e50, 0x848d_006f,
        0x6200_700e, 0x18b0_a164, 0xd441_d01e, 0x2a56_8f1a, 0x5abe_029a, 0x6dd6_8f26, 0xed89_52f6, 0x2f65_4643,
        0x500c_b5aa, 0x81a8_c974, 0x62cf_9a67, 0x00e3_f909, 0x7176_a1aa, 0x44bb_854d, 0xf135_4d4e, 0xf411_b656,
        0xd38f_a2bb, 0x147f_e6d5, 0x868a_6f59, 0xbe77_8e37, 0x86b7_167e, 0x59ba_1c10, 0x545a_872d, 0xccaa_ca6e,
        0x2a2d_9bb8, 0x71a7_a9de, 0x2ab5_f398, 0x9b50_0fb0, 0x61c4_860a, 0x5505_e29b, 0xee7f_7d7a, 0x0ccc_26eb,
    ]),
    (0xDEAD_BEEF, [
        0xd2cd_678c, 0xd555_1a3c, 0xe8a4_2224, 0x1a58_ffa8, 0x4212_2e22, 0xa5b4_41d8, 0xf010_dcc3, 0xb873_6499,
        0xb11e_52f6, 0x303c_cd38, 0xdb17_0d9f, 0x29a4_1612, 0x055b_624e, 0x6a51_3120, 0xbf4f_c2f3, 0x8f5d_7d25,
        0x7008_5cab, 0x43d1_390d, 0xcd5e_eb65, 0x5d0a_8e7e, 0x594f_293f, 0x6aa4_c49e, 0x27e1_5ea6, 0x34b4_447e,
        0x6eba_996d, 0xc883_2ae5, 0xb1c6_56a6, 0xab80_e286, 0x14d8_989b, 0x3546_ee4b, 0x2b1a_259b, 0x7593_813c,
        0xa373_9159, 0xc3be_fd30, 0x22de_c8c3, 0x228c_07ab, 0x2a97_485a, 0x7ec4_393d, 0xa338_b78b, 0x8cd3_a908,
        0xce48_4bd3, 0xd274_4e13, 0x00e7_39ee, 0x1c39_f9ad, 0xe854_3379, 0xbd36_c3d9, 0x5afa_b782, 0x80e8_2ff3,
        0x1fe6_685c, 0x97f6_2233, 0xb843_a7b3, 0xa394_4265, 0xff8b_6a33, 0x81bd_ea76, 0xd1fb_5cea, 0xdb3c_aaff,
        0x96ae_4e68, 0xf648_29e3, 0x58b8_ad19, 0x900a_af85, 0x60cc_31bd, 0xa021_a79e, 0xa5cd_d2f3, 0xd7af_0822,
    ]),
];

#[test]
fn first_64_words_for_three_seeds() {
    for (seed, words) in FIRST_WORDS {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for (i, &want) in words.iter().enumerate() {
            assert_eq!(rng.next_u32(), want, "seed {seed:#x}, word {i}");
        }
        assert_eq!(rng.word_pos(), 64);
    }
}

/// The first block for the all-zero key, nonce and counter: the published
/// ChaCha8 test vector (`3e00ef2f 895f40d6 …` as bytes), read as
/// little-endian words.
#[test]
fn zero_key_block_is_the_published_chacha8_vector() {
    #[rustfmt::skip]
    let want: [u32; 16] = [
        0x2fef_003e, 0xd640_5f89, 0xe8b8_5b7f, 0xa1a5_091f, 0xc30e_842c, 0x3b7f_9ace, 0x88e1_1b18, 0x1e1a_71ef,
        0x72e1_4c98, 0x416f_21b9, 0x6753_449f, 0x1956_6d45, 0xa342_4a31, 0x01b0_86da, 0xb8fd_7b38, 0x42fe_0c0e,
    ];
    let mut rng = ChaCha8Rng::from_seed([0; 32]);
    let got: Vec<u32> = (0..16).map(|_| rng.next_u32()).collect();
    assert_eq!(got, want);
}

/// A `next_u64` is the next word in its low half and the one after it in
/// its high half, also when the two words lie in different blocks.
#[test]
fn mixed_reads_straddle_the_block_boundary() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    for _ in 0..15 {
        rng.next_u32();
    }
    assert_eq!(rng.next_u64(), 0x47b0_8727_582d_72f9, "words 15-16");
    assert_eq!(rng.next_u32(), 0x10c9_4064, "word 17");
    let want = [
        0x6e9c_5816_9bba_ffc9,
        0x873b_f881_6ac3_58d2,
        0x3c8a_2465_e673_4d9f,
        0x7328_7498_9fc0_8c24,
        0x7ec2_b8f3_8da7_0554,
        0x6a43_623e_e5bc_3d50,
        0x3a67_4192_3af3_4541,
        0x2227_47c9_a2e1_a2eb,
    ];
    for (i, &w) in want.iter().enumerate() {
        assert_eq!(rng.next_u64(), w, "pair {i} from word 18");
    }
    assert_eq!(rng.next_u32(), 0xa619_e0b9, "word 34");
    assert_eq!(rng.next_u64(), 0xd495_7767_9438_6077, "words 35-36");
    assert_eq!(rng.word_pos(), 37);

    // Block-aligned u64 reads, then one u32 shifts every later pair by a
    // word across the next boundary.
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let aligned = [
        0xbbe2_5d67_bfca_6d40,
        0x3527_3354_56a3_f784,
        0x0d86_f80b_dbf5_674f,
        0x4fb5_7ab8_5808_7595,
        0x38ef_5688_7b9c_cda3,
        0x8e17_4060_a33c_5fd6,
        0x76f2_3370_f1f5_5c01,
        0x582d_72f9_cd84_9610,
    ];
    for (i, &w) in aligned.iter().enumerate() {
        assert_eq!(rng.next_u64(), w, "aligned pair {i}");
    }
    assert_eq!(rng.next_u32(), 0x47b0_8727, "word 16");
    let shifted = [
        0x9bba_ffc9_10c9_4064,
        0x6ac3_58d2_6e9c_5816,
        0xe673_4d9f_873b_f881,
        0x9fc0_8c24_3c8a_2465,
        0x8da7_0554_7328_7498,
        0xe5bc_3d50_7ec2_b8f3,
        0x3af3_4541_6a43_623e,
        0xa2e1_a2eb_3a67_4192,
    ];
    for (i, &w) in shifted.iter().enumerate() {
        assert_eq!(rng.next_u64(), w, "shifted pair {i}");
    }
    assert_eq!(rng.word_pos(), 33);
}

/// Reads after repositioning with `set_word_pos` (after the stream had
/// already moved): a `u32`, a `u64`, a `u32`, and the position after.
#[test]
fn reads_after_set_word_pos() {
    let cases: [(u64, u32, u64, u32); 6] = [
        (0, 0x2825_e244, 0xcaef_a5ca_0775_98e2, 0x0847_767a),
        (1, 0x0775_98e2, 0x0847_767a_caef_a5ca, 0x1aeb_bf50),
        (15, 0x557c_7001, 0x3ee6_4944_28e0_c5ce, 0xd8d9_5b23),
        (16, 0x28e0_c5ce, 0xd8d9_5b23_3ee6_4944, 0x5a34_f459),
        (17, 0x3ee6_4944, 0x5a34_f459_d8d9_5b23, 0xf314_a7f6),
        (31, 0x21cf_99bf, 0x88fe_0eaf_1517_4195, 0xbbf9_5694),
    ];
    for (pos, a, b, c) in cases {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        rng.next_u64();
        rng.set_word_pos(pos);
        assert_eq!(rng.word_pos(), pos);
        assert_eq!(rng.next_u32(), a, "u32 at {pos}");
        assert_eq!(rng.next_u64(), b, "u64 at {}", pos + 1);
        assert_eq!(rng.next_u32(), c, "u32 at {}", pos + 3);
        assert_eq!(rng.word_pos(), pos + 4);
    }
}
