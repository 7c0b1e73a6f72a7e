//! Property tests for the compression substrate.

use proptest::prelude::*;
use saps_compress::codec;
use saps_compress::mask::RandomMask;
use saps_compress::topk::{densify, top_k_indices, ErrorFeedbackTopK};

proptest! {
    #[test]
    fn codec_values_roundtrip(vals in proptest::collection::vec(-1e6f32..1e6, 0..256)) {
        let enc = codec::encode_values(&vals);
        prop_assert_eq!(enc.len() as u64, codec::sparse_shared_mask_bytes(vals.len()));
        prop_assert_eq!(codec::decode_values(enc), vals);
    }

    #[test]
    fn codec_index_value_roundtrip(
        pairs in proptest::collection::vec((0u32..1_000_000, -1e6f32..1e6), 0..256),
    ) {
        let (idx, vals): (Vec<u32>, Vec<f32>) = pairs.into_iter().unzip();
        let enc = codec::encode_index_value(&idx, &vals);
        let (i2, v2) = codec::decode_index_value(enc);
        prop_assert_eq!(i2, idx);
        prop_assert_eq!(v2, vals);
    }

    #[test]
    fn best_encoding_is_really_best(n in 1usize..10_000, frac in 0.0f64..1.0) {
        let nnz = ((n as f64 * frac) as usize).min(n);
        let (_, size) = codec::best_sparse_encoding(n, nnz);
        prop_assert!(size <= codec::sparse_iv_bytes(nnz));
        prop_assert!(size <= codec::sparse_bitmap_bytes(n, nnz));
        prop_assert!(size <= codec::dense_bytes(n));
    }

    #[test]
    fn topk_returns_largest(
        x in proptest::collection::vec(-100.0f32..100.0, 1..200),
        k in 1usize..50,
    ) {
        let idx = top_k_indices(&x, k);
        let k_eff = k.min(x.len());
        prop_assert_eq!(idx.len(), k_eff);
        // Every selected magnitude >= every unselected magnitude.
        let selected: std::collections::HashSet<u32> = idx.iter().copied().collect();
        let min_sel = idx.iter().map(|&i| x[i as usize].abs()).fold(f32::INFINITY, f32::min);
        for (i, v) in x.iter().enumerate() {
            if !selected.contains(&(i as u32)) {
                prop_assert!(v.abs() <= min_sel + 1e-6);
            }
        }
        // Indices sorted and unique.
        prop_assert!(idx.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn error_feedback_conserves_signal(
        g1 in proptest::collection::vec(-10.0f32..10.0, 8..64),
        k in 1usize..8,
    ) {
        // After compressing g, transmitted + residual == g (+ previous
        // residual, which starts at zero).
        let mut ef = ErrorFeedbackTopK::new(g1.len(), k);
        let (idx, vals) = ef.compress(&g1);
        let sent = densify(g1.len(), &idx, &vals);
        for i in 0..g1.len() {
            prop_assert!((sent[i] + ef.residual()[i] - g1[i]).abs() < 1e-4);
        }
    }

    #[test]
    fn mask_determinism_and_bounds(
        seed in any::<u64>(),
        round in any::<u64>(),
        c in 1.0f64..200.0,
        n in 0usize..50_000,
    ) {
        let a = RandomMask::generate(n, c, seed, round);
        let b = RandomMask::generate(n, c, seed, round);
        prop_assert_eq!(a.indices(), b.indices());
        prop_assert!(a.nnz() <= n);
        prop_assert!(a.indices().iter().all(|&i| (i as usize) < n));
        prop_assert!(a.indices().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn mask_exchange_is_symmetric(
        seed in any::<u64>(),
        n in 1usize..2_000,
    ) {
        // After one masked exchange, both workers hold the same values on
        // masked coordinates, and the pair sum is conserved there.
        let mask = RandomMask::generate(n, 4.0, seed, 0);
        let mut x: Vec<f32> = (0..n).map(|i| i as f32).collect();
        let mut y: Vec<f32> = (0..n).map(|i| (2 * i) as f32).collect();
        let sx = mask.apply(&x);
        let sy = mask.apply(&y);
        mask.average_into(&mut x, &sy);
        mask.average_into(&mut y, &sx);
        for &i in mask.indices() {
            let i = i as usize;
            prop_assert_eq!(x[i], y[i]);
            prop_assert!((x[i] + y[i] - 3.0 * i as f32).abs() < 1e-3);
        }
    }
}
