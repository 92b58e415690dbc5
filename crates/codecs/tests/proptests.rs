//! Property tests: every codec is an exact inverse pair on arbitrary
//! data, and the zero-allocation access layer (cursor / `get` /
//! `search_by` / `cursor_at`) agrees with the decode-everything oracle.

use codecs::{BlockCursor, Codec, DeltaCodec, GammaCodec, KeyDeltaCodec, RawCodec, RESTART_INTERVAL};
use proptest::prelude::*;

/// Drains a cursor into a vector (the streaming side of the oracle).
fn drain<E: Clone, C: BlockCursor<E>>(mut cur: C) -> Vec<E> {
    let mut out = Vec::new();
    while let Some(e) = cur.peek() {
        out.push(e.clone());
        cur.advance();
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn raw_roundtrip(entries in prop::collection::vec(any::<u64>(), 0..600)) {
        let block = <RawCodec as Codec<u64>>::encode(&entries);
        let mut out = Vec::new();
        <RawCodec as Codec<u64>>::decode(&block, &mut out);
        prop_assert_eq!(out, entries);
    }

    #[test]
    fn delta_roundtrip_any_u64(entries in prop::collection::vec(any::<u64>(), 0..600)) {
        let block = <DeltaCodec as Codec<u64>>::encode(&entries);
        prop_assert_eq!(<DeltaCodec as Codec<u64>>::len(&block), entries.len());
        let mut out = Vec::new();
        <DeltaCodec as Codec<u64>>::decode(&block, &mut out);
        prop_assert_eq!(out, entries);
    }

    #[test]
    fn delta_roundtrip_pairs(entries in prop::collection::vec(any::<(u64, u32)>(), 0..400)) {
        let block = <DeltaCodec as Codec<(u64, u32)>>::encode(&entries);
        let mut out = Vec::new();
        <DeltaCodec as Codec<(u64, u32)>>::decode(&block, &mut out);
        prop_assert_eq!(out, entries);
    }

    #[test]
    fn delta_roundtrip_signed_values(entries in prop::collection::vec(any::<(u32, i64)>(), 0..400)) {
        let block = <DeltaCodec as Codec<(u32, i64)>>::encode(&entries);
        let mut out = Vec::new();
        <DeltaCodec as Codec<(u32, i64)>>::decode(&block, &mut out);
        prop_assert_eq!(out, entries);
    }

    #[test]
    fn gamma_roundtrip_any(entries in prop::collection::vec(any::<u32>(), 0..400)) {
        let block = <GammaCodec as Codec<u32>>::encode(&entries);
        let mut out = Vec::new();
        <GammaCodec as Codec<u32>>::decode(&block, &mut out);
        prop_assert_eq!(out, entries);
    }

    #[test]
    fn delta_sorted_uses_about_one_byte_per_small_gap(
        start in 0u64..1_000_000,
        gaps in prop::collection::vec(0u64..60, 1..500),
    ) {
        let mut entries = vec![start];
        for g in &gaps {
            let next = entries.last().unwrap() + g;
            entries.push(next);
        }
        let block = <DeltaCodec as Codec<u64>>::encode(&entries);
        // First entry <= 9 bytes, the rest 1 byte each (gap < 64 zigzags
        // to < 128, one varint byte), plus a bounded extra per restart:
        // an absolute key (<= 9 bytes, replacing a 1-byte delta) and a
        // 4-byte sample offset every RESTART_INTERVAL entries.
        let restarts = gaps.len() / RESTART_INTERVAL;
        prop_assert!(
            <DeltaCodec as Codec<u64>>::heap_bytes(&block) <= 9 + gaps.len() + restarts * 12
        );
    }

    #[test]
    fn for_each_agrees_with_decode(entries in prop::collection::vec(any::<u64>(), 0..300)) {
        let block = <DeltaCodec as Codec<u64>>::encode(&entries);
        let mut seen = Vec::new();
        <DeltaCodec as Codec<u64>>::for_each(&block, &mut |e| seen.push(*e));
        prop_assert_eq!(seen, entries);
    }

    #[test]
    fn cursor_agrees_with_decode_all_codecs(entries in prop::collection::vec(any::<u64>(), 0..300)) {
        let raw = <RawCodec as Codec<u64>>::encode(&entries);
        prop_assert_eq!(drain(<RawCodec as Codec<u64>>::cursor(&raw)), entries.clone());
        let delta = <DeltaCodec as Codec<u64>>::encode(&entries);
        prop_assert_eq!(drain(<DeltaCodec as Codec<u64>>::cursor(&delta)), entries.clone());
        let gamma = <GammaCodec as Codec<u64>>::encode(&entries);
        prop_assert_eq!(drain(<GammaCodec as Codec<u64>>::cursor(&gamma)), entries);
    }

    #[test]
    fn cursor_at_and_get_agree_with_indexing(
        entries in prop::collection::vec(any::<u64>(), 1..300),
        pick in any::<u64>(),
    ) {
        let i = pick as usize % entries.len();
        let raw = <RawCodec as Codec<u64>>::encode(&entries);
        let delta = <DeltaCodec as Codec<u64>>::encode(&entries);
        prop_assert_eq!(<RawCodec as Codec<u64>>::get(&raw, i), entries[i]);
        prop_assert_eq!(<DeltaCodec as Codec<u64>>::get(&delta, i), entries[i]);
        prop_assert_eq!(drain(<RawCodec as Codec<u64>>::cursor_at(&raw, i)), entries[i..].to_vec());
        prop_assert_eq!(drain(<DeltaCodec as Codec<u64>>::cursor_at(&delta, i)), entries[i..].to_vec());
    }

    #[test]
    fn search_by_agrees_with_binary_search(
        mut keys in prop::collection::vec(any::<u64>(), 0..300),
        probes in prop::collection::vec(any::<u64>(), 1..32),
    ) {
        keys.sort_unstable();
        keys.dedup();
        let raw = <RawCodec as Codec<u64>>::encode(&keys);
        let delta = <DeltaCodec as Codec<u64>>::encode(&keys);
        let gamma = <GammaCodec as Codec<u64>>::encode(&keys);
        // Probe both arbitrary values and exact members.
        for probe in probes.iter().copied().chain(keys.iter().copied()) {
            let want = keys.binary_search(&probe).map(|i| (i, keys[i]));
            prop_assert_eq!(<RawCodec as Codec<u64>>::search_by(&raw, |e| e.cmp(&probe)), want);
            prop_assert_eq!(<DeltaCodec as Codec<u64>>::search_by(&delta, |e| e.cmp(&probe)), want);
            prop_assert_eq!(<GammaCodec as Codec<u64>>::search_by(&gamma, |e| e.cmp(&probe)), want);
        }
    }

    #[test]
    fn key_delta_access_layer_agrees(
        mut pairs in prop::collection::vec(any::<(u64, u32)>(), 1..300),
        probes in prop::collection::vec(any::<u64>(), 1..16),
    ) {
        pairs.sort_unstable_by_key(|p| p.0);
        pairs.dedup_by_key(|p| p.0);
        let block = <KeyDeltaCodec as Codec<(u64, u32)>>::encode(&pairs);
        // The keys are DeltaCodec's block of the keys alone: the same
        // bytes and the same sample table.
        let keys: Vec<u64> = pairs.iter().map(|p| p.0).collect();
        let alone = <DeltaCodec as Codec<u64>>::encode(&keys);
        prop_assert_eq!(block.0.bytes(), alone.bytes());
        prop_assert_eq!(block.0.sample_offsets(), alone.sample_offsets());
        prop_assert_eq!(drain(<KeyDeltaCodec as Codec<(u64, u32)>>::cursor(&block)), pairs.clone());
        for probe in probes.iter().copied().chain(pairs.iter().map(|p| p.0)) {
            let want = pairs.binary_search_by(|e| e.0.cmp(&probe)).map(|i| (i, pairs[i]));
            prop_assert_eq!(
                <KeyDeltaCodec as Codec<(u64, u32)>>::search_by(&block, |e| e.0.cmp(&probe)),
                want
            );
        }
    }
}
