//! Property tests: every codec is an exact inverse pair on arbitrary
//! data, the zero-allocation access layer (cursor / `get` / `seek_by` /
//! `search_by` / `cursor_at`) agrees with the decode-everything oracle,
//! no decoder panics on hostile bytes, and the varint reader and writer
//! agree with byte-at-a-time oracles.

use codecs::{
    BlockCursor, BlockIo, ByteEncode, Codec, Delta, DeltaCodec, GammaCodec, KeyDeltaCodec, RawCodec,
    RESTART_INTERVAL,
};
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
    fn seek_by_lands_on_the_partition_point(
        mut keys in prop::collection::vec(any::<u64>(), 0..300),
        probes in prop::collection::vec(any::<u64>(), 1..32),
    ) {
        keys.sort_unstable();
        keys.dedup();
        let raw = <RawCodec as Codec<u64>>::encode(&keys);
        let delta = <DeltaCodec as Codec<u64>>::encode(&keys);
        let gamma = <GammaCodec as Codec<u64>>::encode(&keys);
        let pairs: Vec<(u64, u32)> = keys.iter().map(|&k| (k, k as u32)).collect();
        let key_delta = <KeyDeltaCodec as Codec<(u64, u32)>>::encode(&pairs);
        for probe in probes.iter().copied().chain(keys.iter().copied()) {
            let i = keys.partition_point(|&k| k < probe);
            let (at, cur) = <RawCodec as Codec<u64>>::seek_by(&raw, |e| e.cmp(&probe));
            prop_assert_eq!((at, drain(cur)), (i, keys[i..].to_vec()));
            let (at, cur) = <DeltaCodec as Codec<u64>>::seek_by(&delta, |e| e.cmp(&probe));
            prop_assert_eq!((at, drain(cur)), (i, keys[i..].to_vec()));
            let (at, cur) = <GammaCodec as Codec<u64>>::seek_by(&gamma, |e| e.cmp(&probe));
            prop_assert_eq!((at, drain(cur)), (i, keys[i..].to_vec()));
            let (at, cur) =
                <KeyDeltaCodec as Codec<(u64, u32)>>::seek_by(&key_delta, |e| e.0.cmp(&probe));
            prop_assert_eq!((at, drain(cur)), (i, pairs[i..].to_vec()));
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

/// `v` as [`ByteEncode::write`] writes it.
fn written<T: ByteEncode>(v: &T) -> Vec<u8> {
    let mut out = Vec::new();
    v.write(&mut out);
    out
}

/// `entries` as one block frame of codec `C`.
fn framed<E, C: BlockIo<E>>(entries: &[E]) -> Vec<u8> {
    let mut out = Vec::new();
    C::write_block(&C::encode(entries), &mut out);
    out
}

/// Valid bytes of `entries` in every shape the decoders read: lists,
/// options, a float, block frames of each codec and a bare delta stream.
fn valid_encodings(entries: &[(u64, u64)]) -> Vec<Vec<u8>> {
    let keys: Vec<u64> = entries.iter().map(|e| e.0).collect();
    let named: Vec<(u64, String)> = entries.iter().map(|&(k, v)| (k, v.to_string())).collect();
    let names: Vec<String> = named.iter().map(|e| e.1.clone()).collect();
    vec![
        written(&keys),
        written(&names),
        written(&named.first().cloned()),
        written(&keys.first().copied()),
        written(&(entries.len() as f64 / 3.0)),
        framed::<_, RawCodec>(entries),
        framed::<_, RawCodec>(&named),
        framed::<_, DeltaCodec>(entries),
        framed::<_, DeltaCodec>(&named),
        framed::<_, DeltaCodec>(&keys),
        framed::<_, GammaCodec>(&keys),
        <DeltaCodec as Codec<(u64, u64)>>::encode(entries).bytes().to_vec(),
    ]
}

/// Where [`ByteEncode::try_read`] of a `T` at `at` ends, if it reads one.
fn byte<T: ByteEncode>(buf: &[u8], at: usize) -> Option<usize> {
    let mut pos = at;
    T::try_read(buf, &mut pos).map(|_| pos)
}

/// Where [`Delta::try_read_first`] of a `T` at `at` ends, if it reads one.
fn first<T: Delta>(buf: &[u8], at: usize) -> Option<usize> {
    let mut pos = at;
    T::try_read_first(buf, &mut pos).map(|_| pos)
}

/// Where [`Delta::try_read_delta`] of a `T` after `T::default()` at `at`
/// ends, if it reads one.
fn delta<T: Delta + Default>(buf: &[u8], at: usize) -> Option<usize> {
    let mut pos = at;
    T::try_read_delta(buf, &mut pos, &T::default()).map(|_| pos)
}

/// Where [`BlockIo::read_block`] of codec `C` at `at` ends, if it reads a
/// block. A block it reads is then decoded, searched and streamed from
/// several entries: the access layer trusts every block the parse let
/// through, so none of that may panic either.
fn block<E: Ord + Clone, C: BlockIo<E>>(buf: &[u8], at: usize) -> Option<usize> {
    let mut pos = at;
    let block = C::read_block(buf, &mut pos).ok()?;
    let n = C::len(&block);
    let mut all = Vec::new();
    C::decode(&block, &mut all);
    assert_eq!(all.len(), n, "a parsed block decodes to its count");
    if let Some(mid) = all.get(n / 2) {
        let _ = C::search_by(&block, |e| e.cmp(mid));
    }
    for i in [0, 1, n / 2, n.saturating_sub(1), n] {
        assert_eq!(drain(C::cursor_at(&block, i)).len(), n - i.min(n));
    }
    Some(pos)
}

/// Runs every decoder over `buf` from `at`; none may panic, and each
/// that reads a value must leave its position inside `buf`.
fn read_everything(buf: &[u8], at: usize) -> Result<(), TestCaseError> {
    let ends = [
        byte::<u8>(buf, at),
        byte::<u16>(buf, at),
        byte::<u32>(buf, at),
        byte::<u64>(buf, at),
        byte::<usize>(buf, at),
        byte::<i8>(buf, at),
        byte::<i16>(buf, at),
        byte::<i32>(buf, at),
        byte::<i64>(buf, at),
        byte::<isize>(buf, at),
        byte::<String>(buf, at),
        byte::<f32>(buf, at),
        byte::<f64>(buf, at),
        byte::<(u64, String)>(buf, at),
        byte::<Vec<u64>>(buf, at),
        byte::<Vec<String>>(buf, at),
        byte::<Option<u64>>(buf, at),
        first::<u32>(buf, at),
        first::<u64>(buf, at),
        first::<(u64, u64)>(buf, at),
        delta::<u32>(buf, at),
        delta::<u64>(buf, at),
        delta::<(u64, u64)>(buf, at),
        block::<(u64, u64), RawCodec>(buf, at),
        block::<(u64, String), RawCodec>(buf, at),
        block::<(u64, u64), DeltaCodec>(buf, at),
        block::<(u64, String), DeltaCodec>(buf, at),
        block::<u64, DeltaCodec>(buf, at),
        block::<u64, GammaCodec>(buf, at),
    ];
    for (reader, end) in ends.into_iter().enumerate() {
        if let Some(end) = end {
            prop_assert!(end <= buf.len(), "reader {} ended at {} of {} bytes", reader, end, buf.len());
        }
    }
    Ok(())
}

// Random bytes, and valid encodings cut short or with bits flipped,
// through every decoder, read from the start and from a random byte.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn no_decoder_panics_on_hostile_bytes(
        noise in prop::collection::vec(any::<u8>(), 0..300),
        entries in prop::collection::vec(any::<(u64, u64)>(), 0..200),
        cut in any::<u64>(),
        flips in prop::collection::vec(any::<u64>(), 1..4),
        at in any::<u64>(),
    ) {
        let mut inputs = vec![noise];
        for valid in valid_encodings(&entries) {
            inputs.push(valid[..cut as usize % (valid.len() + 1)].to_vec());
            let mut flipped = valid;
            if !flipped.is_empty() {
                for &bit in &flips {
                    let bit = bit as usize % (flipped.len() * 8);
                    flipped[bit / 8] ^= 1 << (bit % 8);
                }
            }
            inputs.push(flipped);
        }
        for buf in &inputs {
            read_everything(buf, 0)?;
            read_everything(buf, at as usize % (buf.len() + 1))?;
        }
    }
}

/// The varint reader as one byte per step: the oracle for
/// `bytecode::try_read_varint`, whose word load must agree with it on
/// every input.
fn read_varint_bytewise(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value = 0u64;
    for shift in (0..70).step_by(7) {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        let group = u64::from(byte & 0x7f);
        if shift == 63 && byte > 1 {
            return None;
        }
        value |= group << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
    }
    None
}

/// Bytes that mostly continue a varint, with the stop and overflow
/// bytes of a 10th position mixed in.
fn varint_byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        any::<u8>(),
        any::<u8>().prop_map(|b| b | 0x80),
        any::<u8>().prop_map(|b| b | 0x80),
        prop::sample::select(vec![0x00u8, 0x01, 0x02, 0x7F, 0x80, 0x81, 0xFF]),
    ]
}

// The varint reader against the byte-at-a-time oracle, from every start
// offset of buffers that end before, inside and past its 16-byte window.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn varint_reader_matches_the_byte_loop(buf in prop::collection::vec(varint_byte(), 0..41)) {
        for at in 0..=buf.len() + 1 {
            let (mut fast, mut slow) = (at, at);
            let got = codecs::bytecode::try_read_varint(&buf, &mut fast);
            let want = read_varint_bytewise(&buf, &mut slow);
            prop_assert_eq!((at, got), (at, want));
            if want.is_some() {
                prop_assert_eq!((at, fast), (at, slow));
            }
        }
    }
}

/// The varint writer as one byte per step: the oracle for
/// `bytecode::write_varint`, whose one-word store must write the same
/// bytes.
fn write_varint_bytewise(mut v: u64, out: &mut Vec<u8>) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Values of every varint length.
fn any_length() -> impl Strategy<Value = u64> {
    (any::<u64>(), 0..64u32).prop_map(|(v, s)| v >> s)
}

// The varint writer against the byte-at-a-time oracle, value after value
// into one buffer that starts with and without room for its one-word
// store, and the reader reading every value back.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn varint_writer_matches_the_byte_loop(
        values in prop::collection::vec(any_length(), 0..40),
        room in 0..24usize,
    ) {
        let mut fast = Vec::with_capacity(room);
        let mut slow = Vec::new();
        for &v in &values {
            codecs::bytecode::write_varint(v, &mut fast);
            write_varint_bytewise(v, &mut slow);
            prop_assert_eq!(&fast, &slow);
        }
        let mut pos = 0;
        for &v in &values {
            prop_assert_eq!(codecs::bytecode::try_read_varint(&fast, &mut pos), Some(v));
        }
        prop_assert_eq!(pos, fast.len());
    }
}
