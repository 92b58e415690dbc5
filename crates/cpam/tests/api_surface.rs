//! Compile-only inventory of the public surface of `PacMap`, `PacSet`,
//! `DiffMap` and `DiffSet`: every constructor, method and trait impl is
//! named here with its full signature, by coercing the method item to a
//! fully typed fn pointer (closure parameters become fn-pointer types).
//! If a name disappears, a parameter changes type or order, or a return
//! type drifts, this file stops compiling — it is the executable form of
//! "every public name kept" for refactors of the collection front end.
//!
//! Instantiations: `u64` keys and `(u64, String)` entries with the
//! defaults (`NoAug`, `RawCodec`), and `(u64, u64)` / `u64` with
//! `SumAug` / `NoAug` over `DeltaCodec` through the `Diff*` aliases.

// Spelling every signature out in full is the point of this file.
#![allow(clippy::type_complexity)]

use std::fmt::Debug;
use std::sync::Arc;

use codecs::{DeltaCodec, EncodedBlock, RawCodec};
use cpam::structure::{BuildError, NodeOwned, NodeRef};
use cpam::{
    BlockSource, DiffMap, DiffSet, Iter, NoAug, PacMap, PacSet, RangePart, SpaceStats, SumAug,
};

/// The default-parameter map: `String` values, no augmentation, raw
/// blocks.
type M = PacMap<u64, String>;
/// A delta-coded, sum-augmented map (spelled through the alias).
type DM = DiffMap<u64, u64, SumAug>;
/// The default-parameter set.
type S = PacSet<u64>;
/// A delta-coded set.
type DS = DiffSet<u64>;

type MapBlock = Box<[(u64, String)]>;
type SetBlock = Box<[u64]>;

fn has_collection_traits<T, Item>()
where
    T: Clone + Default + Debug + PartialEq + FromIterator<Item> + Send + Sync + 'static,
{
}

#[test]
fn aliases_name_the_same_types() {
    // `DiffMap`/`DiffSet` are aliases, not new types: values flow both
    // ways without conversion.
    let dm: DM = PacMap::<u64, u64, SumAug, DeltaCodec>::new();
    let _: PacMap<u64, u64, SumAug, DeltaCodec> = dm;
    let ds: DS = PacSet::<u64, NoAug, DeltaCodec>::new();
    let _: PacSet<u64, NoAug, DeltaCodec> = ds;
    // The defaults are `NoAug` and `RawCodec`.
    let m: M = PacMap::<u64, String, NoAug, RawCodec>::new();
    let _: PacMap<u64, String> = m;
    let s: S = PacSet::<u64, NoAug, RawCodec>::new();
    let _: PacSet<u64> = s;
}

#[test]
fn handles_are_a_root_pointer_and_a_block_size() {
    let two_words = 2 * std::mem::size_of::<usize>();
    assert_eq!(std::mem::size_of::<PacMap<u64, u64>>(), two_words);
    assert_eq!(std::mem::size_of::<PacSet<u64>>(), two_words);
    assert_eq!(
        std::mem::size_of::<PacMap<u64, u64>>(),
        std::mem::size_of::<PacSet<u64>>()
    );
    assert_eq!(std::mem::size_of::<M>(), two_words);
    assert_eq!(std::mem::size_of::<DM>(), two_words);
    assert_eq!(std::mem::size_of::<DS>(), two_words);
}

#[test]
fn trait_impls() {
    has_collection_traits::<M, (u64, String)>();
    has_collection_traits::<DM, (u64, u64)>();
    has_collection_traits::<S, u64>();
    has_collection_traits::<DS, u64>();
}

#[test]
fn pac_map_surface() {
    // Constructors.
    let _: fn() -> M = M::new;
    let _: fn(usize) -> M = M::with_block_size;
    let _: fn(Vec<(u64, String)>) -> M = M::from_pairs;
    let _: fn(usize, Vec<(u64, String)>) -> M = M::from_pairs_with;
    let _: fn(usize, &[(u64, String)]) -> M = M::from_sorted_pairs;
    let _: fn(
        usize,
        Option<&M>,
        Option<Arc<dyn BlockSource<MapBlock>>>,
        &mut fn() -> Result<NodeOwned<(u64, String), MapBlock>, String>,
    ) -> Result<M, BuildError<String>> = M::from_node_stream;

    // Size and parameters.
    let _: fn(&M) -> usize = M::len;
    let _: fn(&M) -> bool = M::is_empty;
    let _: fn(&M) -> usize = M::block_size;

    // Point queries and updates.
    let _: fn(&M, &u64) -> Option<String> = M::find;
    let _: fn(&M, &u64) -> bool = M::contains_key;
    let _: fn(&M, u64, String) -> M = M::insert;
    let _: fn(M, u64, String) -> M = M::insert_owned;
    let _: fn(&M, u64, String, fn(&String, &String) -> String) -> M = M::insert_with;
    let _: fn(M, u64, String, fn(&String, &String) -> String) -> M = M::insert_with_owned;
    let _: fn(&M, &u64) -> M = M::remove;
    let _: fn(M, &u64) -> M = M::remove_owned;

    // Set algebra.
    let _: fn(&M, &M) -> M = M::union;
    let _: fn(M, M) -> M = M::union_owned;
    let _: fn(&M, &M, fn(&String, &String) -> String) -> M = M::union_with;
    let _: fn(M, M, fn(&String, &String) -> String) -> M = M::union_with_owned;
    let _: fn(&M, &M, fn(&String, &String) -> String) -> M = M::intersect_with;
    let _: fn(M, M, fn(&String, &String) -> String) -> M = M::intersect_with_owned;
    let _: fn(&M, &M) -> M = M::difference;
    let _: fn(M, M) -> M = M::difference_owned;

    // Batch updates.
    let _: fn(&M, Vec<(u64, String)>) -> M = M::multi_insert;
    let _: fn(M, Vec<(u64, String)>) -> M = M::multi_insert_owned;
    let _: fn(&M, Vec<(u64, String)>, fn(&String, &String) -> String) -> M = M::multi_insert_with;
    let _: fn(M, Vec<(u64, String)>, fn(&String, &String) -> String) -> M =
        M::multi_insert_with_owned;
    let _: fn(&M, Vec<u64>) -> M = M::multi_delete;
    let _: fn(M, Vec<u64>) -> M = M::multi_delete_owned;
    let _: fn(M, Vec<(u64, Option<String>)>) -> M = M::multi_update_owned;

    // Bulk transforms.
    let _: fn(&M, fn(&u64, &String) -> bool) -> M = M::filter;
    let _: fn(M, fn(&u64, &String) -> bool) -> M = M::filter_owned;
    let _: fn(&M, fn(&u64, &String) -> Vec<u8>) -> PacMap<u64, Vec<u8>> = M::map_values;
    let _: fn(&M, fn(&u64, &String) -> usize, fn(usize, usize) -> usize, usize) -> usize =
        M::map_reduce;

    // Order statistics.
    let _: fn(&M, &u64) -> usize = M::rank;
    let _: fn(&M, usize) -> Option<(u64, String)> = M::select;
    let _: fn(&M, &u64) -> Option<(u64, String)> = M::succ;
    let _: fn(&M, &u64) -> Option<(u64, String)> = M::pred;
    let _: fn(&M) -> Option<(u64, String)> = M::first;
    let _: fn(&M) -> Option<(u64, String)> = M::last;

    // Ranges and augmentation.
    let _: fn(&M, &u64, &u64) -> M = M::range;
    let _: fn(&M, &u64, &u64) -> Vec<(u64, String)> = M::range_entries;
    let _: fn(&M) = M::aug_value;
    let _: fn(&M, &u64, &u64) = M::aug_range;
    let _: fn(&M, &u64, &u64, fn(RangePart<'_, u64, String, ()>)) = M::range_decompose;
    let _: fn(&M, &u64, fn(&()) -> bool, fn(&u64, &String) -> bool) -> Vec<(u64, String)> =
        M::prune_search;
    let _: fn(&M, usize, fn(usize, &()) -> usize) -> usize = M::fold_augs;

    // Whole-collection views.
    let _: fn(&M) -> Vec<(u64, String)> = M::to_vec;
    let _: fn(&M) -> Vec<u64> = M::keys;
    let _: fn(&M) -> Vec<String> = M::values;
    let _: fn(&M) -> Iter<(u64, String), NoAug, RawCodec> = M::iter;
    let _: fn(&M) -> SpaceStats = M::space_stats;
    let _: fn(&M, Option<&M>, &mut fn(NodeRef<'_, (u64, String), MapBlock>)) = M::visit_nodes;
    let _: fn(&M) -> Result<(), String> = M::check_invariants;

    // Join-based primitives.
    let _: fn(&M, &M) -> M = M::append;
    let _: fn(&M, &u64) -> (M, Option<String>, M) = M::split;
    let _: fn(&M, u64, String, &M) -> M = M::join;
}

#[test]
fn diff_map_surface() {
    // The same names at `SumAug` + `DeltaCodec`, where the aggregate and
    // the block type are not the defaults.
    let _: fn() -> DM = DM::new;
    let _: fn(usize) -> DM = DM::with_block_size;
    let _: fn(Vec<(u64, u64)>) -> DM = DM::from_pairs;
    let _: fn(usize, Vec<(u64, u64)>) -> DM = DM::from_pairs_with;
    let _: fn(usize, &[(u64, u64)]) -> DM = DM::from_sorted_pairs;
    let _: fn(
        usize,
        Option<&DM>,
        Option<Arc<dyn BlockSource<EncodedBlock>>>,
        &mut fn() -> Result<NodeOwned<(u64, u64), EncodedBlock>, ()>,
    ) -> Result<DM, BuildError<()>> = DM::from_node_stream;

    let _: fn(&DM) -> usize = DM::len;
    let _: fn(&DM) -> bool = DM::is_empty;
    let _: fn(&DM) -> usize = DM::block_size;

    let _: fn(&DM, &u64) -> Option<u64> = DM::find;
    let _: fn(&DM, &u64) -> bool = DM::contains_key;
    let _: fn(&DM, u64, u64) -> DM = DM::insert;
    let _: fn(DM, u64, u64) -> DM = DM::insert_owned;
    let _: fn(&DM, u64, u64, fn(&u64, &u64) -> u64) -> DM = DM::insert_with;
    let _: fn(DM, u64, u64, fn(&u64, &u64) -> u64) -> DM = DM::insert_with_owned;
    let _: fn(&DM, &u64) -> DM = DM::remove;
    let _: fn(DM, &u64) -> DM = DM::remove_owned;

    let _: fn(&DM, &DM) -> DM = DM::union;
    let _: fn(DM, DM) -> DM = DM::union_owned;
    let _: fn(&DM, &DM, fn(&u64, &u64) -> u64) -> DM = DM::union_with;
    let _: fn(DM, DM, fn(&u64, &u64) -> u64) -> DM = DM::union_with_owned;
    let _: fn(&DM, &DM, fn(&u64, &u64) -> u64) -> DM = DM::intersect_with;
    let _: fn(DM, DM, fn(&u64, &u64) -> u64) -> DM = DM::intersect_with_owned;
    let _: fn(&DM, &DM) -> DM = DM::difference;
    let _: fn(DM, DM) -> DM = DM::difference_owned;

    let _: fn(&DM, Vec<(u64, u64)>) -> DM = DM::multi_insert;
    let _: fn(DM, Vec<(u64, u64)>) -> DM = DM::multi_insert_owned;
    let _: fn(&DM, Vec<(u64, u64)>, fn(&u64, &u64) -> u64) -> DM = DM::multi_insert_with;
    let _: fn(DM, Vec<(u64, u64)>, fn(&u64, &u64) -> u64) -> DM = DM::multi_insert_with_owned;
    let _: fn(&DM, Vec<u64>) -> DM = DM::multi_delete;
    let _: fn(DM, Vec<u64>) -> DM = DM::multi_delete_owned;

    let _: fn(&DM, fn(&u64, &u64) -> bool) -> DM = DM::filter;
    let _: fn(DM, fn(&u64, &u64) -> bool) -> DM = DM::filter_owned;
    // `map_values` drops augmentation and compression.
    let _: fn(&DM, fn(&u64, &u64) -> String) -> PacMap<u64, String, NoAug, RawCodec> =
        DM::map_values;
    let _: fn(&DM, fn(&u64, &u64) -> u64, fn(u64, u64) -> u64, u64) -> u64 = DM::map_reduce;

    let _: fn(&DM, &u64) -> usize = DM::rank;
    let _: fn(&DM, usize) -> Option<(u64, u64)> = DM::select;
    let _: fn(&DM, &u64) -> Option<(u64, u64)> = DM::succ;
    let _: fn(&DM, &u64) -> Option<(u64, u64)> = DM::pred;
    let _: fn(&DM) -> Option<(u64, u64)> = DM::first;
    let _: fn(&DM) -> Option<(u64, u64)> = DM::last;

    let _: fn(&DM, &u64, &u64) -> DM = DM::range;
    let _: fn(&DM, &u64, &u64) -> Vec<(u64, u64)> = DM::range_entries;
    let _: fn(&DM) -> u64 = DM::aug_value;
    let _: fn(&DM, &u64, &u64) -> u64 = DM::aug_range;
    let _: fn(&DM, &u64, &u64, fn(RangePart<'_, u64, u64, u64>)) = DM::range_decompose;
    let _: fn(&DM, &u64, fn(&u64) -> bool, fn(&u64, &u64) -> bool) -> Vec<(u64, u64)> =
        DM::prune_search;
    let _: fn(&DM, u64, fn(u64, &u64) -> u64) -> u64 = DM::fold_augs;

    let _: fn(&DM) -> Vec<(u64, u64)> = DM::to_vec;
    let _: fn(&DM) -> Vec<u64> = DM::keys;
    let _: fn(&DM) -> Vec<u64> = DM::values;
    let _: fn(&DM) -> Iter<(u64, u64), SumAug, DeltaCodec> = DM::iter;
    let _: fn(&DM) -> SpaceStats = DM::space_stats;
    let _: fn(&DM, Option<&DM>, &mut fn(NodeRef<'_, (u64, u64), EncodedBlock>)) = DM::visit_nodes;
    let _: fn(&DM) -> Result<(), String> = DM::check_invariants;

    let _: fn(&DM, &DM) -> DM = DM::append;
    let _: fn(&DM, &u64) -> (DM, Option<u64>, DM) = DM::split;
    let _: fn(&DM, u64, u64, &DM) -> DM = DM::join;
}

#[test]
fn pac_set_surface() {
    // Constructors.
    let _: fn() -> S = S::new;
    let _: fn(usize) -> S = S::with_block_size;
    let _: fn(Vec<u64>) -> S = S::from_keys;
    let _: fn(usize, Vec<u64>) -> S = S::from_keys_with;
    let _: fn(usize, &[u64]) -> S = S::from_sorted_keys;
    let _: fn(
        usize,
        Option<&S>,
        Option<Arc<dyn BlockSource<SetBlock>>>,
        &mut fn() -> Result<NodeOwned<u64, SetBlock>, String>,
    ) -> Result<S, BuildError<String>> = S::from_node_stream;

    // Size and parameters.
    let _: fn(&S) -> usize = S::len;
    let _: fn(&S) -> bool = S::is_empty;
    let _: fn(&S) -> usize = S::block_size;

    // Point queries and updates.
    let _: fn(&S, &u64) -> bool = S::contains;
    let _: fn(&S, u64) -> S = S::insert;
    let _: fn(S, u64) -> S = S::insert_owned;
    let _: fn(&S, &u64) -> S = S::remove;
    let _: fn(S, &u64) -> S = S::remove_owned;

    // Set algebra.
    let _: fn(&S, &S) -> S = S::union;
    let _: fn(S, S) -> S = S::union_owned;
    let _: fn(&S, &S) -> S = S::intersect;
    let _: fn(S, S) -> S = S::intersect_owned;
    let _: fn(&S, &S) -> S = S::difference;
    let _: fn(S, S) -> S = S::difference_owned;
    let _: fn(&S, &S) -> S = S::union_naive;

    // Batch updates.
    let _: fn(&S, Vec<u64>) -> S = S::multi_insert;
    let _: fn(S, Vec<u64>) -> S = S::multi_insert_owned;
    let _: fn(&S, Vec<u64>) -> S = S::multi_delete;
    let _: fn(S, Vec<u64>) -> S = S::multi_delete_owned;

    // Bulk transforms.
    let _: fn(&S, fn(&u64) -> bool) -> S = S::filter;
    let _: fn(S, fn(&u64) -> bool) -> S = S::filter_owned;
    let _: fn(&S, fn(&u64) -> usize, fn(usize, usize) -> usize, usize) -> usize = S::map_reduce;

    // Order statistics.
    let _: fn(&S, &u64) -> usize = S::rank;
    let _: fn(&S, usize) -> Option<u64> = S::select;
    let _: fn(&S, &u64) -> Option<u64> = S::succ;
    let _: fn(&S, &u64) -> Option<u64> = S::pred;
    let _: fn(&S) -> Option<u64> = S::first;
    let _: fn(&S) -> Option<u64> = S::last;

    // Ranges and augmentation.
    let _: fn(&S, &u64, &u64) -> S = S::range;
    let _: fn(&S, &u64, &u64) -> Vec<u64> = S::range_keys;
    let _: fn(&S, &u64, &u64) -> usize = S::count_range;
    let _: fn(&S) = S::aug_value;

    // Whole-collection views.
    let _: fn(&S) -> Vec<u64> = S::to_vec;
    let _: fn(&S) -> Iter<u64, NoAug, RawCodec> = S::iter;
    let _: fn(&S) -> SpaceStats = S::space_stats;
    let _: fn(&S, Option<&S>, &mut fn(NodeRef<'_, u64, SetBlock>)) = S::visit_nodes;
    let _: fn(&S) -> Result<(), String> = S::check_invariants;

    // Join-based primitives.
    let _: fn(&S, &u64) -> (S, bool, S) = S::split;
}

#[test]
fn diff_set_surface() {
    let _: fn() -> DS = DS::new;
    let _: fn(usize) -> DS = DS::with_block_size;
    let _: fn(Vec<u64>) -> DS = DS::from_keys;
    let _: fn(usize, Vec<u64>) -> DS = DS::from_keys_with;
    let _: fn(usize, &[u64]) -> DS = DS::from_sorted_keys;
    let _: fn(
        usize,
        Option<&DS>,
        Option<Arc<dyn BlockSource<EncodedBlock>>>,
        &mut fn() -> Result<NodeOwned<u64, EncodedBlock>, ()>,
    ) -> Result<DS, BuildError<()>> = DS::from_node_stream;

    let _: fn(&DS) -> usize = DS::len;
    let _: fn(&DS) -> bool = DS::is_empty;
    let _: fn(&DS) -> usize = DS::block_size;

    let _: fn(&DS, &u64) -> bool = DS::contains;
    let _: fn(&DS, u64) -> DS = DS::insert;
    let _: fn(DS, u64) -> DS = DS::insert_owned;
    let _: fn(&DS, &u64) -> DS = DS::remove;
    let _: fn(DS, &u64) -> DS = DS::remove_owned;

    let _: fn(&DS, &DS) -> DS = DS::union;
    let _: fn(DS, DS) -> DS = DS::union_owned;
    let _: fn(&DS, &DS) -> DS = DS::intersect;
    let _: fn(DS, DS) -> DS = DS::intersect_owned;
    let _: fn(&DS, &DS) -> DS = DS::difference;
    let _: fn(DS, DS) -> DS = DS::difference_owned;
    let _: fn(&DS, &DS) -> DS = DS::union_naive;

    let _: fn(&DS, Vec<u64>) -> DS = DS::multi_insert;
    let _: fn(DS, Vec<u64>) -> DS = DS::multi_insert_owned;
    let _: fn(&DS, Vec<u64>) -> DS = DS::multi_delete;
    let _: fn(DS, Vec<u64>) -> DS = DS::multi_delete_owned;

    let _: fn(&DS, fn(&u64) -> bool) -> DS = DS::filter;
    let _: fn(DS, fn(&u64) -> bool) -> DS = DS::filter_owned;
    let _: fn(&DS, fn(&u64) -> String, fn(String, String) -> String, String) -> String =
        DS::map_reduce;

    let _: fn(&DS, &u64) -> usize = DS::rank;
    let _: fn(&DS, usize) -> Option<u64> = DS::select;
    let _: fn(&DS, &u64) -> Option<u64> = DS::succ;
    let _: fn(&DS, &u64) -> Option<u64> = DS::pred;
    let _: fn(&DS) -> Option<u64> = DS::first;
    let _: fn(&DS) -> Option<u64> = DS::last;

    let _: fn(&DS, &u64, &u64) -> DS = DS::range;
    let _: fn(&DS, &u64, &u64) -> Vec<u64> = DS::range_keys;
    let _: fn(&DS, &u64, &u64) -> usize = DS::count_range;
    let _: fn(&DS) = DS::aug_value;

    let _: fn(&DS) -> Vec<u64> = DS::to_vec;
    let _: fn(&DS) -> Iter<u64, NoAug, DeltaCodec> = DS::iter;
    let _: fn(&DS) -> SpaceStats = DS::space_stats;
    let _: fn(&DS, Option<&DS>, &mut fn(NodeRef<'_, u64, EncodedBlock>)) = DS::visit_nodes;
    let _: fn(&DS) -> Result<(), String> = DS::check_invariants;

    let _: fn(&DS, &u64) -> (DS, bool, DS) = DS::split;
}
