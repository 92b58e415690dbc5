//! Lazy leaf behaviour: `from_node_stream` with a [`BlockSource`] builds
//! a tree whose leaves are page references, materialized through the
//! source only when a query path crosses them.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::structure::{NodeOwned, NodeRef};
use crate::{BlockSource, PacMap};

type Block = Box<[(u64, u64)]>;
type LazyNode = NodeOwned<(u64, u64), Block>;

/// An in-memory page store that counts loads.
struct VecSource {
    pages: Vec<Arc<Block>>,
    loads: AtomicUsize,
}

impl BlockSource<Block> for VecSource {
    fn load(&self, page: u32) -> Arc<Block> {
        self.loads.fetch_add(1, Ordering::Relaxed);
        Arc::clone(&self.pages[page as usize])
    }
}

/// Flattens `map` into (pre-order structure stream, page store).
fn page_out(map: &PacMap<u64, u64>) -> (Vec<LazyNode>, VecSource) {
    let mut stream = Vec::new();
    let mut pages: Vec<Arc<Block>> = Vec::new();
    map.visit_nodes(None, &mut |node| match node {
        NodeRef::Empty => stream.push(NodeOwned::Empty),
        NodeRef::Regular(e) => stream.push(NodeOwned::Regular(*e)),
        NodeRef::Flat(block) => {
            stream.push(NodeOwned::Lazy {
                page: pages.len() as u32,
                len: block.len() as u32,
            });
            pages.push(Arc::new(block.clone()));
        }
        NodeRef::Shared { .. } => unreachable!("no base to share with"),
    });
    (
        stream,
        VecSource {
            pages,
            loads: AtomicUsize::new(0),
        },
    )
}

fn paged_copy(map: &PacMap<u64, u64>) -> (PacMap<u64, u64>, Arc<VecSource>) {
    let (stream, src) = page_out(map);
    let src = Arc::new(src);
    let mut it = stream.into_iter();
    let lazy = PacMap::from_node_stream::<()>(
        map.block_size(),
        None,
        Some(src.clone() as Arc<dyn BlockSource<Block>>),
        &mut || Ok(it.next().expect("stream exhausted")),
    )
    .expect("valid stream");
    (lazy, src)
}

const B: usize = 8;

fn sample(n: u64) -> PacMap<u64, u64> {
    PacMap::from_sorted_pairs(B, &(0..n).map(|i| (i * 3, i)).collect::<Vec<_>>())
}

#[test]
fn open_is_lazy_and_queries_page_on_demand() {
    let map = sample(10_000);
    let (lazy, src) = paged_copy(&map);
    // Building from the stream reads no pages at all.
    assert_eq!(src.loads.load(Ordering::Relaxed), 0);
    assert_eq!(lazy.len(), map.len());

    // One point query crosses exactly one leaf.
    assert_eq!(lazy.find(&300), Some(100));
    assert_eq!(src.loads.load(Ordering::Relaxed), 1);

    // A short range touches O(range/B) pages, not all of them.
    let hits = lazy.range_entries(&3000, &3090);
    assert_eq!(hits, map.range_entries(&3000, &3090));
    let after_range = src.loads.load(Ordering::Relaxed);
    assert!(after_range < src.pages.len() / 2, "range loaded {after_range} pages");
}

#[test]
fn lazy_tree_is_equivalent_and_valid() {
    for n in [0u64, 1, 5, 40, 1000] {
        let map = sample(n);
        let (lazy, _src) = paged_copy(&map);
        lazy.check_invariants().unwrap();
        assert!(lazy.iter().eq(map.iter()));
        assert_eq!(lazy.space_stats().entries, map.len());
    }
}

#[test]
fn every_leaf_access_asks_the_source_exactly_once() {
    // At most 2B entries: the whole tree is one lazy leaf, so every
    // operation below is exactly one leaf access.
    let map = sample(12);
    let (lazy, src) = paged_copy(&map);
    assert_eq!(src.pages.len(), 1);
    let mut expected = 0;
    let mut one_more = |what: &str| {
        expected += 1;
        assert_eq!(src.loads.load(Ordering::Relaxed), expected, "{what}");
    };
    // The tree keeps no handle of its own: a re-read of a page the
    // source still holds goes back to the source, so the source's
    // counters (and its replacement policy) see every access.
    for _ in 0..3 {
        assert_eq!(lazy.find(&30), Some(10));
        one_more("find");
    }
    assert_eq!(lazy.rank(&30), 10);
    one_more("rank");
    assert_eq!(lazy.select(10), Some((30, 10)));
    one_more("select");
    // Updates load the leaf they rewrite once, and hold that handle
    // across probe and rebuild: a miss and a hit both cost one load.
    assert_eq!(lazy.remove(&31).len(), map.len());
    one_more("remove miss");
    assert_eq!(lazy.remove(&30).len(), map.len() - 1);
    one_more("remove hit");
    assert_eq!(lazy.insert(31, 7).len(), map.len() + 1);
    one_more("insert");
}

#[test]
fn updates_materialize_only_the_touched_leaf() {
    let map = sample(2_000);
    let (lazy, src) = paged_copy(&map);
    let updated = lazy.insert(301, 7);
    assert_eq!(updated.find(&301), Some(7));
    assert_eq!(updated.find(&300), Some(100));
    assert_eq!(updated.len(), map.len() + 1);
    // The insert path materialized one leaf; verification reads more,
    // but the update itself stays O(path).
    assert!(src.loads.load(Ordering::Relaxed) <= 4);
    updated.check_invariants().unwrap();
}

#[test]
fn set_ops_on_lazy_trees_match_eager() {
    let a = sample(800);
    let (lazy_a, _) = paged_copy(&a);
    let b = PacMap::from_sorted_pairs(B, &(0..500u64).map(|i| (i * 5, i + 9)).collect::<Vec<_>>());
    let eager = a.union(&b);
    let from_lazy = lazy_a.union(&b);
    assert!(from_lazy.iter().eq(eager.iter()));
    from_lazy.check_invariants().unwrap();
}

#[test]
fn oversized_paged_leaf_is_rejected() {
    let src = Arc::new(VecSource {
        pages: vec![Arc::new((0..100u64).map(|i| (i, i)).collect::<Vec<_>>().into_boxed_slice())],
        loads: AtomicUsize::new(0),
    });
    let mut fed = false;
    let res = PacMap::<u64, u64>::from_node_stream::<()>(
        B,
        None,
        Some(src as Arc<dyn BlockSource<Block>>),
        &mut || {
            assert!(!std::mem::replace(&mut fed, true), "should stop after one node");
            Ok(NodeOwned::Lazy { page: 0, len: 100 })
        },
    );
    assert!(res.is_err());
}

#[test]
fn lazy_leaf_in_an_augmented_map_is_rejected() {
    // A lazy leaf carries the identity aggregate; under `SumAug` that
    // would silently read as a sum of zero.
    let (stream, src) = page_out(&sample(100));
    let mut it = stream.into_iter();
    let res = PacMap::<u64, u64, crate::SumAug>::from_node_stream::<()>(
        B,
        None,
        Some(Arc::new(src) as Arc<dyn BlockSource<Block>>),
        &mut || Ok(it.next().expect("stream exhausted")),
    );
    assert!(res.is_err());
}
