//! Entries and keys: what a tree stores and how it is ordered.
//!
//! A PaC-tree stores *entries*; ordered collections (sets, maps) require
//! the entry to expose a key ([`Entry`]). Sequences store arbitrary
//! [`Element`]s and never consult keys.

/// Anything storable in a tree: cloneable and shareable across workers.
///
/// Blanket-implemented; you never implement this by hand.
pub trait Element: Clone + Send + Sync + 'static {}
impl<T: Clone + Send + Sync + 'static> Element for T {}

/// A scalar key type usable directly as a set element.
///
/// Deliberately *not* blanket-implemented: tuples must not be scalar keys
/// so that `(K, V)` can unambiguously be a map entry.
pub trait ScalarKey: Ord + Clone + Send + Sync + 'static {}

macro_rules! impl_scalar_key {
    ($($t:ty),*) => {$( impl ScalarKey for $t {} )*};
}
impl_scalar_key!(
    u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize, char, bool, String
);

/// An entry of an ordered collection: exposes the key it is ordered by.
///
/// * A set element is its own key (`impl Entry for K` via [`ScalarKey`]).
/// * A map entry is a `(K, V)` pair keyed by `K`.
///
/// # Examples
///
/// ```
/// use cpam::Entry;
/// let pair = (42u64, "value");
/// assert_eq!(*Entry::key(&pair), 42);
/// let scalar = 7u32;
/// assert_eq!(*Entry::key(&scalar), 7);
/// ```
pub trait Entry: Element {
    /// The ordering key type.
    type Key: Ord + Clone + Send + Sync + 'static;
    /// The key of this entry.
    fn key(&self) -> &Self::Key;
}

impl<K: ScalarKey> Entry for K {
    type Key = K;
    fn key(&self) -> &K {
        self
    }
}

impl<K: ScalarKey, V: Element> Entry for (K, V) {
    type Key = K;
    fn key(&self) -> &K {
        &self.0
    }
}

/// One change of a key-sorted update batch: every update — point or
/// batch, insert or remove, or a set operation's smaller operand — is a
/// batch of these.
pub(crate) enum Edit<E: Entry> {
    Put(E),
    Remove(E::Key),
    /// Kept only where the key is stored, as `f(old, new)`: intersection.
    Meet(E),
    /// Kept only where the key is not stored: `small − large`.
    Unless(E),
}

impl<E: Entry> Edit<E> {
    pub(crate) fn key(&self) -> &E::Key {
        match self {
            Edit::Put(e) | Edit::Meet(e) | Edit::Unless(e) => e.key(),
            Edit::Remove(k) => k,
        }
    }

    /// Whether the edit can add an entry: a put or `Unless` that misses.
    pub(crate) fn grows(&self) -> bool {
        matches!(self, Edit::Put(_) | Edit::Unless(_))
    }

    /// What the edit leaves under its key when `old` is stored there: a
    /// put stores its entry, or `f(old, new)` over an existing one; a
    /// removal leaves nothing; a meet leaves `f(old, new)` on a hit and
    /// nothing on a miss; an `Unless` the reverse, its entry on a miss.
    pub(crate) fn apply(&self, old: Option<&E>, f: &impl Fn(&E, &E) -> E) -> Option<E> {
        match (self, old) {
            (Edit::Put(new) | Edit::Unless(new), None) => Some(new.clone()),
            (Edit::Put(new) | Edit::Meet(new), Some(old)) => Some(f(old, new)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_entry_is_its_own_key() {
        assert_eq!(*Entry::key(&5u64), 5);
        assert_eq!(*Entry::key(&"s".to_string()), "s".to_string());
    }

    #[test]
    fn pair_entry_keyed_by_first() {
        let e = (3u32, vec![1, 2]);
        assert_eq!(*Entry::key(&e), 3);
    }
}
