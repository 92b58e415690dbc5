//! The store's error type: every way a disk image or a commit can fail,
//! as a typed error rather than a panic.

use codecs::BlockIoError;

/// Errors from store operations (open, load, save, commit, version
/// lookup).
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file does not start with the page magic — not a pacstore
    /// page file, or one written by an earlier build's formats (or the
    /// header itself was clobbered).
    BadMagic,
    /// The snapshot was written with a different block codec than the
    /// one this store is instantiated with.
    CodecMismatch {
        /// Codec id found in the file header.
        found: u8,
        /// Codec id of the store's type parameter.
        expected: u8,
        /// Name of the expected codec, for the error message.
        expected_name: &'static str,
    },
    /// The checksum stored in the file does not match the checksum of
    /// its contents: the file was truncated or bit-flipped.
    ChecksumMismatch {
        /// Checksum read from the file trailer.
        stored: u32,
        /// Checksum computed over the file contents.
        computed: u32,
    },
    /// The file was written with different key/value types than the
    /// ones this store is instantiated with (entry-type fingerprints
    /// differ; see [`crate::checksum::schema_id`]).
    SchemaMismatch {
        /// Fingerprint found in the file.
        found: u32,
        /// Fingerprint of the store's key/value types.
        expected: u32,
    },
    /// The byte stream ended inside the named structure.
    Truncated(&'static str),
    /// The bytes parsed but described an impossible structure.
    Corrupt(String),
    /// [`crate::ShardedStore::snapshot_at`] was asked for a version
    /// that is neither current nor retained in history.
    VersionNotFound(u64),
    /// A disk operation (`save`, log append) on an in-memory store.
    Ephemeral,
    /// The store directory is already open (its lock file is held by
    /// another live handle, possibly in another process).
    Locked,
    /// An earlier failed log append could not be rolled back, so the
    /// log cannot accept further groups until a checkpoint
    /// ([`crate::ShardedStore::save`] or
    /// [`crate::ShardedStore::compact`]) rewrites it.
    LogPoisoned,
    /// The commit group this batch was part of failed; the message is
    /// the leader's error.
    CommitFailed(String),
    /// The key-range boundaries handed to a [`crate::Router`] were not
    /// strictly ascending.
    InvalidBoundaries(String),
    /// A store directory's partition map disagrees with the store
    /// being opened (shard count, or a missing/foreign file) — which
    /// includes [`crate::PacStore::open`] on a multi-shard directory.
    PartitionMismatch(String),
    /// The directory holds an earlier build's layout: the flat
    /// single-directory one `PacStore` wrote before it became the
    /// one-shard case of the sharded engine (snapshot pages or a log at
    /// the root, no partition map), the one with a manifest at the root
    /// and a log in every shard directory, or a shard directory with a
    /// paged snapshot from before there was one page format. It is
    /// refused rather than shadowed by a fresh, empty store.
    LegacyLayout(String),
    /// The log references versions the checkpoint pages do not reach: a
    /// checkpoint head the pages fall short of, or a record more than
    /// one step past a shard's version, so the intermediate history is
    /// gone (a snapshot or incremental page was deleted after the log
    /// was rewritten past it). Replaying anyway would silently resurrect
    /// an old state with the missing commits lost.
    VersionGap {
        /// The version the checkpoint pages reach.
        checkpoint: u64,
        /// The first version the log asks to apply.
        first: u64,
    },
    /// [`crate::ShardedStore::unpin_version`] was asked to release a
    /// version that holds no pin.
    NotPinned(u64),
    /// [`crate::ShardedStore::save_incremental`] was asked to diff
    /// against a version that is not the store's latest checkpoint.
    CheckpointMismatch {
        /// The base version the caller asked to diff against.
        requested: u64,
        /// The store's actual latest checkpoint, if any.
        actual: Option<u64>,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::BadMagic => f.write_str("not a pacstore snapshot (bad magic)"),
            StoreError::CodecMismatch {
                found,
                expected,
                expected_name,
            } => write!(
                f,
                "snapshot written with codec id {found}, store expects {expected} ({expected_name})"
            ),
            StoreError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch (stored {stored:#010x}, computed {computed:#010x}): \
                 file truncated or corrupted"
            ),
            StoreError::SchemaMismatch { found, expected } => write!(
                f,
                "entry-type mismatch: file written with key/value types fingerprinted \
                 {found:#010x}, store expects {expected:#010x}"
            ),
            StoreError::Truncated(what) => write!(f, "truncated while reading {what}"),
            StoreError::Corrupt(what) => write!(f, "corrupt data: {what}"),
            StoreError::VersionNotFound(v) => write!(f, "version {v} not in history"),
            StoreError::Ephemeral => f.write_str("store has no directory (in-memory)"),
            StoreError::Locked => {
                f.write_str("store directory is locked by another live handle")
            }
            StoreError::LogPoisoned => f.write_str(
                "batch log poisoned by an unrolled-back append failure; save() resets it"
            ),
            StoreError::CommitFailed(msg) => write!(f, "commit group failed: {msg}"),
            StoreError::InvalidBoundaries(msg) => {
                write!(f, "invalid partition boundaries: {msg}")
            }
            StoreError::PartitionMismatch(msg) => {
                write!(f, "partition map mismatch: {msg}")
            }
            StoreError::LegacyLayout(msg) => write!(f, "legacy store layout: {msg}"),
            StoreError::VersionGap { checkpoint, first } => write!(
                f,
                "log references version {first} but the checkpoint pages only reach \
                 {checkpoint}: intermediate versions are missing (snapshot or \
                 incremental page deleted?)"
            ),
            StoreError::NotPinned(v) => write!(f, "version {v} is not pinned"),
            StoreError::CheckpointMismatch { requested, actual } => match actual {
                Some(actual) => write!(
                    f,
                    "incremental save requested against version {requested}, but the \
                     latest checkpoint is {actual}"
                ),
                None => write!(
                    f,
                    "incremental save requested against version {requested}, but the \
                     store has no checkpoint yet (save a full snapshot first)"
                ),
            },
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<BlockIoError> for StoreError {
    fn from(e: BlockIoError) -> Self {
        match e {
            BlockIoError::Truncated => StoreError::Truncated("block frame"),
            BlockIoError::Malformed(what) => StoreError::Corrupt(what.to_string()),
        }
    }
}
