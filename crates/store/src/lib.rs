//! Durable on-disk storage for unreliable databases.
//!
//! A *store* is a directory holding any number of named datasets, each
//! an [`UnreliableDatabaseSpec`]-equivalent body of facts that outlives
//! a single process:
//!
//! * **Segments** ([`segment`]) are immutable, append-only files of
//!   per-relation columnar blocks — arity-typed fact columns plus a
//!   per-fact probability column — each block framed as a CRC-checked
//!   page, so torn or bit-rotted data is detected on read, never
//!   silently decoded.
//! * **The manifest** ([`manifest`]) is the single source of truth for
//!   which segments exist. It is replaced atomically (write-temp →
//!   fsync → rename → directory fsync), so a crash at any instant
//!   leaves either the old manifest or the new one — referenced
//!   segments are always fully written, and anything else on disk is
//!   an orphan that [`Store::open`] garbage-collects.
//! * **The db-hash** ([`hash`]) is an order-independent XOR combine of
//!   per-fact state hashes over a vocabulary/universe/model base. It is
//!   maintained *incrementally* across commits (`h ^= old ^ new` per
//!   touched fact), equals the from-scratch recomputation bit-for-bit,
//!   and keys the serve layer's result cache and scheduler coalescing —
//!   so a batched mutation invalidates exactly the touched dataset's
//!   cache entries and nothing else.
//!
//! The write path batches fact upserts/deletes ([`Mutation`]) and
//! merges each batch into one new segment per commit; the read path
//! ([`StoredDataset`]) reads segment bytes once and decodes them
//! lazily, one relation at a time, reconstructing a [`qrel_db::Database`]
//! (and the full [`UnreliableDatabase`] model) only from the blocks the
//! caller actually touches.
//!
//! Spec text reaches a model through one decoder, [`DecodedSpec`]
//! ([`decode`]), which reads JSON straight into the observed database
//! and its error rows.
//!
//! Crash-safety is exercised, not assumed: the fault points
//! `store.segment.torn_write` and `store.commit.crash` (see
//! [`qrel_faults::points`]) abort a commit after a partial segment
//! write or between segment publish and manifest publish, and the
//! chaos harness verifies a reopen always recovers the last committed
//! state.
//!
//! [`UnreliableDatabaseSpec`]: qrel_prob::UnreliableDatabaseSpec
//! [`UnreliableDatabase`]: qrel_prob::UnreliableDatabase

pub mod decode;
pub mod hash;
pub mod manifest;
pub mod segment;
mod store;

pub use decode::{decode_text, DecodeError, DecodedSpec, FactRows, RowShape};
pub use hash::{db_hash_of, fact_state_hash, live_fact_count};
pub use manifest::{DatasetEntry, Manifest, RelDecl, SegmentRef};
pub use segment::FactOp;
pub use store::{CommitStats, Mutation, Store, StoreError, StoredDataset};
