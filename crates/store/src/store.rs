//! The store itself: open/init, batched commits, lazy reads, recovery,
//! and compaction.

use crate::hash::{base_hash, db_hash_of, fact_state_hash, live_fact_count};
use crate::manifest::{
    manifest_path, read_manifest, segments_dir, write_manifest, DatasetEntry, Manifest, RelDecl,
    SegmentRef,
};
use crate::segment::{encode_segment, scan_relation, verify_pages, FactOp, RelationBlock};
use qrel_db::{Database, Universe};
use qrel_logic::vocab::Vocabulary;
use qrel_prob::{
    ErrorModel, FactRow, FactRule, ModelError, UnreliableDatabase, UnreliableDatabaseSpec,
};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Anything that can go wrong talking to a store.
#[derive(Debug)]
pub enum StoreError {
    Io(String),
    /// On-disk data failed validation (bad magic, checksum, manifest).
    Corrupt(String),
    UnknownDataset(String),
    DatasetExists(String),
    /// A mutation, spec or model name the fact rule rejects
    /// ([`qrel_prob::FactRule`]); nothing was written.
    Invalid(ModelError),
    /// A deterministic fault-injection point fired (chaos testing).
    Injected(&'static str),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "store I/O error: {m}"),
            StoreError::Corrupt(m) => write!(f, "store corrupt: {m}"),
            StoreError::UnknownDataset(n) => write!(f, "unknown dataset {n:?}"),
            StoreError::DatasetExists(n) => write!(f, "dataset {n:?} already exists"),
            StoreError::Invalid(e) => write!(f, "{e}"),
            StoreError::Injected(what) => write!(f, "injected fault: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<ModelError> for StoreError {
    fn from(e: ModelError) -> Self {
        StoreError::Invalid(e)
    }
}

/// One staged fact mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mutation {
    pub relation: String,
    pub tuple: Vec<u32>,
    pub op: FactOp,
}

impl Mutation {
    /// Upsert `(present, μ)` for a fact.
    pub fn set(relation: &str, tuple: Vec<u32>, present: bool, mu: &str) -> Self {
        Mutation {
            relation: relation.to_string(),
            tuple,
            op: FactOp::Set {
                present,
                mu: mu.to_string(),
            },
        }
    }

    /// Reset a fact to its default state (absent, μ = 0).
    pub fn reset(relation: &str, tuple: Vec<u32>) -> Self {
        Mutation {
            relation: relation.to_string(),
            tuple,
            op: FactOp::Reset,
        }
    }
}

/// What one commit did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitStats {
    /// Segment file written (`None` when the batch was a no-op).
    pub segment: Option<String>,
    /// Rows in that segment.
    pub rows: u64,
    /// Dataset live-fact count after the commit.
    pub live_facts: u64,
    /// Dataset db-hash after the commit.
    pub db_hash: u64,
    /// Wall-clock commit latency in milliseconds.
    pub elapsed_ms: u64,
}

/// The current `(present, μ)` state of a fact; the default is
/// `(false, "0")`.
pub type FactState = (bool, String);

const DEFAULT_STATE: FactState = (false, String::new());

fn state_mu(state: &FactState) -> &str {
    if state.1.is_empty() {
        "0"
    } else {
        &state.1
    }
}

fn is_default(state: &FactState) -> bool {
    !state.0 && state_mu(state) == "0"
}

/// The dataset's vocabulary, in declaration order.
fn vocabulary(entry: &DatasetEntry) -> Vocabulary {
    Vocabulary::from_pairs(
        entry
            .relations
            .iter()
            .map(|r| (r.name.clone(), r.arity as usize)),
    )
}

/// The dataset's error model; an unknown name means the manifest is
/// damaged, not that a client erred.
fn error_model(entry: &DatasetEntry) -> Result<ErrorModel, StoreError> {
    ErrorModel::parse(&entry.model)
        .map_err(|e| StoreError::Corrupt(format!("dataset {:?}: {e}", entry.name)))
}

fn state_hash(relation: &str, tuple: &[u32], state: &FactState) -> u64 {
    fact_state_hash(relation, tuple, state.0, state_mu(state))
}

fn op_to_state(op: &FactOp) -> FactState {
    match op {
        FactOp::Reset => DEFAULT_STATE,
        FactOp::Set { present, mu } => (*present, mu.clone()),
    }
}

// ---------------------------------------------------------------------------
// Read path

/// A dataset opened for reading: segment bytes are loaded once, blocks
/// are decoded lazily per relation on first touch.
pub struct StoredDataset {
    entry: DatasetEntry,
    /// Raw segment file images, oldest first.
    segments: Vec<Vec<u8>>,
    /// Decoded, merged per-relation state (filled on demand).
    merged: HashMap<String, BTreeMap<Vec<u32>, FactState>>,
}

impl StoredDataset {
    /// The manifest entry this view was opened from.
    pub fn entry(&self) -> &DatasetEntry {
        &self.entry
    }

    /// Merged state of one relation: newest segment row wins per tuple.
    /// First access decodes only this relation's blocks; every other
    /// block is checksum-verified and skipped.
    pub fn relation_state(
        &mut self,
        relation: &str,
    ) -> Result<&BTreeMap<Vec<u32>, FactState>, StoreError> {
        if !self.entry.relations.iter().any(|r| r.name == relation) {
            return Err(ModelError::UnknownRelation(relation.to_string()).into());
        }
        if !self.merged.contains_key(relation) {
            let mut state: BTreeMap<Vec<u32>, FactState> = BTreeMap::new();
            for bytes in &self.segments {
                for (tuple, op) in scan_relation(bytes, relation)
                    .map_err(|e| StoreError::Corrupt(e.to_string()))?
                {
                    match op {
                        FactOp::Reset => {
                            state.remove(&tuple);
                        }
                        FactOp::Set { present, mu } => {
                            state.insert(tuple, (present, mu));
                        }
                    }
                }
            }
            // Drop entries that merged back to the default state.
            state.retain(|_, s| !is_default(s));
            self.merged.insert(relation.to_string(), state);
        }
        Ok(&self.merged[relation])
    }

    /// Current state of one fact.
    pub fn fact_state(&mut self, relation: &str, tuple: &[u32]) -> Result<FactState, StoreError> {
        Ok(self
            .relation_state(relation)?
            .get(tuple)
            .cloned()
            .unwrap_or(DEFAULT_STATE))
    }

    /// Reconstruct the full [`UnreliableDatabase`] model: every merged
    /// row goes through the fact rule, as a spec's rows do. A row the
    /// rule rejects means the store holds data no commit could write.
    pub fn build(&mut self) -> Result<UnreliableDatabase, StoreError> {
        let model = error_model(&self.entry)?;
        for i in 0..self.entry.relations.len() {
            let name = self.entry.relations[i].name.clone();
            self.relation_state(&name)?;
        }
        let universe = Universe::from_names(self.entry.universe.clone());
        let observed = Database::empty(vocabulary(&self.entry), universe);
        let merged = &self.merged;
        let rows = self.entry.relations.iter().flat_map(|r| {
            merged[&r.name].iter().map(|(tuple, state)| FactRow {
                relation: &r.name,
                tuple,
                present: Some(state.0),
                mu: state_mu(state),
            })
        });
        UnreliableDatabase::from_rows(observed, model, rows)
            .map_err(|e| StoreError::Corrupt(format!("dataset {:?}: {e}", self.entry.name)))
    }

    /// Extract the interchange spec (for `qrel store dump`).
    pub fn dump_spec(&mut self) -> Result<UnreliableDatabaseSpec, StoreError> {
        Ok(UnreliableDatabaseSpec::from_model(&self.build()?))
    }
}

// ---------------------------------------------------------------------------
// The store

/// A store rooted at a directory. All mutation goes through
/// [`Store::commit`]; the struct itself is cheap state (the manifest)
/// plus paths.
pub struct Store {
    dir: PathBuf,
    manifest: Manifest,
    last_commit_ms: u64,
}

impl Store {
    /// Create a fresh store. Fails if the directory already holds one.
    pub fn init(dir: &Path) -> Result<Store, StoreError> {
        if manifest_path(dir).exists() {
            return Err(StoreError::Io(format!(
                "{} already contains a store",
                dir.display()
            )));
        }
        fs::create_dir_all(segments_dir(dir)).map_err(|e| StoreError::Io(e.to_string()))?;
        let manifest = Manifest::empty();
        write_manifest(dir, &manifest).map_err(StoreError::Io)?;
        Ok(Store {
            dir: dir.to_path_buf(),
            manifest,
            last_commit_ms: 0,
        })
    }

    /// Open an existing store: read the manifest, garbage-collect
    /// orphans (temp files and unreferenced segments left by torn
    /// writes or mid-commit crashes), and verify every referenced
    /// segment exists with its recorded length.
    pub fn open(dir: &Path) -> Result<Store, StoreError> {
        let manifest = read_manifest(dir).map_err(StoreError::Corrupt)?;
        let seg_dir = segments_dir(dir);
        fs::create_dir_all(&seg_dir).map_err(|e| StoreError::Io(e.to_string()))?;
        let referenced: HashMap<&str, u64> = manifest
            .datasets
            .iter()
            .flat_map(|d| d.segments.iter())
            .map(|s| (s.file.as_str(), s.bytes))
            .collect();
        // GC pass: anything in segments/ the manifest does not name is
        // debris from an aborted commit.
        for entry in fs::read_dir(&seg_dir).map_err(|e| StoreError::Io(e.to_string()))? {
            let entry = entry.map_err(|e| StoreError::Io(e.to_string()))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if !referenced.contains_key(name.as_str()) {
                let _ = fs::remove_file(entry.path());
            }
        }
        // Leftover manifest temp from a crash between write and rename.
        let _ = fs::remove_file(dir.join("MANIFEST.json.tmp"));
        // Existence + length check; page checksums run on read.
        for (file, bytes) in &referenced {
            let path = seg_dir.join(file);
            let meta = fs::metadata(&path).map_err(|e| {
                StoreError::Corrupt(format!("referenced segment {file} missing: {e}"))
            })?;
            if meta.len() != *bytes {
                return Err(StoreError::Corrupt(format!(
                    "segment {file} is {} bytes, manifest says {bytes}",
                    meta.len()
                )));
            }
        }
        Ok(Store {
            dir: dir.to_path_buf(),
            manifest,
            last_commit_ms: 0,
        })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    pub fn dataset(&self, name: &str) -> Option<&DatasetEntry> {
        self.manifest.dataset(name)
    }

    /// Dataset names, sorted.
    pub fn dataset_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .manifest
            .datasets
            .iter()
            .map(|d| d.name.clone())
            .collect();
        names.sort();
        names
    }

    /// Milliseconds the most recent commit in this process took.
    pub fn last_commit_ms(&self) -> u64 {
        self.last_commit_ms
    }

    /// Total segment files across all datasets.
    pub fn total_segments(&self) -> u64 {
        self.manifest
            .datasets
            .iter()
            .map(|d| d.segments.len() as u64)
            .sum()
    }

    /// Total referenced segment bytes.
    pub fn total_bytes(&self) -> u64 {
        self.manifest
            .datasets
            .iter()
            .flat_map(|d| d.segments.iter())
            .map(|s| s.bytes)
            .sum()
    }

    /// Facts in a non-default state, across all datasets.
    pub fn total_live_facts(&self) -> u64 {
        self.manifest.datasets.iter().map(|d| d.live_facts).sum()
    }

    /// Shadowed/tombstone rows compact would reclaim, across all
    /// datasets.
    pub fn total_dead_rows(&self) -> u64 {
        self.manifest
            .datasets
            .iter()
            .map(|d| d.total_rows.saturating_sub(d.live_facts))
            .sum()
    }

    /// Register a new, empty dataset.
    pub fn create_dataset(
        &mut self,
        name: &str,
        universe: Vec<String>,
        relations: Vec<(String, usize)>,
        model: &str,
    ) -> Result<(), StoreError> {
        if self.manifest.dataset(name).is_some() {
            return Err(StoreError::DatasetExists(name.to_string()));
        }
        let model = ErrorModel::parse(model)?.name();
        let rel_decls: Vec<(String, usize)> = relations;
        let db_hash = base_hash(&universe, &rel_decls, model);
        self.manifest.datasets.push(DatasetEntry {
            name: name.to_string(),
            model: model.to_string(),
            universe,
            relations: rel_decls
                .into_iter()
                .map(|(name, arity)| RelDecl {
                    name,
                    arity: arity as u32,
                })
                .collect(),
            segments: Vec::new(),
            db_hash,
            live_facts: 0,
            total_rows: 0,
            next_seq: 0,
        });
        write_manifest(&self.dir, &self.manifest).map_err(StoreError::Io)?;
        Ok(())
    }

    /// Open a dataset for reading.
    pub fn load(&self, name: &str) -> Result<StoredDataset, StoreError> {
        let entry = self
            .manifest
            .dataset(name)
            .ok_or_else(|| StoreError::UnknownDataset(name.to_string()))?
            .clone();
        let seg_dir = segments_dir(&self.dir);
        let mut segments = Vec::with_capacity(entry.segments.len());
        for s in &entry.segments {
            let bytes = fs::read(seg_dir.join(&s.file))
                .map_err(|e| StoreError::Corrupt(format!("cannot read segment {}: {e}", s.file)))?;
            segments.push(bytes);
        }
        Ok(StoredDataset {
            entry,
            segments,
            merged: HashMap::new(),
        })
    }

    /// Full-integrity pass over one dataset: every page checksum, every
    /// merged row through the fact rule (the build boot runs), plus the
    /// manifest's incremental db-hash and live-fact count against
    /// [`db_hash_of`] and [`live_fact_count`] of the built model.
    pub fn verify(&self, name: &str) -> Result<(), StoreError> {
        let mut ds = self.load(name)?;
        for bytes in &ds.segments {
            verify_pages(bytes).map_err(|e| StoreError::Corrupt(e.to_string()))?;
        }
        let ud = ds.build()?;
        let recomputed = db_hash_of(&ud);
        if recomputed != ds.entry.db_hash {
            return Err(StoreError::Corrupt(format!(
                "db-hash drift in {name:?}: manifest {:#x}, recomputed {recomputed:#x}",
                ds.entry.db_hash
            )));
        }
        let live = live_fact_count(&ud);
        if live != ds.entry.live_facts {
            return Err(StoreError::Corrupt(format!(
                "live-fact drift in {name:?}: manifest {}, recomputed {live}",
                ds.entry.live_facts
            )));
        }
        Ok(())
    }

    /// Write a segment image to `segments/` crash-safely: temp file,
    /// fsync, rename, directory fsync. The torn-write fault point
    /// persists a prefix and fails, modeling a half-written page.
    fn publish_segment(&self, file: &str, image: &[u8]) -> Result<(), StoreError> {
        let seg_dir = segments_dir(&self.dir);
        let tmp = seg_dir.join(format!("{file}.tmp"));
        let torn = qrel_faults::armed()
            && qrel_faults::hit(qrel_faults::points::STORE_SEGMENT_TORN_WRITE).is_some();
        {
            let mut f = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)
                .map_err(|e| StoreError::Io(e.to_string()))?;
            let bytes = if torn {
                &image[..image.len() / 2]
            } else {
                image
            };
            f.write_all(bytes)
                .map_err(|e| StoreError::Io(e.to_string()))?;
            f.sync_all().map_err(|e| StoreError::Io(e.to_string()))?;
        }
        if torn {
            // The half-written temp file stays on disk, exactly as a
            // real torn write would leave it; open() GCs it.
            return Err(StoreError::Injected("torn segment write"));
        }
        fs::rename(&tmp, seg_dir.join(file)).map_err(|e| StoreError::Io(e.to_string()))?;
        if let Ok(d) = File::open(&seg_dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// Apply a batch of staged mutations as one atomic commit: one new
    /// segment, one manifest publish, and an incremental db-hash update
    /// covering exactly the touched facts.
    pub fn commit(&mut self, dataset: &str, batch: &[Mutation]) -> Result<CommitStats, StoreError> {
        let started = Instant::now();
        let entry = self
            .manifest
            .dataset(dataset)
            .ok_or_else(|| StoreError::UnknownDataset(dataset.to_string()))?
            .clone();
        // Validate every mutation with the fact rule (a reset is the
        // row (absent, μ = 0)) and stage it: last mutation per (relation,
        // tuple) wins; the parsed μ is canonical, so "2/4" and "1/2" hash
        // identically.
        let vocab = vocabulary(&entry);
        let rule = FactRule {
            vocab: &vocab,
            universe: entry.universe.len(),
            model: error_model(&entry)?,
        };
        let mut staged: BTreeMap<(String, Vec<u32>), FactOp> = BTreeMap::new();
        for m in batch {
            let (present, mu) = match &m.op {
                FactOp::Reset => (false, "0"),
                FactOp::Set { present, mu } => (*present, mu.as_str()),
            };
            let (fact, p) = rule.check(&m.relation, &m.tuple, |_| present, mu)?;
            let op = match m.op {
                FactOp::Reset => FactOp::Reset,
                FactOp::Set { .. } => FactOp::Set {
                    present,
                    mu: p.to_string(),
                },
            };
            staged.insert((m.relation.clone(), fact.tuple), op);
        }
        if staged.is_empty() {
            return Ok(CommitStats {
                segment: None,
                rows: 0,
                live_facts: entry.live_facts,
                db_hash: entry.db_hash,
                elapsed_ms: 0,
            });
        }

        // Old states of exactly the touched facts, via the lazy reader.
        let mut view = self.load(dataset)?;
        let mut db_hash = entry.db_hash;
        let mut live = entry.live_facts as i64;
        for ((relation, tuple), op) in &staged {
            let old = view.fact_state(relation, tuple)?;
            let new = op_to_state(op);
            db_hash ^= state_hash(relation, tuple, &old) ^ state_hash(relation, tuple, &new);
            live += i64::from(!is_default(&new)) - i64::from(!is_default(&old));
        }

        // Encode: one block per touched relation, vocabulary order,
        // tuples sorted — byte-deterministic for identical batches.
        let mut blocks = Vec::new();
        for decl in &entry.relations {
            let rows: Vec<(Vec<u32>, FactOp)> = staged
                .iter()
                .filter(|((r, _), _)| *r == decl.name)
                .map(|((_, t), op)| (t.clone(), op.clone()))
                .collect();
            if !rows.is_empty() {
                blocks.push(RelationBlock {
                    relation: decl.name.clone(),
                    arity: decl.arity as usize,
                    rows,
                });
            }
        }
        let image = encode_segment(&blocks);
        let file = format!("{dataset}-{:08}.seg", entry.next_seq);
        self.publish_segment(&file, &image)?;

        // Chaos hook: die after the segment landed, before the manifest
        // references it — the canonical mid-commit crash. Reopen sees
        // the old manifest and GCs the orphan.
        if qrel_faults::armed()
            && qrel_faults::hit(qrel_faults::points::STORE_COMMIT_CRASH).is_some()
        {
            return Err(StoreError::Injected("commit crash before manifest publish"));
        }

        let rows = staged.len() as u64;
        let live_facts = u64::try_from(live.max(0)).unwrap_or(0);
        {
            let e = self
                .manifest
                .dataset_mut(dataset)
                .expect("dataset existed above");
            e.segments.push(SegmentRef {
                file: file.clone(),
                bytes: image.len() as u64,
            });
            e.db_hash = db_hash;
            e.live_facts = live_facts;
            e.total_rows += rows;
            e.next_seq += 1;
        }
        write_manifest(&self.dir, &self.manifest).map_err(StoreError::Io)?;
        let elapsed_ms = started.elapsed().as_millis() as u64;
        self.last_commit_ms = elapsed_ms;
        Ok(CommitStats {
            segment: Some(file),
            rows,
            live_facts,
            db_hash,
            elapsed_ms,
        })
    }

    /// Rewrite a dataset as a single segment holding only live facts.
    /// The db-hash is untouched — compaction changes representation,
    /// never content — and old segments are deleted only after the new
    /// manifest is published.
    pub fn compact(&mut self, dataset: &str) -> Result<CommitStats, StoreError> {
        let started = Instant::now();
        let entry = self
            .manifest
            .dataset(dataset)
            .ok_or_else(|| StoreError::UnknownDataset(dataset.to_string()))?
            .clone();
        let mut view = self.load(dataset)?;
        let mut blocks = Vec::new();
        let mut rows = 0u64;
        for decl in &entry.relations {
            let state = view.relation_state(&decl.name)?;
            let block_rows: Vec<(Vec<u32>, FactOp)> = state
                .iter()
                .map(|(t, (present, mu))| {
                    (
                        t.clone(),
                        FactOp::Set {
                            present: *present,
                            mu: if mu.is_empty() {
                                "0".into()
                            } else {
                                mu.clone()
                            },
                        },
                    )
                })
                .collect();
            rows += block_rows.len() as u64;
            if !block_rows.is_empty() {
                blocks.push(RelationBlock {
                    relation: decl.name.clone(),
                    arity: decl.arity as usize,
                    rows: block_rows,
                });
            }
        }
        let image = encode_segment(&blocks);
        let file = format!("{dataset}-{:08}.seg", entry.next_seq);
        self.publish_segment(&file, &image)?;
        let old_segments = entry.segments.clone();
        {
            let e = self
                .manifest
                .dataset_mut(dataset)
                .expect("dataset existed above");
            e.segments = vec![SegmentRef {
                file: file.clone(),
                bytes: image.len() as u64,
            }];
            e.total_rows = rows;
            e.next_seq += 1;
        }
        write_manifest(&self.dir, &self.manifest).map_err(StoreError::Io)?;
        // Only now is it safe to drop the shadowed files.
        let seg_dir = segments_dir(&self.dir);
        for s in old_segments {
            let _ = fs::remove_file(seg_dir.join(&s.file));
        }
        let elapsed_ms = started.elapsed().as_millis() as u64;
        self.last_commit_ms = elapsed_ms;
        Ok(CommitStats {
            segment: Some(file),
            rows,
            live_facts: entry.live_facts,
            db_hash: entry.db_hash,
            elapsed_ms,
        })
    }

    /// Create a dataset from an interchange spec and commit its rows in
    /// one batch (the `qrel store ingest` path): every observed fact,
    /// then every error assignment with `μ ≠ 0`. Each error row passes
    /// the fact rule before anything touches disk, so an invalid spec
    /// writes nothing.
    pub fn ingest_spec(
        &mut self,
        name: &str,
        spec: &UnreliableDatabaseSpec,
    ) -> Result<CommitStats, StoreError> {
        let db = &spec.database;
        let vocab = db.vocabulary();
        let rule = FactRule {
            vocab,
            universe: db.size(),
            model: ErrorModel::parse(&spec.model)?,
        };
        // Later assignments to a fact win, as in the spec's own build.
        let mut seen = HashSet::new();
        let mut errors = Vec::new();
        for e in spec.errors.iter().rev() {
            let (fact, p) = rule.check(&e.relation, &e.tuple, |f| db.holds(f), &e.mu)?;
            let present = db.holds(&fact);
            if seen.insert(fact) && !p.is_zero() {
                errors.push(Mutation::set(
                    &e.relation,
                    e.tuple.clone(),
                    present,
                    &p.to_string(),
                ));
            }
        }
        let universe: Vec<String> = db
            .universe()
            .elements()
            .map(|e| db.universe().name(e).to_string())
            .collect();
        let relations: Vec<(String, usize)> = vocab
            .symbols()
            .iter()
            .map(|s| (s.name().to_string(), s.arity()))
            .collect();
        self.create_dataset(name, universe, relations, &spec.model)?;
        let mut batch = Vec::with_capacity(db.tuple_count() + errors.len());
        for (ri, sym) in vocab.symbols().iter().enumerate() {
            for tuple in db.relation(ri).iter() {
                batch.push(Mutation::set(sym.name(), tuple.clone(), true, "0"));
            }
        }
        batch.extend(errors);
        self.commit(name, &batch)
    }
}

// Fault arming is process-global and the tests run in parallel, so
// every test that writes to a store holds the fault session for all of
// its writes: `qrel_faults::quiesce()` for clean writes, the armed
// plan's guard for the one write meant to fail. Otherwise one test's
// commit can consume the fault another test armed.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::fact_state_hash;
    use qrel_arith::BigRational;
    use qrel_db::{DatabaseBuilder, Fact};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("qrel-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_spec() -> UnreliableDatabaseSpec {
        let db = DatabaseBuilder::new()
            .universe_size(3)
            .relation("E", 2)
            .relation("S", 1)
            .tuples("E", [vec![0, 1], vec![1, 2]])
            .tuples("S", [vec![2]])
            .build();
        let mut ud = UnreliableDatabase::reliable(db);
        ud.set_error(&Fact::new(0, vec![0, 1]), BigRational::from_ratio(1, 10))
            .unwrap();
        ud.set_error(&Fact::new(1, vec![0]), BigRational::from_ratio(1, 4))
            .unwrap();
        UnreliableDatabaseSpec::from_model(&ud)
    }

    #[test]
    fn ingest_reopen_round_trip_is_bit_identical() {
        let _quiet = qrel_faults::quiesce();
        let dir = tmp_dir("roundtrip");
        let mut store = Store::init(&dir).unwrap();
        let spec = sample_spec();
        let stats = store.ingest_spec("d", &spec).unwrap();
        let in_memory = spec.build().unwrap();
        assert_eq!(stats.db_hash, db_hash_of(&in_memory));

        // Close and reopen: hash, live count, and the rebuilt model all
        // match the in-memory path exactly.
        drop(store);
        let store = Store::open(&dir).unwrap();
        store.verify("d").unwrap();
        let mut ds = store.load("d").unwrap();
        assert_eq!(ds.entry().db_hash, db_hash_of(&in_memory));
        let rebuilt = ds.build().unwrap();
        assert_eq!(
            UnreliableDatabaseSpec::from_model(&rebuilt),
            UnreliableDatabaseSpec::from_model(&in_memory)
        );
        assert_eq!(db_hash_of(&rebuilt), db_hash_of(&in_memory));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn incremental_hash_tracks_mutations() {
        let _quiet = qrel_faults::quiesce();
        let dir = tmp_dir("incremental");
        let mut store = Store::init(&dir).unwrap();
        store.ingest_spec("d", &sample_spec()).unwrap();
        let h0 = store.dataset("d").unwrap().db_hash;

        // Mutate: change a μ, add a fact, delete a fact.
        let stats = store
            .commit(
                "d",
                &[
                    Mutation::set("E", vec![0, 1], true, "1/3"),
                    Mutation::set("S", vec![1], true, "0"),
                    Mutation::reset("E", vec![1, 2]),
                ],
            )
            .unwrap();
        assert_ne!(stats.db_hash, h0);
        store.verify("d").unwrap();

        // Undo all three: the XOR algebra restores the original hash.
        let undo = store
            .commit(
                "d",
                &[
                    Mutation::set("E", vec![0, 1], true, "1/10"),
                    Mutation::reset("S", vec![1]),
                    Mutation::set("E", vec![1, 2], true, "0"),
                ],
            )
            .unwrap();
        assert_eq!(undo.db_hash, h0);
        store.verify("d").unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn probability_strings_are_canonicalized() {
        let _quiet = qrel_faults::quiesce();
        let dir = tmp_dir("canon");
        let mut store = Store::init(&dir).unwrap();
        store
            .create_dataset(
                "d",
                vec!["e0".into(), "e1".into()],
                vec![("E".into(), 2)],
                "full",
            )
            .unwrap();
        store
            .commit("d", &[Mutation::set("E", vec![0, 1], true, "2/4")])
            .unwrap();
        let mut ds = store.load("d").unwrap();
        assert_eq!(ds.fact_state("E", &[0, 1]).unwrap(), (true, "1/2".into()));
        store.verify("d").unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commit_validation_rejects_bad_mutations() {
        let _quiet = qrel_faults::quiesce();
        let dir = tmp_dir("validate");
        let mut store = Store::init(&dir).unwrap();
        store
            .create_dataset("d", vec!["e0".into()], vec![("S".into(), 1)], "full")
            .unwrap();
        let bad = [
            Mutation::set("Z", vec![0], true, "0"),
            Mutation::set("S", vec![0, 0], true, "0"),
            Mutation::set("S", vec![9], true, "0"),
            Mutation::set("S", vec![0], true, "3/2"),
            Mutation::set("S", vec![0], true, "nope"),
        ];
        for m in bad {
            assert!(
                store.commit("d", std::slice::from_ref(&m)).is_err(),
                "accepted {m:?}"
            );
        }
        // Nothing landed.
        assert_eq!(store.dataset("d").unwrap().segments.len(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn negative_mu_is_rejected_typed_and_writes_nothing() {
        let _quiet = qrel_faults::quiesce();
        let dir = tmp_dir("negative");
        let mut store = Store::init(&dir).unwrap();
        store.ingest_spec("d", &sample_spec()).unwrap();
        let before = store.dataset("d").unwrap().clone();
        match store.commit("d", &[Mutation::set("S", vec![2], true, "-1/2")]) {
            Err(StoreError::Invalid(ModelError::NotAProbability { fact, value })) => {
                assert_eq!((fact.as_str(), value.as_str()), ("S(2)", "-1/2"));
            }
            other => panic!("expected NotAProbability, got {other:?}"),
        }
        assert_eq!(store.dataset("d").unwrap(), &before);
        assert_eq!(fs::read_dir(segments_dir(&dir)).unwrap().count(), 1);
        drop(store);
        let store = Store::open(&dir).unwrap();
        store.verify("d").unwrap();
        assert_eq!(
            UnreliableDatabaseSpec::from_model(&store.load("d").unwrap().build().unwrap()),
            sample_spec()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verify_runs_stored_rows_through_the_fact_rule() {
        let _quiet = qrel_faults::quiesce();
        let dir = tmp_dir("verify-rule");
        let mut store = Store::init(&dir).unwrap();
        store
            .create_dataset("d", vec!["e0".into()], vec![("S".into(), 1)], "full")
            .unwrap();
        // A segment no commit can write any more, with a manifest that
        // agrees with it on hash, live count and length: the empty
        // dataset's hash is the from-scratch one, and the row's state
        // hash is XORed in as a commit would.
        let empty = store.load("d").unwrap().build().unwrap();
        assert_eq!(store.dataset("d").unwrap().db_hash, db_hash_of(&empty));
        let image = encode_segment(&[RelationBlock {
            relation: "S".into(),
            arity: 1,
            rows: vec![(
                vec![0],
                FactOp::Set {
                    present: true,
                    mu: "-1/2".into(),
                },
            )],
        }]);
        store.publish_segment("d-00000000.seg", &image).unwrap();
        let e = store.manifest.dataset_mut("d").unwrap();
        e.segments.push(SegmentRef {
            file: "d-00000000.seg".into(),
            bytes: image.len() as u64,
        });
        e.db_hash ^= fact_state_hash("S", &[0], true, "-1/2");
        e.live_facts = 1;
        e.total_rows = 1;
        e.next_seq = 1;
        write_manifest(&dir, &store.manifest).unwrap();
        let store = Store::open(&dir).unwrap();
        for result in [
            store.verify("d"),
            store.load("d").unwrap().build().map(|_| ()),
        ] {
            match result {
                Err(StoreError::Corrupt(m)) => assert!(m.contains("μ(S(0)) = -1/2"), "{m}"),
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Ingest the sample spec, rewrite its manifest entry with `tamper`,
    /// reopen, and return the `Corrupt` message `verify` reports.
    fn verify_error_after_tampering(tag: &str, tamper: impl FnOnce(&mut DatasetEntry)) -> String {
        let _quiet = qrel_faults::quiesce();
        let dir = tmp_dir(tag);
        let mut store = Store::init(&dir).unwrap();
        store.ingest_spec("d", &sample_spec()).unwrap();
        store.verify("d").unwrap();
        tamper(store.manifest.dataset_mut("d").unwrap());
        write_manifest(&dir, &store.manifest).unwrap();
        let store = Store::open(&dir).unwrap();
        let result = store.verify("d");
        fs::remove_dir_all(&dir).unwrap();
        match result {
            Err(StoreError::Corrupt(m)) => m,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn verify_rejects_a_tampered_manifest_db_hash() {
        let m = verify_error_after_tampering("drift-hash", |e| e.db_hash ^= 1);
        assert!(m.starts_with("db-hash drift in \"d\""), "{m}");
    }

    #[test]
    fn verify_rejects_a_tampered_manifest_live_fact_count() {
        let m = verify_error_after_tampering("drift-live", |e| e.live_facts += 1);
        assert!(m.starts_with("live-fact drift in \"d\""), "{m}");
    }

    #[test]
    fn ingest_keeps_absent_facts_certain_at_mu_one() {
        let _quiet = qrel_faults::quiesce();
        let dir = tmp_dir("mu-one");
        let mut store = Store::init(&dir).unwrap();
        let mut spec = sample_spec();
        // S(1) is absent from 𝔄 and certainly present in every world.
        spec.errors.push(qrel_prob::ErrorSpec {
            relation: "S".into(),
            tuple: vec![1],
            mu: "1".into(),
        });
        let ud = spec.build().unwrap();
        let stats = store.ingest_spec("d", &spec).unwrap();
        assert_eq!(stats.live_facts, live_fact_count(&ud));
        assert_eq!(stats.live_facts, 5);
        assert_eq!(stats.db_hash, db_hash_of(&ud));
        store.verify("d").unwrap();
        let rebuilt = store.load("d").unwrap().build().unwrap();
        assert_eq!(rebuilt.mu(&Fact::new(1, vec![1])), &BigRational::one());
        assert_eq!(
            UnreliableDatabaseSpec::from_model(&rebuilt),
            UnreliableDatabaseSpec::from_model(&ud)
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn invalid_spec_or_model_registers_nothing() {
        let _quiet = qrel_faults::quiesce();
        let dir = tmp_dir("invalid-spec");
        let mut store = Store::init(&dir).unwrap();
        let mut spec = sample_spec();
        spec.errors[1].mu = "3/2".into();
        assert!(matches!(
            store.ingest_spec("d", &spec),
            Err(StoreError::Invalid(ModelError::NotAProbability { .. }))
        ));
        let mut spec = sample_spec();
        spec.model = "partial".into();
        assert!(matches!(
            store.ingest_spec("d", &spec),
            Err(StoreError::Invalid(ModelError::UnknownModel(_)))
        ));
        assert!(matches!(
            store.create_dataset("d", vec!["e0".into()], vec![], "partial"),
            Err(StoreError::Invalid(ModelError::UnknownModel(_)))
        ));
        assert!(store.dataset_names().is_empty());
        assert!(Store::open(&dir).unwrap().dataset_names().is_empty());
        assert_eq!(fs::read_dir(segments_dir(&dir)).unwrap().count(), 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn positive_only_rejects_absent_uncertain_facts() {
        let _quiet = qrel_faults::quiesce();
        let dir = tmp_dir("positive");
        let mut store = Store::init(&dir).unwrap();
        store
            .create_dataset(
                "d",
                vec!["e0".into()],
                vec![("S".into(), 1)],
                "positive-only",
            )
            .unwrap();
        assert!(matches!(
            store.commit("d", &[Mutation::set("S", vec![0], false, "1/2")]),
            Err(StoreError::Invalid(ModelError::NegativeFactError { .. }))
        ));
        store
            .commit("d", &[Mutation::set("S", vec![0], true, "1/2")])
            .unwrap();
        store.verify("d").unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_preserves_hash_and_drops_dead_rows() {
        let _quiet = qrel_faults::quiesce();
        let dir = tmp_dir("compact");
        let mut store = Store::init(&dir).unwrap();
        store.ingest_spec("d", &sample_spec()).unwrap();
        // Several generations of churn on one fact.
        for mu in ["1/3", "1/5", "1/7"] {
            store
                .commit("d", &[Mutation::set("E", vec![0, 1], true, mu)])
                .unwrap();
        }
        store.commit("d", &[Mutation::reset("S", vec![2])]).unwrap();
        let before = store.dataset("d").unwrap().clone();
        assert!(before.segments.len() > 1);
        assert!(before.total_rows > before.live_facts);

        store.compact("d").unwrap();
        let after = store.dataset("d").unwrap().clone();
        assert_eq!(after.db_hash, before.db_hash);
        assert_eq!(after.live_facts, before.live_facts);
        assert_eq!(after.segments.len(), 1);
        assert_eq!(after.total_rows, after.live_facts);
        store.verify("d").unwrap();

        // Old segment files are actually gone.
        let seg_files = fs::read_dir(segments_dir(&dir)).unwrap().count();
        assert_eq!(seg_files, 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_aborts_commit_and_reopen_recovers() {
        let quiet = qrel_faults::quiesce();
        let dir = tmp_dir("torn");
        let mut store = Store::init(&dir).unwrap();
        store.ingest_spec("d", &sample_spec()).unwrap();
        let h0 = store.dataset("d").unwrap().db_hash;

        let plan = qrel_faults::FaultPlan::new(3).with_rule(
            qrel_faults::points::STORE_SEGMENT_TORN_WRITE,
            1.0,
            0,
            1,
        );
        drop(quiet);
        {
            let _guard = plan.arm();
            assert!(matches!(
                store.commit("d", &[Mutation::set("S", vec![0], true, "1/2")]),
                Err(StoreError::Injected(_))
            ));
        }
        let _quiet = qrel_faults::quiesce();
        // The torn temp file exists on disk but the manifest ignores it.
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.dataset("d").unwrap().db_hash, h0);
        store.verify("d").unwrap();
        // GC removed the debris.
        for entry in fs::read_dir(segments_dir(&dir)).unwrap() {
            let name = entry.unwrap().file_name().to_string_lossy().into_owned();
            assert!(!name.ends_with(".tmp"), "torn temp {name} survived GC");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_commit_crash_leaves_old_state_and_gc_cleans_orphan() {
        let quiet = qrel_faults::quiesce();
        let dir = tmp_dir("crash");
        let mut store = Store::init(&dir).unwrap();
        store.ingest_spec("d", &sample_spec()).unwrap();
        let h0 = store.dataset("d").unwrap().db_hash;
        let segs0 = store.dataset("d").unwrap().segments.len();

        let plan = qrel_faults::FaultPlan::new(4).with_rule(
            qrel_faults::points::STORE_COMMIT_CRASH,
            1.0,
            0,
            1,
        );
        drop(quiet);
        {
            let _guard = plan.arm();
            assert!(matches!(
                store.commit("d", &[Mutation::set("S", vec![0], true, "1/2")]),
                Err(StoreError::Injected(_))
            ));
        }
        let _quiet = qrel_faults::quiesce();
        // The orphan .seg landed but is unreferenced; reopen recovers
        // the previous state and deletes it.
        drop(store);
        let mut store = Store::open(&dir).unwrap();
        assert_eq!(store.dataset("d").unwrap().db_hash, h0);
        assert_eq!(store.dataset("d").unwrap().segments.len(), segs0);
        store.verify("d").unwrap();
        assert_eq!(fs::read_dir(segments_dir(&dir)).unwrap().count(), segs0);

        // The spent fire is gone: the same commit now succeeds and the
        // reused sequence number collides with nothing.
        store
            .commit("d", &[Mutation::set("S", vec![0], true, "1/2")])
            .unwrap();
        store.verify("d").unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dump_spec_round_trips_through_interchange() {
        let _quiet = qrel_faults::quiesce();
        let dir = tmp_dir("dump");
        let mut store = Store::init(&dir).unwrap();
        let spec = sample_spec();
        store.ingest_spec("d", &spec).unwrap();
        let dumped = store.load("d").unwrap().dump_spec().unwrap();
        assert_eq!(dumped, spec);
        fs::remove_dir_all(&dir).unwrap();
    }
}
