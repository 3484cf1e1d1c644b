//! Live structures: append-only tuple ingestion with dirty tracking,
//! and the tuple-log format that feeds them.
//!
//! The paper's data-complexity reading makes the query fixed and the
//! structure the moving part; a streaming deployment moves the
//! structure one tuple at a time. [`LiveStructure`] wraps a
//! [`Structure`] with exactly the bookkeeping an incremental counter
//! needs:
//!
//! * **append-only ingestion** — [`LiveStructure::insert_tuple`] adds a
//!   tuple (idempotently, like [`Structure::add_tuple`]) and reports
//!   whether it was new. The universe is fixed at construction:
//!   growing it would silently change every `|B|^k` factor of the
//!   counting algorithm, so a live structure only ever gains tuples;
//! * **per-relation dirty tracking** — every relation that gained a
//!   tuple since the last [`LiveStructure::clear_dirty`] is flagged, so
//!   a maintainer (`epq_core::incremental::LiveCount`) can recompute
//!   only the disjuncts that read a dirty relation;
//! * **cheap snapshots** — [`LiveStructure::snapshot`] borrows the
//!   underlying [`Structure`] directly (no copy); every read-only
//!   consumer of the counting stack works on it unchanged.
//!
//! [`StreamLog`] is the serialized form of an ingestion session: a
//! header fixing the signature and universe, then an ordered list of
//! [`StreamOp`]s — tuple inserts and **checkpoints**, the points where
//! a replaying consumer emits the current answer count. The text format
//! round-trips through [`StreamLog::parse`] / `Display`, and is what
//! `epq count --stream <FILE>` replays.

use crate::structure::{RelId, Signature, Structure};
use std::fmt;

/// An append-only structure with per-relation dirty tracking. See the
/// [module docs](self).
#[derive(Clone, Debug)]
pub struct LiveStructure {
    inner: Structure,
    /// `dirty[r]` ⇔ relation `r` gained a tuple since the last
    /// [`LiveStructure::clear_dirty`].
    dirty: Vec<bool>,
    /// Bumps on every insert that actually added a tuple.
    generation: u64,
}

impl LiveStructure {
    /// An empty live structure over `signature` with a fixed universe
    /// `{0, …, universe_size − 1}`. All relations start clean.
    pub fn new(signature: Signature, universe_size: usize) -> Self {
        let relations = signature.len();
        LiveStructure {
            inner: Structure::new(signature, universe_size),
            dirty: vec![false; relations],
            generation: 0,
        }
    }

    /// Wraps an existing structure; its relations start **dirty** (a
    /// maintainer attaching to pre-loaded data has seen none of it).
    pub fn from_structure(inner: Structure) -> Self {
        let relations = inner.signature().len();
        LiveStructure {
            inner,
            dirty: vec![true; relations],
            generation: 0,
        }
    }

    /// The signature.
    pub fn signature(&self) -> &Signature {
        self.inner.signature()
    }

    /// The fixed universe size.
    pub fn universe_size(&self) -> usize {
        self.inner.universe_size()
    }

    /// The current structure, by reference — snapshots are free, and
    /// every read-only consumer of the counting stack takes
    /// `&Structure`.
    pub fn snapshot(&self) -> &Structure {
        &self.inner
    }

    /// Total number of tuples across all relations.
    pub fn tuple_count(&self) -> usize {
        self.inner.tuple_count()
    }

    /// Number of inserts that actually added a tuple.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Inserts a tuple into `rel`, returning whether it was new.
    /// Duplicate inserts are no-ops and leave the dirty flags alone.
    ///
    /// # Panics
    /// Panics if elements are out of range or the arity mismatches
    /// (same contract as [`Structure::add_tuple`]).
    pub fn insert_tuple(&mut self, rel: RelId, tuple: &[u32]) -> bool {
        // One membership probe, inside add_tuple (which is idempotent):
        // whether it inserted shows in the relation's length.
        let before = self.inner.relation(rel).len();
        self.inner.add_tuple(rel, tuple);
        if self.inner.relation(rel).len() == before {
            return false;
        }
        self.dirty[rel.0 as usize] = true;
        self.generation += 1;
        true
    }

    /// [`LiveStructure::insert_tuple`] by relation name; an unknown
    /// name is an error and inserts nothing.
    pub fn insert_tuple_named(
        &mut self,
        name: &str,
        tuple: &[u32],
    ) -> Result<bool, UnknownRelation> {
        let rel = self
            .signature()
            .lookup(name)
            .ok_or_else(|| UnknownRelation {
                name: name.to_string(),
            })?;
        Ok(self.insert_tuple(rel, tuple))
    }

    /// Whether `rel` gained a tuple since the last
    /// [`LiveStructure::clear_dirty`].
    pub fn is_dirty(&self, rel: RelId) -> bool {
        self.dirty[rel.0 as usize]
    }

    /// The dirty relations, in signature order.
    pub fn dirty_relations(&self) -> Vec<RelId> {
        self.dirty
            .iter()
            .enumerate()
            .filter(|(_, &d)| d)
            .map(|(i, _)| RelId(i as u32))
            .collect()
    }

    /// Whether any relation is dirty.
    pub fn any_dirty(&self) -> bool {
        self.dirty.iter().any(|&d| d)
    }

    /// Marks every relation clean (the maintainer has reconciled).
    pub fn clear_dirty(&mut self) {
        self.dirty.iter_mut().for_each(|d| *d = false);
    }
}

/// One operation of a [`StreamLog`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamOp {
    /// Insert `tuple` into relation `rel` (of the log's signature).
    Insert {
        /// Target relation.
        rel: RelId,
        /// The tuple to insert.
        tuple: Vec<u32>,
    },
    /// Emit the current answer count.
    Checkpoint,
}

/// A serialized ingestion session: signature + universe header, then
/// ordered inserts and checkpoints. See the [module docs](self) for
/// the text format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamLog {
    /// The signature every insert refers into.
    pub signature: Signature,
    /// The fixed universe size.
    pub universe: usize,
    /// The ordered operations.
    pub ops: Vec<StreamOp>,
}

/// Error from the by-name inserts ([`LiveStructure::insert_tuple_named`]):
/// the signature has no relation of that name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownRelation {
    /// The name that was looked up.
    pub name: String,
}

impl fmt::Display for UnknownRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown relation {:?}", self.name)
    }
}

impl std::error::Error for UnknownRelation {}

/// Error from [`StreamLog::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamParseError {
    /// Human-readable description with line context.
    pub message: String,
}

impl fmt::Display for StreamParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream log parse error: {}", self.message)
    }
}

impl std::error::Error for StreamParseError {}

impl StreamLog {
    /// Parses the line-oriented tuple-log format:
    ///
    /// ```text
    /// # comments run to end of line
    /// universe 4          # first directive: the fixed universe size
    /// rel E/2             # declare relations (before any insert)
    /// rel P/1
    /// insert E 0 1        # one tuple per line, elements space-separated
    /// insert P 3
    /// checkpoint          # emit the current count here
    /// insert E 1 2
    /// ```
    ///
    /// Relations must be declared before their first insert; arities
    /// and universe bounds are validated while parsing.
    pub fn parse(text: &str) -> Result<StreamLog, StreamParseError> {
        let err = |line_no: usize, message: String| StreamParseError {
            message: format!("{message} (line {})", line_no + 1),
        };
        let mut signature = Signature::new();
        let mut universe: Option<usize> = None;
        let mut ops: Vec<StreamOp> = Vec::new();
        for (line_no, raw) in text.lines().enumerate() {
            let line = match raw.split('#').next() {
                Some(content) => content.trim(),
                None => "",
            };
            if line.is_empty() {
                continue;
            }
            let mut words = line.split_whitespace();
            let head = words.next().expect("nonempty line has a first word");
            match head {
                "universe" => {
                    if universe.is_some() {
                        return Err(err(line_no, "duplicate universe directive".into()));
                    }
                    let n = words
                        .next()
                        .and_then(|w| w.parse::<usize>().ok())
                        .ok_or_else(|| err(line_no, "universe expects a size".into()))?;
                    universe = Some(n);
                }
                "rel" => {
                    let spec = words
                        .next()
                        .ok_or_else(|| err(line_no, "rel expects NAME/ARITY".into()))?;
                    let (name, arity) = spec
                        .split_once('/')
                        .and_then(|(n, a)| a.parse::<usize>().ok().map(|a| (n, a)))
                        .ok_or_else(|| err(line_no, format!("bad relation spec {spec:?}")))?;
                    if name.is_empty() || arity == 0 {
                        return Err(err(line_no, format!("bad relation spec {spec:?}")));
                    }
                    if signature.lookup(name).is_some() {
                        return Err(err(line_no, format!("duplicate relation {name:?}")));
                    }
                    signature.add_symbol(name, arity);
                }
                "insert" => {
                    let universe = universe
                        .ok_or_else(|| err(line_no, "insert before universe directive".into()))?;
                    let name = words
                        .next()
                        .ok_or_else(|| err(line_no, "insert expects a relation name".into()))?;
                    let rel = signature
                        .lookup(name)
                        .ok_or_else(|| err(line_no, format!("undeclared relation {name:?}")))?;
                    let tuple: Vec<u32> = words
                        .map(|w| w.parse::<u32>())
                        .collect::<Result<_, _>>()
                        .map_err(|_| err(line_no, "insert elements must be numbers".into()))?;
                    if tuple.len() != signature.arity(rel) {
                        return Err(err(
                            line_no,
                            format!(
                                "relation {name:?} has arity {}, got {} elements",
                                signature.arity(rel),
                                tuple.len()
                            ),
                        ));
                    }
                    if let Some(&e) = tuple.iter().find(|&&e| e as usize >= universe) {
                        return Err(err(
                            line_no,
                            format!("element {e} outside universe of size {universe}"),
                        ));
                    }
                    ops.push(StreamOp::Insert { rel, tuple });
                }
                "checkpoint" => ops.push(StreamOp::Checkpoint),
                other => return Err(err(line_no, format!("unknown directive {other:?}"))),
            }
        }
        let universe = universe.ok_or_else(|| err(0, "missing universe directive".into()))?;
        Ok(StreamLog {
            signature,
            universe,
            ops,
        })
    }

    /// A fresh, clean [`LiveStructure`] matching the log's header.
    pub fn open(&self) -> LiveStructure {
        LiveStructure::new(self.signature.clone(), self.universe)
    }

    /// Replays every insert (ignoring checkpoints) into the final
    /// structure.
    pub fn replay(&self) -> Structure {
        let mut live = self.open();
        for op in &self.ops {
            if let StreamOp::Insert { rel, tuple } = op {
                live.insert_tuple(*rel, tuple);
            }
        }
        let LiveStructure { inner, .. } = live;
        inner
    }

    /// Number of insert operations.
    pub fn insert_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, StreamOp::Insert { .. }))
            .count()
    }

    /// Number of checkpoints.
    pub fn checkpoint_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, StreamOp::Checkpoint))
            .count()
    }
}

impl fmt::Display for StreamLog {
    /// Renders the text format parsed by [`StreamLog::parse`]
    /// (round-trips exactly).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "universe {}", self.universe)?;
        for (_, name, arity) in self.signature.iter() {
            writeln!(f, "rel {name}/{arity}")?;
        }
        for op in &self.ops {
            match op {
                StreamOp::Insert { rel, tuple } => {
                    write!(f, "insert {}", self.signature.name(*rel))?;
                    for e in tuple {
                        write!(f, " {e}")?;
                    }
                    writeln!(f)?;
                }
                StreamOp::Checkpoint => writeln!(f, "checkpoint")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digraph_sig() -> Signature {
        Signature::from_symbols([("E", 2)])
    }

    #[test]
    fn inserts_track_dirty_and_generation() {
        let mut live = LiveStructure::new(digraph_sig(), 3);
        let e = RelId(0);
        assert!(!live.any_dirty());
        assert!(live.insert_tuple(e, &[0, 1]));
        assert!(live.is_dirty(e));
        assert_eq!(live.generation(), 1);
        // Duplicate insert: no tuple, no generation bump.
        live.clear_dirty();
        assert!(!live.insert_tuple(e, &[0, 1]));
        assert!(!live.is_dirty(e));
        assert_eq!(live.generation(), 1);
        assert_eq!(live.snapshot().tuple_count(), 1);
    }

    #[test]
    fn dirty_relations_are_per_relation() {
        let sig = Signature::from_symbols([("E", 2), ("F", 1)]);
        let mut live = LiveStructure::new(sig, 4);
        live.insert_tuple_named("F", &[2]).unwrap();
        assert_eq!(live.dirty_relations(), vec![RelId(1)]);
        live.insert_tuple_named("E", &[0, 1]).unwrap();
        assert_eq!(live.dirty_relations(), vec![RelId(0), RelId(1)]);
        live.clear_dirty();
        assert!(live.dirty_relations().is_empty());
    }

    #[test]
    fn unknown_relation_names_are_an_error() {
        let mut live = LiveStructure::new(digraph_sig(), 2);
        let err = live.insert_tuple_named("G", &[0, 1]).unwrap_err();
        assert_eq!(err.name, "G");
        assert_eq!(err.to_string(), "unknown relation \"G\"");
        assert_eq!(live.generation(), 0);
        assert!(live.dirty_relations().is_empty());
    }

    #[test]
    fn from_structure_starts_dirty() {
        let mut s = Structure::new(digraph_sig(), 2);
        s.add_tuple_named("E", &[0, 1]);
        let live = LiveStructure::from_structure(s);
        assert!(live.is_dirty(RelId(0)));
        assert_eq!(live.tuple_count(), 1);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn out_of_range_insert_panics() {
        let mut live = LiveStructure::new(digraph_sig(), 2);
        live.insert_tuple(RelId(0), &[0, 7]);
    }

    #[test]
    fn stream_log_parses_and_replays() {
        let log = StreamLog::parse(
            "# a session\n\
             universe 4\n\
             rel E/2\n\
             rel P/1\n\
             insert E 0 1   # first edge\n\
             checkpoint\n\
             insert P 3\n\
             insert E 0 1\n\
             checkpoint\n",
        )
        .unwrap();
        assert_eq!(log.universe, 4);
        assert_eq!(log.signature.len(), 2);
        assert_eq!(log.insert_count(), 3);
        assert_eq!(log.checkpoint_count(), 2);
        let replayed = log.replay();
        // The duplicate E insert collapses.
        assert_eq!(replayed.tuple_count(), 2);
        assert!(replayed.has_tuple(RelId(0), &[0, 1]));
        assert!(replayed.has_tuple(RelId(1), &[3]));
    }

    #[test]
    fn stream_log_round_trips_through_display() {
        let log = StreamLog::parse("universe 3\nrel E/2\ninsert E 2 0\ncheckpoint\ninsert E 1 1\n")
            .unwrap();
        let reparsed = StreamLog::parse(&log.to_string()).unwrap();
        assert_eq!(log, reparsed);
    }

    #[test]
    fn stream_log_rejects_malformed_input() {
        for (text, needle) in [
            ("rel E/2\ninsert E 0 1", "universe"),
            ("universe 2\ninsert E 0 1", "undeclared"),
            ("universe 2\nrel E/2\ninsert E 0", "arity"),
            ("universe 2\nrel E/2\ninsert E 0 5", "outside universe"),
            ("universe 2\nrel E/0", "bad relation spec"),
            ("universe 2\nrel E/2\nrel E/2", "duplicate relation"),
            ("universe 2\nuniverse 3", "duplicate universe"),
            ("universe 2\nfrobnicate", "unknown directive"),
            ("universe 2\nrel E/2\ninsert E a b", "numbers"),
        ] {
            let err = StreamLog::parse(text).unwrap_err();
            assert!(
                err.message.contains(needle),
                "{text:?} should fail mentioning {needle:?}, got: {}",
                err.message
            );
        }
    }

    #[test]
    fn open_matches_header() {
        let log = StreamLog::parse("universe 5\nrel E/2\n").unwrap();
        let live = log.open();
        assert_eq!(live.universe_size(), 5);
        assert_eq!(live.signature().len(), 1);
        assert!(!live.any_dirty());
    }
}
