//! Warm-restart snapshots of the serve layer's engine cache.
//!
//! A snapshot captures, in one versioned and checksummed JSON file:
//!
//! 1. every engine in the process-wide [`tpq_core::shared_engine`] LRU:
//!    its constraint set, its closure and its **canonical-pattern memo**
//!    (keys as canonical encodings, minimized patterns as DSL text);
//! 2. the **type-interner name table**, in id order — the ground truth
//!    that makes the engines portable across processes.
//!
//! [`write_snapshot`] runs on server drain (`tpq serve --snapshot`);
//! [`restore_snapshot`] runs at bind (`--restore`). Restores are
//! **all-or-nothing and never trust the file**: a truncated, corrupt,
//! wrong-schema-version or interner-incompatible snapshot is rejected
//! with a [`RestoreError`] and the server simply starts cold.
//!
//! # Why the interner table must restore to the *identity* mapping
//!
//! Canonical keys embed raw [`TypeId`] numbers, and the
//! memo does not retain the input patterns the keys were computed from —
//! so keys cannot be re-encoded under a new id assignment. Instead the
//! snapshot carries the writer's full name table, and the restore interns
//! those names **in id order** into the target interner. If any name does
//! not land on its recorded id (the target interner already assigned ids
//! differently), the whole snapshot is rejected: under a shifted mapping
//! a stale key string could collide with a *different* future pattern's
//! key and serve a wrong minimization. A fresh process restoring at
//! startup (the `--restore` path) always passes this check, because a
//! fresh interner assigns ids sequentially from zero.
//!
//! Snapshots are integrity-checked (FNV-1a over the payload), not
//! authenticated: restore only files your own server wrote.

use std::fmt;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use tpq_base::{failpoint, Json, TypeId, TypeInterner};
use tpq_constraints::{parse_constraints, Constraint, ConstraintSet};
use tpq_core::{BatchMinimizer, Strategy};
use tpq_pattern::print::to_dsl;
use tpq_pattern::{parse_pattern, CanonicalKey, TreePattern};

/// Snapshot file schema version. Bump on any shape change; restores
/// reject every version but the current one.
pub const SCHEMA_VERSION: i64 = 2;

/// What a snapshot write or restore covered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotStats {
    /// Engines in the shared-engine LRU.
    pub engines: usize,
    /// Memoized canonical patterns summed over all engines.
    pub patterns: usize,
    /// Snapshot file size in bytes.
    pub bytes: u64,
    /// When the snapshot was written (milliseconds since the Unix epoch).
    pub created_unix_ms: u64,
}

/// Why a snapshot was rejected. The server treats every variant the same
/// way — log it and start cold — but the reason names the first check
/// that failed, for operators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreError {
    /// The first integrity or compatibility check that failed.
    pub reason: String,
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "snapshot rejected: {}", self.reason)
    }
}

impl std::error::Error for RestoreError {}

fn reject(reason: impl Into<String>) -> RestoreError {
    RestoreError { reason: reason.into() }
}

/// FNV-1a over the compact payload rendering — an integrity check against
/// torn writes and bit rot, not an authentication mechanism.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The serve-protocol spelling of a strategy (inverse of its `FromStr`).
fn strategy_name(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::CdmThenAcim => "full",
        Strategy::CimOnly => "cim",
        Strategy::AcimOnly => "acim",
        Strategy::CdmOnly => "cdm",
    }
}

/// One constraint as the name-based text line `parse_constraints` reads.
fn constraint_line(c: Constraint, types: &TypeInterner) -> String {
    let op = match c {
        Constraint::RequiredChild(..) => "->",
        Constraint::RequiredDescendant(..) => "->>",
        Constraint::CoOccurrence(..) => "~",
    };
    format!("{} {} {}", types.name(c.lhs()), op, types.name(c.rhs()))
}

/// A constraint set as sorted text lines (sorted so snapshot bytes are
/// deterministic — the underlying storage is hash-ordered).
fn constraint_lines(set: &ConstraintSet, types: &TypeInterner) -> Json {
    let mut lines: Vec<String> = set.iter().map(|c| constraint_line(c, types)).collect();
    lines.sort();
    Json::Array(lines.into_iter().map(Json::Str).collect())
}

/// Parse constraint text lines back into a set.
fn parse_lines(
    value: &Json,
    what: &str,
    types: &mut TypeInterner,
) -> Result<ConstraintSet, RestoreError> {
    let lines = value.as_array().ok_or_else(|| reject(format!("{what} must be an array")))?;
    let mut text = String::new();
    for line in lines {
        let line = line.as_str().ok_or_else(|| reject(format!("{what} holds a non-string")))?;
        text.push_str(line);
        text.push('\n');
    }
    parse_constraints(&text, types).map_err(|e| reject(format!("{what}: {e}")))
}

fn expect_str<'a>(value: Option<&'a Json>, what: &str) -> Result<&'a str, RestoreError> {
    value.and_then(Json::as_str).ok_or_else(|| reject(format!("missing string field '{what}'")))
}

/// Milliseconds since the Unix epoch, for snapshot provenance.
fn now_unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis() as u64)
}

/// Serialize the process-wide caches to `path`, atomically.
///
/// The file is written next to `path` as `<name>.tmp` and renamed into
/// place, so a crash (or the `snapshot.write` failpoint) mid-write never
/// leaves a partial snapshot where a restore would find it. `types` must
/// be the interner the cached data was built under — for the serve layer
/// that is [`crate::global_types`].
pub fn write_snapshot(path: &Path, types: &TypeInterner) -> std::io::Result<SnapshotStats> {
    let created_unix_ms = now_unix_ms();
    let engines = tpq_core::export_engines();
    let mut stats =
        SnapshotStats { engines: engines.len(), created_unix_ms, ..SnapshotStats::default() };

    let type_table =
        Json::Array(types.iter().map(|(_, name)| Json::Str(name.to_owned())).collect());
    let engine_entries = Json::Array(
        engines
            .iter()
            .map(|(ics, strategy, engine)| {
                let memo = engine.export_memo();
                stats.patterns += memo.len();
                Json::object(vec![
                    ("constraints", constraint_lines(ics, types)),
                    ("closed", constraint_lines(engine.constraints(), types)),
                    ("strategy", Json::Str(strategy_name(*strategy).to_owned())),
                    (
                        "memo",
                        Json::Array(
                            memo.iter()
                                .map(|(key, pattern)| {
                                    Json::object(vec![
                                        ("key", Json::Str(key.as_str().to_owned())),
                                        ("dsl", Json::Str(to_dsl(pattern, types))),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    );
    let payload = Json::object(vec![
        ("created_unix_ms", Json::Int(created_unix_ms as i64)),
        ("types", type_table),
        ("engines", engine_entries),
    ]);
    let payload_text = payload.to_string_compact();
    let file = Json::object(vec![
        ("schema", Json::Int(SCHEMA_VERSION)),
        ("checksum", Json::Str(format!("{:016x}", fnv1a64(payload_text.as_bytes())))),
        ("payload", payload),
    ]);
    let text = {
        let mut t = file.to_string_compact();
        t.push('\n');
        t
    };
    stats.bytes = text.len() as u64;

    let tmp = path.with_file_name(match path.file_name().and_then(|n| n.to_str()) {
        Some(name) => format!("{name}.tmp"),
        None => return Err(std::io::Error::other("snapshot path has no file name")),
    });
    let write_result = (|| -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        // The failpoint models a crash after the tmp file exists but
        // before the rename — the window atomicity must cover.
        failpoint::hit("snapshot.write").map_err(std::io::Error::other)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if let Err(e) = write_result {
        let _ = std::fs::remove_file(&tmp);
        tpq_obs::incr("snapshot.write.error", 1);
        return Err(e);
    }
    tpq_obs::incr("snapshot.write.ok", 1);
    Ok(stats)
}

/// Load a snapshot and seed the process-wide caches from it.
///
/// All validation happens before anything is committed: schema version,
/// payload checksum, the interner **identity check** (see the module
/// docs), and every embedded constraint line and pattern must parse. On
/// any failure the caches are untouched and the caller starts cold (the
/// target interner may retain benign extra name entries — it is
/// append-only, and names alone carry no cached answers).
pub fn restore_snapshot(
    path: &Path,
    types: &mut TypeInterner,
) -> Result<SnapshotStats, RestoreError> {
    let result = restore_inner(path, types);
    match &result {
        Ok(stats) => {
            tpq_obs::incr("snapshot.restore.ok", 1);
            tpq_obs::incr("snapshot.restore.patterns", stats.patterns as u64);
        }
        Err(_) => tpq_obs::incr("snapshot.restore.rejected", 1),
    }
    result
}

fn restore_inner(path: &Path, types: &mut TypeInterner) -> Result<SnapshotStats, RestoreError> {
    failpoint::hit("snapshot.read").map_err(|e| reject(e.to_string()))?;
    let text = std::fs::read_to_string(path)
        .map_err(|e| reject(format!("cannot read {}: {e}", path.display())))?;
    let bytes = text.len() as u64;
    let file = Json::parse(text.trim_end())
        .map_err(|e| reject(format!("not valid JSON (truncated?): {e}")))?;
    match file.get("schema").and_then(Json::as_i64) {
        Some(SCHEMA_VERSION) => {}
        Some(found) => {
            return Err(reject(format!(
                "schema version {found} (this build reads only {SCHEMA_VERSION})"
            )))
        }
        None => return Err(reject("missing schema version")),
    }
    let recorded = expect_str(file.get("checksum"), "checksum")?;
    let payload = file.get("payload").ok_or_else(|| reject("missing payload"))?;
    let actual = format!("{:016x}", fnv1a64(payload.to_string_compact().as_bytes()));
    if actual != recorded {
        return Err(reject(format!("checksum mismatch (recorded {recorded}, computed {actual})")));
    }
    let created_unix_ms =
        payload.get("created_unix_ms").and_then(Json::as_i64).unwrap_or_default().max(0) as u64;

    // The identity check: every recorded name must land on its recorded
    // id in the target interner. See the module docs for why anything
    // else must reject the whole file.
    let names = payload
        .get("types")
        .and_then(Json::as_array)
        .ok_or_else(|| reject("missing types table"))?;
    for (i, name) in names.iter().enumerate() {
        let name = name.as_str().ok_or_else(|| reject("types table holds a non-string"))?;
        let id = types.intern(name);
        if id != TypeId(i as u32) {
            return Err(reject(format!(
                "type '{name}' maps to {id}, snapshot recorded t{i} — \
                 the interner is not a fresh (or identically grown) one, \
                 so cached canonical keys would be unsound"
            )));
        }
    }

    // Parse everything into staging before committing anything.
    struct StagedEngine {
        ics: ConstraintSet,
        closed: ConstraintSet,
        strategy: Strategy,
        memo: Vec<(CanonicalKey, TreePattern)>,
    }
    let mut staged_engines: Vec<StagedEngine> = Vec::new();
    let mut patterns = 0usize;
    for entry in
        payload.get("engines").and_then(Json::as_array).ok_or_else(|| reject("missing engines"))?
    {
        let ics = parse_lines(
            entry.get("constraints").ok_or_else(|| reject("engine entry missing constraints"))?,
            "engine constraints",
            types,
        )?;
        let closed = parse_lines(
            entry.get("closed").ok_or_else(|| reject("engine entry missing closed"))?,
            "engine closed set",
            types,
        )?;
        let strategy =
            expect_str(entry.get("strategy"), "strategy")?.parse::<Strategy>().map_err(reject)?;
        let mut memo = Vec::new();
        for m in entry
            .get("memo")
            .and_then(Json::as_array)
            .ok_or_else(|| reject("engine entry missing memo"))?
        {
            let key = expect_str(m.get("key"), "memo key")?.to_owned();
            let dsl = expect_str(m.get("dsl"), "memo dsl")?;
            let pattern = parse_pattern(dsl, types)
                .map_err(|e| reject(format!("memoized pattern '{dsl}': {e}")))?;
            memo.push((CanonicalKey::from_canonical_string(key), pattern));
        }
        patterns += memo.len();
        staged_engines.push(StagedEngine { ics, closed, strategy, memo });
    }

    // Commit. Exports are most-recently-used first and imports insert at
    // the LRU front, so committing in reverse re-creates the order.
    let stats = SnapshotStats { engines: staged_engines.len(), patterns, bytes, created_unix_ms };
    for staged in staged_engines.into_iter().rev() {
        let engine = BatchMinimizer::from_parts(staged.closed, staged.strategy);
        engine.import_memo(staged.memo);
        tpq_core::seed_engine(staged.ics, staged.strategy, Arc::new(engine));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        // Reference value for the empty input (the FNV-1a offset basis)
        // pins the algorithm; the other cases pin sensitivity.
        assert_eq!(format!("{:016x}", fnv1a64(b"")), "cbf29ce484222325");
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in [Strategy::CdmThenAcim, Strategy::CimOnly, Strategy::AcimOnly, Strategy::CdmOnly] {
            assert_eq!(strategy_name(s).parse::<Strategy>().unwrap(), s);
        }
    }

    #[test]
    fn identity_check_rejects_a_mismatched_interner() {
        // A snapshot recorded under one interner must not restore into an
        // interner whose ids diverge. Build a real file, then restore it
        // into an interner that already assigned "B" the id 0.
        let dir = std::env::temp_dir().join(format!("tpq-snap-identity-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let mut writer_types = TypeInterner::new();
        writer_types.intern_all(["A", "B"]);
        write_snapshot(&path, &writer_types).unwrap();

        let mut fresh = TypeInterner::new();
        assert!(restore_snapshot(&path, &mut fresh).is_ok(), "fresh interner is the identity");

        let mut shifted = TypeInterner::new();
        shifted.intern("B");
        let err = restore_snapshot(&path, &mut shifted).unwrap_err();
        assert!(err.reason.contains("not a fresh"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
