//! Content-addressed result store (`results/store/` by default).
//!
//! One file per completed sweep point, named by the point's digest
//! (`<16-hex>.json`), holding exactly two JSON lines:
//!
//! 1. a *meta* row (`kind = "store_meta"`): digest, experiment name, axis
//!    labels, wall-clock cost — human/tooling context, free to vary
//!    between runs;
//! 2. the *result* row, stored **verbatim**. Cache hits splice these raw
//!    bytes back into the merged sweep output, which is what makes a
//!    resumed run byte-identical to an uninterrupted one without relying
//!    on float re-serialization round-trips.
//!
//! Writes go to a temp file in the same directory followed by an atomic
//! rename, so a killed sweep leaves only whole entries behind — the
//! property a relaunched `hx sweep` builds on.

use std::collections::HashSet;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::digest::digest_hex;
use crate::value::{parse_json, well_formed};

/// Default store location, relative to the repo root.
pub const DEFAULT_STORE_DIR: &str = "results/store";

/// Meta line of a store entry.
#[derive(serde::Serialize, Clone, Debug)]
pub struct StoreMeta {
    pub kind: &'static str,
    pub digest: String,
    pub experiment: String,
    pub pattern: String,
    pub algo: String,
    pub load: f64,
    pub seed: u64,
    pub fails: u64,
    pub elapsed_ms: u64,
}

/// A scanned entry (for `hx status` / `hx gc`).
#[derive(Clone, Debug)]
pub struct EntryInfo {
    pub(crate) digest: u64,
    pub experiment: String,
    pub bytes: u64,
    /// Schema version from the entry's meta line (`None` if unreadable).
    /// Entries from another version are whole but can never hit.
    pub schema_version: Option<i64>,
}

/// The `schema_version` field of a JSON row, if present.
fn schema_version_of(line: &str) -> Option<i64> {
    parse_json(line).ok()?.get("schema_version")?.as_i64()
}

/// Handle on a store directory.
pub struct Store {
    dir: PathBuf,
    /// `{"schema_version":N` for this build's N: how a current line starts.
    current: String,
}

impl Store {
    /// Opens (creating if needed) the store at `dir`.
    pub fn open(dir: &Path) -> std::io::Result<Store> {
        std::fs::create_dir_all(dir)?;
        Ok(Store {
            dir: dir.to_path_buf(),
            current: format!("{{\"schema_version\":{}", hxsim::SCHEMA_VERSION),
        })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, digest: u64) -> PathBuf {
        self.dir.join(format!("{}.json", digest_hex(digest)))
    }

    /// Returns the stored result-row bytes for `digest`, or `None` when
    /// the point has not been computed (or the entry is unreadable /
    /// from an incompatible schema — both count as misses, never errors:
    /// the sweep recomputes and overwrites).
    ///
    /// A *corrupt* entry — truncated to fewer than two lines, or holding
    /// lines that are not valid JSON (a crash or disk fault mid-write,
    /// which the atomic-rename protocol should make impossible but a
    /// hostile filesystem can still produce) — is quarantined: renamed to
    /// `.corrupt.<digest>.json` with a warning, so the point recomputes
    /// and the evidence survives for inspection until `hx gc` sweeps it.
    /// Entries from an *incompatible schema* are whole and healthy, just
    /// stale — they miss without quarantine, but each miss says so: a
    /// silently shrinking cache after a schema bump looks exactly like a
    /// broken one, so the warning names the entry's version.
    pub fn lookup(&self, digest: u64) -> Option<String> {
        let content = std::fs::read_to_string(self.path_for(digest)).ok()?;
        let mut lines = content.lines();
        let (meta, row) = match (lines.next(), lines.next()) {
            (Some(m), Some(r)) if well_formed(m) && well_formed(r) => (m, r),
            _ => {
                self.quarantine(digest);
                return None;
            }
        };
        // The version must be followed by a delimiter so e.g. version 10
        // cannot satisfy a version-1 prefix check.
        let ok = |line: &str| {
            line.strip_prefix(self.current.as_str())
                .is_some_and(|rest| rest.starts_with(',') || rest == "}")
        };
        if !ok(meta) || !ok(row) {
            let found = schema_version_of(meta)
                .or_else(|| schema_version_of(row))
                .map_or_else(|| "unversioned".to_string(), |got| format!("version {got}"));
            eprintln!(
                "warning: store entry {} is {found} (current schema is {}); \
                 treating as a miss and recomputing",
                self.path_for(digest).display(),
                hxsim::SCHEMA_VERSION
            );
            return None;
        }
        Some(row.to_string())
    }

    /// Moves a corrupt entry aside so the sweep recomputes the point. A
    /// failed rename falls back to leaving the file in place — the lookup
    /// still misses, it just warns again next time.
    fn quarantine(&self, digest: u64) {
        let from = self.path_for(digest);
        let to = self
            .dir
            .join(format!(".corrupt.{}.json", digest_hex(digest)));
        match std::fs::rename(&from, &to) {
            Ok(()) => eprintln!(
                "warning: corrupt store entry {} quarantined as {} (recomputing; `hx gc` removes it)",
                from.display(),
                to.display()
            ),
            Err(e) => eprintln!(
                "warning: corrupt store entry {} could not be quarantined ({e}); recomputing",
                from.display()
            ),
        }
    }

    /// Atomically writes an entry: meta row + verbatim result row.
    pub fn insert(&self, digest: u64, meta: &StoreMeta, row: &str) -> std::io::Result<()> {
        debug_assert!(!row.contains('\n'), "result row must be a single line");
        // pid alone is not unique enough: the serve daemon inserts from
        // many threads of one process, and two workers finishing the same
        // digest must not interleave writes into one temp file.
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let final_path = self.path_for(digest);
        let tmp_path = self.dir.join(format!(
            ".tmp.{}.{}.{seq}",
            digest_hex(digest),
            std::process::id()
        ));
        {
            let mut f = std::fs::File::create(&tmp_path)?;
            let meta_line = hxsim::versioned_json_row(meta);
            writeln!(f, "{meta_line}")?;
            writeln!(f, "{row}")?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp_path, &final_path)
    }

    /// Scans every entry, returning digest + experiment label + size.
    /// Unparsable files are reported with an empty experiment name.
    pub fn scan(&self) -> std::io::Result<Vec<EntryInfo>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let Some(hex) = name.strip_suffix(".json") else {
                continue;
            };
            let Ok(digest) = u64::from_str_radix(hex, 16) else {
                continue;
            };
            let bytes = entry.metadata().map(|m| m.len()).unwrap_or(0);
            let content = std::fs::read_to_string(entry.path()).ok();
            let meta_line = content.as_deref().and_then(|c| c.lines().next());
            let experiment = meta_line
                .and_then(|l| {
                    let meta = parse_json(l).ok()?;
                    Some(meta.get("experiment")?.as_str()?.to_string())
                })
                .unwrap_or_default();
            let schema_version = meta_line.and_then(schema_version_of);
            out.push(EntryInfo {
                digest,
                experiment,
                bytes,
                schema_version,
            });
        }
        out.sort_by_key(|e| e.digest);
        Ok(out)
    }

    /// Counts the store's non-entry debris: `(corrupt, tmp)` — quarantined
    /// corrupt entries awaiting `hx gc`, and temp files orphaned by a
    /// writer killed between create and rename. Neither is ever read back
    /// (lookups go by final name only), so debris is harmless — but an
    /// operator watching a shared cache under the daemon wants the counts.
    pub fn debris(&self) -> std::io::Result<(usize, usize)> {
        let mut corrupt = 0;
        let mut tmp = 0;
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if name.starts_with(".corrupt.") {
                corrupt += 1;
            } else if name.starts_with(".tmp.") {
                tmp += 1;
            }
        }
        Ok((corrupt, tmp))
    }

    /// Removes every entry whose digest is not in `keep`. With `dry_run`,
    /// nothing is deleted. Returns (kept, removed, removed_bytes).
    pub fn gc(&self, keep: &HashSet<u64>, dry_run: bool) -> std::io::Result<(usize, usize, u64)> {
        let mut kept = 0;
        let mut removed = 0;
        let mut removed_bytes = 0;
        for e in self.scan()? {
            if keep.contains(&e.digest) {
                kept += 1;
            } else {
                removed += 1;
                removed_bytes += e.bytes;
                if !dry_run {
                    std::fs::remove_file(self.path_for(e.digest))?;
                }
            }
        }
        // Leftover temp files from killed sweeps and quarantined corrupt
        // entries are always garbage.
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if (name.starts_with(".tmp.") || name.starts_with(".corrupt.")) && !dry_run {
                std::fs::remove_file(entry.path()).ok();
            }
        }
        Ok((kept, removed, removed_bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!("hx_store_test_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        Store::open(&dir).unwrap()
    }

    fn meta(exp: &str, digest: u64) -> StoreMeta {
        StoreMeta {
            kind: "store_meta",
            digest: digest_hex(digest),
            experiment: exp.into(),
            pattern: "UR".into(),
            algo: "DOR".into(),
            load: 0.1,
            seed: 1,
            fails: 0,
            elapsed_ms: 5,
        }
    }

    #[test]
    fn insert_lookup_roundtrip_is_verbatim() {
        let s = tmp_store("roundtrip");
        let row = format!(
            "{{\"schema_version\":{},\"accepted\":0.30000000000000004}}",
            hxsim::SCHEMA_VERSION
        );
        assert_eq!(s.lookup(42), None);
        s.insert(42, &meta("t", 42), &row).unwrap();
        assert_eq!(s.lookup(42).as_deref(), Some(row.as_str()));
        std::fs::remove_dir_all(s.dir()).ok();
    }

    #[test]
    fn incompatible_schema_is_a_miss() {
        let s = tmp_store("schema");
        let path = s.dir().join(format!("{}.json", digest_hex(7)));
        std::fs::write(
            &path,
            "{\"schema_version\":999}\n{\"schema_version\":999}\n",
        )
        .unwrap();
        assert_eq!(s.lookup(7), None);
        std::fs::remove_dir_all(s.dir()).ok();
    }

    /// `scan` reports each entry's schema version so `hx status` can
    /// count stale-but-healthy entries instead of them hiding as misses.
    #[test]
    fn scan_reports_schema_versions() {
        let s = tmp_store("scan_schema");
        let row = format!("{{\"schema_version\":{}}}", hxsim::SCHEMA_VERSION);
        s.insert(1, &meta("t", 1), &row).unwrap();
        let stale = s.dir().join(format!("{}.json", digest_hex(2)));
        std::fs::write(
            &stale,
            "{\"schema_version\":999,\"kind\":\"store_meta\"}\n{\"schema_version\":999}\n",
        )
        .unwrap();
        let entries = s.scan().unwrap();
        let version_of = |d: u64| {
            entries
                .iter()
                .find(|e| e.digest == d)
                .unwrap()
                .schema_version
        };
        assert_eq!(version_of(1), Some(i64::from(hxsim::SCHEMA_VERSION)));
        assert_eq!(version_of(2), Some(999));
        std::fs::remove_dir_all(s.dir()).ok();
    }

    fn corrupt_files(s: &Store) -> Vec<String> {
        std::fs::read_dir(s.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(".corrupt."))
            .collect()
    }

    #[test]
    fn truncated_entry_is_quarantined_and_recomputable() {
        let s = tmp_store("truncated");
        let path = s.dir().join(format!("{}.json", digest_hex(9)));
        // Only the meta line survived a simulated mid-write crash.
        std::fs::write(&path, "{\"schema_version\":1,\"kind\":\"store_meta\"}\n").unwrap();
        assert_eq!(s.lookup(9), None, "truncated entry must miss");
        assert!(!path.exists(), "corrupt entry must be moved aside");
        assert_eq!(corrupt_files(&s).len(), 1);
        // The slot is free again: a recomputed insert round-trips.
        let row = format!("{{\"schema_version\":{}}}", hxsim::SCHEMA_VERSION);
        s.insert(9, &meta("t", 9), &row).unwrap();
        assert_eq!(s.lookup(9).as_deref(), Some(row.as_str()));
        std::fs::remove_dir_all(s.dir()).ok();
    }

    #[test]
    fn unparseable_entry_is_quarantined_but_stale_schema_is_not() {
        let s = tmp_store("garbage");
        let path = s.dir().join(format!("{}.json", digest_hex(11)));
        std::fs::write(&path, "{\"schema_version\":1,\"acc\nnot json at all\n").unwrap();
        assert_eq!(s.lookup(11), None);
        assert!(!path.exists());
        assert_eq!(corrupt_files(&s).len(), 1);
        // A whole entry from an old schema is healthy — miss, no rename.
        let stale = s.dir().join(format!("{}.json", digest_hex(12)));
        std::fs::write(
            &stale,
            "{\"schema_version\":999}\n{\"schema_version\":999}\n",
        )
        .unwrap();
        assert_eq!(s.lookup(12), None);
        assert!(stale.exists(), "stale schema must not be quarantined");
        assert_eq!(corrupt_files(&s).len(), 1);
        std::fs::remove_dir_all(s.dir()).ok();
    }

    /// A writer killed between temp-file create and rename (simulated by
    /// doing the write half of `insert` by hand and "dying" before the
    /// rename) must leave the entry slot empty — a plain miss, with no
    /// `.corrupt.*` quarantine file — because the half-written bytes never
    /// reached the final name. The orphaned temp file shows up in
    /// `debris()` and a retried insert is oblivious to it.
    #[test]
    fn mid_write_kill_leaves_no_corrupt_entry() {
        let s = tmp_store("midwrite");
        let tmp = s
            .dir()
            .join(format!(".tmp.{}.{}.0", digest_hex(21), std::process::id()));
        std::fs::write(&tmp, "{\"schema_version\":1,\"kind\":\"store_m").unwrap();
        // died here: no rename.
        assert_eq!(s.lookup(21), None, "half-written entry must miss");
        assert!(
            corrupt_files(&s).is_empty(),
            "a miss on a never-renamed entry must not quarantine anything"
        );
        assert_eq!(s.debris().unwrap(), (0, 1));
        let row = format!("{{\"schema_version\":{}}}", hxsim::SCHEMA_VERSION);
        s.insert(21, &meta("t", 21), &row).unwrap();
        assert_eq!(s.lookup(21).as_deref(), Some(row.as_str()));
        assert!(corrupt_files(&s).is_empty());
        // gc clears the orphan.
        let keep: HashSet<u64> = [21u64].into_iter().collect();
        s.gc(&keep, false).unwrap();
        assert_eq!(s.debris().unwrap(), (0, 0));
        assert!(s.lookup(21).is_some());
        std::fs::remove_dir_all(s.dir()).ok();
    }

    /// Concurrent inserts of the *same digest* from one process must not
    /// share a temp file (the daemon's threads race exactly like this).
    #[test]
    fn concurrent_same_digest_inserts_are_isolated() {
        let s = tmp_store("tmpnames");
        let row = format!("{{\"schema_version\":{}}}", hxsim::SCHEMA_VERSION);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| s.insert(33, &meta("t", 33), &row).unwrap());
            }
        });
        assert_eq!(s.lookup(33).as_deref(), Some(row.as_str()));
        assert_eq!(s.debris().unwrap(), (0, 0), "every temp file was renamed");
        std::fs::remove_dir_all(s.dir()).ok();
    }

    #[test]
    fn gc_sweeps_quarantined_files() {
        let s = tmp_store("gc_corrupt");
        s.insert(1, &meta("t", 1), "{\"schema_version\":1}")
            .unwrap();
        let path = s.dir().join(format!("{}.json", digest_hex(2)));
        std::fs::write(&path, "half a li").unwrap();
        assert_eq!(s.lookup(2), None);
        assert_eq!(corrupt_files(&s).len(), 1);
        let keep: HashSet<u64> = [1u64].into_iter().collect();
        s.gc(&keep, true).unwrap();
        assert_eq!(corrupt_files(&s).len(), 1, "dry run must not delete");
        s.gc(&keep, false).unwrap();
        assert!(corrupt_files(&s).is_empty());
        assert!(s.lookup(1).is_some());
        std::fs::remove_dir_all(s.dir()).ok();
    }

    #[test]
    fn gc_keeps_only_reachable() {
        let s = tmp_store("gc");
        for d in [1u64, 2, 3] {
            s.insert(d, &meta("t", d), "{\"schema_version\":1}")
                .unwrap();
        }
        let keep: HashSet<u64> = [1u64, 3].into_iter().collect();
        let (kept, removed, _) = s.gc(&keep, true).unwrap();
        assert_eq!((kept, removed), (2, 1));
        assert!(s.lookup(2).is_some(), "dry run must not delete");
        let (kept, removed, _) = s.gc(&keep, false).unwrap();
        assert_eq!((kept, removed), (2, 1));
        assert!(s.lookup(2).is_none());
        assert!(s.lookup(1).is_some() && s.lookup(3).is_some());
        std::fs::remove_dir_all(s.dir()).ok();
    }
}
