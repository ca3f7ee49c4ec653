//! Durable on-disk representation of sealed segments.
//!
//! Each table owns one directory under the storage root:
//!
//! ```text
//! <root>/<table>/
//!   MANIFEST                  # committed segment list (epoch, schema, dirs)
//!   seg-<base>-<uid>/         # one directory per sealed segment
//!     c0.col  c0.imp          # per column: data, imprint
//!     c1.col  c1.imp  ...
//! ```
//!
//! Every file reuses the checksummed [`colstore::storage`] framing, so a
//! flipped bit anywhere surfaces as a typed [`colstore::Error`] — never a
//! panic, never a silently wrong answer. Crash atomicity is rename-based
//! at two levels: a segment directory is fully written and fsynced under
//! a `.tmp` name before one `rename` publishes it, and the manifest —
//! the *only* commit point — is rewritten the same way. A crash between
//! the two leaves an orphan directory that the next
//! [`Catalog::open`](crate::Catalog::open) garbage-collects; it can
//! never leave a manifest pointing at a half-written segment.
//!
//! The manifest deliberately stays small (epoch + schema + one line per
//! segment): rewriting it whole per seal is cheaper than any
//! incremental-log scheme at the segment counts this engine sees, and it
//! makes recovery a single checksummed read.

use std::fs;
use std::io::{self, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use colstore::relation::AnyColumn;
use colstore::storage::{Reader, Writer};
use colstore::{ColumnType, Error, Result};
use imprints::relation_index::AnyImprints;

use crate::segment::SealedSegment;
use crate::table::ColumnDef;

/// Magic bytes identifying a table manifest file.
pub const MANIFEST_MAGIC: [u8; 4] = *b"CIMM";
/// Current manifest format version.
pub const MANIFEST_VERSION: u16 = 1;
/// File name of the manifest inside a table directory.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Data file of column `ci` inside a segment directory.
pub(crate) fn column_file(ci: usize) -> String {
    format!("c{ci}.col")
}

/// Imprint index file of column `ci`.
pub(crate) fn imprint_file(ci: usize) -> String {
    format!("c{ci}.imp")
}

/// Opens `path` buffered for reading.
fn open_file(path: &Path) -> Result<BufReader<fs::File>> {
    Ok(BufReader::new(fs::File::open(path)?))
}

/// Reads one whole checksummed column file holding a column of type `ty`.
pub(crate) fn read_column_file(path: &Path, ty: ColumnType) -> Result<AnyColumn> {
    AnyColumn::read_from(ty, &mut open_file(path)?)
}

/// Reads one whole checksummed imprint file indexing a column of type `ty`.
pub(crate) fn read_index_file(path: &Path, ty: ColumnType) -> Result<AnyImprints> {
    AnyImprints::read_from(ty, &mut open_file(path)?)
}

/// One committed segment in a [`Manifest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SegmentEntry {
    /// First global row id the segment covers.
    pub base: u64,
    /// Rows in the segment.
    pub rows: u64,
    /// Segment directory name under the table directory.
    pub dir: String,
}

/// The committed durable state of one table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Manifest {
    /// The table epoch of the segment list committed.
    pub epoch: u64,
    /// Column definitions, in column-index order.
    pub schema: Vec<ColumnDef>,
    /// Sealed segments in ascending base order.
    pub segments: Vec<SegmentEntry>,
}

/// What [`Catalog::open`](crate::Catalog::open) found and did.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Tables recovered.
    pub tables: usize,
    /// Sealed segments restored.
    pub segments: usize,
    /// Rows restored across all tables.
    pub rows: u64,
    /// Segment columns whose persisted indexes were read back (data left
    /// evicted on disk).
    pub indexes_recovered: usize,
    /// Segment columns whose indexes were rebuilt from the column data
    /// (missing/corrupt index files, or `load_indexes` off).
    pub indexes_rebuilt: usize,
    /// Wall nanoseconds spent reading indexes back.
    pub recover_nanos: u64,
    /// Wall nanoseconds spent rebuilding indexes from data.
    pub rebuild_nanos: u64,
    /// Orphan segment directories and stale temp files removed.
    pub orphans_removed: usize,
}

/// The durable side of one table: its directory and a uid counter making
/// segment-directory names unique across replacements of the same base
/// row. It holds no lock: the owning table commits manifests only under
/// its own write lock (see [`TableStore::commit_manifest`]).
#[derive(Debug)]
pub(crate) struct TableStore {
    /// `<storage root>/<table>`.
    root: PathBuf,
    uid: AtomicU64,
}

impl TableStore {
    /// Creates the table directory and commits an empty manifest, marking
    /// the directory as a recoverable table.
    pub(crate) fn create(root: &Path, name: &str, schema: &[ColumnDef]) -> Result<TableStore> {
        let dir = root.join(name);
        fs::create_dir_all(&dir)?;
        let store = TableStore { root: dir, uid: AtomicU64::new(0) };
        store.commit_manifest(0, schema, &[])?;
        Ok(store)
    }

    /// Opens an existing table directory, reading its committed manifest.
    /// The uid counter resumes past every segment directory already on
    /// disk (committed or orphaned), so new names never collide.
    pub(crate) fn open(root: &Path, name: &str) -> Result<(TableStore, Manifest)> {
        let dir = root.join(name);
        let manifest = read_manifest(&dir.join(MANIFEST_FILE))?;
        let mut max_uid = 0u64;
        for entry in fs::read_dir(&dir)? {
            if let Some(uid) = dir_uid(&entry?.file_name().to_string_lossy()) {
                max_uid = max_uid.max(uid + 1);
            }
        }
        Ok((TableStore { root: dir, uid: AtomicU64::new(max_uid) }, manifest))
    }

    /// The directory of segment `name`.
    pub(crate) fn segment_dir(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    /// Writes `seg` as a fresh segment directory: every column's data and
    /// imprint into a `.tmp` directory, each file fsynced and then the
    /// directory holding their names, then one rename publishing it. On
    /// success the segment is marked durable (directory name + per-column
    /// data files pinned). A segment that is already durable — a recovered
    /// one — is left as is.
    pub(crate) fn persist_segment(&self, seg: &SealedSegment) -> Result<()> {
        if seg.durable_name().is_some() {
            return Ok(());
        }
        // ordering: uniqueness is all that matters for the uid counter;
        // the value guards no other memory.
        let uid = self.uid.fetch_add(1, Ordering::Relaxed);
        let name = format!("seg-{:012}-{uid}", seg.base());
        let tmp = self.root.join(format!("{name}.tmp"));
        // A leftover from a crashed attempt cannot exist under this name
        // (uids are fresh), but be thorough.
        let _ = fs::remove_dir_all(&tmp);
        fs::create_dir_all(&tmp)?;
        for (ci, col) in seg.columns().iter().enumerate() {
            write_file(&tmp.join(column_file(ci)), |w| col.write_data_to(w))?;
            write_file(&tmp.join(imprint_file(ci)), |w| col.write_index_to(w))?;
        }
        // The files' *names* live in the tmp directory: without this a
        // committed manifest could name a directory whose entries never
        // reached the disk.
        sync_dir(&tmp)?;
        let dir = self.root.join(&name);
        fs::rename(&tmp, &dir)?;
        sync_dir(&self.root)?;
        seg.mark_durable(&name, &dir);
        Ok(())
    }

    /// Commits a manifest at `epoch` covering `segments`. The rename of
    /// `MANIFEST.tmp` over `MANIFEST` is the commit point. Commits are not
    /// serialized here: the table calls this only inside its write critical
    /// section (`Table::install_locked`), which orders the commits by epoch
    /// and gives `MANIFEST.tmp` one writer at a time.
    pub(crate) fn commit_manifest(
        &self,
        epoch: u64,
        schema: &[ColumnDef],
        segments: &[SegmentEntry],
    ) -> Result<()> {
        let mut w = Writer::new();
        w.put_u16(MANIFEST_VERSION);
        w.put_u16(0);
        w.put_u64(epoch);
        w.put_u64(schema.len() as u64);
        for def in schema {
            w.put_u32(def.name.len() as u32);
            w.put_bytes(def.name.as_bytes());
            w.put_u8(def.ty.tag());
        }
        w.put_u64(segments.len() as u64);
        for seg in segments {
            w.put_u64(seg.base);
            w.put_u64(seg.rows);
            w.put_u32(seg.dir.len() as u32);
            w.put_bytes(seg.dir.as_bytes());
        }
        let tmp = self.root.join(format!("{MANIFEST_FILE}.tmp"));
        write_file(&tmp, |mut out| w.finish(&MANIFEST_MAGIC, &mut out))?;
        fs::rename(&tmp, self.root.join(MANIFEST_FILE))?;
        sync_dir(&self.root)
    }

    /// Removes everything in the table directory that the committed
    /// manifest does not reference: segment directories a merge superseded,
    /// whose install lost its race, or whose commit a crash cut off, and
    /// stale `.tmp` files. Only called from
    /// [`Catalog::open`](crate::Catalog::open), before any query runs — at
    /// runtime, pinned readers may still hold segments whose directories a
    /// later manifest dropped.
    pub(crate) fn gc(&self, manifest: &Manifest) -> Result<usize> {
        let mut removed = 0;
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name == MANIFEST_FILE {
                continue;
            }
            if manifest.segments.iter().any(|s| s.dir == name) {
                continue;
            }
            let path = entry.path();
            if path.is_dir() {
                fs::remove_dir_all(&path)?;
            } else {
                fs::remove_file(&path)?;
            }
            removed += 1;
        }
        Ok(removed)
    }

    /// Deletes the table's entire durable state (`drop_table`).
    pub(crate) fn destroy(&self) -> Result<()> {
        fs::remove_dir_all(&self.root)?;
        Ok(())
    }
}

/// The uid suffix of a `seg-<base>-<uid>[.tmp]` directory name.
fn dir_uid(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("seg-")?;
    let rest = rest.strip_suffix(".tmp").unwrap_or(rest);
    rest.rsplit('-').next()?.parse().ok()
}

/// Writes one file through `fill`, then flushes and fsyncs it — every
/// durable byte hits the disk before the enclosing rename can publish it.
fn write_file(path: &Path, fill: impl FnOnce(&mut dyn Write) -> Result<()>) -> Result<()> {
    let file = fs::File::create(path)?;
    let mut out = io::BufWriter::new(file);
    fill(&mut out)?;
    out.flush()?;
    out.get_ref().sync_all()?;
    Ok(())
}

/// Fsyncs a directory so a just-renamed entry survives power loss.
fn sync_dir(dir: &Path) -> Result<()> {
    fs::File::open(dir)?.sync_all()?;
    Ok(())
}

/// Reads and validates a manifest written by
/// [`TableStore::commit_manifest`].
pub(crate) fn read_manifest(path: &Path) -> Result<Manifest> {
    let mut r = Reader::open(&MANIFEST_MAGIC, &mut open_file(path)?)?;
    let version = r.get_u16()?;
    if version != MANIFEST_VERSION {
        return Err(Error::Corrupt(format!("unsupported manifest version {version}")));
    }
    let _pad = r.get_u16()?;
    let epoch = r.get_u64()?;
    // Minimal per-entry footprint bounds the allocation before reading
    // variable-length names (satellite of the `read_column` guard).
    let n_cols = r.get_count(5, "schema column")?;
    let mut schema = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        let name = read_name(&mut r, "column")?;
        let tag = r.get_u8()?;
        let ty = ColumnType::from_tag(tag)
            .ok_or_else(|| Error::Corrupt(format!("unknown type tag {tag}")))?;
        schema.push(ColumnDef { name, ty });
    }
    let n_segs = r.get_count(20, "segment entry")?;
    let mut segments = Vec::with_capacity(n_segs);
    let mut next_base = 0u64;
    for _ in 0..n_segs {
        let base = r.get_u64()?;
        let rows = r.get_u64()?;
        let dir = read_name(&mut r, "segment directory")?;
        if base != next_base {
            return Err(Error::Corrupt(format!(
                "segment {dir} starts at row {base}, expected {next_base}"
            )));
        }
        next_base = base
            .checked_add(rows)
            .ok_or_else(|| Error::Corrupt("segment row range overflows".into()))?;
        segments.push(SegmentEntry { base, rows, dir });
    }
    if r.remaining() != 0 {
        return Err(Error::Corrupt(format!("{} trailing bytes", r.remaining())));
    }
    Ok(Manifest { epoch, schema, segments })
}

/// One length-prefixed UTF-8 name, length-guarded against the remaining
/// payload before allocating.
fn read_name(r: &mut Reader, what: &str) -> Result<String> {
    let len = r.get_u32()? as usize;
    if len > r.remaining() {
        return Err(Error::Corrupt(format!(
            "{what} name of {len} bytes exceeds {} remaining",
            r.remaining()
        )));
    }
    String::from_utf8(r.get_bytes(len)?.to_vec())
        .map_err(|_| Error::Corrupt(format!("{what} name is not UTF-8")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn defs() -> Vec<ColumnDef> {
        vec![
            ColumnDef { name: "id".into(), ty: ColumnType::U64 },
            ColumnDef { name: "price".into(), ty: ColumnType::F64 },
        ]
    }

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("imprints-persist-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Every commit replaces the manifest: ordering the commits is the
    /// table's job, and
    /// `planner::tests::durable_epoch_is_the_table_epoch_after_every_install`
    /// shows it does it.
    #[test]
    fn manifest_roundtrip_and_every_commit_stands() {
        let root = temp_root("manifest");
        let store = TableStore::create(&root, "t", &defs()).unwrap();
        let segs = vec![
            SegmentEntry { base: 0, rows: 64, dir: "seg-000000000000-0".into() },
            SegmentEntry { base: 64, rows: 128, dir: "seg-000000000064-1".into() },
        ];
        store.commit_manifest(3, &defs(), &segs[..1]).unwrap();
        store.commit_manifest(4, &defs(), &segs).unwrap();
        let (_, m) = TableStore::open(&root, "t").unwrap();
        assert_eq!((m.epoch, m.schema, m.segments), (4, defs(), segs));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn manifest_bitflip_never_panics() {
        let root = temp_root("bitflip");
        let store = TableStore::create(&root, "t", &defs()).unwrap();
        let segs = vec![SegmentEntry { base: 0, rows: 4096, dir: "seg-000000000000-0".into() }];
        store.commit_manifest(1, &defs(), &segs).unwrap();
        let path = root.join("t").join(MANIFEST_FILE);
        let clean = fs::read(&path).unwrap();
        for i in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[i] ^= 0x10;
            fs::write(&path, &bytes).unwrap();
            // Every flipped bit must yield a typed error, never a panic or
            // a silently accepted manifest.
            read_manifest(&path).unwrap_err();
        }
        fs::write(&path, &clean).unwrap();
        assert_eq!(read_manifest(&path).unwrap().segments, segs);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn manifest_gap_in_row_ranges_rejected() {
        let root = temp_root("gap");
        let store = TableStore::create(&root, "t", &defs()).unwrap();
        let segs = vec![
            SegmentEntry { base: 0, rows: 64, dir: "a".into() },
            SegmentEntry { base: 128, rows: 64, dir: "b".into() },
        ];
        store.commit_manifest(1, &defs(), &segs).unwrap();
        let err = read_manifest(&root.join("t").join(MANIFEST_FILE)).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "got {err}");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn uid_counter_resumes_past_existing_dirs() {
        assert_eq!(dir_uid("seg-000000000000-17"), Some(17));
        assert_eq!(dir_uid("seg-000000000064-3.tmp"), Some(3));
        assert_eq!(dir_uid("MANIFEST"), None);
        assert_eq!(dir_uid("seg-junk-x"), None);
    }
}
