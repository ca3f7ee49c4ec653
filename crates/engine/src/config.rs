//! Engine configuration.

use imprints::simd::RefineKernel;

/// What a caller sets about tables, sealing and query execution. What the
/// engine derives or fixes instead: the write head's tail-index threshold
/// ([`EngineConfig::tail_index_min_rows`], `segment_rows / 16`) and the
/// compaction tiering (fan-in 4, a 64 MiB input budget per tick; see
/// [`crate::planner`]).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Rows per sealed segment. Must be a multiple of 64 so that every
    /// scalar width's cacheline grid (8–64 values per line) divides the
    /// segment evenly and per-segment imprints never straddle a boundary.
    pub segment_rows: usize,
    /// Worker threads in the query pool (`0` = one per available core).
    pub workers: usize,
    /// Which false-positive refinement kernel weeds fetched cachelines
    /// everywhere a value is checked (sealed imprint check lines,
    /// tail-imprint head lines, conjunction survivors): `Auto`
    /// (currently the vector kernel), `Scalar` (the classic loop, kept as
    /// the differential oracle), or `Swar` (the vector kernel, under its
    /// historical name). This is the only configured
    /// selection there is — no process-wide setter exists — and it scopes
    /// to the tables created with this configuration: it is resolved via
    /// [`imprints::simd::effective_kernel`] and threaded into every value
    /// check, so tables with different selections coexist in one process.
    /// The `IMPRINTS_REFINE_KERNEL` environment variable
    /// (`auto`/`scalar`/`swar`) overrides every configuration — which is
    /// how CI forces the scalar fallback through the whole suite. Either
    /// kernel returns byte-identical results; only speed differs.
    pub refine_kernel: RefineKernel,
    /// Durable storage: where sealed segments persist and how much of
    /// their data stays memory-resident.
    pub storage: StorageOptions,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            segment_rows: 1 << 16,
            workers: 0,
            refine_kernel: RefineKernel::Auto,
            storage: StorageOptions::default(),
        }
    }
}

impl EngineConfig {
    /// Resolved worker count (`workers`, or one per core when 0).
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
        }
    }

    /// Open-segment rows at which the write head grows its incremental
    /// tail imprint (see [`crate::table`]): `segment_rows / 16`, which is
    /// 4,096 at the default 65,536 and exact, since `segment_rows` is a
    /// multiple of 64. Below it queries scan the open rows linearly — a
    /// tiny head is cheaper to scan than to index, and the bin sample
    /// would be too thin; at it the tail imprint is built from the rows
    /// accumulated so far, and every later append extends it under the
    /// table write lock.
    pub fn tail_index_min_rows(&self) -> usize {
        self.segment_rows / 16
    }

    /// Panics if the configuration is structurally invalid.
    pub fn validate(&self) {
        assert!(self.segment_rows > 0, "segment_rows must be positive");
        assert_eq!(self.segment_rows % 64, 0, "segment_rows must be a multiple of 64");
    }
}

/// Durable-storage knobs: the on-disk root of sealed segments and the
/// budget for the imprint-resident cold-eviction policy.
///
/// The paper's size argument (§5: an imprint is a few percent of its
/// column) is what makes eviction worthwhile: with `root` set, every
/// sealed segment's columns and imprints are persisted under
/// `root/<table>/seg-*` and a restart recovers tables via
/// [`Catalog::open`](crate::Catalog::open); with a finite
/// `max_resident_data_bytes`, the maintenance planner drops the *data*
/// pages of the coldest persisted segments while their imprints stay
/// resident — counts that the imprint fully covers are answered without
/// touching disk, and only refinement faults data back in.
#[derive(Debug, Clone)]
pub struct StorageOptions {
    /// Directory holding one subdirectory per table. `None` (the default)
    /// disables persistence entirely: segments live in memory only and
    /// eviction never runs.
    pub root: Option<std::path::PathBuf>,
    /// Per-table budget of memory-resident sealed-segment data bytes. When
    /// a maintenance tick finds more resident data than this, it evicts
    /// persisted segments coldest-first until back under budget.
    /// `usize::MAX` (the default) never evicts.
    pub max_resident_data_bytes: usize,
    /// Whether [`Catalog::open`](crate::Catalog::open) reads persisted
    /// indexes back (leaving segment data evicted until first touched) or
    /// ignores them and rebuilds every index from the column data. `true`
    /// is the fast restart path; `false` is the rebuild baseline the
    /// benchmark's `engine.open_rebuild_s` times beside `engine.open_s`.
    pub load_indexes: bool,
}

impl Default for StorageOptions {
    fn default() -> Self {
        StorageOptions { root: None, max_resident_data_bytes: usize::MAX, load_indexes: true }
    }
}
