//! Snapshot storage and ingestion subsystem.
//!
//! The search engine (`affidavit-core`) operates on `(Table, ValuePool)`
//! pairs; this crate is how those pairs come to exist at scale:
//!
//! * [`ingest`] — streaming CSV ingestion. The table crate's byte
//!   scanner ([`csv::read`](affidavit_table::csv::read)) reads the file
//!   through a fixed window in bounded memory and interns each field
//!   straight from it, so the resulting `(Table, ValuePool)` is
//!   **byte-identical** to
//!   [`csv::read_str`](affidavit_table::csv::read_str) on the same bytes.
//! * [`segment`] — the [`SegmentPool`] disk-backed
//!   interner: string bytes live in append-only segments spilled to files
//!   under a RAM budget, behind the same
//!   [`Interner`](affidavit_table::Interner) trait and [`ValuePool`] API
//!   the search already uses. Snapshots larger than RAM flow through the
//!   unchanged generic search.
//! * [`fingerprint`] — streaming content fingerprints (FNV-1a 64 +
//!   length) identifying snapshot files by bytes rather than path.
//! * [`manifest`] — atomic (write-temp-then-rename) persistence for the
//!   incremental re-profiling manifests of `--delta` runs.
//! * [`session`] — pinned ingested [`SnapshotPair`]s for a resident
//!   service: an LRU keyed by content fingerprint + pool config, so warm
//!   repeat requests skip ingestion entirely (counter-asserted).
//!
//! [`PoolConfig`] selects the backend at the edges (CLI, dataset loader,
//! profiling) without the inner layers knowing.
//!
//! ```
//! use affidavit_store::{ingest, IngestOptions};
//! use affidavit_table::ValuePool;
//!
//! let csv = "k,v\r\n1,\"a,b\"\r\n2,plain\r\n";
//! let mut pool = ValuePool::new();
//! let table = ingest::read_stream(csv.as_bytes(), &mut pool, &IngestOptions::default()).unwrap();
//! assert_eq!(table.len(), 2);
//! // Streaming ingestion is byte-identical to the in-memory reader.
//! let mut in_memory = ValuePool::new();
//! let reference = affidavit_table::csv::read_str(
//!     csv, &mut in_memory, affidavit_table::csv::CsvOptions::default()).unwrap();
//! assert_eq!(table, reference);
//! assert_eq!(pool.len(), in_memory.len());
//! ```

#![warn(missing_docs)]

pub mod fingerprint;
pub mod ingest;
pub mod manifest;
pub mod segment;
pub mod session;

use std::io;

use affidavit_table::ValuePool;

pub use fingerprint::{fingerprint_bytes, fingerprint_file, Fingerprint, Fnv};
pub use ingest::IngestOptions;
pub use segment::{SegmentPool, SegmentPoolConfig};
pub use session::{ingest_pair, SessionCounters, SessionKey, SessionLru, SnapshotPair};

/// Which storage backend a value pool uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PoolBackend {
    /// Every interned string stays in RAM (the default).
    #[default]
    Ram,
    /// String bytes live in disk-spilled segments under a RAM budget
    /// ([`SegmentPool`]).
    Disk,
}

impl std::str::FromStr for PoolBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<PoolBackend, String> {
        match s {
            "ram" => Ok(PoolBackend::Ram),
            "disk" => Ok(PoolBackend::Disk),
            other => Err(format!("unknown pool backend {other:?} (use ram|disk)")),
        }
    }
}

/// Backend selection plus its budget, as plumbed through the CLI
/// (`--pool-backend`, `--pool-budget-bytes`), the dataset loader and
/// profiling.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// The backend to build.
    pub backend: PoolBackend,
    /// RAM budget for string bytes (disk backend only).
    pub budget_bytes: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            backend: PoolBackend::Ram,
            budget_bytes: SegmentPoolConfig::default().budget_bytes,
        }
    }
}

impl PoolConfig {
    /// Build an empty pool with the configured backend.
    pub fn build(&self) -> io::Result<ValuePool> {
        match self.backend {
            PoolBackend::Ram => Ok(ValuePool::new()),
            PoolBackend::Disk => Ok(SegmentPool::create(SegmentPoolConfig::with_budget(
                self.budget_bytes,
            ))?
            .into_pool()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parses() {
        assert_eq!("ram".parse::<PoolBackend>().unwrap(), PoolBackend::Ram);
        assert_eq!("disk".parse::<PoolBackend>().unwrap(), PoolBackend::Disk);
        assert!("mmap".parse::<PoolBackend>().is_err());
    }

    #[test]
    fn config_builds_both_backends() {
        let ram = PoolConfig::default().build().unwrap();
        assert!(ram.store_stats().is_none());
        let disk = PoolConfig {
            backend: PoolBackend::Disk,
            budget_bytes: 4096,
        }
        .build()
        .unwrap();
        assert!(disk.store_stats().is_some());
    }
}
