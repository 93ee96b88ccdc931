//! Loading real dataset files when available.
//!
//! The paper's datasets can be downloaded from the HPI repeatability site
//! (see README). Drop them as `data/<name>.csv` (comma-separated, header
//! row) and the harness will transparently use the real data instead of
//! the synthetic stand-in.
//!
//! Real files go through the `affidavit-store` streaming ingestion
//! pipeline: chunked parallel interning (`IngestOptions`) into a pool of
//! the configured backend (`PoolConfig`, RAM or disk-spilled), so loading
//! scales with cores and snapshots may exceed RAM. The default options
//! reproduce the historical serial in-RAM behavior bit for bit.

use std::path::Path;

use affidavit_store::{ingest, IngestOptions, PoolConfig};
use affidavit_table::{Table, ValuePool};

use crate::specs::DatasetSpec;
use crate::synth;

/// Load `data_dir/<name>.csv` if present, otherwise generate the synthetic
/// stand-in. Returns the table, its pool, and whether real data was used.
pub fn load_or_generate(
    spec: &DatasetSpec,
    data_dir: impl AsRef<Path>,
    seed: u64,
) -> (Table, ValuePool, bool) {
    load_or_generate_with(
        spec,
        data_dir,
        seed,
        &IngestOptions::default(),
        &PoolConfig::default(),
    )
}

/// [`load_or_generate`] with explicit ingestion and pool-backend options
/// (the CLI's `--pool-backend` / `--pool-budget-bytes`).
pub fn load_or_generate_with(
    spec: &DatasetSpec,
    data_dir: impl AsRef<Path>,
    seed: u64,
    ingest_opts: &IngestOptions,
    pool_cfg: &PoolConfig,
) -> (Table, ValuePool, bool) {
    let path = data_dir.as_ref().join(format!("{}.csv", spec.name));
    if path.is_file() {
        match try_load(&path, ingest_opts, pool_cfg) {
            Ok((table, pool)) => return (table, pool, true),
            Err(err) => {
                eprintln!(
                    "warning: failed to read {} ({err}); falling back to synthetic data",
                    path.display()
                );
            }
        }
    }
    let (table, pool) = synth::generate(spec, seed);
    (table, pool, false)
}

fn try_load(
    path: &Path,
    ingest_opts: &IngestOptions,
    pool_cfg: &PoolConfig,
) -> Result<(Table, ValuePool), String> {
    let mut pool = pool_cfg
        .build()
        .map_err(|e| format!("cannot create {:?} pool backend: {e}", pool_cfg.backend))?;
    let table = ingest::read_path(path, &mut pool, ingest_opts).map_err(|e| e.to_string())?;
    Ok((table, pool))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::by_name;
    use affidavit_store::PoolBackend;

    #[test]
    fn falls_back_to_synthetic() {
        let spec = by_name("iris").unwrap();
        let (t, _, real) = load_or_generate(&spec, "/nonexistent-dir", 1);
        assert!(!real);
        assert_eq!(t.len(), 150);
    }

    #[test]
    fn prefers_real_file() {
        let dir = std::env::temp_dir().join("affidavit-loader-test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("iris.csv"), "a,b\n1,2\n").unwrap();
        let spec = by_name("iris").unwrap();
        let (t, _, real) = load_or_generate(&spec, &dir, 1);
        assert!(real);
        assert_eq!(t.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_file_warns_with_context_and_falls_back() {
        let dir = std::env::temp_dir().join("affidavit-loader-badfile-test");
        std::fs::create_dir_all(&dir).unwrap();
        // Record 2 (line 3) is short — the loader must fall back.
        std::fs::write(dir.join("iris.csv"), "a,b\n1,2\nonly-one\n").unwrap();
        let spec = by_name("iris").unwrap();
        let (t, _, real) = load_or_generate(&spec, &dir, 1);
        assert!(!real);
        assert_eq!(t.len(), 150);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loads_through_streaming_ingestion_and_disk_backend() {
        let dir = std::env::temp_dir().join("affidavit-loader-backend-test");
        std::fs::create_dir_all(&dir).unwrap();
        let mut text = String::from("a,b\n");
        for i in 0..200 {
            text.push_str(&format!("x{i},y{i}\n"));
        }
        std::fs::write(dir.join("iris.csv"), &text).unwrap();
        let spec = by_name("iris").unwrap();
        let ingest_opts = IngestOptions::default();
        let pool_cfg = PoolConfig {
            backend: PoolBackend::Disk,
            budget_bytes: 512,
        };
        let (t, pool, real) = load_or_generate_with(&spec, &dir, 1, &ingest_opts, &pool_cfg);
        assert!(real);
        assert_eq!(t.len(), 200);
        let stats = pool.store_stats().expect("disk backend attached");
        assert!(stats.spilled_bytes > 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
