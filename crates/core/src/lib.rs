//! The Affidavit search algorithm — the paper's primary contribution.
//!
//! Solves practical instances of **Explain-Table-Delta** (Def. 3.11): given
//! two unaligned snapshots of a table, find the cheapest explanation
//! `E = (S^E−, T^E+, F^E)` of the differences under the minimum-description-
//! length cost of Def. 3.10. The problem is NP-hard (Thm. 3.12); Affidavit
//! is the best-first search of Algorithm 1 over partial attribute-function
//! assignments.
//!
//! Entry point: [`search::Affidavit`].
//!
//! ```
//! use affidavit_core::config::AffidavitConfig;
//! use affidavit_core::instance::ProblemInstance;
//! use affidavit_core::search::Affidavit;
//! use affidavit_table::{Schema, Table, ValuePool};
//!
//! let mut pool = ValuePool::new();
//! let source = Table::from_rows(
//!     Schema::new(["Val", "Org"]),
//!     &mut pool,
//!     vec![vec!["80000", "IBM"], vec!["65", "SAP"], vec!["21000", "IBM"]],
//! );
//! let target = Table::from_rows(
//!     Schema::new(["Val", "Org"]),
//!     &mut pool,
//!     vec![vec!["80", "IBM"], vec!["0.065", "SAP"], vec!["21", "IBM"]],
//! );
//! let mut instance = ProblemInstance::new(source, target, pool).unwrap();
//! let result = Affidavit::new(AffidavitConfig::paper_id()).explain(&mut instance);
//! assert_eq!(result.explanation.core_pairs().len(), 3); // everything aligns
//! ```

#![warn(missing_docs)]

pub mod apply;
pub mod config;
pub mod cost;
pub mod delta;
pub mod explanation;
pub mod extend;
pub mod finalize;
pub mod induction;
pub mod instance;
pub mod portable;
pub mod profiling;
pub mod queue;
pub mod ranking;
pub mod report;
pub mod restructure;
pub mod schema_align;
pub mod search;
pub mod state;
pub mod stats;
pub mod trace;

pub use config::{resolve_parallelism, AffidavitConfig, InitStrategy};
pub use explanation::Explanation;
pub use instance::ProblemInstance;
pub use search::{Affidavit, DeadlineExceeded, SearchOutcome};
