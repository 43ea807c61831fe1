//! Deterministic workload generators for the experiment suite.
//!
//! Section 5.1 of the paper evaluates on:
//!
//! * **synthetic uncertain datasets** `lUrU / lUrG / lSrU / lSrG` —
//!   object centres Uniform or Skewed over `[0, 10000]^d`, uncertain-
//!   region radii Uniform or Gaussian over `[r_min, r_max]`, samples
//!   uniform within the region ([`synthetic`]),
//! * **synthetic certain datasets** — Independent, Correlated,
//!   Anti-correlated, Clustered ([`certain`]),
//! * the **NBA** dataset (15,272 season records of 3,542 players, four
//!   attributes) and **CarDB** (45,311 used cars, price × mileage).
//!
//! The real NBA/CarDB files are not redistributable, so [`nba`] and
//! [`cardb`] generate statistically similar stand-ins (documented in
//! DESIGN.md): the case studies exercise identical code paths and produce
//! the same *shape* of output (a handful of dominating star players /
//! strictly better car listings). Every generator is a pure function of
//! its seed.

pub mod cardb;
pub mod certain;
pub mod io;
pub mod nba;
pub mod rng;
pub mod synthetic;
pub mod vfs;
pub mod wal;
pub mod wire;
pub mod workload;

pub use cardb::{cardb_dataset, CarDbConfig};
pub use certain::{certain_dataset, CertainConfig, CertainKind};
pub use io::{
    load_points, load_season_records, parse_points, parse_season_records, write_season_records,
    CsvError,
};
pub use nba::{nba_dataset, nba_position_query, NbaConfig};
pub use synthetic::{
    pdf_dataset, uncertain_dataset, CenterDistribution, RadiusDistribution, UncertainConfig,
};
pub use vfs::{
    classify, retry, CrashMode, FaultClass, FaultSpec, FaultVfs, MemVfs, RealVfs, RetryPolicy, Vfs,
    VfsFile,
};
pub use wal::{recover_session, Manifest, WalBatch, WalRecovery, WriteAheadLog};
pub use wire::{
    decode_frame, encode_frame, read_frame, write_frame, Request, Response, WireCause, WireError,
    WirePartial, WireResult, WireStop, MAX_FRAME,
};
pub use workload::{load_workload, parse_workload, WorkloadOp};
