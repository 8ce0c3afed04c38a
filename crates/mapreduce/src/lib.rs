//! # cts-mapreduce — uncoded and coded MapReduce engines
//!
//! This crate runs real MapReduce jobs over the `cts-net` substrate, in
//! both of the paper's flavors:
//!
//! * [`uncoded::run_uncoded`] — conventional TeraSort-style execution
//!   (paper §III): Map → Pack → serial-unicast Shuffle → Unpack → Reduce;
//! * [`coded::run_coded`] — CodedTeraSort-style execution (paper §IV):
//!   CodeGen → redundant Map → Encode → serial-multicast Shuffle →
//!   Decode → Reduce, built on the `cts-core` coding layer.
//!
//! Both engines are generic over a byte-oriented [`workload::Workload`] —
//! TeraSort lives in `cts-terasort`; [`wordcount::WordCount`],
//! [`grep::Grep`] and [`invindex::InvertedIndex`] here realize the paper's
//! §VI "beyond sorting" direction. Engines return a
//! [`uncoded::JobOutcome`]: per-partition outputs, a transfer trace, the
//! stage spans and the stage walls derived from them, and the
//! [`cts_netsim::RunStats`] the performance model consumes.
//!
//! ```
//! use bytes::Bytes;
//! use cts_mapreduce::stage::EngineConfig;
//! use cts_mapreduce::wordcount::WordCount;
//! use cts_mapreduce::{run_coded, run_uncoded};
//!
//! let input = Bytes::from_static(b"to be or not to be\nthat is the question\n");
//! let uncoded = run_uncoded(&WordCount, input.clone(), &EngineConfig::local(3, 1)).unwrap();
//! let coded = run_coded(&WordCount, input, &EngineConfig::local(3, 2)).unwrap();
//! assert_eq!(uncoded.outputs, coded.outputs);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod coded;
pub mod error;
pub mod grep;
pub mod invindex;
pub mod pods;
pub mod recover;
pub mod runtime;
pub mod selfjoin;
pub mod stage;
pub mod timeline;
pub mod uncoded;
pub mod verify;
pub mod wordcount;
pub mod workload;

pub use coded::{run_coded, run_coded_on};
pub use error::{EngineError, JobReport, Result};
pub use pods::run_coded_pods;
pub use runtime::{JobContext, JobHandle, JobRuntime, JobStatus, RuntimeConfig};
pub use stage::{EngineConfig, NodeWall, RecoveryMode, WallTimes};
pub use timeline::{chrome_trace, stage_totals_ns};
pub use uncoded::{run_uncoded, run_uncoded_on, JobOutcome};
pub use verify::{diff_outputs, run_sequential};
pub use workload::{InputFormat, Workload};
