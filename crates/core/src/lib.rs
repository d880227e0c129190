//! Pelican: a deep residual network for network intrusion detection.
//!
//! This crate is the paper's primary contribution — the residual block
//! design of Fig. 4, the four evaluated network architectures (Plain-21,
//! Residual-21, Plain-41, Residual-41/Pelican, Section V-C), the LuNet /
//! HAST-IDS / CNN / LSTM / MLP neural comparators of Table V, the NIDS
//! evaluation metrics (ACC, DR, FAR, Section V-B) and a shared experiment
//! harness that the benchmark suite uses to regenerate every table and
//! figure.
//!
//! # Quick start
//!
//! ```no_run
//! use pelican_core::experiment::{Arch, DatasetKind, ExpConfig};
//!
//! // One fold of the NSL-KDD experiment at a laptop-friendly scale.
//! let cfg = ExpConfig::scaled(DatasetKind::NslKdd);
//! let result = pelican_core::experiment::run_network(Arch::Residual { blocks: 10 }, &cfg);
//! println!(
//!     "DR {:.2}% ACC {:.2}% FAR {:.2}%",
//!     100.0 * result.confusion.detection_rate(),
//!     100.0 * result.confusion.accuracy(),
//!     100.0 * result.confusion.false_alarm_rate(),
//! );
//! ```

pub mod blocks;
pub mod experiment;
pub mod metrics;
pub mod models;

pub use blocks::{plain_block, res_blk, BlockConfig};
pub use metrics::{Confusion, ConfusionMatrix};
pub use models::NetConfig;
