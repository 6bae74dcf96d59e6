//! # sp-metrics — measurement and reporting
//!
//! Latency histograms sized to their samples ([`LatencyHistogram`]), scalar
//! digests ([`LatencySummary`]), the paper's cumulative "samples < X" blocks
//! ([`CumulativeReport`]), the execution-determinism jitter series of §5
//! ([`JitterSeries`]), aligned text tables, ASCII figure plots, flight-ring
//! timeline analysis ([`timeline`]), Chrome/Perfetto trace export
//! ([`perfetto`]), and worst-case cause-chain reports ([`causes`]).

#![deny(missing_docs)]

pub mod causes;
pub mod histogram;
pub mod jitter;
pub mod perfetto;
pub mod plot;
pub mod summary;
pub mod table;
pub mod timeline;

pub use causes::{render_cause_chain, WorstCaseMeta};
pub use histogram::LatencyHistogram;
pub use jitter::{JitterSeries, JitterSummary};
pub use plot::{ascii_histogram, PlotOptions};
pub use summary::{CumulativeReport, CumulativeRow, LatencySummary};
pub use table::Table;
pub use timeline::{analyze, render_timeline, TraceStats};
