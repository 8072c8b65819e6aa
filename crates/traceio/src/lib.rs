//! `sdbp-traceio` — binary trace record/replay for the SDBP reproduction.
//!
//! The paper evaluates on fixed SPEC CPU 2006 traces replayed through
//! CMP$im; this crate gives the reproduction the same property. A
//! workload's instruction stream — synthetic or externally captured — is
//! archived once into a versioned binary container (`.sdbt`) and replayed
//! bit-exactly on any machine, so results can be compared across runs,
//! hosts, and tool versions.
//!
//! # The `.sdbt` container
//!
//! A header (magic, format version, workload name, generator seed, record
//! count, checksum) followed by fixed-record-count chunks, each framed
//! with its byte length, record count and FNV-1a checksum, closed by an
//! end marker carrying a whole-file checksum. Two payload encodings
//! share that framing:
//!
//! * **v1** ([`FORMAT_V1`]) — varint + address-delta records, ~4.4
//!   bytes/access: the compact archival default.
//! * **v2** ([`FORMAT_V2`]) — fixed-width columns (PCs, addresses,
//!   flags as separate per-chunk arrays, each with a word-folded
//!   checksum): ~3.7× faster batch decode from a fully-buffered file,
//!   at ~17 bytes/access on disk.
//!
//! [`convert_stream`]/[`convert_path`] move a trace between the two
//! losslessly in either direction. See [`format`] for the byte-level
//! layout and DESIGN.md §8/§14 for the rationale and compatibility
//! rules.
//!
//! * [`TraceWriter`] buffers one chunk at a time (O(chunk) memory) and
//!   writes either format ([`TraceMeta::with_version`]).
//! * [`TraceReader`] streams chunk-by-chunk, validating checksums in its
//!   default [`Integrity::Validate`] mode; every defect — truncation, bad
//!   magic, a flipped bit, a version from the future — surfaces as a
//!   typed [`TraceIoError`], never a panic.
//! * [`BufferedTrace`] indexes a fully-buffered (owned or borrowed)
//!   image and lends whole decoded [`InstrBatch`](sdbp_trace::batch::InstrBatch)es
//!   per chunk — the zero-copy v2 fast path; it is `Sync`, and
//!   [`BufferedTrace::split_ranges`] hands disjoint chunk ranges of one
//!   buffer to concurrent decoders.
//! * [`import`] turns ChampSim-style `pc addr is_write` text traces into
//!   `.sdbt` workloads.
//! * [`FileSource`] plugs a trace file into the
//!   [`TraceSource`](sdbp_trace::TraceSource) abstraction, so the harness
//!   and every `sdbp-engine` job run from a file exactly as they run from
//!   a synthetic generator — batched automatically when the file is v2.
//!
//! # Example
//!
//! ```
//! use sdbp_traceio::{TraceMeta, TraceReader, TraceWriter};
//! use sdbp_trace::{kernel::KernelSpec, TraceBuilder};
//! use std::io::Cursor;
//!
//! // Record 10k instructions of a synthetic workload...
//! let mut buf = Cursor::new(Vec::new());
//! let mut writer = TraceWriter::new(&mut buf, TraceMeta::new("demo", 7)).unwrap();
//! let trace = TraceBuilder::new(7).kernel(KernelSpec::hot_set(1 << 14)).build();
//! writer.write_all(trace.take(10_000)).unwrap();
//! let summary = writer.finish().unwrap();
//! assert_eq!(summary.instructions, 10_000);
//!
//! // ...and replay them bit-exactly.
//! buf.set_position(0);
//! let reader = TraceReader::new(buf).unwrap();
//! assert_eq!(reader.meta().count, 10_000);
//! let replayed = reader.collect::<Result<Vec<_>, _>>().unwrap();
//! let original: Vec<_> =
//!     TraceBuilder::new(7).kernel(KernelSpec::hot_set(1 << 14)).build().take(10_000).collect();
//! assert_eq!(replayed, original);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod buffered;
pub mod convert;
pub mod error;
pub mod format;
pub mod import;
pub mod reader;
pub mod source;
pub mod writer;

pub use buffered::{Batches, BufferedTrace, ColumnScratch, OwnedBatches};
pub use convert::{convert_path, convert_stream, ConvertSummary};
pub use error::TraceIoError;
pub use format::{
    TraceMeta, DEFAULT_CHUNK_RECORDS, FORMAT_V1, FORMAT_V2, FORMAT_VERSION, MAGIC,
};
pub use import::{import_text, parse_line};
pub use reader::{ChunkStat, Integrity, TraceReader};
pub use source::FileSource;
pub use writer::{TraceWriter, WriteSummary};
