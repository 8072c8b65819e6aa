//! Fully-buffered `.sdbt` reading: whole decoded batches borrowed from
//! one in-memory byte buffer.
//!
//! [`TraceReader`](crate::TraceReader) streams records one at a time —
//! right for bounded memory, wrong for throughput: at v2 decode rates the
//! per-record iterator machinery costs more than the decode itself.
//! [`BufferedTrace`] is the other point in the space: the entire file
//! lives in memory (read once from disk, or handed over as bytes by
//! `sdbp-serve`'s inline transfer), a chunk index is built and validated
//! up front, and consumers pull **whole chunks as column batches**:
//!
//! * the flags column of a v2 chunk is borrowed straight from the file
//!   bytes — zero copy;
//! * the PC and address columns are widened `u8 → u64` in one bulk pass
//!   per chunk into caller-owned [`ColumnScratch`], the only copy on the
//!   path (safe Rust cannot borrow `&[u64]` from `&[u8]` without
//!   alignment games; the bulk widen compiles to a memcpy-shaped loop);
//! * v1 chunks decode through the varint codec into the same scratch, so
//!   the batch API is format-agnostic and v1 stays a valid (if slower)
//!   archival input.
//!
//! `BufferedTrace` is `Sync` and `batch` takes `&self`: different threads
//! can decode **disjoint chunk ranges of the same buffer** concurrently,
//! each with its own scratch ([`BufferedTrace::range_batches`]), which is
//! what lets several threads decode one trace without duplicating the
//! file. All corruption — truncated columns, length mismatches, flipped
//! bits — surfaces as a typed [`TraceIoError`], never a panic.

use crate::error::TraceIoError;
use crate::format::{
    fnv1a, fnv1a_words, fnv1a_words_pair, split_v2_payload, v2_payload_len, DeltaState, GlobalChecksum,
    TraceMeta, FLAG_MASK, FORMAT_V2,
};
use crate::reader::{read_header, ChunkStat, Integrity};
use sdbp_trace::batch::{InstrBatch, InstrBatcher};
use sdbp_trace::Instr;
use std::borrow::Cow;
use std::ops::Range;
use std::path::Path;

/// One indexed chunk: where its payload lives in the buffer.
#[derive(Clone, Debug)]
struct ChunkEntry {
    payload: Range<usize>,
    records: u32,
}

/// Caller-owned decode target, reused across chunks so the batch path
/// performs no per-chunk allocation once the columns reach steady-state
/// capacity. Each concurrent consumer owns its own scratch.
#[derive(Clone, Default, Debug)]
pub struct ColumnScratch {
    flags: Vec<u8>,
    pcs: Vec<u64>,
    addrs: Vec<u64>,
}

/// An entire `.sdbt` trace held in memory with a validated chunk index.
///
/// The backing bytes are either owned (read from disk) or **borrowed**
/// from the caller ([`from_slice`](BufferedTrace::from_slice)) — the
/// latter is how `sdbp-serve` replays an inline wire transfer without
/// copying the upload.
#[derive(Clone, Debug)]
pub struct BufferedTrace<'b> {
    bytes: Cow<'b, [u8]>,
    meta: TraceMeta,
    chunks: Vec<ChunkEntry>,
}

impl BufferedTrace<'static> {
    /// Reads `path` fully into memory and indexes it in the default
    /// [`Integrity::Validate`] mode.
    ///
    /// # Errors
    ///
    /// Filesystem errors plus everything [`from_bytes`]
    /// (BufferedTrace::from_bytes) reports.
    pub fn load(path: &Path) -> Result<Self, TraceIoError> {
        Self::load_with(path, Integrity::Validate)
    }

    /// Reads `path` fully into memory with an explicit integrity mode.
    ///
    /// # Errors
    ///
    /// As [`load`](BufferedTrace::load).
    pub fn load_with(path: &Path, integrity: Integrity) -> Result<Self, TraceIoError> {
        Self::from_bytes_with(std::fs::read(path)?, integrity)
    }

    /// Indexes an owned in-memory `.sdbt` image in the default
    /// [`Integrity::Validate`] mode.
    ///
    /// # Errors
    ///
    /// Any header or frame defect, as a typed [`TraceIoError`].
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, TraceIoError> {
        Self::from_bytes_with(bytes, Integrity::Validate)
    }

    /// Indexes an owned in-memory `.sdbt` image with an explicit
    /// integrity mode.
    ///
    /// # Errors
    ///
    /// As [`from_bytes`](BufferedTrace::from_bytes).
    pub fn from_bytes_with(
        bytes: Vec<u8>,
        integrity: Integrity,
    ) -> Result<Self, TraceIoError> {
        Self::index(Cow::Owned(bytes), integrity)
    }

    /// Consumes the trace into an owned batch cursor (for
    /// [`TraceSource::open_batched`](sdbp_trace::TraceSource::open_batched),
    /// which cannot lend out a borrow of a local).
    pub fn into_batches(self) -> OwnedBatches {
        let end = self.chunks.len();
        OwnedBatches { trace: self, scratch: ColumnScratch::default(), next: 0, end }
    }
}

impl<'b> BufferedTrace<'b> {
    /// Indexes a **borrowed** `.sdbt` image in the default
    /// [`Integrity::Validate`] mode — zero-copy over bytes someone else
    /// owns (an inline wire transfer, a memory-mapped region).
    ///
    /// # Errors
    ///
    /// As [`from_bytes`](BufferedTrace::from_bytes).
    pub fn from_slice(bytes: &'b [u8]) -> Result<Self, TraceIoError> {
        Self::index(Cow::Borrowed(bytes), Integrity::Validate)
    }

    /// Indexes an in-memory `.sdbt` image. Frame structure, chunk/column
    /// checksums (in validating mode), the whole-file checksum and the
    /// header record count are all verified here, so `batch` failures
    /// afterwards are limited to record-level defects.
    fn index(bytes: Cow<'b, [u8]>, integrity: Integrity) -> Result<Self, TraceIoError> {
        let mut src = bytes.as_ref();
        let meta = read_header(&mut src)?;
        let mut pos = bytes.len() - src.len();
        let mut chunks = Vec::new();
        let mut global = GlobalChecksum::new();
        let mut records_total: u64 = 0;
        let mut chunk_index: u64 = 0;
        loop {
            let payload_len = get_u32(&bytes, &mut pos, "chunk frame")?;
            let records = get_u32(&bytes, &mut pos, "chunk frame")?;
            let checksum = get_u64(&bytes, &mut pos, "chunk frame")?;
            if payload_len == 0 {
                // End marker: checksum slot carries the whole-file value.
                if records != 0 {
                    return Err(TraceIoError::Truncated { context: "end marker" });
                }
                if integrity == Integrity::Validate && checksum != global.value() {
                    return Err(TraceIoError::TrailerChecksum);
                }
                if records_total != meta.count {
                    return Err(TraceIoError::CountMismatch {
                        header: meta.count,
                        decoded: records_total,
                    });
                }
                break;
            }
            if records == 0 {
                return Err(TraceIoError::CorruptRecord { chunk: chunk_index });
            }
            let payload = bytes
                .get(pos..pos + payload_len as usize)
                .ok_or(TraceIoError::Truncated { context: "chunk payload" })?;
            if meta.version >= FORMAT_V2 {
                // v2 chunks carry per-column checksums covering every
                // payload byte after the preamble, so integrity needs
                // only one hash pass: verify the columns, chain the
                // *declared* chunk checksum into the global, and let a
                // forged declared value surface as a trailer mismatch.
                if integrity == Integrity::Validate {
                    global.fold(checksum);
                }
                validate_v2_chunk(payload, records, chunk_index, integrity)?;
            } else if integrity == Integrity::Validate {
                let actual = fnv1a(payload);
                if actual != checksum {
                    return Err(TraceIoError::ChunkChecksum { chunk: chunk_index });
                }
                global.fold(actual);
            }
            chunks.push(ChunkEntry {
                payload: pos..pos + payload_len as usize,
                records,
            });
            pos += payload_len as usize;
            records_total += u64::from(records);
            chunk_index += 1;
        }
        Ok(BufferedTrace { bytes, meta, chunks })
    }

    /// The validated header metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Number of data chunks in the file.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// Records in chunk `index`, or `None` past the end.
    pub fn records_in(&self, index: usize) -> Option<u32> {
        self.chunks.get(index).map(|c| c.records)
    }

    /// Total buffered file size in bytes.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Per-chunk shapes in file order (same figures the streaming
    /// reader accumulates, available here without a decode pass).
    pub fn chunk_stats(&self) -> Vec<ChunkStat> {
        self.chunks
            .iter()
            .map(|c| ChunkStat {
                records: c.records,
                // Frame payload lengths come from a u32 field, so this
                // never saturates in practice.
                payload_bytes: u32::try_from(c.payload.len()).unwrap_or(u32::MAX),
            })
            .collect()
    }

    /// Decodes chunk `index` into `scratch` and returns the batch view.
    ///
    /// The returned columns borrow from `self` (v2 flags — zero copy)
    /// and from `scratch` (everything that needed widening or varint
    /// decode). `&self` access plus caller-owned scratch is what makes
    /// disjoint-range concurrent decode safe.
    ///
    /// # Errors
    ///
    /// [`TraceIoError::CorruptRecord`] on undecodable records or flag
    /// bytes with unknown bits; layout and checksum defects were already
    /// rejected at construction time.
    pub fn batch<'s>(
        &'s self,
        index: usize,
        scratch: &'s mut ColumnScratch,
    ) -> Result<InstrBatch<'s>, TraceIoError> {
        let entry = self.chunks.get(index).ok_or(TraceIoError::CorruptRecord {
            chunk: index as u64,
        })?;
        let chunk = index as u64;
        let payload = self.bytes.get(entry.payload.clone()).ok_or(
            // Unreachable: ranges were bounds-checked at construction.
            TraceIoError::Truncated { context: "chunk payload" },
        )?;
        let records = entry.records as usize;
        if self.meta.version >= FORMAT_V2 {
            let cols = split_v2_payload(payload, records).ok_or(
                TraceIoError::ColumnLength {
                    chunk,
                    expected: v2_payload_len(records) as u64,
                    found: payload.len() as u64,
                },
            )?;
            if cols.flags.iter().any(|f| f & !FLAG_MASK != 0) {
                return Err(TraceIoError::CorruptRecord { chunk });
            }
            crate::format::widen_column(cols.pcs_bytes, &mut scratch.pcs);
            crate::format::widen_column(cols.addrs_bytes, &mut scratch.addrs);
            InstrBatch::new(cols.flags, &scratch.pcs, &scratch.addrs)
                .ok_or(TraceIoError::CorruptRecord { chunk })
        } else {
            scratch.flags.clear();
            scratch.pcs.clear();
            scratch.addrs.clear();
            scratch.flags.reserve(records);
            scratch.pcs.reserve(records);
            scratch.addrs.reserve(records);
            let mut delta = DeltaState::default();
            let mut pos = 0usize;
            for _ in 0..records {
                let instr = delta
                    .decode(payload, &mut pos)
                    .ok_or(TraceIoError::CorruptRecord { chunk })?;
                push_instr(scratch, &instr);
            }
            if pos != payload.len() {
                // Trailing garbage inside the frame is as corrupt as a
                // short record.
                return Err(TraceIoError::CorruptRecord { chunk });
            }
            InstrBatch::new(&scratch.flags, &scratch.pcs, &scratch.addrs)
                .ok_or(TraceIoError::CorruptRecord { chunk })
        }
    }

    /// A batch cursor over every chunk, in file order.
    pub fn batches(&self) -> Batches<'_> {
        self.range_batches(0..self.chunks.len())
    }

    /// A batch cursor over the chunk range `range` (clamped to the chunk
    /// count). Hand disjoint ranges to different threads to decode one
    /// buffer concurrently.
    pub fn range_batches(&self, range: Range<usize>) -> Batches<'_> {
        let end = range.end.min(self.chunks.len());
        Batches {
            trace: self,
            scratch: ColumnScratch::default(),
            next: range.start.min(end),
            end,
        }
    }

    /// Splits the chunk index into `parts` near-equal contiguous ranges
    /// (fewer when there are fewer chunks than parts) — the fan-out
    /// helper for concurrent decode.
    pub fn split_ranges(&self, parts: usize) -> Vec<Range<usize>> {
        let n = self.chunks.len();
        let parts = parts.max(1).min(n.max(1));
        let base = n / parts;
        let extra = n % parts;
        let mut out = Vec::with_capacity(parts);
        let mut start = 0usize;
        for i in 0..parts {
            let len = base + usize::from(i < extra);
            if len == 0 {
                continue;
            }
            out.push(start..start + len);
            start += len;
        }
        out
    }

}

/// Reads a little-endian `u32` at `*pos`, advancing it; a short buffer
/// is a typed [`TraceIoError::Truncated`], never a panic.
fn get_u32(bytes: &[u8], pos: &mut usize, context: &'static str) -> Result<u32, TraceIoError> {
    let part = bytes
        .get(*pos..*pos + 4)
        .and_then(|b| <[u8; 4]>::try_from(b).ok())
        .ok_or(TraceIoError::Truncated { context })?;
    *pos += 4;
    Ok(u32::from_le_bytes(part))
}

/// Reads a little-endian `u64`; see [`get_u32`].
fn get_u64(bytes: &[u8], pos: &mut usize, context: &'static str) -> Result<u64, TraceIoError> {
    let part = bytes
        .get(*pos..*pos + 8)
        .and_then(|b| <[u8; 8]>::try_from(b).ok())
        .ok_or(TraceIoError::Truncated { context })?;
    *pos += 8;
    Ok(u64::from_le_bytes(part))
}

fn push_instr(scratch: &mut ColumnScratch, instr: &Instr) {
    scratch.flags.push(sdbp_trace::batch::instr_flags(instr));
    scratch.pcs.push(instr.pc.raw());
    scratch.addrs.push(instr.mem.map_or(0, |m| m.addr.raw()));
}

/// Layout + column-checksum validation for one v2 chunk payload.
fn validate_v2_chunk(
    payload: &[u8],
    records: u32,
    chunk: u64,
    integrity: Integrity,
) -> Result<(), TraceIoError> {
    let records = records as usize;
    let cols = split_v2_payload(payload, records).ok_or(TraceIoError::ColumnLength {
        chunk,
        expected: v2_payload_len(records) as u64,
        found: payload.len() as u64,
    })?;
    if integrity == Integrity::Validate {
        // Word-folded FNV, with the two u64 columns fused into one pass
        // so their serial hash chains overlap in the pipeline.
        let (pcs_actual, addrs_actual) = fnv1a_words_pair(cols.pcs_bytes, cols.addrs_bytes);
        for (declared, actual, column) in [
            (cols.pcs_fnv, pcs_actual, "pcs"),
            (cols.addrs_fnv, addrs_actual, "addrs"),
            (cols.flags_fnv, fnv1a_words(cols.flags), "flags"),
        ] {
            if actual != declared {
                return Err(TraceIoError::ColumnChecksum { chunk, column });
            }
        }
    }
    Ok(())
}

/// A borrowing batch cursor over a chunk range of a [`BufferedTrace`].
#[derive(Debug)]
pub struct Batches<'a> {
    trace: &'a BufferedTrace<'a>,
    scratch: ColumnScratch,
    next: usize,
    end: usize,
}

impl Batches<'_> {
    /// Decodes the next chunk, or `Ok(None)` past the end of the range.
    ///
    /// # Errors
    ///
    /// As [`BufferedTrace::batch`].
    pub fn try_next(&mut self) -> Result<Option<InstrBatch<'_>>, TraceIoError> {
        if self.next >= self.end {
            return Ok(None);
        }
        let index = self.next;
        self.next += 1;
        self.trace.batch(index, &mut self.scratch).map(Some)
    }
}

impl InstrBatcher for Batches<'_> {
    fn next_batch(&mut self) -> Result<Option<InstrBatch<'_>>, String> {
        self.try_next().map_err(|e| e.to_string())
    }
}

/// An owning batch cursor: the whole trace plus its scratch, movable
/// across threads (what `FileSource::open_batched` returns).
#[derive(Debug)]
pub struct OwnedBatches {
    trace: BufferedTrace<'static>,
    scratch: ColumnScratch,
    next: usize,
    end: usize,
}

impl OwnedBatches {
    /// The buffered trace's header metadata.
    pub fn meta(&self) -> &TraceMeta {
        self.trace.meta()
    }

    /// Decodes the next chunk, or `Ok(None)` at end of trace.
    ///
    /// # Errors
    ///
    /// As [`BufferedTrace::batch`].
    pub fn try_next(&mut self) -> Result<Option<InstrBatch<'_>>, TraceIoError> {
        if self.next >= self.end {
            return Ok(None);
        }
        let index = self.next;
        self.next += 1;
        self.trace.batch(index, &mut self.scratch).map(Some)
    }
}

impl InstrBatcher for OwnedBatches {
    fn next_batch(&mut self) -> Result<Option<InstrBatch<'_>>, String> {
        self.try_next().map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::TraceWriter;
    use crate::format::FORMAT_V1;
    use sdbp_trace::kernel::KernelSpec;
    use sdbp_trace::TraceBuilder;
    use std::io::Cursor;

    fn instrs(n: usize) -> Vec<Instr> {
        TraceBuilder::new(0xb0f)
            .kernel(KernelSpec::hot_set(1 << 14))
            .kernel(KernelSpec::streaming(1 << 20))
            .build()
            .take(n)
            .collect()
    }

    fn encode(version: u32, n: usize, per_chunk: u32) -> Vec<u8> {
        let mut buf = Cursor::new(Vec::new());
        let meta = TraceMeta::new("buffered", 0xb0f).with_version(version);
        let mut w =
            TraceWriter::new(&mut buf, meta).unwrap().chunk_records(per_chunk);
        w.write_all(instrs(n)).unwrap();
        w.finish().unwrap();
        buf.into_inner()
    }

    fn assert_sync<T: Sync + Send>() {}

    #[test]
    fn buffered_trace_is_shareable_across_threads() {
        assert_sync::<BufferedTrace>();
        assert_sync::<OwnedBatches>();
    }

    #[test]
    fn batches_reproduce_the_stream_in_both_versions() {
        let want = instrs(1000);
        for version in [FORMAT_V1, FORMAT_V2] {
            let trace =
                BufferedTrace::from_bytes(encode(version, 1000, 128)).unwrap();
            assert_eq!(trace.meta().count, 1000);
            assert_eq!(trace.chunk_count(), 8);
            assert_eq!(trace.records_in(0), Some(128));
            let mut got = Vec::new();
            let mut cur = trace.batches();
            while let Some(batch) = cur.try_next().unwrap() {
                got.extend(batch.iter());
            }
            assert_eq!(got, want, "version {version}");
        }
    }

    #[test]
    fn disjoint_ranges_cover_the_file_concurrently() {
        let trace = BufferedTrace::from_bytes(encode(FORMAT_V2, 4096, 256)).unwrap();
        let ranges = trace.split_ranges(3);
        assert_eq!(ranges.len(), 3);
        assert_eq!(ranges.iter().map(|r| r.len()).sum::<usize>(), trace.chunk_count());
        let pieces: Vec<Vec<Instr>> = std::thread::scope(|scope| {
            let handles: Vec<_> = ranges
                .iter()
                .map(|r| {
                    let trace = &trace;
                    let r = r.clone();
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        let mut cur = trace.range_batches(r);
                        while let Some(batch) = cur.try_next().unwrap() {
                            out.extend(batch.iter());
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let merged: Vec<Instr> = pieces.into_iter().flatten().collect();
        assert_eq!(merged, instrs(4096));
    }

    #[test]
    fn split_ranges_handles_degenerate_shapes() {
        let trace = BufferedTrace::from_bytes(encode(FORMAT_V2, 10, 4)).unwrap();
        assert_eq!(trace.chunk_count(), 3);
        // More parts than chunks collapses to one range per chunk.
        let ranges = trace.split_ranges(8);
        assert_eq!(ranges.len(), 3);
        assert_eq!(trace.split_ranges(0).len(), 1);
    }

    #[test]
    fn zero_copy_flags_point_into_the_file_buffer() {
        let trace = BufferedTrace::from_bytes(encode(FORMAT_V2, 100, 64)).unwrap();
        let mut scratch = ColumnScratch::default();
        let batch = trace.batch(0, &mut scratch).unwrap();
        let flags_ptr = batch.flags().as_ptr() as usize;
        let buf = trace.bytes.as_ptr() as usize;
        assert!(
            flags_ptr >= buf && flags_ptr < buf + trace.byte_len(),
            "v2 flags column must borrow from the file bytes"
        );
    }

    #[test]
    fn borrowed_buffer_decodes_without_owning_the_bytes() {
        let bytes = encode(FORMAT_V2, 300, 128);
        let trace = BufferedTrace::from_slice(&bytes).unwrap();
        assert!(matches!(trace.bytes, Cow::Borrowed(_)));
        let mut got = Vec::new();
        let mut cur = trace.batches();
        while let Some(batch) = cur.try_next().unwrap() {
            got.extend(batch.iter());
        }
        assert_eq!(got, instrs(300));
    }

    #[test]
    fn corrupt_bytes_surface_typed_errors_never_panics() {
        let healthy = encode(FORMAT_V2, 200, 64);
        // Structured sweep: truncate at every prefix length.
        for len in 0..healthy.len() {
            let r = BufferedTrace::from_bytes(healthy[..len].to_vec());
            assert!(r.is_err(), "prefix of {len} bytes must not index cleanly");
        }
    }
}
