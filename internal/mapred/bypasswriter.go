package mapred

import (
	"compress/flate"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/mof"
)

// bypassWriter is the hash-style map-side writer modeled on Spark's
// BypassMergeSortShuffleWriter: every record is encoded straight into its
// partition's in-memory buffer — no sorting, no per-record allocations —
// and Seal writes the buffers into the servable MOF + index in one
// sequential pass (mof.ConcatMOF). Only when the buffered bytes pass
// WriterConfig.SortMemory does a spill append every buffer to its
// partition's scratch file; a partition's segment is then that file
// followed by the buffer that accumulated since. Its segments carry
// records in emit order; the reduce-side mergers normalize them on ingest
// (merge.NormalizeSegment), which is what keeps the read path
// writer-agnostic.
type bypassWriter struct {
	cfg      WriterConfig
	parts    []*bypassPart // indexed by partition; nil until first record
	buffered int64         // stored bytes held in the parts' buffers
	scratch  []byte        // one encoded record on its way into a part
}

// bypassChunkSize is the unit a partition buffer grows by. Chunks recycle
// through bypassChunks, so once the pool is warm a buffer costs no
// allocation, never copies to grow, and wastes at most one partly filled
// chunk.
const bypassChunkSize = 32 << 10

type bypassChunk = [bypassChunkSize]byte

var bypassChunks = sync.Pool{New: func() any { return new(bypassChunk) }}

// bypassPart is one partition's stored bytes (compressed when
// compression is on): the spilled prefix in a scratch file, the rest in
// chunks. n and crc cover the spilled prefix only, so Seal can hand
// ConcatMOF a length and checksum for the file bytes it reads back.
type bypassPart struct {
	chunks  []*bypassChunk // filled in order; the last one holds used bytes
	used    int
	fl      *flate.Writer // non-nil when compressing; writes into the part
	f       *os.File      // spill file; nil until the first spill
	path    string
	n       int64  // stored bytes spilled to f
	crc     uint32 // CRC-32 of the spilled bytes
	raw     int64  // encoded bytes before compression
	records int64
}

// Write appends stored bytes to the buffer.
func (bp *bypassPart) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if len(bp.chunks) == 0 || bp.used == bypassChunkSize {
			bp.chunks = append(bp.chunks, bypassChunks.Get().(*bypassChunk))
			bp.used = 0
		}
		k := copy(bp.chunks[len(bp.chunks)-1][bp.used:], p)
		bp.used += k
		p = p[k:]
	}
	return n, nil
}

// tail returns the part's buffered bytes, chunk by chunk.
func (bp *bypassPart) tail() [][]byte {
	bufs := make([][]byte, len(bp.chunks))
	for i, c := range bp.chunks {
		bufs[i] = c[:]
	}
	if len(bufs) > 0 {
		bufs[len(bufs)-1] = bufs[len(bufs)-1][:bp.used]
	}
	return bufs
}

// size returns the number of buffered bytes.
func (bp *bypassPart) size() int64 {
	if len(bp.chunks) == 0 {
		return 0
	}
	return int64(len(bp.chunks)-1)*bypassChunkSize + int64(bp.used)
}

// release returns the part's chunks to the pool, emptying its buffer.
func (bp *bypassPart) release() {
	for i, c := range bp.chunks {
		bypassChunks.Put(c)
		bp.chunks[i] = nil
	}
	bp.chunks = bp.chunks[:0]
	bp.used = 0
}

func newBypassWriter(cfg WriterConfig) *bypassWriter {
	return &bypassWriter{cfg: cfg, parts: make([]*bypassPart, cfg.Partitions)}
}

// Strategy names the implementation.
func (w *bypassWriter) Strategy() WriterStrategy { return WriterBypass }

// Add encodes one record into its partition's buffer, spilling every
// buffer once the writer holds more than SortMemory stored bytes.
func (w *bypassWriter) Add(partition int, key, value []byte) error {
	bp := w.parts[partition]
	if bp == nil {
		bp = &bypassPart{}
		if w.cfg.Compress {
			// Same flate level as mof.CompressSegment, so a bypass MOF's
			// compressed segments cost the read path exactly what a sort
			// writer's would.
			fl, err := flate.NewWriter(bp, flate.BestSpeed)
			if err != nil {
				return err
			}
			bp.fl = fl
		}
		w.parts[partition] = bp
	}
	w.scratch = mof.AppendRecord(w.scratch[:0], mof.Record{Key: key, Value: value})
	before := bp.size()
	var dst io.Writer = bp
	if bp.fl != nil {
		dst = bp.fl
	}
	if _, err := dst.Write(w.scratch); err != nil {
		return fmt.Errorf("mapred: bypass write: %w", err)
	}
	bp.raw += int64(len(w.scratch))
	bp.records++
	w.buffered += bp.size() - before
	if w.cfg.SortMemory > 0 && w.buffered > w.cfg.SortMemory {
		return w.spill()
	}
	return nil
}

// spill appends every non-empty buffer to its partition file, creating
// the file on the partition's first spill, and releases the buffers.
func (w *bypassWriter) spill() error {
	for p, bp := range w.parts {
		if bp == nil || bp.size() == 0 {
			continue
		}
		if bp.f == nil {
			bp.path = filepath.Join(w.cfg.Dir, fmt.Sprintf("%s.part%05d", w.cfg.TaskID, p))
			f, err := os.Create(bp.path)
			if err != nil {
				return fmt.Errorf("mapred: bypass partition file: %w", err)
			}
			bp.f = f
		}
		for _, b := range bp.tail() {
			if _, err := bp.f.Write(b); err != nil {
				return fmt.Errorf("mapred: bypass spill partition %d: %w", p, err)
			}
			bp.crc = crc32.Update(bp.crc, crc32.IEEETable, b)
			bp.n += int64(len(b))
		}
		bp.release()
	}
	w.cfg.cs.addMapSpill(w.buffered)
	observeWriterSpill(WriterBypass)
	w.buffered = 0
	return nil
}

// close flushes the compressor into the buffer and closes the spill
// file; idempotent.
func (bp *bypassPart) close() error {
	var err error
	if bp.fl != nil {
		err = bp.fl.Close()
		bp.fl = nil
	}
	if bp.f != nil {
		if cerr := bp.f.Close(); err == nil {
			err = cerr
		}
		bp.f = nil
	}
	return err
}

// Seal writes the final MOF in one sequential pass: each partition's
// spill file (if any) followed by its buffer. The index entries come
// straight from the lengths, record counts, and checksums tracked while
// writing.
func (w *bypassWriter) Seal(final MOFPaths) error {
	start := time.Now()
	parts := make([]mof.ConcatPart, len(w.parts))
	for p, bp := range w.parts {
		if bp == nil {
			continue // zero ConcatPart = empty partition
		}
		if err := bp.close(); err != nil {
			return fmt.Errorf("mapred: bypass close partition %d: %w", p, err)
		}
		tail := bp.tail()
		crc := bp.crc
		for _, b := range tail {
			crc = crc32.Update(crc, crc32.IEEETable, b)
		}
		parts[p] = mof.ConcatPart{
			Path:      bp.path,
			Tail:      tail,
			Length:    bp.n + bp.size(),
			RawLength: bp.raw,
			Records:   bp.records,
			Checksum:  crc,
		}
	}
	if err := mof.ConcatMOF(final.Data, final.Index, parts); err != nil {
		return err
	}
	w.removeParts()
	observeWriterSeal(WriterBypass, start, final)
	return nil
}

// Abort closes and removes the partition files of a failed attempt.
func (w *bypassWriter) Abort() {
	for _, bp := range w.parts {
		if bp == nil {
			continue
		}
		_ = bp.close()
	}
	w.removeParts()
}

func (w *bypassWriter) removeParts() {
	for p, bp := range w.parts {
		if bp == nil {
			continue
		}
		if bp.path != "" {
			_ = os.Remove(bp.path)
		}
		bp.release()
		w.parts[p] = nil
	}
	w.buffered = 0
}

// Interface check.
var _ ShuffleWriter = (*bypassWriter)(nil)
