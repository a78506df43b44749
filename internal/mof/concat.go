package mof

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// ConcatPart describes one partition feeding a MOF concatenation: the
// bypass hash writer encodes each partition's records into its own
// buffer, spilling the buffer to a per-partition file only under memory
// pressure, and records the stats below as it writes; the concatenation
// turns those file prefixes and in-memory tails into one servable MOF +
// index without re-encoding a single record.
type ConcatPart struct {
	// Path is the partition file holding the first stored segment bytes.
	// Empty means the segment has no file prefix.
	Path string
	// Tail holds the stored bytes that follow the file's (all of them
	// when Path is empty), in order, in one or more buffers. A partition
	// with neither contributes an empty segment.
	Tail [][]byte
	// Length is the stored byte length of file plus tail (compressed
	// length when the segment is compressed).
	Length int64
	// RawLength is the uncompressed encoded length; equals Length for
	// uncompressed segments.
	RawLength int64
	// Records is the number of key/value pairs in the segment.
	Records int64
	// Checksum is the CRC-32 (IEEE) of the stored bytes, file then tail.
	Checksum uint32
}

// ConcatMOF concatenates per-partition file prefixes and in-memory tails
// into one MOF data file in a single sequential pass and writes the
// matching index. parts is indexed by reduce partition. Every partition's
// file plus tail must hold exactly its declared Length and match its
// declared Checksum — a truncated, oversized, or corrupt partition fails
// the whole concatenation cleanly (the partial data file is removed)
// rather than producing a MOF whose index lies about its segments.
func ConcatMOF(dataPath, indexPath string, parts []ConcatPart) (err error) {
	if len(parts) == 0 {
		return fmt.Errorf("mof: concat needs at least one partition")
	}
	f, err := os.Create(dataPath)
	if err != nil {
		return fmt.Errorf("mof: create data file: %w", err)
	}
	defer func() {
		if err != nil {
			_ = f.Close()           // already failing; report the first error
			_ = os.Remove(dataPath) // best-effort cleanup of the partial MOF
		}
	}()

	bw := bufio.NewWriterSize(f, 256<<10)
	entries := make([]IndexEntry, 0, len(parts))
	var offset int64
	var buf []byte // file copy buffer, allocated for the first file prefix
	for p, part := range parts {
		if err := validatePart(p, part); err != nil {
			return err
		}
		var n int64
		var crc uint32
		if part.Path != "" {
			if buf == nil {
				buf = make([]byte, 128<<10)
			}
			n, crc, err = appendPart(bw, part.Path, buf)
			if err != nil {
				return fmt.Errorf("mof: concat partition %d: %w", p, err)
			}
		}
		for _, b := range part.Tail {
			if _, err := bw.Write(b); err != nil {
				return fmt.Errorf("mof: concat partition %d: %w", p, err)
			}
			n += int64(len(b))
			crc = crc32.Update(crc, crc32.IEEETable, b)
		}
		if n != part.Length {
			return fmt.Errorf("mof: concat partition %d: file %q plus tail hold %d bytes, declared %d",
				p, part.Path, n, part.Length)
		}
		if crc != part.Checksum {
			return fmt.Errorf("mof: concat partition %d: %w", p, ErrChecksum)
		}
		entries = append(entries, IndexEntry{
			Offset:    offset,
			Length:    part.Length,
			RawLength: part.RawLength,
			Records:   part.Records,
			Checksum:  part.Checksum,
		})
		offset += n
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("mof: concat flush: %w", err)
	}
	if err := f.Close(); err != nil {
		f = nil // the deferred cleanup must not double-close
		return fmt.Errorf("mof: concat close data: %w", err)
	}
	if err := writeIndex(indexPath, &Index{Entries: entries}); err != nil {
		_ = os.Remove(dataPath) // data without index is unservable
		return err
	}
	return nil
}

// validatePart rejects metadata that cannot describe a real segment.
func validatePart(p int, part ConcatPart) error {
	if part.Length < 0 || part.RawLength < 0 || part.Records < 0 {
		return fmt.Errorf("mof: concat partition %d: negative size (length %d, raw %d, records %d)",
			p, part.Length, part.RawLength, part.Records)
	}
	if part.Length == 0 && (part.RawLength != 0 || part.Records != 0) {
		return fmt.Errorf("mof: concat partition %d: %d records in zero bytes", p, part.Records)
	}
	return nil
}

// appendPart copies one partition file into the data stream, returning
// the bytes copied and their CRC-32.
func appendPart(bw *bufio.Writer, path string, buf []byte) (int64, uint32, error) {
	pf, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	var n int64
	var crc uint32
	for {
		k, rerr := pf.Read(buf)
		if k > 0 {
			if _, werr := bw.Write(buf[:k]); werr != nil {
				_ = pf.Close() // already failing; report the write error
				return n, crc, werr
			}
			crc = crc32.Update(crc, crc32.IEEETable, buf[:k])
			n += int64(k)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			_ = pf.Close() // already failing; report the read error
			return n, crc, rerr
		}
	}
	return n, crc, pf.Close()
}
