package mof

import (
	"bytes"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// writePartFile encodes records into one bypass-style partition file and
// returns its ConcatPart metadata.
func writePartFile(t testing.TB, path string, recs []Record) ConcatPart {
	t.Helper()
	var buf []byte
	for _, r := range recs {
		buf = AppendRecord(buf, r)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatalf("write part file: %v", err)
	}
	return ConcatPart{
		Path:      path,
		Length:    int64(len(buf)),
		RawLength: int64(len(buf)),
		Records:   int64(len(recs)),
		Checksum:  crc32.ChecksumIEEE(buf),
	}
}

// splitTail cuts b into two tail buffers.
func splitTail(b []byte) [][]byte {
	return [][]byte{b[:len(b)/2], b[len(b)/2:]}
}

// moveToTail keeps the first keep bytes of part's file and moves the
// rest into its in-memory tail (all of it, and no file, when keep is 0).
// The declared metadata covers file plus tail, so it stays unchanged.
func moveToTail(t testing.TB, part ConcatPart, keep int) ConcatPart {
	t.Helper()
	body, err := os.ReadFile(part.Path)
	if err != nil {
		t.Fatal(err)
	}
	part.Tail = splitTail(body[keep:])
	if keep == 0 {
		if err := os.Remove(part.Path); err != nil {
			t.Fatal(err)
		}
		part.Path = ""
		return part
	}
	if err := os.WriteFile(part.Path, body[:keep], 0o644); err != nil {
		t.Fatal(err)
	}
	return part
}

func TestConcatMOFRoundTrip(t *testing.T) {
	dir := t.TempDir()
	partRecs := [][]Record{
		{{Key: []byte("b"), Value: []byte("1")}, {Key: []byte("a"), Value: []byte("2")}},
		nil, // empty partition
		{{Key: []byte("zz"), Value: bytes.Repeat([]byte("v"), 300)}},
		{{Key: []byte("t"), Value: []byte("tail only")}},
		{{Key: []byte("s"), Value: []byte("split")}, {Key: []byte("s2"), Value: []byte("across")}},
	}
	parts := make([]ConcatPart, len(partRecs))
	for p, recs := range partRecs {
		if len(recs) == 0 {
			parts[p] = ConcatPart{} // empty partition: no file, no tail
			continue
		}
		parts[p] = writePartFile(t, filepath.Join(dir, "p"+string(rune('0'+p))), recs)
	}
	// Partition 3 lives only in memory; partition 4 is split mid-record
	// between its file prefix and its tail.
	parts[3] = moveToTail(t, parts[3], 0)
	parts[4] = moveToTail(t, parts[4], 3)
	data := filepath.Join(dir, "final.data")
	index := filepath.Join(dir, "final.index")
	if err := ConcatMOF(data, index, parts); err != nil {
		t.Fatalf("ConcatMOF: %v", err)
	}

	ix, err := ReadIndex(index)
	if err != nil {
		t.Fatalf("ReadIndex: %v", err)
	}
	if ix.Partitions() != len(partRecs) {
		t.Fatalf("got %d partitions, want %d", ix.Partitions(), len(partRecs))
	}
	for p, recs := range partRecs {
		entry, err := ix.Entry(p)
		if err != nil {
			t.Fatalf("entry %d: %v", p, err)
		}
		seg, err := ReadSegmentBytes(data, entry)
		if err != nil {
			t.Fatalf("read segment %d: %v", p, err)
		}
		got, err := ParseRecords(seg)
		if err != nil {
			t.Fatalf("parse segment %d: %v", p, err)
		}
		if len(got) != len(recs) {
			t.Fatalf("partition %d: %d records, want %d", p, len(got), len(recs))
		}
		for i := range recs {
			if !bytes.Equal(got[i].Key, recs[i].Key) || !bytes.Equal(got[i].Value, recs[i].Value) {
				t.Fatalf("partition %d record %d differs", p, i)
			}
		}
		if entry.Records != int64(len(recs)) {
			t.Fatalf("partition %d: index declares %d records, want %d", p, entry.Records, len(recs))
		}
	}
}

func TestConcatMOFRejectsBadParts(t *testing.T) {
	dir := t.TempDir()
	good := writePartFile(t, filepath.Join(dir, "good"), []Record{{Key: []byte("k"), Value: []byte("v")}})

	truncated := good
	truncated.Path = filepath.Join(dir, "trunc")
	full, err := os.ReadFile(good.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(truncated.Path, full[:len(full)-1], 0o644); err != nil {
		t.Fatal(err)
	}

	oversized := good
	oversized.Path = filepath.Join(dir, "over")
	if err := os.WriteFile(oversized.Path, append(append([]byte(nil), full...), 'x'), 0o644); err != nil {
		t.Fatal(err)
	}

	corrupt := good
	corrupt.Checksum ^= 0xdeadbeef

	missing := good
	missing.Path = filepath.Join(dir, "does-not-exist")

	emptyWithBytes := ConcatPart{Length: 4}

	// A part split between a file prefix and an in-memory tail, then
	// broken on either side of the split.
	split := moveToTail(t, writePartFile(t, filepath.Join(dir, "split"), []Record{
		{Key: []byte("k1"), Value: []byte("v1")}, {Key: []byte("k2"), Value: []byte("v2")},
	}), 4)
	prefix, err := os.ReadFile(split.Path)
	if err != nil {
		t.Fatal(err)
	}
	withPrefix := func(name string, body []byte) ConcatPart {
		part := split
		part.Path = filepath.Join(dir, name)
		if err := os.WriteFile(part.Path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return part
	}
	withTail := func(tail []byte) ConcatPart {
		part := split
		part.Tail = splitTail(tail)
		return part
	}
	flip := func(b []byte, i int) []byte {
		b = append([]byte(nil), b...)
		b[i] ^= 0x40
		return b
	}
	tail := bytes.Join(split.Tail, nil)
	missingPrefix := split
	missingPrefix.Path = filepath.Join(dir, "no-such-prefix")

	negative := good
	negative.Records = -1

	cases := map[string][]ConcatPart{
		"truncated":        {truncated},
		"oversized":        {oversized},
		"corrupt":          {corrupt},
		"missing":          {missing},
		"empty-with-bytes": {emptyWithBytes},
		"negative":         {negative},
		"no-partitions":    {},

		"prefix-truncated": {withPrefix("prefix-trunc", prefix[:len(prefix)-1])},
		"prefix-oversized": {withPrefix("prefix-over", append(append([]byte(nil), prefix...), 'x'))},
		"prefix-corrupt":   {withPrefix("prefix-corrupt", flip(prefix, 1))},
		"prefix-missing":   {missingPrefix},
		"tail-truncated":   {withTail(tail[:len(tail)-1])},
		"tail-oversized":   {withTail(append(append([]byte(nil), tail...), 'x'))},
		"tail-corrupt":     {withTail(flip(tail, len(tail)-1))},
		"tail-dropped":     {withTail(nil)},
	}
	if err := ConcatMOF(filepath.Join(dir, "split.data"), filepath.Join(dir, "split.index"), []ConcatPart{split}); err != nil {
		t.Fatalf("intact split part rejected: %v", err)
	}
	for name, parts := range cases {
		data := filepath.Join(dir, name+".data")
		index := filepath.Join(dir, name+".index")
		if err := ConcatMOF(data, index, parts); err == nil {
			t.Errorf("%s: ConcatMOF accepted bad input", name)
		}
		if _, err := os.Stat(data); err == nil {
			t.Errorf("%s: partial data file left behind", name)
		}
	}
}

// FuzzMOFIndexConcat drives the bypass writer's concatenation + index
// build with adversarial partition contents, file/tail splits and
// metadata skew: any input must either concatenate into a MOF whose
// segments round-trip through the real read path, or fail cleanly
// without leaving a data file.
func FuzzMOFIndexConcat(f *testing.F) {
	f.Add([]byte("\x01\x01kv"), []byte(""), uint16(0), uint16(0), 0, false)
	f.Add([]byte("\x02\x02aabb"), []byte("\x01\x00z"), uint16(3), uint16(1), 1, true)
	f.Add([]byte{}, []byte{0xff, 0xff, 0xff}, uint16(0), uint16(2), -3, false)
	f.Add([]byte("\x01\x01kv\x01\x01kv"), []byte("\x01\x00z"), uint16(5), uint16(3), 0, true)
	f.Fuzz(func(t *testing.T, seg0, seg1 []byte, cut0, cut1 uint16, skew int, dropFile bool) {
		if len(seg0) > 1<<16 || len(seg1) > 1<<16 {
			t.Skip("oversized fuzz input")
		}
		dir := t.TempDir()
		// mkPart keeps the first cut bytes of body in a file (none when
		// cut is 0) and the rest in two in-memory tail buffers.
		mkPart := func(name string, body []byte, cut uint16) ConcatPart {
			k := int(cut) % (len(body) + 1)
			part := ConcatPart{
				Tail:      splitTail(body[k:]),
				Length:    int64(len(body)),
				RawLength: int64(len(body)),
				Records:   int64(countRecords(body)),
				Checksum:  crc32.ChecksumIEEE(body),
			}
			if k > 0 {
				part.Path = filepath.Join(dir, name)
				if err := os.WriteFile(part.Path, body[:k], 0o644); err != nil {
					t.Fatal(err)
				}
			}
			return part
		}
		parts := []ConcatPart{mkPart("p0", seg0, cut0), mkPart("p1", seg1, cut1)}
		// Skew the declared length of partition 0 (truncation/oversize
		// claims) and optionally delete partition 1's file prefix.
		parts[0].Length += int64(skew)
		dropped := dropFile && parts[1].Path != ""
		if dropped {
			if err := os.Remove(parts[1].Path); err != nil {
				t.Fatal(err)
			}
		}
		data := filepath.Join(dir, "out.data")
		index := filepath.Join(dir, "out.index")
		err := ConcatMOF(data, index, parts)
		if err != nil {
			if _, serr := os.Stat(data); serr == nil {
				t.Fatalf("ConcatMOF failed (%v) but left a data file", err)
			}
			return
		}
		if skew != 0 || dropped {
			t.Fatalf("ConcatMOF accepted skew=%d dropped=%v", skew, dropped)
		}
		// Success: every segment must round-trip through the read path.
		ix, err := ReadIndex(index)
		if err != nil {
			t.Fatalf("ReadIndex after successful concat: %v", err)
		}
		want := [][]byte{seg0, seg1}
		for p := range parts {
			entry, err := ix.Entry(p)
			if err != nil {
				t.Fatalf("entry %d: %v", p, err)
			}
			got, err := ReadSegmentBytes(data, entry)
			if err != nil {
				t.Fatalf("segment %d unreadable after concat: %v", p, err)
			}
			if !bytes.Equal(got, want[p]) {
				t.Fatalf("segment %d bytes differ after concat", p)
			}
		}
	})
}

// countRecords counts well-formed records at the head of body (fuzz
// bodies are arbitrary bytes; the count only needs to be self-consistent
// for valid encodings).
func countRecords(body []byte) int {
	n := 0
	for len(body) > 0 {
		_, adv, err := DecodeRecord(body)
		if err != nil {
			return n
		}
		body = body[adv:]
		n++
	}
	return n
}
