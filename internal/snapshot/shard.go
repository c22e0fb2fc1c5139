package snapshot

// Distributed builds: independent workers (goroutines, processes or
// hosts sharing a filesystem) each seal a contiguous user range
// [lo, hi) as a part file next to the final snapshot, and a final
// MergeShards call validates that the sealed parts tile the population
// exactly and splices them into the canonical snapshot + manifest.
//
// Because the payload is user-major, a part's payload bytes are
// already exactly the bytes the final snapshot needs at that offset —
// so the merge is a verified byte concatenation, and every checksum
// the sealed store carries (header CRC, manifest shard CRCs) is
// recomputed from the parts' CRC tables with the GF(2) combine in
// combine.go instead of re-streaming every record. MergeShards is the
// only code that seals a snapshot: a single-process build is one part
// covering the whole population, merged the same way.
//
// The store is renamed into place before its manifest is written, and
// the parts are removed only after both. A crash between the two
// renames leaves a store without a manifest, which every reader
// refuses as unusable (not as absent), and the parts from which the
// next build re-merges it.
//
// # Part layout
//
// A part is a sealed, self-checksummed slice of the payload:
//
//	offset 0    magic "RPWSPRT2" (8 bytes)
//	offset 8    header: 16 × uint64
//	              fields 0–9: identical to the snapshot header
//	              (headerVersion … binsPerWeek), then payloadFloats
//	              (of the FULL key, so a part can never be mistaken
//	              for a differently sized population), lo, hi,
//	              partFloats ((hi-lo) × recordFloats), partCRC
//	              (CRC-32C of the part payload, low 32 bits), tableCRC
//	              (CRC-32C of the record-CRC table, low 32 bits)
//	then        payload: users [lo, hi) × record
//	then        table: (hi-lo) × uint32 per-record CRC-32Cs
//
// The per-record table is what lets the merge seal the manifest
// without re-reading a single payload float: record CRCs concatenate
// into manifest shard CRCs and the header checksum by pure CRC
// algebra, and the table itself is cross-checked against partCRC (the
// fold of the table must equal the payload's own checksum) so a
// corrupt table can never produce a sealed store.
//
// Parts use the same temp-file + atomic-rename discipline as the
// merged snapshot: a crashed worker leaves only a temp file (swept by
// the next CreateShard or MergeShards), never a sealed-looking part.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const (
	partMagic    = "RPWSPRT2"
	partFields   = 16
	partHdrBytes = 8 + partFields*8
)

// PartPath returns the part-file path for users [lo, hi) of the key
// under dir. The range is zero-padded so lexical order is user order.
func (k Key) PartPath(dir string, lo, hi int) string {
	return filepath.Join(dir, fmt.Sprintf("%s.part-%08d-%08d", k.Filename(), lo, hi))
}

func (k Key) encodePartHeader(lo, hi, partFloats int, crc, tableCRC uint32) []byte {
	buf := make([]byte, partHdrBytes)
	copy(buf, partMagic)
	fields := []uint64{
		headerVersion,
		EngineVersion,
		k.Seed,
		uint64(k.Users),
		uint64(k.Weeks),
		uint64(k.BinWidth.Microseconds()),
		uint64(k.StartMicros),
		math.Float64bits(k.HeavyFraction),
		math.Float64bits(k.WeeklyTrend),
		uint64(k.BinsPerWeek()),
		uint64(k.Layout().PayloadFloats()),
		uint64(lo),
		uint64(hi),
		uint64(partFloats),
		uint64(crc),
		uint64(tableCRC),
	}
	for i, v := range fields {
		binary.LittleEndian.PutUint64(buf[8+8*i:], v)
	}
	return buf
}

// checkPartHeader validates a part header against the key and the
// range its filename claims, returning the payload and record-table
// checksums it seals.
func (k Key) checkPartHeader(buf []byte, lo, hi int) (checksum, tableCRC uint64, err error) {
	if len(buf) < partHdrBytes || string(buf[:8]) != partMagic {
		return 0, 0, fmt.Errorf("snapshot: bad part magic (not a shard part)")
	}
	field := func(i int) uint64 { return binary.LittleEndian.Uint64(buf[8+8*i:]) }
	rf := k.Layout().RecordFloats()
	checks := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"header version", field(0), headerVersion},
		{"engine version", field(1), EngineVersion},
		{"seed", field(2), k.Seed},
		{"users", field(3), uint64(k.Users)},
		{"weeks", field(4), uint64(k.Weeks)},
		{"bin width", field(5), uint64(k.BinWidth.Microseconds())},
		{"start micros", field(6), uint64(k.StartMicros)},
		{"heavy fraction", field(7), math.Float64bits(k.HeavyFraction)},
		{"weekly trend", field(8), math.Float64bits(k.WeeklyTrend)},
		{"bins per week", field(9), uint64(k.BinsPerWeek())},
		{"payload floats", field(10), uint64(k.Layout().PayloadFloats())},
		{"range lo", field(11), uint64(lo)},
		{"range hi", field(12), uint64(hi)},
		{"part floats", field(13), uint64((hi - lo) * rf)},
	}
	for _, c := range checks {
		if c.got != c.want {
			return 0, 0, fmt.Errorf("snapshot: part %s mismatch (file %d, want %d)", c.name, c.got, c.want)
		}
	}
	return field(14), field(15), nil
}

// partSize returns the sealed on-disk size of a part covering
// [lo, hi): header ∥ payload ∥ record-CRC table.
func (k Key) partSize(lo, hi int) int64 {
	rf := int64(k.Layout().RecordFloats())
	return int64(partHdrBytes) + int64(hi-lo)*rf*8 + int64(hi-lo)*4
}

// ShardWriter streams one contiguous user range of a snapshot to a
// sealed part file: append users [lo, hi) in order, then Finish (or
// Abort).
type ShardWriter struct {
	key     Key
	lay     Layout
	lo, hi  int
	f       *os.File
	bw      *bufio.Writer
	crc     uint32
	recCRCs []uint32
	users   int // appended so far, relative to lo
	tmp     string
	final   string
	done    bool
}

// CreateShard opens a part writer for users [lo, hi) of key under dir
// (created if missing). Ranges from concurrent workers must be
// disjoint; MergeShards enforces that they tile the population.
func CreateShard(dir string, key Key, lo, hi int) (*ShardWriter, error) {
	if err := key.validate(); err != nil {
		return nil, err
	}
	if lo < 0 || hi <= lo || hi > key.Users {
		return nil, fmt.Errorf("snapshot: shard range [%d, %d) invalid for %d users", lo, hi, key.Users)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	sweepStaleTemps(dir)
	final := key.PartPath(dir, lo, hi)
	f, err := os.CreateTemp(dir, filepath.Base(final)+".tmp*")
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	w := &ShardWriter{key: key, lay: key.Layout(), lo: lo, hi: hi, f: f,
		bw: bufio.NewWriterSize(f, 1<<20), tmp: f.Name(), final: final}
	if _, err := w.bw.Write(key.encodePartHeader(lo, hi, (hi-lo)*w.lay.RecordFloats(), 0, 0)); err != nil {
		w.Abort()
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return w, nil
}

// AppendUsers appends whole user records (len must be a multiple of
// Layout().RecordFloats()) in user order within the part's range.
func (w *ShardWriter) AppendUsers(recs []float64) error {
	rf := w.lay.RecordFloats()
	if len(recs)%rf != 0 {
		return fmt.Errorf("snapshot: AppendUsers got %d floats, not a multiple of the %d-float record", len(recs), rf)
	}
	n := len(recs) / rf
	if w.lo+w.users+n > w.hi {
		return fmt.Errorf("snapshot: appending past the shard range [%d, %d)", w.lo, w.hi)
	}
	b := floatBytes(recs)
	w.crc = crc32.Update(w.crc, crcTable, b)
	for i := 0; i < n; i++ {
		w.recCRCs = append(w.recCRCs, crc32.Checksum(b[i*rf*8:(i+1)*rf*8], crcTable))
	}
	if _, err := w.bw.Write(b); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	w.users += n
	return nil
}

// encodeCRCTable renders a record-CRC table as its on-disk bytes.
func encodeCRCTable(crcs []uint32) []byte {
	buf := make([]byte, 4*len(crcs))
	for i, c := range crcs {
		binary.LittleEndian.PutUint32(buf[4*i:], c)
	}
	return buf
}

// Finish seals the part: the full range must have been appended. It
// appends the record-CRC table, flushes, patches the header checksums,
// syncs and atomically renames the part into place.
func (w *ShardWriter) Finish() error {
	if w.done {
		return fmt.Errorf("snapshot: shard writer already finished")
	}
	if w.lo+w.users != w.hi {
		w.Abort()
		return fmt.Errorf("snapshot: %d of %d shard users appended", w.users, w.hi-w.lo)
	}
	table := encodeCRCTable(w.recCRCs)
	if _, err := w.bw.Write(table); err != nil {
		w.Abort()
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := w.bw.Flush(); err != nil {
		w.Abort()
		return fmt.Errorf("snapshot: %w", err)
	}
	hdr := w.key.encodePartHeader(w.lo, w.hi, (w.hi-w.lo)*w.lay.RecordFloats(),
		w.crc, crc32.Checksum(table, crcTable))
	if _, err := w.f.WriteAt(hdr, 0); err != nil {
		w.Abort()
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		w.Abort()
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := w.f.Close(); err != nil {
		w.Abort()
		return fmt.Errorf("snapshot: %w", err)
	}
	w.done = true
	if err := os.Rename(w.tmp, w.final); err != nil {
		os.Remove(w.tmp)
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// Abort discards the partial part file.
func (w *ShardWriter) Abort() {
	if w.done {
		return
	}
	w.done = true
	_ = w.f.Close()
	_ = os.Remove(w.tmp)
}

// partRange is one discovered sealed part.
type partRange struct {
	path   string
	lo, hi int
}

// findParts lists the sealed parts of key under dir, sorted by lo.
func findParts(dir string, key Key) ([]partRange, error) {
	prefix := key.Filename() + ".part-"
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	var parts []partRange
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, prefix) || strings.Contains(name, ".tmp") {
			continue
		}
		var lo, hi int
		if _, err := fmt.Sscanf(name[len(prefix):], "%d-%d", &lo, &hi); err != nil {
			continue
		}
		// The suffix must be exactly the range — anything trailing
		// (a quarantined "….bad", editor droppings) is not a sealed
		// part and must never reach a merge.
		if name[len(prefix):] != fmt.Sprintf("%08d-%08d", lo, hi) {
			continue
		}
		parts = append(parts, partRange{path: filepath.Join(dir, name), lo: lo, hi: hi})
	}
	sort.Slice(parts, func(i, j int) bool { return parts[i].lo < parts[j].lo })
	return parts, nil
}

// checkPartTiling validates that the discovered parts cover [0, users)
// exactly, with no gaps or overlaps.
func checkPartTiling(parts []partRange, key Key, dir string) error {
	if len(parts) == 0 {
		return fmt.Errorf("snapshot: no sealed parts for %s under %s", key.Filename(), dir)
	}
	next := 0
	for _, p := range parts {
		if p.lo != next {
			return fmt.Errorf("snapshot: parts do not tile the population: next range starts at %d, want %d (have %s)", p.lo, next, filepath.Base(p.path))
		}
		next = p.hi
	}
	if next != key.Users {
		return fmt.Errorf("snapshot: parts cover users [0, %d), store needs [0, %d)", next, key.Users)
	}
	return nil
}

// readPartMeta validates one part's size and header, reads its
// record-CRC table (verifying the table's own checksum), and
// cross-checks the table against the payload checksum: the CRC fold of
// the per-record entries must reproduce partCRC exactly, so a sealed
// store can never be derived from a table that disagrees with the
// payload it describes.
func readPartMeta(key Key, p partRange, recShift *crcShift) (partCRC uint32, recCRCs []uint32, err error) {
	f, err := os.Open(p.path)
	if err != nil {
		return 0, nil, fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, nil, fmt.Errorf("snapshot: %w", err)
	}
	if want := key.partSize(p.lo, p.hi); st.Size() != want {
		return 0, nil, fmt.Errorf("snapshot: part %s is %d bytes, want %d (truncated or foreign)", filepath.Base(p.path), st.Size(), want)
	}
	var hdr [partHdrBytes]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("snapshot: %w", err)
	}
	checksum, tableCRC, err := key.checkPartHeader(hdr[:], p.lo, p.hi)
	if err != nil {
		return 0, nil, fmt.Errorf("snapshot: part %s: %w", filepath.Base(p.path), err)
	}
	rf := key.Layout().RecordFloats()
	table := make([]byte, 4*(p.hi-p.lo))
	if _, err := f.ReadAt(table, int64(partHdrBytes)+int64(p.hi-p.lo)*int64(rf)*8); err != nil {
		return 0, nil, fmt.Errorf("snapshot: part %s table: %w", filepath.Base(p.path), err)
	}
	if got := crc32.Checksum(table, crcTable); uint64(got) != tableCRC {
		return 0, nil, fmt.Errorf("snapshot: part %s record table checksum %08x != header %08x (corrupt)", filepath.Base(p.path), got, tableCRC)
	}
	recCRCs = make([]uint32, p.hi-p.lo)
	fold := uint32(0)
	for i := range recCRCs {
		recCRCs[i] = binary.LittleEndian.Uint32(table[4*i:])
		fold = recShift.combine(fold, recCRCs[i])
	}
	if uint64(fold) != checksum {
		return 0, nil, fmt.Errorf("snapshot: part %s record table folds to %08x, payload checksum is %08x (inconsistent part)", filepath.Base(p.path), fold, checksum)
	}
	return uint32(checksum), recCRCs, nil
}

// MergeShards discovers the sealed parts of key under dir, verifies
// they tile [0, users) exactly, and splices them into the sealed
// snapshot + manifest, byte-identical to a single-process build. The
// user-major payload makes part payloads byte-exact slices of the
// final store, so the merge concatenates them with verified bulk byte
// copies and derives every checksum — the header CRC and the
// manifest's shard and record tables — from the parts' record-CRC
// tables by CRC combination, never re-streaming records through a
// Writer. On success the consumed part files are removed. It returns
// the number of parts merged.
//
// The store is written through an alignedWriter, in whole 2 MiB
// blocks at 2 MiB-aligned offsets, so the page cache holds it in
// PMD-sized folios that mapFile's mapping can map huge.
func MergeShards(dir string, key Key) (int, error) {
	if err := key.validate(); err != nil {
		return 0, err
	}
	parts, err := findParts(dir, key)
	if err != nil {
		return 0, err
	}
	if err := checkPartTiling(parts, key, dir); err != nil {
		return 0, err
	}
	lay := key.Layout()
	recBytes := int64(lay.RecordFloats()) * 8
	recShift := makeCRCShift(recBytes)

	// Pass 1: headers + record-CRC tables, each table cross-checked
	// against its part's payload checksum.
	recCRCs := make([]uint32, 0, key.Users)
	partCRCs := make([]uint32, len(parts))
	for i, p := range parts {
		crc, tbl, err := readPartMeta(key, p, &recShift)
		if err != nil {
			return 0, err
		}
		partCRCs[i] = crc
		recCRCs = append(recCRCs, tbl...)
	}

	// Derive the sealed store's checksums from the tables alone.
	shardCRCs, total := foldRecordCRCs(recCRCs, recBytes)

	// Pass 2: splice. The combined checksum is known up front, so the
	// final header is written first and never patched.
	sweepStaleTemps(dir)
	final := key.Path(dir)
	f, err := os.CreateTemp(dir, key.Filename()+".tmp*")
	if err != nil {
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	tmp := f.Name()
	fail := func(err error) (int, error) {
		f.Close()
		os.Remove(tmp)
		return 0, err
	}
	bw := newAlignedWriter(f)
	if _, err := bw.Write(key.encodeHeader(total, lay.PayloadFloats())); err != nil {
		return fail(fmt.Errorf("snapshot: %w", err))
	}
	for i, p := range parts {
		if err := spliceOnePart(bw, key, p, partCRCs[i]); err != nil {
			return fail(err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fail(fmt.Errorf("snapshot: %w", err))
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("snapshot: %w", err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("snapshot: %w", err)
	}
	if err := writeManifest(final+manifestSuffix, key, shardCRCs, recCRCs); err != nil {
		return 0, fmt.Errorf("snapshot: manifest: %w", err)
	}
	for _, p := range parts {
		_ = os.Remove(p.path)
	}
	return len(parts), nil
}

// hugeBlock is the granule of the sealed store's writes: one
// PMD-mapped huge page (2 MiB with 4 KiB base pages on x86-64 and
// arm64).
const hugeBlock = 2 << 20

// alignedWriter writes a stream that starts at file offset 0 in
// writes that each start at a hugeBlock-aligned offset and span whole
// hugeBlocks; only Flush writes a shorter tail. The page cache builds
// a folio from each write, so a store written this way sits in 2 MiB
// folios that a fault maps with one PMD, and that a drop unmaps with
// one. bufio.Writer is not enough: it passes a large write straight
// through at whatever length it has, so a record over the buffer size
// would shift every later write off the alignment.
type alignedWriter struct {
	w   io.Writer
	buf []byte // pending bytes; cap is hugeBlock
}

func newAlignedWriter(w io.Writer) *alignedWriter {
	return &alignedWriter{w: w, buf: make([]byte, 0, hugeBlock)}
}

// Write buffers p, writing each block the buffer fills; with the
// buffer empty, the whole blocks at the head of p go straight
// through.
func (a *alignedWriter) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if len(a.buf) == 0 && len(p) >= hugeBlock {
			whole := len(p) / hugeBlock * hugeBlock
			if _, err := a.w.Write(p[:whole]); err != nil {
				return n - len(p), err
			}
			p = p[whole:]
			continue
		}
		k := copy(a.buf[len(a.buf):cap(a.buf)], p)
		a.buf, p = a.buf[:len(a.buf)+k], p[k:]
		if len(a.buf) == cap(a.buf) {
			if _, err := a.w.Write(a.buf); err != nil {
				return n - len(p), err
			}
			a.buf = a.buf[:0]
		}
	}
	return n, nil
}

// Flush writes the buffered tail.
func (a *alignedWriter) Flush() error {
	if len(a.buf) == 0 {
		return nil
	}
	_, err := a.w.Write(a.buf)
	a.buf = a.buf[:0]
	return err
}

// spliceBuf is the largest read buffer spliceOnePart holds: it reads
// as many whole records as fit, or one record when a record is larger.
const spliceBuf = 1 << 20

// spliceOnePart bulk-copies one part's payload bytes into the
// destination, re-verifying the part checksum as the bytes stream
// through (so a part corrupted after pass 1 still cannot seal), and
// proves every record's sorted week columns and day views sorted and
// NaN-free on the same read (Layout.checkSorted). It reads whole
// records, so no column straddles a buffer. A checksum mismatch is
// reported ahead of an unsorted column: a corrupt part is corrupt,
// and only a part whose bytes are exactly what its writer sealed is
// blamed on the writer.
func spliceOnePart(dst io.Writer, key Key, p partRange, wantCRC uint32) error {
	f, err := os.Open(p.path)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	if _, err := f.Seek(partHdrBytes, io.SeekStart); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	lay := key.Layout()
	rf := lay.RecordFloats()
	chunkRecs := min(max(spliceBuf/(rf*8), 1), p.hi-p.lo)
	// A float64 buffer keeps the 8-byte alignment the scan's view of
	// the bytes needs.
	buf := make([]float64, chunkRecs*rf)
	crc := uint32(0)
	var unsorted error
	for u := p.lo; u < p.hi; {
		n := min(chunkRecs, p.hi-u)
		b := floatBytes(buf[:n*rf])
		if _, err := io.ReadFull(f, b); err != nil {
			return fmt.Errorf("snapshot: part %s: %w", filepath.Base(p.path), err)
		}
		for i := 0; i < n; i++ {
			rec := buf[i*rf : (i+1)*rf]
			crc = crc32.Update(crc, crcTable, floatBytes(rec))
			if unsorted == nil {
				if err := lay.checkSorted(rec); err != nil {
					unsorted = fmt.Errorf("snapshot: part %s user %d: %w", filepath.Base(p.path), u+i, err)
				}
			}
		}
		if _, err := dst.Write(b); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		u += n
	}
	if crc != wantCRC {
		return fmt.Errorf("snapshot: part %s payload checksum %08x != header %08x (corrupt)", filepath.Base(p.path), crc, wantCRC)
	}
	return unsorted
}

// PartInfo describes one sealed part file of a distributed build.
// ListParts returns it with only the discovery fields (Path, Lo, Hi)
// populated; VerifyPart fills Bytes and CRC after proving the part
// sound end to end.
type PartInfo struct {
	Path   string
	Lo, Hi int    // user range [Lo, Hi)
	Bytes  int64  // sealed on-disk size (header ∥ payload ∥ CRC table)
	CRC    uint32 // CRC-32C of the part payload
}

// ListParts returns the sealed parts of key under dir, sorted by Lo.
// Discovery only: the parts are not validated (a truncated or corrupt
// part still lists); callers that need proof run VerifyPart per part.
// Quarantined "*.bad" files and in-flight temps are never listed.
func ListParts(dir string, key Key) ([]PartInfo, error) {
	if err := key.validate(); err != nil {
		return nil, err
	}
	parts, err := findParts(dir, key)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil // no store directory yet: a cold build, not an error
		}
		return nil, err
	}
	out := make([]PartInfo, len(parts))
	for i, p := range parts {
		out[i] = PartInfo{Path: p.path, Lo: p.lo, Hi: p.hi}
	}
	return out, nil
}

// VerifyPart proves one sealed part sound end to end: size, header
// (against the key and the range), record-CRC table self-checksum,
// table-vs-payload-checksum consistency, and a full streaming read of
// the payload against the sealed CRC that also proves every sorted
// week column and day view sorted and NaN-free. It is the gate every
// part passes — built locally, received from a remote builder, or
// left over by an earlier run — before it may be adopted as done
// work; anything else is quarantined and rebuilt. MergeShards re-runs
// the same read, so no sealed store holds a column that failed it,
// and readers of an opened store (whose checksum binds these bytes)
// adopt the columns without rescanning them. The returned PartInfo
// carries the sealed size and payload CRC.
func VerifyPart(dir string, key Key, lo, hi int) (PartInfo, error) {
	if err := key.validate(); err != nil {
		return PartInfo{}, err
	}
	if lo < 0 || hi <= lo || hi > key.Users {
		return PartInfo{}, fmt.Errorf("snapshot: part range [%d, %d) invalid for %d users", lo, hi, key.Users)
	}
	p := partRange{path: key.PartPath(dir, lo, hi), lo: lo, hi: hi}
	recShift := makeCRCShift(int64(key.Layout().RecordFloats()) * 8)
	crc, _, err := readPartMeta(key, p, &recShift)
	if err != nil {
		return PartInfo{}, err
	}
	// readPartMeta proves header and table; the payload bytes
	// themselves still need one streaming pass against the sealed CRC
	// and the sorted-section check.
	if err := spliceOnePart(io.Discard, key, p, crc); err != nil {
		return PartInfo{}, err
	}
	return PartInfo{Path: p.path, Lo: lo, Hi: hi, Bytes: key.partSize(lo, hi), CRC: crc}, nil
}

// QuarantineSuffix marks a part file that failed verification and was
// moved out of the build's way. Quarantined files are invisible to
// ListParts/MergeShards and are reaped by GC once they age out.
const QuarantineSuffix = ".bad"

// QuarantinePart renames a failed part to its quarantine name and
// returns that name. An existing quarantine file for the same part is
// replaced — the newest corpse is the one worth examining.
func QuarantinePart(path string) (string, error) {
	bad := path + QuarantineSuffix
	if err := os.Rename(path, bad); err != nil {
		return "", fmt.Errorf("snapshot: quarantine: %w", err)
	}
	return bad, nil
}
