package snapshot

// The full-store Writer and the replay merge built on it. Neither is
// production code: every sealed store is produced by MergeShards from
// parts. They stay here as the independent oracle the splice merge is
// pinned against — the Writer recomputes every record CRC, the header
// checksum and the manifest's shard CRCs from the payload floats as
// they stream through, sharing none of the splice's CRC algebra — and
// as the direct way for tests to seal a store from literal records.

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Writer streams one snapshot to disk: records are appended user by
// user (or shard by shard) and the file becomes visible under its
// content-addressed name only after Finish seals the checksum and
// renames the temporary file into place — a crashed or aborted write
// can never be mistaken for a valid snapshot.
type Writer struct {
	key   Key
	lay   Layout
	f     *os.File
	bw    *bufio.Writer
	crc   uint32
	users int
	tmp   string
	final string
	done  bool

	// Manifest accounting, tracked record by record as users are
	// appended: per-record CRC-32Cs plus the running CRC of each
	// manifest shard (fixed ManifestShardUsers granularity, so every
	// build strategy — single writer, merged parts — produces the
	// identical manifest for the same key).
	recCRCs   []uint32
	shardCRCs []uint32
}

// Create opens a snapshot writer for key under dir (created if
// missing). The caller must either Finish or Abort it.
func Create(dir string, key Key) (*Writer, error) {
	if err := key.validate(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	sweepStaleTemps(dir)
	final := key.Path(dir)
	// A per-writer unique temp name: concurrent cold builds of the
	// same key (two goroutines, two processes) must never share a
	// temp file, or they would interleave writes and seal a corrupt
	// snapshot. Whoever renames last wins; both results are
	// byte-identical anyway.
	f, err := os.CreateTemp(dir, key.Filename()+".tmp*")
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	w := &Writer{key: key, lay: key.Layout(), f: f,
		bw: bufio.NewWriterSize(f, 1<<20), tmp: f.Name(), final: final}
	// Header placeholder; Finish rewrites it with the checksum.
	if _, err := w.bw.Write(key.encodeHeader(0, w.lay.PayloadFloats())); err != nil {
		w.Abort()
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return w, nil
}

// Layout returns the writer's payload geometry.
func (w *Writer) Layout() Layout { return w.lay }

// AppendUsers appends whole user records (len must be a multiple of
// Layout().RecordFloats()) in user order.
func (w *Writer) AppendUsers(recs []float64) error {
	rf := w.lay.RecordFloats()
	if len(recs)%rf != 0 {
		return fmt.Errorf("snapshot: AppendUsers got %d floats, not a multiple of the %d-float record", len(recs), rf)
	}
	n := len(recs) / rf
	if w.users+n > w.lay.Users {
		return fmt.Errorf("snapshot: appending %d users past the declared %d", w.users+n, w.lay.Users)
	}
	b := floatBytes(recs)
	w.crc = crc32.Update(w.crc, crcTable, b)
	for i := 0; i < n; i++ {
		rb := b[i*rf*8 : (i+1)*rf*8]
		w.recCRCs = append(w.recCRCs, crc32.Checksum(rb, crcTable))
		si := (w.users + i) / ManifestShardUsers
		if si == len(w.shardCRCs) {
			w.shardCRCs = append(w.shardCRCs, 0)
		}
		w.shardCRCs[si] = crc32.Update(w.shardCRCs[si], crcTable, rb)
	}
	if _, err := w.bw.Write(b); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	w.users += n
	return nil
}

// Finish seals the snapshot: all users must have been appended. It
// flushes, patches the header checksum, syncs and atomically renames
// the file into place.
func (w *Writer) Finish() error {
	if w.done {
		return fmt.Errorf("snapshot: writer already finished")
	}
	if w.users != w.lay.Users {
		w.Abort()
		return fmt.Errorf("snapshot: %d of %d users appended", w.users, w.lay.Users)
	}
	if err := w.bw.Flush(); err != nil {
		w.Abort()
		return fmt.Errorf("snapshot: %w", err)
	}
	if _, err := w.f.WriteAt(w.key.encodeHeader(w.crc, w.lay.PayloadFloats()), 0); err != nil {
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
	// The manifest seals after the snapshot so a reader can never see
	// a manifest without its store. A failed manifest write leaves a
	// store every reader refuses as unusable (not absent), as a merge
	// cut off between its two renames does.
	if err := writeManifest(w.final+manifestSuffix, w.key, w.shardCRCs, w.recCRCs); err != nil {
		return fmt.Errorf("snapshot: manifest: %w", err)
	}
	return nil
}

// Abort discards the partial snapshot. Safe to call after a failed
// Finish or on any error path; never clobbers a sealed file.
func (w *Writer) Abort() {
	if w.done {
		return
	}
	w.done = true
	_ = w.f.Close()
	_ = os.Remove(w.tmp)
}

// MergeShardsStreaming is the independent verify fallback for
// MergeShards: it replays every part record through an ordinary Writer
// — recomputing every record CRC from the payload floats instead of
// trusting the parts' tables — and seals the identical snapshot +
// manifest. It exists so the splice's CRC algebra is cross-checkable
// end to end: the byte-identity of the two merges is pinned in tests.
// On success the consumed part files are removed.
func MergeShardsStreaming(dir string, key Key) (int, error) {
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
	w, err := Create(dir, key)
	if err != nil {
		return 0, err
	}
	lay := key.Layout()
	rf := lay.RecordFloats()
	// Chunked whole-record copies through a float64 buffer: reading
	// into floatBytes of a []float64 keeps the 8-byte alignment
	// AppendUsers' reinterpretation needs.
	chunkRecs := (1 << 20) / (rf * 8)
	if chunkRecs < 1 {
		chunkRecs = 1
	}
	buf := make([]float64, chunkRecs*rf)
	for _, p := range parts {
		if err := mergeOnePart(w, key, p, buf); err != nil {
			w.Abort()
			return 0, err
		}
	}
	if err := w.Finish(); err != nil {
		return 0, err
	}
	for _, p := range parts {
		_ = os.Remove(p.path)
	}
	return len(parts), nil
}

func mergeOnePart(w *Writer, key Key, p partRange, buf []float64) error {
	f, err := os.Open(p.path)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	defer f.Close()
	rf := key.Layout().RecordFloats()
	st, err := f.Stat()
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if want := key.partSize(p.lo, p.hi); st.Size() != want {
		return fmt.Errorf("snapshot: part %s is %d bytes, want %d (truncated or foreign)", filepath.Base(p.path), st.Size(), want)
	}
	var hdr [partHdrBytes]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	checksum, tableCRC, err := key.checkPartHeader(hdr[:], p.lo, p.hi)
	if err != nil {
		return fmt.Errorf("snapshot: part %s: %w", filepath.Base(p.path), err)
	}
	br := bufio.NewReaderSize(f, 1<<20)
	crc := uint32(0)
	for rem := p.hi - p.lo; rem > 0; {
		n := len(buf) / rf
		if n > rem {
			n = rem
		}
		chunk := buf[:n*rf]
		b := floatBytes(chunk)
		if _, err := io.ReadFull(br, b); err != nil {
			return fmt.Errorf("snapshot: part %s: %w", filepath.Base(p.path), err)
		}
		crc = crc32.Update(crc, crcTable, b)
		if err := w.AppendUsers(chunk); err != nil {
			return err
		}
		rem -= n
	}
	if uint64(crc) != checksum {
		return fmt.Errorf("snapshot: part %s payload checksum %08x != header %08x (corrupt)", filepath.Base(p.path), crc, checksum)
	}
	table := make([]byte, 4*(p.hi-p.lo))
	if _, err := io.ReadFull(br, table); err != nil {
		return fmt.Errorf("snapshot: part %s table: %w", filepath.Base(p.path), err)
	}
	if got := crc32.Checksum(table, crcTable); uint64(got) != tableCRC {
		return fmt.Errorf("snapshot: part %s record table checksum %08x != header %08x (corrupt)", filepath.Base(p.path), got, tableCRC)
	}
	return nil
}
