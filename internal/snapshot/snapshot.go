// Package snapshot is the on-disk workspace store: a compact binary
// columnar format holding everything a materialized analysis
// workspace derives from a deterministic enterprise — per-user feature
// matrices, per-(week, feature) sorted columns and per-day sorted
// views — written once and mapped back as zero-copy []float64 views.
//
// The matrices are a pure function of
// (seed, users, weeks, bin width, engine version): the store is
// content-addressed by exactly that key (plus the remaining generator
// knobs — start time, heavy fraction, weekly trend — so two configs
// can never alias). A snapshot whose header does not match the
// requested key, whose engine version is stale, or whose payload fails
// the checksum is rejected with an error; callers fall back to
// regeneration.
//
// # File layout
//
// All integers are little-endian uint64; all payload data is raw
// IEEE-754 float64, 8-byte aligned so the mapped file can be
// reinterpreted in place:
//
//	offset 0    magic "RPWSSNP1" (8 bytes)
//	offset 8    header: 12 × uint64
//	              headerVersion, engine, seed, users, weeks,
//	              binWidthMicros, startMicros, heavyFraction bits,
//	              weeklyTrend bits, binsPerWeek, payloadFloats,
//	              checksum (CRC-32C of the payload, low 32 bits)
//	offset 104  payload: users × record, one record per user:
//	              rows       bins × 6 floats   (bin-major, canonical
//	                                            feature order)
//	              sorted     weeks × 6 × binsPerWeek floats
//	                                           (week-major, feature
//	                                            columns sorted asc)
//	              days       weeks × 6 × 7 × binsPerDay floats
//	                                           (each day's windows
//	                                            sorted asc)
//
// The record is user-major so a writer can stream a population
// through bounded shards — generate a shard, append its records,
// release — without ever holding more than one shard in memory; every
// view a reader needs is still a contiguous float64 run addressable in
// closed form from (user, week, feature).
//
// The format is declared little-endian; CreateShard and Open refuse to
// run on big-endian hosts rather than silently writing a foreign byte
// order.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
	"unsafe"

	"repro/internal/features"
	"repro/internal/par"
	"repro/internal/trace"
)

// EngineVersion identifies the trace-generation engine whose output
// the snapshot caches. Bump it whenever the generator's model or draw
// order changes (anything that would alter a single matrix value):
// every existing snapshot then misses its key and is regenerated
// instead of silently serving stale matrices.
const EngineVersion = 1

const (
	magic         = "RPWSSNP1"
	headerVersion = 1
	headerBytes   = 8 + 12*8 // magic + 12 uint64 fields
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// hostLittleEndian reports whether this host stores float64/uint64
// little-endian (the only byte order the format supports).
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Key content-addresses one materialized workspace: the full set of
// inputs the deterministic generation engine consumes. Two keys are
// interchangeable if and only if they produce bit-identical matrices
// (under one EngineVersion).
type Key struct {
	Seed          uint64
	Users         int
	Weeks         int
	BinWidth      time.Duration
	StartMicros   int64
	HeavyFraction float64
	WeeklyTrend   float64
}

// KeyFor derives the snapshot key of a trace configuration, applying
// the same defaulting NewPopulation does, so a partially specified
// Config (zero bin width, zero trend) addresses the same snapshot as
// its normalized form.
func KeyFor(cfg trace.Config) (Key, error) {
	cfg, err := cfg.Normalized()
	if err != nil {
		return Key{}, err
	}
	return Key{
		Seed:          cfg.Seed,
		Users:         cfg.Users,
		Weeks:         cfg.Weeks,
		BinWidth:      cfg.BinWidth,
		StartMicros:   cfg.StartMicros,
		HeavyFraction: cfg.HeavyFraction,
		WeeklyTrend:   cfg.WeeklyTrend,
	}, nil
}

// BinsPerWeek returns the number of aggregation windows per week.
func (k Key) BinsPerWeek() int {
	return int((7 * 24 * time.Hour) / k.BinWidth)
}

// Layout returns the payload geometry of the key.
func (k Key) Layout() Layout {
	bpw := k.BinsPerWeek()
	return Layout{Users: k.Users, Weeks: k.Weeks, BinsPerWeek: bpw, BinsPerDay: bpw / 7}
}

// hash folds every addressed field (and the engine version) into the
// filename discriminator, so configs that share the printable fields
// but differ in start time, heavy fraction or trend cannot collide.
func (k Key) hash() uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	mix(headerVersion)
	mix(EngineVersion)
	mix(k.Seed)
	mix(uint64(k.Users))
	mix(uint64(k.Weeks))
	mix(uint64(k.BinWidth.Microseconds()))
	mix(uint64(k.StartMicros))
	mix(math.Float64bits(k.HeavyFraction))
	mix(math.Float64bits(k.WeeklyTrend))
	return h
}

// Filename returns the content-addressed file name of the key inside
// a snapshot directory: human-readable coordinates plus a hash of the
// full key, e.g. "ws-s1-u5000-w2-b15m0s-v1-8f3a….snap".
func (k Key) Filename() string {
	return fmt.Sprintf("ws-s%d-u%d-w%d-b%s-v%d-%016x.snap",
		k.Seed, k.Users, k.Weeks, k.BinWidth, EngineVersion, k.hash())
}

// Path returns the key's file path under dir.
func (k Key) Path(dir string) string { return filepath.Join(dir, k.Filename()) }

func (k Key) validate() error {
	if !hostLittleEndian {
		return fmt.Errorf("snapshot: format is little-endian; unsupported on this host")
	}
	return k.checkGeometry()
}

// checkGeometry refuses a key whose layout would be empty or
// inconsistent.
func (k Key) checkGeometry() error {
	if k.Users <= 0 || k.Weeks <= 0 {
		return fmt.Errorf("snapshot: key needs positive users/weeks, got %d/%d", k.Users, k.Weeks)
	}
	// The width must divide a day, not merely a week: the layout's day
	// views carve each week into 7 × BinsPerDay windows, and a width
	// like 1120m (9 bins/week) divides a week but truncates
	// BinsPerDay to 9/7 = 1, silently writing day views that cover 7
	// of the week's 9 bins with inconsistent RecordFloats geometry.
	// Day divisibility implies week divisibility (a week is 7 days).
	if k.BinWidth <= 0 || (24*time.Hour)%k.BinWidth != 0 {
		return fmt.Errorf("snapshot: bin width %v does not divide a day (day views need 7 equal per-day windows per week)", k.BinWidth)
	}
	return nil
}

// Layout describes the payload geometry; every offset a reader or
// writer needs is a closed-form function of it.
type Layout struct {
	Users, Weeks, BinsPerWeek, BinsPerDay int
}

// Bins returns the total windows per user.
func (l Layout) Bins() int { return l.Weeks * l.BinsPerWeek }

// RecordFloats returns the float64 count of one user's record.
func (l Layout) RecordFloats() int {
	return l.Bins()*features.NumFeatures + // rows
		l.Weeks*features.NumFeatures*l.BinsPerWeek + // sorted columns
		l.Weeks*features.NumFeatures*7*l.BinsPerDay // day views
}

// PayloadFloats returns the float64 count of the whole payload.
func (l Layout) PayloadFloats() int { return l.Users * l.RecordFloats() }

// SortedOff returns the record-relative float offset of one sorted
// (week, feature) column (BinsPerWeek floats).
func (l Layout) SortedOff(week, f int) int {
	return l.Bins()*features.NumFeatures +
		(week*features.NumFeatures+f)*l.BinsPerWeek
}

// DayOff returns the record-relative float offset of one (week,
// feature) day view (7×BinsPerDay floats, each day sorted).
func (l Layout) DayOff(week, f int) int {
	return l.Bins()*features.NumFeatures +
		l.Weeks*features.NumFeatures*l.BinsPerWeek +
		(week*features.NumFeatures+f)*7*l.BinsPerDay
}

// floatBytes reinterprets a float64 slice as raw bytes (little-endian
// hosts only, guarded at CreateShard/Open).
func floatBytes(fs []float64) []byte {
	if len(fs) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&fs[0])), len(fs)*8)
}

// bytesFloats reinterprets raw bytes as a float64 slice. The caller
// guarantees 8-byte alignment and length divisibility (both hold by
// construction: mmap is page-aligned and the header is 104 bytes).
func bytesFloats(b []byte) []float64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&b[0])), len(b)/8)
}

func (k Key) encodeHeader(checksum uint32, payloadFloats int) []byte {
	buf := make([]byte, headerBytes)
	copy(buf, magic)
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
		uint64(payloadFloats),
		uint64(checksum),
	}
	for i, v := range fields {
		binary.LittleEndian.PutUint64(buf[8+8*i:], v)
	}
	return buf
}

// checkHeader validates a header against the key and returns the
// payload float count and checksum it declares. The checksum comes
// back as the full uint64 field so a flipped bit in its zero padding
// is caught by the comparison, not silently truncated away.
func (k Key) checkHeader(buf []byte) (payloadFloats int, checksum uint64, err error) {
	if len(buf) < headerBytes || string(buf[:8]) != magic {
		return 0, 0, fmt.Errorf("snapshot: bad magic (not a workspace snapshot)")
	}
	field := func(i int) uint64 { return binary.LittleEndian.Uint64(buf[8+8*i:]) }
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
	}
	for _, c := range checks {
		if c.got != c.want {
			return 0, 0, fmt.Errorf("snapshot: %s mismatch (file %d, want %d)", c.name, c.got, c.want)
		}
	}
	return int(field(10)), field(11), nil
}

// StaleTempAge is how old an unsealed temp file must be before
// CreateShard or MergeShards sweeps it. Live builds keep their temp file's mtime fresh (the
// buffered writer flushes continuously), so only writers that crashed
// or were killed mid-build ever cross the gate.
const StaleTempAge = time.Hour

// sweepStaleTemps removes leaked temp files of crashed or killed
// writers from a store directory. Every temp this package creates is
// named "ws-…" and carries a ".tmp" marker, so sealed snapshots,
// manifests and shard part files can never match; the age gate keeps
// live concurrent builds (whose temps are freshly written) safe. Best
// effort: sweep errors are ignored, the store stays usable either way.
func sweepStaleTemps(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-StaleTempAge)
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "ws-") || !strings.Contains(name, ".tmp") {
			continue
		}
		info, err := e.Info()
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		_ = os.Remove(filepath.Join(dir, name))
	}
}

// Snapshot is a validated workspace store: an opened, memory-mapped
// file (Open) or a heap slab (Fill). All float views returned from it
// alias the backing and are strictly read-only (a mapping's pages are
// mapped PROT_READ, so a write faults immediately rather than
// corrupting shared state); a mapping's views must not be used after
// Close.
type Snapshot struct {
	key     Key
	lay     Layout
	data    []byte // whole mapping (or read fallback)
	payload []float64
	unmap   func() error
}

// Open maps the snapshot addressed by key under dir and fully
// validates it: the checks every reader shares (openSealed) and every
// user's record against the manifest's record table (verifyRecords).
// Any mismatch — a stale engine, a truncated write, a flipped bit, a
// missing or damaged manifest — returns an error and no Snapshot; the
// caller regenerates instead. A cold store (no store file) is
// fs.ErrNotExist.
//
// The records are read through small buffers rather than through the
// mapping: reading through the mapping would fault every page into
// the process's resident set, while a buffered read leaves the bytes
// in the (reclaimable) page cache and keeps the process's peak RSS
// bounded — the property the sharded materializer exists to provide.
// Mapped pages then fault in lazily, and only for the views actually
// used.
func Open(dir string, key Key) (*Snapshot, error) {
	st, err := openSealed(dir, key)
	if err != nil {
		return nil, err
	}
	defer st.f.Close()
	if err := st.verifyRecords(); err != nil {
		return nil, err
	}
	data, unmap, err := mapFile(st.f.Name(), headerBytes+st.lay.PayloadFloats()*8)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	return &Snapshot{
		key: key, lay: st.lay, data: data, unmap: unmap,
		payload: bytesFloats(data[headerBytes:]),
	}, nil
}

// ReadUser reads and verifies user u's record alone and returns its
// matrix, without mapping the store or reading any other record. It
// runs the checks every reader shares (openSealed), then checks the
// one record against the manifest's record table. The matrix owns
// its rows (they alias a heap copy of the whole record). An
// out-of-range u is an error naming the store's geometry: u comes
// from outside, as hidsd's -user.
func ReadUser(dir string, key Key, u int) (*features.Matrix, error) {
	st, err := openSealed(dir, key)
	if err != nil {
		return nil, err
	}
	defer st.f.Close()
	if err := st.lay.userInRange(u); err != nil {
		return nil, err
	}
	rec := make([]float64, st.lay.RecordFloats())
	if err := st.readRecord(u, rec); err != nil {
		return nil, err
	}
	return &features.Matrix{BinWidth: key.BinWidth, StartMicros: key.StartMicros, Rows: rowsView(rec, st.lay)}, nil
}

// sealedStore is an open store file that has passed openSealed: its
// manifest's record table is known to agree with the shard table and
// the header checksum, but no payload byte has been read yet.
type sealedStore struct {
	f       *os.File
	lay     Layout
	recCRCs []uint32 // the manifest's record table
}

// openSealed opens the store addressed by key under dir and runs the
// checks every reader shares: the header against the key, the exact
// file size, and the manifest, which must carry the record table. The
// record table must fold (foldRecordCRCs) to the manifest's shard
// table and to the header checksum, so a reader that then checks
// records against it has checked every checksum the store carries.
//
// A missing store file is fs.ErrNotExist: the store is cold. A store
// without its manifest is not: MergeShards was cut off between
// renaming the store into place and writing the manifest, so the store
// is unusable until a build re-merges it from the parts it left.
func openSealed(dir string, key Key) (_ *sealedStore, err error) {
	if err := key.validate(); err != nil {
		return nil, err
	}
	lay := key.Layout()
	path := key.Path(dir)
	f, err := os.Open(path)
	if err != nil {
		return nil, err // fs.ErrNotExist on a cold store
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if want := int64(headerBytes) + int64(lay.PayloadFloats())*8; fi.Size() != want {
		return nil, fmt.Errorf("snapshot: %s is %d bytes, want %d (truncated or foreign)", path, fi.Size(), want)
	}
	var hdr [headerBytes]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	payloadFloats, checksum, err := key.checkHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	if payloadFloats != lay.PayloadFloats() {
		return nil, fmt.Errorf("snapshot: payload declares %d floats, layout needs %d", payloadFloats, lay.PayloadFloats())
	}
	shardCRCs, recCRCs, err := readManifest(path+manifestSuffix, key)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("snapshot: %s has no manifest (sealed without it; unusable until rebuilt)", path)
	}
	if err != nil {
		return nil, err
	}
	folded, total := foldRecordCRCs(recCRCs, int64(lay.RecordFloats())*8)
	if uint64(total) != checksum {
		return nil, fmt.Errorf("snapshot: manifest record table folds to payload checksum %08x, header has %08x (corrupt)", total, checksum)
	}
	for si, c := range folded {
		if c != shardCRCs[si] {
			return nil, fmt.Errorf("snapshot: manifest record table folds shard %d to %08x, shard table has %08x (corrupt)", si, c, shardCRCs[si])
		}
	}
	return &sealedStore{f: f, lay: lay, recCRCs: recCRCs}, nil
}

// readRecord reads user u's record into rec (RecordFloats long) with
// one ReadAt and checks it against the manifest's record table.
func (s *sealedStore) readRecord(u int, rec []float64) error {
	b := floatBytes(rec)
	if n, err := s.f.ReadAt(b, int64(headerBytes)+int64(u)*int64(len(b))); n < len(b) {
		if err == io.EOF { // the file shrank under us
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("snapshot: user %d: %w", u, err)
	}
	if got := crc32.Checksum(b, crcTable); got != s.recCRCs[u] {
		return fmt.Errorf("snapshot: user %d record checksum %08x != manifest %08x (corrupt)", u, got, s.recCRCs[u])
	}
	return nil
}

// verifyRecords checks every user's record against the manifest's
// record table, one contiguous user range per CPU (userRanges), each
// read through one record-sized buffer. The error names the first
// corrupt user of the lowest failing range.
func (s *sealedStore) verifyRecords() error {
	bounds := userRanges(s.lay.Users, runtime.GOMAXPROCS(0))
	return par.ForEachErr(len(bounds)-1, 0, func(r int) error {
		rec := make([]float64, s.lay.RecordFloats())
		for u := bounds[r]; u < bounds[r+1]; u++ {
			if err := s.readRecord(u, rec); err != nil {
				return err
			}
		}
		return nil
	})
}

// userRanges cuts users into at most procs contiguous non-empty
// ranges, returning their boundaries: range r is
// [bounds[r], bounds[r+1]), bounds[0] = 0 and the last bound is users.
func userRanges(users, procs int) []int {
	k := max(min(procs, users), 1)
	bounds := make([]int, k+1)
	for r := range bounds {
		bounds[r] = users * r / k
	}
	return bounds
}

// Layout returns the payload geometry.
func (s *Snapshot) Layout() Layout { return s.lay }

// checkUser validates a user index against the store's geometry. The
// panic names the index and the full geometry instead of letting an
// out-of-range index surface as an opaque slice-bounds fault deep in
// record arithmetic (a hidsd -user beyond the store's population used
// to die exactly that way).
func (l Layout) checkUser(u int) {
	if err := l.userInRange(u); err != nil {
		panic(err.Error())
	}
}

// userInRange is checkUser's test as an error, for user indices that
// come from outside (ReadUser).
func (l Layout) userInRange(u int) error {
	if u < 0 || u >= l.Users {
		return fmt.Errorf("snapshot: user %d outside store population [0, %d) (weeks=%d binsPerWeek=%d)",
			u, l.Users, l.Weeks, l.BinsPerWeek)
	}
	return nil
}

// checkWeekFeature validates (week, feature) coordinates against the
// store's geometry with the same descriptive-panic contract.
func (l Layout) checkWeekFeature(week, f int) {
	if week < 0 || week >= l.Weeks {
		panic(fmt.Sprintf("snapshot: week %d outside store range [0, %d) (users=%d binsPerWeek=%d)",
			week, l.Weeks, l.Users, l.BinsPerWeek))
	}
	if f < 0 || f >= features.NumFeatures {
		panic(fmt.Sprintf("snapshot: feature %d outside [0, %d)", f, features.NumFeatures))
	}
}

// User returns user u's whole record as a zero-copy float view.
func (s *Snapshot) User(u int) []float64 {
	s.lay.checkUser(u)
	rf := s.lay.RecordFloats()
	return s.payload[u*rf : (u+1)*rf : (u+1)*rf]
}

// Rows returns user u's matrix rows as a zero-copy view of the
// mapping (bin-major, canonical feature order).
func (s *Snapshot) Rows(u int) [][features.NumFeatures]float64 {
	return rowsView(s.User(u), s.lay)
}

// SortedColumn returns user u's sorted (week, feature) column.
func (s *Snapshot) SortedColumn(u, week, f int) []float64 {
	s.lay.checkWeekFeature(week, f)
	rec := s.User(u)
	off := s.lay.SortedOff(week, f)
	return rec[off : off+s.lay.BinsPerWeek : off+s.lay.BinsPerWeek]
}

// DayColumns returns user u's (week, feature) day view: 7 per-day
// sorted slices sharing one contiguous run of the mapping.
func (s *Snapshot) DayColumns(u, week, f int) [][]float64 {
	s.lay.checkWeekFeature(week, f)
	rec := s.User(u)
	off := s.lay.DayOff(week, f)
	bpd := s.lay.BinsPerDay
	days := make([][]float64, 7)
	for d := 0; d < 7; d++ {
		lo := off + d*bpd
		days[d] = rec[lo : lo+bpd : lo+bpd]
	}
	return days
}

// DropUserRange releases the mapped pages holding users [lo, hi)
// from the process's resident set. Streaming evaluators call it after
// finishing a shard so peak RSS tracks one shard's working set instead
// of accumulating the whole population; the data stays valid — a later
// access simply refaults from the file. No-op on heap-backed
// (non-mmap) snapshots, on a closed snapshot, and for empty ranges.
//
// The range is rounded inward to base-page boundaries. Where the
// mapping holds the store in 2 MiB page-table entries (see MergeShards),
// the kernel cannot drop part of one: a drop that covers part of an
// entry unmaps the whole entry, neighbouring shards' records
// included. Those records stay valid — the next access refaults them
// from the page cache — so a concurrent reader of a neighbouring
// shard pays a fault, never reads wrong data.
func (s *Snapshot) DropUserRange(lo, hi int) {
	if !mmapBacked || s.data == nil {
		return
	}
	if lo < 0 {
		lo = 0
	}
	if hi > s.lay.Users {
		hi = s.lay.Users
	}
	if hi <= lo {
		return
	}
	recBytes := s.lay.RecordFloats() * 8
	start := headerBytes + lo*recBytes
	end := headerBytes + hi*recBytes
	page := os.Getpagesize()
	start = (start + page - 1) / page * page // round up
	end = end / page * page                  // round down
	if end <= start {
		return
	}
	dropPages(s.data[start:end])
}

// Close unmaps the snapshot. Every view handed out becomes invalid:
// callers must ensure no goroutine still reads them (the Workspace
// wrapper documents the same rule).
func (s *Snapshot) Close() error {
	if s.unmap == nil {
		return nil
	}
	u := s.unmap
	s.unmap = nil
	s.data, s.payload = nil, nil
	return u()
}
