package snapshot

// The manifest is the integrity sidecar of a sealed snapshot: a small
// "<name>.snap.manifest" file describing the payload as fixed-size
// shards of ManifestShardUsers records, each with its own CRC-32C,
// plus an optional per-record CRC table. It exists so a reader can
// validate and fetch ONE user's record in O(record) — OpenUser checks
// the manifest's self-CRC, the snapshot header, and the containing
// shard's checksum, never touching any other shard's payload bytes —
// and so independently built shards can be verified piecemeal.
//
// # Manifest layout
//
// All integers little-endian; the whole file is self-checksummed:
//
//	offset 0    magic "RPWSMAN1" (8 bytes)
//	offset 8    header: 13 × uint64
//	              fields 0–9: identical to the snapshot header
//	              (headerVersion … binsPerWeek), then payloadFloats,
//	              shardUsers (= ManifestShardUsers), flags
//	              (bit 0: per-record CRC table present)
//	then        ceil(users/shardUsers) × uint32 shard CRC-32Cs
//	then        users × uint32 record CRC-32Cs (iff flag bit 0)
//	then        uint32 self-CRC-32C of everything above
//
// The shard granularity is a package constant, deliberately
// independent of how the snapshot was built (single writer, in-process
// pool, merged multi-process parts): every build strategy emits a
// byte-identical manifest for the same key.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"repro/internal/features"
)

const (
	manifestMagic  = "RPWSMAN1"
	manifestSuffix = ".manifest"

	manifestFields   = 13
	manifestHdrBytes = 8 + manifestFields*8

	// manifestFlagRecordCRCs marks a manifest carrying the per-record
	// CRC table (4 bytes/user); MergeShards always emits it.
	manifestFlagRecordCRCs = 1 << 0
)

// ManifestShardUsers is the manifest's integrity granularity: users
// per checksummed shard. 128 keeps the validated span of an OpenUser
// read ~156× smaller than the full payload at 20k users while the
// manifest itself stays a few KB.
const ManifestShardUsers = 128

// ManifestShards returns the shard count for a population.
func ManifestShards(users int) int {
	return (users + ManifestShardUsers - 1) / ManifestShardUsers
}

// ManifestPath returns the manifest sidecar path of the key under dir.
func (k Key) ManifestPath(dir string) string { return k.Path(dir) + manifestSuffix }

func encodeManifest(key Key, shardCRCs, recCRCs []uint32) []byte {
	lay := key.Layout()
	var flags uint64
	if len(recCRCs) > 0 {
		flags |= manifestFlagRecordCRCs
	}
	buf := make([]byte, 0, manifestHdrBytes+4*len(shardCRCs)+4*len(recCRCs)+4)
	buf = append(buf, manifestMagic...)
	var scratch [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		buf = append(buf, scratch[:]...)
	}
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		buf = append(buf, scratch[:4]...)
	}
	put(headerVersion)
	put(EngineVersion)
	put(key.Seed)
	put(uint64(key.Users))
	put(uint64(key.Weeks))
	put(uint64(key.BinWidth.Microseconds()))
	put(uint64(key.StartMicros))
	put(math.Float64bits(key.HeavyFraction))
	put(math.Float64bits(key.WeeklyTrend))
	put(uint64(key.BinsPerWeek()))
	put(uint64(lay.PayloadFloats()))
	put(ManifestShardUsers)
	put(flags)
	for _, c := range shardCRCs {
		put32(c)
	}
	for _, c := range recCRCs {
		put32(c)
	}
	put32(crc32.Checksum(buf, crcTable))
	return buf
}

// writeManifest seals a manifest next to its snapshot with the same
// temp-file + atomic-rename discipline the snapshot itself uses (the
// temp name keeps the "ws-…tmp…" shape sweepStaleTemps recognizes).
func writeManifest(path string, key Key, shardCRCs, recCRCs []uint32) error {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(encodeManifest(key, shardCRCs, recCRCs)); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// readManifest loads and fully validates a manifest: magic, self-CRC,
// every key field, shard granularity and table sizes. It returns the
// shard CRC table and the per-record CRC table (nil when absent).
func readManifest(path string, key Key) (shardCRCs, recCRCs []uint32, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err // fs.ErrNotExist on a manifest-less store
	}
	if len(buf) < manifestHdrBytes+4 || string(buf[:8]) != manifestMagic {
		return nil, nil, fmt.Errorf("snapshot: %s: bad manifest magic", path)
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if got, want := crc32.Checksum(body, crcTable), binary.LittleEndian.Uint32(tail); got != want {
		return nil, nil, fmt.Errorf("snapshot: manifest self-checksum %08x != trailer %08x (corrupt)", got, want)
	}
	field := func(i int) uint64 { return binary.LittleEndian.Uint64(buf[8+8*i:]) }
	lay := key.Layout()
	checks := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"header version", field(0), headerVersion},
		{"engine version", field(1), EngineVersion},
		{"seed", field(2), key.Seed},
		{"users", field(3), uint64(key.Users)},
		{"weeks", field(4), uint64(key.Weeks)},
		{"bin width", field(5), uint64(key.BinWidth.Microseconds())},
		{"start micros", field(6), uint64(key.StartMicros)},
		{"heavy fraction", field(7), math.Float64bits(key.HeavyFraction)},
		{"weekly trend", field(8), math.Float64bits(key.WeeklyTrend)},
		{"bins per week", field(9), uint64(key.BinsPerWeek())},
		{"payload floats", field(10), uint64(lay.PayloadFloats())},
		{"shard granularity", field(11), ManifestShardUsers},
	}
	for _, c := range checks {
		if c.got != c.want {
			return nil, nil, fmt.Errorf("snapshot: manifest %s mismatch (file %d, want %d)", c.name, c.got, c.want)
		}
	}
	flags := field(12)
	nShards := ManifestShards(key.Users)
	wantLen := manifestHdrBytes + 4*nShards + 4
	if flags&manifestFlagRecordCRCs != 0 {
		wantLen += 4 * key.Users
	}
	if len(buf) != wantLen {
		return nil, nil, fmt.Errorf("snapshot: manifest is %d bytes, want %d (truncated or foreign)", len(buf), wantLen)
	}
	tables := buf[manifestHdrBytes : len(buf)-4]
	shardCRCs = make([]uint32, nShards)
	for i := range shardCRCs {
		shardCRCs[i] = binary.LittleEndian.Uint32(tables[4*i:])
	}
	if flags&manifestFlagRecordCRCs != 0 {
		rec := tables[4*nShards:]
		recCRCs = make([]uint32, key.Users)
		for i := range recCRCs {
			recCRCs[i] = binary.LittleEndian.Uint32(rec[4*i:])
		}
	}
	return shardCRCs, recCRCs, nil
}

// UserRecord is one user's record fetched by OpenUser: an owned copy,
// valid indefinitely, with the same view accessors as Snapshot minus
// the mapping (nothing to Close).
type UserRecord struct {
	lay Layout
	rec []float64
}

// Rows returns the matrix rows (bin-major, canonical feature order).
func (r *UserRecord) Rows() [][features.NumFeatures]float64 {
	return rowsView(r.rec, r.lay)
}

// OpenUser reads one user's record in O(record work, one-shard I/O):
// it validates the manifest (self-CRC + every key field), the snapshot
// header and file size, then streams ONLY the manifest shard
// containing u — verifying that shard's CRC-32C and, when the manifest
// carries the per-record table, the record's own CRC — without mapping
// the file or touching any other shard's payload bytes. A store
// without a manifest (pre-manifest builds) returns an error; callers
// fall back to the fully validated Open.
//
// Unlike the Snapshot accessors, which panic on programmer-error
// indices into an already-opened store, OpenUser is the front door for
// externally supplied user IDs (hidsd -host), so an out-of-range u is
// an error naming the index and the store's geometry.
func OpenUser(dir string, key Key, u int) (*UserRecord, error) {
	if err := key.validate(); err != nil {
		return nil, err
	}
	lay := key.Layout()
	if u < 0 || u >= lay.Users {
		return nil, fmt.Errorf("snapshot: user %d outside store population [0, %d) (weeks=%d binsPerWeek=%d)",
			u, lay.Users, lay.Weeks, lay.BinsPerWeek)
	}
	path := key.Path(dir)
	shardCRCs, recCRCs, err := readManifest(path+manifestSuffix, key)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	rf := lay.RecordFloats()
	wantSize := int64(headerBytes) + int64(lay.PayloadFloats())*8
	if st.Size() != wantSize {
		return nil, fmt.Errorf("snapshot: %s is %d bytes, want %d (truncated or foreign)", path, st.Size(), wantSize)
	}
	var hdr [headerBytes]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	payloadFloats, _, err := key.checkHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	if payloadFloats != lay.PayloadFloats() {
		return nil, fmt.Errorf("snapshot: payload declares %d floats, layout needs %d", payloadFloats, lay.PayloadFloats())
	}
	si := u / ManifestShardUsers
	lo := si * ManifestShardUsers
	hi := lo + ManifestShardUsers
	if hi > lay.Users {
		hi = lay.Users
	}
	if _, err := f.Seek(int64(headerBytes)+int64(lo)*int64(rf)*8, io.SeekStart); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	br := bufio.NewReaderSize(f, 1<<20)
	rec := make([]float64, rf)
	scratch := make([]float64, rf)
	crc := uint32(0)
	for idx := lo; idx < hi; idx++ {
		dst := scratch
		if idx == u {
			dst = rec
		}
		b := floatBytes(dst)
		if _, err := io.ReadFull(br, b); err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		crc = crc32.Update(crc, crcTable, b)
	}
	if crc != shardCRCs[si] {
		return nil, fmt.Errorf("snapshot: shard %d (users [%d, %d)) checksum %08x != manifest %08x (corrupt)",
			si, lo, hi, crc, shardCRCs[si])
	}
	if recCRCs != nil {
		if got := crc32.Checksum(floatBytes(rec), crcTable); got != recCRCs[u] {
			return nil, fmt.Errorf("snapshot: user %d record checksum %08x != manifest %08x (corrupt)", u, got, recCRCs[u])
		}
	}
	return &UserRecord{lay: lay, rec: rec}, nil
}
