package snapshot

// The manifest is the integrity sidecar of a sealed snapshot: a small
// "<name>.snap.manifest" file holding a CRC-32C for every user's
// record and for every fixed-size shard of ManifestShardUsers
// records. The record table is the one payload check every reader
// runs (see openSealed): Open checks every record against it, ReadUser
// only the record it returns, and both first fold the table into the
// shard table and the header checksum, so every checksum the store
// carries is compared on every read.
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
//	              (= 1: the per-record CRC table is present)
//	then        ceil(users/shardUsers) × uint32 shard CRC-32Cs
//	then        users × uint32 record CRC-32Cs
//	then        uint32 self-CRC-32C of everything above
//
// The shard granularity is a package constant, deliberately
// independent of how the snapshot was built: every build strategy
// emits a byte-identical manifest for the same key.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
)

const (
	manifestMagic  = "RPWSMAN1"
	manifestSuffix = ".manifest"

	manifestFields   = 13
	manifestHdrBytes = 8 + manifestFields*8

	// manifestFlagRecordCRCs marks a manifest carrying the per-record
	// CRC table (4 bytes/user). Every manifest carries it; readers
	// refuse one without it.
	manifestFlagRecordCRCs = 1 << 0
)

// ManifestShardUsers is the granularity of the manifest's shard
// table: users per checksummed shard.
const ManifestShardUsers = 128

// ManifestShards returns the shard count for a population.
func ManifestShards(users int) int {
	return (users + ManifestShardUsers - 1) / ManifestShardUsers
}

// ManifestPath returns the manifest sidecar path of the key under dir.
func (k Key) ManifestPath(dir string) string { return k.Path(dir) + manifestSuffix }

func encodeManifest(key Key, shardCRCs, recCRCs []uint32) []byte {
	lay := key.Layout()
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
	put(manifestFlagRecordCRCs)
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

// readManifest loads and fully validates the manifest at path
// (decodeManifest). A missing file is fs.ErrNotExist.
func readManifest(path string, key Key) (shardCRCs, recCRCs []uint32, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return decodeManifest(buf, key)
}

// decodeManifest validates a manifest image against key: magic,
// self-CRC, every key field, shard granularity, the record-table flag
// and the exact length. It returns the shard and record CRC tables,
// and allocates nothing before the length has been checked.
func decodeManifest(buf []byte, key Key) (shardCRCs, recCRCs []uint32, err error) {
	if len(buf) < manifestHdrBytes+4 || string(buf[:8]) != manifestMagic {
		return nil, nil, fmt.Errorf("snapshot: bad manifest magic")
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
		{"flags (record table)", field(12), manifestFlagRecordCRCs},
	}
	for _, c := range checks {
		if c.got != c.want {
			return nil, nil, fmt.Errorf("snapshot: manifest %s mismatch (file %d, want %d)", c.name, c.got, c.want)
		}
	}
	nShards := ManifestShards(key.Users)
	if want := manifestHdrBytes + 4*nShards + 4*key.Users + 4; len(buf) != want {
		return nil, nil, fmt.Errorf("snapshot: manifest is %d bytes, want %d (truncated or foreign)", len(buf), want)
	}
	tables := make([]uint32, nShards+key.Users)
	for i := range tables {
		tables[i] = binary.LittleEndian.Uint32(buf[manifestHdrBytes+4*i:])
	}
	return tables[:nShards:nShards], tables[nShards:], nil
}
