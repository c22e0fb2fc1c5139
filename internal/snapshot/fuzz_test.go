package snapshot

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"time"
)

// fuzzKey is the key every FuzzSnapshotHeader input is checked
// against; the seed corpus in testdata/fuzz holds headers sealed for
// it.
var fuzzKey = testKey(12, 2, 6*time.Hour)

// FuzzSnapshotHeader feeds arbitrary bytes to the two header parsers:
// checkHeader (a sealed snapshot's) and checkPartHeader (a part's,
// against the user range [lo, hi) its filename would claim). Neither
// may panic, and a header either one accepts re-encodes to the same
// bytes through encodeHeader / encodePartHeader whenever its checksum
// fields fit the 32 bits the encoders write, so the parsers read back
// exactly the fields the writers seal.
func FuzzSnapshotHeader(f *testing.F) {
	k := fuzzKey
	rf := k.Layout().RecordFloats()
	sealed := k.encodeHeader(0xdeadbeef, k.Layout().PayloadFloats())
	part := k.encodePartHeader(3, 9, 6*rf, 0x1234abcd, 0x0badf00d)
	wide := append([]byte(nil), sealed...)
	binary.LittleEndian.PutUint64(wide[8+8*11:], 1<<40|7) // checksum past 32 bits
	for _, seed := range []struct {
		buf    []byte
		lo, hi int
	}{
		{sealed, 0, 0},
		{part, 3, 9},
		{part, 0, 12},
		{wide, 0, 0},
		{append(append([]byte(nil), sealed...), 1, 2, 3), 0, 0}, // trailing payload bytes
		{sealed[:headerBytes-1], 0, 0},                          // truncated
		{part[:partHdrBytes-8], 3, 9},
		{append([]byte("RPWSPRT1"), part[8:]...), 3, 9}, // stale part magic
		{nil, -1, math.MaxInt},
	} {
		f.Add(seed.buf, seed.lo, seed.hi)
	}
	f.Fuzz(func(t *testing.T, buf []byte, lo, hi int) {
		if n, sum, err := k.checkHeader(buf); err == nil && sum <= math.MaxUint32 {
			if got := k.encodeHeader(uint32(sum), n); !bytes.Equal(got, buf[:headerBytes]) {
				t.Fatalf("accepted header re-encodes differently:\n got %x\nwant %x", got, buf[:headerBytes])
			}
		}
		if sum, table, err := k.checkPartHeader(buf, lo, hi); err == nil && sum <= math.MaxUint32 && table <= math.MaxUint32 {
			if got := k.encodePartHeader(lo, hi, (hi-lo)*rf, uint32(sum), uint32(table)); !bytes.Equal(got, buf[:partHdrBytes]) {
				t.Fatalf("accepted part header [%d, %d) re-encodes differently:\n got %x\nwant %x", lo, hi, got, buf[:partHdrBytes])
			}
		}
	})
}
