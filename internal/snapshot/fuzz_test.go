package snapshot

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/features"
	"repro/internal/stats"
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

// verifyFuzzKey is the key every FuzzVerifyPart input is verified
// against: two users, one week of 12-hour bins, so a record is 252
// floats (14-window week columns, 2-window days) and a whole part is
// about 4 KiB.
var verifyFuzzKey = testKey(2, 1, 12*time.Hour)

// resealPart recomputes the checksums of a part file image of the
// right size in place — every record CRC, the record table and the
// header's payload and table CRC fields — so an input whose payload
// was mutated still passes the checksum stages and reaches the
// sorted-section check. Other header fields are left as they are.
func resealPart(b []byte, key Key, lo, hi int) {
	if int64(len(b)) != key.partSize(lo, hi) {
		return
	}
	recBytes := key.Layout().RecordFloats() * 8
	payload := b[partHdrBytes : partHdrBytes+(hi-lo)*recBytes]
	table := b[partHdrBytes+len(payload):]
	for i := 0; i < hi-lo; i++ {
		binary.LittleEndian.PutUint32(table[4*i:], crc32.Checksum(payload[i*recBytes:(i+1)*recBytes], crcTable))
	}
	binary.LittleEndian.PutUint64(b[8+8*14:], uint64(crc32.Checksum(payload, crcTable)))
	binary.LittleEndian.PutUint64(b[8+8*15:], uint64(crc32.Checksum(table, crcTable)))
}

// FuzzVerifyPart feeds VerifyPart, the gate every part passes before
// a build adopts or merges it, with mutated images of a small sealed
// part, re-sealed (reseal) so the mutation reaches the payload checks
// or left as mutated. It must not panic, must allocate less than the
// part's declared size plus a fixed 64 KiB, and must either refuse
// the part or accept one whose every record checksum matches and
// whose every sorted week column and day view is sorted and NaN-free.
func FuzzVerifyPart(f *testing.F) {
	key := verifyFuzzKey
	lay := key.Layout()
	rf := lay.RecordFloats()
	const lo, hi = 0, 2
	image := func(mutate func(payload []float64)) []byte {
		payload := testPayload(key)
		if mutate != nil {
			mutate(payload)
		}
		dir := f.TempDir()
		sealParts(f, dir, key, payload, []int{lo, hi})
		b, err := os.ReadFile(key.PartPath(dir, lo, hi))
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	sound := image(nil)
	f.Add(sound, false)
	f.Add(image(func(p []float64) { // a week column out of order
		col := p[rf+lay.SortedOff(0, 3):][:lay.BinsPerWeek]
		col[2], col[9] = col[9], col[2]
	}), false)
	f.Add(image(func(p []float64) { p[lay.DayOff(0, 5)+5] = math.NaN() }), false)
	flipped := append([]byte(nil), sound...)
	flipped[partHdrBytes+8*(lay.DayOff(0, 1)+1)+7] ^= 0x80 // a day's last sample turned negative
	f.Add(flipped, true)
	f.Add(flipped, false)
	f.Add(sound[:len(sound)-3], true)
	f.Add([]byte(partMagic), false)

	budget := uint64(key.partSize(lo, hi)) + 64<<10
	f.Fuzz(func(t *testing.T, b []byte, reseal bool) {
		b = append([]byte(nil), b...)
		if reseal {
			resealPart(b, key, lo, hi)
		}
		dir := t.TempDir()
		if err := os.WriteFile(key.PartPath(dir, lo, hi), b, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := VerifyPart(dir, key, lo, hi)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= budget {
			t.Fatalf("VerifyPart allocated %d bytes for a %d-byte part", got, key.partSize(lo, hi))
		}
		if err != nil {
			return
		}
		payload := b[partHdrBytes : partHdrBytes+(hi-lo)*rf*8]
		table := b[partHdrBytes+len(payload):]
		for u := 0; u < hi-lo; u++ {
			rec := payload[u*rf*8 : (u+1)*rf*8]
			if crc32.Checksum(rec, crcTable) != binary.LittleEndian.Uint32(table[4*u:]) {
				t.Fatalf("accepted a part whose user %d record CRC does not match", u)
			}
			vals := make([]float64, rf)
			for i := range vals {
				vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(rec[8*i:]))
			}
			for week := 0; week < lay.Weeks; week++ {
				for ft := 0; ft < features.NumFeatures; ft++ {
					off := lay.SortedOff(week, ft)
					if i := stats.UnsortedAt(vals[off : off+lay.BinsPerWeek]); i >= 0 {
						t.Fatalf("accepted user %d week %d feature %d: sorted column bad at %d", u, week, ft, i)
					}
					for d := 0; d < 7; d++ {
						off := lay.DayOff(week, ft) + d*lay.BinsPerDay
						if i := stats.UnsortedAt(vals[off : off+lay.BinsPerDay]); i >= 0 {
							t.Fatalf("accepted user %d week %d feature %d day %d: day view bad at %d", u, week, ft, d, i)
						}
					}
				}
			}
		}
	})
}

// manifestFuzzKey is the key every FuzzManifest input is decoded
// against: 260 users, so the shard table holds two full shards and a
// ragged one.
var manifestFuzzKey = testKey(260, 1, 12*time.Hour)

// FuzzManifest feeds the manifest reader's decoder (readManifest is
// os.ReadFile plus decodeManifest) with mutated manifest images,
// optionally re-sealed (resealManifest) so a mutation reaches the
// checks behind the self-CRC. It must not panic, must allocate no
// more than the input's length (plus 1 KiB for an error message), and
// a manifest it accepts must re-encode byte for byte through
// encodeManifest.
func FuzzManifest(f *testing.F) {
	key := manifestFuzzKey
	rec := make([]uint32, key.Users)
	for u := range rec {
		rec[u] = uint32(u) * 0x9e3779b9
	}
	shards, _ := foldRecordCRCs(rec, int64(key.Layout().RecordFloats())*8)
	sound := encodeManifest(key, shards, rec)
	f.Add(sound, false)
	f.Add(sound[:len(sound)-4], true)                     // record table one entry short
	f.Add(sound[:manifestHdrBytes+4*len(shards)+4], true) // no record table
	noFlag := append([]byte(nil), sound...)
	noFlag[8+8*12] = 0
	f.Add(noFlag, true)
	f.Add([]byte(manifestMagic), false)

	f.Fuzz(func(t *testing.T, b []byte, reseal bool) {
		b = append([]byte(nil), b...)
		if reseal && len(b) >= 4 {
			resealManifest(b)
		}
		// The decoder's allocation is the same on every call, while the
		// fuzzing engine's own goroutines allocate at random: the
		// least of three measurements is the decoder's.
		var (
			shardCRCs, recCRCs []uint32
			err                error
			alloc              uint64 = math.MaxUint64
		)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			shardCRCs, recCRCs, err = decodeManifest(b, key)
			runtime.ReadMemStats(&after)
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		if alloc > uint64(len(b))+1<<10 {
			t.Fatalf("decodeManifest allocated %d bytes for a %d-byte manifest", alloc, len(b))
		}
		if err != nil {
			return
		}
		if got := encodeManifest(key, shardCRCs, recCRCs); !bytes.Equal(got, b) {
			t.Fatalf("accepted manifest re-encodes differently:\n got %x\nwant %x", got, b)
		}
	})
}
