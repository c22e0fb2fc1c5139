package snapshot

import (
	"hash/crc32"
	"math/rand"
	"testing"
)

// TestCRC32Combine pins the GF(2) combine — makeCRCShift built for
// len(B), then combine — against hash/crc32 ground truth over random
// buffers of awkward lengths, including empty sides.
func TestCRC32Combine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lens := []int{0, 1, 2, 7, 8, 63, 64, 100, 4096, 12345}
	for _, la := range lens {
		for _, lb := range lens {
			a := make([]byte, la)
			b := make([]byte, lb)
			rng.Read(a)
			rng.Read(b)
			want := crc32.Checksum(append(append([]byte{}, a...), b...), crcTable)
			shift := makeCRCShift(int64(lb))
			got := shift.combine(crc32.Checksum(a, crcTable), crc32.Checksum(b, crcTable))
			if got != want {
				t.Fatalf("combine(len %d, len %d) = %08x, want %08x", la, lb, got, want)
			}
		}
	}
}

// TestCRCShiftFold pins the precomputed fixed-length operator over a
// many-record fold — the exact shape foldRecordCRCs uses to derive
// manifest shard CRCs and the payload CRC from per-record CRCs.
func TestCRCShiftFold(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const recLen = 776 // deliberately not a power of two
	shift := makeCRCShift(recLen)
	var whole []byte
	crc := uint32(0)
	for i := 0; i < 50; i++ {
		rec := make([]byte, recLen)
		rng.Read(rec)
		whole = append(whole, rec...)
		crc = shift.combine(crc, crc32.Checksum(rec, crcTable))
	}
	if want := crc32.Checksum(whole, crcTable); crc != want {
		t.Fatalf("folded CRC %08x != whole-buffer %08x", crc, want)
	}
}

// TestFoldRecordCRCs pins foldRecordCRCs against hash/crc32 over a
// population of three manifest shards, the last one ragged.
func TestFoldRecordCRCs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const recLen = 40
	users := 2*ManifestShardUsers + 5
	payload := make([]byte, users*recLen)
	rng.Read(payload)
	recCRCs := make([]uint32, users)
	for u := range recCRCs {
		recCRCs[u] = crc32.Checksum(payload[u*recLen:(u+1)*recLen], crcTable)
	}
	shards, total := foldRecordCRCs(recCRCs, recLen)
	if want := crc32.Checksum(payload, crcTable); total != want {
		t.Fatalf("payload CRC %08x, want %08x", total, want)
	}
	if len(shards) != 3 {
		t.Fatalf("%d shard CRCs, want 3", len(shards))
	}
	for si, c := range shards {
		lo, hi := si*ManifestShardUsers*recLen, min((si+1)*ManifestShardUsers, users)*recLen
		if want := crc32.Checksum(payload[lo:hi], crcTable); c != want {
			t.Fatalf("shard %d CRC %08x, want %08x", si, c, want)
		}
	}
}
