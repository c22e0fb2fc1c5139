package snapshot

import (
	"bytes"
	"os"
	"testing"
	"time"
)

// sealOnePart seals users [lo, hi) of a deterministic payload as a
// part under dir and returns the part's on-disk bytes.
func sealOnePart(t *testing.T, dir string, key Key, lo, hi int) []byte {
	t.Helper()
	payload := testPayload(key)
	sealParts(t, dir, key, payload, []int{lo, hi})
	raw, err := os.ReadFile(key.PartPath(dir, lo, hi))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestChunkTransferRoundTrip streams a sealed part through
// PartServer → PartReceiver in small chunks and pins the received
// file byte-identical to the source, with VerifyPart accepting it.
func TestChunkTransferRoundTrip(t *testing.T) {
	key := testKey(8, 1, 6*time.Hour)
	src, dst := t.TempDir(), t.TempDir()
	want := sealOnePart(t, src, key, 0, key.Users)

	srv, err := OpenPartServer(src, key, 0, key.Users)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Size() != int64(len(want)) {
		t.Fatalf("server size %d, part is %d bytes", srv.Size(), len(want))
	}
	rcv, err := NewPartReceiver(dst, key, 0, key.Users)
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Abort()
	if err := rcv.Expect(srv.Size(), srv.CRC()); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 777)
	for rcv.Offset() < srv.Size() {
		data, crc, err := srv.ChunkAt(rcv.Offset(), 777, buf[:cap(buf)])
		if err != nil {
			t.Fatal(err)
		}
		if err := rcv.WriteChunk(rcv.Offset(), data, crc); err != nil {
			t.Fatal(err)
		}
	}
	if err := rcv.Commit(); err != nil {
		t.Fatal(err)
	}
	if rcv.restreamed != 0 {
		t.Fatalf("clean transfer restreamed %d bytes", rcv.restreamed)
	}
	got, err := os.ReadFile(key.PartPath(dst, 0, key.Users))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("received part bytes differ from source")
	}
	if _, err := VerifyPart(dst, key, 0, key.Users); err != nil {
		t.Fatalf("received part failed verification: %v", err)
	}
}

// TestChunkReceiverResume pins the resume contract: a transfer broken
// mid-stream resumes at Offset() — even against a second server over
// a byte-identical copy of the part (the host-switch case) — and the
// tail fetched after the break is strictly smaller than the part.
func TestChunkReceiverResume(t *testing.T) {
	key := testKey(8, 1, 6*time.Hour)
	srcA, srcB, dst := t.TempDir(), t.TempDir(), t.TempDir()
	want := sealOnePart(t, srcA, key, 0, key.Users)
	if got := sealOnePart(t, srcB, key, 0, key.Users); !bytes.Equal(got, want) {
		t.Fatal("deterministic seal produced differing parts")
	}

	rcv, err := NewPartReceiver(dst, key, 0, key.Users)
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Abort()

	// Session 1 against host A dies after ~1/3 of the part.
	srvA, err := OpenPartServer(srcA, key, 0, key.Users)
	if err != nil {
		t.Fatal(err)
	}
	if err := rcv.Expect(srvA.Size(), srvA.CRC()); err != nil {
		t.Fatal(err)
	}
	for rcv.Offset() < srvA.Size()/3 {
		data, crc, err := srvA.ChunkAt(rcv.Offset(), 512, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := rcv.WriteChunk(rcv.Offset(), data, crc); err != nil {
			t.Fatal(err)
		}
	}
	srvA.Close()
	resumeAt := rcv.Offset()
	if resumeAt == 0 || resumeAt >= int64(len(want)) {
		t.Fatalf("bad break point %d of %d", resumeAt, len(want))
	}

	// Session 2 against host B re-declares the same end state and
	// fetches only the tail.
	srvB, err := OpenPartServer(srcB, key, 0, key.Users)
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()
	if err := rcv.Expect(srvB.Size(), srvB.CRC()); err != nil {
		t.Fatal(err)
	}
	if rcv.Offset() != resumeAt {
		t.Fatalf("re-declaring the same transfer moved the offset: %d → %d", resumeAt, rcv.Offset())
	}
	var tail int64
	for rcv.Offset() < srvB.Size() {
		data, crc, err := srvB.ChunkAt(rcv.Offset(), 512, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := rcv.WriteChunk(rcv.Offset(), data, crc); err != nil {
			t.Fatal(err)
		}
		tail += int64(len(data))
	}
	if tail >= int64(len(want)) {
		t.Fatalf("resume re-streamed %d bytes, the whole %d-byte part", tail, len(want))
	}
	if err := rcv.Commit(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(key.PartPath(dst, 0, key.Users))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed part bytes differ from source")
	}
}

// TestChunkReceiverRejects pins the refusal surface: corrupt chunks,
// gapped offsets, oversized chunks, commits before completion, and a
// changed Expect discarding partial data.
func TestChunkReceiverRejects(t *testing.T) {
	key := testKey(8, 1, 6*time.Hour)
	src, dst := t.TempDir(), t.TempDir()
	sealOnePart(t, src, key, 0, key.Users)
	srv, err := OpenPartServer(src, key, 0, key.Users)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rcv, err := NewPartReceiver(dst, key, 0, key.Users)
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Abort()

	data, crc, err := srv.ChunkAt(0, 1024, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := rcv.WriteChunk(0, data, crc); err == nil {
		t.Fatal("WriteChunk before Expect succeeded")
	}
	if err := rcv.Expect(srv.Size(), srv.CRC()); err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)/2] ^= 0x40
	if err := rcv.WriteChunk(0, flipped, crc); err == nil {
		t.Fatal("corrupt chunk accepted")
	}
	if err := rcv.WriteChunk(int64(len(data))+8, data, crc); err == nil {
		t.Fatal("gapped chunk accepted")
	}
	if err := rcv.Commit(); err == nil {
		t.Fatal("commit before completion succeeded")
	}
	if err := rcv.WriteChunk(0, data, crc); err != nil {
		t.Fatal(err)
	}
	// Re-delivering the same chunk is harmless and counted restreamed.
	if err := rcv.WriteChunk(0, data, crc); err != nil {
		t.Fatal(err)
	}
	if rcv.restreamed != int64(len(data)) {
		t.Fatalf("restreamed = %d, want %d", rcv.restreamed, len(data))
	}
	// A different end state discards the partial transfer.
	if err := rcv.Expect(srv.Size(), srv.CRC()^1); err != nil {
		t.Fatal(err)
	}
	if rcv.Offset() != 0 {
		t.Fatalf("changed Expect kept %d bytes", rcv.Offset())
	}
}

// TestChunkReceiverRejectsForeignSize pins that the declared size is
// checked against the part's sealed size before any fetch: a peer
// cannot make the receiver expect, and keep fetching toward, a size
// the key and range do not produce.
func TestChunkReceiverRejectsForeignSize(t *testing.T) {
	key := testKey(8, 1, 6*time.Hour)
	src := t.TempDir()
	sealOnePart(t, src, key, 0, key.Users)
	srv, err := OpenPartServer(src, key, 0, key.Users)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rcv, err := NewPartReceiver(t.TempDir(), key, 0, key.Users)
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Abort()
	for _, size := range []int64{srv.Size() * 1000, srv.Size() + 1, srv.Size() - 1, 0, -1} {
		if err := rcv.Expect(size, srv.CRC()); err == nil {
			t.Fatalf("Expect(%d) accepted for a %d-byte part", size, srv.Size())
		}
	}
	// The true size is accepted, and re-declaring it is a no-op.
	for range 2 {
		if err := rcv.Expect(srv.Size(), srv.CRC()); err != nil {
			t.Fatal(err)
		}
	}
}
