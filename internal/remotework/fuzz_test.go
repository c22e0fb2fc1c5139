package remotework

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/wire"
)

// FuzzFrame checks the remote frame reader and the six frame payloads
// the way console.FuzzReadMsg checks the console's: no input panics;
// reading a frame allocates no more than its declared length, capped
// at maxFrame; and an accepted payload survives a second trip through
// the codec — byte for byte for the binary fetch and chunk payloads,
// value for value for the JSON build, ready and error payloads. Its
// seed corpus lives in testdata/fuzz/FuzzFrame; `make fuzz` runs it
// for a bounded time.
func FuzzFrame(f *testing.F) {
	frame := func(typ byte, payload any) []byte {
		var buf bytes.Buffer
		if err := wire.Write(&buf, typ, payload, maxFrame); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	chunkFrame := frame(mChunk, chunk{Off: 4096, CRC: 0xdeadbeef, Data: []byte("sealed part bytes")})
	for _, seed := range [][]byte{
		frame(mBuild, buildRequest{Users: 36, Weeks: 1, BinWidthMicros: 6 * 3600e6, Seed: 7, HeavyFraction: 0.1, Lo: 9, Hi: 18, HeartbeatMS: 500}),
		frame(mHeartbeat, heartbeat{}),
		frame(mReady, readyInfo{Size: 387216, CRC: 0x1234abcd}),
		frame(mFetch, fetch{Off: 262144, N: 256 << 10}),
		chunkFrame,
		frame(mErr, errInfo{Retryable: true, Msg: "build [0, 9): disk full"}),
		chunkFrame[:len(chunkFrame)-1],         // truncated body
		{0xff, 0xff, 0xff, 0xff, mChunk},       // over maxFrame
		{0x00, 0x00, 0x00, 0x01, mBuild},       // big-endian length of a 1-byte body: 16 MiB, at the cap
		{0x02, 0x00, 0x00, 0x00, mFetch, 1, 2}, // short fetch
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			typ  byte
			body []byte
			err  error
		)
		got := allocated(func() { typ, body, err = wire.Read(bytes.NewReader(data), maxFrame) })
		if len(data) >= 5 {
			if limit := uint64(min(le.Uint32(data), maxFrame)) + 16<<10; got > limit {
				t.Fatalf("reading a frame allocated %d bytes (limit %d)", got, limit)
			}
		}
		if err != nil {
			return
		}
		switch typ {
		case mHeartbeat:
			// The pool ignores a heartbeat's payload; its own encoding
			// is empty.
			if enc := frameBody(t, typ, heartbeat{}); len(enc) != 0 {
				t.Fatalf("heartbeat encodes to %d bytes", len(enc))
			}
		case mFetch:
			var fe fetch
			if wire.Decode(body, &fe) == nil && !bytes.Equal(frameBody(t, typ, fe), body) {
				t.Fatalf("fetch %+v does not re-encode to its body", fe)
			}
		case mChunk:
			c, err := decodeChunk(body)
			if err != nil {
				return
			}
			if len(c.Data) > 0 && &c.Data[0] != &body[spanHeader] {
				t.Fatal("chunk data does not alias the frame body")
			}
			if !bytes.Equal(frameBody(t, typ, c), body) {
				t.Fatalf("chunk at %d does not re-encode to its body", c.Off)
			}
		case mBuild:
			jsonRoundTrip(t, typ, body, new(buildRequest), new(buildRequest))
		case mReady:
			jsonRoundTrip(t, typ, body, new(readyInfo), new(readyInfo))
		case mErr:
			if jsonRoundTrip(t, typ, body, new(errInfo), new(errInfo)) {
				_ = decodeErr(body)
			}
		}
	})
}

// frameBody frames v as typ and reads the frame back, returning its
// body.
func frameBody(t *testing.T, typ byte, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := wire.Write(&buf, typ, v, maxFrame); err != nil {
		t.Fatalf("re-encoding an accepted frame of type %d: %v", typ, err)
	}
	typ2, body, err := wire.Read(&buf, maxFrame)
	if err != nil || typ2 != typ {
		t.Fatalf("re-read type %d as %d: %v", typ, typ2, err)
	}
	return body
}

// jsonRoundTrip decodes body into v and, when it is accepted, checks
// that v re-framed decodes into v2 as the same value. It reports
// whether body was accepted.
func jsonRoundTrip(t *testing.T, typ byte, body []byte, v, v2 any) bool {
	t.Helper()
	if wire.Decode(body, v) != nil {
		return false
	}
	if err := wire.Decode(frameBody(t, typ, v), v2); err != nil || !reflect.DeepEqual(v, v2) {
		t.Fatalf("type %d round trip: %+v -> %+v (err %v)", typ, v, v2, err)
	}
	return true
}

// allocated returns the heap bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
