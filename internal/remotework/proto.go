// Package remotework is the remote build transport: a buildctl.Worker
// that dispatches shard-range builds to worker daemons over a framed,
// length-prefixed protocol and streams the sealed part file back in
// CRC-checked chunks with resume-from-offset on reconnect.
//
// The transport treats loss and slowness as the common case. Every
// RPC carries a deadline; failed sessions retry on the shared
// exponential backoff with seeded jitter (wire.Backoff); a daemon
// heartbeats while its build runs so a hung host is distinguished
// from a slow one and fails fast into the coordinator's hedge path;
// hosts that fail repeatedly are quarantined and re-admitted after a
// probation window; and each host's observed throughput feeds an EWMA
// that the coordinator's re-cuts consume as cost weights.
//
// Trust never moves to the wire: chunks are CRC-checked frame by
// frame, the reassembled part must match the declared whole-file
// checksum before it is sealed (snapshot.PartReceiver), and the
// coordinator still runs snapshot.VerifyPart on every sealed part —
// exactly as it does for local workers.
//
// The protocol runs over anything net.Conn-shaped: real TCP between
// tracegen processes, or netsim's in-memory fault fabric, where
// seeded drops, resets, partitions and crash windows exercise the
// whole stack in-process.
package remotework

import (
	"encoding/binary"
	"fmt"
	"net"
	"slices"
	"time"

	"repro/internal/wire"
)

// Frame types. Every frame is an internal/wire frame (little-endian;
// a pair with a big-endian tracegen fails at its first frame), sent
// with a single Write, so under netsim's fault fabric a frame arrives
// whole or torn at a seeded cut, never interleaved.
const (
	mBuild     = byte(1) // client → daemon: JSON buildRequest
	mHeartbeat = byte(2) // daemon → client: build in flight, empty payload
	mReady     = byte(3) // daemon → client: JSON readyInfo (part sealed)
	mFetch     = byte(4) // client → daemon: fetch, 8B offset | 4B max bytes
	mChunk     = byte(5) // daemon → client: chunk, 8B offset | 4B CRC-32C | data
	mErr       = byte(6) // daemon → client: JSON errInfo
)

// maxFrame bounds a frame payload; a length prefix beyond it means a
// corrupt or foreign stream, not a big frame.
const maxFrame = 16 << 20

// buildRequest asks a daemon to seal users [Lo, Hi) of the population
// the config describes. The config rides fully normalized (defaults
// applied) so every daemon derives the identical snapshot key.
type buildRequest struct {
	Users          int     `json:"users"`
	Weeks          int     `json:"weeks"`
	BinWidthMicros int64   `json:"bin_width_us"`
	Seed           uint64  `json:"seed"`
	StartMicros    int64   `json:"start_us"`
	HeavyFraction  float64 `json:"heavy_fraction"`
	WeeklyTrend    float64 `json:"weekly_trend"`
	Lo             int     `json:"lo"`
	Hi             int     `json:"hi"`
	HeartbeatMS    int64   `json:"heartbeat_ms"`
}

// readyInfo declares the sealed part's transfer end state.
type readyInfo struct {
	Size int64  `json:"size"`
	CRC  uint32 `json:"crc"` // CRC-32C of the whole sealed file
}

// errInfo reports a daemon-side failure. Retryable failures burn one
// session; permanent ones (a config the daemon cannot build) abort
// the whole range via buildctl.Fatal.
type errInfo struct {
	Retryable bool   `json:"retryable"`
	Msg       string `json:"msg"`
}

// heartbeat is the empty mHeartbeat payload.
type heartbeat struct{}

func (heartbeat) AppendBinary(b []byte) ([]byte, error) { return b, nil }

var le = binary.LittleEndian

const spanHeader = 12 // fetch and chunk payloads: u64 offset | u32

// fetch asks for up to N bytes of the sealed part at Off.
type fetch struct {
	Off int64
	N   uint32
}

func (f fetch) AppendBinary(b []byte) ([]byte, error) {
	return le.AppendUint32(le.AppendUint64(slices.Grow(b, spanHeader), uint64(f.Off)), f.N), nil
}

func (f *fetch) UnmarshalBinary(p []byte) error {
	if len(p) != spanHeader {
		return fmt.Errorf("remotework: fetch payload is %d bytes, want %d", len(p), spanHeader)
	}
	*f = fetch{Off: int64(le.Uint64(p)), N: le.Uint32(p[8:])}
	return nil
}

// chunk is Data at Off with its CRC-32C.
type chunk struct {
	Off  int64
	CRC  uint32
	Data []byte
}

// AppendBinary copies the data once, straight into the frame.
func (c chunk) AppendBinary(b []byte) ([]byte, error) {
	b = slices.Grow(b, spanHeader+len(c.Data))
	b = le.AppendUint32(le.AppendUint64(b, uint64(c.Off)), c.CRC)
	return append(b, c.Data...), nil
}

// decodeChunk parses an mChunk payload. Data aliases p, which is why
// this is not an UnmarshalBinary: that contract forbids retaining p.
func decodeChunk(p []byte) (chunk, error) {
	if len(p) < spanHeader {
		return chunk{}, fmt.Errorf("remotework: chunk payload is %d bytes, want >= %d", len(p), spanHeader)
	}
	return chunk{Off: int64(le.Uint64(p)), CRC: le.Uint32(p[8:]), Data: p[spanHeader:]}, nil
}

// writeFrame sends one frame, bounded by deadline when positive.
func writeFrame(c net.Conn, deadline time.Duration, typ byte, payload any) error {
	if deadline > 0 {
		if err := c.SetWriteDeadline(time.Now().Add(deadline)); err != nil {
			return err
		}
		defer c.SetWriteDeadline(time.Time{})
	}
	return wire.Write(c, typ, payload, maxFrame)
}

// readFrame reads one frame, bounded by deadline when positive.
func readFrame(c net.Conn, deadline time.Duration) (typ byte, payload []byte, err error) {
	if deadline > 0 {
		if err := c.SetReadDeadline(time.Now().Add(deadline)); err != nil {
			return 0, nil, err
		}
		defer c.SetReadDeadline(time.Time{})
	}
	return wire.Read(c, maxFrame)
}
