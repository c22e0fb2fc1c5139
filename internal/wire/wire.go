// Package wire is the one frame codec and retry schedule shared by
// the console protocol and the remote build transport. A frame is a
// u32 little-endian payload length, a type byte and the payload,
// written with one Write so a failing transport delivers a strict
// prefix of the frame stream, never a header without its body. Each
// protocol passes its own cap on the payload length.
package wire

import (
	"encoding"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"time"

	"repro/internal/xrand"
)

const headerLen = 5 // u32 length, type byte

// ErrUnsendable marks a payload Write refused before writing a byte:
// it did not marshal, or it exceeds the cap. The sender is at fault,
// not the connection, which stays usable.
var ErrUnsendable = errors.New("wire: payload not sendable")

// Write frames payload as type typ in a single Write: appended into the
// frame when it is an encoding.BinaryAppender, JSON otherwise. A
// payload that does not marshal or is longer than max is refused with
// ErrUnsendable before anything is written.
func Write(w io.Writer, typ byte, payload any, max int) error {
	var frame []byte
	var err error
	if p, ok := payload.(encoding.BinaryAppender); ok {
		frame, err = p.AppendBinary(make([]byte, headerLen))
	} else {
		var body []byte
		if body, err = json.Marshal(payload); err == nil {
			frame = append(make([]byte, headerLen, headerLen+len(body)), body...)
		}
	}
	if err != nil {
		return fmt.Errorf("%w: marshaling: %w", ErrUnsendable, err)
	}
	n := len(frame) - headerLen
	if n > max {
		return fmt.Errorf("%w: payload of %d bytes exceeds the %d-byte cap", ErrUnsendable, n, max)
	}
	binary.LittleEndian.PutUint32(frame, uint32(n))
	frame[4] = typ
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("wire: writing frame: %w", err)
	}
	return nil
}

// Read reads one frame's type and payload. A declared length over max
// is refused before the body is allocated. A stream that ends cleanly
// before the frame returns io.EOF unwrapped, for shutdown paths.
func Read(r io.Reader, max int) (byte, []byte, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if int64(n) > int64(max) {
		return 0, nil, fmt.Errorf("wire: frame of %d bytes exceeds the %d-byte cap", n, max)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("wire: reading %d-byte body: %w", n, err)
	}
	return hdr[4], body, nil
}

// Decode unmarshals a payload into v: binary when v implements
// encoding.BinaryUnmarshaler, JSON otherwise.
func Decode(body []byte, v any) error {
	if u, ok := v.(encoding.BinaryUnmarshaler); ok {
		return u.UnmarshalBinary(body)
	}
	return json.Unmarshal(body, v)
}

// Backoff is the retry schedule: retry n waits d = min(Max,
// Base·2^(n−1)) scaled by seeded jitter in [0.5, 1), so peers that
// failed together do not retry in lockstep. Callers apply defaults.
type Backoff struct {
	Base time.Duration
	Max  time.Duration
}

// Delay returns the wait before retry n ≥ 1, drawing once from rng.
// It never overflows, however large n grows.
func (b Backoff) Delay(n int, rng *xrand.Source) time.Duration {
	// Base<<s ≤ Max exactly when Base ≤ Max>>s, so the shift only runs
	// when it cannot overflow.
	s := min(max(n-1, 0), 63)
	d := b.Max
	if b.Base <= b.Max>>s {
		d = b.Base << s
	}
	if d <= 0 {
		return 0
	}
	// d/2 plus a uniform draw from [0, d−d/2): d·[0.5, 1) in exact
	// integers, which float rounding could push onto d itself.
	jitter, _ := bits.Mul64(rng.Uint64(), uint64(d-d/2))
	return d/2 + time.Duration(jitter)
}
