package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/xrand"
)

// schedule is Delay's d computed independently: Base·2^(n−1) in exact
// integer steps, capped at Max.
func schedule(b Backoff, n int) time.Duration {
	d := b.Base
	for i := 1; i < n; i++ {
		if d >= b.Max || d > math.MaxInt64/2 {
			return b.Max
		}
		d *= 2
	}
	return min(d, b.Max)
}

// TestBackoffDelay pins the schedule: every delay lies in [d/2, d),
// d doubles from Base up to Max and stays there, huge n neither
// overflows nor loops, and one seed gives one schedule.
func TestBackoffDelay(t *testing.T) {
	for _, b := range []Backoff{
		{Base: 20 * time.Millisecond, Max: 2 * time.Second}, // coordinator and remote pool defaults
		{Base: 50 * time.Millisecond, Max: 2 * time.Second}, // console agent defaults
		{Base: 200 * time.Microsecond, Max: 2 * time.Millisecond},
		{Base: 3, Max: 7},
		{Base: 1, Max: math.MaxInt64},
		{Base: 5 * time.Second, Max: time.Second}, // Base above Max: capped from the first retry
	} {
		ns := []int{1, 2, 3, 4, 5, 8, 16, 40, 62, 63, 64, 65, 100, 1 << 40, math.MaxInt}
		rng := xrand.New(1)
		for _, n := range ns {
			d := schedule(b, n)
			for range 200 {
				got := b.Delay(n, rng)
				if got < d/2 || got >= d {
					t.Fatalf("%+v: Delay(%d) = %v, want in [%v, %v)", b, n, got, d/2, d)
				}
			}
		}
		if d := schedule(b, 1<<40); d != b.Max {
			t.Fatalf("%+v: d(1<<40) = %v, want the cap %v", b, d, b.Max)
		}
		// One seed, one schedule.
		r1, r2 := xrand.New(9), xrand.New(9)
		for _, n := range ns {
			if a, c := b.Delay(n, r1), b.Delay(n, r2); a != c {
				t.Fatalf("%+v: Delay(%d) = %v and %v from one seed", b, n, a, c)
			}
		}
	}
	// The jitter spreads: a thousand draws of one retry are not all
	// equal, and cover both halves of [d/2, d).
	b := Backoff{Base: time.Second, Max: time.Second}
	rng := xrand.New(3)
	var low, high int
	for range 1000 {
		if b.Delay(1, rng) < 750*time.Millisecond {
			low++
		} else {
			high++
		}
	}
	if low < 400 || high < 400 {
		t.Fatalf("jitter split %d/%d across the two halves of [d/2, d)", low, high)
	}
	// No defaults: a zero Backoff waits for nothing.
	if got := (Backoff{}).Delay(3, rng); got != 0 {
		t.Fatalf("zero Backoff delay = %v, want 0", got)
	}
}

type binPayload []byte

func (p binPayload) AppendBinary(b []byte) ([]byte, error) { return append(b, p...), nil }

func (p *binPayload) UnmarshalBinary(b []byte) error {
	*p = append((*p)[:0], b...)
	return nil
}

// failingWriter refuses every write, as a dead connection does.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, io.ErrClosedPipe }

// countingWriter records every Write call.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestFrame pins the frame layout, the one Write per frame and the
// binary-or-JSON payload rule.
func TestFrame(t *testing.T) {
	for _, c := range []struct {
		payload any
		body    string
	}{
		{binPayload("\x01\x02\x03"), "\x01\x02\x03"},
		{binPayload(nil), ""},
		{map[string]int{"a": 1}, `{"a":1}`},
		{nil, "null"},
	} {
		var w countingWriter
		if err := Write(&w, 9, c.payload, 64); err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 {
			t.Fatalf("%#v: %d writes, want one per frame", c.payload, w.writes)
		}
		want := binary.LittleEndian.AppendUint32(nil, uint32(len(c.body)))
		want = append(append(want, 9), c.body...)
		if !bytes.Equal(w.Bytes(), want) {
			t.Fatalf("%#v: frame %x, want %x", c.payload, w.Bytes(), want)
		}
		typ, body, err := Read(&w.Buffer, 64)
		if err != nil || typ != 9 || string(body) != c.body {
			t.Fatalf("%#v: read back type %d body %q (err %v)", c.payload, typ, body, err)
		}
	}

	var bin binPayload
	if err := Decode([]byte("raw"), &bin); err != nil || string(bin) != "raw" {
		t.Fatalf("binary decode = %q, %v", bin, err)
	}
	var m map[string]int
	if err := Decode([]byte(`{"a":1}`), &m); err != nil || m["a"] != 1 {
		t.Fatalf("JSON decode = %v, %v", m, err)
	}
}

// TestFrameCaps pins both ends of the length cap and the clean-EOF
// rule.
func TestFrameCaps(t *testing.T) {
	var w countingWriter
	if err := Write(&w, 1, binPayload(make([]byte, 17)), 16); !errors.Is(err, ErrUnsendable) {
		t.Fatalf("payload over the cap: err %v, want ErrUnsendable", err)
	}
	if err := Write(&w, 1, math.NaN(), 16); !errors.Is(err, ErrUnsendable) {
		t.Fatalf("payload that does not marshal: err %v, want ErrUnsendable", err)
	}
	if w.writes != 0 {
		t.Fatal("a refused payload reached the writer")
	}
	if err := Write(failingWriter{}, 1, binPayload("x"), 16); err == nil || errors.Is(err, ErrUnsendable) {
		t.Fatalf("failed write: err %v, want a write error that is not ErrUnsendable", err)
	}
	if err := Write(&w, 1, binPayload(make([]byte, 16)), 16); err != nil {
		t.Fatalf("payload at the cap: %v", err)
	}

	// A declared 4 GiB body over a 16-byte cap is refused before the
	// body is allocated.
	huge := []byte{0xff, 0xff, 0xff, 0xff, 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := Read(bytes.NewReader(huge), 16)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("over-cap length accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("refusing an over-cap frame allocated %d bytes", got)
	}

	if _, _, err := Read(bytes.NewReader(nil), 16); err != io.EOF {
		t.Fatalf("empty stream: err %v, want io.EOF itself", err)
	}
	if _, _, err := Read(bytes.NewReader(huge[:3]), 16); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn header: err %v, want io.ErrUnexpectedEOF", err)
	}
	torn := []byte{4, 0, 0, 0, 1, 'a', 'b'}
	if _, _, err := Read(bytes.NewReader(torn), 16); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("torn body: err %v, want io.ErrUnexpectedEOF", err)
	}
}
