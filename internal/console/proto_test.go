package console

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"net"
	"slices"
	"strings"
	"testing"

	"repro/internal/features"
)

// roundTrip frames payload with WriteMsg, reads it back with ReadMsg
// and decodes it into out, checking the frame type on the way.
func roundTrip(t *testing.T, typ MsgType, payload, out any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMsg(&buf, typ, payload); err != nil {
		t.Fatal(err)
	}
	got, body, err := ReadMsg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != typ {
		t.Fatalf("frame type %s, want %s", got, typ)
	}
	if err := decode(got, body, out); err != nil {
		t.Fatal(err)
	}
	return body
}

// TestFrameBytesPinned pins the exact on-wire bytes of one JSON and
// one binary frame. The frame codec is shared with the remote build
// transport; the console's bytes must not move unless ProtoVersion
// does.
func TestFrameBytesPinned(t *testing.T) {
	for _, c := range []struct {
		typ     MsgType
		payload any
		want    string
	}{
		{MsgHello, Hello{HostID: 7, Hostname: "host-7", Resume: true, Proto: ProtoVersion},
			"39000000017b22686f73745f6964223a372c22686f73746e616d65223a22686f73742d37222c22726573756d65223a747275652c2270726f746f223a327d"},
		{MsgDistUpload, DistUpload{HostID: 2, Feature: 1, Epoch: 3, Samples: []float64{1, 2.5, -4}},
			"2c000000020200000001000000030000000000000003000000000000000000f03f000000000000044000000000000010c0"},
	} {
		var buf bytes.Buffer
		if err := WriteMsg(&buf, c.typ, c.payload); err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != c.want {
			t.Errorf("%s frame = %s, want %s", c.typ, got, c.want)
		}
	}
}

func TestAlertBatchRoundTrip(t *testing.T) {
	in := AlertBatch{HostID: 5, Seq: math.MaxUint64, Alerts: []Alert{
		{Feature: 0, Bin: math.MaxInt32, Value: 1e300, Threshold: -0.5},
		{Feature: -1, Bin: math.MinInt32, Value: math.Copysign(0, -1), Threshold: 3},
	}}
	var out AlertBatch
	body := roundTrip(t, MsgAlertBatch, in, &out)
	if len(body) != alertBatchHeader+alertSize*len(in.Alerts) {
		t.Fatalf("body is %d bytes, want %d", len(body), alertBatchHeader+alertSize*len(in.Alerts))
	}
	if out.HostID != in.HostID || out.Seq != in.Seq || len(out.Alerts) != len(in.Alerts) {
		t.Fatalf("round trip: %+v", out)
	}
	for i, a := range in.Alerts {
		b := out.Alerts[i]
		if a.Feature != b.Feature || a.Bin != b.Bin ||
			math.Float64bits(a.Value) != math.Float64bits(b.Value) ||
			math.Float64bits(a.Threshold) != math.Float64bits(b.Threshold) {
			t.Fatalf("alert %d: %+v, want %+v", i, b, a)
		}
	}
}

// TestCodecRejectsNonFinite: NaN and ±Inf are refused on encode (as
// JSON refused them) and on decode, for samples and alert values.
func TestCodecRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		up := DistUpload{HostID: 1, Samples: []float64{1, bad}}
		if _, err := up.MarshalBinary(); !errors.Is(err, errNonFinite) {
			t.Errorf("encoding sample %v: err %v", bad, err)
		}
		body, _ := DistUpload{HostID: 1, Samples: []float64{1, 2}}.MarshalBinary()
		le.PutUint64(body[distUploadHeader+sampleSize:], math.Float64bits(bad))
		if err := new(DistUpload).UnmarshalBinary(body); !errors.Is(err, errNonFinite) {
			t.Errorf("decoding sample %v: err %v", bad, err)
		}
		for _, a := range []Alert{{Value: bad}, {Threshold: bad}} {
			ab := AlertBatch{Alerts: []Alert{a}}
			if _, err := ab.MarshalBinary(); !errors.Is(err, errNonFinite) {
				t.Errorf("encoding alert %+v: err %v", a, err)
			}
		}
		for _, off := range []int{8, 16} { // value, threshold
			body, _ := AlertBatch{Alerts: []Alert{{Value: 1, Threshold: 1}}}.MarshalBinary()
			le.PutUint64(body[alertBatchHeader+off:], math.Float64bits(bad))
			if err := new(AlertBatch).UnmarshalBinary(body); !errors.Is(err, errNonFinite) {
				t.Errorf("decoding alert field at %d = %v: err %v", off, bad, err)
			}
		}
		// WriteMsg surfaces the encode error and writes nothing.
		var buf bytes.Buffer
		if err := WriteMsg(&buf, MsgDistUpload, up); err == nil || buf.Len() != 0 {
			t.Errorf("WriteMsg of sample %v: err %v, wrote %d bytes", bad, err, buf.Len())
		}
	}
}

// TestCodecRejectsOutOfRange: integers the layout cannot carry are
// refused on encode, never truncated.
func TestCodecRejectsOutOfRange(t *testing.T) {
	for _, a := range []Alert{
		{Feature: math.MaxInt32 + 1},
		{Feature: math.MinInt32 - 1},
		{Bin: math.MaxInt32 + 1},
		{Bin: math.MinInt32 - 1},
	} {
		if _, err := (AlertBatch{Alerts: []Alert{a}}).MarshalBinary(); err == nil {
			t.Errorf("alert %+v encoded", a)
		}
	}
	for _, f := range []int{-1, math.MaxUint32 + 1} {
		if _, err := (DistUpload{Feature: f, Samples: []float64{1}}).MarshalBinary(); err == nil {
			t.Errorf("feature %d encoded", f)
		}
	}
}

// TestCodecRejectsBadLength: a body shorter than its header, or whose
// declared count disagrees with its length — including counts whose
// byte size overflows 32 bits — is refused.
func TestCodecRejectsBadLength(t *testing.T) {
	up, _ := DistUpload{HostID: 1, Samples: []float64{1, 2, 3}}.MarshalBinary()
	ab, _ := AlertBatch{HostID: 1, Alerts: []Alert{{Value: 1}, {Value: 2}}}.MarshalBinary()
	withCount := func(body []byte, at int, n uint32) []byte {
		out := bytes.Clone(body)
		le.PutUint32(out[at:], n)
		return out
	}
	cases := []struct {
		name string
		body []byte
		into interface{ UnmarshalBinary([]byte) error }
	}{
		{"upload empty", nil, new(DistUpload)},
		{"upload short header", up[:distUploadHeader-1], new(DistUpload)},
		{"upload truncated sample", up[:len(up)-1], new(DistUpload)},
		{"upload missing sample", up[:len(up)-sampleSize], new(DistUpload)},
		{"upload trailing byte", append(bytes.Clone(up), 0), new(DistUpload)},
		{"upload count high", withCount(up, 16, 4), new(DistUpload)},
		{"upload count low", withCount(up, 16, 2), new(DistUpload)},
		// 20 + 8·0x20000000 wraps to 20 in uint32 arithmetic.
		{"upload count wraps u32", withCount(up[:distUploadHeader], 16, 1<<29), new(DistUpload)},
		{"upload count max", withCount(up, 16, math.MaxUint32), new(DistUpload)},
		{"batch empty", nil, new(AlertBatch)},
		{"batch short header", ab[:alertBatchHeader-1], new(AlertBatch)},
		{"batch truncated alert", ab[:len(ab)-1], new(AlertBatch)},
		{"batch trailing byte", append(bytes.Clone(ab), 0), new(AlertBatch)},
		{"batch count high", withCount(ab, 12, 3), new(AlertBatch)},
		{"batch count low", withCount(ab, 12, 1), new(AlertBatch)},
		// 16 + 24·0x0AAAAAAB wraps to 16+8 in uint32 arithmetic.
		{"batch count wraps u32", withCount(ab[:alertBatchHeader+8], 12, 0x0AAAAAAB), new(AlertBatch)},
		{"batch count max", withCount(ab, 12, math.MaxUint32), new(AlertBatch)},
	}
	for _, c := range cases {
		if err := c.into.UnmarshalBinary(c.body); err == nil {
			t.Errorf("%s: %d-byte body accepted", c.name, len(c.body))
		}
	}
}

// TestServerRejectsUnsortedUpload: the console adopts uploads as sorted
// distributions, so an unsorted one is answered with an error frame
// when it arrives.
func TestServerRejectsUnsortedUpload(t *testing.T) {
	_, network := memServer(t, 2)
	conn := rawDial(t, network, 1, false)
	defer conn.Close()
	if err := WriteMsg(conn, MsgDistUpload, DistUpload{HostID: 1, Feature: 0, Samples: []float64{1, 3, 2}}); err != nil {
		t.Fatal(err)
	}
	var pe ProtoError
	if err := decode(MsgError, expectFrame(t, conn, MsgError), &pe); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pe.Message, "not sorted") {
		t.Fatalf("error frame %q does not name the unsorted upload", pe.Message)
	}
}

// TestServerRejectsWrongProto: a hello without the current protocol
// version (an older agent, or none) is answered with an error frame,
// and the agent's handshake fails with the console's reason.
func TestServerRejectsWrongProto(t *testing.T) {
	_, network := memServer(t, 1)
	for _, proto := range []int{0, 1, ProtoVersion + 1} {
		conn, err := network.Dial("console")
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteMsg(conn, MsgHello, Hello{HostID: 1, Proto: proto}); err != nil {
			t.Fatal(err)
		}
		var pe ProtoError
		if err := decode(MsgError, expectFrame(t, conn, MsgError), &pe); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(pe.Message, "protocol version") {
			t.Fatalf("proto %d: error frame %q", proto, pe.Message)
		}
		_ = conn.Close()
	}
	// The current version still gets in.
	conn, err := network.Dial("console")
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAgent(conn, 1, "")
	if err != nil {
		t.Fatalf("current-version agent refused: %v", err)
	}
	_ = a.Close()
}

// TestUploadDistributionSortsACopy: the agent ships the sorted
// distribution and leaves the caller's slice as it was.
func TestUploadDistributionSortsACopy(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	got := make(chan DistUpload, 1)
	go func() {
		defer close(got)
		if _, _, err := ReadMsg(server); err != nil { // hello
			return
		}
		if WriteMsg(server, MsgAck, Ack{}) != nil {
			return
		}
		typ, body, err := ReadMsg(server)
		var up DistUpload
		if err != nil || typ != MsgDistUpload || decode(typ, body, &up) != nil {
			return
		}
		got <- up
		_ = WriteMsg(server, MsgAck, Ack{})
	}()
	a, err := NewAgent(client, 4, "")
	if err != nil {
		t.Fatal(err)
	}
	samples := []float64{3, 1, 2}
	if err := a.UploadDistribution(features.HTTP, samples); err != nil {
		t.Fatal(err)
	}
	up, ok := <-got
	if !ok {
		t.Fatal("scripted console saw no upload")
	}
	if want := []float64{1, 2, 3}; !slices.Equal(up.Samples, want) {
		t.Fatalf("uploaded %v, want %v", up.Samples, want)
	}
	if want := []float64{3, 1, 2}; !slices.Equal(samples, want) {
		t.Fatalf("caller's slice became %v", samples)
	}
	_ = client.Close()
	_ = a.Close()
}
