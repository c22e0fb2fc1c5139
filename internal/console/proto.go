// Package console implements the enterprise HIDS management plane the
// paper assumes (§1, §4): end hosts "are typically configured to
// interact with centralized IT management", ship their traffic
// probability distributions to a central console, receive thresholds
// computed by the enterprise policy, and "batch alerts that are sent
// periodically to IT".
//
// The package provides the wire protocol, the central console server
// (Server) and the end-host agent (Agent). Transport is any
// net.Conn; production use is TCP, tests also drive net.Pipe.
//
// # Wire format
//
// Every message is an internal/wire frame under the MaxFrame cap. The
// two bulk messages have fixed-width little-endian binary payloads
// (MarshalBinary/UnmarshalBinary):
//
//	dist-upload  u32 host | u32 feature | i64 epoch | u32 n | n×f64           (20+8n bytes)
//	alert-batch  u32 host | u64 seq | u32 n | n×{i32 feature, i32 bin,
//	             f64 value, f64 threshold}                                 (16+24n bytes)
//
// They carry the fleet's training distributions and alert reports,
// hundreds of floats per message and thousands of messages per
// configuration round, so they are copied as raw IEEE-754 bits: exact,
// and an order of magnitude cheaper than decimal text. Both reject
// non-finite values and a count the length does not match, on encode
// and on decode. Every other (control) message is JSON, which keeps
// the rare ones debuggable. The hello carries ProtoVersion; the
// console answers any other version with an error frame.
package console

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"

	"repro/internal/features"
	"repro/internal/wire"
)

// MsgType identifies a protocol message.
type MsgType uint8

// Protocol message types.
const (
	// MsgHello is the agent's first message: host identity.
	MsgHello MsgType = iota + 1
	// MsgDistUpload carries one feature's training distribution from
	// an agent to the console.
	MsgDistUpload
	// MsgThresholds carries the console's per-feature thresholds to
	// one agent.
	MsgThresholds
	// MsgAlertBatch carries a batch of alerts from an agent.
	MsgAlertBatch
	// MsgAck acknowledges a message that needs acknowledgment.
	MsgAck
	// MsgError reports a protocol-level failure.
	MsgError
	// MsgPing is a one-way agent keepalive: the console refreshes the
	// host's liveness record and sends nothing back. Being one-way is
	// load-bearing — acknowledged RPCs are serialized per connection,
	// so a ping must never inject an ack into that FIFO stream.
	MsgPing
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgDistUpload:
		return "dist-upload"
	case MsgThresholds:
		return "thresholds"
	case MsgAlertBatch:
		return "alert-batch"
	case MsgAck:
		return "ack"
	case MsgError:
		return "error"
	case MsgPing:
		return "ping"
	default:
		return fmt.Sprintf("msgtype(%d)", uint8(t))
	}
}

// MaxFrame is the largest accepted payload. A full week of 5-minute
// bins is 2016 samples, a 16 KiB dist-upload; 8 MiB leaves two orders
// of magnitude of headroom.
const MaxFrame = 8 << 20

// ProtoVersion is the wire protocol revision. A hello must carry it:
// version 2 made the bulk payloads binary, so a version-1 agent's JSON
// uploads would only fail to decode later, less clearly.
const ProtoVersion = 2

// Hello is the agent's introduction.
type Hello struct {
	// HostID is the end-host identifier (stable across reconnects).
	HostID uint32 `json:"host_id"`
	// Hostname is informational.
	Hostname string `json:"hostname,omitempty"`
	// Resume marks a self-healing redial by an agent incarnation that
	// already held a connection: its alert-batch sequence numbers
	// continue the old stream, so the console keeps the host's dedup
	// watermark. A fresh hello (Resume false) restarts the stream and
	// resets the watermark — a restarted agent process begins at 1.
	Resume bool `json:"resume,omitempty"`
	// Proto is the sender's protocol revision; it must equal
	// ProtoVersion.
	Proto int `json:"proto"`
}

// DistUpload is one feature's training distribution. Samples are the
// host's per-window feature values in ascending order (the agent sorts
// them); the console adopts them as the host's empirical distribution
// without copying (and, for homogeneous/partial policies, merges them
// across hosts — "all the individual distributions are collapsed
// into a single global distribution", §4).
type DistUpload struct {
	HostID  uint32
	Feature int
	Samples []float64
	// Epoch is the configuration epoch this upload targets: the epoch
	// the host expects its thresholds to carry. The console stores
	// uploads for the current open epoch, opens epoch e+1 when a host
	// that saw epoch e's thresholds re-uploads (weekly re-learning),
	// and idempotently acknowledges-and-drops stale epochs — which is
	// what makes a reconnecting agent's re-sent upload harmless
	// instead of wiping the fleet's training state.
	Epoch int
}

// Thresholds is the console's configuration push: one threshold per
// feature, indexed by canonical feature order.
type Thresholds struct {
	// Values[f] is the alarm threshold for feature f; NaN is not
	// allowed (absent features use +Inf encoded as the string "inf"
	// by the JSON layer — we simply always send all six).
	Values [features.NumFeatures]float64 `json:"values"`
	// Policy names the policy that produced the thresholds.
	Policy string `json:"policy"`
	// Group is the configuration group this host landed in.
	Group int `json:"group"`
	// Epoch counts configuration rounds; the paper re-learns
	// thresholds weekly (§6.1), so a long-lived deployment sees
	// epoch 0, 1, 2, ... as training windows roll forward.
	Epoch int `json:"epoch"`
}

// Alert is one threshold exceedance on one host.
type Alert struct {
	Feature   int
	Bin       int
	Value     float64
	Threshold float64
}

// AlertBatch is the periodic alert report (§3: "alerts are generated
// and periodically sent to a central console").
type AlertBatch struct {
	HostID uint32
	Alerts []Alert
	// Seq is the agent-assigned batch sequence number, starting at 1
	// and stable across re-sends of the same batch; the console drops
	// (but still acknowledges) a sequence it has already tallied, so a
	// batch whose ack was lost in transit is never double-counted.
	// Zero means unsequenced (legacy senders) and always passes.
	Seq uint64
}

// Ack acknowledges receipt; Seq echoes the sender's sequence number
// when one was supplied.
type Ack struct {
	Seq uint64 `json:"seq,omitempty"`
}

// Ping is the one-way keepalive payload.
type Ping struct {
	HostID uint32 `json:"host_id"`
}

// ProtoError is a protocol-level error report.
type ProtoError struct {
	Message string `json:"message"`
}

// Binary payload sizes: fixed header, then fixed-width records.
const (
	distUploadHeader = 20 // u32 host, u32 feature, i64 epoch, u32 n
	sampleSize       = 8
	alertBatchHeader = 16 // u32 host, u64 seq, u32 n
	alertSize        = 24 // i32 feature, i32 bin, f64 value, f64 threshold
)

var le = binary.LittleEndian

// errNonFinite rejects NaN and ±Inf on the wire, as JSON did.
var errNonFinite = errors.New("non-finite value")

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// AppendBinary appends the upload's binary payload to b.
func (u DistUpload) AppendBinary(b []byte) ([]byte, error) {
	if u.Feature < 0 || int64(u.Feature) > math.MaxUint32 {
		return b, fmt.Errorf("feature %d does not fit u32", u.Feature)
	}
	if uint64(len(u.Samples)) > math.MaxUint32 {
		return b, fmt.Errorf("%d samples do not fit u32", len(u.Samples))
	}
	b = slices.Grow(b, distUploadHeader+sampleSize*len(u.Samples))
	b = le.AppendUint32(b, u.HostID)
	b = le.AppendUint32(b, uint32(u.Feature))
	b = le.AppendUint64(b, uint64(int64(u.Epoch)))
	b = le.AppendUint32(b, uint32(len(u.Samples)))
	for i, v := range u.Samples {
		if !finite(v) {
			return b, fmt.Errorf("sample %d: %w", i, errNonFinite)
		}
		b = le.AppendUint64(b, math.Float64bits(v))
	}
	return b, nil
}

// MarshalBinary encodes the upload as its binary payload.
func (u DistUpload) MarshalBinary() ([]byte, error) { return u.AppendBinary(nil) }

// UnmarshalBinary decodes a binary upload payload into u. It rejects a
// sample count the body length does not match before allocating, so
// it never allocates more than the body carries.
func (u *DistUpload) UnmarshalBinary(b []byte) error {
	if len(b) < distUploadHeader {
		return fmt.Errorf("dist-upload of %d bytes is shorter than its header", len(b))
	}
	n := le.Uint32(b[16:20])
	if uint64(len(b)) != distUploadHeader+sampleSize*uint64(n) {
		return fmt.Errorf("dist-upload of %d bytes declares %d samples", len(b), n)
	}
	epoch := int64(le.Uint64(b[8:16]))
	if int64(int(epoch)) != epoch {
		return fmt.Errorf("epoch %d does not fit int", epoch)
	}
	samples := make([]float64, n)
	for i, p := 0, b[distUploadHeader:]; i < len(samples); i, p = i+1, p[sampleSize:] {
		v := math.Float64frombits(le.Uint64(p))
		if !finite(v) {
			return fmt.Errorf("sample %d: %w", i, errNonFinite)
		}
		samples[i] = v
	}
	*u = DistUpload{HostID: le.Uint32(b[0:4]), Feature: int(le.Uint32(b[4:8])), Epoch: int(epoch), Samples: samples}
	return nil
}

// AppendBinary appends the batch's binary payload to b.
func (ab AlertBatch) AppendBinary(b []byte) ([]byte, error) {
	if uint64(len(ab.Alerts)) > math.MaxUint32 {
		return b, fmt.Errorf("%d alerts do not fit u32", len(ab.Alerts))
	}
	b = slices.Grow(b, alertBatchHeader+alertSize*len(ab.Alerts))
	b = le.AppendUint32(b, ab.HostID)
	b = le.AppendUint64(b, ab.Seq)
	b = le.AppendUint32(b, uint32(len(ab.Alerts)))
	for i, a := range ab.Alerts {
		if int(int32(a.Feature)) != a.Feature || int(int32(a.Bin)) != a.Bin {
			return b, fmt.Errorf("alert %d: feature %d or bin %d does not fit i32", i, a.Feature, a.Bin)
		}
		if !finite(a.Value) || !finite(a.Threshold) {
			return b, fmt.Errorf("alert %d: %w", i, errNonFinite)
		}
		b = le.AppendUint32(b, uint32(int32(a.Feature)))
		b = le.AppendUint32(b, uint32(int32(a.Bin)))
		b = le.AppendUint64(b, math.Float64bits(a.Value))
		b = le.AppendUint64(b, math.Float64bits(a.Threshold))
	}
	return b, nil
}

// MarshalBinary encodes the batch as its binary payload.
func (ab AlertBatch) MarshalBinary() ([]byte, error) { return ab.AppendBinary(nil) }

// UnmarshalBinary decodes a binary alert-batch payload into ab, with
// the same length-before-allocation rule as DistUpload.
func (ab *AlertBatch) UnmarshalBinary(b []byte) error {
	if len(b) < alertBatchHeader {
		return fmt.Errorf("alert-batch of %d bytes is shorter than its header", len(b))
	}
	n := le.Uint32(b[12:16])
	if uint64(len(b)) != alertBatchHeader+alertSize*uint64(n) {
		return fmt.Errorf("alert-batch of %d bytes declares %d alerts", len(b), n)
	}
	alerts := make([]Alert, n)
	for i, p := 0, b[alertBatchHeader:]; i < len(alerts); i, p = i+1, p[alertSize:] {
		a := Alert{
			Feature:   int(int32(le.Uint32(p[0:4]))),
			Bin:       int(int32(le.Uint32(p[4:8]))),
			Value:     math.Float64frombits(le.Uint64(p[8:16])),
			Threshold: math.Float64frombits(le.Uint64(p[16:24])),
		}
		if !finite(a.Value) || !finite(a.Threshold) {
			return fmt.Errorf("alert %d: %w", i, errNonFinite)
		}
		alerts[i] = a
	}
	*ab = AlertBatch{HostID: le.Uint32(b[0:4]), Seq: le.Uint64(b[4:12]), Alerts: alerts}
	return nil
}

// WriteMsg frames and writes one message (wire.Write under MaxFrame).
func WriteMsg(w io.Writer, t MsgType, payload any) error {
	if err := wire.Write(w, byte(t), payload, MaxFrame); err != nil {
		return fmt.Errorf("console: %s: %w", t, err)
	}
	return nil
}

// ReadMsg reads one frame's type and raw payload (wire.Read).
func ReadMsg(r io.Reader) (MsgType, []byte, error) {
	t, body, err := wire.Read(r, MaxFrame)
	return MsgType(t), body, err
}

// decode unmarshals a payload into v (wire.Decode).
func decode(t MsgType, body []byte, v any) error {
	if err := wire.Decode(body, v); err != nil {
		return fmt.Errorf("console: decoding %s: %w", t, err)
	}
	return nil
}
