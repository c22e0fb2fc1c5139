package console

import (
	"bytes"
	"testing"
)

// BenchmarkConsoleCodec moves the two bulk messages through the frame
// codec as the console sees them: WriteMsg, ReadMsg, then decode. The
// upload is one feature of one host's training week at 15-minute bins
// (672 samples); the batch is 64 alerts.
func BenchmarkConsoleCodec(b *testing.B) {
	samples := make([]float64, 672)
	for i := range samples {
		samples[i] = float64(i%97) * 1.5
	}
	alerts := make([]Alert, 64)
	for i := range alerts {
		alerts[i] = Alert{Feature: i % 6, Bin: 400 + i, Value: 900 + float64(i), Threshold: 812.5}
	}
	cases := []struct {
		name    string
		typ     MsgType
		payload any
		into    func() any
	}{
		{"upload672", MsgDistUpload, DistUpload{HostID: 7, Feature: 1, Samples: samples}, func() any { return new(DistUpload) }},
		{"alerts64", MsgAlertBatch, AlertBatch{HostID: 7, Seq: 3, Alerts: alerts}, func() any { return new(AlertBatch) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			for b.Loop() {
				buf.Reset()
				if err := WriteMsg(&buf, c.typ, c.payload); err != nil {
					b.Fatal(err)
				}
				typ, body, err := ReadMsg(&buf)
				if err != nil {
					b.Fatal(err)
				}
				if err := decode(typ, body, c.into()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
