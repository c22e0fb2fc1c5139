package netsim

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The .etr ("end-host trace") format is a little-endian binary stream:
//
//	header (16 bytes):
//	  magic   [4]byte  "ETR1"
//	  version uint16   currently 1
//	  flags   uint16   reserved, zero
//	  hostID  uint32   end-host identifier
//	  reserved uint32  zero
//	records (24 bytes each):
//	  time   int64   microseconds since Unix epoch
//	  srcIP  [4]byte
//	  dstIP  [4]byte
//	  srcPort uint16
//	  dstPort uint16
//	  proto  uint8
//	  flags  uint8
//	  length uint16
//
// The format is append-friendly (no record count in the header) so a
// capture agent can stream records to disk and a reader can consume a
// file that is still being written.

const (
	traceMagic   = "ETR1"
	traceVersion = 1
	headerSize   = 16
	recordSize   = 24
)

// Errors returned by the trace codec.
var (
	ErrBadMagic    = errors.New("netsim: not an ETR1 trace file")
	ErrBadVersion  = errors.New("netsim: unsupported trace version")
	ErrShortRecord = errors.New("netsim: truncated record")
)

// EncodeRecord serializes r into buf, which must be at least
// RecordSize bytes. It returns the number of bytes written.
func EncodeRecord(buf []byte, r Record) int {
	_ = buf[recordSize-1] // bounds hint
	binary.LittleEndian.PutUint64(buf[0:8], uint64(r.Time))
	copy(buf[8:12], r.Src.Addr[:])
	copy(buf[12:16], r.Dst.Addr[:])
	binary.LittleEndian.PutUint16(buf[16:18], r.Src.Port)
	binary.LittleEndian.PutUint16(buf[18:20], r.Dst.Port)
	buf[20] = byte(r.Proto)
	buf[21] = byte(r.Flags)
	binary.LittleEndian.PutUint16(buf[22:24], r.Length)
	return recordSize
}

// DecodeRecord parses a record from buf into r. buf must hold at
// least RecordSize bytes.
func DecodeRecord(buf []byte, r *Record) {
	_ = buf[recordSize-1]
	r.Time = int64(binary.LittleEndian.Uint64(buf[0:8]))
	copy(r.Src.Addr[:], buf[8:12])
	copy(r.Dst.Addr[:], buf[12:16])
	r.Src.Port = binary.LittleEndian.Uint16(buf[16:18])
	r.Dst.Port = binary.LittleEndian.Uint16(buf[18:20])
	r.Proto = Proto(buf[20])
	r.Flags = TCPFlags(buf[21])
	r.Length = binary.LittleEndian.Uint16(buf[22:24])
}

// RecordSize is the fixed on-disk size of one packet record.
const RecordSize = recordSize

// TraceWriter streams packet records to an io.Writer in .etr format.
type TraceWriter struct {
	w     *bufio.Writer
	buf   [recordSize]byte
	count int64
	err   error
}

// NewTraceWriter writes the file header for hostID and returns a
// writer positioned at the first record.
func NewTraceWriter(w io.Writer, hostID uint32) (*TraceWriter, error) {
	bw := bufio.NewWriterSize(w, 64<<10)
	var hdr [headerSize]byte
	copy(hdr[0:4], traceMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], traceVersion)
	binary.LittleEndian.PutUint16(hdr[6:8], 0)
	binary.LittleEndian.PutUint32(hdr[8:12], hostID)
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("netsim: writing trace header: %w", err)
	}
	return &TraceWriter{w: bw}, nil
}

// Write appends one record. Records should be written in
// non-decreasing time order; the writer does not enforce this, but
// readers and the feature extractor assume it.
func (tw *TraceWriter) Write(r Record) error {
	if tw.err != nil {
		return tw.err
	}
	EncodeRecord(tw.buf[:], r)
	if _, err := tw.w.Write(tw.buf[:]); err != nil {
		tw.err = fmt.Errorf("netsim: writing record: %w", err)
		return tw.err
	}
	tw.count++
	return nil
}

// Count returns the number of records written so far.
func (tw *TraceWriter) Count() int64 { return tw.count }

// Flush flushes buffered records to the underlying writer.
func (tw *TraceWriter) Flush() error {
	if tw.err != nil {
		return tw.err
	}
	if err := tw.w.Flush(); err != nil {
		tw.err = fmt.Errorf("netsim: flushing trace: %w", err)
	}
	return tw.err
}

// TraceReader streams packet records from an io.Reader in .etr
// format.
type TraceReader struct {
	r      *bufio.Reader
	hostID uint32
	buf    [recordSize]byte
}

// NewTraceReader validates the header and returns a reader positioned
// at the first record.
func NewTraceReader(r io.Reader) (*TraceReader, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var hdr [headerSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("netsim: reading trace header: %w", err)
	}
	if string(hdr[0:4]) != traceMagic {
		return nil, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != traceVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, v)
	}
	return &TraceReader{
		r:      br,
		hostID: binary.LittleEndian.Uint32(hdr[8:12]),
	}, nil
}

// HostID returns the end-host identifier from the file header.
func (tr *TraceReader) HostID() uint32 { return tr.hostID }

// Next reads the next record into rec. It returns io.EOF at a clean
// end of stream and ErrShortRecord if the stream ends mid-record.
func (tr *TraceReader) Next(rec *Record) error {
	n, err := io.ReadFull(tr.r, tr.buf[:])
	switch {
	case err == io.EOF:
		return io.EOF
	case err == io.ErrUnexpectedEOF:
		return fmt.Errorf("%w: got %d of %d bytes", ErrShortRecord, n, recordSize)
	case err != nil:
		return fmt.Errorf("netsim: reading record: %w", err)
	}
	DecodeRecord(tr.buf[:], rec)
	return nil
}
