package comm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Wire format of the TCP transport, pinned by the golden fixtures in
// testdata/wireframes. Every message is one frame:
//
//	offset size  field
//	0      4     magic "PFWF"
//	4      1     wire version (currently 1)
//	5      1     kind (data, hello, helloAck, contrib, result, gather, barrier)
//	6      1     tag (comm.Tag for data frames; 0xFF marks control frames)
//	7      1     face (arrival face for data frames; 0 otherwise)
//	8      4     from (int32 LE: sender rank for data/gather, proc otherwise)
//	12     4     to (int32 LE: receiver rank for data, proc otherwise)
//	16     8     seq (uint64 LE: per-connection sequence number)
//	24     4     nfloats (uint32 LE: payload length in float64s)
//	28     8×n   payload: nfloats little-endian IEEE-754 float64 bit patterns
//
// Data and control frames share one connection per pair of processes; the
// tag byte tells them apart, and seq counts every frame sent on the
// connection in one direction (the handshake frames excepted). The
// transport sends no barrier frames; the kind stays in the codec. A
// zero-length payload is legal in the codec (a gather's reply carries
// none; the transport rejects it in a data frame); NaN and ±Inf payload values
// round-trip bit-exactly. The decoder enforces an
// upper payload bound so a corrupt length field cannot trigger an
// unbounded allocation.

// wireMagic opens every frame.
const wireMagic = "PFWF"

// wireVersion is the frame-format revision; bumped on any layout change.
const wireVersion = 1

// wireHeaderSize is the fixed frame-header length in bytes.
const wireHeaderSize = 28

// Frame kinds.
const (
	kindData     = 1 // halo payload
	kindHello    = 2 // connect handshake: topology + ckpt version + reserved zero
	kindHelloAck = 3 // accept handshake reply: one reserved zero
	kindContrib  = 4 // collective contribution, peer → root
	kindResult   = 5 // collective result or gather reply, root → peer
	kindGather   = 6 // per-rank gather payload, peer → root
	kindBarrier  = 7 // barrier token (codec and fixtures only)
)

// ctrlTag marks control frames (and the handshake) in the frame header's
// tag byte.
const ctrlTag = 0xFF

// wireFrame is one decoded frame. Payload aliases a caller- or
// pool-provided buffer on the hot path.
type wireFrame struct {
	Kind    byte
	Tag     byte
	Face    byte
	From    int32
	To      int32
	Seq     uint64
	Payload []float64
}

// appendFrame encodes f onto dst and returns the extended slice. Encoding
// into a reused slot keeps the send path allocation-free in steady state.
func appendFrame(dst []byte, f *wireFrame) []byte {
	dst = append(dst, wireMagic...)
	dst = append(dst, wireVersion, f.Kind, f.Tag, f.Face)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.From))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(f.To))
	dst = binary.LittleEndian.AppendUint64(dst, f.Seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Payload)))
	for _, v := range f.Payload {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// readFrameHeader decodes the fixed header from r into f (leaving Payload
// untouched) and returns the payload length in floats. It validates magic,
// version and the payload bound, so a corrupted or hostile stream fails
// with an error instead of an unbounded allocation or panic.
func readFrameHeader(r *bufio.Reader, maxFloats int, f *wireFrame) (int, error) {
	var hdr [wireHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	if string(hdr[0:4]) != wireMagic {
		return 0, fmt.Errorf("comm: bad frame magic %q", hdr[0:4])
	}
	if hdr[4] != wireVersion {
		return 0, fmt.Errorf("comm: unsupported wire version %d (want %d)", hdr[4], wireVersion)
	}
	f.Kind = hdr[5]
	if f.Kind < kindData || f.Kind > kindBarrier {
		return 0, fmt.Errorf("comm: unknown frame kind %d", f.Kind)
	}
	f.Tag = hdr[6]
	f.Face = hdr[7]
	f.From = int32(binary.LittleEndian.Uint32(hdr[8:12]))
	f.To = int32(binary.LittleEndian.Uint32(hdr[12:16]))
	f.Seq = binary.LittleEndian.Uint64(hdr[16:24])
	n := binary.LittleEndian.Uint32(hdr[24:28])
	if int64(n) > int64(maxFloats) {
		return 0, fmt.Errorf("comm: frame payload %d floats exceeds bound %d", n, maxFloats)
	}
	return int(n), nil
}

// readFramePayload fills buf (len = the header's nfloats) from r via
// scratch, a reused byte buffer grown as needed. Float bit patterns pass
// through untouched, so NaN payloads survive bit-exactly.
func readFramePayload(r *bufio.Reader, buf []float64, scratch *[]byte) error {
	nb := len(buf) * 8
	if cap(*scratch) < nb {
		*scratch = make([]byte, nb)
	}
	b := (*scratch)[:nb]
	if _, err := io.ReadFull(r, b); err != nil {
		return err
	}
	for i := range buf {
		buf[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return nil
}

// decodeFrame decodes one complete frame from data, allocating the
// payload. Cold paths and tests only; the hot path reads the payload
// straight into pooled buffers via readFrameHeader/readFramePayload.
func decodeFrame(data []byte, maxFloats int) (*wireFrame, error) {
	r := bufio.NewReader(newByteReader(data))
	var f wireFrame
	n, err := readFrameHeader(r, maxFloats, &f)
	if err != nil {
		return nil, err
	}
	f.Payload = make([]float64, n)
	var scratch []byte
	if err := readFramePayload(r, f.Payload, &scratch); err != nil {
		return nil, err
	}
	return &f, nil
}

// byteReader is a minimal io.Reader over a byte slice (avoids importing
// bytes just for tests' sake on the hot path).
type byteReader struct {
	data []byte
	off  int
}

func newByteReader(b []byte) *byteReader { return &byteReader{data: b} }

func (b *byteReader) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}
