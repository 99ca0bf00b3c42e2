package replay

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"sync"
)

// The v3 trace container is a stream of self-delimiting segments so a
// recorder can flush state to disk as it goes and never hold more than
// one segment's worth of trace data in memory:
//
//	"LVMMTRC\n" <version:u16 LE>
//	( <kind:u8> <payloadLen:u64 LE> gzip(gob(payload)) )*
//	<trailer: "LVMMIDX\n" <indexOffset:u64 LE>>
//
// Segment order is: one segMeta, then event batches and checkpoints
// interleaved in timeline order, one segEnd, and finally one segIndex
// (the seek footer) followed by the fixed-size trailer pointing back at
// it. Each payload is an independent gzip stream, so a reader can
// decode any segment knowing only its offset — the basis for seeking by
// segment instead of scanning, and for salvage tooling on truncated
// files. Checkpoints come in two kinds: keyframes (full sparse RAM) and
// deltas (only pages dirtied since the base checkpoint).
const (
	segMeta     byte = 1 // TraceMeta
	segEvents   byte = 2 // []Event batch
	segKeyframe byte = 3 // Checkpoint with full sparse RAM
	segDelta    byte = 4 // Checkpoint with dirty-page RAM vs its Base
	segEnd      byte = 5 // traceEnd seal
	segIndex    byte = 6 // []SegmentInfo footer
)

// indexMagic introduces the fixed-size trailer that locates the index
// segment from the end of a seekable file.
const indexMagic = "LVMMIDX\n"

// maxSegmentPayload bounds a single segment's compressed payload; a
// 64 MB machine's full keyframe gzips far below this, so anything larger
// is corruption, not data.
const maxSegmentPayload = 1 << 31

// maxSegmentDecoded bounds a single segment's decompressed gob payload.
// The largest legitimate segment — a full keyframe of a 64 MB machine
// with every chunk nonzero — stays well under this, so the cap only
// trips on decompression bombs: tiny gzip segments crafted to expand
// into gigabytes while decoding.
const maxSegmentDecoded = 1 << 28

func segKindName(k byte) string {
	switch k {
	case segMeta:
		return "meta"
	case segEvents:
		return "events"
	case segKeyframe:
		return "keyframe"
	case segDelta:
		return "delta"
	case segEnd:
		return "end"
	case segIndex:
		return "index"
	}
	return fmt.Sprintf("kind(%d)", k)
}

// SegmentInfo is one entry of the trace's seek index: where a segment
// lives on disk, what it holds, and the timeline position it covers.
type SegmentInfo struct {
	Kind   byte
	Offset int64 // file offset of the segment header
	Bytes  int64 // on-disk bytes including the 9-byte header
	// Events is the batch size for event segments.
	Events int
	// Instr/Cycle locate the segment on the timeline: a checkpoint's
	// position, or an event batch's first event.
	Instr uint64
	Cycle uint64
	// Checkpoint is the stable Checkpoint.Index for snapshot segments,
	// -1 otherwise.
	Checkpoint int
}

// KindName renders the segment kind for display.
func (si SegmentInfo) KindName() string { return segKindName(si.Kind) }

// IsEvents reports whether the segment is an event batch.
func (si SegmentInfo) IsEvents() bool { return si.Kind == segEvents }

// IsSnapshot reports whether the segment is a keyframe or delta
// checkpoint (Checkpoint then holds the stable checkpoint id).
func (si SegmentInfo) IsSnapshot() bool { return si.Kind == segKeyframe || si.Kind == segDelta }

// traceEnd seals a recording (the v3 counterpart of the End* fields).
type traceEnd struct {
	EndCycle  uint64
	EndInstr  uint64
	EndReason int
	EndDigest uint64
}

// segWriter emits the v3 container onto any io.Writer, tracking offsets
// itself so it never needs to seek. Errors are sticky: after the first
// failed write every later call returns the same error, and a trace
// sealed through a failed writer is reported as such rather than
// silently truncated.
type segWriter struct {
	w     io.Writer
	off   int64
	index []SegmentInfo
	err   error
}

// newSegWriter writes the file header and returns the writer.
func newSegWriter(w io.Writer) (*segWriter, error) {
	sw := &segWriter{w: w}
	hdr := make([]byte, 0, len(traceMagic)+2)
	hdr = append(hdr, traceMagic...)
	hdr = append(hdr, byte(TraceVersion), byte(TraceVersion>>8))
	if err := sw.writeAll(hdr); err != nil {
		return nil, err
	}
	return sw, nil
}

func (sw *segWriter) writeAll(b []byte) error {
	if sw.err != nil {
		return sw.err
	}
	n, err := sw.w.Write(b)
	sw.off += int64(n)
	if err == nil && n != len(b) {
		err = io.ErrShortWrite
	}
	sw.err = err
	return err
}

// segDeco carries the index decorations only the producer of a segment
// knows — the batch size of an event segment, the timeline position, the
// stable checkpoint id. Passing them up front (instead of patching the
// index entry after the write) lets serialization run on a different
// goroutine than the one producing segments.
type segDeco struct {
	Events     int
	Instr      uint64
	Cycle      uint64
	Checkpoint int // -1 for everything but snapshots
}

// decoNone decorates segments with no timeline position (meta, end).
func decoNone() segDeco { return segDeco{Checkpoint: -1} }

// decoEvents decorates an event batch with its size and first position.
func decoEvents(batch []Event) segDeco {
	d := segDeco{Checkpoint: -1, Events: len(batch)}
	if len(batch) > 0 {
		d.Instr, d.Cycle = batch[0].Instr, batch[0].Cycle
	}
	return d
}

// decoCheckpoint decorates a snapshot segment with its timeline position
// and stable checkpoint id.
func decoCheckpoint(cp *Checkpoint) segDeco {
	return segDeco{Instr: cp.Instr, Cycle: cp.Cycle, Checkpoint: cp.Index}
}

// writeSegment encodes payload as gzip(gob) and appends one decorated
// segment.
func (sw *segWriter) writeSegment(kind byte, payload any, d segDeco) error {
	if sw.err != nil {
		return sw.err
	}
	body, err := encodeSegment(payload)
	if err != nil {
		sw.err = err
		return err
	}
	return sw.writeEncoded(kind, body, d)
}

// writeEncoded appends one segment whose payload is already encoded
// (the async pipeline encodes on worker goroutines and hands finished
// bodies here, in enqueue order, so the byte stream is identical to
// writeSegment's). The index entry is built from the write offset
// plus the producer's decorations.
func (sw *segWriter) writeEncoded(kind byte, body []byte, d segDeco) error {
	if sw.err != nil {
		return sw.err
	}
	info := SegmentInfo{
		Kind:       kind,
		Offset:     sw.off,
		Bytes:      int64(9 + len(body)),
		Events:     d.Events,
		Instr:      d.Instr,
		Cycle:      d.Cycle,
		Checkpoint: d.Checkpoint,
	}
	var hdr [9]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint64(hdr[1:], uint64(len(body)))
	if err := sw.writeAll(hdr[:]); err != nil {
		return err
	}
	if err := sw.writeAll(body); err != nil {
		return err
	}
	sw.index = append(sw.index, info)
	return nil
}

// finish writes the index segment and the trailer. The caller is
// responsible for any underlying file Close (and for propagating its
// error — a buffered short write surfaces there).
func (sw *segWriter) finish() error {
	if sw.err != nil {
		return sw.err
	}
	body, err := encodeSegment(sw.index)
	if err != nil {
		sw.err = err
		return err
	}
	idxOff := sw.off
	var hdr [9]byte
	hdr[0] = segIndex
	binary.LittleEndian.PutUint64(hdr[1:], uint64(len(body)))
	if err := sw.writeAll(hdr[:]); err != nil {
		return err
	}
	if err := sw.writeAll(body); err != nil {
		return err
	}
	var tr [16]byte
	copy(tr[:], indexMagic)
	binary.LittleEndian.PutUint64(tr[8:], uint64(idxOff))
	return sw.writeAll(tr[:])
}

// gzipPool recycles deflate state across segments (the compressor's
// window and hash tables are a few hundred KB per writer — allocating
// them per segment was a measurable slice of the record hot path).
// Reset makes a recycled writer's output identical to a fresh one's,
// so pooling cannot perturb the container bytes.
var gzipPool = sync.Pool{
	New: func() any {
		zw, _ := gzip.NewWriterLevel(io.Discard, gzip.BestSpeed)
		return zw
	},
}

// encodeSegment renders one payload as an independent gzip(gob) blob.
// It is a pure function of payload (identical bytes for identical
// payloads, whatever goroutine runs it) — the async pipeline's
// bit-identity guarantee rests on that.
func encodeSegment(payload any) ([]byte, error) {
	var buf bytes.Buffer
	zw := gzipPool.Get().(*gzip.Writer)
	zw.Reset(&buf)
	if err := gob.NewEncoder(zw).Encode(payload); err != nil {
		gzipPool.Put(zw)
		return nil, err
	}
	err := zw.Close()
	gzipPool.Put(zw)
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeSegment decodes a blob produced by encodeSegment, then drains
// the gzip stream to EOF so its CRC and size trailer are verified: a
// segment whose tail bytes were corrupted after the decodable prefix is
// damage, not data. The decompressed size is capped at
// maxSegmentDecoded so a crafted tiny segment cannot expand into
// gigabytes inside the gob decoder.
func decodeSegment(body []byte, out any) error {
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer zr.Close()
	lr := &io.LimitedReader{R: zr, N: maxSegmentDecoded + 1}
	err = gob.NewDecoder(lr).Decode(out)
	if err == nil {
		_, err = io.Copy(io.Discard, lr)
	}
	if lr.N <= 0 {
		return fmt.Errorf("replay: segment decodes past the %d-byte bound", int64(maxSegmentDecoded))
	}
	return err
}

// readBody reads n payload bytes in bounded chunks, so a lying segment
// header cannot force a multi-gigabyte allocation before the stream
// runs out — the read fails at the truncation point instead.
func readBody(r io.Reader, n uint64) ([]byte, error) {
	const chunk = 1 << 20
	if n <= chunk {
		body := make([]byte, n)
		_, err := io.ReadFull(r, body)
		return body, err
	}
	body := make([]byte, 0, chunk)
	for remaining := n; remaining > 0; {
		step := uint64(chunk)
		if remaining < step {
			step = remaining
		}
		old := len(body)
		body = append(body, make([]byte, step)...)
		if _, err := io.ReadFull(r, body[old:]); err != nil {
			return nil, err
		}
		remaining -= step
	}
	return body, nil
}
