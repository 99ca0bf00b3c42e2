package replay

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"io"
	"reflect"
	"runtime"
	"sync"
)

// DefaultAsyncQueue is the bounded depth of the async writer's segment
// queue. A full queue blocks enqueue (backpressure), so recorder memory
// stays O(queue × segment) no matter how far the disk falls behind.
const DefaultAsyncQueue = 8

// asyncJob is one segment moving through the pipeline. The producer
// fills kind/payload/deco and transfers ownership of payload at
// enqueue — it must never mutate the payload afterwards (snapshots and
// event batches are self-contained deep copies, see
// machine.Snapshot). An encoder worker fills body/err and closes ready;
// the writer goroutine waits on ready and commits jobs in enqueue
// order, which is what keeps the byte stream identical to the
// sequential writer's (Trace.Write).
type asyncJob struct {
	kind    byte
	payload any
	deco    segDeco
	body    []byte
	err     error
	ready   chan struct{}
}

// asyncSegWriter pipelines segment serialization off the producer's
// goroutine: encoder workers gob-encode + gzip payloads in parallel,
// and a single writer goroutine frames the finished bodies onto the
// underlying segWriter in FIFO enqueue order. Because each worker's
// segEncoder writes encodeSegment's bytes for every payload and the
// commit order matches the enqueue order, the container is
// bit-identical whatever the encoder count, and to Trace.Write of the
// same trace.
//
// Errors are sticky and first-wins: an encode or write failure is
// latched, later enqueues become cheap drops, and seal returns the
// latched error — a trace sealed through a failed writer is reported
// as such, never silently truncated.
type asyncSegWriter struct {
	sw *segWriter

	order  chan *asyncJob // FIFO commit order, consumed by the writer
	encode chan *asyncJob // work feed, consumed by the encoder pool
	done   chan struct{}  // closed when the writer goroutine drains
	encWG  sync.WaitGroup

	mu     sync.Mutex
	err    error
	sealed bool
}

// gobTypeIDs gives the payload types their gob type ids once per
// process, before any encoder runs. gob numbers a type the first time
// any encoder in the process sends it, and the numbers are part of
// every segment's bytes, so encoders racing to send their first
// segments would make the container depend on goroutine scheduling.
// The order is the one a sequential recording sends them in: meta, the
// first keyframe, the first event batch, the end seal, the index.
var gobTypeIDs sync.Once

func assignGobTypeIDs() {
	enc := gob.NewEncoder(io.Discard)
	for _, v := range []any{TraceMeta{}, Checkpoint{}, []Event{}, traceEnd{}, []SegmentInfo{}} {
		enc.Encode(v)
	}
}

// newAsyncSegWriter starts the pipeline over w, whose header
// newSegWriter already wrote, with queues queue segments deep.
func newAsyncSegWriter(w *segWriter, queue int) *asyncSegWriter {
	gobTypeIDs.Do(assignGobTypeIDs)
	aw := &asyncSegWriter{
		sw:     w,
		order:  make(chan *asyncJob, queue),
		encode: make(chan *asyncJob, queue),
		done:   make(chan struct{}),
	}
	// One encoder per core, up to four: the encoders share the cores
	// with the simulation goroutine rather than leaving it one, since a
	// recording is bound by its encoders (deflate above all), and the
	// simulation blocks only when the queue is full.
	encoders := min(runtime.GOMAXPROCS(0), 4)
	aw.encWG.Add(encoders)
	for i := 0; i < encoders; i++ {
		go aw.encoder()
	}
	go aw.writer()
	return aw
}

func (aw *asyncSegWriter) encoder() {
	defer aw.encWG.Done()
	e := segEncoderPool.Get().(*segEncoder)
	defer segEncoderPool.Put(e)
	for job := range aw.encode {
		if aw.Err() == nil {
			job.body, job.err = e.encode(job.payload)
		}
		job.payload = nil
		close(job.ready)
	}
}

func (aw *asyncSegWriter) writer() {
	defer close(aw.done)
	for job := range aw.order {
		<-job.ready
		if aw.Err() != nil {
			continue
		}
		if job.err != nil {
			aw.setErr(job.err)
			continue
		}
		if err := aw.sw.writeEncoded(job.kind, job.body, job.deco); err != nil {
			aw.setErr(err)
		}
	}
}

func (aw *asyncSegWriter) setErr(err error) {
	aw.mu.Lock()
	if aw.err == nil {
		aw.err = err
	}
	aw.mu.Unlock()
}

// Err returns the sticky first error, if any. Safe to call from any
// goroutine at any time.
func (aw *asyncSegWriter) Err() error {
	aw.mu.Lock()
	defer aw.mu.Unlock()
	return aw.err
}

// enqueue hands one segment to the pipeline, transferring ownership of
// payload. It blocks when the queue is full (backpressure) and becomes
// a cheap drop once the stream has failed. The order send happens
// before the encode send: the single producer guarantees commit order
// matches enqueue order, and a full encode channel can only block after
// the job is already queued for the writer, so the writer always
// drains.
func (aw *asyncSegWriter) enqueue(kind byte, payload any, d segDeco) error {
	if err := aw.Err(); err != nil {
		return err
	}
	job := &asyncJob{kind: kind, payload: payload, deco: d, ready: make(chan struct{})}
	aw.order <- job
	aw.encode <- job
	return nil
}

// seal stops the pipeline, waits for every in-flight segment to commit,
// and — when the stream is still healthy — writes the seek-index footer
// and trailer. Idempotent; later calls return the first outcome's
// error. After seal the segWriter's index and offset are stable and safe
// to read from the caller's goroutine.
func (aw *asyncSegWriter) seal() error {
	aw.mu.Lock()
	if aw.sealed {
		err := aw.err
		aw.mu.Unlock()
		return err
	}
	aw.sealed = true
	aw.mu.Unlock()

	close(aw.encode)
	close(aw.order)
	aw.encWG.Wait()
	<-aw.done

	if err := aw.Err(); err != nil {
		// Mirror the sticky error onto the segWriter so any stray direct
		// use also fails, and so a truncated container is never sealed.
		if aw.sw.err == nil {
			aw.sw.err = err
		}
		return err
	}
	if err := aw.sw.finish(); err != nil {
		aw.setErr(err)
		return err
	}
	return nil
}

// segEncoderPool keeps encoder workers' serialization state across
// recordings, so a recording's first keyframe does not regrow a gob
// buffer either.
var segEncoderPool = sync.Pool{New: func() any {
	zw, _ := gzip.NewWriterLevel(io.Discard, gzip.BestSpeed)
	return &segEncoder{zw: zw, gobs: make(map[reflect.Type]*gobStream)}
}}

// segEncoder is one encoder worker's serialization state: its deflate
// writer and, per payload type, a gob stream that has already sent the
// type's definitions. encode writes the same bytes as encodeSegment,
// the reference, without a fresh gob.Encoder per segment regrowing its
// message buffer to a multi-megabyte checkpoint every time.
type segEncoder struct {
	zw   *gzip.Writer
	gobs map[reflect.Type]*gobStream
}

// gobStream is a gob.Encoder for one payload type, past its first
// Encode, and defs, the type-definition messages a fresh encoder writes
// before a value of the type. A segment is defs followed by the value
// message the stream writes next: a fresh encoder's bytes exactly.
// That rests on three facts. gob writes each message with one Write,
// so the definitions split off a value at a Write boundary. The
// payload types have no interface fields, so the definitions depend on
// the type alone and later values never send definitions of their own.
// And BestSpeed deflate only compresses whole 64 KB windows (or the
// rest at Close), so its output does not depend on how the input was
// split into writes.
type gobStream struct {
	enc  *gob.Encoder
	sink msgSink
	defs []byte
}

// newGobStream starts the stream for type t, taking the definitions
// from a fresh encoder's encoding of t's zero value.
func newGobStream(t reflect.Type) (*gobStream, error) {
	for t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	var zero bytes.Buffer
	g := &gobStream{sink: msgSink{w: &zero}}
	if err := gob.NewEncoder(&g.sink).EncodeValue(reflect.New(t)); err != nil {
		return nil, err
	}
	g.defs = zero.Bytes()[:g.sink.last]
	g.enc = gob.NewEncoder(&g.sink)
	return g, nil
}

// msgSink passes a gob encoder's messages on to w, counting the bytes
// written before the latest message.
type msgSink struct {
	w       io.Writer
	n, last int
}

func (s *msgSink) Write(p []byte) (int, error) {
	s.last = s.n
	s.n += len(p)
	return s.w.Write(p)
}

// encode renders payload as one independent gzip(gob) blob, byte for
// byte encodeSegment's.
func (e *segEncoder) encode(payload any) ([]byte, error) {
	var buf bytes.Buffer
	e.zw.Reset(&buf)
	t := reflect.TypeOf(payload)
	g := e.gobs[t]
	if g == nil {
		var err error
		if g, err = newGobStream(t); err != nil {
			return nil, err
		}
		e.gobs[t] = g
	} else {
		// The stream sent the definitions with its first value.
		e.zw.Write(g.defs)
	}
	g.sink.w = e.zw
	if err := g.enc.Encode(payload); err != nil {
		delete(e.gobs, t)
		return nil, err
	}
	if err := e.zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
