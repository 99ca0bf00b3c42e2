package replay

import (
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
// underlying segWriter in FIFO enqueue order. Because encodeSegment is
// a pure function of the payload and the commit order matches the
// enqueue order, the container is bit-identical whatever the encoder
// count, and to Trace.Write of the same trace.
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

// newAsyncSegWriter starts the pipeline over w, whose header
// newSegWriter already wrote, with queues queue segments deep.
func newAsyncSegWriter(w *segWriter, queue int) *asyncSegWriter {
	aw := &asyncSegWriter{
		sw:     w,
		order:  make(chan *asyncJob, queue),
		encode: make(chan *asyncJob, queue),
		done:   make(chan struct{}),
	}
	encoders := runtime.GOMAXPROCS(0) - 1
	if encoders < 1 {
		encoders = 1
	}
	if encoders > 4 {
		encoders = 4
	}
	aw.encWG.Add(encoders)
	for i := 0; i < encoders; i++ {
		go aw.encoder()
	}
	go aw.writer()
	return aw
}

func (aw *asyncSegWriter) encoder() {
	defer aw.encWG.Done()
	for job := range aw.encode {
		if aw.Err() == nil {
			job.body, job.err = encodeSegment(job.payload)
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
