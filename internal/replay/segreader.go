package replay

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"

	"lvmm/internal/isa"
	"lvmm/internal/machine"
)

// SegmentReader opens a v3 container through its seek-index footer and
// decodes individual segments on demand from an io.ReaderAt. Opening
// touches exactly three segments — the index (located by the fixed-size
// trailer), the meta, and the end seal — so a multi-gigabyte trace
// opens with kilobytes resident. Everything else is random access:
// DecodeEvents and DecodeCheckpoint pull one segment off disk, undo its
// gzip(gob) framing, and hand the payload back without retaining it.
type SegmentReader struct {
	r    io.ReaderAt
	size int64
	meta TraceMeta
	end  traceEnd
	segs []SegmentInfo
}

// NewSegmentReader opens a v3 trace of the given size through its seek
// index. v2 monolithic traces have no index and are rejected; NewLazyTrace
// and OpenSourceFile open them by transcoding to v3. A container that
// lists one checkpoint id twice is refused here, so every reader of the
// bytes gets that check.
func NewSegmentReader(r io.ReaderAt, size int64) (*SegmentReader, error) {
	hdr := make([]byte, headerLen)
	if _, err := r.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("replay: reading trace header: %w", err)
	}
	ver, err := parseHeader(hdr)
	if err != nil {
		return nil, err
	}
	if ver != TraceVersion {
		return nil, fmt.Errorf("replay: trace version %d has no seek index (want %d)", ver, TraceVersion)
	}
	// Trailer: magic + offset of the index segment, at the very end.
	var tr [16]byte
	if _, err := r.ReadAt(tr[:], size-16); err != nil {
		return nil, fmt.Errorf("replay: reading trace trailer: %w", err)
	}
	if string(tr[:8]) != indexMagic {
		return nil, fmt.Errorf("replay: bad trace trailer (truncated or unsealed recording)")
	}
	idxOff := int64(binary.LittleEndian.Uint64(tr[8:]))
	if idxOff < int64(headerLen) || idxOff >= size-16 {
		return nil, fmt.Errorf("replay: trailer points index at offset %d (file is %d bytes)", idxOff, size)
	}
	sr := &SegmentReader{r: r, size: size}
	var idx []SegmentInfo
	if err := sr.decodeAt(idxOff, segIndex, &idx); err != nil {
		return nil, fmt.Errorf("replay: decoding segment index: %w", err)
	}
	sr.segs = idx

	sawMeta, sawEnd := false, false
	// Checkpoint ids must be unique: a delta names its base by id, so a
	// duplicate would let a seek (which does not verify) restore onto
	// the wrong base. The check reads the index alone.
	cpIDs := make(map[int]bool)
	// The writer lays segments down back to back, so a trustworthy index
	// is strictly increasing and non-overlapping. Enforcing that here
	// does double duty: it pins the timeline-order assumption the lazy
	// layer builds on, and it bounds the total decode work a crafted
	// index can demand to the file's own bytes — without it, an index
	// could alias thousands of entries onto one high-ratio segment and
	// turn a kilobyte file into an unbounded decompression treadmill
	// (found by FuzzSegmentReader).
	prevEnd := int64(headerLen)
	for i := range idx {
		si := &idx[i]
		if si.Bytes < 9 || si.Offset < prevEnd || si.Offset+si.Bytes > size {
			return nil, fmt.Errorf("replay: index entry %d (%s) lies outside the file or overlaps its neighbor", i, si.KindName())
		}
		prevEnd = si.Offset + si.Bytes
		switch si.Kind {
		case segMeta:
			if sawMeta {
				return nil, fmt.Errorf("replay: duplicate meta segment in index")
			}
			if err := sr.decodeAt(si.Offset, segMeta, &sr.meta); err != nil {
				return nil, fmt.Errorf("replay: decoding trace meta: %w", err)
			}
			sawMeta = true
		case segEnd:
			if sawEnd {
				return nil, fmt.Errorf("replay: duplicate end segment in index")
			}
			if err := sr.decodeAt(si.Offset, segEnd, &sr.end); err != nil {
				return nil, fmt.Errorf("replay: decoding end segment: %w", err)
			}
			sawEnd = true
		case segKeyframe, segDelta:
			if cpIDs[si.Checkpoint] {
				return nil, fmt.Errorf("replay: index lists checkpoint #%d twice", si.Checkpoint)
			}
			cpIDs[si.Checkpoint] = true
		}
	}
	if !sawMeta {
		return nil, fmt.Errorf("replay: trace has no meta segment")
	}
	if !sawEnd {
		return nil, fmt.Errorf("replay: trace has no end segment (recording was not sealed)")
	}
	if sr.meta.Version != TraceVersion {
		return nil, fmt.Errorf("replay: trace meta version %d, want %d", sr.meta.Version, TraceVersion)
	}
	return sr, nil
}

// decodeAt reads the segment at the given offset, checks its header
// against the expected kind, and gob-decodes the payload into out.
func (sr *SegmentReader) decodeAt(off int64, wantKind byte, out any) error {
	var hdr [9]byte
	if _, err := sr.r.ReadAt(hdr[:], off); err != nil {
		return fmt.Errorf("segment header at offset %d: %w", off, err)
	}
	if hdr[0] != wantKind {
		return fmt.Errorf("segment at offset %d is %s, want %s", off, segKindName(hdr[0]), segKindName(wantKind))
	}
	n := binary.LittleEndian.Uint64(hdr[1:])
	if n > maxSegmentPayload || off+9+int64(n) > sr.size {
		return fmt.Errorf("segment %s at offset %d claims %d payload bytes", segKindName(hdr[0]), off, n)
	}
	body := make([]byte, n)
	if _, err := sr.r.ReadAt(body, off+9); err != nil {
		return fmt.Errorf("reading %s segment at offset %d: %w", segKindName(hdr[0]), off, err)
	}
	return decodeSegment(body, out)
}

// Meta returns the trace metadata (decoded at open).
func (sr *SegmentReader) Meta() TraceMeta { return sr.meta }

// End returns the end-of-recording seal (decoded at open).
func (sr *SegmentReader) End() (uint64, uint64, int, uint64) {
	return sr.end.EndCycle, sr.end.EndInstr, sr.end.EndReason, sr.end.EndDigest
}

// Segments returns the seek index. Callers must not mutate it.
func (sr *SegmentReader) Segments() []SegmentInfo { return sr.segs }

// DecodeEvents materializes the event batch of segment position i.
func (sr *SegmentReader) DecodeEvents(i int) ([]Event, error) {
	si := sr.segs[i]
	if !si.IsEvents() {
		return nil, fmt.Errorf("replay: segment %d is %s, not an event batch", i, si.KindName())
	}
	var batch []Event
	if err := sr.decodeAt(si.Offset, segEvents, &batch); err != nil {
		return nil, err
	}
	if len(batch) != si.Events {
		return nil, fmt.Errorf("replay: segment %d decodes to %d events, index says %d", i, len(batch), si.Events)
	}
	return batch, nil
}

// DecodeCheckpoint materializes the snapshot of segment position i.
func (sr *SegmentReader) DecodeCheckpoint(i int) (*Checkpoint, error) {
	si := sr.segs[i]
	if !si.IsSnapshot() {
		return nil, fmt.Errorf("replay: segment %d is %s, not a snapshot", i, si.KindName())
	}
	var cp Checkpoint
	if err := sr.decodeAt(si.Offset, si.Kind, &cp); err != nil {
		return nil, err
	}
	if (si.Kind == segDelta) != cp.Delta {
		return nil, fmt.Errorf("replay: %s segment %d carries a checkpoint with delta=%v", si.KindName(), i, cp.Delta)
	}
	if cp.Index != si.Checkpoint {
		return nil, fmt.Errorf("replay: segment %d decodes checkpoint #%d, index says #%d", i, cp.Index, si.Checkpoint)
	}
	if err := checkRAMChunks(cp.Machine); err != nil {
		return nil, fmt.Errorf("replay: segment %d: %w", i, err)
	}
	return &cp, nil
}

// checkRAMChunks refuses a snapshot whose RAM chunks a restore walk
// cannot apply: every chunk must start on a page boundary, hold whole
// pages unless it ends exactly at RAMSize, follow the previous chunk
// without overlapping it, and end within RAMSize. The walk checks each
// chain member's RAMSize against the machine's.
func checkRAMChunks(s *machine.Snapshot) error {
	if s == nil {
		return fmt.Errorf("checkpoint has no machine snapshot")
	}
	prev := uint64(0)
	for j, ch := range s.RAM {
		lo, hi := uint64(ch.Addr), uint64(ch.Addr)+uint64(len(ch.Data))
		if lo&isa.PageMask != 0 || hi&isa.PageMask != 0 && hi != uint64(s.RAMSize) ||
			lo < prev || hi > uint64(s.RAMSize) {
			return fmt.Errorf("RAM chunk %d [%#x, %#x) is not whole pages in order within %#x bytes of RAM",
				j, lo, hi, s.RAMSize)
		}
		prev = hi
	}
	return nil
}

// DefaultLRUBudget is the decoded-segment cache budget a lazy replay
// session gets when the caller does not choose one: enough to keep a
// working set of event batches plus a few snapshots hot, far below the
// cost of materializing a long trace.
const DefaultLRUBudget = 64 << 20

// LazyTrace is a v3 trace opened through its seek index: segment
// metadata and checkpoint stubs stay resident, while event batches and
// snapshot payloads are decoded on demand and cached in an LRU with a
// configurable byte budget. It is the one form every Replayer runs on,
// so a replay session holds O(LRU budget) of trace data however long
// the recording is — the replay-side counterpart of the streaming
// recorder's O(segment) bound. Event and checkpoint access can fail
// (disk I/O, a corrupt segment).
type LazyTrace struct {
	sr     *SegmentReader
	closer io.Closer // the underlying file for OpenSourceFile

	// Event geometry, computed from the index alone: evSegs[k] is the
	// segment position of the k-th event batch, evBase[k] the global
	// index of its first event.
	evSegs []int
	evBase []int
	total  int

	// inputOffs memoizes, per event batch, the in-batch offsets of
	// EvInput events (nil = not yet scanned). True inputs are rare, so
	// this stays a few ints however large the trace.
	inputOffs [][]int32

	// Checkpoint stubs (recording order == Instr order) plus live
	// checkpoints inserted during the session.
	cps []lazyCheckpoint

	cache *segLRU
}

// CheckpointMeta is the always-resident description of one checkpoint:
// everything the Replayer needs for seeking decisions without
// materializing the snapshot itself.
type CheckpointMeta struct {
	Index      int    // stable checkpoint id
	Instr      uint64 // timeline position
	Cycle      uint64
	EventIndex int  // events recorded before the snapshot
	Delta      bool // delta snapshot (restore walks the base chain)
}

// lazyCheckpoint is one checkpoint stub: recorded ones point at their
// segment, live ones (a user's full snapshots, a replayer's delta rungs)
// carry their snapshot directly.
type lazyCheckpoint struct {
	meta CheckpointMeta
	seg  int         // segment position; -1 for live checkpoints
	live *Checkpoint // non-nil for live checkpoints
}

// NewLazyTrace is the one trace opener. The header version selects the
// decoder: a v3 container opens lazily through its seek index, while a
// legacy v2 blob, which has no index, is decoded whole and transcoded to
// v3 in memory, so it replays on the same reader. budget is the
// decoded-segment cache bound in bytes; <= 0 selects DefaultLRUBudget.
func NewLazyTrace(r io.ReaderAt, size int64, budget int64) (*LazyTrace, error) {
	hdr := make([]byte, headerLen)
	if _, err := r.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("replay: reading trace header: %w", err)
	}
	ver, err := parseHeader(hdr)
	if err != nil {
		return nil, err
	}
	if ver == traceVersionV2 {
		var tr Trace
		if err := readTraceV2(io.NewSectionReader(r, int64(headerLen), size-int64(headerLen)), &tr); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := tr.Write(&buf); err != nil {
			return nil, err
		}
		r, size = bytes.NewReader(buf.Bytes()), int64(buf.Len())
	}
	sr, err := NewSegmentReader(r, size)
	if err != nil {
		return nil, err
	}
	if budget <= 0 {
		budget = DefaultLRUBudget
	}
	lt := &LazyTrace{sr: sr, cache: newSegLRU(budget)}
	events := 0
	for i, si := range sr.segs {
		switch {
		case si.IsEvents():
			// A negative claimed count would fail DecodeEvents anyway, but
			// here it would first corrupt the monotonic event-base table
			// the binary searches assume.
			if si.Events < 0 {
				return nil, fmt.Errorf("replay: event segment %d claims %d events", i, si.Events)
			}
			lt.evSegs = append(lt.evSegs, i)
			lt.evBase = append(lt.evBase, events)
			events += si.Events
		case si.IsSnapshot():
			lt.cps = append(lt.cps, lazyCheckpoint{
				seg: i,
				meta: CheckpointMeta{
					Index: si.Checkpoint, Instr: si.Instr, Cycle: si.Cycle,
					// Streamed containers flush every pending event before
					// a snapshot and Trace.Write interleaves batches up to
					// cp.EventIndex, so the events preceding this segment
					// are exactly the events recorded before the snapshot.
					EventIndex: events,
					Delta:      si.Kind == segDelta,
				},
			})
		}
	}
	lt.total = events
	lt.inputOffs = make([][]int32, len(lt.evSegs))
	if len(lt.cps) == 0 {
		return nil, fmt.Errorf("replay: trace has no checkpoints")
	}
	for i := 1; i < len(lt.cps); i++ {
		if lt.cps[i].meta.Instr < lt.cps[i-1].meta.Instr {
			return nil, fmt.Errorf("replay: checkpoint segments out of timeline order")
		}
	}
	return lt, nil
}

// OpenSourceFile opens a trace file for replay through NewLazyTrace,
// with resident memory bounded by the LRU budget (<= 0 selects
// DefaultLRUBudget). Close releases the file.
func OpenSourceFile(path string, budget int64) (*LazyTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	lt, err := NewLazyTrace(f, fi.Size(), budget)
	if err != nil {
		f.Close()
		return nil, err
	}
	lt.closer = f
	return lt, nil
}

// Close releases the underlying file (when opened through
// OpenSourceFile) and drops the cache.
func (lt *LazyTrace) Close() error {
	lt.cache.drop()
	if lt.closer != nil {
		return lt.closer.Close()
	}
	return nil
}

// Reader exposes the underlying segment reader (per-segment stats,
// tooling).
func (lt *LazyTrace) Reader() *SegmentReader { return lt.sr }

// ResidentBytes reports the decoded segment bytes currently cached.
func (lt *LazyTrace) ResidentBytes() int64 { return lt.cache.resident }

// MaxResidentBytes reports the cache's high-water mark — the bound the
// bounded-memory replay test pins.
func (lt *LazyTrace) MaxResidentBytes() int64 { return lt.cache.maxResident }

// Faults reports how many segment decodes the cache performed (cold
// misses plus re-faults after eviction).
func (lt *LazyTrace) Faults() int64 { return lt.cache.faults }

// Meta describes how to rebuild the recorded target.
func (lt *LazyTrace) Meta() TraceMeta { return lt.sr.meta }

// StartInstr is the instruction count at the trace beginning.
func (lt *LazyTrace) StartInstr() uint64 { return lt.cps[0].meta.Instr }

// End returns the end-of-recording seal.
func (lt *LazyTrace) End() (uint64, uint64, int, uint64) { return lt.sr.End() }

// NumEvents is the total recorded event count.
func (lt *LazyTrace) NumEvents() int { return lt.total }

// eventSeg returns the position k (into evSegs) of the batch holding
// global event i.
func (lt *LazyTrace) eventSeg(i int) int {
	k := sort.Search(len(lt.evBase), func(k int) bool { return lt.evBase[k] > i })
	return k - 1
}

// events materializes batch k through the cache.
func (lt *LazyTrace) events(k int) ([]Event, error) {
	seg := lt.evSegs[k]
	if v, ok := lt.cache.get(seg); ok {
		return v.([]Event), nil
	}
	batch, err := lt.sr.DecodeEvents(seg)
	if err != nil {
		return nil, err
	}
	if lt.inputOffs[k] == nil {
		offs := []int32{}
		for j := range batch {
			if batch[j].Kind == EvInput {
				offs = append(offs, int32(j))
			}
		}
		lt.inputOffs[k] = offs
	}
	lt.cache.put(seg, batch, eventsSize(batch))
	return batch, nil
}

// Event returns timeline entry i, 0 <= i < NumEvents().
func (lt *LazyTrace) Event(i int) (Event, error) {
	if i < 0 || i >= lt.total {
		return Event{}, fmt.Errorf("replay: event %d out of range (%d)", i, lt.total)
	}
	k := lt.eventSeg(i)
	batch, err := lt.events(k)
	if err != nil {
		return Event{}, err
	}
	return batch[i-lt.evBase[k]], nil
}

// NextInput returns the index of the first EvInput event at or after
// from, or -1 when none remains. Batches whose input positions are
// already memoized are skipped without touching the disk; unknown
// batches decode once (through the cache) to learn them.
func (lt *LazyTrace) NextInput(from int) (int, error) {
	if from < 0 {
		from = 0
	}
	// eventSeg is -1 for a trace without event batches.
	for k := max(lt.eventSeg(from), 0); k < len(lt.evSegs); k++ {
		if lt.inputOffs[k] == nil {
			if _, err := lt.events(k); err != nil {
				return -1, err
			}
		}
		base := lt.evBase[k]
		for _, off := range lt.inputOffs[k] {
			if idx := base + int(off); idx >= from {
				return idx, nil
			}
		}
	}
	return -1, nil
}

// NumCheckpoints is the checkpoint count (recorded + live).
func (lt *LazyTrace) NumCheckpoints() int { return len(lt.cps) }

// CheckpointMeta is the resident view of checkpoint position i (sorted
// by Instr).
func (lt *LazyTrace) CheckpointMeta(i int) CheckpointMeta { return lt.cps[i].meta }

// Checkpoint materializes the checkpoint at position i: live
// checkpoints come straight from the overlay, recorded ones decode
// through the cache.
func (lt *LazyTrace) Checkpoint(i int) (*Checkpoint, error) {
	if i < 0 || i >= len(lt.cps) {
		return nil, fmt.Errorf("replay: checkpoint position %d out of range (%d)", i, len(lt.cps))
	}
	lc := &lt.cps[i]
	if lc.live != nil {
		return lc.live, nil
	}
	if v, ok := lt.cache.get(lc.seg); ok {
		return v.(*Checkpoint), nil
	}
	cp, err := lt.sr.DecodeCheckpoint(lc.seg)
	if err != nil {
		return nil, err
	}
	lt.cache.put(lc.seg, cp, checkpointSize(cp))
	return cp, nil
}

// ByIndex maps a stable checkpoint id to its position, -1 when absent.
func (lt *LazyTrace) ByIndex(id int) int {
	for i := range lt.cps {
		if lt.cps[i].meta.Index == id {
			return i
		}
	}
	return -1
}

// FreshIndex returns an unused stable checkpoint id.
func (lt *LazyTrace) FreshIndex() int {
	max := -1
	for i := range lt.cps {
		if lt.cps[i].meta.Index > max {
			max = lt.cps[i].meta.Index
		}
	}
	return max + 1
}

// InsertCheckpoint adds a live (session-created) checkpoint whose Index
// came from FreshIndex: a full snapshot, or a delta against a
// checkpoint already present. Live checkpoints live outside the cache
// (they have no segment to re-fault from) in the stub list, sorted by
// position; one inserted at the position of others goes after them.
func (lt *LazyTrace) InsertCheckpoint(cp Checkpoint) {
	stored := cp
	i := sort.Search(len(lt.cps), func(i int) bool {
		return lt.cps[i].meta.Instr > cp.Instr
	})
	lt.cps = append(lt.cps, lazyCheckpoint{})
	copy(lt.cps[i+1:], lt.cps[i:])
	lt.cps[i] = lazyCheckpoint{
		seg:  -1,
		live: &stored,
		meta: CheckpointMeta{
			Index: cp.Index, Instr: cp.Instr, Cycle: cp.Cycle,
			EventIndex: cp.EventIndex, Delta: cp.Delta,
		},
	}
}

// RemoveCheckpoint drops the live checkpoint with stable id. Recorded
// checkpoints and unknown ids are left alone. The caller must hold no
// other live delta taken against it.
func (lt *LazyTrace) RemoveCheckpoint(id int) {
	if i := lt.ByIndex(id); i >= 0 && lt.cps[i].live != nil {
		lt.cps = slices.Delete(lt.cps, i, i+1)
	}
}

// nearestCheckpointIdx returns the position of the latest checkpoint
// whose instruction count is at most pos (binary search over the
// resident metadata; position 0 always exists for a valid trace).
func nearestCheckpointIdx(lt *LazyTrace, pos uint64) int {
	i := sort.Search(len(lt.cps), func(i int) bool {
		return lt.cps[i].meta.Instr > pos
	})
	if i > 0 {
		return i - 1
	}
	return 0
}

// eventsSize estimates the resident bytes of a decoded event batch.
func eventsSize(batch []Event) int64 {
	n := int64(len(batch)) * 48
	for i := range batch {
		n += int64(len(batch[i].Data))
	}
	return n
}

// checkpointSize estimates the resident bytes of a decoded snapshot:
// the RAM payload dominates, everything else is a fixed-cost guess.
func checkpointSize(cp *Checkpoint) int64 {
	n := int64(16 << 10)
	if cp.Machine != nil {
		for _, ch := range cp.Machine.RAM {
			n += int64(len(ch.Data))
		}
		n += int64(len(cp.Machine.Console))
	}
	return n
}

// segLRU caches decoded segments under a byte budget. When an insert
// pushes residency past the budget the least-recently-used entries are
// dropped; the newest entry always stays, so a single segment larger
// than the budget is held alone rather than thrashing forever.
type segLRU struct {
	budget      int64
	resident    int64
	maxResident int64
	faults      int64
	entries     map[int]*segEntry
	head, tail  *segEntry // head = most recent
}

type segEntry struct {
	seg        int
	val        any
	size       int64
	prev, next *segEntry
}

func newSegLRU(budget int64) *segLRU {
	return &segLRU{budget: budget, entries: map[int]*segEntry{}}
}

func (c *segLRU) get(seg int) (any, bool) {
	e, ok := c.entries[seg]
	if !ok {
		return nil, false
	}
	c.unlink(e)
	c.pushFront(e)
	return e.val, true
}

func (c *segLRU) put(seg int, val any, size int64) {
	c.faults++
	if e, ok := c.entries[seg]; ok {
		c.resident += size - e.size
		e.val, e.size = val, size
		c.unlink(e)
		c.pushFront(e)
	} else {
		e = &segEntry{seg: seg, val: val, size: size}
		c.entries[seg] = e
		c.resident += size
		c.pushFront(e)
	}
	if c.resident > c.maxResident {
		c.maxResident = c.resident
	}
	for c.resident > c.budget && c.tail != nil && c.tail != c.head {
		c.evict(c.tail)
	}
}

func (c *segLRU) evict(e *segEntry) {
	c.unlink(e)
	delete(c.entries, e.seg)
	c.resident -= e.size
}

func (c *segLRU) drop() {
	c.entries = map[int]*segEntry{}
	c.head, c.tail = nil, nil
	c.resident = 0
}

func (c *segLRU) pushFront(e *segEntry) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *segLRU) unlink(e *segEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if c.head == e {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if c.tail == e {
		c.tail = e.prev
	}
}
