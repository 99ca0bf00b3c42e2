package replay

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"lvmm/internal/machine"
)

// Salvage recovers the usable prefix of a damaged v3 trace container: a
// recording cut short by a crashed or killed recorder, a torn copy, a
// filesystem that lost its tail. The container format makes this
// tractable by construction — every segment is self-delimiting and
// independently decodable — so salvage is a sequential scan that keeps
// every intact segment up to the first damage, then rewrites them as a
// fresh well-formed container: header, meta, the kept segments in their
// original byte form, an end seal, and a rebuilt seek index.
//
// When the original end seal survived, the output is a faithful rewrite
// (bit-identical to the input for an undamaged file) and replays with
// full verification. When it did not, a seal is synthesized — EndCycle
// one past the last recorded occurrence, stop reason "stop requested",
// digest zero — and the meta is marked Salvaged, which tells the
// replayer to verify the recorded event timeline but skip the final
// digest/clock/stop-reason checks that only a real seal can back.

// SalvageStats describes what a salvage pass recovered.
type SalvageStats struct {
	// SegmentsKept counts event and checkpoint segments carried into
	// the output.
	SegmentsKept int
	// Events and Checkpoints count the recovered timeline entries.
	Events      int
	Checkpoints int
	// TruncatedAt is the input offset of the first byte not carried
	// into the output (the end of the last intact segment, or the full
	// scanned length for a complete file).
	TruncatedAt int64
	// Damage describes what stopped the scan; empty when the input was
	// a complete sealed container.
	Damage string
	// Sealed reports that the original end seal was intact: the output
	// is a faithful rewrite, not a Salvaged-marked prefix.
	Sealed bool
}

// Probe describes how far a v3 trace container is readable. It is the
// diagnostic half of salvage: cmd/hxreplay uses it to turn a bare open
// failure on a truncated file into an actionable message.
type Probe struct {
	// Complete reports a fully sealed and indexed container.
	Complete bool
	// TruncatedAt is the offset of the first unusable byte.
	TruncatedAt int64
	// Damage describes what stopped the scan ("" when complete).
	Damage string
	// LastSegment names the last intact segment's kind ("" when none).
	LastSegment string
	// Segments, Events, and Checkpoints count the intact prefix.
	Segments    int
	Events      int
	Checkpoints int
	// HasMeta and HasEnd report which structural segments survived.
	HasMeta bool
	HasEnd  bool
}

// Salvageable reports whether SalvageTrace can recover a replayable
// prefix: the meta and at least one checkpoint must be intact.
func (p *Probe) Salvageable() bool {
	return p.HasMeta && p.Checkpoints > 0
}

// rawSeg is one kept segment: its original encoded body plus the index
// decorations recovered by decoding it.
type rawSeg struct {
	kind byte
	body []byte
	deco segDeco
}

// scanState is the result of scanning a v3 stream segment by segment,
// keeping everything intact before the first damage.
type scanState struct {
	meta    TraceMeta
	hasMeta bool
	end     *traceEnd

	segs []rawSeg
	cps  []cpLite

	events    int
	lastCycle uint64
	lastInstr uint64

	complete bool
	truncAt  int64
	damage   string
	lastKind string
}

// stop records what ended the scan.
func (st *scanState) stop(off int64, format string, args ...any) {
	st.truncAt = off
	st.damage = fmt.Sprintf(format, args...)
}

// scanV3 reads a v3 container sequentially, validating each segment and
// keeping the intact prefix. Damage never returns an error — it ends
// the scan and is described in the state; only a stream that is not a
// v3 trace at all fails.
func scanV3(r io.Reader) (*scanState, error) {
	magic := make([]byte, headerLen)
	if _, err := io.ReadFull(r, magic); err != nil {
		return nil, fmt.Errorf("replay: reading trace header: %w", err)
	}
	ver, err := parseHeader(magic)
	if err != nil {
		return nil, err
	}
	if ver != TraceVersion {
		return nil, fmt.Errorf("replay: salvage requires a v%d trace (file is version %d)", TraceVersion, ver)
	}

	st := &scanState{truncAt: int64(headerLen)}
	off := st.truncAt
	var hdr [9]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			st.stop(off, "file ends before the index segment (%v)", err)
			return st, nil
		}
		kind := hdr[0]
		n := binary.LittleEndian.Uint64(hdr[1:])
		if n > maxSegmentPayload {
			st.stop(off, "%s segment claims %d payload bytes", segKindName(kind), n)
			return st, nil
		}
		body, err := readBody(r, n)
		if err != nil {
			st.stop(off, "truncated %s segment (%v)", segKindName(kind), err)
			return st, nil
		}
		switch kind {
		case segMeta:
			if st.hasMeta {
				st.stop(off, "duplicate meta segment")
				return st, nil
			}
			if err := decodeSegment(body, &st.meta); err != nil {
				st.stop(off, "corrupt meta segment (%v)", err)
				return st, nil
			}
			st.hasMeta = true
		case segEvents:
			var batch []Event
			if err := decodeSegment(body, &batch); err != nil {
				st.stop(off, "corrupt event batch (%v)", err)
				return st, nil
			}
			d := decoEvents(batch)
			st.segs = append(st.segs, rawSeg{kind: kind, body: body, deco: d})
			st.events += len(batch)
			if len(batch) > 0 {
				last := batch[len(batch)-1]
				if last.Cycle > st.lastCycle {
					st.lastCycle = last.Cycle
				}
				if last.Instr > st.lastInstr {
					st.lastInstr = last.Instr
				}
			}
		case segKeyframe, segDelta:
			var cp Checkpoint
			if err := decodeSegment(body, &cp); err != nil {
				st.stop(off, "corrupt %s segment (%v)", segKindName(kind), err)
				return st, nil
			}
			if (kind == segDelta) != cp.Delta {
				st.stop(off, "%s segment carries a checkpoint with delta=%v", segKindName(kind), cp.Delta)
				return st, nil
			}
			st.segs = append(st.segs, rawSeg{kind: kind, body: body, deco: decoCheckpoint(&cp)})
			st.cps = append(st.cps, cpLite{Index: cp.Index, Base: cp.Base, Delta: cp.Delta, Instr: cp.Instr})
			if cp.Cycle > st.lastCycle {
				st.lastCycle = cp.Cycle
			}
			if cp.Instr > st.lastInstr {
				st.lastInstr = cp.Instr
			}
		case segEnd:
			if st.end != nil {
				st.stop(off, "duplicate end segment")
				return st, nil
			}
			var end traceEnd
			if err := decodeSegment(body, &end); err != nil {
				st.stop(off, "corrupt end segment (%v)", err)
				return st, nil
			}
			st.end = &end
		case segIndex:
			var idx []SegmentInfo
			if err := decodeSegment(body, &idx); err != nil {
				st.stop(off, "corrupt index segment (%v)", err)
				return st, nil
			}
			var tr [16]byte
			if _, err := io.ReadFull(r, tr[:]); err != nil {
				st.stop(off, "truncated trailer (%v)", err)
				return st, nil
			}
			if string(tr[:8]) != indexMagic {
				st.stop(off, "bad trailer magic")
				return st, nil
			}
			if st.end == nil {
				st.stop(off, "index segment before any end seal")
				return st, nil
			}
			st.complete = true
			st.truncAt = off + int64(9+len(body)) + 16
			st.lastKind = segKindName(kind)
			return st, nil
		default:
			st.stop(off, "unknown segment kind %d", kind)
			return st, nil
		}
		off += int64(9 + len(body))
		st.truncAt = off
		st.lastKind = segKindName(kind)
	}
}

// SalvageTrace scans a damaged v3 container from r and writes the
// recovered prefix to w as a fresh well-formed container. It fails —
// without writing anything — when the stream is not a v3 trace, when no
// intact meta or checkpoint precedes the damage, or when the surviving
// checkpoints cannot restore (broken delta chain, first checkpoint not
// a keyframe).
func SalvageTrace(r io.Reader, w io.Writer) (SalvageStats, error) {
	st, err := scanV3(r)
	if err != nil {
		return SalvageStats{}, err
	}
	stats := SalvageStats{
		SegmentsKept: len(st.segs),
		Events:       st.events,
		Checkpoints:  len(st.cps),
		TruncatedAt:  st.truncAt,
		Damage:       st.damage,
		Sealed:       st.end != nil,
	}
	if !st.hasMeta {
		return stats, fmt.Errorf("replay: salvage: no intact meta segment (%s at offset %d)", st.damage, st.truncAt)
	}
	if len(st.cps) == 0 {
		return stats, fmt.Errorf("replay: salvage: no intact checkpoint (%s at offset %d)", st.damage, st.truncAt)
	}
	if st.cps[0].Delta {
		return stats, fmt.Errorf("replay: salvage: first surviving checkpoint is a delta, not a keyframe")
	}
	if err := checkChains(st.cps); err != nil {
		return stats, fmt.Errorf("replay: salvage: %w", err)
	}

	meta := st.meta
	end := st.end
	if end == nil {
		// Synthesize a seal covering exactly the recovered prefix. The
		// cycle bound sits one past the last recorded occurrence so a
		// verifying replay re-executes every kept event; the digest and
		// stop reason are unknowable, which is what Salvaged declares.
		meta.Salvaged = true
		end = &traceEnd{
			EndCycle:  st.lastCycle + 1,
			EndInstr:  st.lastInstr,
			EndReason: int(machine.StopRequested),
		}
	}

	sw, err := newSegWriter(w)
	if err != nil {
		return stats, err
	}
	if err := sw.writeSegment(segMeta, meta, decoNone()); err != nil {
		return stats, err
	}
	for _, s := range st.segs {
		if err := sw.writeEncoded(s.kind, s.body, s.deco); err != nil {
			return stats, err
		}
	}
	if err := sw.writeSegment(segEnd, *end, decoNone()); err != nil {
		return stats, err
	}
	return stats, sw.finish()
}

// SalvageTraceFile salvages src into dst. dst is written atomically
// (temp file + rename) so a failed salvage never leaves a half-written
// container behind. A dst that names the src file under any path (a
// different spelling, a hard link) is refused before anything is
// written: the rename would replace the damaged input with its prefix.
func SalvageTraceFile(src, dst string) (SalvageStats, error) {
	in, err := os.Open(src)
	if err != nil {
		return SalvageStats{}, err
	}
	defer in.Close()
	if di, err := os.Stat(dst); err == nil {
		si, err := in.Stat()
		if err != nil {
			return SalvageStats{}, err
		}
		if os.SameFile(si, di) {
			return SalvageStats{}, fmt.Errorf("replay: salvage output %s would overwrite the damaged input %s", dst, src)
		}
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), ".salvage-*")
	if err != nil {
		return SalvageStats{}, err
	}
	stats, err := SalvageTrace(in, tmp)
	if err == nil {
		err = tmp.Close()
	} else {
		tmp.Close()
	}
	if err != nil {
		os.Remove(tmp.Name())
		return stats, err
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return stats, err
	}
	return stats, nil
}

// ProbeTraceFile scans path and reports how much of it is readable.
func ProbeTraceFile(path string) (*Probe, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := scanV3(f)
	if err != nil {
		return nil, err
	}
	return &Probe{
		Complete:    st.complete,
		TruncatedAt: st.truncAt,
		Damage:      st.damage,
		LastSegment: st.lastKind,
		Segments:    len(st.segs),
		Events:      st.events,
		Checkpoints: len(st.cps),
		HasMeta:     st.hasMeta,
		HasEnd:      st.end != nil,
	}, nil
}
