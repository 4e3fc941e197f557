package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"topk/internal/list"
)

// The wire codec of the HTTP data plane: every message travels as one
// length-prefixed little-endian frame,
//
//	[1 byte kind code][4 bytes LE payload length][payload]
//
// with fixed-width scalars in the payload (u32 positions/items/counts,
// IEEE-754 bits for scores). Scores round-trip bit-exactly, including the
// +Inf best-position piggyback. Batch frames nest one level: the payload
// is a u32 message count followed by that many inner frames.
//
// Every /rpc body travels under ContentTypeBinary; the control plane
// (sessions, stats, filters) and error payloads speak JSON.

// Content types of the data plane and of the JSON control plane.
const (
	ContentTypeBinary = "application/x-topk-binary"
	ContentTypeJSON   = "application/json"
)

// MaxBatch bounds the inner messages of one batch frame — far above any
// real round (a TA round batches m-1 lookups per owner) but low enough
// that a corrupt count cannot drive a huge allocation.
const MaxBatch = 1 << 20

// Frame kind codes. These are wire format: never renumber.
const (
	codeSorted byte = 1 + iota
	codeLookup
	codeProbe
	codeMark
	codeTopK
	codeAbove
	codeFetch
	codeBatch
	codeUpdate
)

// kindCode maps a Kind to its frame byte.
func kindCode(k Kind) (byte, error) {
	switch k {
	case KindSorted:
		return codeSorted, nil
	case KindLookup:
		return codeLookup, nil
	case KindProbe:
		return codeProbe, nil
	case KindMark:
		return codeMark, nil
	case KindTopK:
		return codeTopK, nil
	case KindAbove:
		return codeAbove, nil
	case KindFetch:
		return codeFetch, nil
	case KindBatch:
		return codeBatch, nil
	case KindUpdate:
		return codeUpdate, nil
	default:
		return 0, fmt.Errorf("transport: unknown kind %q", k)
	}
}

// Flag bits of the one-byte flag fields.
const (
	flagHasPos    byte = 1 << 0 // LookupResp carries a position
	flagExhausted byte = 1 << 0 // ProbeResp/MarkResp: list fully seen
	flagEmpty     byte = 1 << 1 // ProbeResp: piggyback only, no entry
	flagApplied   byte = 1 << 0 // UpdateResp: the batch was applied (not a duplicate)
)

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// appendStr writes a u32-length-prefixed UTF-8 string.
func appendStr(b []byte, s string) []byte {
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendEntry(b []byte, e list.Entry) []byte {
	b = appendU32(b, uint32(e.Item))
	return appendF64(b, e.Score)
}

// appendFrame writes one [code][len][payload] frame, where payload is
// produced by fill appending to the buffer — the length prefix is
// backfilled so no intermediate buffer is needed.
func appendFrame(dst []byte, code byte, fill func([]byte) ([]byte, error)) ([]byte, error) {
	dst = append(dst, code)
	lenAt := len(dst)
	dst = appendU32(dst, 0)
	body := len(dst)
	dst, err := fill(dst)
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-body))
	return dst, nil
}

// AppendRequestBinary appends req as one binary frame.
func AppendRequestBinary(dst []byte, req Request) ([]byte, error) {
	code, err := kindCode(req.Kind())
	if err != nil {
		return nil, err
	}
	return appendFrame(dst, code, func(b []byte) ([]byte, error) {
		switch r := req.(type) {
		case SortedReq:
			return appendU32(b, uint32(r.Pos)), nil
		case LookupReq:
			b = appendU32(b, uint32(r.Item))
			var f byte
			if r.WantPos {
				f = flagHasPos
			}
			return append(b, f), nil
		case ProbeReq:
			return b, nil
		case MarkReq:
			return appendU32(b, uint32(r.Item)), nil
		case TopKReq:
			return appendU32(b, uint32(r.K)), nil
		case AboveReq:
			return appendF64(b, r.T), nil
		case FetchReq:
			b = appendU32(b, uint32(len(r.Items)))
			for _, d := range r.Items {
				b = appendU32(b, uint32(d))
			}
			return b, nil
		case UpdateReq:
			b = appendStr(b, r.Feed)
			b = appendU64(b, r.Seq)
			b = appendU32(b, uint32(len(r.Updates)))
			for _, u := range r.Updates {
				b = appendU32(b, uint32(u.Item))
				b = appendF64(b, u.Delta)
			}
			return b, nil
		case BatchReq:
			if len(r.Reqs) > MaxBatch {
				return nil, fmt.Errorf("transport: batch of %d exceeds limit %d", len(r.Reqs), MaxBatch)
			}
			b = appendU32(b, uint32(len(r.Reqs)))
			for _, inner := range r.Reqs {
				if inner.Kind() == KindBatch {
					return nil, fmt.Errorf("transport: batches must not nest")
				}
				var err error
				if b, err = AppendRequestBinary(b, inner); err != nil {
					return nil, err
				}
			}
			return b, nil
		default:
			return nil, fmt.Errorf("transport: unknown request type %T", req)
		}
	})
}

// AppendResponseBinary appends resp as one binary frame, tagged with the
// kind of the request it answers.
func AppendResponseBinary(dst []byte, resp Response) ([]byte, error) {
	kind, err := responseKind(resp)
	if err != nil {
		return nil, err
	}
	code, err := kindCode(kind)
	if err != nil {
		return nil, err
	}
	return appendFrame(dst, code, func(b []byte) ([]byte, error) {
		switch r := resp.(type) {
		case SortedResp:
			return appendEntry(b, r.Entry), nil
		case LookupResp:
			var f byte
			if r.HasPos {
				f = flagHasPos
			}
			b = append(b, f)
			b = appendF64(b, r.Score)
			if r.HasPos {
				b = appendU32(b, uint32(r.Pos))
			}
			return b, nil
		case ProbeResp:
			var f byte
			if r.Exhausted {
				f |= flagExhausted
			}
			if r.Empty {
				f |= flagEmpty
			}
			b = append(b, f)
			b = appendF64(b, r.BestScore)
			if !r.Empty {
				b = appendEntry(b, r.Entry)
				b = appendU32(b, uint32(r.Pos))
			}
			return b, nil
		case MarkResp:
			var f byte
			if r.Exhausted {
				f = flagExhausted
			}
			b = append(b, f)
			b = appendF64(b, r.Score)
			b = appendF64(b, r.BestScore)
			return appendU32(b, uint32(r.Pos)), nil
		case TopKResp:
			b = appendU32(b, uint32(len(r.Entries)))
			for _, e := range r.Entries {
				b = appendEntry(b, e)
			}
			return b, nil
		case AboveResp:
			b = appendU32(b, uint32(len(r.Entries)))
			for _, e := range r.Entries {
				b = appendEntry(b, e)
			}
			return b, nil
		case FetchResp:
			b = appendU32(b, uint32(len(r.Scores)))
			for _, s := range r.Scores {
				b = appendF64(b, s)
			}
			return b, nil
		case UpdateResp:
			var f byte
			if r.Applied {
				f = flagApplied
			}
			b = append(b, f)
			b = appendU64(b, r.Version)
			b = appendU32(b, uint32(len(r.Crossings)))
			for _, q := range r.Crossings {
				b = appendStr(b, q)
			}
			return b, nil
		case BatchResp:
			if len(r.Resps) > MaxBatch {
				return nil, fmt.Errorf("transport: batch of %d exceeds limit %d", len(r.Resps), MaxBatch)
			}
			b = appendU32(b, uint32(len(r.Resps)))
			for _, inner := range r.Resps {
				if _, ok := inner.(BatchResp); ok {
					return nil, fmt.Errorf("transport: batches must not nest")
				}
				var err error
				if b, err = AppendResponseBinary(b, inner); err != nil {
					return nil, err
				}
			}
			return b, nil
		default:
			return nil, fmt.Errorf("transport: unknown response type %T", resp)
		}
	})
}

// reader consumes one frame payload with bounds checking; every take
// fails cleanly on truncated input instead of panicking.
type reader struct {
	b []byte
}

func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || len(r.b) < n {
		return nil, fmt.Errorf("transport: truncated frame: need %d bytes, have %d", n, len(r.b))
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out, nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *reader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// str reads a u32-length-prefixed string; the length is bounds-checked
// against the remaining payload by take.
func (r *reader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	b, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (r *reader) f64() (float64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), nil
}

func (r *reader) byte() (byte, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *reader) entry() (list.Entry, error) {
	item, err := r.u32()
	if err != nil {
		return list.Entry{}, err
	}
	score, err := r.f64()
	if err != nil {
		return list.Entry{}, err
	}
	return list.Entry{Item: list.ItemID(int32(item)), Score: score}, nil
}

// count reads a u32 element count and sanity-checks it against the bytes
// actually present (each element occupies at least minSize bytes), so a
// corrupt count cannot drive a huge allocation.
func (r *reader) count(minSize int) (int, error) {
	n, err := r.u32()
	if err != nil {
		return 0, err
	}
	if int64(n)*int64(minSize) > int64(len(r.b)) {
		return 0, fmt.Errorf("transport: frame count %d exceeds payload", n)
	}
	return int(n), nil
}

// frame splits one [code][len][payload] frame off b.
func frame(b []byte) (code byte, payload, rest []byte, err error) {
	if len(b) < 5 {
		return 0, nil, nil, fmt.Errorf("transport: truncated frame header (%d bytes)", len(b))
	}
	n := binary.LittleEndian.Uint32(b[1:5])
	if uint64(n) > uint64(len(b)-5) {
		return 0, nil, nil, fmt.Errorf("transport: frame length %d exceeds body", n)
	}
	return b[0], b[5 : 5+n], b[5+n:], nil
}

// DecodeRequestBinary decodes exactly one request frame; trailing bytes
// are an error (an HTTP body carries one message).
func DecodeRequestBinary(b []byte) (Request, error) {
	req, rest, err := decodeRequestFrame(b, true)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("transport: %d trailing bytes after request frame", len(rest))
	}
	return req, nil
}

func decodeRequestFrame(b []byte, allowBatch bool) (Request, []byte, error) {
	code, payload, rest, err := frame(b)
	if err != nil {
		return nil, nil, err
	}
	r := reader{b: payload}
	var req Request
	switch code {
	case codeSorted:
		pos, err := r.u32()
		if err != nil {
			return nil, nil, err
		}
		req = SortedReq{Pos: int(int32(pos))}
	case codeLookup:
		item, err := r.u32()
		if err != nil {
			return nil, nil, err
		}
		f, err := r.byte()
		if err != nil {
			return nil, nil, err
		}
		req = LookupReq{Item: list.ItemID(int32(item)), WantPos: f&flagHasPos != 0}
	case codeProbe:
		req = ProbeReq{}
	case codeMark:
		item, err := r.u32()
		if err != nil {
			return nil, nil, err
		}
		req = MarkReq{Item: list.ItemID(int32(item))}
	case codeTopK:
		k, err := r.u32()
		if err != nil {
			return nil, nil, err
		}
		req = TopKReq{K: int(int32(k))}
	case codeAbove:
		t, err := r.f64()
		if err != nil {
			return nil, nil, err
		}
		req = AboveReq{T: t}
	case codeFetch:
		n, err := r.count(4)
		if err != nil {
			return nil, nil, err
		}
		// n == 0 decodes to a nil slice, so an empty fetch round-trips to
		// a DeepEqual-identical message.
		var items []list.ItemID
		for i := 0; i < n; i++ {
			v, err := r.u32()
			if err != nil {
				return nil, nil, err
			}
			items = append(items, list.ItemID(int32(v)))
		}
		req = FetchReq{Items: items}
	case codeUpdate:
		feed, err := r.str()
		if err != nil {
			return nil, nil, err
		}
		seq, err := r.u64()
		if err != nil {
			return nil, nil, err
		}
		n, err := r.count(12)
		if err != nil {
			return nil, nil, err
		}
		// n == 0 decodes to a nil slice, as for fetches.
		var ups []ScoreUpdate
		for i := 0; i < n; i++ {
			item, err := r.u32()
			if err != nil {
				return nil, nil, err
			}
			delta, err := r.f64()
			if err != nil {
				return nil, nil, err
			}
			ups = append(ups, ScoreUpdate{Item: list.ItemID(int32(item)), Delta: delta})
		}
		req = UpdateReq{Feed: feed, Seq: seq, Updates: ups}
	case codeBatch:
		if !allowBatch {
			return nil, nil, fmt.Errorf("transport: batches must not nest")
		}
		n, err := r.count(5)
		if err != nil {
			return nil, nil, err
		}
		if n > MaxBatch {
			return nil, nil, fmt.Errorf("transport: batch of %d exceeds limit %d", n, MaxBatch)
		}
		var reqs []Request
		inner := r.b
		for i := 0; i < n; i++ {
			var one Request
			if one, inner, err = decodeRequestFrame(inner, false); err != nil {
				return nil, nil, fmt.Errorf("transport: batch[%d]: %w", i, err)
			}
			reqs = append(reqs, one)
		}
		r.b = inner
		req = BatchReq{Reqs: reqs}
	default:
		return nil, nil, fmt.Errorf("transport: unknown request code %d", code)
	}
	if len(r.b) != 0 {
		return nil, nil, fmt.Errorf("transport: %d trailing payload bytes in %d frame", len(r.b), code)
	}
	return req, rest, nil
}

// DecodeResponseBinary decodes exactly one response frame.
func DecodeResponseBinary(b []byte) (Response, error) {
	resp, rest, err := decodeResponseFrame(b, true)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("transport: %d trailing bytes after response frame", len(rest))
	}
	return resp, nil
}

func decodeResponseFrame(b []byte, allowBatch bool) (Response, []byte, error) {
	code, payload, rest, err := frame(b)
	if err != nil {
		return nil, nil, err
	}
	r := reader{b: payload}
	var resp Response
	switch code {
	case codeSorted:
		e, err := r.entry()
		if err != nil {
			return nil, nil, err
		}
		resp = SortedResp{Entry: e}
	case codeLookup:
		f, err := r.byte()
		if err != nil {
			return nil, nil, err
		}
		score, err := r.f64()
		if err != nil {
			return nil, nil, err
		}
		lr := LookupResp{Score: score, HasPos: f&flagHasPos != 0}
		if lr.HasPos {
			pos, err := r.u32()
			if err != nil {
				return nil, nil, err
			}
			lr.Pos = int(int32(pos))
		}
		resp = lr
	case codeProbe:
		f, err := r.byte()
		if err != nil {
			return nil, nil, err
		}
		best, err := r.f64()
		if err != nil {
			return nil, nil, err
		}
		pr := ProbeResp{BestScore: best, Exhausted: f&flagExhausted != 0, Empty: f&flagEmpty != 0}
		if !pr.Empty {
			if pr.Entry, err = r.entry(); err != nil {
				return nil, nil, err
			}
			pos, err := r.u32()
			if err != nil {
				return nil, nil, err
			}
			pr.Pos = int(int32(pos))
		}
		resp = pr
	case codeMark:
		f, err := r.byte()
		if err != nil {
			return nil, nil, err
		}
		score, err := r.f64()
		if err != nil {
			return nil, nil, err
		}
		best, err := r.f64()
		if err != nil {
			return nil, nil, err
		}
		pos, err := r.u32()
		if err != nil {
			return nil, nil, err
		}
		resp = MarkResp{Score: score, BestScore: best, Exhausted: f&flagExhausted != 0, Pos: int(int32(pos))}
	case codeTopK:
		entries, err := decodeEntries(&r)
		if err != nil {
			return nil, nil, err
		}
		resp = TopKResp{Entries: entries}
	case codeAbove:
		entries, err := decodeEntries(&r)
		if err != nil {
			return nil, nil, err
		}
		resp = AboveResp{Entries: entries}
	case codeFetch:
		n, err := r.count(8)
		if err != nil {
			return nil, nil, err
		}
		var scores []float64
		for i := 0; i < n; i++ {
			s, err := r.f64()
			if err != nil {
				return nil, nil, err
			}
			scores = append(scores, s)
		}
		resp = FetchResp{Scores: scores}
	case codeUpdate:
		f, err := r.byte()
		if err != nil {
			return nil, nil, err
		}
		version, err := r.u64()
		if err != nil {
			return nil, nil, err
		}
		n, err := r.count(4)
		if err != nil {
			return nil, nil, err
		}
		var crossings []string
		for i := 0; i < n; i++ {
			q, err := r.str()
			if err != nil {
				return nil, nil, err
			}
			crossings = append(crossings, q)
		}
		resp = UpdateResp{Applied: f&flagApplied != 0, Version: version, Crossings: crossings}
	case codeBatch:
		if !allowBatch {
			return nil, nil, fmt.Errorf("transport: batches must not nest")
		}
		n, err := r.count(5)
		if err != nil {
			return nil, nil, err
		}
		if n > MaxBatch {
			return nil, nil, fmt.Errorf("transport: batch of %d exceeds limit %d", n, MaxBatch)
		}
		var resps []Response
		inner := r.b
		for i := 0; i < n; i++ {
			var one Response
			if one, inner, err = decodeResponseFrame(inner, false); err != nil {
				return nil, nil, fmt.Errorf("transport: batch[%d]: %w", i, err)
			}
			resps = append(resps, one)
		}
		r.b = inner
		resp = BatchResp{Resps: resps}
	default:
		return nil, nil, fmt.Errorf("transport: unknown response code %d", code)
	}
	if len(r.b) != 0 {
		return nil, nil, fmt.Errorf("transport: %d trailing payload bytes in %d frame", len(r.b), code)
	}
	return resp, rest, nil
}

func decodeEntries(r *reader) ([]list.Entry, error) {
	n, err := r.count(12)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		// Preserve nil for empty entry lists: AboveResp builds its slice
		// with append, so nil is what the owner handler produced.
		return nil, nil
	}
	entries := make([]list.Entry, n)
	for i := range entries {
		if entries[i], err = r.entry(); err != nil {
			return nil, err
		}
	}
	return entries, nil
}

// bufPool recycles the encode/decode buffers of the HTTP hot path: one
// request body and one response body per exchange, reused across
// exchanges and sessions instead of reallocated.
var bufPool = sync.Pool{New: func() any { return new([]byte) }}

// getBuf returns an empty byte slice with pooled capacity; give it back
// with putBuf once nothing references it.
func getBuf() *[]byte {
	b := bufPool.Get().(*[]byte)
	*b = (*b)[:0]
	return b
}

func putBuf(b *[]byte) {
	// Oversized one-off buffers (a TPUT phase-2 tail) are dropped rather
	// than pinned in the pool forever.
	if cap(*b) <= 1<<20 {
		bufPool.Put(b)
	}
}
