package transport

import (
	"math"
	"reflect"
	"testing"

	"topk/internal/list"
)

// codecRequests is one of every request shape, including the edge
// values the binary codec must preserve (empty fetch, batches).
func codecRequests() []Request {
	return []Request{
		SortedReq{Pos: 1},
		SortedReq{Pos: 1 << 20},
		LookupReq{Item: 0},
		LookupReq{Item: 12345, WantPos: true},
		ProbeReq{},
		MarkReq{Item: 7},
		TopKReq{K: 64},
		AboveReq{T: 0.123456789123456789},
		AboveReq{T: 0},
		FetchReq{Items: []list.ItemID{0, 1, 99999}},
		FetchReq{Items: nil},
		UpdateReq{Feed: "trades", Seq: 1 << 40, Updates: []ScoreUpdate{{Item: 7, Delta: -0.125}, {Item: 0, Delta: 2.5}}},
		UpdateReq{Feed: "f", Seq: 1, Updates: nil},
		BatchReq{}, // empty batch
		BatchReq{Reqs: []Request{
			SortedReq{Pos: 3},
			LookupReq{Item: 5, WantPos: true},
			ProbeReq{},
			MarkReq{Item: 9},
			TopKReq{K: 2},
			AboveReq{T: 0.5},
			FetchReq{Items: []list.ItemID{4, 2}},
		}},
	}
}

// codecResponses is one of every response shape, including the +Inf
// best-position piggyback the codec must carry natively.
func codecResponses() []Response {
	e := list.Entry{Item: 42, Score: 0.7071067811865476}
	return []Response{
		SortedResp{Entry: e},
		LookupResp{Score: 0.25},
		LookupResp{Score: 0.25, Pos: 17, HasPos: true},
		ProbeResp{Entry: e, BestScore: math.Inf(1)},
		ProbeResp{Entry: e, BestScore: 0.5, Exhausted: true},
		ProbeResp{BestScore: math.Inf(1), Exhausted: true, Empty: true},
		MarkResp{Score: 0.125, BestScore: math.Inf(1)},
		MarkResp{Score: 0.125, BestScore: 0.25, Exhausted: true},
		TopKResp{Entries: []list.Entry{e, {Item: 1, Score: 0.5}}},
		AboveResp{Entries: nil},
		AboveResp{Entries: []list.Entry{e}},
		FetchResp{Scores: []float64{1, 0.5, 0.25}},
		FetchResp{Scores: nil},
		UpdateResp{Applied: true, Version: 9, Crossings: []string{"hot", "warm"}},
		UpdateResp{Applied: false, Version: 1 << 33, Crossings: nil},
		BatchResp{}, // empty batch
		BatchResp{Resps: []Response{
			SortedResp{Entry: e},
			LookupResp{Score: 0.1, Pos: 2, HasPos: true},
			ProbeResp{Entry: e, BestScore: math.Inf(1)},
			MarkResp{Score: 0.2, BestScore: 0.3},
			TopKResp{Entries: []list.Entry{e}},
			AboveResp{Entries: nil},
			FetchResp{Scores: []float64{0.9}},
		}},
	}
}

// TestBinaryRequestRoundTrip: every request must survive the binary
// codec bit-identically.
func TestBinaryRequestRoundTrip(t *testing.T) {
	for _, req := range codecRequests() {
		enc, err := AppendRequestBinary(nil, req)
		if err != nil {
			t.Fatalf("%#v: encode: %v", req, err)
		}
		dec, err := DecodeRequestBinary(enc)
		if err != nil {
			t.Fatalf("%#v: decode: %v", req, err)
		}
		if !reflect.DeepEqual(dec, req) {
			t.Errorf("binary round-trip changed request:\n got %#v\nwant %#v", dec, req)
		}
	}
}

// TestBinaryResponseRoundTrip: every response must survive the binary
// codec bit-identically, +Inf piggyback included.
func TestBinaryResponseRoundTrip(t *testing.T) {
	for _, resp := range codecResponses() {
		enc, err := AppendResponseBinary(nil, resp)
		if err != nil {
			t.Fatalf("%#v: encode: %v", resp, err)
		}
		dec, err := DecodeResponseBinary(enc)
		if err != nil {
			t.Fatalf("%#v: decode: %v", resp, err)
		}
		if !reflect.DeepEqual(dec, resp) {
			t.Errorf("binary round-trip changed response:\n got %#v\nwant %#v", dec, resp)
		}
	}
}

// TestBatchScalarsAndReplayability: a batch charges the sum of its inner
// messages, and is replayable only when every member is.
func TestBatchScalarsAndReplayability(t *testing.T) {
	b := BatchReq{Reqs: []Request{
		FetchReq{Items: []list.ItemID{1, 2, 3}}, // 3 scalars, replayable
		SortedReq{Pos: 1},                       // 0 scalars, replayable
	}}
	if got := b.RequestScalars(); got != 3 {
		t.Errorf("batch request scalars = %d, want 3", got)
	}
	if !b.Replayable() {
		t.Error("all-replayable batch not replayable")
	}
	b.Reqs = append(b.Reqs, ProbeReq{})
	if b.Replayable() {
		t.Error("batch containing a probe must not be replayable")
	}
	r := BatchResp{Resps: []Response{
		SortedResp{},                             // 2 scalars
		FetchResp{Scores: []float64{1, 2, 3, 4}}, // 4 scalars
		ProbeResp{BestScore: 1, Empty: true},     // 1 scalar
	}}
	if got := r.ResponseScalars(); got != 7 {
		t.Errorf("batch response scalars = %d, want 7", got)
	}
}

// TestBinaryRejectsMalformed: nested batches, kind mismatches, trailing
// garbage and truncations must error, never panic.
func TestBinaryRejectsMalformed(t *testing.T) {
	nested := BatchReq{Reqs: []Request{BatchReq{Reqs: []Request{ProbeReq{}}}}}
	if _, err := AppendRequestBinary(nil, nested); err == nil {
		t.Error("nested batch encoded")
	}
	ok, err := AppendRequestBinary(nil, SortedReq{Pos: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeRequestBinary(append(ok, 0xFF)); err == nil {
		t.Error("trailing byte accepted")
	}
	for cut := 0; cut < len(ok); cut++ {
		if _, err := DecodeRequestBinary(ok[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// A frame claiming more payload than present.
	bogus := []byte{1, 0xFF, 0xFF, 0xFF, 0x7F}
	if _, err := DecodeRequestBinary(bogus); err == nil {
		t.Error("oversized length prefix accepted")
	}
	// Unknown kind code.
	if _, err := DecodeRequestBinary([]byte{99, 0, 0, 0, 0}); err == nil {
		t.Error("unknown code accepted")
	}
	// A huge batch count over a tiny payload must fail the count check,
	// not allocate.
	huge := []byte{8, 4, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := DecodeRequestBinary(huge); err == nil {
		t.Error("bogus batch count accepted")
	}
}

// FuzzDecodeRequestBinary: arbitrary bytes must never panic the decoder,
// and anything that decodes must re-encode and decode to the same
// message.
func FuzzDecodeRequestBinary(f *testing.F) {
	for _, req := range codecRequests() {
		enc, err := AppendRequestBinary(nil, req)
		if err != nil {
			continue
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequestBinary(data)
		if err != nil {
			return
		}
		enc, err := AppendRequestBinary(nil, req)
		if err != nil {
			t.Fatalf("decoded %#v does not re-encode: %v", req, err)
		}
		back, err := DecodeRequestBinary(enc)
		if err != nil {
			t.Fatalf("re-encoded %#v does not decode: %v", req, err)
		}
		if !reflect.DeepEqual(back, req) {
			t.Fatalf("unstable round-trip: %#v -> %#v", req, back)
		}
	})
}

// FuzzDecodeResponseBinary mirrors the request fuzzer for responses.
func FuzzDecodeResponseBinary(f *testing.F) {
	for _, resp := range codecResponses() {
		enc, err := AppendResponseBinary(nil, resp)
		if err != nil {
			continue
		}
		f.Add(enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, err := DecodeResponseBinary(data)
		if err != nil {
			return
		}
		enc, err := AppendResponseBinary(nil, resp)
		if err != nil {
			t.Fatalf("decoded %#v does not re-encode: %v", resp, err)
		}
		back, err := DecodeResponseBinary(enc)
		if err != nil {
			t.Fatalf("re-encoded %#v does not decode: %v", resp, err)
		}
		if !reflect.DeepEqual(back, resp) {
			t.Fatalf("unstable round-trip: %#v -> %#v", resp, back)
		}
	})
}

// TestMaxSizeBatch: a batch at the MaxBatch bound must round-trip; one
// past it must be rejected by the encoder.
func TestMaxSizeBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("large allocation")
	}
	reqs := make([]Request, MaxBatch)
	for i := range reqs {
		reqs[i] = ProbeReq{}
	}
	enc, err := AppendRequestBinary(nil, BatchReq{Reqs: reqs})
	if err != nil {
		t.Fatalf("max-size batch rejected: %v", err)
	}
	dec, err := DecodeRequestBinary(enc)
	if err != nil {
		t.Fatalf("max-size batch decode: %v", err)
	}
	if got := len(dec.(BatchReq).Reqs); got != MaxBatch {
		t.Fatalf("max-size batch decoded to %d requests", got)
	}
	if _, err := AppendRequestBinary(nil, BatchReq{Reqs: append(reqs, ProbeReq{})}); err == nil {
		t.Error("over-limit batch encoded")
	}
}
