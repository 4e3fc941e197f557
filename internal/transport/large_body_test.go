package transport

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"topk/internal/bestpos"
	"topk/internal/gen"
	"topk/internal/list"
)

// midFlipGate flips one bit in the middle of every data-plane response
// body after the owner stamped its frame CRC, while flip is set.
type midFlipGate struct {
	inner http.Handler
	flip  atomic.Bool
}

func (g *midFlipGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !g.flip.Load() || !strings.HasPrefix(r.URL.Path, "/rpc/") {
		g.inner.ServeHTTP(w, r)
		return
	}
	rec := httptest.NewRecorder()
	g.inner.ServeHTTP(rec, r)
	body := rec.Body.Bytes()
	body[len(body)/2] ^= 0x08
	for k, vs := range rec.Result().Header {
		w.Header()[k] = vs
	}
	w.WriteHeader(rec.Code)
	_, _ = w.Write(body)
}

// TestLargeBodyNoAliasing: an above-scan answering ~80k entries (a body
// just under the pool's 1 MiB recycling limit) decodes into memory of
// its own — later exchanges that reuse the pooled read buffers leave its
// Entries unchanged — and a bit flipped deep inside such a body still
// fails its frame checksum as errCorruptFrame.
func TestLargeBodyNoAliasing(t *testing.T) {
	const n, m = 80_000, 2
	db := gen.MustGenerate(gen.Spec{Kind: gen.Uniform, N: n, M: m, Seed: 3})
	gates := make([]*midFlipGate, m)
	topo := make(Topology, m)
	for i := range topo {
		srv, err := NewServer(db, i)
		if err != nil {
			t.Fatal(err)
		}
		gates[i] = &midFlipGate{inner: srv.Handler()}
		ts := httptest.NewServer(gates[i])
		defer ts.Close()
		topo[i] = []string{ts.URL}
	}
	hc, err := Dial(context.Background(), DialConfig{Topology: topo, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()

	scan := func(owner int) []list.Entry {
		t.Helper()
		s, err := hc.Open(context.Background(), bestpos.BitArrayKind)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		resp, err := s.Do(context.Background(), owner, AboveReq{T: 0})
		if err != nil {
			t.Fatal(err)
		}
		return resp.(AboveResp).Entries
	}
	want := make([][]list.Entry, m)
	for i := range want {
		for p := 1; p <= n; p++ {
			want[i] = append(want[i], db.List(i).At(p))
		}
	}

	first := scan(0)
	if !reflect.DeepEqual(first, want[0]) {
		t.Fatalf("above-scan of owner 0 decoded %d entries, not the list's %d", len(first), n)
	}
	for r := 0; r < 3; r++ {
		if got := scan(1); !reflect.DeepEqual(got, want[1]) {
			t.Fatalf("above-scan of owner 1 decoded %d entries, not the list's %d", len(got), n)
		}
	}
	if !reflect.DeepEqual(first, want[0]) {
		t.Fatal("owner 0's decoded entries changed after later exchanges reused the pooled buffers")
	}

	gates[1].flip.Store(true)
	s, err := hc.Open(context.Background(), bestpos.BitArrayKind)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Do(context.Background(), 1, AboveReq{T: 0}); !errors.Is(err, errCorruptFrame) {
		t.Fatalf("bit flipped mid-body surfaced as %v, want errCorruptFrame", err)
	}
}
