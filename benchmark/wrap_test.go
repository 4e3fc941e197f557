package main

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"topk/internal/bestpos"
	"topk/internal/list"
	"topk/internal/store/stripe"
	"topk/internal/transport"
)

// Reader shapes with every combination of the optional methods the
// program type-asserts on.
type bareReader struct{ list.Reader }

type seekingReader struct{ list.Reader }

func (seekingReader) SeekScore(float64) int { return 2 }

type validatingReader struct{ list.Reader }

func (validatingReader) Validate() error { return nil }

type seekingValidatingReader struct{ list.Reader }

func (seekingValidatingReader) SeekScore(float64) int { return 2 }
func (seekingValidatingReader) Validate() error       { return nil }

func TestReaderWrapperFidelity(t *testing.T) {
	ram, err := list.FromScores([]float64{0.9, 0.5, 0.7, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	db, err := list.NewDatabase(ram)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "one.stripe")
	if err := stripe.Create(path, db, stripe.WriteOptions{}); err != nil {
		t.Fatal(err)
	}
	sdb, err := stripe.Open(path, stripe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	disk, err := sdb.Database()
	if err != nil {
		t.Fatal(err)
	}

	tr := newTracer("dist")
	tr.on.Store(true)
	for name, in := range map[string]list.Reader{
		"ram":   ram,
		"disk":  disk.List(0),
		"bare":  bareReader{ram},
		"seek":  seekingReader{ram},
		"valid": validatingReader{ram},
		"both":  seekingValidatingReader{ram},
	} {
		w := wrapReader(in, &readerStat{}, tr)
		_, inSeek := in.(scoreSeeker)
		_, wSeek := w.(scoreSeeker)
		_, inValid := in.(validator)
		_, wValid := w.(validator)
		if inSeek != wSeek || inValid != wValid {
			t.Errorf("%s: inner SeekScore=%v Validate=%v, wrapper SeekScore=%v Validate=%v",
				name, inSeek, inValid, wSeek, wValid)
		}
		for p := 1; p <= in.Len(); p++ {
			if w.At(p) != in.At(p) {
				t.Errorf("%s: At(%d) differs", name, p)
			}
		}
		for d := range list.ItemID(in.Len()) {
			if w.ScoreOf(d) != in.ScoreOf(d) || w.PositionOf(d) != in.PositionOf(d) {
				t.Errorf("%s: item %d differs", name, d)
			}
		}
		if inSeek && w.(scoreSeeker).SeekScore(0.6) != in.(scoreSeeker).SeekScore(0.6) {
			t.Errorf("%s: SeekScore differs", name)
		}
	}
}

// Session shapes with every combination of the optional interfaces the
// dist runner asserts on.
type bareSession struct{ transport.Session }

type recoveringSession struct{ transport.Session }

func (recoveringSession) Recovery() transport.SessionRecovery { return transport.SessionRecovery{} }

func TestSessionWrapperFidelity(t *testing.T) {
	ctx := context.Background()
	cols, err := uniform(50, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	db, err := list.FromColumns(cols)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := transport.NewLoopback(db)
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	for i := range db.M() {
		srv, err := transport.NewServer(db, i)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	tr := newTracer("dist")
	hc, err := transport.Dial(ctx, transport.DialConfig{Topology: transport.SingleTopology(urls), Client: tracedClient(tr), HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()

	sessions := map[string]transport.Session{}
	for name, tp := range map[string]transport.Transport{"loopback": lb, "http": hc} {
		s, err := tp.Open(ctx, bestpos.BitArrayKind)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		sessions[name] = s
	}
	sessions["bare"] = bareSession{sessions["loopback"]}
	sessions["recovery"] = recoveringSession{sessions["loopback"]}

	for name, in := range sessions {
		w := wrapSession(in, tr, spanRef{})
		_, inRec := in.(transport.SpanRecording)
		_, wRec := w.(transport.SpanRecording)
		_, inRcv := in.(recoverer)
		_, wRcv := w.(recoverer)
		if inRec != wRec || inRcv != wRcv {
			t.Errorf("%s: inner SpanRecording=%v Recovery=%v, wrapper SpanRecording=%v Recovery=%v",
				name, inRec, inRcv, wRec, wRcv)
		}
		if w.ID() != in.ID() {
			t.Errorf("%s: ID differs", name)
		}
	}
}

func TestSidOf(t *testing.T) {
	for body, want := range map[string]string{
		`{"sid":"ab12-3","tracker":0}`: "ab12-3",
		`{"sid":"x"}`:                  "x",
		`{"query":"q"}`:                "",
		`{"sid":"unterminated`:         "",
	} {
		if got := sidOf([]byte(body)); got != want {
			t.Errorf("sidOf(%s) = %q, want %q", body, got, want)
		}
	}
}
