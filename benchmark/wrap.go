package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"topk/internal/bestpos"
	"topk/internal/list"
	"topk/internal/transport"
)

// The wrappers below measure each layer from outside, at the seams the
// program already exposes. Each forwards every optional method the
// program type-asserts on, and implements it exactly when the wrapped
// value does, so wrapping never changes which code path runs:
//
//   - list.Reader: SeekScore (the owner's above-scan fast path) and
//     Validate (Database.Validate's deep check);
//   - transport.Session: transport.SpanRecording and Recovery (the dist
//     runner's tracing and recovery harvest).

// reader counts and samples the calls of one list.Reader.
type reader struct {
	in list.Reader
	st *readerStat
	tr *tracer
}

func (r *reader) Len() int { return r.in.Len() }

// start counts a call and returns its start time when it is sampled,
// -1 otherwise. The self-test's injected read delay runs inside the
// timed region.
func (r *reader) start() int64 {
	t0 := int64(-1)
	if r.st.hit() {
		t0 = nanotime()
	}
	if d := r.tr.inject.read; d > 0 {
		spin(d)
	}
	return t0
}

func (r *reader) stop(t0 int64) {
	if t0 >= 0 {
		r.st.record(t0)
	}
}

func (r *reader) At(p int) list.Entry {
	if !r.tr.on.Load() {
		return r.in.At(p)
	}
	t0 := r.start()
	e := r.in.At(p)
	r.stop(t0)
	return e
}

func (r *reader) PositionOf(d list.ItemID) int {
	if !r.tr.on.Load() {
		return r.in.PositionOf(d)
	}
	t0 := r.start()
	p := r.in.PositionOf(d)
	r.stop(t0)
	return p
}

func (r *reader) ScoreOf(d list.ItemID) float64 {
	if !r.tr.on.Load() {
		return r.in.ScoreOf(d)
	}
	t0 := r.start()
	s := r.in.ScoreOf(d)
	r.stop(t0)
	return s
}

type scoreSeeker interface{ SeekScore(t float64) int }

type validator interface{ Validate() error }

func (r *reader) seekScore(t float64) int {
	sk := r.in.(scoreSeeker)
	if !r.tr.on.Load() {
		return sk.SeekScore(t)
	}
	t0 := r.start()
	p := sk.SeekScore(t)
	r.stop(t0)
	return p
}

type seekReader struct{ *reader }

func (r seekReader) SeekScore(t float64) int { return r.seekScore(t) }

type validReader struct{ *reader }

func (r validReader) Validate() error { return r.in.(validator).Validate() }

type seekValidReader struct{ *reader }

func (r seekValidReader) SeekScore(t float64) int { return r.seekScore(t) }
func (r seekValidReader) Validate() error         { return r.in.(validator).Validate() }

// wrapDatabase wraps every list of db, each with its own tally; stripe
// names the layer the reads belong to, and single that one goroutine
// does all the reading. An untraced run (nil tr) gets db itself.
func wrapDatabase(db *list.Database, stripe, single bool, tr *tracer) (*list.Database, error) {
	if tr == nil {
		return db, nil
	}
	ls := db.Lists()
	for i, l := range ls {
		st := &readerStat{stripe: stripe, single: single}
		tr.mu.Lock()
		tr.readers = append(tr.readers, st)
		tr.mu.Unlock()
		ls[i] = wrapReader(l, st, tr)
	}
	return list.NewReaderDatabase(ls...)
}

func wrapReader(in list.Reader, st *readerStat, tr *tracer) list.Reader {
	r := &reader{in: in, st: st, tr: tr}
	_, seeks := in.(scoreSeeker)
	_, valid := in.(validator)
	switch {
	case seeks && valid:
		return seekValidReader{r}
	case seeks:
		return seekReader{r}
	case valid:
		return validReader{r}
	}
	return r
}

// tracedTransport opens a client span around Open and wraps every
// session it returns.
type tracedTransport struct {
	in transport.Transport
	tr *tracer
}

func wrapTransport(in transport.Transport, tr *tracer) transport.Transport {
	if tr == nil {
		return in
	}
	return &tracedTransport{in: in, tr: tr}
}

func (t *tracedTransport) M() int       { return t.in.M() }
func (t *tracedTransport) N() int       { return t.in.N() }
func (t *tracedTransport) Close() error { return t.in.Close() }

func (t *tracedTransport) Open(ctx context.Context, tracker bestpos.Kind) (transport.Session, error) {
	ref, ok := refFrom(ctx)
	if !ok {
		s, err := t.in.Open(ctx, tracker)
		if err != nil {
			return nil, err
		}
		return wrapSession(s, t.tr, spanRef{}), nil
	}
	t.tr.sessionCalls.Add(1)
	idx := ref.op.begin(ref.idx, layerClient, classSession)
	s, err := t.in.Open(withRef(ctx, ref.op, idx), tracker)
	ref.op.end(idx)
	if err != nil {
		return nil, err
	}
	return wrapSession(s, t.tr, ref), nil
}

// session opens one client span per Session call. root is the span of
// the operation that opened the session (zero when untraced): Close
// takes no context, so its span hangs off the root.
type session struct {
	in   transport.Session
	tr   *tracer
	root spanRef
}

type recoverer interface {
	Recovery() transport.SessionRecovery
}

type recordingSession struct{ *session }

func (s recordingSession) SetSpanRecorder(r *transport.SpanRecorder) {
	s.in.(transport.SpanRecording).SetSpanRecorder(r)
}

type recoverySession struct{ *session }

func (s recoverySession) Recovery() transport.SessionRecovery { return s.in.(recoverer).Recovery() }

type recordingRecoverySession struct{ *session }

func (s recordingRecoverySession) SetSpanRecorder(r *transport.SpanRecorder) {
	s.in.(transport.SpanRecording).SetSpanRecorder(r)
}
func (s recordingRecoverySession) Recovery() transport.SessionRecovery {
	return s.in.(recoverer).Recovery()
}

func wrapSession(in transport.Session, tr *tracer, root spanRef) transport.Session {
	s := &session{in: in, tr: tr, root: root}
	_, rec := in.(transport.SpanRecording)
	_, rcv := in.(recoverer)
	switch {
	case rec && rcv:
		return recordingRecoverySession{s}
	case rec:
		return recordingSession{s}
	case rcv:
		return recoverySession{s}
	}
	return s
}

func (s *session) ID() string             { return s.in.ID() }
func (s *session) Elapsed() time.Duration { return s.in.Elapsed() }

// enter opens a client span under the caller's span, if it has one.
func (s *session) enter(ctx context.Context, c class) (context.Context, spanRef, bool) {
	ref, ok := refFrom(ctx)
	if !ok {
		return ctx, spanRef{}, false
	}
	s.tr.sessionCalls.Add(1)
	idx := ref.op.begin(ref.idx, layerClient, c)
	return withRef(ctx, ref.op, idx), spanRef{op: ref.op, idx: idx}, true
}

func (s *session) Do(ctx context.Context, owner int, req transport.Request) (transport.Response, error) {
	ctx, sp, ok := s.enter(ctx, classRPC)
	resp, err := s.in.Do(ctx, owner, req)
	if ok {
		sp.op.end(sp.idx)
	}
	return resp, err
}

func (s *session) DoAll(ctx context.Context, calls []transport.Call) ([]transport.Response, error) {
	ctx, sp, ok := s.enter(ctx, classRPC)
	resps, err := s.in.DoAll(ctx, calls)
	if ok {
		sp.op.end(sp.idx)
	}
	return resps, err
}

func (s *session) Stats(ctx context.Context, owner int) (transport.OwnerStats, error) {
	ctx, sp, ok := s.enter(ctx, classStats)
	st, err := s.in.Stats(ctx, owner)
	if ok {
		sp.op.end(sp.idx)
	}
	return st, err
}

func (s *session) Close() error {
	if s.root.op == nil {
		return s.in.Close()
	}
	s.tr.sessionCalls.Add(1)
	idx := s.root.op.begin(s.root.idx, layerClient, classSession)
	s.tr.closing.Store(s.in.ID(), spanRef{op: s.root.op, idx: idx})
	err := s.in.Close()
	s.tr.closing.Delete(s.in.ID())
	s.root.op.end(idx)
	return err
}

// headerSpan links an owner handler span to the client round trip that
// sent it: "<trace ID>.<span index>". Owners ignore unknown headers.
const headerSpan = "X-Topk-Bench-Span"

// roundTripper opens a wire span per HTTP round trip of a traced
// operation. The span ends when the response body reaches EOF or is
// closed, so body transfer is wire time and decoding is client time.
type roundTripper struct {
	in http.RoundTripper
	tr *tracer
	ct *httptrace.ClientTrace
}

// tracedClient returns the http.Client a traced cluster dials with: the
// pool tuning the transport package uses for a nil DialConfig.Client,
// behind the wire wrapper. Untraced runs pass nil and get the
// program's own default.
func tracedClient(tr *tracer) *http.Client {
	if tr == nil {
		return nil
	}
	in := &http.Transport{
		Proxy:               http.ProxyFromEnvironment,
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
	}
	rt := &roundTripper{in: in, tr: tr}
	rt.ct = &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
		if !info.Reused {
			tr.newConns.Add(1)
		}
	}}
	return &http.Client{Transport: rt}
}

// CloseIdleConnections forwards http.Client.CloseIdleConnections.
func (t *roundTripper) CloseIdleConnections() {
	if c, ok := t.in.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

func (t *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := refFrom(req.Context())
	if !ok && req.URL.Path == "/session/close" {
		ref, ok = t.closingRef(req)
	}
	if !ok {
		return t.in.RoundTrip(req)
	}
	cls := classOf(req.URL.Path)
	t.tr.requests[cls].Add(1)
	t.tr.reqBytes.Add(max(req.ContentLength, 0))
	idx := ref.op.begin(ref.idx, layerWire, cls)
	if d := t.tr.inject.wire; d > 0 {
		spin(d)
	}
	out := req.Clone(httptrace.WithClientTrace(req.Context(), t.ct))
	out.Header.Set(headerSpan, strconv.FormatUint(ref.op.id, 10)+"."+strconv.Itoa(int(idx)))
	resp, err := t.in.RoundTrip(out)
	if err != nil {
		ref.op.end(idx)
		return nil, err
	}
	resp.Body = &spanBody{rc: resp.Body, tr: t.tr, ref: spanRef{op: ref.op, idx: idx}}
	return resp, nil
}

// closingRef finds the Close span of the session a context-less
// /session/close request belongs to.
func (t *roundTripper) closingRef(req *http.Request) (spanRef, bool) {
	if req.GetBody == nil {
		return spanRef{}, false
	}
	body, err := req.GetBody()
	if err != nil {
		return spanRef{}, false
	}
	defer body.Close()
	b, err := io.ReadAll(body)
	if err != nil {
		return spanRef{}, false
	}
	v, ok := t.tr.closing.Load(sidOf(b))
	if !ok {
		return spanRef{}, false
	}
	return v.(spanRef), true
}

// sidOf extracts the session ID of a control-plane JSON body
// ({"sid":"..."}), without decoding the rest of it.
func sidOf(body []byte) string {
	const key = `"sid":"`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return ""
	}
	rest := body[i+len(key):]
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

// spanBody counts response bytes and ends the wire span at EOF or Close,
// whichever comes first.
type spanBody struct {
	rc    io.ReadCloser
	tr    *tracer
	ref   spanRef
	ended atomic.Bool
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.tr.respBytes.Add(int64(n))
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	err := b.rc.Close()
	b.finish()
	return err
}

func (b *spanBody) finish() {
	if b.ended.CompareAndSwap(false, true) {
		b.ref.op.end(b.ref.idx)
	}
}

// ownerHandler opens an owner span per request of a traced operation.
// Requests that carry the link header hang under their client round
// trip. Without one — the live workload's cluster client cannot be
// wrapped — a request seen while tracing is on is recorded loose, with
// its session and kind, and counted here instead of at the client.
type ownerHandler struct {
	in       http.Handler
	tr       *tracer
	inflight atomic.Int64
}

func wrapHandler(in http.Handler, tr *tracer) http.Handler {
	if tr == nil {
		return in
	}
	return &ownerHandler{in: in, tr: tr}
}

func (h *ownerHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	link := r.Header.Get(headerSpan)
	if link == "" && !h.tr.on.Load() {
		h.in.ServeHTTP(w, r)
		return
	}
	cls := classOf(r.URL.Path)
	if cls == classRPC || cls == classUpdate {
		n := h.inflight.Add(1)
		defer h.inflight.Add(-1)
		for m := h.tr.maxInflight.Load(); n > m && !h.tr.maxInflight.CompareAndSwap(m, n); m = h.tr.maxInflight.Load() {
		}
	}
	if link != "" {
		h.linked(w, r, link, cls)
		return
	}
	h.loose(w, r, cls)
}

func (h *ownerHandler) linked(w http.ResponseWriter, r *http.Request, link string, cls class) {
	ids, idxs, _ := strings.Cut(link, ".")
	id, err1 := strconv.ParseUint(ids, 10, 64)
	idx, err2 := strconv.Atoi(idxs)
	op, ok := h.tr.lookup(id)
	if err1 != nil || err2 != nil || !ok {
		h.tr.mu.Lock()
		h.tr.unlinked++
		h.tr.mu.Unlock()
		h.in.ServeHTTP(w, r)
		return
	}
	i := op.begin(int32(idx), layerOwner, cls)
	if d := h.tr.inject.owner; d > 0 {
		spin(d)
	}
	h.in.ServeHTTP(w, r)
	op.end(i)
}

func (h *ownerHandler) loose(w http.ResponseWriter, r *http.Request, cls class) {
	l := looseSpan{cls: cls, sid: r.URL.Query().Get("sid")}
	switch cls {
	case classRPC, classUpdate:
		l.kind = strings.TrimPrefix(r.URL.Path, "/rpc/")
	case classFilter:
		l.kind = "filter"
	}
	var reqBytes int64
	if r.Body != nil && l.sid == "" && cls != classFilter {
		b, err := io.ReadAll(r.Body)
		if err == nil {
			l.sid = sidOf(b)
		}
		reqBytes = int64(len(b))
		r.Body = io.NopCloser(bytes.NewReader(b))
	} else {
		reqBytes = max(r.ContentLength, 0)
	}
	cw := &countingWriter{ResponseWriter: w}
	l.start = nanotime()
	h.in.ServeHTTP(cw, r)
	l.end = nanotime()
	h.tr.requests[cls].Add(1)
	h.tr.reqBytes.Add(reqBytes)
	h.tr.respBytes.Add(cw.n)
	h.tr.addLoose(l)
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (c *countingWriter) Unwrap() http.ResponseWriter { return c.ResponseWriter }
