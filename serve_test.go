package cqbound

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
)

// queryResponse is the /query body as encoding/json rendered it before the
// columnar renderer: the oracle replyQuery must match byte for byte.
type queryResponse struct {
	Query  string     `json:"query"`
	Epoch  uint64     `json:"epoch"`
	Rows   int        `json:"rows"`
	Attrs  []string   `json:"attrs"`
	Tuples [][]string `json:"tuples"`
	Cached bool       `json:"cached"`
	Trace  string     `json:"trace,omitempty"`
}

// oracleBody encodes out the way the /query handler did with
// materialize + json.NewEncoder.
func oracleBody(t testing.TB, qtext string, epoch uint64, out *Relation, d *Dict, cached bool, trace string) []byte {
	t.Helper()
	resp := &queryResponse{
		Query: qtext, Epoch: epoch, Attrs: append([]string(nil), out.Attrs...),
		Tuples: [][]string{}, Cached: cached, Trace: trace,
	}
	out.Each(func(tu Tuple) bool {
		resp.Tuples = append(resp.Tuples, tu.StringsIn(d))
		return true
	})
	resp.Rows = len(resp.Tuples)
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// renderedBody runs the renderer and replyQuery on out and checks the
// headers it sets.
func renderedBody(t testing.TB, qtext string, epoch uint64, out *Relation, d *Dict, cached bool, trace string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	(&Server{}).replyQuery(rec, qtext, epoch, renderResult(out, d), cached, trace)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
		t.Fatalf("Content-Length %q for a %d-byte body", cl, rec.Body.Len())
	}
	return rec.Body.Bytes()
}

// renderValues are the strings the byte-identity tests draw cells from:
// every class of byte encoding/json treats specially.
var renderValues = []string{
	"", "a", "plain-42", "<b>", "&", `"q"`, `\`, "\n", "\x01", "\x7f", "é",
	"\u2028", "\u2029", "\xff", "a\xc3", "tab\there", "日本", "😀",
}

// randomRelation builds an arity-k relation of up to maxRows random rows
// over d, whose cells are drawn from the interned renderValues plus a few
// IDs the dictionary never assigned (rendered as #<id>).
func randomRelation(rng *rand.Rand, d *Dict, arity, maxRows int) *Relation {
	attrs := make([]string, arity)
	for i := range attrs {
		attrs[i] = renderValues[rng.Intn(len(renderValues))] + strconv.Itoa(i)
	}
	out := NewRelationIn("Q", d, attrs...)
	rows := 0
	if maxRows > 0 {
		rows = rng.Intn(maxRows + 1)
	}
	for i := 0; i < rows; i++ {
		tu := make(Tuple, arity)
		for c := range tu {
			if rng.Intn(10) == 0 {
				tu[c] = Value(d.Len() + rng.Intn(3))
			} else {
				tu[c] = d.Intern(renderValues[rng.Intn(len(renderValues))])
			}
		}
		if _, err := out.Insert(tu); err != nil {
			panic(err)
		}
	}
	return out
}

// TestRenderQueryByteIdentity: for random relations of arity 0–3, empty
// and many-row, cached and uncached, with and without a trace, the
// columnar renderer's body equals encoding/json's of the old response.
func TestRenderQueryByteIdentity(t *testing.T) {
	d := NewDict()
	for _, s := range renderValues {
		d.Intern(s)
	}
	rng := rand.New(rand.NewSource(12))
	traces := []string{"", "query: Q\n  scan E <1 rows>\n", "<&>\u2028\xff"}
	queries := []string{"Q(X) <- E(X,Y).", `Q(X) <- E(X,"<&>\u2028")`, "\xff\x00"}
	for iter := 0; iter < 200; iter++ {
		arity := iter % 4
		maxRows := []int{0, 1, 7, 300}[rng.Intn(4)]
		out := randomRelation(rng, d, arity, maxRows)
		qtext := queries[rng.Intn(len(queries))]
		epoch := rng.Uint64() >> rng.Intn(64)
		for _, cached := range []bool{false, true} {
			for _, trace := range traces {
				want := oracleBody(t, qtext, epoch, out, d, cached, trace)
				got := renderedBody(t, qtext, epoch, out, d, cached, trace)
				if !bytes.Equal(got, want) {
					t.Fatalf("arity %d, %d rows, cached=%v, trace=%q:\n got %s\nwant %s",
						arity, out.Size(), cached, trace, got, want)
				}
			}
		}
	}
}

// TestRenderQueryServed drives the renderer through the /query handler:
// a miss, the cache hit that follows it and a traced request all return
// the old encoder's body for the engine's own answer.
func TestRenderQueryServed(t *testing.T) {
	eng := NewEngine()
	defer eng.Close()
	tx := eng.Begin()
	if err := tx.Create("E", "src", "dst"); err != nil {
		t.Fatal(err)
	}
	for i, a := range renderValues {
		if err := tx.Add("E", a, renderValues[(i*7+3)%len(renderValues)]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(eng)
	defer srv.Close()
	const qtext = "Q(X,Z) <- E(X,Y), E(Y,Z)."
	q, err := Parse(qtext)
	if err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	defer snap.Close()
	out, _, err := eng.Evaluate(t.Context(), q, snap.DB())
	if err != nil {
		t.Fatal(err)
	}
	if out.Size() == 0 {
		t.Fatal("empty answer: the test data should join")
	}
	get := func(extra string) []byte {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/query?q="+url.QueryEscape(qtext)+extra, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	for _, cached := range []bool{false, true} {
		want := oracleBody(t, qtext, snap.Epoch(), out, snap.DB().Dict(), cached, "")
		if got := get(""); !bytes.Equal(got, want) {
			t.Fatalf("cached=%v:\n got %s\nwant %s", cached, got, want)
		}
	}
	got := get("&trace=1")
	var resp queryResponse
	if err := json.Unmarshal(got, &resp); err != nil || resp.Trace == "" {
		t.Fatalf("traced body %s: %v", got, err)
	}
	if want := oracleBody(t, qtext, snap.Epoch(), out, snap.DB().Dict(), false, resp.Trace); !bytes.Equal(got, want) {
		t.Fatalf("traced:\n got %s\nwant %s", got, want)
	}
}

// FuzzRenderQuery checks the renderer against encoding/json on arbitrary
// value strings (split on '|' into a two-column relation) and query text.
func FuzzRenderQuery(f *testing.F) {
	f.Add(strings.Join(renderValues, "|"), "Q(X) <- E(X).")
	f.Add("a|b|c", "\u2028<>&\xff")
	f.Add("", "")
	f.Fuzz(func(t *testing.T, vals, qtext string) {
		d := NewDict()
		parts := strings.Split(vals, "|")
		out := NewRelationIn("Q", d, "x", "y")
		for i := range parts {
			out.Add(parts[i], parts[(i+1)%len(parts)])
		}
		for _, trace := range []string{"", qtext} {
			want := oracleBody(t, qtext, 7, out, d, false, trace)
			if got := renderedBody(t, qtext, 7, out, d, false, trace); !bytes.Equal(got, want) {
				t.Fatalf("\n got %s\nwant %s", got, want)
			}
		}
	})
}

// countingReader yields an endless stream of spaces and counts what was
// read from it.
type countingReader struct{ n int64 }

func (r *countingReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	r.n += int64(len(p))
	return len(p), nil
}

// TestCommitBodyLimit: a /commit body declared larger than maxCommitBytes
// gets 413 with the request's ID before a byte of it is read, and the
// server goes on committing and answering queries.
func TestCommitBodyLimit(t *testing.T) {
	eng := NewEngine()
	defer eng.Close()
	srv := NewServer(eng)
	defer srv.Close()

	body := &countingReader{}
	req := httptest.NewRequest("POST", "/commit", io.LimitReader(body, maxCommitBytes+1))
	req.ContentLength = maxCommitBytes + 1
	req.Header.Set("X-Request-ID", "oversized-commit")
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized commit: status %d: %s", rec.Code, rec.Body)
	}
	var fail map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &fail); err != nil || fail["request_id"] != "oversized-commit" || fail["error"] == "" {
		t.Fatalf("413 body %s (%v): want the error and request_id", rec.Body, err)
	}
	if body.n != 0 {
		t.Fatalf("the server read %d bytes of a body it rejects by length", body.n)
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/commit", strings.NewReader(
		`{"ops":[{"op":"create","rel":"E","attrs":["a","b"]},{"op":"append","rel":"E","rows":[["1","2"]]}]}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("commit after a 413: status %d: %s", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/query?q="+url.QueryEscape("Q(X,Y) <- E(X,Y)."), nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"tuples":[["1","2"]]`) {
		t.Fatalf("query after a 413: status %d: %s", rec.Code, rec.Body)
	}
}
