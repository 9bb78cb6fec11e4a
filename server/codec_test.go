package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strings"
	"testing"
)

// TestDecodeTxRequestAccepts pins what the grammar lets through: JSON
// whitespace anywhere, members in any order, unknown members of any
// shape skipped, a repeated scalar member taking its last value, the
// int64 extremes, and value omitted.
func TestDecodeTxRequestAccepts(t *testing.T) {
	cases := []struct {
		body string
		want []Command
	}{
		{`{"cmds":[{"op":"incr","key":7,"value":1}]}`, []Command{{"incr", 7, 1}}},
		{" \t\r\n{ \"cmds\" : [ { \"op\" : \"get\" , \"key\" : 1 } ] } \n", []Command{{"get", 1, 0}}},
		{`{"cmds":[{"value":-3,"key":2,"op":"put"},{"key":4,"op":"delete"}]}`, []Command{{"put", 2, -3}, {"delete", 4, 0}}},
		{`{"trace":{"id":"a\"b\\","hops":[1,2.5e-3,null,true,{"x":[]}]},"cmds":[{"op":"get","key":1,"note":"é\n","value":0}],"n":-0.0}`,
			[]Command{{"get", 1, 0}}},
		{`{"cmds":[{"op":"put","key":1,"key":2,"value":3,"value":4}]}`, []Command{{"put", 2, 4}}},
		{`{"cmds":[{"op":"put","key":9223372036854775807,"value":-9223372036854775808}]}`,
			[]Command{{"put", math.MaxInt64, math.MinInt64}}},
		{`{"cmds":[{"op":"incr","key":-0}]}`, []Command{{"incr", 0, 0}}},
		{`{"cmds":[]}`, nil},
		{`{}`, nil},
	}
	for _, c := range cases {
		got, err := decodeTxRequest([]byte(c.body), nil)
		if err != nil {
			t.Errorf("%s: %v", c.body, err)
			continue
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: decoded %+v, want %+v", c.body, got, c.want)
		}
	}
}

// TestDecodeTxRequestRejects pins the 400 rules, each naming the offset
// at which the body went wrong.
func TestDecodeTxRequestRejects(t *testing.T) {
	cases := []struct {
		name, body string
		offset     int
		msg        string
	}{
		{"overflow", `{"cmds":[{"op":"put","key":9223372036854775808}]}`, 27, "overflows int64"},
		{"negative overflow", `{"cmds":[{"op":"put","key":1,"value":-9223372036854775809}]}`, 37, "overflows int64"},
		{"long overflow", `{"cmds":[{"op":"put","key":` + strings.Repeat("9", 40) + `}]}`, 27, "overflows int64"},
		{"fraction", `{"cmds":[{"op":"put","key":1.5}]}`, 27, "fraction or exponent"},
		{"integral fraction", `{"cmds":[{"op":"put","key":1,"value":2.0}]}`, 37, "fraction or exponent"},
		{"exponent", `{"cmds":[{"op":"put","key":1e3}]}`, 27, "fraction or exponent"},
		{"leading zero", `{"cmds":[{"op":"put","key":01}]}`, 27, "leading zero"},
		{"bare minus", `{"cmds":[{"op":"put","key":-}]}`, 27, "expected an integer"},
		{"string key", `{"cmds":[{"op":"put","key":"1"}]}`, 27, "expected an integer"},
		{"null key", `{"cmds":[{"op":"put","key":null}]}`, 27, "expected an integer"},
		{"escape in op", `{"cmds":[{"op":"\u0067et","key":1}]}`, 15, "escape sequence in an op"},
		{"unknown op", `{"cmds":[{"op":"explode","key":1}]}`, 15, `unknown op "explode"`},
		{"no op", `{"cmds":[{"key":1}]}`, 9, `without an "op"`},
		{"op not a string", `{"cmds":[{"op":1}]}`, 15, "expected a string"},
		{"escape in name", `{"cmds":[{"\u006fp":"get"}]}`, 10, "escape sequence in a member name"},
		{"case-folded name", `{"cmds":[{"op":"get","Key":1}]}`, 21, `exactly "key"`},
		{"kelvin-folded name", "{\"cmds\":[{\"op\":\"get\",\"\u212aey\":1}]}", 21, `exactly "key"`},
		{"long-s-folded name", "{\"cmd\u017f\":[]}", 1, `exactly "cmds"`},
		{"duplicate cmds", `{"cmds":[],"cmds":[]}`, 18, `duplicate "cmds"`},
		{"cmds not an array", `{"cmds":{}}`, 8, "must be an array"},
		{"null cmds", `{"cmds":null}`, 8, "must be an array"},
		{"command not an object", `{"cmds":[1]}`, 9, "must be an object"},
		{"top-level array", `[{"op":"get"}]`, 0, "expected '{'"},
		{"empty body", ``, 0, "expected '{'"},
		{"trailing data", `{"cmds":[]} x`, 12, "after the request object"},
		{"trailing comma", `{"cmds":[],}`, 11, "expected a string"},
		{"missing colon", `{"cmds" []}`, 8, "expected ':'"},
		{"unterminated", `{"cmds":[{"op":"get","key":1}`, 29, "expected ',' or ']'"},
		{"control character", "{\"a\":\"x\ny\"}", 7, "control character"},
		{"bad escape", `{"a":"\x"}`, 6, "invalid escape"},
		{"short \\u", `{"a":"\u12"}`, 6, "four hexadecimal digits"},
		{"bad literal", `{"a":tru}`, 5, "expected a value"},
		{"bad skipped number", `{"a":1.}`, 7, "malformed number"},
		{"deep nesting", `{"a":` + strings.Repeat("[", maxSkipDepth+2) + strings.Repeat("]", maxSkipDepth+2) + `}`, 5 + maxSkipDepth + 1, "nested too deeply"},
	}
	for _, c := range cases {
		_, err := decodeTxRequest([]byte(c.body), nil)
		var se *syntaxError
		if !errors.As(err, &se) {
			t.Errorf("%s: error %v, want a *syntaxError", c.name, err)
			continue
		}
		if se.Offset != c.offset || !strings.Contains(se.Msg, c.msg) {
			t.Errorf("%s: %q at offset %d, want %q at offset %d", c.name, se.Msg, se.Offset, c.msg, c.offset)
		}
		if want := fmt.Sprintf("at offset %d", c.offset); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: message %q does not name the offset", c.name, err)
		}
	}
}

// endless is a body that never ends, counting what was read of it.
type endless struct{ read int }

func (e *endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	e.read += len(p)
	return len(p), nil
}

// TestTxBodyBound pins the 413 rule at the handler: a body of exactly
// maxTxBody is served, one byte more is refused — whether the length was
// declared or not — and a refused body is not read past the bound.
func TestTxBodyBound(t *testing.T) {
	s, err := New(Config{Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	post := func(body io.Reader, declared int64) int {
		req, _ := http.NewRequest(http.MethodPost, "/tx", body)
		req.ContentLength = declared
		w := newReplyRecorder()
		h.ServeHTTP(w, req)
		return w.status
	}
	cmd := `{"cmds":[{"op":"incr","key":1}]}`
	padded := func(n int) string { return cmd + strings.Repeat(" ", n-len(cmd)) }

	cases := []struct {
		name     string
		size     int
		declared bool
		want     int
	}{
		{"at the bound, declared", maxTxBody, true, http.StatusOK},
		{"at the bound, undeclared", maxTxBody, false, http.StatusOK},
		{"over the bound, declared", maxTxBody + 1, true, http.StatusRequestEntityTooLarge},
		{"over the bound, undeclared", maxTxBody + 1, false, http.StatusRequestEntityTooLarge},
	}
	for _, c := range cases {
		declared := int64(-1)
		if c.declared {
			declared = int64(c.size)
		}
		if got := post(strings.NewReader(padded(c.size)), declared); got != c.want {
			t.Errorf("%s: status %d, want %d", c.name, got, c.want)
		}
	}

	var body endless
	if got := post(&body, -1); got != http.StatusRequestEntityTooLarge {
		t.Errorf("endless body: status %d, want 413", got)
	}
	if body.read > maxTxBody+1 {
		t.Errorf("endless body: %d bytes read, want at most %d", body.read, maxTxBody+1)
	}
	if got := post(&body, maxTxBody+1); got != http.StatusRequestEntityTooLarge || body.read > maxTxBody+1 {
		t.Errorf("declared oversize body: status %d after %d bytes read in all, want 413 and no further read", got, body.read)
	}
}

// replyRecorder is the least http.ResponseWriter the handler needs,
// reusable across requests so the allocation gates measure the handler
// and not the recorder.
type replyRecorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func newReplyRecorder() *replyRecorder {
	return &replyRecorder{header: make(http.Header, 2), status: http.StatusOK}
}

func (w *replyRecorder) Header() http.Header         { return w.header }
func (w *replyRecorder) WriteHeader(status int)      { w.status = status }
func (w *replyRecorder) Write(p []byte) (int, error) { return w.body.Write(p) }

func (w *replyRecorder) reset() {
	w.status = http.StatusOK
	w.body.Reset()
}

// benchmarkBody renders a /tx body the way the repo's benchmark client
// does (benchmark/system.go, httpRequest): incr commands with an
// explicit value, no whitespace.
func benchmarkBody(keys []int64, deltas []int64) []byte {
	var b bytes.Buffer
	b.WriteString(`{"cmds":[`)
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"op":"incr","key":%d,"value":%d}`, k, deltas[i])
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// FuzzTxCodec is the codec's differential test against encoding/json.
//
//   - Decoder: whenever decodeTxRequest accepts body, json.Unmarshal
//     into TxRequest accepts it too and yields the same commands — the
//     hand decoder is allowed to be stricter, never to read a body
//     differently.
//   - Encoders: AppendTxResponse and AppendKVResponse emit exactly the
//     bytes json.Encoder.Encode does, and AppendTxRequest exactly
//     json.Marshal's for batches of the four ops the server accepts.
//   - Producers: every body cmd/tmload builds (AppendTxRequest over incr
//     and put commands, value omitted when zero) and every body the
//     benchmark's client builds (benchmarkBody) decodes to the commands
//     it was built from.
func FuzzTxCodec(f *testing.F) {
	f.Add([]byte(`{"cmds":[{"op":"incr","key":7,"value":1}]}`), int64(7), int64(-1), true)
	f.Add([]byte(`{"cmds":[{"op":"incr","key":1,"value":-1},{"op":"incr","key":2,"value":1}]}`), int64(0), int64(0), false)
	f.Add([]byte(" {\"x\":[1,{\"y\":null}],\"cmds\":[{\"key\":3,\"op\":\"delete\"}]}\n"), int64(math.MaxInt64), int64(math.MinInt64), true)
	f.Add([]byte(`{"cmds":[{"op":"get","Key":1}]}`), int64(1), int64(2), false)
	f.Add([]byte("{\"cmds\":[{\"op\":\"get\",\"\u212aey\":1}],\"cmd\u017f\":[]}"), int64(1), int64(2), false)
	f.Add([]byte(`{"cmds":[{"op":"put","key":1}],"cmds":[{"op":"get"}]}`), int64(1), int64(2), false)
	f.Add([]byte(`{"cmds":[{"op":"get","key":9223372036854775808,"value":1e3}]}`), int64(1), int64(2), false)
	f.Add([]byte(`{"cmds":null,"a":"\ud800","b":-0.0e+1}`), int64(1), int64(2), false)

	f.Fuzz(func(t *testing.T, body []byte, a, b int64, found bool) {
		if cmds, err := decodeTxRequest(body, nil); err == nil {
			var ref TxRequest
			if jerr := json.Unmarshal(body, &ref); jerr != nil {
				t.Fatalf("hand decoder accepted %q as %+v; encoding/json rejects it: %v", body, cmds, jerr)
			}
			if !slices.Equal(cmds, ref.Cmds) {
				t.Fatalf("%q: hand decoder %+v, encoding/json %+v", body, cmds, ref.Cmds)
			}
		}

		encode := func(v any) []byte {
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(v); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		for _, results := range [][]CmdResult{nil, {}, {{a, found}}, {{a, found}, {b, !found}}} {
			if got, want := AppendTxResponse(nil, results), encode(TxResponse{Results: results}); !bytes.Equal(got, want) {
				t.Fatalf("AppendTxResponse(%+v) = %q, encoding/json %q", results, got, want)
			}
		}
		if got, want := AppendKVResponse(nil, a, found), encode(KVResponse{Value: a, Found: found}); !bytes.Equal(got, want) {
			t.Fatalf("AppendKVResponse(%d, %v) = %q, encoding/json %q", a, found, got, want)
		}

		accepted := []Command{{Op: "incr", Key: a}, {Op: "put", Key: b, Value: a}, {Op: "incr", Key: b, Value: b}, {Op: "get", Key: a}, {Op: "delete", Key: b}}
		for _, cmds := range [][]Command{{}, accepted[:1], accepted[:3], accepted} {
			got := AppendTxRequest(nil, cmds)
			if want, _ := json.Marshal(TxRequest{Cmds: cmds}); !bytes.Equal(got, want) {
				t.Fatalf("AppendTxRequest(%+v) = %q, encoding/json %q", cmds, got, want)
			}
			if back, err := decodeTxRequest(got, nil); err != nil || !slices.Equal(back, cmds) {
				t.Fatalf("tmload body %q decoded to %+v, %v; built from %+v", got, back, err, cmds)
			}
		}
		incr := benchmarkBody([]int64{a}, []int64{1})
		xfer := benchmarkBody([]int64{a, b}, []int64{-1, 1})
		if back, err := decodeTxRequest(incr, nil); err != nil || !slices.Equal(back, []Command{{"incr", a, 1}}) {
			t.Fatalf("benchmark body %q decoded to %+v, %v", incr, back, err)
		}
		if back, err := decodeTxRequest(xfer, nil); err != nil || !slices.Equal(back, []Command{{"incr", a, -1}, {"incr", b, 1}}) {
			t.Fatalf("benchmark body %q decoded to %+v, %v", xfer, back, err)
		}
	})
}
