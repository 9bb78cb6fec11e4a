package server

import (
	"errors"
	"fmt"
	"io"
	"strconv"
)

// This file is the wire codec of the two hot routes: one hand-written
// decoder for POST /tx bodies and append-style encoders for the /tx and
// /kv replies (and, for load generators, /tx requests). The schema is
// three structs of integers, booleans and a four-valued string, and
// encoding/json spent more on reflecting over it than the store spent
// on the transaction. encoding/json still serves /stats and /history,
// and is the reference the codec's tests compare against: whatever this
// decoder accepts, json.Unmarshal into TxRequest decodes identically;
// what the encoders emit is byte-for-byte what json.Marshal emits.

// maxTxBody bounds a POST /tx body; a longer one is answered 413 without
// being read to its end.
const maxTxBody = 1 << 20

// minBodyBuf is the smallest body buffer readBody allocates: typical
// requests fit, so a recycled buffer is not regrown a few bytes at a time.
const minBodyBuf = 512

// maxSkipDepth bounds the nesting of a member the decoder skips, so a
// body of a million '[' cannot drive the recursion deep.
const maxSkipDepth = 64

// errBodyTooLarge is readBody's error for a body over maxTxBody.
var errBodyTooLarge = errors.New("request body exceeds 1 MiB")

// syntaxError is the decoder's error: what is wrong and the byte offset
// in the body where it was noticed.
type syntaxError struct {
	Offset int
	Msg    string
}

func (e *syntaxError) Error() string { return fmt.Sprintf("%s at offset %d", e.Msg, e.Offset) }

// readBody reads r to EOF into buf[:0] and returns the filled slice,
// growing it as needed but never past maxTxBody+1 bytes: the moment the
// body proves longer than maxTxBody, reading stops with errBodyTooLarge.
// size is the declared length (-1 when unknown), used only to size the
// buffer in one step.
func readBody(r io.Reader, size int64, buf []byte) ([]byte, error) {
	buf = buf[:0]
	if size > maxTxBody {
		return buf, errBodyTooLarge
	}
	// One spare byte lets the final Read report EOF alongside the last
	// bytes instead of forcing a grow to learn the body has ended.
	if want := max(int(size)+1, minBodyBuf); want > cap(buf) {
		buf = make([]byte, 0, want)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):min(cap(buf), maxTxBody+1)])
		buf = buf[:len(buf)+n]
		if len(buf) > maxTxBody {
			return buf, errBodyTooLarge
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// decodeTxRequest parses a /tx body — {"cmds":[{"op":…,"key":…,"value":…},…]}
// — appending its commands to cmds[:0]. It allocates nothing beyond
// growing cmds: each Op is one of the four constant strings.
//
// The grammar is RFC 8259 JSON with the schema's types enforced: members
// may come in any order and be separated by any JSON whitespace; a
// member whose name is not in the schema is skipped, whatever its
// (well-formed) value; a repeated scalar member takes its last value.
// Everything else is a *syntaxError: malformed JSON, trailing bytes
// after the object, a value of the wrong type (null included), an op
// outside get/put/incr/delete, a key or value that is not a plain
// integer in int64 range, an escape sequence inside an op string or
// inside any member name, a second "cmds" member, and a member name
// that differs from a schema name only by letter case — encoding/json
// would have matched that one to the field, so silently skipping it
// would change what the request means.
func decodeTxRequest(body []byte, cmds []Command) ([]Command, error) {
	d := decoder{b: body}
	cmds = cmds[:0]
	seen := false
	d.space()
	if !d.eat('{') {
		return cmds, d.fail("expected '{' to open the request object")
	}
	for more := d.firstMember('}'); more; more = d.nextMember('}') {
		field, err := d.nameOf("cmds")
		if err != nil {
			return cmds, err
		}
		switch {
		case field < 0:
			err = d.skip(0)
		case seen:
			err = d.fail(`duplicate "cmds" member`)
		default:
			seen = true
			cmds, err = d.cmds(cmds)
		}
		if err != nil {
			return cmds, err
		}
	}
	if d.err != nil {
		return cmds, d.err
	}
	d.space()
	if d.i != len(d.b) {
		return cmds, d.fail("unexpected data after the request object")
	}
	return cmds, nil
}

// decoder is a cursor over one body.
type decoder struct {
	b   []byte
	i   int
	err error // set by firstMember/nextMember, which return only a bool
}

func (d *decoder) fail(msg string) error { return &syntaxError{Offset: d.i, Msg: msg} }

func (d *decoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte.
func (d *decoder) eat(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// firstMember is called after an opening bracket: it reports whether an
// element follows, consuming the closing bracket when none does.
func (d *decoder) firstMember(closer byte) bool {
	d.space()
	return !d.eat(closer)
}

// nextMember is called after an element: it consumes a comma and reports
// true, or consumes the closing bracket and reports false; anything else
// is recorded as the decoder's error.
func (d *decoder) nextMember(closer byte) bool {
	d.space()
	if d.eat(',') {
		d.space()
		return true
	}
	if !d.eat(closer) {
		d.err = d.fail("expected ',' or '" + string(closer) + "'")
	}
	return false
}

// nameOf consumes a member name and the colon after it, and reports
// which of the schema names it is: the index into names, or -1 for a
// name to skip. The cursor is left at the member's value.
func (d *decoder) nameOf(names ...string) (int, error) {
	start := d.i
	raw, escaped, err := d.str()
	if err != nil {
		return -1, err
	}
	if escaped {
		d.i = start
		return -1, d.fail("escape sequence in a member name")
	}
	idx := -1
	for i, n := range names {
		if string(raw) == n {
			idx = i
			break
		}
		if foldsTo(raw, n) {
			d.i = start
			return -1, d.fail("member name must be written exactly \"" + n + "\"")
		}
	}
	d.space()
	if !d.eat(':') {
		return -1, d.fail("expected ':' after the member name")
	}
	d.space()
	return idx, nil
}

// foldsTo reports whether raw equals the lower-case ASCII name under the
// case folding encoding/json applies to member names: ASCII letters fold
// to lower case, and so do U+017F (long s) and U+212A (the kelvin sign).
func foldsTo(raw []byte, name string) bool {
	j := 0
	for i := 0; i < len(raw); j++ {
		if j == len(name) {
			return false
		}
		c := raw[i]
		switch {
		case c == 0xC5 && i+1 < len(raw) && raw[i+1] == 0xBF:
			c, i = 's', i+2
		case c == 0xE2 && i+2 < len(raw) && raw[i+1] == 0x84 && raw[i+2] == 0xAA:
			c, i = 'k', i+3
		case 'A' <= c && c <= 'Z':
			c, i = c+('a'-'A'), i+1
		default:
			i++
		}
		if c != name[j] {
			return false
		}
	}
	return j == len(name)
}

// str consumes a JSON string and returns the bytes between its quotes,
// undecoded, and whether they contain an escape sequence.
func (d *decoder) str() (raw []byte, escaped bool, err error) {
	if !d.eat('"') {
		return nil, false, d.fail("expected a string")
	}
	start := d.i
	for d.i < len(d.b) {
		switch c := d.b[d.i]; {
		case c == '"':
			raw = d.b[start:d.i]
			d.i++
			return raw, escaped, nil
		case c < 0x20:
			return nil, false, d.fail("control character in a string")
		case c == '\\':
			escaped = true
			if d.i+1 >= len(d.b) {
				return nil, false, d.fail("unterminated string")
			}
			switch d.b[d.i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.i += 2
			case 'u':
				if d.i+6 > len(d.b) || !isHex4(d.b[d.i+2:d.i+6]) {
					return nil, false, d.fail(`\u needs four hexadecimal digits`)
				}
				d.i += 6
			default:
				return nil, false, d.fail("invalid escape sequence")
			}
		default:
			d.i++
		}
	}
	return nil, false, d.fail("unterminated string")
}

func isHex4(b []byte) bool {
	for _, c := range b {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}

// cmds consumes the "cmds" array.
func (d *decoder) cmds(cmds []Command) ([]Command, error) {
	if !d.eat('[') {
		return cmds, d.fail(`"cmds" must be an array`)
	}
	for more := d.firstMember(']'); more; more = d.nextMember(']') {
		c, err := d.cmd()
		if err != nil {
			return cmds, err
		}
		cmds = append(cmds, c)
	}
	return cmds, d.err
}

// cmd consumes one command object. A command with no "op" member is
// rejected here, like one with an unknown op: there is no zero op.
func (d *decoder) cmd() (Command, error) {
	var c Command
	start := d.i
	if !d.eat('{') {
		return c, d.fail("a command must be an object")
	}
	for more := d.firstMember('}'); more; more = d.nextMember('}') {
		field, err := d.nameOf("op", "key", "value")
		if err != nil {
			return c, err
		}
		switch field {
		case 0:
			c.Op, err = d.op()
		case 1:
			c.Key, err = d.int64()
		case 2:
			c.Value, err = d.int64()
		default:
			err = d.skip(0)
		}
		if err != nil {
			return c, err
		}
	}
	if d.err == nil && c.Op == "" {
		d.i = start
		return c, d.fail(`command without an "op"`)
	}
	return c, d.err
}

// op consumes an op string and returns the matching constant.
func (d *decoder) op() (string, error) {
	start := d.i
	raw, escaped, err := d.str()
	if err != nil {
		return "", err
	}
	if escaped {
		d.i = start
		return "", d.fail("escape sequence in an op string")
	}
	switch string(raw) {
	case "get":
		return "get", nil
	case "put":
		return "put", nil
	case "incr":
		return "incr", nil
	case "delete":
		return "delete", nil
	}
	d.i = start
	return "", d.fail("unknown op " + strconv.Quote(string(raw)))
}

// int64 consumes a JSON number that is a plain integer in int64 range.
func (d *decoder) int64() (int64, error) {
	start := d.i
	neg := d.eat('-')
	digits := d.i
	var mag uint64 // magnitude; -2^63 needs one more than int64 holds
	for ; d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9'; d.i++ {
		c := uint64(d.b[d.i] - '0')
		if mag > (1<<63-c)/10 {
			d.i = start
			return 0, d.fail("integer overflows int64")
		}
		mag = mag*10 + c
	}
	switch {
	case d.i == digits:
		d.i = start
		return 0, d.fail("expected an integer")
	case d.b[digits] == '0' && d.i-digits > 1:
		d.i = start
		return 0, d.fail("integer with a leading zero")
	case d.i < len(d.b) && (d.b[d.i] == '.' || d.b[d.i] == 'e' || d.b[d.i] == 'E'):
		d.i = start
		return 0, d.fail("number with a fraction or exponent where an integer is required")
	case !neg && mag > 1<<63-1:
		d.i = start
		return 0, d.fail("integer overflows int64")
	}
	if neg {
		return -int64(mag), nil // mag == 1<<63 wraps to MinInt64, as wanted
	}
	return int64(mag), nil
}

// skip consumes one well-formed JSON value of any type.
func (d *decoder) skip(depth int) error {
	if depth > maxSkipDepth {
		return d.fail("skipped member nested too deeply")
	}
	if d.i >= len(d.b) {
		return d.fail("unexpected end of body")
	}
	switch c := d.b[d.i]; {
	case c == '"':
		_, _, err := d.str()
		return err
	case c == '{':
		d.i++
		for more := d.firstMember('}'); more; more = d.nextMember('}') {
			if _, _, err := d.str(); err != nil {
				return err
			}
			d.space()
			if !d.eat(':') {
				return d.fail("expected ':' after the member name")
			}
			d.space()
			if err := d.skip(depth + 1); err != nil {
				return err
			}
		}
		return d.err
	case c == '[':
		d.i++
		for more := d.firstMember(']'); more; more = d.nextMember(']') {
			if err := d.skip(depth + 1); err != nil {
				return err
			}
		}
		return d.err
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	}
	for _, lit := range [...]string{"true", "false", "null"} {
		if len(d.b)-d.i >= len(lit) && string(d.b[d.i:d.i+len(lit)]) == lit {
			d.i += len(lit)
			return nil
		}
	}
	return d.fail("expected a value")
}

// number consumes a JSON number of any form.
func (d *decoder) number() error {
	digits := func() bool {
		start := d.i
		for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
			d.i++
		}
		return d.i > start
	}
	d.eat('-')
	if !d.eat('0') && !digits() {
		return d.fail("malformed number")
	}
	if d.eat('.') && !digits() {
		return d.fail("malformed number")
	}
	if d.eat('e') || d.eat('E') {
		if !d.eat('+') {
			d.eat('-')
		}
		if !digits() {
			return d.fail("malformed number")
		}
	}
	return nil
}

// AppendTxRequest appends the /tx body carrying cmds to dst — what
// json.Marshal(TxRequest{Cmds: cmds}) produces, without the reflection
// or the intermediate copy. Ops are written as they are: the four the
// server accepts need no escaping, and any other is a 400 either way.
func AppendTxRequest(dst []byte, cmds []Command) []byte {
	dst = append(dst, `{"cmds":[`...)
	for i, c := range cmds {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"op":"`...)
		dst = append(dst, c.Op...)
		dst = append(dst, `","key":`...)
		dst = strconv.AppendInt(dst, c.Key, 10)
		if c.Value != 0 {
			dst = append(dst, `,"value":`...)
			dst = strconv.AppendInt(dst, c.Value, 10)
		}
		dst = append(dst, '}')
	}
	return append(dst, `]}`...)
}

// AppendTxResponse appends the /tx reply for results to dst: the bytes
// json.NewEncoder(w).Encode(TxResponse{Results: results}) writes,
// newline included.
func AppendTxResponse(dst []byte, results []CmdResult) []byte {
	if results == nil {
		return append(dst, "{\"results\":null}\n"...)
	}
	dst = append(dst, `{"results":[`...)
	for i, r := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendValueFound(dst, r.Value, r.Found)
	}
	return append(dst, "]}\n"...)
}

// AppendKVResponse appends the /kv reply to dst, as
// json.NewEncoder(w).Encode(KVResponse{…}) writes it.
func AppendKVResponse(dst []byte, value int64, found bool) []byte {
	return append(appendValueFound(dst, value, found), '\n')
}

// appendValueFound is the object CmdResult and KVResponse share.
func appendValueFound(dst []byte, value int64, found bool) []byte {
	dst = append(dst, `{"value":`...)
	dst = strconv.AppendInt(dst, value, 10)
	dst = append(dst, `,"found":`...)
	dst = strconv.AppendBool(dst, found)
	return append(dst, '}')
}
