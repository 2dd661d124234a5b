package surf

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// JSON encodings for the query/result/event types, used by the HTTP
// serving layer (package server) and its clients. Queries marshal
// with encoding/json's defaults (their validation rejects non-finite
// numbers anyway). Results, regions and events have a hand-written
// codec, because several of their fields are legitimately NaN —
// ComplianceRate when verification is skipped, MeanFitness before any
// particle is valid, TrueValue over an empty region — and encoding/json
// refuses non-finite floats. Non-finite values encode as the JSON
// strings "NaN", "+Inf" and "-Inf", and decode from them.
//
// The encoder is a set of append functions (appendResult,
// appendRegion, AppendEvent) that write each field in a fixed order,
// floats in strconv's shortest 'g' form. Result.AppendJSON and
// AppendEvent let a server write an answer straight into its output
// buffer; MarshalJSON and MarshalEvent wrap them.
//
// The decoder is one single-pass scanner (decoder) behind
// Result.UnmarshalJSON, Region.UnmarshalJSON and UnmarshalEvent. It
// accepts a subset of what encoding/json accepted for these types and
// returns bit-identical values for every input it accepts:
//
//   - any whitespace and key order; a repeated key's last value wins;
//   - unknown keys with values of any JSON kind, which are skipped;
//   - null for a float, which decodes to NaN; null for a list, a
//     region or a result, which decodes to nil or the zero value; null
//     for an integer or a bool, which leaves it unset;
//   - the strings "NaN", "+Inf", "-Inf" and the alias "Inf" for floats.
//
// Keys must match exactly: a key that equals a known key only when
// letter case is ignored is rejected, where encoding/json matched it.
// Trailing data, an integer field that is not an integer in range,
// and a number that is not valid JSON (+1, 01, 1., .5, 0x1p3, inf)
// are rejected with an error.

// appendFloat appends v in the wire form: strconv's shortest 'g'
// representation, or the strings "NaN", "+Inf" and "-Inf".
func appendFloat(b []byte, v float64) []byte {
	switch {
	case math.IsNaN(v):
		return append(b, `"NaN"`...)
	case math.IsInf(v, 1):
		return append(b, `"+Inf"`...)
	case math.IsInf(v, -1):
		return append(b, `"-Inf"`...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendFloats appends a list of floats; a nil list is [], as an
// empty one.
func appendFloats(b []byte, v []float64) []byte {
	b = append(b, '[')
	for i, x := range v {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, x)
	}
	return append(b, ']')
}

func appendRegion(b []byte, r *Region) []byte {
	b = append(b, `{"min":`...)
	b = appendFloats(b, r.Min)
	b = append(b, `,"max":`...)
	b = appendFloats(b, r.Max)
	b = append(b, `,"estimate":`...)
	b = appendFloat(b, r.Estimate)
	b = append(b, `,"score":`...)
	b = appendFloat(b, r.Score)
	b = append(b, `,"worms":`...)
	b = strconv.AppendInt(b, int64(r.Worms), 10)
	b = append(b, `,"true_value":`...)
	b = appendFloat(b, r.TrueValue)
	b = append(b, `,"verified":`...)
	b = strconv.AppendBool(b, r.Verified)
	b = append(b, `,"satisfies":`...)
	b = strconv.AppendBool(b, r.Satisfies)
	return append(b, '}')
}

// appendResult appends a result; an empty region list is [], not
// null.
func appendResult(b []byte, r *Result) []byte {
	b = append(b, `{"regions":[`...)
	for i := range r.Regions {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendRegion(b, &r.Regions[i])
	}
	b = append(b, `],"valid_particle_fraction":`...)
	b = appendFloat(b, r.ValidParticleFraction)
	b = append(b, `,"compliance_rate":`...)
	b = appendFloat(b, r.ComplianceRate)
	b = append(b, `,"elapsed_seconds":`...)
	b = appendFloat(b, r.ElapsedSeconds)
	return append(b, '}')
}

// AppendEvent appends an event's JSON envelope, the bytes MarshalEvent
// returns, to b and returns the extended buffer. Every event encodes
// as an object with a "type" discriminator — "iteration", "region" or
// "done" — matching the SSE event names the HTTP layer emits.
func AppendEvent(b []byte, ev Event) ([]byte, error) {
	switch ev := ev.(type) {
	case EventIteration:
		b = append(b, `{"type":"iteration","iteration":`...)
		b = strconv.AppendInt(b, int64(ev.Iteration), 10)
		b = append(b, `,"mean_fitness":`...)
		b = appendFloat(b, ev.MeanFitness)
		b = append(b, `,"mean_luciferin":`...)
		b = appendFloat(b, ev.MeanLuciferin)
		b = append(b, `,"valid_particle_fraction":`...)
		b = appendFloat(b, ev.ValidParticleFraction)
		b = append(b, `,"moved":`...)
		b = strconv.AppendInt(b, int64(ev.Moved), 10)
	case EventRegion:
		b = append(b, `{"type":"region","iteration":`...)
		b = strconv.AppendInt(b, int64(ev.Iteration), 10)
		b = append(b, `,"region":`...)
		b = appendRegion(b, &ev.Region)
	case EventDone:
		b = append(b, `{"type":"done","result":`...)
		if ev.Result == nil {
			b = append(b, "null"...)
		} else {
			b = appendResult(b, ev.Result)
		}
	default:
		return b, fmt.Errorf("surf: encoding unknown event %T", ev)
	}
	return append(b, '}'), nil
}

// MarshalJSON encodes the region with snake_case keys and non-finite
// values as strings (see package json notes above).
func (r Region) MarshalJSON() ([]byte, error) {
	return appendRegion(nil, &r), nil
}

// UnmarshalJSON decodes the wire form written by MarshalJSON.
func (r *Region) UnmarshalJSON(b []byte) error {
	d := decoder{s: string(b)}
	var g Region
	if err := d.whole(func() error { return d.region(&g) }); err != nil {
		return err
	}
	*r = g
	return nil
}

// AppendJSON appends the result's JSON form, the bytes MarshalJSON
// returns, to b and returns the extended buffer.
func (r Result) AppendJSON(b []byte) []byte {
	return appendResult(b, &r)
}

// MarshalJSON encodes the result with snake_case keys; ComplianceRate
// is the string "NaN" when verification was skipped.
func (r Result) MarshalJSON() ([]byte, error) {
	return appendResult(nil, &r), nil
}

// UnmarshalJSON decodes the wire form written by MarshalJSON.
func (r *Result) UnmarshalJSON(b []byte) error {
	d := decoder{s: string(b)}
	var res Result
	if err := d.whole(func() error { return d.result(&res) }); err != nil {
		return err
	}
	*r = res
	return nil
}

// MarshalEvent encodes an event as its JSON envelope: a "type" field
// ("iteration", "region" or "done") plus the event's payload. It is
// the wire form the HTTP layer's SSE stream carries and
// UnmarshalEvent reverses.
func MarshalEvent(ev Event) ([]byte, error) {
	return AppendEvent(nil, ev)
}

// Event payload keys, one bit each in UnmarshalEvent's bookkeeping.
const (
	evIteration = iota
	evMeanFitness
	evMeanLuciferin
	evValidFraction
	evMoved
	evRegion
	evResult
	evKeys
)

// eventKeys names the payload keys.
var eventKeys = [evKeys]string{"iteration", "mean_fitness", "mean_luciferin", "valid_particle_fraction", "moved", "region", "result"}

// UnmarshalEvent decodes an event envelope written by MarshalEvent.
//
// The "type" field may come anywhere in the object, so every payload
// key is decoded as it is met, whatever the type. A value that is
// valid JSON but does not decode as its key's field is skipped and
// the key remembered as bad: it is an error only if the type, once
// known, reads that key, since an envelope ignores the keys of the
// other event types.
func UnmarshalEvent(b []byte) (Event, error) {
	d := decoder{s: string(b)}
	var (
		kind      string
		iteration int
		it        EventIteration
		region    Region
		result    *Result
		bad       [evKeys]error
	)
	decode := func(key int) error {
		switch key {
		case evIteration:
			return d.int(&iteration)
		case evMeanFitness:
			return d.float(&it.MeanFitness)
		case evMeanLuciferin:
			return d.float(&it.MeanLuciferin)
		case evValidFraction:
			return d.float(&it.ValidParticleFraction)
		case evMoved:
			return d.int(&it.Moved)
		case evRegion:
			return d.region(&region)
		}
		d.ws()
		if d.consume("null") {
			result = nil
			return nil
		}
		result = new(Result)
		return d.result(result)
	}
	err := d.whole(func() error {
		return d.object(func(key string) error {
			if key == "type" {
				d.ws()
				if d.consume("null") {
					return nil
				}
				s, err := d.str()
				kind = s
				return err
			}
			for k, name := range eventKeys {
				switch {
				case key == name:
					start, depth := d.i, d.depth
					err := decode(k)
					if err == nil {
						return nil
					}
					d.i, d.depth = start, depth
					if bad[k] == nil {
						bad[k] = err
					}
					return d.skip()
				case strings.EqualFold(key, name):
					if bad[k] == nil {
						bad[k] = d.caseErr(key, name)
					}
					return d.skip()
				}
			}
			return d.unknown(key, "type")
		})
	})
	if err != nil {
		return nil, err
	}
	var (
		ev    Event
		needs uint
	)
	switch kind {
	case "iteration":
		it.Iteration = iteration
		ev, needs = it, 1<<evIteration|1<<evMeanFitness|1<<evMeanLuciferin|1<<evValidFraction|1<<evMoved
	case "region":
		ev, needs = EventRegion{Region: region, Iteration: iteration}, 1<<evIteration|1<<evRegion
	case "done":
		if result == nil {
			result = &Result{}
		}
		ev, needs = EventDone{Result: result}, 1<<evResult
	default:
		return nil, fmt.Errorf("surf: UnmarshalEvent: unknown event type %q", kind)
	}
	for k, err := range bad {
		if err != nil && needs&(1<<k) != 0 {
			return nil, err
		}
	}
	return ev, nil
}

// maxDepth is encoding/json's nesting limit; deeper input is
// rejected, as there.
const maxDepth = 10000

// decoder scans one JSON value in a single pass. It holds the input
// as a string, so numbers parse with strconv without a copy each.
type decoder struct {
	s     string
	i     int
	depth int
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("surf: JSON at offset %d: %s", d.i, fmt.Sprintf(format, args...))
}

func (d *decoder) caseErr(key, name string) error {
	return d.errorf("key %q matches %q only when case is ignored", key, name)
}

// whole decodes the entire input with value: nothing but whitespace
// may follow it.
func (d *decoder) whole(value func() error) error {
	if err := value(); err != nil {
		return err
	}
	d.ws()
	if d.i != len(d.s) {
		return d.errorf("trailing data after the JSON value")
	}
	return nil
}

func (d *decoder) ws() {
	for d.i < len(d.s) {
		switch d.s[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// eat advances past c if it is the next byte.
func (d *decoder) eat(c byte) bool {
	if d.i < len(d.s) && d.s[d.i] == c {
		d.i++
		return true
	}
	return false
}

// consume advances past tok if the input continues with it.
func (d *decoder) consume(tok string) bool {
	if strings.HasPrefix(d.s[d.i:], tok) {
		d.i += len(tok)
		return true
	}
	return false
}

// object decodes an object, calling field with the decoder positioned
// before each member's value; field must consume that value.
func (d *decoder) object(field func(key string) error) error {
	d.ws()
	if !d.eat('{') {
		return d.errorf("expected an object")
	}
	if d.depth++; d.depth > maxDepth {
		return d.errorf("exceeded max depth")
	}
	d.ws()
	if d.eat('}') {
		d.depth--
		return nil
	}
	for {
		d.ws()
		key, err := d.str()
		if err != nil {
			return err
		}
		d.ws()
		if !d.eat(':') {
			return d.errorf("expected ':' after object key")
		}
		if err := field(key); err != nil {
			return err
		}
		d.ws()
		if d.eat('}') {
			d.depth--
			return nil
		}
		if !d.eat(',') {
			return d.errorf("expected ',' or '}' in object")
		}
	}
}

// array decodes an array, calling elem with the decoder positioned
// before each element; elem must consume it.
func (d *decoder) array(elem func() error) error {
	d.ws()
	if !d.eat('[') {
		return d.errorf("expected an array")
	}
	if d.depth++; d.depth > maxDepth {
		return d.errorf("exceeded max depth")
	}
	d.ws()
	if d.eat(']') {
		d.depth--
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		d.ws()
		if d.eat(']') {
			d.depth--
			return nil
		}
		if !d.eat(',') {
			return d.errorf("expected ',' or ']' in array")
		}
	}
}

// unknown skips the value of a key outside known. A key equal to one
// of known except in letter case is an error: encoding/json matched
// it, so skipping it would decode a different value.
func (d *decoder) unknown(key string, known ...string) error {
	for _, name := range known {
		if strings.EqualFold(key, name) {
			return d.caseErr(key, name)
		}
	}
	return d.skip()
}

// skip consumes one JSON value of any kind, checking its syntax.
func (d *decoder) skip() error {
	d.ws()
	if d.i == len(d.s) {
		return d.errorf("unexpected end of input")
	}
	switch d.s[d.i] {
	case '{':
		return d.object(func(string) error { return d.skip() })
	case '[':
		return d.array(d.skip)
	case '"':
		_, err := d.str()
		return err
	}
	if d.consume("true") || d.consume("false") || d.consume("null") {
		return nil
	}
	_, err := d.number()
	return err
}

// str decodes a string. A string without escapes is returned as a
// slice of the input. Decoded strings are only compared with known
// ASCII keys and type names, exactly and ignoring case, so what
// encoding/json would do with invalid UTF-8 and surrogate escapes
// (which this keeps as they are and turns into U+FFFD) cannot matter:
// neither the bytes nor U+FFFD match an ASCII name either way.
func (d *decoder) str() (string, error) {
	if !d.eat('"') {
		return "", d.errorf("expected a string")
	}
	start := d.i
	for d.i < len(d.s) {
		switch c := d.s[d.i]; {
		case c == '"':
			d.i++
			return d.s[start : d.i-1], nil
		case c == '\\':
			return d.unescape(start)
		case c < 0x20:
			return "", d.errorf("control character in string")
		}
		d.i++
	}
	return "", d.errorf("unterminated string")
}

// unescape finishes a string from its first backslash, start being
// the offset just after the opening quote.
func (d *decoder) unescape(start int) (string, error) {
	out := []byte(d.s[start:d.i])
	for d.i < len(d.s) {
		c := d.s[d.i]
		switch {
		case c == '"':
			d.i++
			return string(out), nil
		case c < 0x20:
			return "", d.errorf("control character in string")
		case c != '\\':
			out = append(out, c)
			d.i++
			continue
		}
		if d.i+1 >= len(d.s) {
			break
		}
		d.i += 2
		switch e := d.s[d.i-1]; e {
		case '"', '\\', '/':
			out = append(out, e)
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			r, ok := d.hex4()
			if !ok {
				return "", d.errorf("invalid \\u escape")
			}
			out = utf8.AppendRune(out, r)
		default:
			return "", d.errorf("invalid escape \\%c", e)
		}
	}
	return "", d.errorf("unterminated string")
}

// hex4 reads the four hex digits of a \u escape.
func (d *decoder) hex4() (rune, bool) {
	if d.i+4 > len(d.s) {
		return 0, false
	}
	n, err := strconv.ParseUint(d.s[d.i:d.i+4], 16, 16)
	if err != nil {
		return 0, false
	}
	d.i += 4
	return rune(n), true
}

// number consumes a number in JSON's grammar and returns its text.
func (d *decoder) number() (string, error) {
	s, start := d.s, d.i
	i := start
	digits := func() bool {
		j := i
		for i < len(s) && '0' <= s[i] && s[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(s) && s[i] == '-' {
		i++
	}
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case !digits():
		return "", d.errorf("invalid number")
	}
	if i < len(s) && s[i] == '.' {
		i++
		if !digits() {
			return "", d.errorf("invalid number")
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if !digits() {
			return "", d.errorf("invalid number")
		}
	}
	d.i = i
	return s[start:i], nil
}

// float decodes a float field: a number, null (NaN) or one of the
// non-finite strings.
func (d *decoder) float(dst *float64) error {
	d.ws()
	if d.i < len(d.s) && (d.s[d.i] == 'n' || d.s[d.i] == '"') {
		switch {
		case d.consume("null"), d.consume(`"NaN"`):
			*dst = math.NaN()
		case d.consume(`"+Inf"`), d.consume(`"Inf"`):
			*dst = math.Inf(1)
		case d.consume(`"-Inf"`):
			*dst = math.Inf(-1)
		default:
			return d.errorf("expected a number, null or a non-finite string")
		}
		return nil
	}
	num, err := d.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return d.errorf("float %s out of range", num)
	}
	*dst = v
	return nil
}

// floats decodes a list of floats; null is a nil list.
func (d *decoder) floats(dst *[]float64) error {
	d.ws()
	if d.consume("null") {
		*dst = nil
		return nil
	}
	var scratch [8]float64
	out := scratch[:0]
	err := d.array(func() error {
		var v float64
		err := d.float(&v)
		out = append(out, v)
		return err
	})
	if err != nil {
		return err
	}
	*dst = append(make([]float64, 0, len(out)), out...)
	return nil
}

// int decodes an integer field; null leaves it unset.
func (d *decoder) int(dst *int) error {
	d.ws()
	if d.consume("null") {
		return nil
	}
	num, err := d.number()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(num, 10, 0)
	if err != nil {
		return d.errorf("%s is not an integer in range", num)
	}
	*dst = int(n)
	return nil
}

// bool decodes a bool field; null leaves it unset.
func (d *decoder) bool(dst *bool) error {
	d.ws()
	switch {
	case d.consume("true"):
		*dst = true
	case d.consume("false"):
		*dst = false
	case !d.consume("null"):
		return d.errorf("expected a bool")
	}
	return nil
}

var regionKeys = []string{"min", "max", "estimate", "score", "worms", "true_value", "verified", "satisfies"}

// region decodes a region; null is the zero region.
func (d *decoder) region(r *Region) error {
	*r = Region{}
	d.ws()
	if d.consume("null") {
		return nil
	}
	return d.object(func(key string) error {
		switch key {
		case "min":
			return d.floats(&r.Min)
		case "max":
			return d.floats(&r.Max)
		case "estimate":
			return d.float(&r.Estimate)
		case "score":
			return d.float(&r.Score)
		case "worms":
			return d.int(&r.Worms)
		case "true_value":
			return d.float(&r.TrueValue)
		case "verified":
			return d.bool(&r.Verified)
		case "satisfies":
			return d.bool(&r.Satisfies)
		}
		return d.unknown(key, regionKeys...)
	})
}

var resultKeys = []string{"regions", "valid_particle_fraction", "compliance_rate", "elapsed_seconds"}

// result decodes a result; null is the zero result.
func (d *decoder) result(r *Result) error {
	*r = Result{}
	d.ws()
	if d.consume("null") {
		return nil
	}
	return d.object(func(key string) error {
		switch key {
		case "regions":
			return d.regions(&r.Regions)
		case "valid_particle_fraction":
			return d.float(&r.ValidParticleFraction)
		case "compliance_rate":
			return d.float(&r.ComplianceRate)
		case "elapsed_seconds":
			return d.float(&r.ElapsedSeconds)
		}
		return d.unknown(key, resultKeys...)
	})
}

// regions decodes a region list; null is a nil list, [] an empty one.
func (d *decoder) regions(dst *[]Region) error {
	d.ws()
	if d.consume("null") {
		*dst = nil
		return nil
	}
	out := []Region{}
	err := d.array(func() error {
		out = append(out, Region{})
		return d.region(&out[len(out)-1])
	})
	*dst = out
	return err
}
