// Package jsonwire is the single-pass JSON codec under the bulk
// persistence formats: genomes and NEAT population checkpoints, which
// reach megabytes at RAM-workload scale.
//
// encoding/json reads such a document several times per value (scan
// for the value's extent, validate it, then decode it reflectively).
// Scanner instead walks a fixed-schema document once, the way EvE
// streams a genome once as a run of gene words. It accepts a subset of
// what encoding/json accepts: object keys and the strings it decodes
// carry no escapes, and the caller rejects unknown keys; small nested
// values (a Config, a PRNG state) are still handed to encoding/json
// through Decode. AppendFloat writes float64 exactly as encoding/json
// does, so documents encoded by hand stay byte-identical to the
// reflective encoding.
package jsonwire

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// Scanner reads one JSON document from a byte slice. Errors are sticky:
// after the first failure every method is a no-op returning zero
// values, so a decoder reads as straight-line code and checks Err once
// at the end.
type Scanner struct {
	data []byte
	pos  int
	err  error
}

// New returns a scanner over data.
func New(data []byte) *Scanner { return &Scanner{data: data} }

// Err returns the first error the scanner met, if any.
func (s *Scanner) Err() error { return s.err }

// Fail records err (annotated with the byte offset) unless an earlier
// error is already recorded.
func (s *Scanner) Fail(err error) {
	if s.err == nil {
		s.err = fmt.Errorf("offset %d: %w", s.pos, err)
	}
}

// Failf is Fail with a formatted message.
func (s *Scanner) Failf(format string, args ...any) { s.Fail(fmt.Errorf(format, args...)) }

func (s *Scanner) skipWS() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte (0 at the end of the
// input or after an error).
func (s *Scanner) peek() byte {
	if s.err != nil {
		return 0
	}
	if s.pos < len(s.data) && s.data[s.pos] > ' ' {
		return s.data[s.pos] // compact input: no whitespace to skip
	}
	s.skipWS()
	if s.pos == len(s.data) {
		return 0
	}
	return s.data[s.pos]
}

// expect consumes c after optional whitespace.
func (s *Scanner) expect(c byte) bool {
	if s.peek() != c {
		if s.err == nil {
			s.Failf("expected %q", c)
		}
		return false
	}
	s.pos++
	return true
}

// literal consumes the keyword lit (true, false or null) if it is next.
func (s *Scanner) literal(lit string) bool {
	if s.peek() != lit[0] || len(s.data)-s.pos < len(lit) || string(s.data[s.pos:s.pos+len(lit)]) != lit {
		return false
	}
	s.pos += len(lit)
	return true
}

// Null consumes a null literal if one is next and reports whether it
// did.
func (s *Scanner) Null() bool { return s.literal("null") }

// Object reads an object, calling field once per member with its key;
// field must consume exactly the member's value.
func (s *Scanner) Object(field func(key []byte)) {
	if !s.expect('{') {
		return
	}
	if s.peek() == '}' {
		s.pos++
		return
	}
	for s.err == nil {
		key := s.Str()
		if !s.expect(':') {
			return
		}
		field(key)
		if s.peek() == '}' {
			s.pos++
			return
		}
		s.expect(',')
	}
}

// Array reads an array, calling elem once per element; elem must
// consume exactly the element.
func (s *Scanner) Array(elem func()) {
	if !s.expect('[') {
		return
	}
	if s.peek() == ']' {
		s.pos++
		return
	}
	for s.err == nil {
		elem()
		if s.peek() == ']' {
			s.pos++
			return
		}
		s.expect(',')
	}
}

// Str reads a string that carries no escape sequences and returns its
// bytes, aliasing the input.
func (s *Scanner) Str() []byte {
	if !s.expect('"') {
		return nil
	}
	start := s.pos
	for i := start; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			s.pos = i + 1
			return s.data[start:i]
		case c == '\\' || c < 0x20:
			s.pos = i
			s.Failf("unsupported string byte %q", c)
			return nil
		}
	}
	s.pos = len(s.data)
	s.Failf("unterminated string")
	return nil
}

// number reads one number literal under the JSON grammar.
func (s *Scanner) number() []byte {
	if s.peek() == 0 {
		s.Failf("expected number")
		return nil
	}
	d, start := s.data, s.pos
	i := start
	digits := func() bool {
		j := i
		for i < len(d) && d[i] >= '0' && d[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	if i < len(d) && d[i] == '0' {
		i++
	} else if !digits() {
		s.Failf("expected number")
		return nil
	}
	if i < len(d) && d[i] == '.' {
		i++
		if !digits() {
			s.Failf("malformed number")
			return nil
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		i++
		if i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if !digits() {
			s.Failf("malformed number")
			return nil
		}
	}
	s.pos = i
	return d[start:i]
}

// Int reads an integer that fits in bits bits. Like encoding/json, it
// rejects fractions and exponents.
func (s *Scanner) Int(bits int) int64 {
	lit := s.number()
	if s.err != nil {
		return 0
	}
	v, ok := smallInt(lit)
	if lim := int64(1) << (bits - 1); !ok || bits < 64 && (v < -lim || v >= lim) {
		var err error
		if v, err = strconv.ParseInt(string(lit), 10, bits); err != nil {
			s.Failf("integer %s: %w", lit, errors.Unwrap(err))
			return 0
		}
	}
	return v
}

// smallInt parses a plain integer literal of at most 18 digits (which
// cannot overflow an int64) without strconv's generality.
func smallInt(lit []byte) (int64, bool) {
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	if len(lit) > 18 {
		return 0, false
	}
	var v int64
	for _, c := range lit {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, true
}

// Float reads a float64. Like encoding/json, it rejects literals
// outside float64's range.
func (s *Scanner) Float() float64 {
	lit := s.number()
	if s.err != nil {
		return 0
	}
	v, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		s.Failf("number %s: %w", lit, errors.Unwrap(err))
		return 0
	}
	return v
}

// Bool reads true or false.
func (s *Scanner) Bool() bool {
	switch {
	case s.literal("true"):
		return true
	case s.literal("false"):
		return false
	}
	if s.err == nil {
		s.Failf("expected boolean")
	}
	return false
}

// Decode hands the next value, an object or array, to encoding/json:
// for small nested values whose schema the caller does not walk itself.
func (s *Scanner) Decode(v any) {
	raw := s.raw()
	if s.err != nil {
		return
	}
	if err := json.Unmarshal(raw, v); err != nil {
		s.Fail(err)
	}
}

// raw returns the extent of the next object or array. It only delimits
// the value (brackets outside strings, string escapes); encoding/json
// validates what it returns.
func (s *Scanner) raw() []byte {
	if c := s.peek(); c != '{' && c != '[' {
		if s.err == nil {
			s.Failf("expected object or array")
		}
		return nil
	}
	start, depth := s.pos, 0
	for s.pos < len(s.data) {
		c := s.data[s.pos]
		s.pos++
		switch c {
		case '"':
			s.skipString()
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return s.data[start:s.pos]
			}
		}
		if s.err != nil {
			return nil
		}
	}
	s.Failf("unterminated value")
	return nil
}

// skipString advances past the closing quote of a string whose opening
// quote was already consumed, stepping over escapes.
func (s *Scanner) skipString() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case '"':
			s.pos++
			return
		case '\\':
			s.pos++
		}
		s.pos++
	}
	s.Failf("unterminated string")
}

// End checks that only whitespace follows the document.
func (s *Scanner) End() {
	if s.peek() != 0 || s.pos != len(s.data) {
		if s.err == nil {
			s.Failf("trailing data after document")
		}
	}
}

// AppendFloat appends f formatted as encoding/json formats a float64:
// the shortest round-trip representation, in exponent form outside
// [1e-6, 1e21) with a two-digit negative exponent shortened ("e-09"
// becomes "e-9"). NaN and ±Inf are errors, as they are there.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, fmt.Errorf("jsonwire: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}
