package jsonwire

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/rng"
)

// TestAppendFloatMatchesEncodingJSON: AppendFloat writes encoding/json's
// bytes for the cutoffs of its exponent form and for random bit
// patterns across the whole float64 range.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.999999e-7, 1e-7, 1e20, 1e21,
		999999999999999999999, 1.5e-9, 1e-10, 1e-100, 1e100, 5e-324, math.MaxFloat64, -math.MaxFloat64}
	r := rng.New(1)
	for i := 0; i < 20000; i++ {
		if f := math.Float64frombits(r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			floats = append(floats, f)
		}
	}
	for _, f := range floats {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendFloat(nil, f)
		if err != nil || string(got) != string(want) {
			t.Fatalf("%v: got %s (%v), want %s", f, got, err, want)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := AppendFloat(nil, f); err == nil {
			t.Errorf("%v encoded", f)
		}
	}
}

// TestScannerNumbersMatchEncodingJSON: Int and Float accept exactly the
// literals encoding/json accepts for int32/int64/float64 fields, with
// the same values.
func TestScannerNumbersMatchEncodingJSON(t *testing.T) {
	lits := []string{"0", "-0", "7", "-12", "2147483647", "2147483648", "-2147483648", "-2147483649",
		"9223372036854775807", "9223372036854775808", "-9223372036854775808", "123456789012345678",
		"1234567890123456789", "01", "1.", ".5", "1.5", "1e2", "1E+2", "-1e-2", "1e400", "1e-400",
		"-", "+1", "0x10", "1_0", "", "3.14159265358979323846", "4.9e-324"}
	for _, lit := range lits {
		check := func(kind string, ref any, read func(*Scanner) any) {
			refOK := json.Unmarshal([]byte(lit), ref) == nil
			want := reflect.ValueOf(ref).Elem().Interface()
			if got, ok := scanOne(lit, read); ok != refOK || ok && fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s %q: got %v (ok %v), encoding/json %v (ok %v)", kind, lit, got, ok, want, refOK)
			}
		}
		check("int32", new(int32), func(s *Scanner) any { return int32(s.Int(32)) })
		check("int64", new(int64), func(s *Scanner) any { return s.Int(64) })
		check("float64", new(float64), func(s *Scanner) any { return s.Float() })
	}
}

func scanOne(lit string, read func(*Scanner) any) (any, bool) {
	s := New([]byte(lit))
	v := read(s)
	s.End()
	return v, s.Err() == nil
}

// TestDecodeDelimitsNestedValues: Decode hands encoding/json exactly
// the next value, strings with escaped quotes and brackets included,
// and the scan resumes after it.
func TestDecodeDelimitsNestedValues(t *testing.T) {
	s := New([]byte(`{"a":{"x":[1,{"y":"]}\"{"}],"z":null},"b":2}`))
	var a map[string]any
	var b int64
	s.Object(func(key []byte) {
		switch string(key) {
		case "a":
			s.Decode(&a)
		case "b":
			b = s.Int(64)
		default:
			s.Failf("unknown key %q", key)
		}
	})
	s.End()
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if b != 2 || len(a) != 2 {
		t.Fatalf("a=%v b=%d", a, b)
	}
	for _, bad := range []string{`{"a":5}`, `{"a":"x"}`, `{"a":{"x":1}`, `{"a":{"x":1]],"b":2}`, `{"a":"\"}`, `{"a":tru}`} {
		s := New([]byte(bad))
		s.Object(func(key []byte) { s.Decode(&a) })
		s.End()
		if s.Err() == nil {
			t.Errorf("%s: accepted", bad)
		}
	}
}
