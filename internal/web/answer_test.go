package web

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"github.com/gables-model/gables/internal/eval"
)

// The /eval and /eval/batch bodies are written by hand-rolled appenders
// (eval.Outcome.AppendJSON and the envelopes' AppendJSON); these tests
// hold them to json.Marshal byte for byte.

// appender is anything with a reflection-free JSON encoder.
type appender interface{ AppendJSON(dst []byte) []byte }

// assertMarshalEqual fails unless v's appender writes json.Marshal(v)'s
// bytes, also when appending to a non-empty buffer.
func assertMarshalEqual(t *testing.T, v appender) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal(%#v): %v", v, err)
	}
	if got := v.AppendJSON(nil); !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON differs from json.Marshal:\n got %s\nwant %s", got, want)
	}
	prefix := []byte("prefix")
	if got := v.AppendJSON(prefix); !bytes.Equal(got[len(prefix):], want) || string(got[:len(prefix)]) != "prefix" {
		t.Fatalf("AppendJSON onto a non-empty buffer wrote %s, want prefix%s", got, want)
	}
}

// edgeFloats are the encoder's branch points: signed zeros, subnormals,
// the 1e-6 and 1e21 notation cutoffs and their neighbors, one-digit and
// three-digit exponents, and the float64 extremes.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456789, 2.5e-10,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	2.225073858507201e-308,  // largest subnormal
	2.2250738585072014e-308, // smallest normal
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6, 1e-7, 1.5e-7, -9.99e-7,
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, 1e20, 1e22,
	1e-100, 1e100, 1e-300, 1e300, math.MaxFloat64, -math.MaxFloat64,
}

// edgeStrings cover every string escape: HTML-sensitive bytes, the JSON
// short escapes and \u00XX controls, DEL, U+2028/U+2029, invalid and
// truncated UTF-8, and valid multi-byte runes.
var edgeStrings = []string{
	"", "snapdragon-835-sim", "<script>&amp;</script>",
	"line\xe2\x80\xa8sep\xe2\x80\xa9para",
	"bad \xff byte, truncated \xc3", "\xed\xa0\x80 surrogate",
	"quote\" back\\slash /", "ctl \x00\x01\b\f\n\r\t\x1f\x7f",
	"multi \xc3\xbc \xe2\x88\x91 \xf0\x9f\x9a\x80",
}

// outcomeWith builds an outcome whose every number is f and every string
// s, with optional confidence and per-IP detail.
func outcomeWith(f float64, s string, conf, ips bool) *eval.Outcome {
	o := &eval.Outcome{
		Backend: s, Fidelity: eval.Fidelity(s),
		Attainable: f, Makespan: f, TotalFlops: f, TieRatio: f, DRAMUtilization: f,
		Bottleneck: eval.Bottleneck{Kind: s, Name: s},
	}
	if conf {
		o.Confidence = &eval.Confidence{RelErrBound: f, Lo: f, Hi: f, Bucket: s, Efficiency: f}
	}
	if ips {
		o.IPs = []eval.IPOutcome{{IP: s, Flops: f, Bytes: f, Time: f, Rate: f}, {IP: "GPU", Flops: 1, Bytes: 2, Time: 3, Rate: 4}}
	}
	return o
}

// envelopes wraps an outcome in every response shape the endpoints write.
func envelopes(o *eval.Outcome, s string) []appender {
	return []appender{
		o,
		&evalResponse{Chip: s, Backend: s, Fingerprint: s, Outcome: o},
		&batchItemResult{Chip: s, Backend: s, Fingerprint: s, Outcome: o},
		&batchItemResult{Chip: s, Error: s},
		&batchResponse{Items: []batchItemResult{{Chip: s, Outcome: o}, {Error: s}}},
	}
}

func TestAppendJSONMatchesMarshal(t *testing.T) {
	for _, f := range edgeFloats {
		for _, variant := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
			for _, v := range envelopes(outcomeWith(f, "x", variant[0], variant[1]), "x") {
				assertMarshalEqual(t, v)
			}
		}
	}
	for _, s := range edgeStrings {
		for _, v := range envelopes(outcomeWith(1.5, s, true, true), s) {
			assertMarshalEqual(t, v)
		}
	}
	// Empty and nil shapes: a nil outcome, empty IPs, an empty item, a
	// nil and an empty item list.
	for _, v := range []appender{
		(*eval.Outcome)(nil),
		&eval.Outcome{IPs: []eval.IPOutcome{}},
		&evalResponse{},
		&batchItemResult{},
		&batchResponse{},
		&batchResponse{Items: []batchItemResult{}},
	} {
		assertMarshalEqual(t, v)
	}
}

// TestAppendJSONCoversTaggedFields fills every exported field reachable
// from each response type, then clears one field at a time, comparing the
// appender with json.Marshal each time. A JSON-tagged field the appender
// skips fails the filled comparison; a mishandled omitempty fails the one
// that clears it. Fields of a kind fill does not know fail outright, so
// a new field cannot slip past the walk.
func TestAppendJSONCoversTaggedFields(t *testing.T) {
	seen := map[reflect.Type]bool{}
	for _, root := range []appender{&eval.Outcome{}, &evalResponse{}, &batchItemResult{}, &batchResponse{}} {
		typ := reflect.TypeOf(root).Elem()
		build := func() (reflect.Value, []reflect.Value) {
			v := reflect.New(typ)
			seed := 0
			var nodes []reflect.Value
			fillValue(t, v.Elem(), &seed, &nodes, seen)
			return v, nodes
		}
		v, nodes := build()
		assertMarshalEqual(t, v.Interface().(appender))
		for k := range nodes {
			v, nodes := build()
			nodes[k].Set(reflect.Zero(nodes[k].Type()))
			assertMarshalEqual(t, v.Interface().(appender))
		}
	}
	for _, want := range []any{eval.Outcome{}, eval.IPOutcome{}, eval.Confidence{}, eval.Bottleneck{}, evalResponse{}, batchItemResult{}, batchResponse{}} {
		if typ := reflect.TypeOf(want); !seen[typ] {
			t.Errorf("the field walk never reached %v", typ)
		}
	}
}

// fillValue sets v and everything below it to distinct non-zero values,
// recording every settable node (exported field, pointer, slice element)
// so callers can clear them one at a time.
func fillValue(t *testing.T, v reflect.Value, seed *int, nodes *[]reflect.Value, seen map[reflect.Type]bool) {
	t.Helper()
	*seed++
	switch v.Kind() {
	case reflect.String:
		v.SetString(fmt.Sprintf("v%d<&>", *seed))
	case reflect.Float64:
		v.SetFloat(float64(*seed) + 0.25)
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		fillValue(t, p.Elem(), seed, nodes, seen)
		v.Set(p)
	case reflect.Slice:
		s := reflect.MakeSlice(v.Type(), 2, 2)
		for i := 0; i < s.Len(); i++ {
			fillValue(t, s.Index(i), seed, nodes, seen)
		}
		v.Set(s)
	case reflect.Struct:
		seen[v.Type()] = true
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			if f.Tag.Get("json") == "" {
				t.Errorf("%v.%s has no json tag", v.Type(), f.Name)
			}
			*nodes = append(*nodes, v.Field(i))
			fillValue(t, v.Field(i), seed, nodes, seen)
		}
	default:
		t.Fatalf("fillValue: %v has unsupported kind %v; teach the appender and this walk about it", v.Type(), v.Kind())
	}
}

// TestWriteAnswerNonFinite pins the failure path: json.Marshal rejects a
// non-finite number, and so an answer holding one gets the same 500 as
// before the appenders existed rather than a body that is not JSON.
func TestWriteAnswerNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		o := outcomeWith(1, "x", true, true)
		o.IPs[1].Rate = bad
		if o.Finite() {
			t.Fatalf("outcome with %v reported finite", bad)
		}
		for _, a := range []answer{&evalResponse{Outcome: o}, &batchResponse{Items: []batchItemResult{{Outcome: o}}}} {
			rec := httptest.NewRecorder()
			writeAnswer(rec, a)
			if rec.Code != http.StatusInternalServerError || !bytes.Contains(rec.Body.Bytes(), []byte("unsupported value")) {
				t.Errorf("non-finite %v answered %d %s, want 500 naming the unsupported value", bad, rec.Code, rec.Body)
			}
		}
	}
	if o := outcomeWith(math.MaxFloat64, "x", true, true); !o.Finite() {
		t.Error("an outcome of finite extremes must be finite (no overflowing sum)")
	}
}

// FuzzAppendJSON holds the appenders to json.Marshal on arbitrary strings
// and floats; json.Marshal must fail exactly on the outcomes that are not
// Finite. The seed corpus lives in testdata/fuzz/FuzzAppendJSON.
func FuzzAppendJSON(f *testing.F) {
	f.Add("snapdragon-835-sim", "sim", "<&>", 1.5, 1e-7, 1e21, 0.0, true, true)
	f.Fuzz(func(t *testing.T, s1, s2, s3 string, a, b, c, d float64, conf, ips bool) {
		o := &eval.Outcome{
			Backend: s1, Fidelity: eval.Fidelity(s2),
			Attainable: a, Makespan: b, TotalFlops: c, TieRatio: d, DRAMUtilization: a * d,
			Bottleneck: eval.Bottleneck{Kind: s3, Name: s1},
		}
		if conf {
			o.Confidence = &eval.Confidence{RelErrBound: d, Lo: a, Hi: b, Bucket: s3, Efficiency: c}
		}
		if ips {
			o.IPs = []eval.IPOutcome{{IP: s2, Flops: a, Bytes: b, Time: c, Rate: d}, {IP: s3, Flops: d, Bytes: c, Time: b, Rate: a}}
		}
		if _, err := json.Marshal(o); (err == nil) != o.Finite() {
			t.Fatalf("json.Marshal error %v, but Finite() = %v", err, o.Finite())
		}
		if !o.Finite() {
			return
		}
		for _, v := range envelopes(o, s3) {
			assertMarshalEqual(t, v)
		}
	})
}
