// Package metrics is the one place that walks a counter struct: a
// struct whose every field is an exported uint64 or int64 counter.
//
// A stats surface declares its counters once, as the fields of one such
// struct. Its live counters are a value of that struct, written only
// through sync/atomic (atomic.AddUint64(&live.Field, 1)); readers take a
// plain copy with Load and work on copies with Sub, Add and WriteText.
// The walk is by reflection and happens only on these read paths: an
// increment stays one atomic add. Every function panics on a type that
// is not a counter struct.
package metrics

import (
	"fmt"
	"io"
	"reflect"
	"sync/atomic"
)

// fields checks that t is a counter struct and returns its field count.
func fields(t reflect.Type) int {
	if t.Kind() != reflect.Struct {
		panic(fmt.Sprintf("metrics: %v is not a struct", t))
	}
	for i := range t.NumField() {
		f := t.Field(i)
		if k := f.Type.Kind(); !f.IsExported() || k != reflect.Uint64 && k != reflect.Int64 {
			panic(fmt.Sprintf("metrics: %v.%s is not an exported uint64 or int64", t, f.Name))
		}
	}
	return t.NumField()
}

// Load returns a copy of *live, each field read with an atomic load.
func Load[T any](live *T) T {
	var out T
	src, dst := reflect.ValueOf(live).Elem(), reflect.ValueOf(&out).Elem()
	for i := range fields(src.Type()) {
		switch p := src.Field(i).Addr().Interface().(type) {
		case *uint64:
			dst.Field(i).SetUint(atomic.LoadUint64(p))
		case *int64:
			dst.Field(i).SetInt(atomic.LoadInt64(p))
		}
	}
	return out
}

// Sub returns a - b, field by field.
func Sub[T any](a, b T) T { return zip(a, b, func(x, y uint64) uint64 { return x - y }) }

// Add returns a + b, field by field.
func Add[T any](a, b T) T { return zip(a, b, func(x, y uint64) uint64 { return x + y }) }

// zip returns a with op applied to each pair of fields. An int64 goes
// through op as its two's-complement bits, which wrap as uint64 does.
func zip[T any](a, b T, op func(x, y uint64) uint64) T {
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := range fields(va.Type()) {
		x, y := va.Field(i), vb.Field(i)
		if x.Kind() == reflect.Int64 {
			x.SetInt(int64(op(uint64(x.Int()), uint64(y.Int()))))
		} else {
			x.SetUint(op(x.Uint(), y.Uint()))
		}
	}
	return a
}

// WriteText writes format once per field of the counter struct v, in
// declaration order, with the field's name and value as its operands:
// " %s=%d" gives a name=value list, "%s: %d\n" one line per counter.
func WriteText(w io.Writer, format string, v any) error {
	rv := reflect.ValueOf(v)
	for i := range fields(rv.Type()) {
		if _, err := fmt.Fprintf(w, format, rv.Type().Field(i).Name, rv.Field(i).Interface()); err != nil {
			return err
		}
	}
	return nil
}
