// Package keytest is the reflection half of the content-address
// completeness tests: it changes every exported field reachable from a
// struct, one at a time, so a test can assert that each change moves the
// key derived from it (or is on that key's documented exception list).
// A field added to a keyed struct later is visited without anyone
// remembering to extend a test.
package keytest

import (
	"fmt"
	"reflect"
)

// EachField calls visit once per change to the struct p points to, with
// the change applied, and undoes it afterwards. path names the changed
// field ("Mem.L1Ways", "Src[0].Imm"). The changes, by kind:
//
//   - bool, integer, float and string fields take a different value;
//   - nested structs, and the first element of an array, are descended
//     into;
//   - a slice gains a zero element, and its first element, when it has
//     one, is descended into;
//   - a map gains a zero-keyed entry;
//   - a nil pointer is pointed at a zero value, and a non-nil pointer
//     is both set to nil and descended into;
//   - a non-nil interface is set to nil.
//
// Unexported fields are skipped. Any other kind panics, and so does a
// nil interface (the walk has no value of its type to set): a keyed
// struct has grown a field this walk — and probably the key — cannot
// encode, or the caller must fill the interface in first.
func EachField(p any, visit func(path string)) {
	walk(reflect.ValueOf(p).Elem(), "", visit)
}

func walk(v reflect.Value, path string, visit func(string)) {
	old := reflect.New(v.Type()).Elem()
	old.Set(v)
	change := func(to reflect.Value) {
		v.Set(to)
		visit(path)
		v.Set(old)
	}
	switch v.Kind() {
	case reflect.Bool:
		change(reflect.ValueOf(!v.Bool()).Convert(v.Type()))
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		change(reflect.ValueOf(v.Int() + 1).Convert(v.Type()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		change(reflect.ValueOf(v.Uint() + 1).Convert(v.Type()))
	case reflect.Float32, reflect.Float64:
		change(reflect.ValueOf(v.Float() + 1).Convert(v.Type()))
	case reflect.String:
		change(reflect.ValueOf(v.String() + "x").Convert(v.Type()))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.IsExported() {
				walk(v.Field(i), join(path, f.Name), visit)
			}
		}
	case reflect.Array:
		if v.Len() > 0 {
			walk(v.Index(0), path+"[0]", visit)
		}
	case reflect.Slice:
		change(reflect.Append(v, reflect.Zero(v.Type().Elem())))
		if v.Len() > 0 {
			walk(v.Index(0), path+"[0]", visit)
		}
	case reflect.Map:
		grown := reflect.MakeMap(v.Type())
		for it := v.MapRange(); it.Next(); {
			grown.SetMapIndex(it.Key(), it.Value())
		}
		grown.SetMapIndex(reflect.Zero(v.Type().Key()), reflect.Zero(v.Type().Elem()))
		change(grown)
	case reflect.Pointer:
		if v.IsNil() {
			change(reflect.New(v.Type().Elem()))
			return
		}
		change(reflect.Zero(v.Type()))
		walk(v.Elem(), path, visit)
	case reflect.Interface:
		if !v.IsNil() {
			change(reflect.Zero(v.Type()))
			return
		}
		panic(fmt.Sprintf("keytest: %s is a nil interface, which EachField cannot change", path))
	default:
		panic(fmt.Sprintf("keytest: %s has kind %v, which EachField cannot change", path, v.Kind()))
	}
}

func join(path, field string) string {
	if path == "" {
		return field
	}
	return path + "." + field
}
