package keytest

import (
	"reflect"
	"sort"
	"testing"
)

type inner struct {
	A int
	b int
}

type outer struct {
	N    uint8
	F    float64
	S    string
	B    bool
	In   inner
	L    []inner
	M    map[string]int
	P, Q *inner
	Arr  [2][]int
}

// Every reachable exported field is changed once per change kind, the
// change is in place while visit runs, and the value is restored after.
func TestEachFieldChangesAndRestores(t *testing.T) {
	fresh := func() outer {
		return outer{In: inner{b: 7}, L: []inner{{A: 1}}, M: map[string]int{"k": 1}, Q: &inner{A: 2}}
	}
	v := fresh()
	var paths []string
	EachField(&v, func(path string) {
		paths = append(paths, path)
		if reflect.DeepEqual(v, fresh()) {
			t.Errorf("%s: value unchanged inside visit", path)
		}
	})
	if !reflect.DeepEqual(v, fresh()) {
		t.Errorf("value not restored: %+v", v)
	}
	sort.Strings(paths)
	want := []string{"Arr[0]", "B", "F", "In.A", "L", "L[0].A", "M", "N", "P", "Q", "Q.A", "S"}
	if !reflect.DeepEqual(paths, want) {
		t.Errorf("visited %v, want %v", paths, want)
	}
}

func TestEachFieldPanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a func field did not panic")
		}
	}()
	EachField(&struct{ F func() }{}, func(string) {})
}
