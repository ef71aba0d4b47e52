// Package coretest holds what the tests of several packages share to pin how
// headers rest in memory.
package coretest

import "reflect"

// ListedNonces walks everything reachable from v — through pointers,
// interfaces, structs (unexported fields too), slices, arrays and maps — and
// returns how many byte strings sit in [][]byte values: the listed form of a
// header's nonces, which nothing that holds engine-built or decoded headers
// should contain. A pointer is followed once.
func ListedNonces(v any) int {
	w := walker{seen: make(map[uintptr]bool)}
	w.walk(reflect.ValueOf(v))
	return w.n
}

type walker struct {
	seen map[uintptr]bool
	n    int
}

func (w *walker) walk(v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || w.seen[v.Pointer()] {
			return
		}
		w.seen[v.Pointer()] = true
		w.walk(v.Elem())
	case reflect.Interface:
		if !v.IsNil() {
			w.walk(v.Elem())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			w.walk(v.Field(i))
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			w.walk(it.Key())
			w.walk(it.Value())
		}
	case reflect.Slice, reflect.Array:
		e := v.Type().Elem()
		if e.Kind() == reflect.Slice && e.Elem().Kind() == reflect.Uint8 {
			w.n += v.Len()
			return
		}
		if e.Kind() <= reflect.Complex128 || e.Kind() == reflect.String {
			return // a slice of scalars holds nothing to follow
		}
		for i := 0; i < v.Len(); i++ {
			w.walk(v.Index(i))
		}
	}
}
