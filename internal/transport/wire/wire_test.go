package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
)

type (
	name  string
	level int8
	set   map[string]bool
)

type inner struct {
	ID   name
	Tags []string
	Sets []set
}

type everything struct {
	B      bool
	I      int
	I8     level
	U16    uint16
	U64    uint64
	S      name
	Bytes  []byte
	Val    any
	Names  []name
	Inner  inner
	Inners []inner
	Final  map[string]int
	Alias  map[string]string
	ByName map[name]inner
	ByNum  map[int32][]byte
	hidden int // unexported: does not travel
}

type empty struct{}

// pointers carries the pointer kind: nil, set, and as map elements.
type pointers struct {
	P     *inner
	N     *int
	ByKey map[string]*inner
}

// blobVal has no native value kind: inside an `any` it rides as a gob blob.
type blobVal struct {
	A int32
	F float32
}

const (
	tagEverything = 1
	tagInner      = 2
	tagEmpty      = 3
	tagPointers   = 4
)

func init() {
	Register(tagEverything, everything{})
	Register(tagInner, inner{})
	Register(tagEmpty, empty{})
	Register(tagPointers, pointers{})
	gob.Register(blobVal{})
}

func withPointers() pointers {
	n := -3
	return pointers{P: &inner{ID: "p", Tags: []string{"t"}}, N: &n,
		ByKey: map[string]*inner{"a": {ID: "a"}, "nil": nil, "b": {Sets: []set{{"dm0": true}}}}}
}

func full() everything {
	in := inner{ID: "t1/0", Tags: []string{"a", ""}, Sets: []set{{"dm0": true, "dm1": false}, nil, {"dm2": true}}}
	return everything{
		B: true, I: -1 << 40, I8: -128, U16: 65535, U64: math.MaxUint64, S: "c1.t42",
		Bytes: []byte{0, 255}, Val: "v", Names: []name{"x", "y"},
		Inner: in, Inners: []inner{in, {}},
		Final:  map[string]int{"k2": 2, "k1": -1, "k3": 3},
		Alias:  map[string]string{"a": "b"},
		ByName: map[name]inner{"t2": in, "t1": {ID: "z"}},
		ByNum:  map[int32][]byte{-5: {1}, 7: {2, 3}},
	}
}

func roundTrip(t *testing.T, msg any) any {
	t.Helper()
	b, err := Append([]byte("prefix"), msg)
	if err != nil {
		t.Fatalf("Append(%T): %v", msg, err)
	}
	got, rest, err := Decode(append(b[len("prefix"):], "tail"...))
	if err != nil {
		t.Fatalf("Decode(%T): %v", msg, err)
	}
	if string(rest) != "tail" {
		t.Fatalf("Decode(%T) left %q, want the bytes after the message", msg, rest)
	}
	return got
}

func TestRoundTrip(t *testing.T) {
	for _, msg := range []any{full(), everything{}, inner{ID: "i"}, empty{}, nil, pointers{}, withPointers()} {
		if got := roundTrip(t, msg); !reflect.DeepEqual(got, msg) {
			t.Errorf("round trip changed the value:\n sent %#v\n got  %#v", msg, got)
		}
	}
	// What does not travel: unexported fields, and the difference between an
	// empty and a nil slice or map.
	sent := everything{hidden: 9, Bytes: []byte{}, Names: []name{}, Final: map[string]int{}, ByName: map[name]inner{}}
	if got := roundTrip(t, sent); !reflect.DeepEqual(got, everything{}) {
		t.Errorf("empty containers and unexported fields arrived as %#v, want the zero value", got)
	}
}

func TestValueKinds(t *testing.T) {
	vals := []any{nil, true, false, 0, -7, math.MinInt64, int64(-1) << 50, uint64(1) << 63,
		2.5, math.Inf(-1), "", "sixteen bytes ok", []byte{9, 8}, blobVal{A: 3, F: 0.5}, int32(4), []string{"gob", "too"}}
	for _, v := range vals {
		got := roundTrip(t, everything{Val: v}).(everything).Val
		if !reflect.DeepEqual(got, v) {
			t.Errorf("Val %#v (%T) arrived as %#v (%T)", v, v, got, got)
		}
	}
	// An empty []byte value stays a []byte: the kind travels, not just the bytes.
	if got := roundTrip(t, everything{Val: []byte{}}).(everything).Val; got == nil || len(got.([]byte)) != 0 {
		t.Errorf("empty []byte value arrived as %#v", got)
	}
	// A value gob cannot encode fails the encode, and leaves dst alone.
	dst := []byte("keep")
	out, err := Append(dst, everything{Val: make(chan int)})
	if err == nil || string(out) != "keep" {
		t.Errorf("unencodable value: got %q, %v", out, err)
	}
	if _, err := Append(nil, struct{ X int }{1}); err == nil {
		t.Error("an unregistered type encoded")
	}
}

// TestOneValueOneEncoding: map order never shows in the bytes.
func TestOneValueOneEncoding(t *testing.T) {
	first, err := Append(nil, full())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		again, _ := Append(nil, full())
		if !bytes.Equal(first, again) {
			t.Fatalf("encoding %d differs:\n %x\n %x", i, first, again)
		}
	}
}

func TestRegisterRefuses(t *testing.T) {
	type node struct{ Next []node }
	type viaMap struct{ M map[string]viaMapInner }
	bad := map[string]func(){
		"tag zero":        func() { Register(0, inner{}) },
		"not a struct":    func() { Register(90, 7) },
		"nil":             func() { Register(90, nil) },
		"tag taken":       func() { Register(tagInner, struct{ A int }{}) },
		"type taken":      func() { Register(91, inner{}) },
		"recursive ptr":   func() { Register(92, list{}) },
		"float field":     func() { Register(93, struct{ F float64 }{}) },
		"array field":     func() { Register(94, struct{ A [2]int }{}) },
		"func field":      func() { Register(95, struct{ F func() }{}) },
		"named interface": func() { Register(96, struct{ E error }{}) },
		"recursive":       func() { Register(97, node{}) },
		"bool map key":    func() { Register(98, struct{ M map[bool]int }{}) },
		"empty elements":  func() { Register(99, struct{ E []empty }{}) },
		"deep in a map":   func() { Register(100, viaMap{}) },
	}
	for what, register := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Register did not panic", what)
				}
			}()
			register()
		}()
	}
	Register(tagInner, inner{}) // the same pair again is fine
	if got := roundTrip(t, inner{ID: "still"}); !reflect.DeepEqual(got, inner{ID: "still"}) {
		t.Errorf("after refused registrations inner arrived as %#v", got)
	}
}

type viaMapInner struct{ C chan int }

// list reaches itself through a pointer: no finite plan.
type list struct{ Next *list }

// TestPointerKind: a pointer is one presence byte, then its element; a nil
// pointer is the single byte 0, and a decoded pointer owns a fresh element.
func TestPointerKind(t *testing.T) {
	b, err := Append(nil, pointers{})
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte{tagPointers, 0, 0, 0}; !bytes.Equal(b, want) {
		t.Errorf("nil pointers encode as %x, want %x", b, want)
	}
	sent := withPointers()
	got := roundTrip(t, sent).(pointers)
	if got.P == sent.P || got.ByKey["a"] == sent.ByKey["a"] {
		t.Error("a decoded pointer aliases the sender's element")
	}
	if _, ok := got.ByKey["nil"]; !ok || got.ByKey["nil"] != nil {
		t.Errorf("a nil map element arrived as %#v", got.ByKey)
	}
	whole, err := Append(nil, sent)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(whole); cut++ {
		var we *Error
		if _, _, err := Decode(whole[:cut]); !errors.As(err, &we) {
			t.Fatalf("pointers cut at %d of %d: %v, want a *Error", cut, len(whole), err)
		}
	}
	var we *Error
	if _, _, err := Decode([]byte{tagPointers, 2, 0, 0}); !errors.As(err, &we) {
		t.Errorf("presence byte 2: %v, want a *Error", err)
	}
}

// TestFingerprintNamesTheLayouts: the fingerprint is a function of the
// registered layouts — stable while they stand, moved by a registration.
// The registration it makes is undone when it ends, so a second run (-count)
// starts from the same layouts and registers anew.
func TestFingerprintNamesTheLayouts(t *testing.T) {
	saved := reg.Load()
	t.Cleanup(func() {
		regMu.Lock()
		reg.Store(saved)
		regMu.Unlock()
	})
	before := Fingerprint()
	if before == 0 || Fingerprint() != before {
		t.Fatalf("fingerprint %x is not a stable identity", before)
	}
	Register(tagPointers, pointers{}) // the same pair again changes nothing
	if Fingerprint() != before {
		t.Fatal("re-registering a pair moved the fingerprint")
	}
	type widened struct{ A, B int }
	Register(61001, widened{})
	if Fingerprint() == before {
		t.Fatal("a new registration left the fingerprint where it was")
	}
}

// hostile builds an `everything` body by hand up to some field and lets the
// caller finish it with something the field cannot be.
func hostile(fieldsBefore int, tail ...byte) []byte {
	b := binary.AppendUvarint(nil, tagEverything)
	b = append(b, make([]byte, fieldsBefore)...) // zero bools, ints, lengths, nil value
	return append(b, tail...)
}

func TestDecodeRefusesHostileInput(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<31)
	cases := map[string][]byte{
		"empty input":           {},
		"unknown tag":           binary.AppendUvarint(nil, 4000),
		"overlong tag":          bytes.Repeat([]byte{0x80}, 11),
		"bool byte 2":           hostile(0, 2),
		"int8 overflow":         hostile(2, 0x80, 0x02), // zig-zag 128
		"uint16 overflow":       hostile(3, 0x80, 0x80, 0x04),
		"string longer than it": hostile(5, 9, 'a'),
		"bytes count 2^31":      hostile(6, huge...),
		"unknown value kind":    hostile(7, 0x7f),
		"truncated float value": hostile(7, valFloat64, 1, 2, 3),
		"gob value of garbage":  hostile(7, valGob, 3, 1, 2, 3),
		"int value overlong":    hostile(7, append([]byte{valInt}, bytes.Repeat([]byte{0xff}, 10)...)...),
		"slice count 2^31":      hostile(8, huge...),
		"slice of maps 2^31":    hostile(11, huge...), // Inner.Sets, after Names and Inner's ID and Tags
		"struct slice 2^31":     hostile(12, huge...),
		"map count 2^31":        hostile(13, huge...),
	}
	whole, err := Append(nil, full())
	if err != nil {
		t.Fatal(err)
	}
	for cut := range whole {
		cases[fmt.Sprintf("cut at %d", cut)] = whole[:cut]
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for what, in := range cases {
		msg, _, err := Decode(in)
		var we *Error
		if !errors.As(err, &we) {
			t.Errorf("%s: Decode gave (%#v, %v), want a *Error", what, msg, err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("refusing %d small hostile inputs allocated %d bytes: some count was trusted", len(cases), grew)
	}
}

// FuzzWireDecode: any input decodes to a message or a *Error, never a
// panic; and a message that decoded re-encodes to bytes that are a fixed
// point of decode∘encode — one value, one encoding.
func FuzzWireDecode(f *testing.F) {
	for _, msg := range []any{full(), everything{Val: blobVal{A: 1}}, everything{Val: 2.5}, inner{ID: "i", Sets: []set{{"a": true}}}, empty{}, nil} {
		b, err := Append(nil, msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add(hostile(8, binary.AppendUvarint(nil, 1<<31)...))
	if b, err := Append(nil, withPointers()); err == nil {
		f.Add(b)
		f.Add(b[:len(b)-3])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, rest, err := Decode(data)
		if err != nil {
			var we *Error
			if !errors.As(err, &we) {
				t.Fatalf("Decode error is %T, want *Error: %v", err, err)
			}
			return
		}
		if len(rest) > len(data) {
			t.Fatalf("Decode returned %d bytes of rest from %d of input", len(rest), len(data))
		}
		once, err := Append(nil, msg)
		if err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
		msg2, rest2, err := Decode(once)
		if err != nil || len(rest2) != 0 {
			t.Fatalf("re-encoded message does not decode whole: %v, %d bytes left", err, len(rest2))
		}
		twice, err := Append(nil, msg2)
		if err != nil || !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding is not byte-stable (%v):\n %x\n %x", err, once, twice)
		}
	})
}
