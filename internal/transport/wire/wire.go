// Package wire is the binary codec of the TCP transport: a positional,
// length-prefixed encoding of registered message structs.
//
// Nothing on the wire describes itself. A message is a type tag followed by
// its exported fields in declaration order, so both ends must have
// registered the same struct under the same tag — every process of a
// cluster runs one build (DESIGN.md §13 gives the format byte by byte).
// What the format buys over gob is that a type's encoder and decoder are
// compiled once, at registration, and each message then costs a walk over
// that plan instead of a fresh gob engine.
//
// Encodings, by Go kind:
//
//	bool                  one byte, 0 or 1
//	int, int8 … int64     zig-zag varint
//	uint, uint8 … uint64  uvarint
//	string kinds          uvarint length, bytes
//	[]byte                uvarint length, bytes
//	other slices          uvarint count, elements
//	maps                  uvarint count, key/element pairs sorted by key
//	structs               exported fields in declaration order
//	pointers              one presence byte, 0 (nil) or 1, then the element
//	any                   a value-kind byte, then the value (see value kinds)
//
// Zero-length slices and maps decode as nil, as gob decodes them. Maps are
// written in key order so one value has one encoding. Decoded strings and
// byte slices are copies: the input buffer may be reused at once.
//
// Decoding never trusts a number it read: every length and count is checked
// against the bytes that remain before anything is allocated, and every
// failure is a *Error, never a panic.
//
// Fingerprint names the registered layouts: two builds whose registries
// agree on every tag, kind, field name and order have the same one.
// AppendStamped puts it in front of a message kept beyond one process — a
// log record — so that DecodeStamped in a build with other layouts refuses
// the bytes instead of misreading them.
package wire

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"maps"
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
)

// Value kinds: the byte that precedes the value of an `any` field. Scalars
// of the listed Go types travel natively; every other concrete type is a
// gob blob (uvarint length, then a gob stream of the interface value), so
// it must be gob-registered by whoever stores it, exactly as before.
const (
	valNil = iota
	valBool
	valInt
	valInt64
	valUint64
	valFloat64
	valString
	valBytes
	valGob
)

// maxDepth bounds how deeply a registered type may nest containers and
// structs. Plans are trees (recursive types are refused), so this is a
// bound on decode recursion fixed at registration, whatever the input.
const maxDepth = 16

// Error is the typed failure of Decode: the input is truncated, announces
// more than it holds, names an unknown tag or value kind, or carries a
// value its field cannot hold.
type Error struct {
	Reason string
	Err    error // underlying cause (a gob blob's), when one exists
}

func (e *Error) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("wire: %s: %v", e.Reason, e.Err)
	}
	return "wire: " + e.Reason
}

func (e *Error) Unwrap() error { return e.Err }

// node is one step of a type's plan. kind is the type's reflect.Kind with
// the sized integers folded into Int and Uint.
type node struct {
	kind   reflect.Kind
	typ    reflect.Type
	elem   *node   // slice, map and pointer element
	key    *node   // map key
	fields []field // struct
	min    int     // fewest bytes one value of this type occupies on the wire
	// strInt marks a map convertible to map[string]int (the final-version
	// maps of a commit), which is walked without reflection.
	strInt bool
}

type field struct {
	index int
	node  *node
}

type plan struct {
	tag  uint64
	root *node
}

// registry is immutable once published; Register swaps in a copy.
type registry struct {
	byType map[reflect.Type]*plan
	byTag  map[uint64]*plan
	fpOnce sync.Once
	fp     uint64 // Fingerprint of byTag, computed on first use
}

var (
	regMu sync.Mutex
	reg   atomic.Pointer[registry]
)

var (
	anyType    = reflect.TypeOf((*any)(nil)).Elem()
	strIntType = reflect.TypeOf(map[string]int(nil))
)

func init() {
	reg.Store(&registry{byType: map[reflect.Type]*plan{}, byTag: map[uint64]*plan{}})
}

// Register binds tag to the struct type of proto and compiles its plan. Tags
// are the wire identity of a type: assign them once, never reuse one, only
// append. Tag 0 is the nil message. Registering the same pair again is a
// no-op; a tag or type bound differently, a non-struct, or a field the
// format cannot carry (channels, functions, arrays, floats,
// non-empty interfaces, recursive types) panics — registration runs at
// start-up, where a bad table is a bug to fix, not an input to survive.
// A pointer field travels as its element behind a presence byte; a type
// that reaches itself through pointers is recursive like any other.
func Register(tag uint16, proto any) {
	t := reflect.TypeOf(proto)
	if tag == 0 || t == nil || t.Kind() != reflect.Struct {
		panic(fmt.Sprintf("wire: Register(%d, %T): need a non-zero tag and a struct value", tag, proto))
	}
	regMu.Lock()
	defer regMu.Unlock()
	old := reg.Load()
	byTag, byType := old.byTag[uint64(tag)], old.byType[t]
	if byTag != nil && byTag == byType {
		return
	}
	if byTag != nil || byType != nil {
		panic(fmt.Sprintf("wire: Register(%d, %v): tag or type already registered differently", tag, t))
	}
	p := &plan{tag: uint64(tag), root: compile(t, nil)}
	next := &registry{byType: maps.Clone(old.byType), byTag: maps.Clone(old.byTag)}
	next.byType[t], next.byTag[p.tag] = p, p
	reg.Store(next)
}

// Fingerprint identifies the registered layouts: a hash of the codec's rules
// (encodings) and of every tag's plan — each node's Go kind, each struct's
// exported field names in order, each container's element, key and pointee.
// Two builds that would encode or decode any message differently have
// different fingerprints (up to a 64-bit hash collision); renaming a type,
// or reordering registrations, changes nothing. Bytes kept beyond one
// process — a write-ahead log — carry it, so a build with other layouts
// refuses them rather than misreading them.
func Fingerprint() uint64 {
	r := reg.Load()
	r.fpOnce.Do(func() { r.fp = fingerprint(r.byTag) })
	return r.fp
}

// ErrLayout is what DecodeStamped's *Error wraps when the bytes were
// stamped by a registry with other layouts.
var ErrLayout = errors.New("written under other layouts")

// AppendStamped appends msg's encoding behind the 8-byte little-endian
// Fingerprint of this build's layouts.
func AppendStamped(dst []byte, msg any) ([]byte, error) {
	return Append(binary.LittleEndian.AppendUint64(dst, Fingerprint()), msg)
}

// DecodeStamped decodes the whole of b, which AppendStamped wrote. Bytes
// stamped with another fingerprint fail with a *Error wrapping ErrLayout,
// bytes left after the message with a *Error as well.
func DecodeStamped(b []byte) (any, error) {
	if len(b) < 8 || binary.LittleEndian.Uint64(b) != Fingerprint() {
		return nil, &Error{Reason: fmt.Sprintf("stamp %x, this build's layouts %x", b[:min(len(b), 8)], Fingerprint()), Err: ErrLayout}
	}
	msg, rest, err := Decode(b[8:])
	if len(rest) > 0 {
		return nil, &Error{Reason: fmt.Sprintf("%d bytes after the message", len(rest))}
	}
	return msg, err
}

// encodings names the byte-level rules of this file, for Fingerprint: a
// change to one — which also bumps the TCP wire version — edits it.
const encodings = "wire/1: bool byte; zig-zag varint; uvarint; length-prefixed strings and bytes; " +
	"counted slices; key-sorted maps, empty as nil; presence-byte pointers; " +
	"value kinds nil bool int int64 uint64 float64 string bytes gob"

func fingerprint(byTag map[uint64]*plan) uint64 {
	tags := make([]uint64, 0, len(byTag))
	for tag := range byTag {
		tags = append(tags, tag)
	}
	slices.Sort(tags)
	h := fnv.New64a()
	h.Write([]byte(encodings))
	for _, tag := range tags {
		fmt.Fprintf(h, "tag %d ", tag)
		describe(h, byTag[tag].root)
	}
	return h.Sum64()
}

// describe writes n's layout, depth first.
func describe(h hash.Hash64, n *node) {
	fmt.Fprintf(h, "%v(", n.typ.Kind())
	for _, f := range n.fields {
		fmt.Fprintf(h, "%s:", n.typ.Field(f.index).Name)
		describe(h, f.node)
	}
	if n.key != nil {
		describe(h, n.key)
	}
	if n.elem != nil {
		describe(h, n.elem)
	}
	h.Write([]byte{')'})
}

// compile builds the plan of t. path is the chain of types being compiled
// around it: a type that contains itself has no finite plan.
func compile(t reflect.Type, path []reflect.Type) *node {
	if slices.Contains(path, t) || len(path) >= maxDepth {
		panic(fmt.Sprintf("wire: %v is recursive or nests deeper than %d", t, maxDepth))
	}
	path = append(path, t)
	n := &node{kind: t.Kind(), typ: t, min: 1}
	switch t.Kind() {
	case reflect.Bool, reflect.String:
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		n.kind = reflect.Int
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		n.kind = reflect.Uint
	case reflect.Interface:
		if t != anyType {
			panic(fmt.Sprintf("wire: %v: only the empty interface can be carried", t))
		}
	case reflect.Pointer:
		n.elem = compile(t.Elem(), path)
	case reflect.Slice:
		n.elem = compile(t.Elem(), path)
		if n.elem.min == 0 {
			panic(fmt.Sprintf("wire: %v: elements occupy no bytes, a count could not be checked", t))
		}
	case reflect.Map:
		n.key, n.elem = compile(t.Key(), path), compile(t.Elem(), path)
		if k := n.key.kind; k != reflect.String && k != reflect.Int && k != reflect.Uint {
			panic(fmt.Sprintf("wire: %v: map keys must be strings or integers", t))
		}
		n.strInt = t.ConvertibleTo(strIntType)
	case reflect.Struct:
		n.min = 0
		for i := 0; i < t.NumField(); i++ {
			if f := t.Field(i); f.IsExported() {
				fn := compile(f.Type, path)
				n.fields = append(n.fields, field{index: i, node: fn})
				n.min += fn.min
			}
		}
	default:
		panic(fmt.Sprintf("wire: %v: kind %v cannot be carried", t, t.Kind()))
	}
	return n
}

// Append appends the encoding of msg — its tag, then its fields — to dst.
// A nil msg is the single byte 0. It fails on a type nobody registered and
// on an `any` field holding a value gob cannot encode; dst is then returned
// unchanged.
func Append(dst []byte, msg any) ([]byte, error) {
	if msg == nil {
		return append(dst, 0), nil
	}
	v := reflect.ValueOf(msg)
	p := reg.Load().byType[v.Type()]
	if p == nil {
		return dst, fmt.Errorf("wire: type %T is not registered", msg)
	}
	e := encoder{buf: binary.AppendUvarint(dst, p.tag)}
	e.encode(p.root, v)
	if e.err != nil {
		return dst, e.err
	}
	return e.buf, nil
}

type encoder struct {
	buf []byte
	err error
}

func (e *encoder) uvarint(x uint64) { e.buf = binary.AppendUvarint(e.buf, x) }

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

func (e *encoder) encode(n *node, v reflect.Value) {
	switch n.kind {
	case reflect.Bool:
		e.bool(v.Bool())
	case reflect.Int:
		e.buf = binary.AppendVarint(e.buf, v.Int())
	case reflect.Uint:
		e.uvarint(v.Uint())
	case reflect.String:
		e.str(v.String())
	case reflect.Interface:
		e.value(v.Interface())
	case reflect.Slice:
		l := v.Len()
		e.uvarint(uint64(l))
		if n.elem.typ.Kind() == reflect.Uint8 {
			e.buf = append(e.buf, v.Bytes()...)
			return
		}
		for i := 0; i < l; i++ {
			e.encode(n.elem, v.Index(i))
		}
	case reflect.Map:
		e.encodeMap(n, v)
	case reflect.Pointer:
		if v.IsNil() {
			e.buf = append(e.buf, 0)
			return
		}
		e.buf = append(e.buf, 1)
		e.encode(n.elem, v.Elem())
	case reflect.Struct:
		for _, f := range n.fields {
			e.encode(f.node, v.Field(f.index))
		}
	}
}

// encodeMap writes a map's pairs in key order. A map[string]int — the
// final-version map every CommitTopReq carries, and the one shape
// TestFrameAllocBudget (16 per round trip) needs off the reflection path —
// is walked natively; every other map goes through reflection.
func (e *encoder) encodeMap(n *node, v reflect.Value) {
	e.uvarint(uint64(v.Len()))
	if v.Len() == 0 {
		return
	}
	if n.strInt {
		m := v.Convert(strIntType).Interface().(map[string]int)
		var few [8]string // the usual map names the one or two items a transaction wrote
		keys := few[:0]
		for k := range m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			e.str(k)
			e.buf = binary.AppendVarint(e.buf, int64(m[k]))
		}
		return
	}
	keys := v.MapKeys()
	slices.SortFunc(keys, func(a, b reflect.Value) int {
		switch n.key.kind {
		case reflect.String:
			return cmp.Compare(a.String(), b.String())
		case reflect.Int:
			return cmp.Compare(a.Int(), b.Int())
		}
		return cmp.Compare(a.Uint(), b.Uint())
	})
	for _, k := range keys {
		e.encode(n.key, k)
		e.encode(n.elem, v.MapIndex(k))
	}
}

// value writes the content of an `any` field.
func (e *encoder) value(x any) {
	switch x := x.(type) {
	case nil:
		e.buf = append(e.buf, valNil)
	case bool:
		e.buf = append(e.buf, valBool)
		e.bool(x)
	case int:
		e.buf = binary.AppendVarint(append(e.buf, valInt), int64(x))
	case int64:
		e.buf = binary.AppendVarint(append(e.buf, valInt64), x)
	case uint64:
		e.buf = binary.AppendUvarint(append(e.buf, valUint64), x)
	case float64:
		e.buf = binary.LittleEndian.AppendUint64(append(e.buf, valFloat64), math.Float64bits(x))
	case string:
		e.buf = append(e.buf, valString)
		e.str(x)
	case []byte:
		e.buf = append(e.buf, valBytes)
		e.uvarint(uint64(len(x)))
		e.buf = append(e.buf, x...)
	default:
		var blob bytes.Buffer
		// A pointer to the interface, so gob sends the concrete type's name
		// with the value and the far side gets the same type back.
		if err := gob.NewEncoder(&blob).Encode(&x); err != nil {
			if e.err == nil {
				e.err = fmt.Errorf("wire: value of type %T: %w", x, err)
			}
			return
		}
		e.buf = append(e.buf, valGob)
		e.uvarint(uint64(blob.Len()))
		e.buf = append(e.buf, blob.Bytes()...)
	}
}

// Decode reads one message from the front of b and returns it with the
// bytes that follow it. The message is a value of the registered struct
// type (nil for tag 0). Every failure is a *Error.
func Decode(b []byte) (msg any, rest []byte, err error) {
	d := decoder{b: b}
	tag := d.uvarint()
	if d.err != nil {
		return nil, nil, d.err
	}
	if tag == 0 {
		return nil, d.b, nil
	}
	p := reg.Load().byTag[tag]
	if p == nil {
		return nil, nil, &Error{Reason: fmt.Sprintf("unknown type tag %d", tag)}
	}
	v := reflect.New(p.root.typ).Elem()
	d.decode(p.root, v)
	if d.err != nil {
		return nil, nil, d.err
	}
	return v.Interface(), d.b, nil
}

// decoder consumes b from the front. The first failure sticks: after it
// every read returns zero and consumes nothing, so loops end on d.err.
type decoder struct {
	b   []byte
	err *Error
}

func (d *decoder) fail(reason string) {
	if d.err == nil {
		d.err = &Error{Reason: reason}
	}
	d.b = nil
}

func (d *decoder) uvarint() uint64 {
	x, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("truncated or overlong uvarint")
		return 0
	}
	d.b = d.b[n:]
	return x
}

func (d *decoder) varint() int64 {
	x, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.b = d.b[n:]
	return x
}

func (d *decoder) int() int {
	x := d.varint()
	if int64(int(x)) != x {
		d.fail(fmt.Sprintf("%d overflows int", x))
	}
	return int(x)
}

func (d *decoder) byte() byte {
	if len(d.b) == 0 {
		d.fail("truncated")
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *decoder) bool() bool {
	c := d.byte()
	if c > 1 {
		d.fail(fmt.Sprintf("bool byte %d", c))
	}
	return c == 1
}

// count reads a length or element count and refuses one the remaining
// input cannot hold at min bytes apiece — before the caller allocates.
func (d *decoder) count(min int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/min) {
		d.fail(fmt.Sprintf("count %d exceeds the %d bytes left", n, len(d.b)))
		return 0
	}
	return int(n)
}

// take returns the next n bytes, still inside the input buffer.
func (d *decoder) take() []byte {
	n := d.count(1)
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *decoder) str() string { return string(d.take()) }

func (d *decoder) decode(n *node, v reflect.Value) {
	switch n.kind {
	case reflect.Bool:
		v.SetBool(d.bool())
	case reflect.Int:
		x := d.varint()
		if v.OverflowInt(x) {
			d.fail(fmt.Sprintf("%d overflows %v", x, n.typ))
			return
		}
		v.SetInt(x)
	case reflect.Uint:
		x := d.uvarint()
		if v.OverflowUint(x) {
			d.fail(fmt.Sprintf("%d overflows %v", x, n.typ))
			return
		}
		v.SetUint(x)
	case reflect.String:
		v.SetString(d.str())
	case reflect.Interface:
		if x := d.value(); x != nil {
			v.Set(reflect.ValueOf(x))
		}
	case reflect.Slice:
		if n.elem.typ.Kind() == reflect.Uint8 {
			if p := d.take(); len(p) > 0 {
				v.SetBytes(bytes.Clone(p))
			}
			return
		}
		l := d.count(n.elem.min)
		if l == 0 {
			return
		}
		v.Grow(l)
		v.SetLen(l)
		for i := 0; i < l && d.err == nil; i++ {
			d.decode(n.elem, v.Index(i))
		}
	case reflect.Map:
		d.decodeMap(n, v)
	case reflect.Pointer:
		switch c := d.byte(); {
		case c == 1:
			p := reflect.New(n.elem.typ)
			d.decode(n.elem, p.Elem())
			v.Set(p)
		case c > 1:
			d.fail(fmt.Sprintf("pointer presence byte %d", c))
		}
	case reflect.Struct:
		for _, f := range n.fields {
			d.decode(f.node, v.Field(f.index))
		}
	}
}

func (d *decoder) decodeMap(n *node, v reflect.Value) {
	l := d.count(n.key.min + n.elem.min)
	if l == 0 {
		return
	}
	m := reflect.MakeMapWithSize(n.typ, l)
	if n.strInt {
		native := m.Convert(strIntType).Interface().(map[string]int)
		for i := 0; i < l && d.err == nil; i++ {
			k := d.str()
			native[k] = d.int()
		}
		v.Set(m)
		return
	}
	k, x := reflect.New(n.key.typ).Elem(), reflect.New(n.elem.typ).Elem()
	for i := 0; i < l && d.err == nil; i++ {
		k.SetZero()
		x.SetZero()
		d.decode(n.key, k)
		d.decode(n.elem, x)
		m.SetMapIndex(k, x)
	}
	v.Set(m)
}

// value reads the content of an `any` field.
func (d *decoder) value() any {
	switch kind := d.byte(); kind {
	case valNil:
		return nil
	case valBool:
		return d.bool()
	case valInt:
		return d.int()
	case valInt64:
		return d.varint()
	case valUint64:
		return d.uvarint()
	case valFloat64:
		if len(d.b) < 8 {
			d.fail("truncated float64")
			return nil
		}
		x := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
		d.b = d.b[8:]
		return x
	case valString:
		return d.str()
	case valBytes:
		return bytes.Clone(d.take())
	case valGob:
		var x any
		if err := gob.NewDecoder(bytes.NewReader(d.take())).Decode(&x); err != nil {
			if d.err == nil {
				d.err = &Error{Reason: "gob value", Err: err}
			}
			d.b = nil
			return nil
		}
		return x
	default:
		if d.err == nil {
			d.fail(fmt.Sprintf("unknown value kind %d", kind))
		}
		return nil
	}
}
