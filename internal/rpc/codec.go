package rpc

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
	"time"
)

// Control-plane bodies are gob, one self-contained stream per body: the
// type definitions a new gob.Encoder sends, then one value message. This
// file keeps the state behind those bytes per Go type instead of building
// it per body (DESIGN.md §8): a pooled encoder that has sent its
// definitions emits the value alone and Encode prepends the definition
// bytes it remembered; a pooled decoder that has compiled a body's
// definitions is handed the value alone. The bytes are a new encoder's.

const (
	// maxSchemas bounds the definition sets one type keeps decoders for: a
	// rolling upgrade presents two, a hostile peer as many as it likes.
	maxSchemas = 4
	// maxWarmBody: a codec keeps its last message, so one that handled a
	// larger body (a checkpoint riding loadJob) is dropped, not pooled.
	maxWarmBody = 1 << 20
)

// typeCodec is the gob state kept for one Go type.
type typeCodec struct {
	encoders sync.Pool // of *warmEncoder
	// decoders maps the exact definition bytes a body opened with to the
	// decoders primed with them. Type ids differ between processes, so
	// nothing shorter says what a decoder has compiled.
	mu       sync.RWMutex
	decoders map[string]*sync.Pool // of *warmDecoder
}

type warmEncoder struct {
	enc  *gob.Encoder
	buf  bytes.Buffer // enc's stream
	defs []byte       // the definition messages enc sent on first use
}

type warmDecoder struct {
	dec *gob.Decoder
	// r is dec's stream: an io.ByteReader, so gob reads it directly and not
	// through a bufio.Reader that could hold bytes of one body for the next.
	r bytes.Reader
}

// codecs maps reflect.Type to *typeCodec; a nil one marks a type that is
// encoded and decoded afresh every time (hasInterface).
var codecs sync.Map

func codecFor(t reflect.Type) *typeCodec {
	if t == nil {
		return nil
	}
	if c, ok := codecs.Load(t); ok {
		return c.(*typeCodec)
	}
	var c *typeCodec
	if !hasInterface(t, make(map[reflect.Type]bool)) {
		c = &typeCodec{decoders: make(map[string]*sync.Pool)}
	}
	actual, _ := codecs.LoadOrStore(t, c)
	return actual.(*typeCodec)
}

// hasInterface reports whether a value of type t can hold an interface.
// gob defines an interface's concrete type where it meets one, inside the
// value, so such a stream has no fixed prefix of definitions to split off.
func hasInterface(t reflect.Type, seen map[reflect.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Interface:
		return true
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return hasInterface(t.Elem(), seen)
	case reflect.Map:
		return hasInterface(t.Key(), seen) || hasInterface(t.Elem(), seen)
	case reflect.Struct:
		for i := range t.NumField() {
			if f := t.Field(i); f.IsExported() && hasInterface(f.Type, seen) {
				return true
			}
		}
	}
	return false
}

// Encode gob-encodes a value for use as a request or response body. The
// returned slice is backed by pool memory when available; transient users
// (Invoke, Typed) hand it back via PutBuffer after the bytes are written.
func Encode(v any) ([]byte, error) {
	c := codecFor(reflect.TypeOf(v))
	if c == nil {
		buf := bytes.NewBuffer(GetBuffer(0))
		if err := gob.NewEncoder(buf).Encode(v); err != nil {
			return nil, fmt.Errorf("rpc: encode %T: %w", v, err)
		}
		return buf.Bytes(), nil
	}
	e, _ := c.encoders.Get().(*warmEncoder)
	if e == nil {
		e = new(warmEncoder)
		e.enc = gob.NewEncoder(&e.buf)
	}
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		// e is dropped: what a failed encoder has sent is undefined.
		return nil, fmt.Errorf("rpc: encode %T: %w", v, err)
	}
	val := e.buf.Bytes()
	if e.defs == nil {
		n, ok := typedefLen(val)
		if !ok {
			return append(GetBuffer(0), val...), nil
		}
		e.defs, val = append([]byte{}, val[:n]...), val[n:]
	}
	out := append(append(GetBuffer(0), e.defs...), val...)
	if len(out) <= maxWarmBody {
		c.encoders.Put(e)
	}
	return out, nil
}

// Decode gob-decodes body into out (a pointer).
func Decode(body []byte, out any) error {
	c := codecFor(reflect.TypeOf(out))
	n, ok := typedefLen(body)
	if c == nil || !ok {
		if err := gob.NewDecoder(bytes.NewReader(body)).Decode(out); err != nil {
			return fmt.Errorf("rpc: decode %T: %w", out, err)
		}
		return nil
	}
	c.mu.RLock()
	pool := c.decoders[string(body[:n])]
	c.mu.RUnlock()
	var d *warmDecoder
	if pool != nil {
		d, _ = pool.Get().(*warmDecoder)
	}
	if d != nil {
		d.r.Reset(body[n:]) // d holds the definitions; gob rejects a second copy
	} else {
		d = new(warmDecoder)
		d.dec = gob.NewDecoder(&d.r)
		d.r.Reset(body) // the whole body is what primes it
	}
	err := d.dec.Decode(out)
	d.r.Reset(nil) // body goes back to the buffer pool
	if err != nil {
		// d is dropped: what a failed decoder has compiled is undefined.
		return fmt.Errorf("rpc: decode %T: %w", out, err)
	}
	if pool == nil {
		pool = c.admit(body[:n])
	}
	if pool != nil && len(body) <= maxWarmBody {
		pool.Put(d)
	}
	return nil
}

// admit returns the pool for a definition set a decoder has just accepted,
// creating it while the type is under maxSchemas. A set that mentions an
// interface is never admitted: skipping such a field the local type lacks
// installs the definitions nested in its value, and a decoder that has
// learnt from a value rejects the next body that defines the same type.
func (c *typeCodec) admit(defs []byte) *sync.Pool {
	c.mu.Lock()
	defer c.mu.Unlock()
	pool := c.decoders[string(defs)]
	if pool == nil && len(c.decoders) < maxSchemas && !defsHaveInterface(defs) {
		pool = new(sync.Pool)
		c.decoders[string(defs)] = pool
	}
	return pool
}

// gobUint decodes gob's unsigned integer from the head of b: one byte
// below 128, or a negated byte count and that many big-endian bytes.
// width is 0 when b does not hold one.
func gobUint(b []byte) (x uint64, width int) {
	if len(b) == 0 {
		return 0, 0
	}
	if b[0] <= 0x7f {
		return uint64(b[0]), 1
	}
	n := -int(int8(b[0]))
	if n > 8 || len(b) <= n {
		return 0, 0
	}
	for _, c := range b[1 : 1+n] {
		x = x<<8 | uint64(c)
	}
	return x, 1 + n
}

// typedefLen is the length of the type definitions a body opens with: the
// offset of its first message whose type id is not negative. A gob stream
// is a sequence of messages, each a uint byte count and then a signed type
// id — negative when the message defines that type, otherwise the id of
// the value that follows. ok is false when the head does not parse or the
// value message is not all there.
func typedefLen(body []byte) (n int, ok bool) {
	for {
		size, w := gobUint(body[n:])
		if w == 0 || size == 0 || size > uint64(len(body)-n-w) {
			return 0, false
		}
		id, iw := gobUint(body[n+w : n+w+int(size)])
		if iw == 0 {
			return 0, false
		}
		if id&1 == 0 { // gob keeps an int's sign in the low bit
			return n, true
		}
		n += w + int(size)
	}
}

// wireShape lists, by field number, what each struct of gob's documented
// description of a type holds: s a string, i an int, t a type id, F a
// []fieldType, an upper-case letter the struct of that name.
var wireShape = map[byte]string{
	'W': "ALSMGGG", // wireType: ArrayT, SliceT, StructT, MapT, three GobEncoderT-shaped
	'A': "Cti",     // arrayType: CommonType, Elem, Len
	'L': "Ct",      // sliceType: CommonType, Elem
	'S': "CF",      // structType: CommonType, Field
	'M': "Ctt",     // mapType: CommonType, Key, Elem
	'G': "C",       // gobEncoderType: CommonType
	'C': "si",      // CommonType: Name, Id
	'f': "st",      // fieldType: Name, Id
}

// defsHaveInterface reports whether a definition message in defs (as
// typedefLen delimited them) names the interface type as an element, key
// or field — or is not a wireType this file knows how to walk.
func defsHaveInterface(defs []byte) bool {
	for len(defs) > 0 {
		size, w := gobUint(defs)
		_, iw := gobUint(defs[w:]) // the id being defined
		if _, clean := walkWire(defs[w+iw:w+int(size)], 'W'); !clean {
			return true
		}
		defs = defs[w+int(size):]
	}
	return false
}

// walkWire steps over one gob-encoded struct of the given wireShape kind
// — (field delta, value) pairs up to a zero delta — and returns what
// follows it. clean is false on an interface type id or a parse failure.
func walkWire(b []byte, kind byte) (rest []byte, clean bool) {
	const tInterface = 8 << 1 // gob's id for interface values, as an encoded int
	shape := wireShape[kind]
	for field := 0; ; {
		delta, w := gobUint(b)
		if w == 0 || delta > uint64(len(shape)-field) {
			return nil, false
		}
		if b = b[w:]; delta == 0 {
			return b, true
		}
		field += int(delta)
		c := shape[field-1]
		if c >= 'A' && c <= 'Z' && c != 'F' {
			if b, clean = walkWire(b, c); !clean {
				return nil, false
			}
			continue
		}
		x, w := gobUint(b) // a string's or slice's length, or the int itself
		if w == 0 || c == 't' && x == tInterface || c == 's' && x > uint64(len(b)-w) {
			return nil, false
		}
		if b = b[w:]; c == 's' {
			b = b[x:]
		}
		for ; c == 'F' && x > 0; x-- {
			if b, clean = walkWire(b, 'f'); !clean {
				return nil, false
			}
		}
	}
}

// Typed wraps a strongly-typed handler function as a raw Handler.
func Typed[Arg, Reply any](fn func(Arg) (Reply, error)) Handler {
	return func(raw []byte) ([]byte, error) {
		var arg Arg
		if err := Decode(raw, &arg); err != nil {
			return nil, err
		}
		reply, err := fn(arg)
		if err != nil {
			return nil, err
		}
		return Encode(reply)
	}
}

// Invoke performs a strongly-typed call on a client. Request and response
// buffers cycle through the shared pool and the gob state through the
// per-type pools above: a call pays for its value, not for its type.
func Invoke[Arg, Reply any](c *Client, method string, arg Arg, timeout time.Duration) (Reply, error) {
	var reply Reply
	raw, err := Encode(arg)
	if err != nil {
		return reply, err
	}
	body, err := c.Call(method, raw, timeout)
	// Call writes the request synchronously before waiting, so raw is
	// flushed (or dead) by the time it returns on every path.
	PutBuffer(raw)
	if err != nil {
		return reply, err
	}
	err = Decode(body, &reply)
	PutBuffer(body)
	if err != nil {
		return reply, err
	}
	return reply, nil
}
