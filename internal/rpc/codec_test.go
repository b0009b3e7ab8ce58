package rpc

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// The tests in this file check the pooled codec against the thing it must
// equal: a gob encoder or decoder built for the one message. Pooled is
// export_test.go's view of which types keep codec state at all.

type inner struct {
	ID   int
	Tags []string
}

// plainMsg and floatMsg are the two decode targets of the fuzzers and the
// concurrency test: between them every gob kind the runtime's messages use
// (ints, strings, bools, floats, byte and struct slices, maps, arrays,
// nested structs).
type plainMsg struct {
	Name  string
	N     int
	On    bool
	Raw   []byte
	Items []inner
	ByKey map[string]int
}

type floatMsg struct {
	Loss   float64
	Hist   [3]uint64
	Nested inner
	Vals   []float64
}

func samplePlain(i int) plainMsg {
	return plainMsg{Name: fmt.Sprintf("job-%d", i), N: i, On: i%2 == 0, Raw: []byte{1, 2, byte(i)},
		Items: []inner{{ID: i, Tags: []string{"a", "b"}}, {ID: -i}}, ByKey: map[string]int{"k": i}}
}

func sampleFloat(i int) floatMsg {
	return floatMsg{Loss: 0.5 * float64(i), Hist: [3]uint64{1, uint64(i), 3},
		Nested: inner{ID: i, Tags: []string{"x"}}, Vals: []float64{1.5, float64(i)}}
}

// freshEncode is what Encode replaced: one new gob.Encoder per message.
func freshEncode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// freshEncodeValue encodes a value of a type built at run time (a peer's
// version of a struct).
func freshEncodeValue(t testing.TB, v reflect.Value) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).EncodeValue(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeBoth decodes body into two new T's, one through Decode and one
// through a fresh gob.Decoder, and fails unless they agree: both fail, or
// both succeed with the same value (compared as %+v, which unlike
// reflect.DeepEqual takes a NaN to equal itself).
func decodeBoth[T any](t testing.TB, body []byte) (T, error) {
	t.Helper()
	var got, want T
	err := Decode(append([]byte(nil), body...), &got)
	werr := gob.NewDecoder(bytes.NewReader(body)).Decode(&want)
	if (err == nil) != (werr == nil) {
		t.Fatalf("Decode into %T: err = %v, a fresh decoder's = %v (body %x)", got, err, werr, body)
	}
	if err == nil && fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
		t.Fatalf("Decode into %T = %+v, a fresh decoder gives %+v (body %x)", got, got, want, body)
	}
	return got, err
}

// peerStruct builds the struct type a peer at another version would have:
// the named fields of plainMsg it keeps, plus extra ones.
func peerStruct(keep []string, extra ...reflect.StructField) reflect.Type {
	local := reflect.TypeOf(plainMsg{})
	var fields []reflect.StructField
	for _, name := range keep {
		f, _ := local.FieldByName(name)
		fields = append(fields, f)
	}
	return reflect.StructOf(append(fields, extra...))
}

func TestCodecConcurrent(t *testing.T) {
	const workers, rounds = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w * rounds; i < (w+1)*rounds; i++ {
				if err := roundTrip(samplePlain(i)); err != nil {
					t.Error(err)
					return
				}
				if err := roundTrip(sampleFloat(i)); err != nil {
					t.Error(err)
					return
				}
				if err := roundTrip(inner{ID: i, Tags: []string{"t"}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func roundTrip[T any](in T) error {
	body, err := Encode(in)
	if err != nil {
		return err
	}
	var out T
	err = Decode(body, &out)
	PutBuffer(body)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(in, out) {
		return fmt.Errorf("round trip of %+v gave %+v", in, out)
	}
	return nil
}

// TestFailedDecodeDoesNotPoisonPool corrupts the value of a body whose
// definitions a warm decoder already holds. The decode must fail as a fresh
// decoder's does, the decoder it ran on must not go back to its pool, and
// the next good body must decode correctly.
func TestFailedDecodeDoesNotPoisonPool(t *testing.T) {
	type msg struct {
		A int
		B string
	}
	good := freshEncode(t, msg{A: 7, B: "seven"})
	n, ok := typedefLen(good)
	if !ok || n == 0 || n == len(good) {
		t.Fatalf("typedefLen(good) = %d, %v", n, ok)
	}
	for range 3 {
		if _, err := decodeBoth[msg](t, good); err != nil {
			t.Fatal(err)
		}
	}
	// The value message is count, type id, then (field delta, value)
	// pairs; a delta of 0x7f names a field the type does not have.
	bad := append([]byte(nil), good...)
	_, w := gobUint(bad[n:])
	_, iw := gobUint(bad[n+w:])
	bad[n+w+iw] = 0x7f
	if _, err := decodeBoth[msg](t, bad); err == nil {
		t.Fatal("corrupt value decoded")
	}
	c := codecFor(reflect.TypeOf(&msg{}))
	c.mu.RLock()
	pool := c.decoders[string(good[:n])]
	c.mu.RUnlock()
	if pool == nil {
		t.Fatal("no decoder pool for the definitions of a body that decoded")
	}
	if d := pool.Get(); d != nil {
		t.Fatal("the decoder that failed went back to its pool")
	}
	for range 3 {
		got, err := decodeBoth[msg](t, good)
		if err != nil || got != (msg{A: 7, B: "seven"}) {
			t.Fatalf("after a failed decode: %+v, %v", got, err)
		}
	}
}

// TestLargeBodyLeavesNoWarmCodec: an encoder and a decoder keep their last
// message, so the ones that handled a body over maxWarmBody are dropped
// rather than pooled with it.
func TestLargeBodyLeavesNoWarmCodec(t *testing.T) {
	type blob struct{ Raw []byte }
	in := blob{Raw: make([]byte, maxWarmBody+1)}
	body, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := decodeBoth[blob](t, body); err != nil || len(got.Raw) != len(in.Raw) {
		t.Fatalf("decoded %d bytes, %v", len(got.Raw), err)
	}
	if e := codecFor(reflect.TypeOf(in)).encoders.Get(); e != nil {
		t.Error("the encoder of an oversized body was pooled")
	}
	n, _ := typedefLen(body)
	c := codecFor(reflect.TypeOf(&in))
	c.mu.RLock()
	pool := c.decoders[string(body[:n])]
	c.mu.RUnlock()
	if pool == nil || pool.Get() != nil {
		t.Errorf("decoder pool = %v; want one, empty", pool)
	}
}

// TestInterfaceFieldFallsBack: a type that can hold an interface defines
// concrete types as it meets them, so it keeps no codec state; each of its
// bodies is still exactly a fresh encoder's and decodes.
func TestInterfaceFieldFallsBack(t *testing.T) {
	type boxed struct {
		Name string
		V    any
	}
	type holder struct {
		Boxes []map[string]*boxed
	}
	gob.Register(inner{})
	for _, v := range []any{boxed{}, &boxed{}, holder{}, []any{1}} {
		if Pooled(v) {
			t.Errorf("%T keeps codec state although it can hold an interface", v)
		}
	}
	if !Pooled(plainMsg{}) || !Pooled(&floatMsg{}) || !Pooled(7) || !Pooled([]float64{1}) {
		t.Error("an interface-free type keeps no codec state")
	}
	for i, v := range []any{1, "two", inner{ID: 3}, nil, inner{ID: 4}, 5} {
		in := boxed{Name: fmt.Sprint(i), V: v}
		body, err := Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		if want := freshEncode(t, in); !bytes.Equal(body, want) {
			t.Fatalf("message %d: Encode = %x, a fresh encoder writes %x", i, body, want)
		}
		got, err := decodeBoth[boxed](t, body)
		if err != nil || !reflect.DeepEqual(got, in) {
			t.Fatalf("message %d: decoded %+v, %v; want %+v", i, got, err, in)
		}
	}
}

// TestSchemaCacheIsBounded sends one local type more distinct definition
// sets than it may keep decoders for: every body still decodes as a fresh
// decoder would, and the per-type map stops growing at maxSchemas.
func TestSchemaCacheIsBounded(t *testing.T) {
	type local struct {
		Name string
		N    int
	}
	c := codecFor(reflect.TypeOf(&local{}))
	for round := 0; round < 3; round++ {
		for i := 0; i < maxSchemas+3; i++ {
			peer := reflect.StructOf([]reflect.StructField{
				{Name: "Name", Type: reflect.TypeOf("")},
				{Name: "N", Type: reflect.TypeOf(0)},
				{Name: fmt.Sprintf("Extra%d", i), Type: reflect.TypeOf(0)},
			})
			v := reflect.New(peer).Elem()
			v.Field(0).SetString("peer")
			v.Field(1).SetInt(int64(i))
			v.Field(2).SetInt(99)
			got, err := decodeBoth[local](t, freshEncodeValue(t, v))
			if err != nil || got != (local{Name: "peer", N: i}) {
				t.Fatalf("schema %d: decoded %+v, %v", i, got, err)
			}
		}
		c.mu.RLock()
		n := len(c.decoders)
		c.mu.RUnlock()
		if n != maxSchemas {
			t.Fatalf("round %d: %d definition sets cached, want %d", round, n, maxSchemas)
		}
	}
}

// TestDecodeToleratesPeerSchema is the mixed-build case gob exists for: a
// peer whose struct has one field fewer, or one more, than the local type.
// Warm decoders must match fields by name exactly as a fresh one does.
func TestDecodeToleratesPeerSchema(t *testing.T) {
	fewer := peerStruct([]string{"Name", "N", "On", "Raw", "Items"})
	more := peerStruct([]string{"Name", "N", "On", "Raw", "Items", "ByKey"},
		reflect.StructField{Name: "Deadline", Type: reflect.TypeOf(0.0)},
		reflect.StructField{Name: "Owner", Type: reflect.TypeOf(inner{})})
	for i := 0; i < 5; i++ {
		want := samplePlain(i)
		for _, peer := range []reflect.Type{fewer, more, reflect.TypeOf(plainMsg{})} {
			v := reflect.New(peer).Elem()
			for f := 0; f < peer.NumField(); f++ {
				if src := reflect.ValueOf(want).FieldByName(peer.Field(f).Name); src.IsValid() {
					v.Field(f).Set(src)
				}
			}
			if f := v.FieldByName("Deadline"); f.IsValid() {
				f.SetFloat(1.25)
			}
			got, err := decodeBoth[plainMsg](t, freshEncodeValue(t, v))
			if err != nil {
				t.Fatal(err)
			}
			expect := want
			if !v.FieldByName("ByKey").IsValid() {
				expect.ByKey = nil
			}
			if !reflect.DeepEqual(got, expect) {
				t.Fatalf("message %d from peer %v: got %+v, want %+v", i, peer, got, expect)
			}
		}
	}
}

// TestPeerInterfaceFieldIsNotPooled: a peer's struct has an interface field
// the local type lacks. gob defines the concrete type it holds inside the
// value message, every time a fresh encoder sends one; a decoder that
// skipped the field keeps that definition and would reject the next such
// body ("duplicate type received") where a fresh decoder accepts it — so
// definitions that mention an interface are never given a pool.
func TestPeerInterfaceFieldIsNotPooled(t *testing.T) {
	type nested struct{ Depth int }
	type local struct{ N int }
	gob.Register(nested{})
	peer := reflect.StructOf([]reflect.StructField{
		{Name: "N", Type: reflect.TypeOf(0)},
		{Name: "Extra", Type: reflect.TypeOf((*any)(nil)).Elem()},
	})
	for i := 1; i <= 4; i++ {
		v := reflect.New(peer).Elem()
		v.Field(0).SetInt(int64(i))
		v.Field(1).Set(reflect.ValueOf(nested{Depth: i}))
		body := freshEncodeValue(t, v)
		got, err := decodeBoth[local](t, body)
		if err != nil || got.N != i {
			t.Fatalf("body %d: decoded %+v, %v", i, got, err)
		}
		n, _ := typedefLen(body)
		if !defsHaveInterface(body[:n]) {
			t.Fatal("definitions with an interface-typed field passed defsHaveInterface")
		}
	}
	if c := codecFor(reflect.TypeOf(&local{})); len(c.decoders) != 0 {
		t.Fatalf("%d definition sets pooled, want 0", len(c.decoders))
	}
	// What the runtime does send is walked clean.
	for _, v := range []any{samplePlain(1), sampleFloat(1), inner{}, []float64{1}, map[string][]inner{}} {
		body := freshEncode(t, v)
		n, ok := typedefLen(body)
		if !ok || defsHaveInterface(body[:n]) {
			t.Errorf("%T: typedefLen = %d, %v; defsHaveInterface = %v", v, n, ok, defsHaveInterface(body[:n]))
		}
	}
}

// fuzzSeeds are the bodies both fuzzers start from: real ones, every
// truncation of them, one type's definitions in front of another's value,
// and trailing bytes after a complete body.
func fuzzSeeds(f *testing.F) {
	plain, float := freshEncode(f, samplePlain(3)), freshEncode(f, sampleFloat(3))
	np, _ := typedefLen(plain)
	nf, _ := typedefLen(float)
	// A peer's plainMsg with an interface field, whose concrete type gob
	// defines inside the value (TestPeerInterfaceFieldIsNotPooled).
	gob.Register(inner{})
	withAny := reflect.New(peerStruct([]string{"Name", "N"},
		reflect.StructField{Name: "Extra", Type: reflect.TypeOf((*any)(nil)).Elem()})).Elem()
	withAny.Field(2).Set(reflect.ValueOf(inner{ID: 9}))
	seeds := [][]byte{
		plain, float, freshEncode(f, plainMsg{}), freshEncode(f, inner{ID: 1}), freshEncode(f, 42),
		freshEncodeValue(f, withAny),
		append(append([]byte(nil), float[:nf]...), plain[np:]...),
		append(append([]byte(nil), plain[:np]...), float[nf:]...),
		append(append([]byte(nil), plain...), 0xde, 0xad, 0xbe, 0xef),
		append(append([]byte(nil), plain...), plain...),
		plain[np:], {}, {0}, {0xff}, {0xf7, 1, 2, 3, 4, 5, 6, 7, 8, 9},
	}
	for i := 0; i < len(plain); i++ {
		seeds = append(seeds, plain[:i])
	}
	for i := 0; i < len(float); i++ {
		seeds = append(seeds, float[:i])
	}
	for _, s := range seeds {
		f.Add(s)
	}
}

// FuzzDecodeMatchesFreshGob: whatever the bytes, Decode on pools that earlier
// inputs have warmed agrees with a decoder built for this input alone —
// twice over, so that the second pass meets a decoder the first one primed
// with these very definitions.
func FuzzDecodeMatchesFreshGob(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		for range 2 {
			decodeBoth[plainMsg](t, body)
			decodeBoth[floatMsg](t, body)
		}
	})
}

// FuzzTypedefLen: the split never reaches outside the body, and when it
// parses, what precedes it is whole definition messages and what follows
// opens with a complete value message.
func FuzzTypedefLen(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		n, ok := typedefLen(body)
		if !ok {
			if n != 0 {
				t.Fatalf("typedefLen = %d, false", n)
			}
			return
		}
		if n < 0 || n >= len(body) {
			t.Fatalf("typedefLen = %d of %d bytes", n, len(body))
		}
		if again, ok := typedefLen(body[n:]); !ok || again != 0 {
			t.Fatalf("the value message at %d does not parse as one: %d, %v", n, again, ok)
		}
		for off := 0; off < n; {
			size, w := gobUint(body[off:])
			id, iw := gobUint(body[off+w:])
			if w == 0 || iw == 0 || id&1 == 0 {
				t.Fatalf("message at %d before the split at %d is not a definition", off, n)
			}
			off += w + int(size)
			if off > n {
				t.Fatalf("a definition message runs past the split at %d", n)
			}
		}
		defsHaveInterface(body[:n]) // must not panic on anything typedefLen delimited
	})
}
