package rpc

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
)

type inner struct {
	ID   int
	Tags []string
}

// plainMsg and floatMsg are the round-trip targets of the concurrency and
// peer-schema tests: between them every kind the runtime's messages use
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

// TestDecodeToleratesPeerSchema: a peer whose struct has one field fewer,
// or one more, than the local type. Fields match by name; a missing one
// decodes as zero and an unknown one is skipped.
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
			body, err := Encode(v.Interface())
			if err != nil {
				t.Fatal(err)
			}
			var got plainMsg
			if err := Decode(body, &got); err != nil {
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

// TestFailedDecodeDoesNotPoisonPool: a Decode or an Encode that fails
// changes nothing for the next good one, whose buffer comes from the same
// shared pool.
func TestFailedDecodeDoesNotPoisonPool(t *testing.T) {
	good := samplePlain(7)
	body, err := Encode(good)
	if err != nil {
		t.Fatal(err)
	}
	want := string(body)
	PutBuffer(body)
	for _, bad := range []string{want[:len(want)-1], want + "}", `{"N":"seven"}`, `{"Items":[{"ID":1},`} {
		var got plainMsg
		if err := Decode([]byte(bad), &got); err == nil {
			t.Fatalf("%s decoded as %+v", bad, got)
		}
		if b, err := Encode(floatMsg{Loss: math.NaN()}); err == nil {
			t.Fatalf("a NaN float64 encoded as %s", b)
		}
		for range 2 {
			b, err := Encode(good)
			if err != nil || string(b) != want {
				t.Fatalf("after a failure, Encode wrote %s, %v; want %s", b, err, want)
			}
			var out plainMsg
			if err := Decode(b, &out); err != nil || !reflect.DeepEqual(out, good) {
				t.Fatalf("after a failure, decoded %+v, %v", out, err)
			}
			PutBuffer(b)
		}
	}
}

// TestPeerInterfaceFieldIsNotPooled: a peer's struct has an interface field
// the local type lacks, holding a different kind of value in each body.
// Decode skips whatever JSON value it holds, and nothing of one body is
// kept for the next.
func TestPeerInterfaceFieldIsNotPooled(t *testing.T) {
	type local struct{ N int }
	peer := reflect.StructOf([]reflect.StructField{
		{Name: "N", Type: reflect.TypeOf(0)},
		{Name: "Extra", Type: reflect.TypeOf((*any)(nil)).Elem()},
	})
	extras := []any{inner{ID: 9, Tags: []string{"x"}}, []any{1, "two", []int{3}}, "s",
		map[string]any{"N": 99, "Deep": map[string]any{"N": 100}}, nil, 2.5, true}
	for i, extra := range extras {
		v := reflect.New(peer).Elem()
		v.Field(0).SetInt(int64(i + 1))
		if extra != nil {
			v.Field(1).Set(reflect.ValueOf(extra))
		}
		body, err := Encode(v.Interface())
		if err != nil {
			t.Fatal(err)
		}
		var got local
		if err := Decode(body, &got); err != nil || got.N != i+1 {
			t.Fatalf("body %s: decoded %+v, %v", body, got, err)
		}
		PutBuffer(body)
	}
}

// TestFloatForms: a Float decodes from a JSON number or from one of the
// three strings it writes for a non-finite value, and from nothing else.
func TestFloatForms(t *testing.T) {
	for body, want := range map[string]float64{
		`1.5`: 1.5, `-0`: math.Copysign(0, -1), `1e+300`: 1e300,
		`"NaN"`: math.NaN(), `"+Inf"`: math.Inf(1), `"-Inf"`: math.Inf(-1),
	} {
		var f Float
		if err := Decode([]byte(body), &f); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if math.Float64bits(float64(f)) != math.Float64bits(want) {
			t.Errorf("%s decoded as %v, want %v", body, f, want)
		}
		again, err := Encode(f)
		if err != nil || string(again) != body {
			t.Errorf("%s re-encoded as %s, %v", body, again, err)
		}
	}
	for _, body := range []string{`"Inf"`, `"nan"`, `"1.5"`, `true`, `1e400`} {
		var f Float
		if err := Decode([]byte(body), &f); err == nil {
			t.Errorf("%s decoded as %v", body, f)
		}
	}
}
