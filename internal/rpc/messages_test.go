package rpc_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"harmony/internal/ps"
	"harmony/internal/rpc"
	"harmony/internal/worker"
)

// registerArgs has the shape of the master.register request. Its two
// declarations (master.registerArgs, and a type local to worker.Start) are
// not visible from any test; JSON names a field by its name alone, so this
// one puts the same bytes on the wire.
type registerArgs struct {
	Name string
	Addr string
}

// wireMessage is one message type with what a test needs of it that only
// a type parameter can give: an echo handler built by Typed, its
// registration, and a call of it through Invoke.
type wireMessage struct {
	zero   any
	typed  rpc.Handler
	handle func(*rpc.Server)
	echo   func(c *rpc.Client, v any) (any, error)
}

func message[T any]() wireMessage {
	var zero T
	method := fmt.Sprintf("echo.%T", zero)
	typed := rpc.Typed(func(v T) (T, error) { return v, nil })
	return wireMessage{
		zero:   zero,
		typed:  typed,
		handle: func(s *rpc.Server) { s.Handle(method, typed) },
		echo: func(c *rpc.Client, v any) (any, error) {
			return rpc.Invoke[T, T](c, method, v.(T), 5*time.Second)
		},
	}
}

// messageTypes is every type the runtime passes to rpc.Typed or rpc.Invoke
// (grep those two names when adding a method).
var messageTypes = []wireMessage{
	message[registerArgs](),
	message[worker.LoadJobArgs](), message[worker.StartJobArgs](), message[worker.DropJobArgs](),
	message[worker.SetAlphaArgs](), message[worker.StatsArgs](), message[worker.StatsReply](),
	message[worker.BarrierArgs](), message[worker.BarrierReply](), message[worker.JobDoneArgs](),
	message[worker.Ack](),
	message[ps.DropArgs](), message[ps.StatsArgs](), message[ps.StatsReply](), message[ps.Ack](),
}

// populate sets every exported field reachable from v to a non-zero value
// (two elements per slice, one entry per map), so a type's whole definition
// and every field's encoding are exercised whatever fields it grows.
func populate(v reflect.Value, seed *int) {
	*seed++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(*seed))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(uint64(*seed))
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*seed) + 0.25)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *seed))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			populate(v.Index(i), seed)
		}
	case reflect.Map:
		k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		populate(k, seed)
		populate(e, seed)
		v.Set(reflect.MakeMap(v.Type()))
		v.SetMapIndex(k, e)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		populate(v.Elem(), seed)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				populate(v.Field(i), seed)
			}
		}
	default:
		panic("populate: no rule for " + v.Type().String())
	}
}

// sameValue is reflect.DeepEqual with floats compared by their bits, so a
// NaN equals itself and -0 differs from +0.
func sameValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Slice, reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		if a.Kind() == reflect.Map {
			for it := a.MapRange(); it.Next(); {
				if e := b.MapIndex(it.Key()); !e.IsValid() || !sameValue(it.Value(), e) {
					return false
				}
			}
			return true
		}
		fallthrough
	case reflect.Array:
		for i := range a.Len() {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

// decodeAs decodes body into a new value of zero's type.
func decodeAs(zero any, body []byte) (reflect.Value, error) {
	v := reflect.New(reflect.TypeOf(zero))
	err := rpc.Decode(body, v.Interface())
	return v.Elem(), err
}

// TestEncodeMatchesFreshGob (named for the gob codec it once checked): the
// zero and a fully populated value of every message type, and the values a
// float or a cursor can take at the edge of what JSON carries, encode into
// a pooled buffer as json.Marshal writes them, and come back equal (floats
// bit for bit) through Encode/Decode and through a loopback Invoke of a
// Typed echo handler.
func TestEncodeMatchesFreshGob(t *testing.T) {
	srv := rpc.NewServer()
	for _, m := range messageTypes {
		m.handle(srv)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := rpc.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	edge := map[reflect.Type][]any{
		reflect.TypeOf(worker.StatsArgs{}): {worker.StatsArgs{SpanAfter: worker.SpanCursorNone}},
	}
	for _, loss := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)} {
		b := benchBarrier
		b.Loss = rpc.Float(loss)
		edge[reflect.TypeOf(b)] = append(edge[reflect.TypeOf(b)], b)
	}
	for _, m := range messageTypes {
		typ := reflect.TypeOf(m.zero)
		full := reflect.New(typ).Elem()
		seed := 0
		populate(full, &seed)
		for _, v := range append([]any{m.zero, full.Interface()}, edge[typ]...) {
			body, err := rpc.Encode(v)
			if err != nil {
				t.Fatalf("%v: Encode %+v: %v", typ, v, err)
			}
			if fresh, err := json.Marshal(v); err != nil || !bytes.Equal(body, fresh) {
				t.Fatalf("%v: Encode wrote %s, json.Marshal %s, %v", typ, body, fresh, err)
			}
			got, err := decodeAs(m.zero, body)
			if err != nil {
				t.Fatalf("%v: Decode %s: %v", typ, body, err)
			}
			if !sameValue(got, reflect.ValueOf(v)) {
				t.Fatalf("%v: %+v came back as %+v (body %s)", typ, v, got, body)
			}
			echoed, err := m.echo(c, v)
			if err != nil {
				t.Fatalf("%v: Invoke: %v", typ, err)
			}
			if !sameValue(reflect.ValueOf(echoed), reflect.ValueOf(v)) {
				t.Fatalf("%v: %+v came back through Invoke as %+v", typ, v, echoed)
			}
		}
	}
}

// fuzzSeeds are the bodies the decode fuzzers start from: real ones,
// truncations of the three the control plane sends most, and hostile
// shapes.
func fuzzSeeds(f *testing.F) {
	var seeds [][]byte
	add := func(v any) []byte {
		body, err := rpc.Encode(v)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, body)
		return body
	}
	for _, m := range messageTypes {
		full := reflect.New(reflect.TypeOf(m.zero)).Elem()
		seed := 0
		populate(full, &seed)
		add(m.zero)
		add(full.Interface())
	}
	add(worker.StatsArgs{SpanAfter: worker.SpanCursorNone})
	for k, v := range benchMessages() {
		body := add(v)
		step := 1
		if k == 2 {
			step = 16 // the stats reply is long: every 16th cut
		}
		for i := 0; i < len(body); i += step {
			seeds = append(seeds, body[:i])
		}
	}
	for _, s := range []string{
		`null`, `[]`, `"x"`, `{"Loss":NaN}`, `{"Loss":"nan"}`, `{"Loss":1e400}`,
		`{"Job":"a","job":"b","JOB":3}`, `{"Iteration":1.5}`, `{"SpanAfter":-1}`,
		`{"SpanAfter":18446744073709551616}`, `{"PhaseHist":[{"Counts":[1,2]}]}`,
		`{"Spans":[{"Seq":1}],"Spans":null}`, `{"Name":"\ud800\u00e9"}`, `{} {}`,
		`{"Config":{"Kind":99}}`, `[[[[[[[[[[[[[[[[[[[[]]]]]]]]]]]]]]]]]]]`,
	} {
		seeds = append(seeds, []byte(s))
	}
	for _, s := range seeds {
		f.Add(s)
	}
}

// FuzzDecode feeds arbitrary bytes to Decode into every message type:
// nothing panics, and a body that decodes re-encodes to one that decodes
// to the same value.
func FuzzDecode(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, m := range messageTypes {
			v, err := decodeAs(m.zero, body)
			if err != nil {
				continue
			}
			again, err := rpc.Encode(v.Interface())
			if err != nil {
				t.Fatalf("%T decoded from %q does not re-encode: %v", m.zero, body, err)
			}
			w, err := decodeAs(m.zero, again)
			if err != nil || !sameValue(v, w) {
				t.Fatalf("%T from %q re-encoded as %s, which decodes as %+v, %v; want %+v",
					m.zero, body, again, w, err, v)
			}
		}
	})
}

// FuzzDecodeMatchesFreshGob (named for the gob codec whose pooled decoders
// it once compared with a fresh one): whatever the bytes, the codec agrees
// with encoding/json used fresh. Decode succeeds exactly when json.Unmarshal
// into a new value does, with the same value, and Encode of that value into
// a buffer from the shared pool writes what json.Marshal writes — twice
// over, so the second pass writes into the buffer the first put back.
func FuzzDecodeMatchesFreshGob(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		for range 2 {
			for _, m := range messageTypes {
				got, err := decodeAs(m.zero, body)
				want := reflect.New(reflect.TypeOf(m.zero))
				werr := json.Unmarshal(body, want.Interface())
				if (err == nil) != (werr == nil) {
					t.Fatalf("Decode into %T: err = %v, json.Unmarshal's = %v (body %q)", m.zero, err, werr, body)
				}
				if err != nil {
					continue
				}
				if !sameValue(got, want.Elem()) {
					t.Fatalf("Decode into %T = %+v, json.Unmarshal gives %+v (body %q)", m.zero, got, want.Elem(), body)
				}
				enc, err := rpc.Encode(got.Interface())
				fresh, ferr := json.Marshal(got.Interface())
				if (err == nil) != (ferr == nil) || !bytes.Equal(enc, fresh) {
					t.Fatalf("%T from %q: Encode wrote %s, %v; json.Marshal %s, %v", m.zero, body, enc, err, fresh, ferr)
				}
				rpc.PutBuffer(enc)
			}
		}
	})
}

// FuzzTypedefLen (named for the gob codec, whose type-definition prefix it
// once split off a body): a body reaches its type through a Typed handler,
// and what that reads is the whole body. Whatever the bytes, the echo
// handler of every message type fails exactly when Decode does; when it
// does not, the body is one JSON value with nothing after it, and so is the
// reply, which is what Encode writes for the decoded value.
func FuzzTypedefLen(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, m := range messageTypes {
			reply, err := m.typed(body)
			v, derr := decodeAs(m.zero, body)
			if (err == nil) != (derr == nil) {
				t.Fatalf("%T handler: err = %v, Decode's = %v (body %q)", m.zero, err, derr, body)
			}
			if err != nil {
				continue
			}
			if !json.Valid(body) || !json.Valid(reply) {
				t.Fatalf("%T handler took %q and replied %q: not one JSON value each", m.zero, body, reply)
			}
			want, err := rpc.Encode(v.Interface())
			if err != nil || !bytes.Equal(reply, want) {
				t.Fatalf("%T handler replied %s to %q; Encode of its value writes %s, %v", m.zero, reply, body, want, err)
			}
			rpc.PutBuffer(reply)
			rpc.PutBuffer(want)
		}
	})
}

var benchBarrier = worker.BarrierArgs{Job: "job-17", Worker: "w3", Iteration: 42, Epoch: 2,
	CompSeconds: 0.125, NetSeconds: 0.031, Loss: 0.693}

// benchMessages are the three shapes that dominate control-plane traffic:
// the per-iteration barrier, the per-deployment load, the per-scrape stats
// reply.
func benchMessages() []any {
	stats := reflect.New(reflect.TypeOf(worker.StatsReply{})).Elem()
	seed := 0
	populate(stats, &seed)
	return []any{
		benchBarrier,
		worker.LoadJobArgs{Job: "job-17", Servers: []string{"127.0.0.1:7001", "127.0.0.1:7002"},
			ShardIndex: 1, ShardCount: 2, Seed: 7, InitModel: true, Alpha: 0.5},
		stats.Interface(),
	}
}

// BenchmarkCodecRoundTrip is one Encode and one Decode of a message, the
// codec's share of every control-plane call.
func BenchmarkCodecRoundTrip(b *testing.B) {
	for _, msg := range benchMessages() {
		b.Run(reflect.TypeOf(msg).Name(), func(b *testing.B) {
			out := reflect.New(reflect.TypeOf(msg)).Interface()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				body, err := rpc.Encode(msg)
				if err != nil {
					b.Fatal(err)
				}
				if err := rpc.Decode(body, out); err != nil {
					b.Fatal(err)
				}
				rpc.PutBuffer(body)
			}
		})
	}
}

// BenchmarkInvokeTyped is a barrier-shaped call through Invoke to a Typed
// handler behind a loopback server: the typed twin of a raw Client.Call
// echo, which never enters the codec.
func BenchmarkInvokeTyped(b *testing.B) {
	srv := rpc.NewServer()
	srv.Handle("barrier", rpc.Typed(func(a worker.BarrierArgs) (worker.BarrierReply, error) {
		return worker.BarrierReply{Directive: worker.Continue}, nil
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := rpc.Dial(addr, time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rpc.Invoke[worker.BarrierArgs, worker.BarrierReply](c, "barrier", benchBarrier, time.Minute); err != nil {
			b.Fatal(err)
		}
	}
}
