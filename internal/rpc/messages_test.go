package rpc_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"
	"time"

	"harmony/internal/ps"
	"harmony/internal/rpc"
	"harmony/internal/worker"
)

// registerArgs has the shape of the master.register request. Its two
// declarations (master.registerArgs, and a type local to worker.Start) are
// not visible from any test; gob describes a struct by its name and fields,
// so this one puts the same bytes on the wire.
type registerArgs struct {
	Name string
	Addr string
}

// messageTypes is every type the runtime passes to rpc.Typed or rpc.Invoke
// (grep those two names when adding a method).
var messageTypes = []any{
	registerArgs{},
	worker.LoadJobArgs{}, worker.StartJobArgs{}, worker.DropJobArgs{}, worker.SetAlphaArgs{},
	worker.StatsArgs{}, worker.StatsReply{}, worker.BarrierArgs{},
	worker.BarrierReply{}, worker.JobDoneArgs{}, worker.Ack{},
	ps.DropArgs{}, ps.StatsArgs{}, ps.StatsReply{}, ps.Ack{},
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

// TestEncodeMatchesFreshGob is the wire-compatibility proof: for the zero
// and a fully populated value of every message type, the 1st, 2nd and 50th
// Encode are byte for byte what a gob.Encoder built for that one message
// writes, Decode of those bytes equals a fresh gob.Decoder's result, and
// none of the types is one the pooled codec has to decline.
func TestEncodeMatchesFreshGob(t *testing.T) {
	for _, zero := range messageTypes {
		typ := reflect.TypeOf(zero)
		if !rpc.Pooled(zero) || !rpc.Pooled(reflect.New(typ).Interface()) {
			t.Errorf("%v takes the fresh-codec fallback", typ)
		}
		full := reflect.New(typ).Elem()
		seed := 0
		populate(full, &seed)
		for vi, v := range []any{zero, full.Interface()} {
			var fresh bytes.Buffer
			if err := gob.NewEncoder(&fresh).Encode(v); err != nil {
				t.Fatalf("%v: %v", typ, err)
			}
			for i := 1; i <= 50; i++ {
				body, err := rpc.Encode(v)
				if err != nil {
					t.Fatalf("%v: Encode %d: %v", typ, i, err)
				}
				if i <= 2 || i == 50 {
					if !bytes.Equal(body, fresh.Bytes()) {
						t.Fatalf("%v: Encode %d = %x\na fresh encoder writes %x", typ, i, body, fresh.Bytes())
					}
					got, want := reflect.New(typ), reflect.New(typ)
					if err := rpc.Decode(body, got.Interface()); err != nil {
						t.Fatalf("%v: Decode %d: %v", typ, i, err)
					}
					if err := gob.NewDecoder(bytes.NewReader(body)).Decode(want.Interface()); err != nil {
						t.Fatalf("%v: %v", typ, err)
					}
					if !reflect.DeepEqual(got.Elem().Interface(), want.Elem().Interface()) {
						t.Fatalf("%v: Decode %d = %+v, a fresh decoder gives %+v", typ, i, got.Elem(), want.Elem())
					}
					if vi == 1 && !reflect.DeepEqual(got.Elem().Interface(), v) {
						t.Fatalf("%v: round trip of %+v gave %+v", typ, v, got.Elem())
					}
				}
				rpc.PutBuffer(body)
			}
		}
	}
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
