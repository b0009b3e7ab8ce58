package rpc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"
)

// Control-plane bodies are JSON (DESIGN.md §8), fields matched by name.
// No body carries a model: models move over the data plane.

// Encode JSON-encodes a value for use as a request or response body, into
// a pooled buffer that Invoke and the server hand back once it is written.
func Encode(v any) ([]byte, error) {
	buf := bytes.NewBuffer(GetBuffer(0))
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return nil, fmt.Errorf("rpc: encode %T: %w", v, err)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
}

// Decode JSON-decodes body into out (a pointer).
func Decode(body []byte, out any) error {
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("rpc: decode %T: %w", out, err)
	}
	return nil
}

// Float is a float64 that may be non-finite, which encoding/json refuses:
// a finite value travels as a JSON number, NaN, +Inf and -Inf as the
// strings "NaN", "+Inf" and "-Inf". Either form decodes.
type Float float64

// nonFinite maps the JSON a Float writes for a non-finite value to it.
var nonFinite = map[string]float64{`"NaN"`: math.NaN(), `"+Inf"`: math.Inf(1), `"-Inf"`: math.Inf(-1)}

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) {
	if v := float64(f); math.IsNaN(v) || math.IsInf(v, 0) {
		return strconv.AppendQuote(nil, strconv.FormatFloat(v, 'g', -1, 64)), nil
	}
	return json.Marshal(float64(f))
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *Float) UnmarshalJSON(b []byte) error {
	if v, ok := nonFinite[string(b)]; ok {
		*f = Float(v)
		return nil
	}
	return json.Unmarshal(b, (*float64)(f))
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
// buffers cycle through the shared pool.
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
	return reply, err
}
